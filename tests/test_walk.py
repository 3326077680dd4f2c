"""The batch walk: one count per symmetry orbit, shared slice prefixes, one
walk per pass and order, and the record bookkeeping around it.

Every batch count is checked against the same counter run on one candidate
set at a time (a walk of one set), and the records a pass writes against what
the pass asks for.
"""

import contextlib
import io
import itertools
import json

import pytest

from ellipticdt import cli, dtseries, vertex
from ellipticdt.partitions import BOX, EMPTY, Partition, enumerate_partitions
from ellipticdt.vertex import LegConfig, VertexCache, minimal_volume


def one_by_one(cfg, order):
    return tuple(vertex._walk([vertex._candidate_poset(cfg, order)], order)[0])


def pass_configs(q_order):
    """The three families a `check all` pass counts, each config once."""
    return list(
        dict.fromkeys(
            LegConfig(lam, mu, EMPTY)
            for d in range(q_order + 1)
            for lam in enumerate_partitions(d)
            for mu in (EMPTY, BOX, lam.conjugate())
        )
    )


def small_configs():
    """Legs of size <= 3 and total size <= 5, the third leg included (128 configs)."""
    parts = [lam for n in range(4) for lam in enumerate_partitions(n)]
    cfgs = itertools.starmap(LegConfig, itertools.product(parts, repeat=3))
    return [cfg for cfg in cfgs if cfg.total_size() <= 5]


def run(*args):
    vertex.clear_memo()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(list(args))
    assert code == 0, out.getvalue()


def check_all(*args):
    run("check", "all", *args)


def walk_sizes(monkeypatch):
    """The number of candidate sets of each walk made from now on, in order."""
    sizes = []
    real = vertex._walk

    def noted(cand_sets, order):
        cand_sets = list(cand_sets)
        sizes.append(len(cand_sets))
        return real(cand_sets, order)

    monkeypatch.setattr(vertex, "_walk", noted)
    return sizes


def test_batch_counts_equal_one_by_one_on_every_q8p16_config():
    cfgs = pass_configs(8)
    assert len(cfgs) == 199
    vertex.clear_memo()
    batch = vertex._count_batch(cfgs, 16)
    assert batch == [one_by_one(cfg, 16) for cfg in cfgs]


@pytest.mark.parametrize("order", (0, 1, 3, 7))
def test_batch_counts_equal_one_by_one_on_small_configs(order):
    """All six orientations of a config are in this batch, so every orbit map is used."""
    cfgs = small_configs()
    assert len(cfgs) * 4 == 512
    vertex.clear_memo()
    batch = vertex._count_batch(cfgs, order)
    assert batch == [one_by_one(cfg, order) for cfg in cfgs]


def test_orbit_key_is_shared_by_the_orbit_and_by_nothing_else():
    keys = {cfg: vertex._orbit_key(cfg) for cfg in small_configs()}
    for cfg, key in keys.items():
        c1 = cfg.cyclic()
        c2 = c1.cyclic()
        images = {cfg, c1, c2, cfg.conjugate_swap(), c1.conjugate_swap(), c2.conjugate_swap()}
        assert {other for other, k in keys.items() if k == key} == images & keys.keys()


def test_walk_of_equal_empty_and_prefix_sets():
    """Repeated sets read their counts off the path; an empty set counts one ideal."""
    cube = list(itertools.product(range(2), range(2), range(3)))
    lower = [box for box in cube if box[2] < 2]
    order = 12
    alone = [vertex._walk([c], order)[0] for c in (cube, lower, [])]
    got = vertex._walk([cube, lower, cube, [], lower, cube], order)
    assert got == [alone[0], alone[1], alone[0], alone[2], alone[1], alone[0]]
    assert alone[2] == [1] + [0] * order


def test_cold_q4p8_pass_counts_29_orbits_in_one_walk_and_writes_34_records(tmp_path, monkeypatch):
    walks = []
    real = vertex._walk

    def noted(cand_sets, order):
        cand_sets = list(cand_sets)
        walks.append((len(cand_sets), order))
        return real(cand_sets, order)

    monkeypatch.setattr(vertex, "_walk", noted)
    check_all("--q-order", "4", "--p-order", "8", "--cache-dir", str(tmp_path))
    assert walks == [(29, 8)]
    assert len(list(tmp_path.iterdir())) == len(list(tmp_path.glob("*.json"))) == 34


@pytest.mark.parametrize("q_order,p_order", [(4, 8), (5, 9)])
def test_batch_is_the_set_of_the_pass_requests(monkeypatch, q_order, p_order):
    batches, asked = [], set()
    real_batch, real_tilde = vertex._count_batch, dtseries.tilde_vertex

    def batch(cfgs, order):
        batches.append((set(cfgs), order))
        return real_batch(cfgs, order)

    def tilde(cfg, order, cache=None):
        asked.add((cfg, order))
        return real_tilde(cfg, order, cache)

    monkeypatch.setattr(vertex, "_count_batch", batch)
    monkeypatch.setattr(dtseries, "tilde_vertex", tilde)
    check_all("--q-order", str(q_order), "--p-order", str(p_order))
    assert len(batches) == 1
    cfgs, order = batches[0]
    assert {(cfg, order) for cfg in cfgs} == asked
    assert cfgs == set(pass_configs(q_order)) == set(dtseries._row_legs(q_order))


def test_single_vertex_counts_once_in_its_own_orientation(capsys, monkeypatch):
    monkeypatch.delenv("ELLIPTICDT_CACHE", raising=False)
    walks = []
    real = vertex._walk

    def noted(cand_sets, order):
        walks.append((list(cand_sets), order))
        return real(*walks[-1])

    monkeypatch.setattr(vertex, "_walk", noted)
    vertex.clear_memo()
    assert cli.main(["vertex", "--legs", "4,3;;", "--p-order", "3"]) == 0
    capsys.readouterr()
    cfg = LegConfig(Partition((4, 3)), EMPTY, EMPTY)
    assert walks == [([vertex._candidate_poset(cfg, 3)], 3)]


def test_warm_pass_counts_nothing(tmp_path, monkeypatch):
    check_all("--q-order", "3", "--p-order", "6", "--cache-dir", str(tmp_path))
    walks = []
    monkeypatch.setattr(vertex, "_walk", lambda *args: walks.append(args))
    monkeypatch.setattr(dtseries, "_row_legs", lambda q_order: walks.append(q_order) or [])
    check_all("--q-order", "3", "--p-order", "6", "--cache-dir", str(tmp_path))
    assert walks == []


def test_walk_skips_configs_whose_records_are_on_disk(tmp_path, monkeypatch):
    """A pass over a cache another pass filled in part counts only what is missing."""
    check_all("--q-order", "2", "--p-order", "6", "--cache-dir", str(tmp_path))
    before = set(tmp_path.glob("*.json"))
    counted = []
    real = vertex._count_batch

    def noted(cfgs, order):
        counted.extend(cfgs)
        return real(cfgs, order)

    monkeypatch.setattr(vertex, "_count_batch", noted)
    check_all("--q-order", "5", "--p-order", "6", "--cache-dir", str(tmp_path))
    written = {str(path) for path in set(tmp_path.glob("*.json")) - before}
    cache = VertexCache(str(tmp_path))
    assert len(written) == len(counted) == 21  # the degree-5 configs
    assert {cache._path(cfg.canonical_key(6)) for cfg in counted} == written


def test_clear_memo_forgets_counts_and_notes():
    check_all("--q-order", "2", "--p-order", "4")
    assert vertex._RECORDS
    vertex.expect(4, None, list)
    vertex.clear_memo()
    assert vertex._RECORDS == {} and vertex._EXPECTED == {}


@pytest.mark.parametrize(
    "argv,walks",
    [
        (("check", "all", "--q-order", "2", "--p-order", "5"), [8, 8, 13]),
        (("fd", "--smooth", "2,1", "--nodal", "3", "--p-order", "6"), [16]),
        (("dt", "--side", "sum", "--q-order", "2", "--p-order", "6"), [8]),
        (("dtfib", "--side", "sum", "--q-order", "2", "--p-order", "6"), [8]),
    ],
)
def test_rows_below_q_order_4_are_counted_with_their_notes(monkeypatch, argv, walks):
    """The f_d points and the sum sides note their rows, so no config is walked alone."""
    monkeypatch.delenv("ELLIPTICDT_CACHE", raising=False)
    sizes = walk_sizes(monkeypatch)
    run(*argv)
    assert sizes == walks


def test_damaged_record_is_counted_in_the_pass_walk(tmp_path, monkeypatch):
    """A noted key whose file does not read as its record joins the one walk."""
    argv = ("dt", "--side", "sum", "--p-order", "6", "--cache-dir", str(tmp_path))
    run(*argv, "--q-order", "2")
    cfg = LegConfig(Partition((2,)), Partition((1, 1)), EMPTY)
    path = tmp_path / "2_1,1__6.json"
    assert str(path) == VertexCache(str(tmp_path))._path(cfg.canonical_key(6))
    path.write_text("garbage")
    sizes = walk_sizes(monkeypatch)
    run(*argv, "--q-order", "4")
    assert sizes == [22]
    assert VertexCache(str(tmp_path)).get(cfg, 6) == vertex.tilde_vertex(cfg, 6)


def test_repeated_f_d_series_notes_each_degree_once(monkeypatch):
    notes = []
    monkeypatch.setattr(
        dtseries, "expect", lambda order, cache, legs: notes.append((order, cache, legs.args))
    )
    vertex.clear_memo()
    surf = dtseries.SurfaceData(2, 12)
    configs = [dtseries.PointConfig(a, b) for a, b in (((2, 1), (3,)), ((), ()), ((1,), (1,)))]
    for i in range(50):
        dtseries.f_d_series(configs[i % 3], surf, 5, ("factored", "strata")[i % 2])
    assert notes == [(5, None, (3,)), (5, None, (1,))]


def brute_minimal_volume(cfg):
    """Sum of 1 - k over the boxes lying in k >= 2 legs, scanning a cube."""
    r = max(max(leg.first_part(), leg.length()) for leg in cfg)
    vol = 0
    for box in itertools.product(range(r), repeat=3):
        k = cfg.in_legs(*box)
        if k >= 2:
            vol += 1 - k
    return vol


def test_minimal_volume_against_the_box_scan():
    parts = [lam for n in range(5) for lam in enumerate_partitions(n)]
    for legs in itertools.product(parts, repeat=3):
        cfg = LegConfig(*legs)
        assert minimal_volume(cfg) == brute_minimal_volume(cfg), cfg


def test_cache_record_with_float_or_bool_legs_is_a_miss(tmp_path):
    cfg = LegConfig(Partition((2, 1)), BOX, EMPTY)
    cache = VertexCache(str(tmp_path))
    rec = vertex.tilde_vertex(cfg, 4, cache)
    path = cache._path(cfg.canonical_key(4))
    with open(path, encoding="utf-8") as fh:
        good = json.load(fh)
    assert cache.get(cfg, 4) == rec
    for leg, value in (("lam", [2.9, True]), ("lam", [2.0, 1]), ("mu", [True]), ("nu", "")):
        with open(path, "w") as fh:
            json.dump(dict(good, **{leg: value}), fh)
        assert cache.get(cfg, 4) is None, (leg, value)
