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
import operator

import pytest

from ellipticdt import cli, dtseries, vertex
from ellipticdt.partitions import BOX, EMPTY, Partition, enumerate_partitions
from ellipticdt.vertex import LegConfig, VertexCache, minimal_volume


def one_by_one(cfg, order):
    return tuple(vertex._walk([vertex._candidate_slices(cfg, order)], order)[0])


def slices_of(boxes):
    """The tau-slices of a sorted list of boxes (rho, sigma, tau), as
    _candidate_slices gives them."""
    top = max((tau for _, _, tau in boxes), default=-1)
    return [tuple((r, s) for r, s, t in boxes if t == tau) for tau in range(top + 1)]


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

    def noted(slice_sets, order):
        slice_sets = list(slice_sets)
        sizes.append(len(slice_sets))
        return real(slice_sets, order)

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
    cube = slices_of(list(itertools.product(range(2), range(2), range(3))))
    lower = cube[:2]
    order = 12
    alone = [vertex._walk([c], order)[0] for c in (cube, lower, [])]
    got = vertex._walk([cube, lower, cube, [], lower, cube], order)
    assert got == [alone[0], alone[1], alone[0], alone[2], alone[1], alone[0]]
    assert alone[2] == [1] + [0] * order


def sized_boxes(cfg, span):
    """Each box of P in the cube [0, span)^3 with its down-set size in P, sorted.

    The down-set of (r, s, t) in P is the boxes of P in [0, r] x [0, s] x
    [0, t]; prefix sums of P's indicator along each axis count them.
    """
    cube = range(span)
    size = [
        [list(itertools.accumulate(not cfg.in_legs(r, s, t) for t in cube)) for s in cube]
        for r in cube
    ]
    for plane in size:
        for s in cube[1:]:
            plane[s] = list(map(operator.add, plane[s], plane[s - 1]))
    for r in cube[1:]:
        size[r] = [list(map(operator.add, a, b)) for a, b in zip(size[r], size[r - 1])]
    boxes = itertools.product(cube, repeat=3)
    return [((r, s, t), size[r][s][t]) for r, s, t in boxes if not cfg.in_legs(r, s, t)]


def test_candidate_slices_are_their_definition_on_small_legs():
    """Every config with legs of size <= 3, the third leg included, at orders 0..8.

    A box of P whose down-set has at most 8 boxes has every coordinate below
    8 + 2 * (the largest part or length of a leg), the cube scanned; see
    test_vertex_properties.brute_candidates.
    """
    parts = [lam for n in range(4) for lam in enumerate_partitions(n)]
    for legs in itertools.product(parts, repeat=3):
        cfg = LegConfig(*legs)
        sized = sized_boxes(cfg, 8 + 2 * max(max(leg.first_part(), leg.length()) for leg in legs))
        for order in range(9):
            slices = vertex._candidate_slices(cfg, order)
            assert all(list(cells) == sorted(cells) for cells in slices) and all(slices[-1:])
            flat = sorted((r, s, t) for t, cells in enumerate(slices) for r, s in cells)
            assert flat == [box for box, size in sized if size <= order], (cfg, order)


def test_link_table_sets_up_each_pair_of_slices_once(monkeypatch):
    """The 979 steps of a cold q6/p12 batch use 199 distinct (slice below, slice) links."""
    links, steps = [], []
    real_link, real_step = vertex._link, vertex._step
    monkeypatch.setattr(vertex, "_link", lambda *args: links.append(args) or real_link(*args))
    monkeypatch.setattr(vertex, "_step", lambda *args: steps.append(args[0]) or real_step(*args))
    vertex.clear_memo()
    vertex._count_batch(pass_configs(6), 12)
    assert (len(links), len(set(links)), len(steps)) == (199, 199, 979)
    assert len(set(map(id, steps))) == 199


def minimal_boxes(slices):
    """The boxes of a candidate set none of whose three lower neighbours is a candidate."""
    boxes = {(r, s, t) for t, cells in enumerate(slices) for r, s in cells}
    return sum(not {(r - 1, s, t), (r, s - 1, t), (r, s, t - 1)} & boxes for r, s, t in boxes)


@pytest.mark.parametrize(
    "cfgs,order",
    [pytest.param(small_configs(), order, id="small-%d" % order) for order in (0, 1, 3, 7)]
    + [pytest.param(pass_configs(8), 16, id="q8p16")],
)
def test_width_bound_holds_every_count(monkeypatch, cfgs, order):
    """The bound each set gets from its size and its minimal boxes is at least
    each of its counts, on the 512 small pairs and the 199 q8/p16 configs."""
    bounds = []
    real = vertex._bound
    monkeypatch.setattr(vertex, "_bound", lambda *args: bounds.append(args) or real(*args))
    sets = [vertex._candidate_slices(cfg, order) for cfg in cfgs]
    counts = vertex._walk(sets, order)
    assert len(bounds) == len(sets)
    for slices, (size, minimal, o), c in zip(sets, bounds, counts):
        assert (size, minimal, o) == (sum(map(len, slices)), minimal_boxes(slices), order)
        assert real(size, minimal, order) >= max(c)


def test_cold_q4p8_pass_counts_29_orbits_in_one_walk_and_writes_34_records(tmp_path, monkeypatch):
    walks = []
    real = vertex._walk

    def noted(slice_sets, order):
        slice_sets = list(slice_sets)
        walks.append((len(slice_sets), order))
        return real(slice_sets, order)

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

    def noted(slice_sets, order):
        walks.append((list(slice_sets), order))
        return real(*walks[-1])

    monkeypatch.setattr(vertex, "_walk", noted)
    vertex.clear_memo()
    assert cli.main(["vertex", "--legs", "4,3;;", "--p-order", "3"]) == 0
    capsys.readouterr()
    cfg = LegConfig(Partition((4, 3)), EMPTY, EMPTY)
    assert walks == [([vertex._candidate_slices(cfg, 3)], 3)]


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
        (("check", "all", "--q-order", "2", "--p-order", "5"), [29]),
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


def test_dt_fib_sum_side_never_builds_f1(monkeypatch):
    """The dt_fib prefactor is F2^eS alone: the sum side builds no F1 to raise to 0."""
    monkeypatch.delenv("ELLIPTICDT_CACHE", raising=False)
    calls = []
    real = dtseries._f1
    monkeypatch.setattr(dtseries, "_f1", lambda t: calls.append(t) or real(t))
    run("dtfib", "--side", "sum", "--q-order", "2", "--p-order", "6")
    assert calls == []


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
