import csv
import hashlib
import importlib.util
import io
import itertools
import json
import os
from pathlib import Path

import pytest

import ellipticdt
from ellipticdt import dtseries, vertex
from ellipticdt.cli import main, point_configs
from ellipticdt.partitions import Partition
from ellipticdt.series import PQSeries


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_public_names_are_pinned():
    # adding or removing a public name takes a deliberate edit here
    assert sorted(ellipticdt.__all__) == [
        "BOX", "CombCurveDescriptor", "EMPTY", "EulerData", "F1F2", "HaimanArrow",
        "HalfLaurent", "LegConfig", "NotInvertible", "PQSeries", "Partition",
        "PointConfig", "SeriesComparison", "SeriesError", "SurfaceData", "VertexCache",
        "VertexRecord", "WindowExhausted", "behrend_sign", "behrend_transform", "chi_OC",
        "comb_fiber_arrow_classes", "compare", "connected", "dt_fib", "dt_hat",
        "enumerate_partitions", "euler_data", "euler_product", "f_d_compare",
        "f_d_series", "g_of", "h_of", "haiman_basis_2d", "identity_a", "identity_b",
        "identity_c", "invert", "linear_factor", "macmahon", "macmahon_p",
        "minimal_element_count", "minimal_volume", "power",
        "substitute_neg_p", "symprod_check", "tangent_dim", "theta", "tilde_vertex",
        "vl_tangent_basis",
    ]


def test_vertex_json_contract(capsys):
    code, out, _ = run(
        capsys, "vertex", "--legs", "2,1;;", "--p-order", "6", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["lam"] == [2, 1] and data["mu"] == [] and data["nu"] == []
    assert data["counts"][0] == "1"
    assert len(data["counts"]) == 7
    assert data["key"] == "2,1|||6"


def test_vertex_determinism(capsys):
    a = run(capsys, "vertex", "--legs", "1;1;", "--p-order", "5", "--format", "json")
    b = run(capsys, "vertex", "--legs", "1;1;", "--p-order", "5", "--format", "json")
    assert a == b


def test_vertex_cache_roundtrip(tmp_path, capsys):
    args = (
        "vertex",
        "--legs",
        "3;;1",
        "--p-order",
        "5",
        "--format",
        "json",
        "--cache-dir",
        str(tmp_path),
    )
    code1, out1, _ = run(capsys, *args)
    assert code1 == 0
    assert any(name.endswith(".json") for name in os.listdir(tmp_path))
    from ellipticdt.vertex import clear_memo

    clear_memo()
    code2, out2, _ = run(capsys, *args)
    assert (code2, out2) == (code1, out1)


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ELLIPTICDT_CACHE", str(tmp_path))
    code, _, _ = run(capsys, "vertex", "--legs", "2;;", "--p-order", "4")
    assert code == 0
    assert any(name.endswith(".json") for name in os.listdir(tmp_path))


def test_dt_both_sides_verdict(capsys):
    code, out, _ = run(
        capsys, "dt", "--eB", "2", "--eS", "24", "--side", "both",
        "--q-order", "2", "--p-order", "8",
    )
    assert code == 0
    assert "EQUAL on window" in out


def test_dt_csv_dump(capsys):
    code, out, _ = run(
        capsys, "dt", "--eB", "0", "--eS", "12", "--side", "product",
        "--q-order", "1", "--p-order", "4", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,exp_half,coefficient"
    assert all(len(line.split(",")) == 3 for line in lines[1:])


def test_connected_json_report(capsys):
    code, out, _ = run(
        capsys, "connected", "--eB", "2", "--eS", "12", "--side", "both",
        "--q-order", "2", "--p-order", "6", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["equal"] is True
    assert data["first_discrepancy"] is None
    for key in ("side_a", "side_b", "window", "q_order"):
        assert key in data


def test_kkv(capsys):
    code, out, _ = run(capsys, "kkv", "--q-order", "1", "--p-order", "7")
    assert code == 0
    assert "KKV" in out and "PASS" in out


def _count_calls(monkeypatch, owner, attr, counts, name):
    real = getattr(owner, attr)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)


def test_kkv_builds_the_jacobi_side_once(capsys, monkeypatch):
    counts = {}
    _count_calls(monkeypatch, dtseries, "connected", counts, "connected")
    for side, calls in (("jacobi", 1), ("both", 2), ("ratio", 2)):
        counts.clear()
        code, _, _ = run(capsys, "kkv", "--q-order", "1", "--p-order", "5", "--side", side)
        assert code == 0
        assert counts == {"connected": calls}, side


def test_fd(capsys):
    code, out, _ = run(
        capsys, "fd", "--eB", "2", "--eS", "12", "--smooth", "1,1",
        "--nodal", "1", "--p-order", "7",
    )
    assert code == 0
    assert "EQUAL" in out


def test_tangent_json(capsys):
    code, out, _ = run(
        capsys, "tangent", "--eB", "2", "--eS", "12",
        "--smooth-fibers", "2,1", "--format", "json", "--arrows",
    )
    assert code == 0
    data = json.loads(out)
    assert data["tangent_dim"] == 4
    assert data["behrend_sign"] == 1
    assert data["chi_OC"] == -1
    assert data["fibers"][0]["haiman_basis_size"] == 6
    assert len(data["fibers"][0]["arrows"]) == 6


def test_tangent_csv(capsys):
    code, out, _ = run(
        capsys, "tangent", "--eB", "2", "--eS", "12",
        "--smooth-fibers", "2,1", "--nodal-fibers", "3", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [
        ["partition", "arrow_classes", "haiman_basis_size", "vl_basis_size"],
        ["2,1", "4", "6", "4"],
        ["3", "3", "6", "3"],
    ]


def test_symprod_command(capsys):
    code, out, _ = run(
        capsys, "symprod-check", "--q-order", "4", "--random", "2", "--seed", "7"
    )
    assert code == 0
    assert "FAIL" not in out


def test_check_all(capsys):
    code, out, _ = run(capsys, "check", "all", "--q-order", "3", "--p-order", "7")
    assert code == 0
    lines = [ln for ln in out.strip().splitlines() if ln]
    assert all(ln.startswith("PASS") for ln in lines)
    for name in ("identity-a", "identity-b", "identity-c", "arrow-counts"):
        assert any(name in ln for ln in lines)


def test_check_all_json_is_one_object(capsys):
    code, out, _ = run(
        capsys, "check", "all", "--q-order", "3", "--p-order", "7", "--format", "json"
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert len(results) == 21
    assert all(r["equal"] for r in results)


def _csv_rows(out):
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["check", "equal", "detail"]
    return rows[1:]


def test_check_all_csv_rows(capsys):
    code, out, _ = run(
        capsys, "check", "all", "--q-order", "2", "--p-order", "5", "--format", "csv"
    )
    assert code == 0
    rows = _csv_rows(out)
    assert len(rows) == 21
    assert rows[0][0] == "identity-a" and rows[-1][0] == "tangent-parity"
    assert all(row[1:] == ["True", ""] for row in rows)


def test_symprod_check_csv_rows(capsys):
    code, out, _ = run(
        capsys, "symprod-check", "--q-order", "3", "--random", "2", "--format", "csv"
    )
    assert code == 0
    rows = _csv_rows(out)
    assert [row[0] for row in rows[:2]] == ["symprod-constant-e-3", "symprod-constant-e-2"]
    assert len(rows) == 7 * 3
    assert all(row[1:] == ["True", ""] for row in rows)


def test_check_all_reports_a_failing_check(capsys, monkeypatch):
    real = dtseries.identity_b

    def skewed(q_order, order, cache=None, p_window=None):
        lhs, rhs = real(q_order, order, cache, p_window)
        return lhs, rhs + PQSeries.one(q_order)

    monkeypatch.setattr(dtseries, "identity_b", skewed)
    argv = ("check", "all", "--q-order", "2", "--p-order", "5")

    code, out, _ = run(capsys, *argv)
    assert code == 2
    lines = out.splitlines()
    assert lines[1].startswith("FAIL identity-b  [") and lines[1].endswith("]")
    assert sum(line.startswith("PASS ") for line in lines) == 20

    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 2
    results = json.loads(out)["results"]
    failed = [r for r in results if not r["equal"]]
    assert [r["check"] for r in failed] == ["identity-b"]
    detail = failed[0]["detail"]
    assert detail and "," in detail

    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 2
    assert out.splitlines()[2] == 'identity-b,False,"%s"' % detail
    assert _csv_rows(out)[1] == ["identity-b", "False", detail]


def test_benchmark_tracer_sees_every_layer(tmp_path, capsys):
    """The benchmark's tracer wraps module attributes; each must be called through them."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracing.install(tracer, ellipticdt)
    try:
        code, _, _ = run(
            capsys, "check", "all", "--q-order", "2", "--p-order", "5", "--cache-dir", str(tmp_path)
        )
    finally:
        tracer.uninstall()
    assert code == 0
    seen = {span[0] for span in tracer.spans}
    want = {"cli.dispatch", "series.compare"} | set(tracing.DTSERIES_ENTRIES.values())
    want |= {"vertex.tilde_vertex", "vertex.cache_get", "vertex.cache_put"}
    assert want <= seen, sorted(want - seen)


def test_p_window_override(capsys):
    code, out, _ = run(
        capsys, "dt", "--eB", "2", "--eS", "12", "--p-window=-5:5",
        "--q-order", "2", "--p-order", "8",
    )
    assert code == 0
    assert "EQUAL on window" in out


def test_package_submodule_not_shadowed():
    import types

    import ellipticdt

    assert isinstance(ellipticdt.vertex, types.ModuleType)


def test_usage_errors(capsys):
    code, _, err = run(capsys, "vertex", "--legs", "nope;;")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "vertex", "--legs", "1;2")
    assert code == 1
    code, _, err = run(capsys, "vertex", "--legs", "")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "dt", "--eB", "1", "--eS", "12")
    assert code == 1
    code, _, err = run(capsys, "dt", "--p-window", "oops")
    assert code == 1
    code, out, err = run(capsys, "dt", "--p-window", "3:1")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "3:1 is empty" in err and "--p-order" not in err
    # a run that checks no random table must not report symprod-random as passing
    for argv in (
        ("check", "all", "--random", "0"),
        ("check", "all", "--random", "-1"),
        ("symprod-check", "--random", "-3"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error: ") and "--random" in err, argv
    # argparse's own errors too: exit code 2 would claim a found discrepancy
    for argv in (("dt", "--q-order", "x"), ("dt", "--bogus"), ("check", "nope"), ()):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error: ") and "usage: ellipticdt" in err
    # each command takes only the flags it reads, and an order is nonnegative
    for argv in (
        ("vertex", "--legs", "1;;", "--q-order", "2"),
        ("fd", "--q-order", "2"),
        ("symprod-check", "--p-order", "2"),
        ("symprod-check", "--cache-dir", "cache"),
        ("tangent", "--q-order", "2"),
        ("tangent", "--p-order", "2"),
        ("tangent", "--cache-dir", "cache"),
        ("dt", "--q-order", "-1"),
        ("check", "all", "--p-order", "-2"),
        ("vertex", "--legs", "1;;", "--p-order", "-1"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error: ") and "usage: ellipticdt" in err, argv


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["dt", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: ellipticdt" in capsys.readouterr().out


def test_check_all_passes_repeat_their_work_after_clear_memo(tmp_path, capsys, monkeypatch):
    """The benchmark clears the memos before each pass; a pass must then redo the same work."""
    counts = {}
    legs = set()
    for owner, attr, name in (
        (dtseries, "tilde_vertex", "tilde_vertex"),
        (PQSeries, "__mul__", "mul"),
        (dtseries, "invert", "invert"),
        (dtseries, "power", "power"),
        (vertex.VertexCache, "get", "cache_get"),
    ):
        _count_calls(monkeypatch, owner, attr, counts, name)
    real_tilde = dtseries.tilde_vertex

    def noted(cfg, order, cache=None):
        legs.add((cfg, order))
        return real_tilde(cfg, order, cache)

    monkeypatch.setattr(dtseries, "tilde_vertex", noted)
    argv = ("check", "all", "--q-order", "3", "--p-order", "6", "--cache-dir", str(tmp_path))
    passes = []
    for _ in range(2):
        vertex.clear_memo()
        counts.clear()
        code, _, _ = run(capsys, *argv)
        assert code == 0
        passes.append(dict(counts))
    assert passes[0] == passes[1]
    assert passes[1]["cache_get"] == len(legs) == len(list(tmp_path.glob("*.json")))
    assert passes[1]["tilde_vertex"] > len(legs)  # repeated vertices are memo hits


def test_check_all_raises_nothing_twice(capsys, monkeypatch):
    """Every power of a pass goes through one memo, so no (base, exponent) repeats."""
    seen = []
    real_power = dtseries.power

    def keyed(base, e):
        seen.append((json.dumps(base.to_json_dict(), sort_keys=True), e))
        return real_power(base, e)

    monkeypatch.setattr(dtseries, "power", keyed)
    vertex.clear_memo()
    code, _, _ = run(capsys, "check", "all", "--q-order", "2", "--p-order", "5")
    assert code == 0
    assert seen and len(set(seen)) == len(seen)


def test_check_all_builds_each_product_unit_once(capsys, monkeypatch):
    """Theta and the Euler product are built once per (q_order, p_window) in a pass."""
    built = []
    for name in ("theta", "euler_product"):
        real = getattr(dtseries, name)
        monkeypatch.setattr(
            dtseries, name, lambda *args, name=name, real=real: built.append((name, args)) or real(*args)
        )
    vertex.clear_memo()
    code, _, _ = run(capsys, "check", "all", "--q-order", "2", "--p-order", "5")
    assert code == 0
    assert {name for name, _ in built} == {"theta", "euler_product"}
    assert len(set(built)) == len(built)


def test_check_all_builds_each_multinomial_table_once(capsys, monkeypatch):
    """A pass builds the multinomial coefficients of each weight table once, in
    one walk: each symprod_check call walks each degree 1..q_order once."""
    walks, inside = [], []
    real_check, real_enumerate = dtseries.symprod_check, dtseries.enumerate_partitions

    def check(g_table, exponents, q_order):
        inside.append([])
        try:
            return real_check(g_table, exponents, q_order)
        finally:
            walks.append((q_order, inside.pop()))

    def enumerate_partitions(d):
        if inside:
            inside[-1].append(d)
        return real_enumerate(d)

    monkeypatch.setattr(dtseries, "symprod_check", check)
    monkeypatch.setattr(dtseries, "enumerate_partitions", enumerate_partitions)
    vertex.clear_memo()
    code, _, _ = run(capsys, "check", "all", "--q-order", "2", "--p-order", "5")
    assert code == 0
    assert len(walks) == 21
    assert all(degrees == list(range(1, q_order + 1)) for q_order, degrees in walks)


def test_check_all_checks_each_symprod_table_in_one_call(capsys, monkeypatch):
    """A pass checks each of its 21 weight tables in one symprod_check call, and
    the seven exponents of a table raise one base: power sees 21 distinct bases."""
    checks, bases, inside = [], [], []
    real_check, real_power = dtseries.symprod_check, dtseries.power

    def check(*args):
        checks.append(args)
        inside.append(True)
        try:
            return real_check(*args)
        finally:
            inside.pop()

    def power(base, e):
        if inside:
            bases.append(base)
        return real_power(base, e)

    monkeypatch.setattr(dtseries, "symprod_check", check)
    monkeypatch.setattr(dtseries, "power", power)
    vertex.clear_memo()
    code, _, _ = run(capsys, "check", "all", "--q-order", "2", "--p-order", "5")
    assert code == 0
    assert len(checks) == 21
    assert len(bases) == 21 * 7
    assert len({id(base) for base in bases}) == 21


def test_check_all_raises_one_base_per_vertex_value(capsys, monkeypatch):
    """V~(empty) and V~(box) are one object each in a pass, so their powers share squarings."""
    bases = []
    real_power = dtseries.power
    monkeypatch.setattr(
        dtseries, "power", lambda base, e: bases.append(base) or real_power(base, e)
    )
    vertex.clear_memo()
    code, _, _ = run(capsys, "check", "all", "--q-order", "4", "--p-order", "8")
    assert code == 0
    for lam in (Partition(), Partition((1,))):
        value = vertex.tilde_vertex(vertex.LegConfig(lam, Partition(), Partition()), 8).series()
        objects = {id(b) for b in bases if b == value}  # bases holds every one alive
        assert len(objects) == 1, lam


def test_point_configs_are_every_pair_of_compositions_once():
    """Against brute force: every (smooth, nodal) pair of positive tuples of total <= d."""
    for d, size in enumerate((1, 3, 8, 20, 48, 112)):
        tuples = [
            t
            for k in range(d + 1)
            for t in itertools.product(range(1, d + 1), repeat=k)
            if sum(t) <= d
        ]
        want = {(a, b) for a in tuples for b in tuples if sum(a) + sum(b) <= d}
        got = [(pc.a, pc.b) for pc in point_configs(d)]
        assert len(got) == len(set(got)) == size, d
        assert set(got) == want, d
        degrees = [sum(a) + sum(b) for a, b in got]
        assert degrees == sorted(degrees), d


def test_check_all_compares_each_point_config_once(capsys, monkeypatch):
    """fd-cross calls f_d_compare once per (configuration, surface) and repeats none."""
    calls = []
    real = dtseries.f_d_compare

    def noted(pc, surf, *args):
        calls.append((pc, surf))
        return real(pc, surf, *args)

    monkeypatch.setattr(dtseries, "f_d_compare", noted)
    vertex.clear_memo()
    code, _, _ = run(capsys, "check", "all", "--q-order", "2", "--p-order", "5")
    assert code == 0
    assert len(calls) == len(set(calls)) == 96  # 48 configurations on 2 surfaces


def test_large_vertex_warns_with_its_candidate_box_count(capsys, monkeypatch):
    """The size warning goes to stderr and names the candidate poset's box count."""
    monkeypatch.delenv("ELLIPTICDT_CACHE", raising=False)
    vertex.clear_memo()
    code, out, err = run(capsys, "vertex", "--legs", "4,3;;", "--p-order", "3")
    assert code == 0
    cfg = vertex.LegConfig(Partition((4, 3)), Partition(), Partition())
    (boxes,) = vertex.estimate_nodes(cfg, 3)
    assert boxes > 0 and "warning" not in out
    assert err == (
        "warning: large enumeration (order 3, total leg size 7): "
        "candidate poset has %d boxes\n" % boxes
    )


def test_clear_memo_empties_every_memo(capsys):
    """A cache that clear_memo() missed would make every later benchmark pass run warm."""
    memos = [
        fn for mod in (vertex, dtseries) for fn in vars(mod).values() if hasattr(fn, "cache_info")
    ]
    assert all(fn in vertex._MEMOS for fn in memos)
    code, _, _ = run(capsys, "check", "all", "--q-order", "2", "--p-order", "5")
    assert code == 0
    assert vertex._RECORDS
    vertex.clear_memo()
    assert [fn.cache_info().currsize for fn in memos] == [0] * len(memos)
    assert vertex._RECORDS == {}


def test_record_memo_counts_its_hits(tmp_path, capsys, monkeypatch):
    """A cold pass reads and writes each record once and serves every other call
    from the records it holds."""
    counts = {}
    _count_calls(monkeypatch, dtseries, "tilde_vertex", counts, "tilde_vertex")
    _count_calls(monkeypatch, vertex.VertexCache, "get", counts, "get")
    _count_calls(monkeypatch, vertex.VertexCache, "put", counts, "put")
    vertex.clear_memo()
    argv = ("check", "all", "--q-order", "3", "--p-order", "6", "--cache-dir", str(tmp_path))
    code, _, _ = run(capsys, *argv)
    assert code == 0
    files = len(list(tmp_path.glob("*.json")))
    assert counts["get"] == counts["put"] == files
    assert counts["tilde_vertex"] > files


def _frozen_commands():
    cmds = [
        ("check", "all", "--q-order", "3", "--p-order", "7"),
        ("check", "all", "--q-order", "3", "--p-order", "7", "--format", "json"),
        ("symprod-check", "--q-order", "4", "--random", "2", "--seed", "7"),
        ("symprod-check", "--q-order", "4", "--random", "2", "--seed", "7", "--format", "json"),
        ("symprod-check", "--q-order", "3", "--random", "3", "--seed", "1", "--exponent", "-2"),
        ("symprod-check", "--q-order", "3", "--random", "3", "--seed", "1", "--exponent", "-2",
         "--format", "json"),
    ]
    fmts = ("pretty", "json", "csv")
    for side in ("ratio", "jacobi", "both"):
        for fmt in fmts:
            cmds.append(("kkv", "--q-order", "2", "--p-order", "6", "--side", side, "--format", fmt))
    for command, surface, sides in (
        ("dt", ("2", "24"), ("sum", "product", "both")),
        ("dtfib", ("0", "12"), ("sum", "product", "both")),
        ("connected", ("-2", "12"), ("ratio", "jacobi", "both")),
    ):
        base = (command, "--eB", surface[0], "--eS", surface[1], "--q-order", "2", "--p-order", "6")
        for side in sides:
            for fmt in fmts:
                cmds.append(base + ("--side", side, "--format", fmt))
    cmds += [
        ("dt", "--eB", "2", "--eS", "24", "--q-order", "2", "--p-order", "6", "--p-window=-5:5"),
        ("dt", "--eB", "2", "--eS", "24", "--q-order", "2", "--p-order", "6", "--p-window=-5:5",
         "--format", "json"),
        ("dtfib", "--eB", "0", "--eS", "12", "--q-order", "2", "--p-order", "6", "--p-window=0:6",
         "--side", "sum", "--format", "json"),
        ("connected", "--eB", "-2", "--eS", "12", "--q-order", "2", "--p-order", "6",
         "--p-window=-3:4", "--format", "csv"),
        ("kkv", "--q-order", "2", "--p-order", "6", "--p-window=-2:5", "--format", "json"),
    ]
    for fmt in fmts:
        cmds.append(("fd", "--eB", "2", "--eS", "12", "--smooth", "1,1", "--nodal", "1",
                     "--p-order", "7", "--format", fmt))
        cmds.append(("vertex", "--legs", "2,1;;1", "--p-order", "6", "--format", fmt))
    for fmt in ("pretty", "json"):
        cmds.append(("tangent", "--eB", "2", "--eS", "12", "--smooth-fibers", "2,1",
                     "--nodal-fibers", "3", "--arrows", "--format", fmt))
    return cmds


# (exit code, sha256 of stdout) per command of _frozen_commands(), in order,
# recorded from the command line before its result and comparison paths were
# merged; any change to a printed byte shows here.
FROZEN_DIGESTS = (
    (0, "2281c1a8935486ff57695ca5a336fbf92377a11cf3afb9c6845d3b062cec0236"),
    (0, "d1e2d77a4136d46b9624df381f647fc21e8d574d45bac17265a142cea1a5b09b"),
    (0, "9d01a69ddf35adf86192257b8aa4ae54a101ed95185c3223cd45743f08c2b0dc"),
    (0, "55550be18a516fa2c76ecf58b77fb12736f38061eb901c9ac44bdadc26aa6eb2"),
    (0, "a17c3f2087a335c339dbccba03e69e0b8eb9d5b3b24c242a74bc1f52006d65f0"),
    (0, "0a66d509b58beb43f642a2828bce7363339c703ae5e775d819f3bc7fbc2000b9"),
    (0, "4ee0c3d4e49f98bc4355cc0843549313046603329e9faa556999b66dc5188a0d"),
    (0, "43433f3f0f4b2a4d644bcc587d7a37e25b27c5f0bcced94d9288f78271ea5832"),
    (0, "f9ef9a1594844580e296bde285d589773aec536ad59849a5c38a10400db1be51"),
    (0, "4ee0c3d4e49f98bc4355cc0843549313046603329e9faa556999b66dc5188a0d"),
    (0, "efc4d758dbea8d57fc2847488c1cc69bdc5d2a84361c89cbf0a24ed856081b46"),
    (0, "f9ef9a1594844580e296bde285d589773aec536ad59849a5c38a10400db1be51"),
    (0, "0e6575eaf0eb949cf67c496ee76c139fd57d645cfbdcdf6e628c95f0192f3c6c"),
    (0, "6872ec0da2f1565d02cc300674a86a740d4196e37fc991db11a0130a4ce7eb0b"),
    (0, "98de43205a7f4458556e91251fa20d96f38a7c2b98373c9083772c92c3af4b2e"),
    (0, "bf760e93addc44ad654138e1286a801a5ed6ebce181d441216d0a6a3e0113314"),
    (0, "3cac50a90a9da8ee93c3190d628c560211708f46f0f9a9207a2259d6d7ac3cb0"),
    (0, "9dbc8c8c9b779281a805ad63ff48c1d9b8657a1b6eede2e2e44fa0788fa52270"),
    (0, "619ded2fd50c28e5e56c017d1edbc00d9db458a2dc2b121b5f7fc54637c51332"),
    (0, "9efc4451c83469fa0cb3faf36dcfec325104e075984a33c76607d9bf8201c974"),
    (0, "5f8ea813a6a919920904a6bdf440738a597b64e75123180decce3fa8f81603d2"),
    (0, "edcf2104f2767816637e4ac4f3ea7751830751df4ccbe75722396c953b95c952"),
    (0, "b8264eb2e2746ea019d580c6709ec78c870a3d67d4a2dcc312b49d2fcfe45172"),
    (0, "49e1076a9e2baffa6a132a34b3a4e1d7d0fff22c22dd0b4ae9d3b6abdf2b2414"),
    (0, "1f567ee71ee4735e1da52f80395e6e06fc64421fd86731fc26bf0ef049353303"),
    (0, "ba9c49212ac8cf7d30a56da35614cffd0378fa1d1458a16a9f675628bceccf58"),
    (0, "4dcdaec6291231bec4b7d44911bd237003becd8d0eafd42c202d86b34de40a2c"),
    (0, "2b7a2a6a11619c87636d75e335f36d590fa97bc67aa9cc9f38fc474e831e596e"),
    (0, "e91ab6686ab0590373ad927cbb39c44c0ed858ae32b0d9e40bf058f841db2468"),
    (0, "ea24e662f1c35c1af1e8d097b510557e0813f5d5b6b20fd7a632a2bdead8a2b5"),
    (0, "e6fb2db18350a84ce6660759de257e0d8fb6790d974cbebb61b2a0d28f0cfc4b"),
    (0, "05ac6ea6352b316a427e480d20f6df917c8bf2aa1cb8b0d7407e55458204c68a"),
    (0, "f604d9d8269d2b18011f996bb76602ffb95522376c73268442fff37cda23f1f1"),
    (0, "ba8f6b271e4c0bd7df5439132d9ee7031bf7a61c10b556fccb581e3d8c47794a"),
    (0, "7200fa88a11071eec6e47ee7e805e308604bb2a9c4fb21e17824a135f722ebb1"),
    (0, "450a311b43118265614244461368101668bab119cab53820046c319391d873f7"),
    (0, "ba8f6b271e4c0bd7df5439132d9ee7031bf7a61c10b556fccb581e3d8c47794a"),
    (0, "f3581254ff1a1e16a925cd1f9c4655f5999f2b2f01b89bac0a0b80d2d35428ff"),
    (0, "450a311b43118265614244461368101668bab119cab53820046c319391d873f7"),
    (0, "8455f9216bb84d63b82882c11970356b4b0055ee8e059e76e44dadc90fdb3f45"),
    (0, "b29417c3e423485cc9df7db57cf69a861c3e97d70ceaa388f94a0f86bdbd1001"),
    (0, "ab9214668ed5112c3d5e9d67bf911543a1422644c02a2fbf7e164d234777d025"),
    (0, "d33563e7eed1f57f87b6f5b59f2fe3c2bf29aca55b2ca3d9cbec7c62ce9c5498"),
    (0, "a2018c098344967496ac2bda9f9f7eb114067ea9b608bfe76caaa0aebdc6987c"),
    (0, "ba9c49212ac8cf7d30a56da35614cffd0378fa1d1458a16a9f675628bceccf58"),
    (0, "cb4b58b64c5d0370849df4468e2f2926c79d551b28af537aa76f296c7137aa26"),
    (0, "cdeb9c1ae55aa48fa9baff9058dc5f8476db5cc7c6c8b0fe41933bdddfa17f1c"),
    (0, "c44ac9f81fc68d6d91e749fe4ef4e44125d3f9fd5977897844987d95e5c3868f"),
    (0, "b2f9d0bb08cc57ca938c3a0a57d74d729ceaa279f9ada10284136c3e2c81e65a"),
    (0, "fe04a23324d68275be167fcd43dd51e28758b8648c5d7427506a5629e5bb2d8b"),
    (0, "933721e41cdc6480d5cae324f71ccab92168e0104d705060d0df7b4cc63f6f0c"),
    (0, "9cbd37b3909324bd13591b66ea3c82f556e5e54e9e3f1051d1a433a074fbe0ba"),
    (0, "193024f7e4da207cb7a7e95f88b870114cbc15c467cf7370b74fbae3fd6a99f3"),
    (0, "b6a388afb200d528e2ac3a951527a44dd75438f2a18544b4c467e0017b423130"),
    (0, "86721d8e2de23d1e9c655e3423cb11107158181b3b41a73050558d2732c83273"),
)


def test_cli_output_digests_frozen(capsys):
    got = []
    for argv in _frozen_commands():
        code, out, _ = run(capsys, *argv)
        got.append((code, hashlib.sha256(out.encode()).hexdigest()))
    assert got == list(FROZEN_DIGESTS)
