import json
import os

from ellipticdt.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    code, _, err = run(capsys, "dt", "--eB", "1", "--eS", "12")
    assert code == 1
    code, _, err = run(capsys, "dt", "--p-window", "oops")
    assert code == 1
