"""Print the exit code and stdout sha256 of a fixed list of ellipticdt commands.

Run from a checkout, for example

    python tools/output_digests.py > digests.txt

The script puts its own checkout's ``src`` first on ``sys.path``, so each
checkout digests its own code even when another copy of the package is
installed; the path of the imported package goes to stderr.

Each command runs in-process through ``cli.main`` after
``vertex.clear_memo()``, so it starts as cold as a fresh CLI process.  One
line is printed per command: ``exit sha256 argv``.  ``check all --format json``
prints verdicts only, so three more lines digest the JSON of
``compare(*identity_x(6, 12))`` for the trace identities A, B and C, with the
exit code the CLI gives for that verdict: both series and the compared regions
show there.  For the same reason 21 lines digest both sides of
``dtseries.symprod_check`` at q^6 and every exponent from -3 to 3, one line
per weight table that ``check all --seed 1`` checks: the constant table, then
the 20 tables ``cli._random_g_table`` draws from ``random.Random(1)``.
One line per surface in ``cli.FD_PAIRS`` digests the ``f_d_compare`` JSON of
every ``cli.point_configs(4)`` configuration at p-order 12, both f_d modes
with their windows, keyed by the configuration's ``(a, b)`` and sorted by it,
so the line depends on each configuration's result and not on the order of
the list or on repeats in it.
Then one line digests ``tilde_vertex(cfg, 8).counts`` of every leg
configuration with |lam| + |mu| + |nu| <= 4, the third leg included, which
no command above sets; one line the counts of every configuration with legs
of size <= 3 and total size <= 5 at orders 0, 1, 3 and 7 (512 pairs); and one
line each the counts of the deep vertices in ``DEEP_VERTICES``.
One line digests the JSON of ``series.power(b, k)`` for k = -26..26 on
two windowed bases, ``dtseries._dt_hat_s1(6, (-26, 26))`` and the h-weight
series ``_q_series(_nodal_weight, 6, t)`` at p-order 12, each k computed both
on one shared base, in increasing order, and on a fresh copy of the base.
The last two lines digest the name and bytes of every file that a cold
``check all --cache-dir`` writes into an empty directory, sorted by name, at
q6/p12 and at q2/p5 (where the f_d rows reach above the q-order), so two
checkouts can show identical record files and not only identical stdout.
Running the script in two checkouts and diffing the outputs shows every
command whose printed bytes changed.
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import ellipticdt  # noqa: E402
from ellipticdt import cli, dtseries, series, vertex  # noqa: E402
from ellipticdt.partitions import Partition, enumerate_partitions  # noqa: E402
from ellipticdt.series import HalfLaurent  # noqa: E402

FORMATS = ("pretty", "json", "csv")
SMALL_ORDERS = (0, 1, 3, 7)
DEEP_VERTICES = ((";;", 30), ("3,2,1;3,2,1;", 20), ("3,2,1;3,2,1;3,2,1", 20))


def commands():
    q6p12 = ("--q-order", "6", "--p-order", "12")
    out = [
        ("check", "all", "--format", "json", "--seed", "1", "--q-order", "4", "--p-order", "8"),
        ("check", "all", "--format", "json", "--seed", "1") + q6p12,
    ]
    for eB, eS in cli.SURFACE_PAIRS:
        for command in ("dt", "dtfib", "connected"):
            out.append((command, "--eB", str(eB), "--eS", str(eS), "--format", "json") + q6p12)
    out.append(("kkv", "--format", "json") + q6p12)
    for fmt in FORMATS:
        out += [
            ("fd", "--smooth", "1,2", "--nodal", "1", "--p-order", "8", "--format", fmt),
            ("vertex", "--legs", "2,1;1;", "--p-order", "6", "--format", fmt),
            ("symprod-check", "--random", "5", "--format", fmt),
            ("tangent", "--smooth-fibers", "2,1", "--nodal-fibers", "3;1,1", "--arrows",
             "--format", fmt),
        ]
    return out


def digest(argv):
    """(exit code, sha256 of stdout) of one in-process run; stderr is dropped."""
    vertex.clear_memo()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


def identity_digest(name):
    """(0 if equal else 2, sha256 of the comparison JSON) of one trace identity at q6/p12."""
    vertex.clear_memo()
    rep = series.compare(*getattr(dtseries, name)(6, 12))
    text = json.dumps(rep.to_json_dict(), sort_keys=True)
    return 0 if rep.equal else 2, hashlib.sha256(text.encode()).hexdigest()


def symprod_tables():
    """(name, table) at q^6: the constant table, then the 20 random tables of `check all --seed 1`."""
    yield "constant", {a: HalfLaurent({0: 1}) for a in range(1, 7)}
    rng = random.Random(1)
    for i in range(20):
        yield "random%02d" % i, cli._random_g_table(rng, 6)


def symprod_digest(table):
    """(0 if every exponent is equal else 2, sha256 of both sides at each exponent).

    The report's window is left out, so a line changes with a coefficient and
    not with the rule for the aggregate window."""
    reps = dtseries.symprod_check(table, range(-3, 4), 6)
    sides = [[rep.side_a.to_json_dict(), rep.side_b.to_json_dict()] for rep in reps]
    text = json.dumps(sides, sort_keys=True)
    code = 0 if all(rep.equal for rep in reps) else 2
    return code, hashlib.sha256(text.encode()).hexdigest()


def fd_digest(eB, eS):
    """(0 if every configuration is equal else 2, sha256 of the sorted [[a, b], f_d_compare JSON]).

    One entry per distinct configuration (a, b), compared at p^12."""
    vertex.clear_memo()
    surf = dtseries.SurfaceData(eB, eS)
    reports = {(pc.a, pc.b): dtseries.f_d_compare(pc, surf, 12) for pc in cli.point_configs(4)}
    rows = [[list(key), reports[key].to_json_dict()] for key in sorted(reports)]
    text = json.dumps(rows, sort_keys=True)
    code = 0 if all(rep.equal for rep in reports.values()) else 2
    return code, hashlib.sha256(text.encode()).hexdigest()


def small_configs(max_size, max_leg):
    """Every leg configuration with legs of size <= max_leg and total size <= max_size."""
    parts = [lam for n in range(max_leg + 1) for lam in enumerate_partitions(n)]
    return [
        cfg
        for cfg in itertools.starmap(vertex.LegConfig, itertools.product(parts, repeat=3))
        if cfg.total_size() <= max_size
    ]


def counts_digest(pairs):
    """(0, sha256 of tilde_vertex(cfg, order).counts of every (cfg, order) pair)."""
    vertex.clear_memo()
    rows = [
        [cfg.canonical_key(order), [str(c) for c in vertex.tilde_vertex(cfg, order).counts]]
        for cfg, order in pairs
    ]
    return 0, hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def power_digest():
    """(0, sha256 of power(b, k), k = -26..26, on a shared base and on a fresh copy)."""
    vertex.clear_memo()
    bases = (
        dtseries._dt_hat_s1(6, (-26, 26)),
        dtseries._q_series(dtseries._nodal_weight, 6, dtseries._Tilde(12, None)),
    )
    rows = []
    for base in bases:
        for k in range(-26, 27):
            fresh = series.PQSeries(base.q_order, base.coeffs, base.windows)
            rows.append([series.power(b, k).to_json_dict() for b in (base, fresh)])
    return 0, hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def record_files_digest(q_order, p_order):
    """(exit code, sha256 of [name, text] of each file a cold `check all` writes)."""
    vertex.clear_memo()
    with tempfile.TemporaryDirectory() as directory:
        argv = ["check", "all", "--q-order", str(q_order), "--p-order", str(p_order),
                "--cache-dir", directory]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        files = [[path.name, path.read_text()] for path in sorted(Path(directory).iterdir())]
    return code, hashlib.sha256(json.dumps(files).encode()).hexdigest()


def main():
    sys.stderr.write("digesting %s\n" % ellipticdt.__file__)
    for argv in commands():
        code, sha = digest(argv)
        print(code, sha, " ".join(argv), flush=True)
    for name in ("identity_a", "identity_b", "identity_c"):
        code, sha = identity_digest(name)
        print(code, sha, "compare %s 6 12" % name, flush=True)
    for name, table in symprod_tables():
        code, sha = symprod_digest(table)
        print(code, sha, "symprod_check %s 6 e=-3..3" % name, flush=True)
    for eB, eS in cli.FD_PAIRS:
        code, sha = fd_digest(eB, eS)
        print(code, sha, "f_d_compare eB=%+d eS=%d point_configs(4) 12" % (eB, eS), flush=True)
    code, sha = counts_digest((cfg, 8) for cfg in small_configs(4, 4))
    print(code, sha, "tilde_vertex counts |lam|+|mu|+|nu|<=4 8", flush=True)
    pairs = [(cfg, order) for cfg in small_configs(5, 3) for order in SMALL_ORDERS]
    code, sha = counts_digest(pairs)
    print(code, sha, "tilde_vertex counts legs<=3 |lam|+|mu|+|nu|<=5 orders %s (%d pairs)"
          % (",".join(map(str, SMALL_ORDERS)), len(pairs)), flush=True)
    for legs, order in DEEP_VERTICES:
        cfg = vertex.LegConfig(*(Partition.parse(p) for p in legs.split(";")))
        code, sha = counts_digest([(cfg, order)])
        print(code, sha, "tilde_vertex counts %s %d" % (legs, order), flush=True)
    code, sha = power_digest()
    print(code, sha, "power k=-26..26 shared and fresh: _dt_hat_s1 6, h-weights 6 12", flush=True)
    for q_order, p_order in ((6, 12), (2, 5)):
        code, sha = record_files_digest(q_order, p_order)
        print(code, sha, "record files of a cold check all --q-order %d --p-order %d"
              % (q_order, p_order), flush=True)


if __name__ == "__main__":
    main()
