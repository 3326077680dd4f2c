"""Time two checkouts' `check all` passes against each other in one process.

Run from a checkout, for example

    python tools/ab_passes.py ../parent . --workload check-q6p12-warm --pairs 30 --seed 1

Each checkout's ``src/ellipticdt`` is imported under its own package name
(``ellipticdt_a``, ``ellipticdt_b``), so both run in one interpreter and
share its heap, its clock and the state of the host; separate processes of
one tree can differ by more than the change being measured.  The first
``check all`` stdout of the two must be identical, else the script stops.

The passes are perfbench's: the workload names, argv, cache modes (a warm
directory filled during set-up, or a new empty one per cold pass) and
correctness gate come from this checkout's ``perfbench/run.py``.  The two
sides alternate for --pairs pairs, the side that goes first flipping every
pair.  The script prints each side's median wall and CPU time with their
quartiles and how many pairs each side won on wall time; it exits 1 if any
pass failed its gate.

Then it times the import of each checkout's ``ellipticdt.cli`` the way
perfbench's ``setup_s`` does (``IMPORT_CODE`` in a fresh ``python -I``
child), for --pairs alternating pairs after one uncounted import of each
side, and prints each side's median and quartiles and how many pairs each
side won.  perfbench takes 9 imports of one tree, whose spread can exceed
the bound on ``setup_s``; alternating pairs show which side imports faster.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import run as perfbench  # noqa: E402

SIDES = ("a", "b")


def load(checkout, name):
    """Import checkout/src/ellipticdt as the package `name`; returns it with its cli loaded."""
    init = Path(checkout).resolve() / "src" / "ellipticdt" / "__init__.py"
    if not init.is_file():
        raise SystemExit("error: no %s" % init)
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    importlib.import_module(name + ".cli")
    return pkg


class Side(perfbench.Workload):
    """perfbench's workload, run on an already imported package."""

    def __init__(self, pkg, workload, seed, scratch):
        self.pkg = pkg
        self.q_order, self.p_order, self.cache_mode = perfbench.WORKLOADS[workload]
        self.seed = seed
        self.scratch = scratch
        self.cache_dir = None

    def first_stdout(self):
        """The stdout of one `check all` pass after clear_memo(), outside the timings."""
        cache_dir = tempfile.mkdtemp(prefix="first-", dir=self.scratch) if self.cache_mode else None
        out = io.StringIO()
        self.pkg.vertex.clear_memo()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            self.pkg.cli.main(self.argv(cache_dir))
        return out.getvalue()


def import_seconds(checkout):
    """Seconds a fresh `python -I` child takes to import checkout's ellipticdt.cli."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", perfbench.IMPORT_CODE, str(Path(checkout) / "src")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise SystemExit("error: importing %s failed:\n%s" % (checkout, proc.stderr))
    return float(proc.stdout)


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return "median %.4f s [%.4f, %.4f]" % (median, q1, q3)


def wins(times):
    """Pairs each side won (ties count for neither)."""
    won = {s: 0 for s in SIDES}
    for ta, tb in zip(times["a"], times["b"]):
        if ta != tb:
            won["a" if ta < tb else "b"] += 1
    return won


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", help="checkout of side a (its src/ellipticdt is imported)")
    parser.add_argument("b", help="checkout of side b")
    parser.add_argument("--workload", required=True, choices=sorted(perfbench.WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    os.environ.pop(perfbench.CACHE_ENV, None)
    paths = dict(zip(SIDES, (args.a, args.b)))
    scratch = tempfile.mkdtemp(prefix="ab-passes-")
    try:
        sides = {
            s: Side(load(path, "ellipticdt_" + s), args.workload, args.seed, scratch)
            for s, path in paths.items()
        }
        first = {s: side.first_stdout() for s, side in sides.items()}
        if first["a"] != first["b"]:
            raise SystemExit("error: the first `check all` stdout differs between a and b")
        for side in sides.values():
            side.prepare()
        wall = {s: [] for s in SIDES}
        cpu = {s: [] for s in SIDES}
        failures = []
        for i in range(args.pairs):
            for s in SIDES if i % 2 == 0 else SIDES[::-1]:
                ok, w, c, detail = sides[s].run_pass()
                if not ok:
                    failures.append("%s: %s" % (s, detail))
                wall[s].append(w)
                cpu[s].append(c)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for path in paths.values():
        import_seconds(path)  # not counted: it may compile the bytecode cache
    imports = {s: [] for s in SIDES}
    for i in range(args.pairs):
        for s in SIDES if i % 2 == 0 else SIDES[::-1]:
            imports[s].append(import_seconds(paths[s]))

    won, won_import = wins(wall), wins(imports)
    print(
        "workload %s, seed %d, %d pairs, first stdout identical"
        % (args.workload, args.seed, args.pairs)
    )
    for s, path in paths.items():
        print(
            "%s %s: wall %s, cpu %s, won %d of %d pairs"
            % (s, path, summary(wall[s]), summary(cpu[s]), won[s], args.pairs)
        )
    ratio = statistics.median(wall["b"]) / statistics.median(wall["a"]) - 1
    print("b against a, median wall: %+.1f%%" % (100 * ratio))
    print("import of ellipticdt.cli, %d pairs of fresh `python -I` children" % args.pairs)
    for s, path in paths.items():
        print(
            "%s %s: import %s, won %d of %d pairs"
            % (s, path, summary(imports[s]), won_import[s], args.pairs)
        )
    ratio = statistics.median(imports["b"]) / statistics.median(imports["a"]) - 1
    print("b against a, median import: %+.1f%%" % (100 * ratio))
    for detail in failures:
        print("FAILED pass: %s" % detail)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
