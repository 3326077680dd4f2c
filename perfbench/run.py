"""Benchmark of `ellipticdt check all`, run in-process through the CLI.

Run from the repository root:

    python3 perfbench/run.py --workload check-q4p8 --seed 1 --seconds 30 --trace 0

Each pass calls `cli.main` with the `check all` arguments of the workload,
after `vertex.clear_memo()`, so it starts as cold as a fresh CLI process
(the process-lifetime partition cache stays warm, as within one CLI run).
Every pass goes through the correctness gate; failed passes are counted and
left out of the timings, and any failure makes the exit code 1.

--trace 0 times untraced passes for --seconds and prints the end-to-end
metrics.  --trace 1 alternates untraced and traced passes for --seconds and
prints the per-layer metrics, including the tracing overhead.  The last line
of stdout is one JSON object; the lines before it describe the run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
CACHE_ENV = "ELLIPTICDT_CACHE"

CHECK_COUNT = 21
# sha256 of the sorted (legs, order, counts) of the 88 vertex records that one
# `check all --q-order 6 --p-order 12` pass writes to an empty cache directory.
Q6P12_RECORDS_DIGEST = "7f056340821127c9c523cb1e63237653d3d006ee3c8a8295015a5467a743a49c"

# (q_order, p_order, cache mode); "cold" uses a new empty cache directory for
# every pass, "warm" one directory filled during set-up.  Why each workload
# exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "check-q4p8": (4, 8, None),
    "check-q6p12-cold": (6, 12, "cold"),
    "check-q6p12-warm": (6, 12, "warm"),
}

IMPORT_SAMPLES = 9
IMPORT_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import ellipticdt.cli; "
    "print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    pass


def median_import_seconds():
    """Median time to import ellipticdt.cli in fresh interpreters.

    -I keeps the developer's PYTHONPATH and user site out.  The first child
    is not counted: it may compile the bytecode cache.
    """
    samples = []
    for _ in range(IMPORT_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", IMPORT_CODE, str(SRC)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError("importing ellipticdt failed:\n" + proc.stderr)
        samples.append(float(proc.stdout))
    return statistics.median(samples[1:])


def records_digest(vertex, directory):
    rows = []
    for path in Path(directory).glob("*.json"):
        rec = vertex.VertexRecord.from_json_dict(json.loads(path.read_text()))
        legs = [list(rec.lam.parts), list(rec.mu.parts), list(rec.nu.parts)]
        rows.append([legs, rec.order, list(rec.counts)])
    rows.sort()
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def git_commit():
    """The commit checked out, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return "unknown (not a git checkout)"
    return "unknown"


class Workload:
    def __init__(self, name, seed, scratch):
        import ellipticdt.cli

        self.pkg = ellipticdt
        self.q_order, self.p_order, self.cache_mode = WORKLOADS[name]
        self.seed = seed
        self.scratch = scratch
        self.cache_dir = None

    def argv(self, cache_dir):
        args = ["check", "all", "--q-order", str(self.q_order), "--p-order", str(self.p_order)]
        args += ["--seed", str(self.seed), "--format", "json"]
        return args + (["--cache-dir", cache_dir] if cache_dir else [])

    def prepare(self):
        """Fill the warm workload's cache directory with one checked cold pass."""
        if self.cache_mode == "warm":
            self.cache_dir = tempfile.mkdtemp(prefix="warm-", dir=self.scratch)
            ok, _, _, detail = self._checked_pass(self.cache_dir, check_records=True)
            if not ok:
                raise BenchError("filling the cache failed: " + detail)

    def run_pass(self):
        """One timed `check all`; returns (ok, wall_s, cpu_s, detail)."""
        if self.cache_mode != "cold":
            return self._checked_pass(self.cache_dir, check_records=False)
        cache_dir = tempfile.mkdtemp(prefix="cold-", dir=self.scratch)
        try:
            return self._checked_pass(cache_dir, check_records=True)
        finally:
            shutil.rmtree(cache_dir)

    def _checked_pass(self, cache_dir, check_records):
        cli, vertex = self.pkg.cli, self.pkg.vertex
        argv = self.argv(cache_dir)
        out, err = io.StringIO(), io.StringIO()
        vertex.clear_memo()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # a crash is a failed pass, not a benchmark error
                traceback.print_exc()
                code = -1
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        detail = self._gate(code, out.getvalue(), err.getvalue())
        if detail is None and check_records:
            digest = records_digest(vertex, cache_dir)
            if digest != Q6P12_RECORDS_DIGEST:
                detail = "vertex records digest %s differs from the pinned one" % digest
        return detail is None, wall, cpu, detail or ""

    @staticmethod
    def _gate(code, out, err):
        lines = out.splitlines()
        try:
            results = json.loads("\n".join(lines[lines.index("{"):]))["results"]
        except (ValueError, KeyError):
            return "exit code %d and no JSON result: %s" % (code, err.strip())
        passed = {r["check"] for r in results if r["equal"] is True}
        if code != 0 or len(results) != CHECK_COUNT or len(passed) != CHECK_COUNT:
            failed = [r["check"] for r in results if r["equal"] is not True]
            return "exit code %d, %d of %d checks passed, failed: %s" % (
                code, len(passed), CHECK_COUNT, ", ".join(failed) or "none"
            )
        return None


def untraced_run(work, seconds, setup_s):
    """Untraced passes for `seconds`; returns (metrics, attempted, failures, note)."""
    walls, cpus, failures = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        ok, wall, cpu, detail = work.run_pass()
        if ok:
            walls.append(wall)
            cpus.append(cpu)
        else:
            failures.append(detail)
        if time.perf_counter() >= deadline:
            break
    attempted = len(walls) + len(failures)
    if not walls:
        return {}, attempted, failures, "no pass succeeded"
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    note = "wall_s and cpu_s are medians of %d passes" % len(walls)
    if len(walls) >= 4:
        q1, _, q3 = statistics.quantiles(walls, n=4)
        note += "; wall quartiles %.4f..%.4f s" % (q1, q3)
    note += "; setup_s is the median import of %d fresh interpreters plus preparation" % IMPORT_SAMPLES
    return metrics, attempted, failures, note


def traced_run(work, seconds):
    """Alternate untraced and traced passes for `seconds`.

    Returns (metrics, attempted, failures, note); the per-layer metrics are
    medians over the traced passes, whose counts must agree exactly.
    """
    untraced, traced, per_pass, failures = [], [], [], []
    fresh, attempted = [], 0
    deadline = time.perf_counter() + seconds
    while True:
        attempted += 2
        ok, wall, _, detail = work.run_pass()
        if ok:
            untraced.append(wall)
        else:
            failures.append(detail)
        tracer = tracing.Tracer()
        tracing.install(tracer, work.pkg)
        try:
            ok, wall, _, detail = work.run_pass()
        finally:
            tracer.uninstall()
        if ok:
            traced.append(wall)
            metrics, fresh = tracing.pass_metrics(tracer.spans)
            per_pass.append(metrics)
        else:
            failures.append(detail)
        if time.perf_counter() >= deadline:
            break
    if not traced or not untraced:
        return {}, attempted, failures, "no traced pair succeeded"
    counts = [{k: v for k, v in m.items() if metric_unit(k) == "count"} for m in per_pass]
    if any(c != counts[0] for c in counts):
        failures.append("traced counts differ between passes: %s" % counts)

    # Poset size and build time of every fresh config, outside the timed passes.
    vertex, Partition = work.pkg.vertex, work.pkg.partitions.Partition
    poset_s, boxes = 0.0, 0
    for legs, order, _ in fresh:
        cfg = vertex.LegConfig(*(Partition(p) for p in legs))
        t0 = time.perf_counter()
        boxes += vertex.estimate_nodes(cfg, order)[0]
        poset_s += time.perf_counter() - t0

    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    metrics["vertex.poset_s"] = poset_s
    metrics["vertex.candidate_boxes"] = boxes
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    note = "per-layer values are medians of %d traced passes, paired with %d untraced" % (
        len(traced), len(untraced)
    )
    return metrics, attempted, failures, note


def metric_unit(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ellipticdt" / "cli.py").is_file():
        raise BenchError("no ellipticdt sources under %s; run from a repository checkout" % SRC)
    os.environ.pop(CACHE_ENV, None)
    SCRATCH.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    try:
        import_s = median_import_seconds()
        sys.path.insert(0, str(SRC))
        work = Workload(args.workload, args.seed, scratch)
        t0 = time.perf_counter()
        work.prepare()
        setup_s = import_s + time.perf_counter() - t0
        if args.trace:
            metrics, attempted, failures, note = traced_run(work, args.seconds)
        else:
            metrics, attempted, failures, note = untraced_run(work, args.seconds, setup_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()

    print(
        "env: python %s, nproc %d, commit %s"
        % (sys.version.split()[0], len(os.sched_getaffinity(0)), git_commit())
    )
    print("workload %s, seed %d, trace %d" % (args.workload, args.seed, args.trace))
    print(note)
    for detail in failures:
        print("FAILED pass: %s" % detail)
    for name, value in metrics.items():
        print("%-28s %.6g %s" % (name, value, metric_unit(name)))
    result = {
        "correct": not failures and bool(metrics),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": metric_unit(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        sys.stderr.write("error: %s\n" % exc)
        sys.exit(2)
