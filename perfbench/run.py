#!/usr/bin/env python3
"""The tricm benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; tricm is imported from `src/`.
One invocation measures one workload in this fresh process, a closed loop
with one client: each job is one in-process `tricm.cli.main(argv)` call
that writes a `--json` report, which is checked against expected values
from `workloads.py`.  The seed fixes the job cycle and the loop runs whole
cycles until the timed jobs have used `--seconds`.

--trace 0 prints the end-to-end metrics of an untraced run.  --trace 1
runs the same cycles untraced and then traced, and prints the per-layer
metrics (per job) and `trace_overhead`.  The last line of stdout is the
JSON result; the lines before it are for people.  See README.md here.
"""

import os

# before numpy is imported, so that no BLAS pool competes with the one client
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("TRICM_CACHE_DIR", None)  # only jobs that ask for a cache get one

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # the tail percentile is the highest with this many samples above it


class SetupError(Exception):
    pass


def load_cli():
    """Import tricm.cli from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "tricm" / "cli.py").is_file():
        raise SetupError(f"no tricm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from tricm import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"imported tricm from {cli.__file__}, not from {SRC}")
    return cli


@dataclass
class JobResult:
    seconds: float
    failure: str | None
    cache_files: int


def run_job(cli, job: workloads.Job, workdir: Path) -> JobResult:
    """Run one job; only the `cli.main` call is timed.  It is looked up on
    the module at each call, so a traced phase sees its wrapper."""
    report_path = workdir / "report.json"
    report_path.unlink(missing_ok=True)
    argv = list(job.argv) + ["--json", str(report_path)]
    cache = workdir / "cache"
    if job.cache:
        shutil.rmtree(cache, ignore_errors=True)
        cache.mkdir()
        argv += ["--cache-dir", str(cache)]
    gc.collect()
    captured = io.StringIO()
    rc, error = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            rc = cli.main(argv)
    except (Exception, SystemExit):
        error = traceback.format_exc(limit=-3)
    seconds = time.perf_counter() - t0
    cache_files = len(list(cache.glob("*.json"))) if job.cache else 0
    return JobResult(seconds, check(job, rc, error, report_path, cache_files, captured), cache_files)


def check(job, rc, error, report_path, cache_files, captured) -> str | None:
    """Why the job's outcome is wrong, or None."""
    if error is not None:
        return f"exception:\n{error}"
    if rc != 0:
        return f"exit code {rc}, output: {captured.getvalue()[-400:]!r}"
    try:
        digest = workloads.report_digest(json.loads(report_path.read_text()))
    except (OSError, ValueError, KeyError, TypeError) as e:
        return f"unreadable report: {type(e).__name__}: {e}"
    wrong = [
        f"{key}: expected {job.expected.get(key)!r}, got {digest.get(key)!r}"
        for key in sorted(job.expected.keys() | digest.keys())
        if job.expected.get(key) != digest.get(key)
    ]
    if job.cache and cache_files != 1:
        wrong.append(f"cache: expected 1 file written, found {cache_files}")
    return "; ".join(wrong) or None


class Loop:
    """Runs jobs and keeps every result; failures are printed, none retried."""

    def __init__(self, cli, jobs, workdir):
        self.cli, self.jobs, self.workdir = cli, jobs, workdir
        self.attempted = self.failed = 0

    def run(self, job) -> JobResult:
        result = run_job(self.cli, job, self.workdir)
        self.attempted += 1
        if result.failure is not None:
            self.failed += 1
            print(f"FAIL {job.name}: {result.failure}")
        return result

    def cycles(self, count=None, seconds=None) -> tuple[list[JobResult], int]:
        """Whole cycles: `count` of them, or until `seconds` of timed job time."""
        results, done = [], 0
        while (count is not None and done < count) or (
            count is None and sum(r.seconds for r in results) < seconds
        ):
            results += [self.run(job) for job in self.jobs]
            done += 1
        return results, done


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile that
    has TAIL_BEYOND samples above it; the maximum if there are too few."""
    s = sorted(samples)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    k = n - TAIL_BEYOND
    return s[k - 1], 100.0 * k / n, TAIL_BEYOND


def time_setups(args) -> list[float]:
    """Wall time of fresh processes that import tricm and build the inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise SetupError(f"setup process failed: {done.stderr.strip()[-400:]}")
    return times


def machine_info() -> dict:
    import numpy

    src = hashlib.sha256()
    for path in sorted((SRC / "tricm").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(loop, results, setups) -> tuple[dict, dict]:
    ok = [r.seconds for r in results if r.failure is None]
    wall = sum(r.seconds for r in results)
    value, pct, beyond = tail(ok) if ok else (0.0, 0.0, 0)
    metrics = {
        "jobs_per_s": metric(len(ok) / wall, "1/s"),
        "job_s_p50": metric(statistics.median(ok) if ok else 0.0, "s"),
        "job_s_tail": metric(value, "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "job_s_tail": f"p{pct:.1f}, {beyond} of {len(ok)} samples beyond",
        "setup_s": f"median of {len(setups)} fresh processes",
        "fail_share": f"{loop.failed / loop.attempted:.4g} (1), {loop.failed} of {loop.attempted}",
    }
    return metrics, notes


def per_layer(loop, seconds) -> tuple[dict, dict]:
    """Untraced cycles for `seconds`, then as many cycles traced."""
    plain, cycles = loop.cycles(seconds=seconds)
    tracer = layers.Tracer()
    tracer.install()
    try:
        traced, _ = loop.cycles(count=cycles)
    finally:
        tracer.remove()
    metrics = tracer.metrics(len(traced))
    plain_p50 = statistics.median(r.seconds for r in plain)
    traced_p50 = statistics.median(r.seconds for r in traced)
    metrics["cli.cache.files_written"] = metric(
        sum(r.cache_files for r in traced) / len(traced), "count")
    metrics["trace_overhead"] = metric(traced_p50 / plain_p50 - 1, "1")
    notes = {
        "trace_overhead": f"traced p50 {traced_p50:.4f} s / untraced p50 {plain_p50:.4f} s - 1,"
        f" {len(traced)} jobs each",
        "self_s total": f"{tracer.self_seconds() / len(traced):.4f} s per job, traced job mean"
        f" {statistics.fmean(r.seconds for r in traced):.4f} s",
    }
    return metrics, notes


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    try:
        cli = load_cli()
        jobs = workloads.build(args.workload, args.seed, workdir / "inputs")
        if args.setup_only:
            return 0
        setups = [] if args.trace else time_setups(args)
        loop = Loop(cli, jobs, workdir)
        loop.run(jobs[0])  # warm-up, untimed
        if args.trace:
            metrics, notes = per_layer(loop, args.seconds / 2)
        else:
            results, _ = loop.cycles(seconds=args.seconds)
            metrics, notes = end_to_end(loop, results, setups)
        info = machine_info()
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}:"
          f" cycle of {len(jobs)} jobs, {loop.attempted} run (1 warm-up)")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']!s:>24} {m['unit']}  {notes.get(name, '')}")
    for name, note in notes.items():
        if name not in metrics:
            print(f"  {name:44s} {note}")
    print(json.dumps({"machine": info, "jobs": [" ".join(j.argv) for j in jobs]}))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
