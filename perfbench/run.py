"""Benchmark of the crtseq CLI and library on two seeded workloads.

    python3 perfbench/run.py --workload {sweep,receiver} --seed N \
        --seconds S --trace {0,1}

Runs the checkout's own ``src/`` in this one process and thread: the
workload's job list is repeated in passes (closed loop, one client) until
``--seconds`` are used, with at least one pass.  Every job's output is
checked outside its timed region.  ``--trace 0`` reports the end-to-end
metrics named in BENCHMARK.json; ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics.  The last stdout line is
the JSON result; the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_RUNS = 7
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); import crtseq.cli as cli\n"
    "try:\n    cli.main(['--help'])\nexcept SystemExit:\n    pass\n"
)


def pin_environment() -> None:
    """One thread everywhere: the shipped CRTSEQ_THREADS default of 1 and
    single-threaded BLAS/OpenMP.  Must run before numpy is imported."""
    os.environ.pop("CRTSEQ_THREADS", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"


def time_setup() -> float:
    """Wall time of a fresh interpreter importing crtseq.cli and building
    its parser."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                            stdout=subprocess.DEVNULL)
    # wait() with a timeout polls in steps of up to 50 ms, which would
    # quantize the reading; a timer kills a hung child instead
    killer = threading.Timer(60, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
    if code != 0:
        raise subprocess.CalledProcessError(code, "set-up interpreter")
    return time.perf_counter() - start


def run_pass(jobs, tracer=None) -> dict:
    """Run every job once; time the call, then check its output."""
    times: dict[str, float] = {}
    failed = bytes_written = 0
    started = time.perf_counter()
    for job in jobs:
        try:
            if job.prepare is not None:
                job.prepare()
            if tracer is not None:
                tracer.job = job.name
            t0 = time.perf_counter()
            out = job.run()
            dt = time.perf_counter() - t0
            errors = job.check(out)
        except Exception:  # a crashing job is a failed job; keep measuring
            dt, errors = 0.0, [traceback.format_exc()]
        times[job.name] = dt
        bytes_written += sum(p.stat().st_size for p in job.outputs if p.exists())
        if errors:
            failed += 1
            for err in errors[:3]:
                print(f"FAIL {job.name}: {err}", file=sys.stderr)
    return {
        "traced": tracer is not None,
        "wall_s": sum(times.values()),
        "elapsed_s": time.perf_counter() - started,
        "attempted": len(jobs),
        "failed": failed,
        "times": times,
        "bytes_written": bytes_written,
        "layers": tracer.metrics() if tracer is not None else None,
    }


def measure(jobs, seconds: float, trace: bool) -> tuple[list[dict], list, list[float]]:
    """Repeat passes until the next one would overrun ``seconds``; with
    tracing, alternate untraced and traced passes, at least one of each.

    The SETUP_RUNS set-up interpreters run between passes, spread over the
    run, so that their median does not hang on one moment's host load; one
    unrecorded interpreter first writes bytecode."""
    import tracing

    tracer = tracing.Tracer() if trace else None
    passes, spans, setup = [], [], []
    time_setup()
    start = time.perf_counter()
    while True:
        if len(setup) < SETUP_RUNS and (
            time.perf_counter() - start >= len(setup) * seconds / SETUP_RUNS
        ):
            setup.append(time_setup())
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
            try:
                passes.append(run_pass(jobs, tracer))
            finally:
                tracer.uninstall()
            spans = list(tracer.spans)
        else:
            passes.append(run_pass(jobs))
        if trace and len(passes) < 2:
            continue
        # the last pass of the kind that would run next predicts its length
        upcoming = passes[-2] if trace else passes[-1]
        if time.perf_counter() - start + upcoming["elapsed_s"] > seconds:
            break
    while len(setup) < SETUP_RUNS:
        setup.append(time_setup())
    return passes, spans, setup


def fastest(jobs, passes: list[dict]) -> dict[str, float]:
    """Each job's fastest time over the passes."""
    return {job.name: min(p["times"][job.name] for p in passes) for job in jobs}


def summarize(jobs, passes: list[dict], trace: bool, setup: list[float]) -> dict[str, float]:
    plain = [p for p in passes if not p["traced"]]
    best = fastest(jobs, plain)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(best.values()),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_frac": sum(p["failed"] for p in passes) / sum(p["attempted"] for p in passes),
    }
    for rate in dict.fromkeys(job.rate for job in jobs):
        group = [job for job in jobs if job.rate == rate]
        seconds = sum(best[job.name] for job in group)
        if seconds > 0:
            metrics[rate] = sum(job.work for job in group) / seconds
    if trace:
        traced = [p for p in passes if p["traced"]]
        for name in sorted({k for p in traced for k in p["layers"]}):
            metrics[name] = min(p["layers"].get(name, 0.0) for p in traced)
        metrics["cli.bytes_written"] = min(p["bytes_written"] for p in traced)
        metrics["trace.overhead_s"] = sum(fastest(jobs, traced).values()) - metrics["wall_s"]
    return metrics


def environment_record(seed: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": 1,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "crtseq_threads": os.environ.get("CRTSEQ_THREADS", "unset (default 1)"),
    }


def _git_commit() -> str | None:
    """HEAD of a git checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def _unit(name: str, bench: dict, rate_units: dict[str, str]) -> str:
    for m in bench["end_to_end"] + bench["per_layer"]:
        if m["name"] == name:
            return m["unit"]
    if name in rate_units:
        return rate_units[name]
    return "count" if name.endswith("_calls") else "s" if name.endswith("_s") else "ratio"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "receiver"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: seconds-long inputs for the benchmark's own tests")
    args = ap.parse_args(argv)

    pin_environment()
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        import workloads  # imports crtseq from src/, after the thread pinning

        where = Path(workloads.cli.__file__).resolve()
        if not where.is_relative_to(ROOT / "src"):
            raise ImportError(f"crtseq came from {where}, not from this checkout's src/")
    except (OSError, ImportError, ValueError) as exc:
        print(f"perfbench: cannot load the benchmark or crtseq: {exc}", file=sys.stderr)
        return 2

    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        make_jobs = workloads.JOB_LISTS[args.workload]
        jobs = make_jobs(args.seed, workdir, workloads.SIZES[args.size])
        passes, spans, setup = measure(jobs, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = summarize(jobs, passes, bool(args.trace), setup)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "size": args.size,
        "environment": environment_record(args.seed),
        "setup_s": setup,
        "passes": passes,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w") as fh:
            for name, start, end, parent, job in spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} jobs={attempted} failed={failed}")
    print("environment " + json.dumps(record["environment"]))
    for name, value in metrics.items():
        print(f"  {name:<28} {value:.6g} {_unit(name, bench, workloads.RATE_UNITS)}")
    kind = "per_layer" if args.trace else "end_to_end"
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
            for m in bench[kind]
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
