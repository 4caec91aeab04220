"""Benchmark of the bevis pipeline, run from the repository root:

    python3 perfbench/run.py --workload {train,infer,data} --seed N \\
        --seconds S --trace {0,1} [--smoke]

One process runs one workload as a single caller in a closed loop (see
``workloads.py``) against the bevis sources in ``src/``. BLAS runs on one
thread, pinned before numpy loads, and scene generation on one worker.

With ``--trace 0`` the run prints the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` it first runs the same untraced loop, then repeats exactly
those rounds with spans recorded around every bevis module boundary (see
``tracer.py``) and prints the per-layer metrics, with the tracing overhead as
traced minus untraced wall time. The spans go to
``perfbench/.work/spans-<workload>-<seed>.json`` once the run ends.

Every line before the last is for people: an environment record, then each
metric with its unit and direction. The last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Any failed
operation or check makes ``correct`` false and the exit code 1. ``--smoke``
shrinks every workload to its smallest size for the self-test.
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
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

BLAS_THREADS = 1  # one caller, one core: the steadiest timing on a small machine
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "infer", "data"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="smallest size, for the self-test")
    return parser.parse_args(argv)


def pin_environment():
    """Must run before numpy is first imported."""
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    os.environ["BEVIS_NUM_WORKERS"] = "1"
    return threads


def import_bevis():
    if not (SRC / "bevis" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no bevis sources at {SRC.relative_to(ROOT)}/bevis; run from a checkout")
    sys.path.insert(0, str(SRC))
    import bevis

    if Path(bevis.__file__).resolve().parent != SRC / "bevis":
        raise SystemExit(f"benchmark: imported bevis from {bevis.__file__}, not from the checkout")


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "bevis").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(args, threads) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "blas": blas,
        "blas_threads": threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def run_rounds(workload, seconds, tag, rounds=None) -> tuple[int, float]:
    """Closed loop: rounds until ``seconds`` pass (at least two, so every
    workload can compare a repeat), or exactly ``rounds`` rounds."""
    start = time.perf_counter()
    r = 0
    while (r < rounds) if rounds is not None else (r < 2 or time.perf_counter() - start < seconds):
        workload.round(r, tag)
        r += 1
    return r, time.perf_counter() - start


def measure(args, env, spec):
    import workloads
    from tracer import Tracer

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ledger = workloads.Ledger()
    workload = workloads.CLASSES[args.workload](sizes, args.seed, work, ledger)
    metrics = {}
    try:
        workload.setup()
        rounds, untraced_s = run_rounds(workload, args.seconds, "")
        workload.finish()
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                _, traced_s = run_rounds(workload, args.seconds, "t", rounds)
            finally:
                tracer.uninstall()
            metrics = tracer.layer_metrics()
            metrics["trace.untraced_s"] = untraced_s
            metrics["trace.wall_s"] = traced_s
            metrics["trace.overhead_s"] = traced_s - untraced_s
            metrics["trace.spans"] = float(len(tracer.spans))
            tracer.write(WORK / f"spans-{args.workload}-{args.seed}.json", env)
        else:
            metrics = {
                "setup_s": statistics.median(workload.setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "stage1_per_s": workload.rate(workload.stage1),
                "stage2_per_s": workload.rate(workload.stage2),
            }
    except Exception:
        traceback.print_exc()
        if not ledger.failed:
            ledger.attempted += 1
            ledger.failed += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    listed = {m["name"]: m for m in spec[kind]}
    missing = sorted(set(listed) - set(metrics))
    if metrics and missing:
        raise SystemExit(f"benchmark: metrics missing from the {args.workload} run: {missing}")
    return ledger, workload, {name: metrics[name] for name in listed if name in metrics}, listed


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_environment()
    import_bevis()
    env = environment(args, threads)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(json.dumps({"env": env}))
    ledger, workload, metrics, listed = measure(args, env, spec)

    for name, value in metrics.items():
        m = listed[name]
        print(f"{name:40s} {value:14.6g} {m['unit']:8s} ({m['better']} is better)")
    if not args.trace:
        for name, (value, unit, better) in workload.details.items():
            print(f"  {name:38s} {value:14.6g} {unit:8s} ({better} is better)")
    error_rate = ledger.failed / max(ledger.attempted, 1)
    print(f"{'error_rate':40s} {error_rate:14.6g} {'ratio':8s} (lower is better)")
    for error in ledger.errors:
        print(f"error: {error}", file=sys.stderr)

    correct = ledger.failed == 0 and len(metrics) == len(listed)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(ledger.attempted, 1),
                "failed": ledger.failed,
                "metrics": {
                    name: {"value": value, "unit": listed[name]["unit"]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
