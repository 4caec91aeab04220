"""Self-test of the benchmark at its smallest size, run from the repository root:

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json with ``--smoke`` once untraced and once
traced, and checks each result against the schema: the last line is one JSON
object with exactly ``correct``, ``attempted``, ``failed`` and ``metrics``;
the run is correct; every end-to-end (untraced) or per-layer (traced) metric
is present with its unit and a finite value, and is printed with its
direction. It also checks that a directory holding only BENCHMARK.json and the
benchmark refuses to run. Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 300


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def check_result(spec: dict, workload: str, trace: int, proc) -> list[str]:
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-3000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{where}: not a correct run: {lines[-1][:200]}")
    listed = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in listed}:
        problems.append(f"{where}: metric names differ from BENCHMARK.json")
    for m in listed:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"] or not math.isfinite(got.get("value", math.nan)):
            problems.append(f"{where}: {m['name']} = {got}")
        if m["better"] not in ("higher", "lower"):
            problems.append(f"{where}: {m['name']} has direction {m['better']!r}")
        if not any(line.startswith(m["name"] + " ") and f"({m['better']} is better)" in line for line in lines):
            problems.append(f"{where}: {m['name']} is not printed with its direction")
    return problems


def check_bare_directory() -> list[str]:
    """Without the sources the benchmark must fail and print no result."""
    bare = HERE / ".work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = run(bare, "data", 0)
        printed = proc.stdout.strip().splitlines()
        if proc.returncode == 0 or (printed and printed[-1].startswith('{"correct"')):
            return [f"bare directory: exit {proc.returncode}, output {proc.stdout[-200:]!r}"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_result(spec, workload, trace, run(ROOT, workload, trace))
            print(f"{workload} trace={trace}: {'ok' if not problems else 'FAILED'}", flush=True)
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
    problems += check_bare_directory()
    print(f"bare directory refused: {'ok' if not problems else 'FAILED'}")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
