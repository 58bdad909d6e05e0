"""Minimal-size check of the benchmark harness itself.

    python3 bench/smoke.py

Runs every workload at the smallest size, untraced and traced, and checks
that the last output line names exactly the metrics BENCHMARK.json lists,
with the same units, that every run is correct, and that the benchmark
refuses to run (nonzero exit, no result line) in a directory holding only
BENCHMARK.json and the benchmark's own files.  Exits nonzero on any problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import BENCH, OUT, ROOT, WORKLOADS


def run_bench(cwd, workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            code, lines = run_bench(ROOT, workload, trace)
            result = json.loads(lines[-1]) if lines else {}
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            where = f"{workload} trace={trace}"
            if code != 0 or result.get("correct") is not True:
                problems.append(f"{where}: exit {code}, correct={result.get('correct')}")
            if set(got) != set(want):
                problems.append(
                    f"{where}: missing {sorted(set(want) - set(got))}, "
                    f"unexpected {sorted(set(got) - set(want))}"
                )
            problems += [
                f"{where}: {k} unit {got[k]} != {want[k]}"
                for k in set(got) & set(want) if got[k] != want[k]
            ]
            print(f"{where}: exit {code}, {len(got)} metrics")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines = run_bench(bare, "mixed", 0)
    shutil.rmtree(bare)
    if code == 0 or (lines and lines[-1].startswith("{")):
        problems.append(f"bare directory: exit {code}, last line {lines[-1:] }")
    print(f"bare directory: exit {code}")

    for p in problems:
        print("PROBLEM:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
