#!/usr/bin/env python3
"""The benchmark's own end-to-end test.

    python3 perfbench/test_bench.py [workload ...]

For each workload (all three by default) it runs the traced benchmark
twice at the default seed and once at another seed, each for one second,
and checks that

- every run exits 0 and reports `correct: true` with no failed check;
- the two default-seed runs agree exactly on the output digest, the work
  counters and every count metric (events, dispatch calls, backfill
  visits, worlds built, artifact bytes, ...);
- the second seed runs clean and computes something else.

Unit tests of the span attribution and helpers run with
`cargo test --manifest-path perfbench/Cargo.toml`.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORLD_SEED = 20220106
WORKLOADS = ["paper", "demand_sweep", "fleet_process"]
EXACT_UNITS = {"count", "bytes"}


def run(workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    assert proc.returncode == 0, f"{workload} seed {seed}: exit {proc.returncode}"
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0, f"{workload} seed {seed}: {last}"
    results = os.path.join(ROOT, ".perfbench", "results", f"{workload}-seed{seed}-trace1.json")
    with open(results) as f:
        full = json.load(f)
    exact = {k: v["value"] for k, v in last["metrics"].items() if v["unit"] in EXACT_UNITS}
    return full["detail"]["digest"], full["detail"]["counters"], exact


def main():
    for workload in sys.argv[1:] or WORKLOADS:
        first = run(workload, WORLD_SEED)
        again = run(workload, WORLD_SEED)
        assert first == again, f"{workload}: same seed, different counters:\n{first}\n{again}"
        other = run(workload, WORLD_SEED + 1)
        assert other[0] != first[0], f"{workload}: another seed gave the same output"
        print(f"ok {workload}: digest {first[0]}, counters {first[1]}")


if __name__ == "__main__":
    main()
