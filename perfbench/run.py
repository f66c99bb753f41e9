#!/usr/bin/env python3
"""Build the simulator from source and run one benchmark workload.

    python3 perfbench/run.py --workload <paper|demand_sweep|fleet_process> \
        --seed <n> --seconds <n> --trace <0|1>

Builds the shipped `perfjson` binary (its `fleet-campaign-worker` mode runs
the `fleet_process` shards) and the `perfbench` binary, both in release
mode, offline, into `$CARGO_TARGET_DIR` (default `.bench_build` at the
repository root), then replaces itself with `perfbench`, passing the
arguments through. The last line `perfbench` prints is the JSON result;
the full result, with the host block, counters and spans, is written
under `.perfbench/results/`. A failed build exits non-zero.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(manifest, *selection):
    """Build `selection` of `manifest` and return {binary name: path}."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--message-format=json-render-diagnostics",
        "--manifest-path", manifest, *selection,
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"perfbench/run.py: `{' '.join(cmd)}` failed ({proc.returncode})")
    binaries = {}
    for line in proc.stdout.splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            binaries[msg["target"]["name"]] = msg["executable"]
    return binaries


def main():
    os.environ.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    perfjson = build(os.path.join(ROOT, "Cargo.toml"), "-p", "greener-bench", "--bin", "perfjson")
    perfbench = build(os.path.join(HERE, "Cargo.toml"), "--bin", "perfbench")
    exe = perfbench["perfbench"]
    argv = [exe, *sys.argv[1:], "--worker", perfjson["perfjson"],
            "--out", os.path.join(ROOT, ".perfbench")]
    sys.stdout.flush()
    os.execv(exe, argv)


if __name__ == "__main__":
    main()
