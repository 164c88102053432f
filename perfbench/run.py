#!/usr/bin/env python3
"""Builds and runs the FairCap production-path benchmark.

    python3 perfbench/run.py --workload synth1m_cold --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (and the library layers it links) from source under
$CARGO_TARGET_DIR, default .bench_build; later runs only rebuild what
changed. Generated inputs and the span dump go to <build dir>/perfbench_data.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer with --trace 1).
Pass --perturb to corrupt every op's output before it is checked; the run
must then report failures.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGURE_TIMEOUT_S = 60
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    source = os.path.join(ROOT, "perfbench")
    out = os.path.join(build_dir, "perfbench")
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(out, "build.ninja")):
        subprocess.run(
            ["cmake", "-S", source, "-B", out, "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=CONFIGURE_TIMEOUT_S, env=env)
    subprocess.run(
        ["cmake", "--build", out, "--target", "faircap_perfbench", "-j", "4"],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S, env=env)
    return os.path.join(out, "faircap_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["synth1m_cold", "so_paper", "synth1m_append"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--perturb", action="store_true")
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    data_dir = os.path.join(build_dir, "perfbench_data")
    os.makedirs(data_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--dir", data_dir]
    if args.perturb:
        command.append("--perturb")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"perfbench: benchmark exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = {}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
