#!/usr/bin/env python3
"""Builds the benchmark and the `hansim` daemon from source, runs the
benchmark, and checks that what it printed matches BENCHMARK.json.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. Build output lands in
$CARGO_TARGET_DIR (default: .bench_build); the run's own files (serve
snapshots, the traced run's span log) land in .bench_build/run. The
last line of stdout is the benchmark's JSON result. Any failure exits
non-zero without that line.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for manifest, extra in (
        (os.path.join(ROOT, "Cargo.toml"), ["--bin", "hansim"]),
        (os.path.join(BENCH_DIR, "Cargo.toml"), []),
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest, *extra]
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def git_revision():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def check_result(line, trace):
    """The result line must name exactly the metrics BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys are {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        fail("result is not a correct run with attempted operations")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != expected:
        missing = sorted(set(expected) - set(printed))
        extra = sorted(set(printed) - set(expected))
        units = sorted(n for n in set(expected) & set(printed) if expected[n] != printed[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, units {units}")


def main():
    args = sys.argv[1:]
    if "--trace" not in args or args.index("--trace") + 1 >= len(args):
        fail("--trace <0|1> is required")
    trace = args[args.index("--trace") + 1] == "1"
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    build(target)
    out_dir = os.path.join(ROOT, ".bench_build", "run")
    cmd = [os.path.join(target, "release", "perfbench"), *args,
           "--hansim", os.path.join(target, "release", "hansim"),
           "--out", out_dir,
           "--host-rustc", rustc_version(),
           "--host-rev", git_revision()]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail(f"benchmark exited with {run.returncode}")
    try:
        check_result(lines[-1], trace)
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail(f"cannot check the result line: {e}")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
