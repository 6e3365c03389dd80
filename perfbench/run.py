#!/usr/bin/env python3
"""Build the benchmark from source and run one workload, or all of them.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The benchmark crate is built in
release mode into $CARGO_TARGET_DIR (default: .bench_build). One workload
runs in one fresh process; its last line of output is one JSON object
with the metrics `BENCHMARK.json` lists. `--workload all` runs every
workload, each in its own process, and ends with one summary row per
workload.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["meta_read", "lock_churn", "cached_rw_sim"]
# A run measures for --seconds and then reports; past this much extra
# time it is stuck, and is stopped.
GRACE_S = 60


def target_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Build the benchmark; on failure the build log is on stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=False)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed ({done.returncode})")
    return os.path.join(target_dir(), "release", "perfbench")


def run_one(binary, workload, args):
    """Run one workload in a fresh process; return (exit code, stdout)."""
    cmd = [
        binary, "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--trace-dir", os.path.join(target_dir(), "traces"),
    ]
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=args.seconds + GRACE_S, check=False,
        )
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"perfbench: {workload} did not finish in time", file=sys.stderr)
        return 1, ""
    return done.returncode, done.stdout


def summary(results):
    """One row per workload: every metric of its JSON line with its unit
    and, where the run printed one, its sample count."""
    lines = []
    for workload, out in results:
        rows = out.strip().splitlines()
        doc = json.loads(rows[-1])
        counts = {}
        for row in rows[:-1]:
            cols = row.split()
            if len(cols) == 5 and cols[0] == workload and cols[4].startswith("n="):
                counts[cols[1]] = cols[4]
        cells = [f"attempted={doc['attempted']}", f"failed={doc['failed']}"]
        for name, m in doc["metrics"].items():
            n = f" ({counts[name]})" if name in counts else ""
            cells.append(f"{name}={m['value']:.6g} {m['unit']}{n}")
        lines.append(f"{workload:<14} " + "  ".join(cells))
    return "\n".join(lines)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    binary = build()
    if args.workload != "all":
        code, out = run_one(binary, args.workload, args)
        sys.stdout.write(out)
        return code

    results = []
    failed = False
    for w in WORKLOADS:
        code, out = run_one(binary, w, args)
        lines = out.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n" if lines else "")
        if code != 0 or not lines:
            print(f"perfbench: {w} failed (exit {code})", file=sys.stderr)
            failed = True
            continue
        results.append((w, out))
    print("\n== summary (seed %d, %d s, trace %d)" % (args.seed, args.seconds, args.trace))
    print(summary(results))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
