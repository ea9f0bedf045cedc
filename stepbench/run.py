#!/usr/bin/env python3
"""Paper-scale step benchmark: build the driver, run one workload, report.

    python3 stepbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds stepbench/ (and the library from this
checkout's sources) in Release under .bench_build/stepbench, pins the
workload's worker count, runs the driver and prints a human-readable
summary followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (metrics.py defines both). Exits non-zero when the build or
the driver fails, or when any output check fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

import metrics  # noqa: E402

ROOT = HERE.parent
BUILD_DIR = Path(".bench_build") / "stepbench"  # relative to ROOT

# Fixed worker count per workload, clamped to nproc and recorded. Every
# workload runs serial: on a shared 4-vCPU host the step workloads' run-to-run
# spread at 2 and 4 workers was 20-100%, against under 15% at one, and the
# wire workload at 4 workers moved 50-80% between runs, because a fork-join
# forward waits for whichever worker another tenant delays.
WORKERS = {
    "trad_paper": 1,
    "dlpic_f64": 1,
    "ensemble8_f64": 1,
    "wire_int8": 1,
}

DRIVER_GRACE_S = 150  # set-up, checks and teardown on top of --seconds


def fail(message, code=2):
    print(f"stepbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"library sources not found in {ROOT}; run from a full checkout")
    build_dir = ROOT / BUILD_DIR
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    # The compiler's temporary files stay inside the checkout too.
    tmp_dir = build_dir / "tmp"
    tmp_dir.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp_dir))
    with open(log_path, "w") as log:
        steps = []
        if not (build_dir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(build_dir), "--target", "stepbench",
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")
    return build_dir / "stepbench"


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_driver(binary, args, workers):
    env = dict(os.environ, DLPIC_THREADS=str(workers))
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", str(BUILD_DIR)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + DRIVER_GRACE_S)
    except subprocess.TimeoutExpired:
        fail(f"driver timed out after {args.seconds + DRIVER_GRACE_S} s", 1)
    if proc.returncode != 0:
        fail(f"driver exited with {proc.returncode}", 1)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("driver printed no report", 1)
    return json.loads(lines[-1])


def print_summary(workload, raw, values, trace):
    ctx = raw["context"]
    print(f"workload {workload}: seed {ctx['seed']}, workers {ctx['workers']} of nproc "
          f"{ctx['nproc']}, backend {ctx['kernel_backend']}, build {ctx['build_type']}, "
          f"git {ctx['git_sha']}")
    for check in raw["checks"]:
        print(f"  check {check['name']}: {'ok' if check['ok'] else 'FAILED'}  {check['detail']}")
    print(f"  attempted {raw['attempted']}, failed {raw['failed']}, "
          f"failed_frac {metrics.failed_frac(raw):.6g}")
    ops = raw["op_ms"]
    if not trace:
        windows = metrics.WINDOWS[workload]
        _, pct, per_window = metrics.tail(ops, metrics.TAIL_PERCENTILE[workload], windows)
        print(f"  {len(ops)} {raw['op']}s timed untraced; tail = median over "
              f"{windows} windows of p{pct:g} ({per_window} samples, "
              f"{metrics.beyond(per_window, pct)} beyond, per window)")
        aliases = metrics.STEP_ALIASES if raw["op"] == "step" else metrics.REQUEST_ALIASES
        for name, alias in aliases.items():
            print(f"  {alias} = {values[name]:.6g}")
    for name, unit in metrics.units(trace).items():
        print(f"  {name} = {values[name]:.6g} {unit}")
    for name, value in sorted(raw["counters"].items()):
        print(f"  counter {name} = {value:.6g}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    workers = max(1, min(WORKERS[args.workload], os.cpu_count() or 1))
    raw = run_driver(binary, args, workers)
    raw["context"]["git_sha"] = git_sha()

    values = (metrics.per_layer(args.workload, raw) if args.trace
              else metrics.end_to_end(args.workload, raw))
    correct = raw["failed"] == 0 and all(c["ok"] for c in raw["checks"])
    print_summary(args.workload, raw, values, args.trace)
    result = {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in metrics.units(args.trace).items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
