#!/usr/bin/env python3
"""The repository benchmark: one seeded workload per call.

    python3 perfbench/run.py --workload pic-dense --seed 7 --seconds 10 \
        --trace 0

Run from the root of a checkout. Builds perfbench/ (and the library
sources in src/) into .bench_build/perfbench on first use, runs the
driver, checks its outputs and prints one JSON result line last:
end-to-end metrics with --trace 0, the per-layer breakdown with
--trace 1. A full report (host and build metadata, samples, checks,
spans, the calibrated machine profile of traced runs) is written to
.bench_build/results/. Exits non-zero when any correctness gate fails.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave the source tree as it was

import metrics  # noqa: E402
import stats  # noqa: E402

ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
DRIVER = BUILD_DIR / "perfbench_driver"

# A second seed, never used while tuning, for confirming later claims.
CONFIRM_SEED = 104729

# Wall-time bound of one driver run; a run past it is killed and counted
# as failed instead of hanging the benchmark.
RUN_BOUND_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once and builds; incremental builds are no-ops."""
    if not (ROOT / "src" / "pic" / "PicSimulation.h").is_file():
        raise RuntimeError("library sources (src/) not found next to "
                           "perfbench/")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr)


def lscpu():
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True,
                             timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    info = {}
    for line in out.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "L2 cache", "L3 cache"):
            info[key.strip()] = value.strip()
    return info


def source_digest():
    """sha256 over the sources the driver is built from."""
    h = hashlib.sha256()
    for d in ("src", "perfbench"):
        for p in sorted((ROOT / d).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    value = out.stdout.strip()
    return value if out.returncode == 0 and re.fullmatch(
        r"[0-9a-f]{40}", value) else None


def host_metadata(doc):
    cpu = lscpu()
    return {
        "cpu_model": cpu.get("Model name"),
        "nproc": len(os.sched_getaffinity(0)),
        "l2": cpu.get("L2 cache"),
        "llc": cpu.get("L3 cache"),
        "compiler": doc["build"]["compiler"] if doc else None,
        "build_type": doc["build"]["type"] if doc else None,
        "commit": commit(),
        "source_sha256": source_digest(),
    }


def run_driver(args, workdir):
    cmd = [str(DRIVER), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--workdir", str(workdir)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_BOUND_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError("driver exited with %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=list(metrics.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
    except (OSError, RuntimeError, subprocess.CalledProcessError) as e:
        log("error: build failed: %s" % e)
        return 2

    workdir = BUILD_ROOT / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    doc, problems = None, []
    try:
        doc = run_driver(args, workdir)
    except subprocess.TimeoutExpired:
        problems.append("run exceeded its %d s wall bound" % RUN_BOUND_S)
    except (RuntimeError, ValueError, IndexError) as e:
        problems.append("driver failed: %s" % e)

    attempted, failed, values = 1, 1, {}
    if doc is not None:
        attempted, failed = doc["attempted"], doc["failed"]
        for check in doc["checks"]:
            if not check["ok"]:
                problems.append("%s: %s" % (check["name"], check["detail"]))
        # The wall-clock self-check counts as one more checked operation.
        wall = metrics.wall_clock_failures(doc["sections"])
        problems += wall
        attempted += 1
        failed += 1 if wall else 0
        try:
            values = (metrics.per_layer(doc) if args.trace
                      else metrics.end_to_end(doc))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
            problems.append("metrics: %s" % e)
            attempted += 1
            failed += 1
            values = {}
    declared = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    result = {name: (values[name], unit) for name, unit, _ in declared
              if name in values}
    correct = not problems and failed == 0 and len(result) == len(declared)

    report = {
        "workload": args.workload, "seed": args.seed,
        "confirm_seed": CONFIRM_SEED, "seconds": args.seconds,
        "trace": args.trace, "wall_s": time.monotonic() - started,
        "host": host_metadata(doc), "correct": correct,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result.items()},
        "raw": doc,
    }
    out_dir = BUILD_ROOT / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / ("%s-seed%d-trace%d.json"
                     % (args.workload, args.seed, args.trace))
    out.write_text(json.dumps(report, indent=1))
    for p in problems:
        log("FAIL: " + p)
    for name, (value, unit) in result.items():
        log("%-32s %14.6g %s" % (name, value, unit))
    log("report: %s" % out.relative_to(ROOT))
    print(stats.format_result(correct, attempted, failed, result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
