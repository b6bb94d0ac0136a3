#!/usr/bin/env python3
"""Runs one workload of the repo benchmark and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
driver (perfbench/CMakeLists.txt, Release) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs reuse the build. The driver
generates the workload's inputs from the seed, drives them through the
serving stack, checks every answer and prints one JSON record. This
script attaches each metric's unit from BENCHMARK.json, stamps the run
(CPU, kernel tier, compiler, build type, source digest, threads),
appends the record to <build dir>/runs.jsonl (or --record FILE) for
compare.py, and prints as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes the spans to <build dir>/traces/).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources (src/) in " + ROOT)
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench_driver",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "a") as log:
        for step in steps:
            try:
                result = subprocess.run(step, stdout=log, stderr=log,
                                        timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as error:
                fail("build step %s failed: %s" % (step[:2], error))
            if result.returncode != 0:
                with open(log_path) as text:
                    tail = text.read()[-4000:]
                fail("build failed (%s):\n%s" % (" ".join(step[:2]), tail))
    driver = os.path.join(out_dir, "perfbench_driver")
    if not os.access(driver, os.X_OK):
        fail("build produced no driver at " + driver)
    return driver


def metric_units(trace):
    """{name: (unit, better)} for the metrics this kind of run reports."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as error:
        fail("cannot read %s: %s" % (path, error))
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: (m["unit"], m["better"]) for m in section}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """sha256 over the program and benchmark sources: identifies the code
    measured when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
        if result.returncode == 0:
            return result.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout; see source_digest)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the run record to this "
                        "JSONL file (default: <build dir>/runs.jsonl)")
    args = parser.parse_args()

    units = metric_units(args.trace)
    out_dir = build_dir()
    driver = build(out_dir)

    command = [driver, "--workload=" + args.workload,
               "--seed=%d" % args.seed, "--seconds=%s" % args.seconds,
               "--trace=%d" % args.trace]
    if args.trace:
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command.append("--trace-out=" + os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed)))
    started = time.time()
    try:
        result = subprocess.run(command, capture_output=True, text=True,
                                timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % DRIVER_TIMEOUT_S, 1)
    sys.stderr.write(result.stderr)
    lines = result.stdout.rstrip("\n").split("\n")
    try:
        record = json.loads(lines[-1])
    except ValueError:
        fail("driver exited %d without a result" % result.returncode, 1)
    for line in lines[:-1]:
        print(line)

    values = record["metrics"]
    if set(values) != set(units):
        fail("driver metrics and BENCHMARK.json differ: only in driver %s, "
             "only in BENCHMARK.json %s" % (sorted(set(values) - set(units)),
                                            sorted(set(units) - set(values))),
             1)
    stamp = record["stamp"]
    stamp.update({
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "commit": commit(),
        "source_digest": source_digest(),
        "wall_s": round(time.time() - started, 3),
    })
    if stamp["build_type"] != "Release":
        stamp["build_type_flag"] = "not a Release build: timings not comparable"
        print("perfbench: WARNING: build type %s, not Release" %
              stamp["build_type"])
    metrics = {name: {"value": values[name], "unit": units[name][0]}
               for name in sorted(values)}
    for name, metric in metrics.items():
        print("perfbench: %-40s %.6g %s" % (name, metric["value"],
                                             metric["unit"]))
    print("perfbench: stamp " + json.dumps(stamp, sort_keys=True))
    print("perfbench: details " + json.dumps(record["details"],
                                              sort_keys=True))

    record_line = dict(record, metrics=metrics, stamp=stamp)
    with open(args.record or os.path.join(out_dir, "runs.jsonl"), "a") as f:
        f.write(json.dumps(record_line, sort_keys=True) + "\n")

    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))
    sys.exit(0 if result.returncode == 0 and record["correct"] else 1)


if __name__ == "__main__":
    main()
