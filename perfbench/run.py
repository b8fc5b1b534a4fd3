#!/usr/bin/env python3
"""Build and run the AN5D pipeline benchmark for one workload.

    python3 perfbench/run.py --workload dram-2d --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the core
library plus the driver under .bench_build/ (CMake, Release); later runs
reuse that build. Kernel caches, temporary files and traces also stay under
.bench_build/. The last line of stdout is the driver's JSON result, printed
only after every metric name and unit has been checked against
BENCHMARK.json and perfbench/layers.json.
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
DRIVER = os.path.join(BUILD_DIR, "an5d_perfbench")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BUILD_TIMEOUT_S = 600
RUN_GRACE_S = 150


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def declared_metrics(spec, layers):
    """Name -> unit for each metric section, after checking the names."""
    sections = {}
    for key in ("end_to_end", "per_layer"):
        units = {}
        for m in spec[key]:
            if not NAME_RE.match(m["name"]) or not UNIT_RE.match(m["unit"]):
                fail("BENCHMARK.json: bad name or unit in %r" % m)
            if m["name"] in units:
                fail("BENCHMARK.json: %s declared twice" % m["name"])
            units[m["name"]] = m["unit"]
        sections[key] = units
    moves = layers.get("per_layer", {})
    missing = sorted(set(sections["per_layer"]) ^ set(moves))
    if missing:
        fail("layers.json and BENCHMARK.json disagree on %s" % missing)
    return sections


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; on timeout kills the whole group
    (the driver and the build spawn compilers) and waits for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("timed out: %s" % " ".join(cmd))
    return proc.returncode, out


def run_logged(cmd, log_path, timeout, env):
    with open(log_path, "w") as log:
        returncode, _ = run_group(cmd, timeout, stdout=log,
                                  stderr=subprocess.STDOUT, env=env)
    if returncode != 0:
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        fail("command failed: %s" % " ".join(cmd))


def build(env):
    os.makedirs(BUILD_DIR, exist_ok=True)
    generated = [os.path.join(BUILD_DIR, f) for f in ("Makefile", "build.ninja")]
    if not any(os.path.exists(f) for f in generated):
        run_logged(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   os.path.join(BUILD_ROOT, "configure.log"), BUILD_TIMEOUT_S,
                   env)
    run_logged(["cmake", "--build", BUILD_DIR, "-j", "4"],
               os.path.join(BUILD_ROOT, "build.log"), BUILD_TIMEOUT_S, env)


def check_result(result, expected, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys %s" % sorted(result))
    got = result["metrics"]
    if set(got) != set(expected):
        fail("metric names differ from BENCHMARK.json: extra %s, missing %s"
             % (sorted(set(got) - set(expected)),
                sorted(set(expected) - set(got))))
    for name, m in got.items():
        if m.get("unit") != expected[name]:
            fail("%s: unit %r, declared %r" % (name, m.get("unit"),
                                               expected[name]))
        if not isinstance(m.get("value"), (int, float)):
            fail("%s: value %r is not a number" % (name, m.get("value")))
    if not trace:
        zero = [n for n, m in got.items() if m["value"] == 0]
        if zero and result["correct"]:
            fail("end-to-end metrics read 0: %s" % zero)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    layers = load_json(os.path.join(BENCH_DIR, "layers.json"))
    sections = declared_metrics(spec, layers)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")

    # Compilers (the build's and the kernel JIT's) write their temporaries
    # under TMPDIR: keep them inside the checkout.
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    build(env)

    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(BUILD_ROOT, "work")]
    returncode, out = run_group(cmd, args.seconds + RUN_GRACE_S,
                                stdout=subprocess.PIPE, env=env, text=True)
    lines = out.rstrip("\n").split("\n")
    if returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        fail("driver exited with code %d" % returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError as e:
        fail("bad result line: %s" % e)
    expected = sections["per_layer" if args.trace else "end_to_end"]
    check_result(result, expected, args.trace)
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
