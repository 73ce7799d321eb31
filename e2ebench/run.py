#!/usr/bin/env python3
"""End-to-end benchmark of run_job(), the engine behind `kmscli irr` and kmsd.

Run from the repository root:

    python3 e2ebench/run.py --workload csa --seed 1 --seconds 10 --trace 0

Builds the engine library and the driver (e2ebench/driver.cpp) with CMake
into .bench_build/, runs the driver, checks every output netlist for
functional equivalence with its input using the evaluator below, which
shares no code with the engine, and prints one JSON result as the last
line of stdout. --trace 0 reports the end_to_end metrics of
BENCHMARK.json, --trace 1 the per_layer ones.

With --trace 0 one driver runs on each CPU (up to four), all at once,
each pinned to its own. The host is shared, and its tenants slow each
CPU by up to 1.6x, CPU by CPU, for stretches of seconds, so a single
driver can spend a whole run slow. latency_ms is the geometric mean
over the corpus of each circuit's fastest job on any CPU: the latency a
user sees on a quiet core, with every circuit weighing the same
although their costs differ a hundredfold. setup_s is the median of the
drivers' set-up times.
"""

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("csa", "certify")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "e2ebench")
BUILD_TIMEOUT_S = 840
DRIVER_TIMEOUT_S = 150
MAX_DRIVERS = 4
EXHAUSTIVE_MAX_INPUTS = 18
RANDOM_VECTORS = 1 << 14


def fail(msg):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally; output only on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        # A session of its own, so a timeout kills make and the compilers
        # along with cmake instead of leaving them running.
        try:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                    stderr=subprocess.STDOUT,
                                    start_new_session=True)
        except OSError as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        try:
            out, _ = proc.communicate(timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()
            fail("build step %s did not finish within %d s"
                 % (cmd[:2], BUILD_TIMEOUT_S))
        if proc.returncode != 0:
            sys.stderr.write(out.decode(errors="replace")[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "e2e_driver")


# ---- independent BLIF evaluator ---------------------------------------


def parse_blif(text):
    """Return (inputs, outputs, nodes) of a combinational BLIF model, where
    nodes maps each signal to (fanin names, cubes, on_set)."""
    logical, pending = [], ""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        line = (pending + line).strip()
        pending = ""
        if line:
            logical.append(line)
    inputs, outputs, nodes, current = [], [], {}, None
    for line in logical:
        toks = line.split()
        if toks[0] == ".inputs":
            inputs += toks[1:]
        elif toks[0] == ".outputs":
            outputs += toks[1:]
        elif toks[0] == ".names":
            current = {"fanins": toks[1:-1], "cubes": [], "on": True}
            nodes[toks[-1]] = current
        elif toks[0] in (".model", ".end"):
            current = None
        elif toks[0].startswith("."):
            raise ValueError("unsupported BLIF directive " + toks[0])
        else:
            if current is None:
                raise ValueError("cover line outside .names: " + line)
            if current["fanins"]:
                pattern, bit = toks
            else:
                pattern, bit = "", toks[0]
            current["on"] = bit == "1"
            current["cubes"].append(pattern)
    return inputs, outputs, nodes


def evaluate(model, stimulus, mask):
    """Bit-parallel simulation: `stimulus` maps each input to an int whose
    bit k is the input's value in vector k."""
    inputs, outputs, nodes = model
    values = {name: stimulus[name] for name in inputs}
    for root in outputs:
        stack = [root]
        while stack:
            sig = stack[-1]
            if sig in values:
                stack.pop()
                continue
            if sig not in nodes:
                raise ValueError("undefined signal " + sig)
            node = nodes[sig]
            missing = [f for f in node["fanins"] if f not in values]
            if missing:
                stack.extend(missing)
                continue
            acc = 0
            for cube in node["cubes"]:
                term = mask
                for lit, fanin in zip(cube, node["fanins"]):
                    if lit == "1":
                        term &= values[fanin]
                    elif lit == "0":
                        term &= ~values[fanin] & mask
                acc |= term
            values[sig] = acc if node["on"] else ~acc & mask
            stack.pop()
    return {name: values[name] for name in outputs}


def stimulus_for(inputs, seed):
    n = len(inputs)
    if n <= EXHAUSTIVE_MAX_INPUTS:
        width = 1 << n
        stim = {}
        for i, name in enumerate(sorted(inputs)):
            period = 1 << (i + 1)
            unit = ((1 << (period // 2)) - 1) << (period // 2)
            repeat = ((1 << width) - 1) // ((1 << period) - 1)
            stim[name] = unit * repeat
        return stim, (1 << width) - 1
    rng = random.Random(seed)
    width = RANDOM_VECTORS
    return ({name: rng.getrandbits(width) for name in sorted(inputs)},
            (1 << width) - 1)


def equivalent(in_text, out_text, seed):
    """None when equivalent, else a reason."""
    a, b = parse_blif(in_text), parse_blif(out_text)
    if sorted(a[0]) != sorted(b[0]) or sorted(a[1]) != sorted(b[1]):
        return "interface differs"
    stim, mask = stimulus_for(a[0], seed)
    va, vb = evaluate(a, stim, mask), evaluate(b, stim, mask)
    for name in a[1]:
        if va[name] != vb[name]:
            return "output %s differs" % name
    return None


def run_drivers(driver, args, cpus):
    """Run one driver per entry of `cpus` at once, each pinned to that CPU
    unless it is None. Returns their result objects and, for each, the
    netlists it wrote. Every driver has ended when this returns."""
    procs, dirs = [], []
    try:
        for k, cpu in enumerate(cpus):
            check_dir = os.path.join(BUILD_DIR, "check", "%s-%d-%d"
                                     % (args.workload, args.seed, k))
            shutil.rmtree(check_dir, ignore_errors=True)
            os.makedirs(check_dir)
            dirs.append(check_dir)
            cmd = [driver, "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", repr(args.seconds),
                   "--trace", str(args.trace), "--check-dir", check_dir]
            pin = None if cpu is None else (
                lambda cpu=cpu: os.sched_setaffinity(0, {cpu}))
            procs.append(subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                          preexec_fn=pin))
        deadline = time.monotonic() + DRIVER_TIMEOUT_S
        results, pairs = [], []
        for proc, check_dir in zip(procs, dirs):
            try:
                out, _ = proc.communicate(
                    timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                fail("driver did not finish within %d s" % DRIVER_TIMEOUT_S)
            if proc.returncode != 0:
                fail("driver exited with code %d" % proc.returncode)
            lines = out.decode().strip().splitlines()
            if not lines:
                fail("driver printed no result")
            results.append(json.loads(lines[-1]))
            written = {}
            for name in os.listdir(check_dir):
                with open(os.path.join(check_dir, name)) as f:
                    written[name] = f.read()
            pairs.append(written)
        return results, pairs
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        for check_dir in dirs:
            shutil.rmtree(check_dir, ignore_errors=True)


# ---- main ---------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    driver = build()
    cpus = sorted(os.sched_getaffinity(0))[:MAX_DRIVERS]
    results, pairs = run_drivers(driver, args, cpus if args.trace == 0
                                 else [None])
    errors = [e for r in results for e in r["errors"]]
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)

    # The first driver's outputs are checked for equivalence; every
    # other driver must have produced the same bytes.
    for k in range(1, len(pairs)):
        attempted += 1
        if pairs[k] != pairs[0]:
            failed += 1
            errors.append("driver %d wrote other netlists than driver 0" % k)
    ids = sorted({int(n.split(".")[0]) for n in pairs[0]})
    for i in ids:
        attempted += 1
        try:
            reason = equivalent(pairs[0].get("%d.in.blif" % i, ""),
                                pairs[0].get("%d.out.blif" % i, ""),
                                args.seed)
        except ValueError as e:
            reason = "unreadable netlist: %s" % e
        if reason is not None:
            failed += 1
            errors.append("circuit %d not equivalent: %s" % (i, reason))
    if not ids:
        failed += 1
        errors.append("driver wrote no netlists to check")

    got = dict(results[0]["metrics"])
    if args.trace == 0:
        circuits = [r["circuits"] for r in results]
        fastest = [min(c[i]["fastest_ms"] for c in circuits)
                   for i in range(len(circuits[0]))]
        got["latency_ms"] = {"value": math.exp(sum(map(math.log, fastest))
                                               / len(fastest)),
                             "unit": "ms"}
        got["setup_s"] = {"value": statistics.median(
            r["metrics"]["setup_s"]["value"] for r in results), "unit": "s"}
    metrics = {}
    for m in wanted:
        g = got.get(m["name"])
        if g is None or g["unit"] != m["unit"]:
            fail("driver did not report metric %s" % m["name"])
        metrics[m["name"]] = {"value": g["value"], "unit": m["unit"]}

    for c in results[0]["circuits"]:
        print("%-10s %5d gates  %10.3f ms fastest  %10.3f ms median  %4d reps"
              % (c["name"], c["gates"], c["fastest_ms"], c["median_ms"],
                 c["reps"]))
    for e in errors:
        print("error: " + e)
    print(json.dumps({"correct": failed == 0 and
                      all(r["correct"] for r in results),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
