#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from this checkout and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

A run prints every metric the program measured (name, value, unit), its
output checks and its diagnostics (host steal, generator lateness,
sample counts), and then, as the last line, one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are BENCHMARK.json's end-to-end metrics (--trace 0) or its
per-layer metrics (--trace 1).  The program is built with CMake into
.bench_build/ at the root of the checkout on first use.

--selftest runs every workload briefly, untraced and traced, requires
its output checks to pass and every metric to be reported, and runs the
negative control: a deliberately nondeterministic scheduler that the
convergence check must flag.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# A run must end within 180 s; the program gets the rest after the build.
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build():
    """Configures (once) and builds the perfbench target; output to stderr."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps = []
        if not any(os.path.exists(os.path.join(BUILD, f)) for f in ("build.ninja", "Makefile")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"] + generator)
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                raise BenchError("build failed: " + " ".join(step))


def perfbench(args):
    """Runs the program once and returns its result object."""
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("perfbench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("perfbench exited with code %d" % proc.returncode)
    return json.loads(lines[-1])


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def print_report(workload, result):
    print("perfbench %s: correct=%s attempted=%d failed=%d" %
          (workload, result["correct"], result["attempted"], result["failed"]))
    for section in ("metrics", "diagnostics"):
        print("%s:" % section)
        for name, m in sorted(result[section].items()):
            print("  %-28s %16.6f %s" % (name, m["value"], m["unit"]))
    print("checks:")
    for check in result["checks"]:
        print("  %-36s %s %s" % (check["name"], "ok" if check["ok"] else "FAILED", check["detail"]))


def contract_metrics(result, wanted):
    """The metrics BENCHMARK.json lists for this mode, each checked present."""
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise BenchError("metric %s (%s) missing from the result" % (m["name"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return metrics


def run(args):
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError("unknown workload %r" % args.workload)
    build()
    result = perfbench(["--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(args.trace)])
    print_report(args.workload, result)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": contract_metrics(result, wanted)}))


def selftest():
    spec = load_spec()
    build()
    failures = []

    def expect(ok, what):
        print("%s %s" % ("PASS" if ok else "FAIL", what), flush=True)
        if not ok:
            failures.append(what)

    for workload in [w["name"] for w in spec["workloads"]]:
        base = ["--workload", workload, "--seed", "1", "--seconds", "2"]
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = perfbench(base + ["--trace", str(trace)])
            bad = [c["name"] for c in result["checks"] if not c["ok"]]
            expect(result["correct"] and result["failed"] == 0,
                   "%s trace=%d passes its output checks %s" % (workload, trace, bad or ""))
            try:
                metrics = contract_metrics(result, wanted)
                expect(True, "%s trace=%d reports all %d metrics" % (workload, trace, len(wanted)))
            except BenchError as e:
                expect(False, "%s trace=%d: %s" % (workload, trace, e))
                continue
            if trace:
                views = metrics["gcs.views"]["value"]
                crash = workload == "kv_failover"
                expect(views > 0 if crash else views == 0,
                       "%s gcs.views = %g (%s)" % (workload, views, "> 0" if crash else "0"))

    # Negative control: replicas of a nondeterministic scheduler drift
    # apart, and the convergence check must say so.
    result = perfbench(["--workload", "fig4_lsa", "--seed", "1", "--seconds", "2",
                        "--trace", "0", "--racy"])
    checks = {c["name"]: c["ok"] for c in result["checks"]}
    expect(not result["correct"] and checks.get("replicas_drained") and
           not checks.get("state_hashes_equal") and result["failed"] == result["attempted"],
           "racy scheduler is flagged by state_hashes_equal and fails every request")
    if failures:
        print("selftest: %d failure(s)" % len(failures))
        return 1
    print("selftest: all passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        if args.selftest:
            return selftest()
        if not args.workload:
            parser.error("--workload is required")
        run(args)
        return 0
    except (BenchError, OSError, ValueError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
