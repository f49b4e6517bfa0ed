#!/usr/bin/env python3
"""Build and run the serving benchmark.

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 servebench/run.py --selftest

Run from the root of a source checkout. The first call configures and
builds the engine and the benchmark driver (Release) into
$CARGO_TARGET_DIR/servebench, or .bench_build/servebench when that is
unset; later calls only rebuild what changed. The driver's last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics, and this script prints it as its own last line.

--selftest runs every workload on a small seed with tracing off and on,
and checks that its output oracle passes and that it reports exactly
the metrics BENCHMARK.json names, each with its unit.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["edge_fanin", "join_shards", "speedmap_feedback"]
RUN_TIMEOUT_S = 170


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(root, "servebench"))


def build():
    """Configure (once) and build; returns the driver's path or None."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "serve_bench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out, "serve_bench")


def run_driver(binary, workload, seed, seconds, trace):
    """Run one benchmark run; returns the parsed result or None."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-%s.jsonl" % (workload, seed))]
    # Its own process group, so a run that overstays takes the pass
    # processes it forked down with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("%s timed out after %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("%s exited with %d" % (workload, proc.returncode),
              file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("%s printed no result line" % workload, file=sys.stderr)
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("%s printed a malformed result" % workload, file=sys.stderr)
        return None
    return result


def selftest(binary):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if [w["name"] for w in spec["workloads"]] != WORKLOADS:
        print("selftest: BENCHMARK.json workloads differ from %s" % WORKLOADS,
              file=sys.stderr)
        return 1
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            tag = "%s --trace %d" % (workload, trace)
            found = []
            r = run_driver(binary, workload, seed=1, seconds=2, trace=trace)
            if r is None:
                found.append("no result")
            else:
                if not r["correct"] or r["failed"] or r["attempted"] < 1:
                    found.append("oracle failed (%d of %d)" %
                                 (r["failed"], r["attempted"]))
                got = {k: v["unit"] for k, v in r["metrics"].items()}
                want = expected[trace]
                if got != want:
                    found.append(
                        "metrics differ (missing %s, extra %s, wrong unit %s)"
                        % (sorted(set(want) - set(got)),
                           sorted(set(got) - set(want)),
                           sorted(k for k in got
                                  if k in want and got[k] != want[k])))
            print("selftest: %s %s" % (tag, "; ".join(found) or "ok"),
                  file=sys.stderr)
            problems += [tag + ": " + f for f in found]
    for p in problems:
        print("selftest FAILED: " + p, file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    if args.selftest:
        return selftest(binary)
    result = run_driver(binary, args.workload, args.seed, args.seconds,
                        args.trace)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
