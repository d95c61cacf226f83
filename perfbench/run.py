#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench).

Usage, from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The first call configures and builds perfbench/ (which compiles the
library from src/) into .bench_build/perfbench; later calls rebuild
incrementally.  Build output goes to stderr.  The benchmark's own output
goes to stdout; its last line is the JSON result.  Each workload runs in
a process of its own; --workload all runs every workload BENCHMARK.json
names in turn.  --smoke runs every workload once at tiny size, traced and
untraced, and checks that every metric BENCHMARK.json names is printed
with its unit and that no operation failed its audit.  See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
SMOKE_TIMEOUT_S = 120

# Printed (not in the JSON result) by every scenario workload, and by
# replay_parallel: the simulated-time, wire and block-latency metrics.
SCENARIO_EXTRA = {
    "failed_op_share": "ratio", "commit_p50_ticks": "ticks",
    "commit_p99_ticks": "ticks", "commits_per_ktick": "1/ktick",
    "slots_per_kop": "1/kop", "msgs_per_op": "msgs/op", "bytes_per_op": "B/op",
    "log_entries_per_op": "entries/op",
}
REPLAY_EXTRA = {
    "failed_op_share": "ratio", "block_us_p50": "us", "block_us_p99": "us",
}
TRACE_EXTRA = {
    "failed_op_share": "ratio", "ops_per_s_untraced": "1/s",
    "ops_per_s_traced": "1/s",
}


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_id():
    """The commit when the root is a git checkout, plus a hash of the
    sources the benchmark compiles."""
    commit = "none"
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode == 0 and os.path.samefile(top.stdout.strip(), ROOT):
            head = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if head.returncode == 0:
                commit = head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for sub in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, sub))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "commit:%s,tree:%s" % (commit, h.hexdigest()[:12])


def run_quiet(cmd, timeout):
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail("failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sched", "scenario.h")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    cache = os.path.join(BUILD, "CMakeCache.txt")
    configured = False
    if os.path.isfile(cache):
        with open(cache) as fh:
            configured = ("CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE) in fh.read()
    if not configured:
        os.makedirs(BUILD, exist_ok=True)
        if os.path.isfile(cache):
            os.remove(cache)
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"],
              BUILD_TIMEOUT_S)


def run_binary(args, timeout):
    cmd = [BINARY] + args + ["--trace-dir", BUILD, "--source", source_id()]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % timeout)
    return r.returncode, r.stdout


def load_spec():
    if not os.path.isfile(SPEC):
        return None
    with open(SPEC) as fh:
        return json.load(fh)


def expected_metrics(spec, trace):
    if spec is None:
        return None
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, expected):
    """Returns the problems with one JSON result line."""
    try:
        res = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(res))
        return problems
    if expected is not None:
        got = {k: v.get("unit") for k, v in res["metrics"].items()}
        if got != expected:
            problems.append("metrics %s differ from BENCHMARK.json %s" % (got, expected))
    return problems


def printed_metrics(output):
    """{workload: {name: (value, unit)}} from the 'perfbench metric' lines."""
    out = {}
    for line in output.splitlines():
        parts = line.split()
        if len(parts) == 6 and parts[:2] == ["perfbench", "metric"]:
            out.setdefault(parts[2], {})[parts[3]] = (float(parts[4]), parts[5])
    return out


def workload_names(spec):
    if spec is None:
        fail("BENCHMARK.json not found at the repository root")
    return [w["name"] for w in spec["workloads"]]


def smoke():
    spec = load_spec()
    problems = []
    names = workload_names(spec)
    for trace in (False, True):
        for w in names:
            code, out = run_binary(["--workload", w, "--seed", "1", "--seconds", "1",
                                    "--trace", "1" if trace else "0", "--smoke"],
                                   SMOKE_TIMEOUT_S)
            sys.stdout.write(out)
            if code != 0:
                problems.append("%s trace=%d: exit code %d" % (w, trace, code))
            results = [l for l in out.splitlines() if l.startswith("{")]
            if len(results) != 1:
                problems.append("%s trace=%d: %d results" % (w, trace, len(results)))
            for line in results:
                problems += check_result(line, expected_metrics(spec, trace))
            want = dict(expected_metrics(spec, trace))
            if trace:
                want.update(TRACE_EXTRA)
            else:
                want.update(REPLAY_EXTRA if w == "replay_parallel" else SCENARIO_EXTRA)
            got = printed_metrics(out).get(w, {})
            for name, unit in want.items():
                if name not in got:
                    problems.append("%s trace=%d: %s not printed" % (w, trace, name))
                elif got[name][1] != unit:
                    problems.append("%s trace=%d: %s printed in %s, not %s"
                                    % (w, trace, name, got[name][1], unit))
            share = got.get("failed_op_share", (None,))[0]
            if share != 0:
                problems.append("%s trace=%d: failed_op_share is %s" % (w, trace, share))
    if problems:
        for p in problems:
            print("smoke FAILED: " + p, file=sys.stderr)
        return 1
    print("smoke OK: %d workloads, untraced and traced" % len(names))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args()
    if not a.smoke and not a.workload:
        ap.error("--workload is required (or --smoke)")
    build()
    if a.smoke:
        return smoke()
    spec = load_spec()
    names = workload_names(spec) if a.workload == "all" else [a.workload]
    worst = 0
    for w in names:
        code, out = run_binary(["--workload", w, "--seed", str(a.seed),
                                "--seconds", repr(a.seconds), "--trace", a.trace],
                               RUN_TIMEOUT_S)
        lines = out.splitlines()
        problems = []
        if not lines or not lines[-1].startswith("{"):
            problems.append("no JSON result line")
        else:
            problems = check_result(lines[-1], expected_metrics(spec, a.trace == "1"))
        if problems:
            # Keep the malformed result off stdout so it is never taken for one.
            sys.stderr.write(out)
            for p in problems:
                print("perfbench: %s: %s" % (w, p), file=sys.stderr)
            return 2
        sys.stdout.write(out)
        sys.stdout.flush()
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
