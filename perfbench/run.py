#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

One run (the benchmark contract; the last stdout line is the result JSON):

    python3 perfbench/run.py --workload guest_warm --seed 1 --seconds 10 --trace 0

Steadiness report (runs N seeds per workload, K sets, and prints the median,
quartiles, min/max and quartile spread of every metric, plus how far apart
the sets' medians are):

    python3 perfbench/run.py --repeat 10 --sets 2 [--workloads a,b] \
        [--seed 1] [--seed-stride 0] [--seconds 10] [--trace 0]

The program is built from ../src into $CARGO_TARGET_DIR (default
.bench_build at the checkout root) with CMake. Scratch files live in a
per-run directory inside the build directory and are removed afterwards;
a traced run leaves its spans in <build dir>/spans-<workload>-seed<n>.jsonl.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["guest_warm", "native_cold", "fleet_open"]
# A run must finish within 180 s; this leaves room for the build check.
RUN_LIMIT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    bdir = build_dir()
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no src/ next to perfbench/: nothing to build")
        return None
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("perfbench: cmake configure failed")
            return None
    cmd = ["cmake", "--build", bdir, "--target", "perfbench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("perfbench: build failed")
        return None
    return os.path.join(bdir, "perfbench")


def source_id():
    """Git commit when available, plus a hash of the measured sources."""
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "%s src-sha256:%s" % (commit, h.hexdigest()[:16])


def run_once(binary, workload, seed, seconds, trace, commit, budget_s):
    """Runs the program once; returns (exit code, stdout lines)."""
    work = os.path.join(build_dir(), "work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", work, "--commit", commit]
    # Own process group, so a run that overstays is stopped together with
    # the host compilers it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=budget_s)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %.0f s" % budget_s)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        out, code = "", 124
    finally:
        spans = os.path.join(work, "spans.jsonl")
        if os.path.isfile(spans):
            shutil.move(spans, os.path.join(
                build_dir(), "spans-%s-seed%d.jsonl" % (workload, seed)))
        shutil.rmtree(work, ignore_errors=True)
    return code, out.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(res, dict) or set(res) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    return res


def check_declared(result, trace):
    """The result's metrics must be exactly those BENCHMARK.json declares."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return True
    with open(spec_path) as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        log("perfbench: metrics differ from BENCHMARK.json: %s" %
            sorted(set(got.items()) ^ set(declared.items())))
        return False
    return True


def single(args):
    binary = build()
    if binary is None:
        return 1
    code, lines = run_once(binary, args.workload, args.seed, args.seconds,
                           args.trace, source_id(), RUN_LIMIT_S)
    result = parse_result(lines)
    for line in lines[:-1] if result else lines:
        print(line)
    if code != 0 or result is None or not check_declared(result, args.trace):
        log("perfbench: run failed (exit %d); no result" % code)
        return code or 1
    print(json.dumps(result), flush=True)
    return 0


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def repeat(args):
    binary = build()
    if binary is None:
        return 1
    bounds = {}
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec_path):
        with open(spec_path) as f:
            for m in json.load(f).get("end_to_end", []):
                bounds[m["name"]] = m["bound"]
    commit = source_id()
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    # values[workload][metric][set] = [value per run]
    values = {w: {} for w in workloads}
    failures = 0
    for s in range(args.sets):
        for w in workloads:
            for i in range(args.repeat):
                seed = args.seed + s * args.seed_stride + i
                t0 = time.monotonic()
                code, lines = run_once(binary, w, seed, args.seconds,
                                       args.trace, commit, RUN_LIMIT_S)
                res = parse_result(lines)
                if code != 0 or res is None or not res["correct"]:
                    log("set %d %s seed %d: FAILED (exit %d)" %
                        (s, w, seed, code))
                    failures += 1
                    continue
                for name, m in res["metrics"].items():
                    per_set = values[w].setdefault(name, [[] for _ in
                                                          range(args.sets)])
                    per_set[s].append(m["value"])
                log("set %d %s seed %d: %.0f s, %s" % (
                    s, w, seed, time.monotonic() - t0,
                    ", ".join("%s=%.4g" % (k, v["value"])
                              for k, v in res["metrics"].items())))
    report = {}
    print("%-12s %-26s %11s %11s %11s %11s %11s %8s %7s %9s" % (
        "workload", "metric", "median", "q1", "q3", "min", "max", "spread",
        "bound", "set-diff"))
    for w in workloads:
        for name, per_set in values[w].items():
            everything = [v for vs in per_set for v in vs]
            if len(everything) < 2:
                continue
            q1, med, q3, spr = spread(everything)
            medians = [statistics.median(vs) for vs in per_set if vs]
            diff = (max(medians) - min(medians)) / min(medians) \
                if len(medians) > 1 and min(medians) > 0 else 0.0
            set_spreads = [spread(vs)[3] for vs in per_set if len(vs) > 1]
            report.setdefault(w, {})[name] = {
                "median": med, "q1": q1, "q3": q3, "min": min(everything),
                "max": max(everything), "spread": spr,
                "set_medians": medians, "set_spreads": set_spreads,
                "set_median_diff": diff, "bound": bounds.get(name)}
            b = bounds.get(name)
            print("%-12s %-26s %11.5g %11.5g %11.5g %11.5g %11.5g %7.2f%% "
                  "%7s %8.2f%%" % (
                      w, name, med, q1, q3, min(everything), max(everything),
                      100 * spr, "-" if b is None else "%.0f%%" % (100 * b),
                      100 * diff))
    print(json.dumps({"failures": failures, "report": report}))
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="steadiness report: runs per workload per set")
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--seed-stride", type=int, default=0,
                   help="seed offset between sets (0: same seeds)")
    p.add_argument("--workloads", default="",
                   help="comma-separated subset for --repeat")
    args = p.parse_args()
    if args.repeat:
        return repeat(args)
    if not args.workload:
        p.error("--workload is required")
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
