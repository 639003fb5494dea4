#!/usr/bin/env python3
"""Runner for the LightNE pipeline benchmark (stdlib only).

Run from the root of the repository. Three ways to call it:

  run.py --workload W --seed N --seconds S --trace 0|1
      Builds the driver if needed, runs one workload in its own process and
      prints its metrics; the last line of output is the result as one JSON
      object {correct, attempted, failed, metrics}. This is the command
      BENCHMARK.json names.

  run.py run [--traced] [--seeds 1,2] [--out results.json]
      Runs every workload once per seed for BENCHMARK.json's run_seconds,
      each in its own process, prints every metric with its unit and writes
      one results file.

  run.py compare BASE.json NEW.json
      Compares two results files metric by metric against the bounds in
      BENCHMARK.json; exits 1 on a regression, 2 on a malformed input or
      on two files run with different settings.

The driver is built through the root CMakeLists.txt with hook.cmake as the
project include, so it inherits the root compile options. The build tree is
.bench_build/ and run outputs (stores, traces) go to .bench_out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(HERE, "..", "..", "BENCHMARK.json")
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
DRIVER = os.path.join(BUILD_DIR, "pipeline", "lightne_benchmark")
RUN_TIMEOUT_S = 170


def load_benchmark():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


def workers():
    return min(4, os.cpu_count() or 1)


def build():
    """Configures (once) and builds the driver; False if either step fails.

    Build output goes to stderr, so the last line of stdout stays the result.
    """
    try:
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", ".", "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release",
                 "-DCMAKE_PROJECT_INCLUDE=" +
                 os.path.join(HERE, "hook.cmake")],
                check=True, stdout=sys.stderr)
        subprocess.run(
            ["cmake", "--build", BUILD_DIR, "--target", "lightne_benchmark",
             "-j", str(workers())],
            check=True, stdout=sys.stderr)
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return False
    return True


def run_driver(workload, seed, seconds, traced):
    """Runs one workload in its own process; returns (result, wall seconds).

    The driver's own lines are echoed to stdout. The result is None when the
    driver crashed, timed out or printed no result line.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--scratch", OUT_DIR]
    if traced:
        cmd += ["--traced", "--trace-out",
                os.path.join(OUT_DIR, f"trace-{workload}-{seed}.json")]
    env = dict(os.environ, LIGHTNE_NUM_THREADS=str(workers()))
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: timed out after {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return None, time.monotonic() - start
    wall = time.monotonic() - start
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        print(f"{workload}: no result (exit {proc.returncode})",
              file=sys.stderr)
    return result, wall


def cmd_single(args):
    if not build():
        return 1
    result, _ = run_driver(args.workload, args.seed, args.seconds,
                           args.trace == 1)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
    except (subprocess.CalledProcessError, FileNotFoundError):
        return "unknown"


def llc_bytes():
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = 0
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, index, "size")) as f:
                size = f.read().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        best = max(best, int(size.rstrip("KMG")) * scale)
    return best


def cmd_run(args):
    bench = load_benchmark()
    if not build():
        return 1
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = bench["run_seconds"]
    out = {"sha": git_sha(), "hw_cores": os.cpu_count(), "workers": workers(),
           "llc_bytes": llc_bytes(), "seconds": seconds,
           "traced": args.traced, "seeds": seeds, "workloads": {}}
    failed = False
    set_start = time.monotonic()
    for w in bench["workloads"]:
        name = w["name"]
        runs = []
        for seed in seeds:
            result, wall = run_driver(name, seed, seconds, args.traced)
            if result is None or not result["correct"]:
                failed = True
            runs.append({"seed": seed, "wall_s": wall, "result": result})
        out["workloads"][name] = {
            "wall_s": sum(r["wall_s"] for r in runs), "runs": runs}
    out["wall_s"] = time.monotonic() - set_start

    print(f"\n{'workload':<16} {'metric':<34} {'median':>14}  unit")
    for name, entry in out["workloads"].items():
        values = collect(entry)
        for metric, (unit, vals) in values.items():
            print(f"{name:<16} {metric:<34} {statistics.median(vals):>14.6g}"
                  f"  {unit}")
        print(f"{name:<16} {'(wall)':<34} {entry['wall_s']:>14.1f}  s")
    print(f"whole set: {out['wall_s']:.1f} s")
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
    print(f"wrote {args.out}")
    return 1 if failed else 0


def collect(entry):
    """{metric: (unit, [value per run])} over a workload's runs."""
    values = {}
    for run in entry["runs"]:
        result = run["result"] or {"metrics": {}}
        for metric, m in result["metrics"].items():
            values.setdefault(metric, (m["unit"], []))[1].append(m["value"])
    return values


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare_sets(bench, base, new):
    """Verdict rows for every (workload, end-to-end metric) pair.

    Each row is (workload, metric, base median, new median, worse, spread,
    bound, verdict); `worse` and `spread` are shares of the base median and
    verdict is one of same / better / regression / unresolved. Raises
    ValueError when a workload or metric is missing from either side, or
    when the two sets ran with different settings.
    """
    for key in ("seconds", "workers", "traced"):
        if base[key] != new[key]:
            raise ValueError(f"{key} differs: {base[key]} vs {new[key]}")
    rows = []
    for w in bench["workloads"]:
        name = w["name"]
        if name not in base["workloads"] or name not in new["workloads"]:
            raise ValueError(f"workload {name} missing from a results file")
        base_runs = base["workloads"][name]["runs"]
        new_runs = new["workloads"][name]["runs"]
        base_vals = collect(base["workloads"][name])
        new_vals = collect(new["workloads"][name])
        for m in bench["end_to_end"]:
            metric = m["name"]
            if metric not in base_vals or metric not in new_vals:
                raise ValueError(f"{name}: metric {metric} missing")
            a, b = base_vals[metric][1], new_vals[metric][1]
            if len(a) != len(base_runs) or len(b) != len(new_runs):
                raise ValueError(f"{name}: metric {metric} missing from a run")
            sign = 1.0 if m["better"] == "lower" else -1.0
            qa1, ma, qa3 = quartiles(a)
            qb1, mb, qb3 = quartiles(b)
            scale = abs(ma) or 1.0
            worse = sign * (mb - ma) / scale
            spread = max((qa3 - qa1) / scale, (qb3 - qb1) / (abs(mb) or 1.0))
            all_better = all(sign * (y - x) < 0 for x in a for y in b)
            all_worse = all(sign * (y - x) > 0 for x in a for y in b)
            if worse > m["bound"] and (spread <= m["bound"] or all_worse):
                verdict = "regression"
            elif spread > m["bound"] and not all_better:
                verdict = "unresolved"
            elif all_better and -worse > spread:
                verdict = "better"
            else:
                verdict = "same"
            rows.append((name, metric, ma, mb, worse, spread, m["bound"],
                         verdict))
        failures = sum((r["result"] or {"failed": 1})["failed"]
                       for r in new_runs)
        if failures:
            rows.append((name, "failed", 0, failures, 1.0, 0.0, 0.0,
                         "regression"))
    return rows


def cmd_compare(args):
    bench = load_benchmark()
    try:
        with open(args.base) as f:
            base = json.load(f)
        with open(args.new) as f:
            new = json.load(f)
        rows = compare_sets(bench, base, new)
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"compare: {e}", file=sys.stderr)
        return 2
    print(f"{'workload':<16} {'metric':<14} {'base':>11} {'new':>11} "
          f"{'worse':>8} {'spread':>8} {'bound':>6}  verdict")
    for name, metric, ma, mb, worse, spread, bound, verdict in rows:
        print(f"{name:<16} {metric:<14} {ma:>11.5g} {mb:>11.5g} "
              f"{worse:>+8.2%} {spread:>8.2%} {bound:>6.2%}  {verdict}")
    return 1 if any(r[-1] == "regression" for r in rows) else 0


def main(argv):
    if argv and argv[0] in ("run", "compare"):
        parser = argparse.ArgumentParser(prog="run.py " + argv[0])
        if argv[0] == "run":
            parser.add_argument("--traced", action="store_true")
            parser.add_argument("--seeds", default="1")
            parser.add_argument("--out", default=os.path.join(
                OUT_DIR, "results.json"))
            return cmd_run(parser.parse_args(argv[1:]))
        parser.add_argument("base")
        parser.add_argument("new")
        return cmd_compare(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return cmd_single(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
