#!/usr/bin/env python3
"""Steadiness report: run each workload on several seeds and compare every
end-to-end metric's spread with its bound in BENCHMARK.json.

Run from the root of a checkout:

    python3 perfbench/steadiness.py --runs 10 [--workloads paper_stream,point_hot]
    python3 perfbench/steadiness.py --exact            # exact-count repeat check

For each workload and metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the spread (q3 - q1) / median
and the metric's bound. A bound is derived from the measured spread as
three times the spread, rounded up to the next 0.05 and capped at 0.25, and
is printed beside the one in BENCHMARK.json. The verdict is "steady" when the
spread is within a third of the bound, "noisy" when it is within the bound,
and "FAILS" when it exceeds it: such a metric cannot hold a bound. set-up
time is exempt from the spread check. --save writes the raw values as JSON,
and --compare reads such a file and checks that each median of this run is
not worse than the saved one by more than the bound.

--exact runs the traced mode twice per workload on one seed and checks that
every count metric repeats exactly.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CAP = 0.25


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, trace):
    command = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError(f"{workload} seed {seed}: incorrect or failed statements: {result}")
    return result["metrics"]


def derived_bound(spread):
    return min(CAP, math.ceil(round(spread * 3 / 0.05, 9)) * 0.05)


def verdict(name, spread, bound):
    if name == "setup_s":
        return "exempt"
    if spread * 3 <= bound:
        return "steady"
    return "noisy" if spread <= bound else "FAILS"


def worse_by(metric, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def report(spec, values, saved):
    ok = True
    for workload, by_metric in values.items():
        print(f"\n{workload}")
        print(f"  {'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}"
              f"{'bound':>7}{'derived':>9}{'verdict':>9}{'shift':>8}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            xs = by_metric[name]
            q1, median, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = metric["bound"]
            shift = ""
            if saved is not None:
                first = statistics.median(saved[workload][name])
                worse = worse_by(metric, first, median)
                shift = f"{worse:+.3f}"
                ok = ok and worse <= bound
            if name != "setup_s":
                ok = ok and spread <= bound
            print(f"  {name:<16}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.3f}"
                  f"{bound:>7.2f}{derived_bound(spread):>9.2f}"
                  f"{verdict(name, spread, bound):>9}{shift:>8}")
    return ok


def exact_check(spec, workloads, seed):
    ok = True
    count_names = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    for workload in workloads:
        a = run_once(spec, workload, seed, 1)
        b = run_once(spec, workload, seed, 1)
        for name in count_names:
            same = a[name]["value"] == b[name]["value"]
            ok = ok and same
            print(f"{workload:<14}{name:<28}{a[name]['value']:>12g}{b[name]['value']:>12g}"
                  f"  {'exact' if same else 'DIFFERS'}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--save", default="")
    parser.add_argument("--compare", default="")
    parser.add_argument("--exact", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    if args.exact:
        return 0 if exact_check(spec, workloads, args.seed_base) else 1

    values = {}
    for workload in workloads:
        values[workload] = {m["name"]: [] for m in spec["end_to_end"]}
        for i in range(args.runs):
            metrics = run_once(spec, workload, args.seed_base + i, 0)
            for name, series in values[workload].items():
                series.append(metrics[name]["value"])
            print(f"{workload} seed {args.seed_base + i}: " +
                  " ".join(f"{k}={v['value']:.5g}" for k, v in metrics.items()),
                  file=sys.stderr, flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    saved = None
    if args.compare:
        with open(args.compare) as f:
            saved = json.load(f)
    ok = report(spec, values, saved)
    print("\nall spreads within bounds" + (" and medians within bounds of the saved set"
                                           if saved else "") if ok else "\nNOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
