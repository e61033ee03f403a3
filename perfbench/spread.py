#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, used to set and justify its bounds.

Runs each workload repeatedly with a different seed per run, exactly as
BENCHMARK.json's command runs it, and prints for every metric its median,
first and third quartiles and interquartile spread as a share of the
median, next to the metric's bound. Run it from the repository root:

    python3 perfbench/spread.py --runs 10
    python3 perfbench/spread.py --workloads serve --runs 5 --save a.json
    python3 perfbench/spread.py --compare a.json b.json

A spread above the metric's bound (setup_s excepted) or any failed run
makes the exit code non-zero; a spread above a third of the bound is
flagged. --compare checks that the second set's medians are not worse
than the first set's by more than each bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed operations")
    # The host's steal share during the run: a run slowed by other guests
    # on the same machine shows it here.
    steal = json.loads(lines[0])["record"].get("steal_share") if len(lines) > 1 else None
    if steal is not None:
        sys.stderr.write(f"{workload} seed {seed}: steal {steal:.3f}\n")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def report(spec, runs):
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    for workload, rows in runs.items():
        print(f"\n{workload}: {len(rows)} runs")
        print(f"{'metric':<34}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}")
        for name in rows[0]:
            med, q1, q3, spread = summarize([r[name] for r in rows])
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                if spread > bound and name != "setup_s":
                    flag, ok = "  OVER BOUND", False
                elif spread > bound / 3:
                    flag = "  above bound/3"
            b = f"{bound:.2f}" if bound is not None else "-"
            print(f"{name:<34}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.3f}{b:>7}{flag}")
    return ok


def compare(spec, first, second):
    ok = True
    for m in spec["end_to_end"]:
        for workload in first:
            a = statistics.median(r[m["name"]] for r in first[workload])
            b = statistics.median(r[m["name"]] for r in second[workload])
            worse = (a - b) / a if m["better"] == "higher" else (b - a) / a
            flag = "  WORSE THAN BOUND" if worse > m["bound"] else ""
            ok &= not flag
            print(f"{workload:<8}{m['name']:<18}{a:>14.6g}{b:>14.6g}{worse:>+9.3f}{m['bound']:>7.2f}{flag}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1, help="seed of the first run")
    ap.add_argument("--seconds", type=int, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--save", help="write the raw per-run metrics to this JSON file")
    ap.add_argument("--compare", nargs=2, metavar="RUNS.json")
    args = ap.parse_args()
    spec = load_spec()

    if args.compare:
        first, second = (json.load(open(p)) for p in args.compare)
        sys.exit(0 if compare(spec, first, second) else 1)

    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    runs = {}
    for w in names:
        runs[w] = []
        for i in range(args.runs):
            runs[w].append(run_once(spec, w, args.seed0 + i, seconds, args.trace))
            print(f"{w} seed {args.seed0 + i}: done", file=sys.stderr)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(runs, f, indent=1)
    sys.exit(0 if report(spec, runs) else 1)


if __name__ == "__main__":
    main()
