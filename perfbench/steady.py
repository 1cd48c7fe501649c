#!/usr/bin/env python3
"""Steadiness check and result comparison for the end-to-end benchmark.

Run each workload repeatedly, each time with another seed, and report every
end-to-end metric's spread (interquartile range over median) against its
bound in BENCHMARK.json:

    python3 perfbench/steady.py [--workloads serve,whatif,train] \
        [--runs 10] [--first-seed 1] [--save set.json]

The runs go seed by seed, each seed through every workload, so that a slow
spell of the host spreads over all workloads instead of falling on one.
A metric whose spread exceeds its bound is flagged OVER; one above a third
of its bound is flagged WIDE. setup_s is flagged like the rest, although
only its median is gated between two sets.

Compare two saved sets (for example the parent commit's and a change's):

    python3 perfbench/steady.py --compare base.json new.json [--same-code]

The comparison of a workload is refused when the two sets' machine
fingerprints for it differ in anything but the commit. A metric whose median
got worse by more than its bound is flagged REGRESSED. With --same-code the
two sets are taken to measure the same program, so a gap in either
direction counts: a metric whose medians lie further apart than its bound,
as a share of the smaller one, is flagged DISAGREE. The exit status is
non-zero when any metric is OVER, REGRESSED or DISAGREE, or a run failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        return None, None
    fingerprint = None
    for line in lines:
        if line.startswith("fingerprint: "):
            fingerprint = json.loads(line[len("fingerprint: "):])
    return json.loads(lines[-1]), fingerprint


def machine(fingerprint):
    return {k: v for k, v in fingerprint.items() if k != "commit"}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def measure(args, spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    saved = {"commit": None, "workloads": {}}
    values = {w: {name: [] for name in bounds} for w in workloads}
    seen = {w: None for w in workloads}
    failed_runs = {w: 0 for w in workloads}
    # Seed-major order: each workload's runs spread over the whole set, so
    # a slow spell of the host does not fall on one workload alone.
    for i in range(args.runs):
        seed = args.first_seed + i
        for workload in workloads:
            result, fingerprint = run_once(workload, seed, spec["run_seconds"])
            if result is None or not result["correct"] or result["failed"]:
                failed_runs[workload] += 1
                print(f"{workload} seed {seed}: run failed or incorrect",
                      file=sys.stderr)
                continue
            if seen[workload] is None:
                seen[workload] = machine(fingerprint)
            elif machine(fingerprint) != seen[workload]:
                sys.exit("fingerprint changed between runs: "
                         f"{machine(fingerprint)} vs {seen[workload]}")
            saved["commit"] = fingerprint.get("commit")
            for name in bounds:
                values[workload][name].append(
                    result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={v[-1]:.6g}" for n, v in values[workload].items()),
                file=sys.stderr)
    ok = True
    for workload in workloads:
        ok = ok and failed_runs[workload] == 0
        saved["workloads"][workload] = {"fingerprint": seen[workload],
                                        "values": values[workload]}
        print(f"\n{workload}: {args.runs - failed_runs[workload]}/{args.runs}"
              " runs ok")
        print(f"  {'metric':<18} {'median':>12} {'spread':>8} {'bound':>7}")
        for name, vals in values[workload].items():
            if len(vals) < 2:
                ok = False
                continue
            med, sp = spread(vals)
            bound = bounds[name]["bound"]
            flag = "OVER" if sp > bound else "WIDE" if sp > bound / 3 else ""
            ok = ok and flag != "OVER"
            print(f"  {name:<18} {med:>12.6g} {sp:>8.3f} {bound:>7.3f} {flag}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    return ok


def compare(base_path, new_path, spec, same_code):
    with open(base_path) as f:
        base = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    ok = True
    for workload, entry in new["workloads"].items():
        if workload not in base["workloads"]:
            continue
        before = base["workloads"][workload]
        if before["fingerprint"] != entry["fingerprint"]:
            sys.exit(f"refusing to compare {workload}: fingerprints differ\n"
                     f"  {before['fingerprint']}\n  {entry['fingerprint']}")
        metrics = entry["values"]
        print(f"\n{workload}")
        print(f"  {'metric':<18} {'base':>12} {'new':>12} {'worse by':>9} "
              f"{'apart':>7} {'bound':>7}")
        for m in spec["end_to_end"]:
            a = before["values"].get(m["name"], [])
            b = metrics.get(m["name"], [])
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            apart = abs(mb - ma) / min(ma, mb)
            flag = ("DISAGREE" if same_code and apart > m["bound"] else
                    "REGRESSED" if worse > m["bound"] else "")
            ok = ok and not flag
            print(f"  {m['name']:<18} {ma:>12.6g} {mb:>12.6g} {worse:>9.3f} "
                  f"{apart:>7.3f} {m['bound']:>7.3f} {flag}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma-separated; default all")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", help="write the measured values here")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--same-code", action="store_true",
                        help="with --compare: flag gaps in either direction")
    args = parser.parse_args()
    spec = load_spec()
    ok = (compare(*args.compare, spec, args.same_code) if args.compare
          else measure(args, spec))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
