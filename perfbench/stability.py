#!/usr/bin/env python3
"""Runs the benchmark repeatedly and reports how steady each metric is.

For every (workload, end-to-end metric) it prints the median, the
quartiles (as ``statistics.quantiles(values, n=4)`` gives them), the
min/max and the spread ``(q3 - q1) / median`` next to the metric's bound
from ``BENCHMARK.json``. With ``--sets 2`` it runs the whole matrix
twice and checks that the second median is not worse than the first by
more than the bound. With ``--trace N`` it also makes a traced run of the
first N seeds of each workload and checks that it reproduced the
untraced outputs, then prints the tracing overhead and the share of
traced time outside any span.

Run from the repository root:

    python3 perfbench/stability.py --seeds 1-10 --sets 2 --trace 3

Exit status 0 when every check held, 1 otherwise.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
    ]
    started = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    wall = time.time() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    outputs = next((l.split()[1] for l in lines if l.startswith("outputs:")), None)
    host = next((l[len("host: "):] for l in lines if l.startswith("host:")), None)
    steal = re.search(r"host steal ([0-9.]+)%", proc.stderr)
    return {"result": result, "outputs": outputs, "host": host, "wall_s": wall,
            "steal_pct": float(steal.group(1)) if steal else None}


def spread_row(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, min(values), max(values), (q3 - q1) / med if med else float("inf")


def worse_by(first, second, better):
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, metavar="N",
                    help="also make a traced run of the first N seeds")
    ap.add_argument("--out", help="write every raw result to this JSON file")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["end_to_end"]

    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(ROOT, spec["paths"][0], "Cargo.toml")]
    subprocess.run(build, check=True)

    ok = True
    raw = {"seconds": seconds, "sets": []}
    medians = []
    for set_no in range(args.sets):
        runs = {w: {s: run_once(spec, w, s, seconds, False) for s in seeds} for w in workloads}
        raw["sets"].append({w: {str(s): r for s, r in rs.items()} for w, rs in runs.items()})
        print(f"== set {set_no + 1}: {len(seeds)} seeds x {seconds}s")
        if set_no == 0:
            print("host:", next(iter(runs[workloads[0]].values()))["host"])
        set_medians = {}
        for w in workloads:
            results = [runs[w][s]["result"] for s in seeds]
            bad = [s for s, r in zip(seeds, results) if not r["correct"] or r["failed"]]
            if bad:
                ok = False
                print(f"{w}: output checks FAILED on seeds {bad}")
            attempted = sum(r["attempted"] for r in results)
            steal = [runs[w][s]["steal_pct"] for s in seeds if runs[w][s]["steal_pct"] is not None]
            steal_text = (f", host steal {statistics.median(steal):.1f}% median, "
                          f"{max(steal):.1f}% max" if steal else "")
            print(f"{w}: {attempted} operations, {sum(r['failed'] for r in results)} failed"
                  f"{steal_text}")
            print(f"  {'metric':18} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} "
                  f"{'max':>12} {'spread':>7} {'bound':>6}")
            for m in metrics:
                values = [r["metrics"][m["name"]]["value"] for r in results]
                med, q1, q3, lo, hi, spread = spread_row(values)
                set_medians[(w, m["name"])] = med
                flag = ""
                if m["name"] != "setup_s":
                    if spread > m["bound"]:
                        flag, ok = "  OVER BOUND", False
                    elif spread > m["bound"] / 3:
                        flag = "  over bound/3"
                print(f"  {m['name']:18} {med:12.6g} {q1:12.6g} {q3:12.6g} {lo:12.6g} "
                      f"{hi:12.6g} {spread:7.4f} {m['bound']:6.3f}{flag}")
        medians.append(set_medians)
        if set_no > 0:
            for w in workloads:
                for s in seeds:
                    a, b = raw["sets"][0][w][str(s)], raw["sets"][set_no][w][str(s)]
                    if a["outputs"] != b["outputs"]:
                        ok = False
                        print(f"{w} seed {s}: outputs differ between sets")
                    for name in ("acceptance_ratio", "mean_cost"):
                        va = a["result"]["metrics"][name]["value"]
                        vb = b["result"]["metrics"][name]["value"]
                        if va != vb:
                            ok = False
                            print(f"{w} seed {s}: {name} differs between sets: {va} vs {vb}")
            print(f"== set {set_no + 1} vs set 1 (worse-by as a share of the first median)")
            for w in workloads:
                for m in metrics:
                    key = (w, m["name"])
                    d = worse_by(medians[0][key], set_medians[key], m["better"])
                    flag = "  WORSE THAN BOUND" if d > m["bound"] else ""
                    ok &= not flag
                    print(f"  {w:18} {m['name']:18} {d:+8.4f} (bound {m['bound']}){flag}")

    if args.trace:
        print("== traced runs")
        raw["traced"] = {}
        for w in workloads:
            traced = {s: run_once(spec, w, s, seconds, True) for s in seeds[:args.trace]}
            raw["traced"][w] = {str(s): r for s, r in traced.items()}
            overhead, uncovered = [], []
            for s, t in traced.items():
                if t["outputs"] != raw["sets"][0][w][str(s)]["outputs"]:
                    ok = False
                    print(f"{w} seed {s}: traced outputs differ from the untraced run")
                if not t["result"]["correct"]:
                    ok = False
                    print(f"{w} seed {s}: traced run failed its checks")
                overhead.append(t["result"]["metrics"]["trace.overhead"]["value"])
                uncovered.append(t["result"]["metrics"]["trace.uncovered_share"]["value"])
            untraced = statistics.median(
                raw["sets"][0][w][str(s)]["result"]["metrics"]["throughput_rps"]["value"]
                for s in traced)
            print(f"{w}: traced vs untraced throughput: in-run overhead median "
                  f"{statistics.median(overhead):+.2%} (min {min(overhead):+.2%}, "
                  f"max {max(overhead):+.2%}); untraced median {untraced:.6g} req/s; "
                  f"outside any span: max {max(uncovered):.3%} of traced time")
            if max(uncovered) >= 0.1:
                ok = False

    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)
    print("all checks held" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
