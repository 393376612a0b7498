#!/usr/bin/env python3
"""Measures how steady the end-to-end metrics are across seeds.

    python3 perfbench/spread.py [--workloads A,B] [--seeds 1-10]
                                [--seconds N] [--out FILE] [--compare FILE]

Runs perfbench/run.py once per workload and seed (--trace 0), then prints
for every end-to-end metric its median and its spread: the distance
between the first and third quartile (statistics.quantiles(n=4)) as a
share of the median. A spread below a third of the metric's bound in
BENCHMARK.json is "steady"; below the bound it is "wide"; otherwise
"FAIL" (setup_s is exempt from the spread rule). --out saves the raw
values; --compare FILE checks that no metric's median got worse than the
saved one by more than its bound (setup_s included). Exits 1 on any FAIL.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n"
                           f"{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result")
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse_by(old, new, better):
    """Share by which `new` is worse than `old` (<= 0 when not worse)."""
    if old == 0:
        return 0.0
    return (new - old) / old if better == "lower" else (old - new) / old


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out")
    ap.add_argument("--compare")
    args = ap.parse_args()

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    values = {}
    for wl in args.workloads.split(","):
        values[wl] = {name: [] for name in metrics}
        for seed in seeds:
            got = run_once(wl, seed, args.seconds)
            for name in metrics:
                values[wl][name].append(got[name])
            print(f"  {wl} seed {seed}: " + " ".join(
                f"{n}={got[n]:.4g}" for n in metrics), file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(values, indent=1))
    old = json.loads(Path(args.compare).read_text()) if args.compare else {}

    ok = True
    print(f"{'workload':<20} {'metric':<24} {'median':>12} {'spread':>8} "
          f"{'bound':>6}  verdict")
    for wl, per_metric in values.items():
        for name, vals in per_metric.items():
            m = metrics[name]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
            spread = (q[2] - q[0]) / med if med else float("inf")
            if name == "setup_s":
                verdict = "exempt"
            elif spread < m["bound"] / 3:
                verdict = "steady"
            elif spread <= m["bound"]:
                verdict = "wide"
            else:
                verdict = "FAIL"
                ok = False
            if wl in old and name in old[wl]:
                drift = worse_by(statistics.median(old[wl][name]), med,
                                 m["better"])
                verdict += f" drift={drift:+.3f}"
                if drift > m["bound"]:
                    verdict += " FAIL"
                    ok = False
            print(f"{wl:<20} {name:<24} {med:>12.5g} {spread:>8.4f} "
                  f"{m['bound']:>6}  {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
