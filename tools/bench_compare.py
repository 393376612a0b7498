#!/usr/bin/env python3
"""Bench regression gate for the BENCH_*.json trajectory.

Compares the ratio metrics of a fresh bench run against the committed
baselines in bench/baselines/ and fails (exit 1) when any metric
regressed more than --tolerance (default 15%) below its baseline, or
when an acceptance-floor metric (wide-bus fixed-scheme speedups) drops
under its hard floor.

Only machine-relative RATIOS are gated — engine-vs-scalar speedups and
replay-vs-memory ratios — never absolute bursts/sec, so the gate is
stable across differently sized CI machines. The absolute numbers still
land in the trend artifact for human trajectory tracking.

Usage:
  python3 tools/bench_compare.py \
      --baseline-dir bench/baselines --current-dir . \
      [--tolerance 0.15] [--trend bench_trend.csv]

Most metrics are floors (higher is better). Metrics listed by
is_ceiling() are CEILINGS (lower is better, e.g. served tail-latency
amplification): for those the relative check inverts and ceiling_for()
supplies a hard cap instead of a floor.

Re-baselining after an intentional perf change:
  ./build/bench_engine_throughput 8192 8 4 > bench/baselines/bench_engine_throughput.json
  ./build/bench_trace_replay 131072 8 4 > bench/baselines/bench_trace_replay.json
  ./build/bench_serve > bench/baselines/bench_serve.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys

FILES = ("bench_engine_throughput.json", "bench_trace_replay.json",
         "bench_serve.json")

# Acceptance floors (independent of the baseline): the wide multi-group
# kernels must stay >= 4x over the per-group scalar loop for the fixed
# schemes at the x32 and x64 geometries, the decode kernels >= 4x over
# the scalar EncodedBurst receive path at x8 and x64, and the
# dbi::Session facade may cost at most 2% throughput over the direct
# engine entry points.
FLOOR_SCHEMES = ("DBI DC", "DBI AC", "DBI ACDC")
FLOOR_WIDTHS = (32, 64)
FLOOR_SPEEDUP = 4.0
DECODE_FLOOR_GEOMETRIES = ("x8", "wide_x64")
DECODE_FLOOR = 4.0
FACADE_FLOOR = 0.98
# Kernel-variant floors, vs the portable "swar" reference in the same
# process: the SIMD fixed-scheme encode kernels must earn their keep
# (>= 1.5x), and no variant the registry would auto-select may be
# slower than the portable reference on any path it serves (>= 1x).
# Variants whose ISA the bench machine lacks are reported as
# skipped-isa, never failed.
KERNEL_ENCODE_FLOOR = 1.5
KERNEL_FLOOR = 1.0
KERNEL_PATHS = ("encode_x8", "encode_wide_x64", "decode_x8",
                "decode_wide_x64")
# Paths newer than some committed baselines: read only from rows that
# carry them and gated only against a baseline that has them, with no
# hard floor (variants without a trellis run the portable one, ~1.0x;
# the CRC-32 fold needs PCLMULQDQ on top of the variant's ISA).
KERNEL_OPTIONAL_PATHS = ("encode_opt_wide_x64", "crc32")
# Observability: a kFull-instrumented replay (counters + stage spans at
# the default strides: per-chunk stages exact, per-unit stages sampled)
# may cost at most 2% throughput over the uninstrumented run.
OBS_FLOOR = 0.98
# Adaptive mixed-block selection, vs the fixed-scheme throughput floor
# (the slowest single-scheme row in the "select" section): exact mode
# encodes every candidate per block, so its budget is 1/len(candidates)
# of the floor (the candidate count is the cN suffix of the label);
# predicted mode encodes one candidate on non-probe blocks and must
# stay within 0.8x. Exact mode keeps the per-block minimum, so its
# energy-saved ratio vs the best fixed candidate can never sit below
# 1.0 (0.999 allows float rounding in the report).
SELECT_PREDICTED_FLOOR = 0.8
SELECT_EXACT_ENERGY_FLOOR = 0.999
# Trace-lake replay: streaming every member of a three-file catalog
# through replay_lake must recover at least 0.9x of the summed
# per-file replay throughput, both without a pool (the catalog walk,
# per-member session setup and the deterministic merge may cost at
# most 10%). The pool-vs-serial ratio (replay_lake on the bench's pool
# against no pool) is read only from runs that carry it and has no
# hard floor.
LAKE_REPLAY_FLOOR = 0.9
# Serving daemon: aggregate served throughput at 8 pipelined tenants
# must reach 0.7x the single-stream engine pass (protocol, scheduling
# and per-tenant state may cost at most 30%).
SERVE_FLOOR = 0.7
# Tail-latency amplification at 8 tenants is a CEILING metric — lower
# is better — with a generous hard cap as the genuine-pathology
# tripwire (DRR keeps per-request waits to one round of quanta, so a
# blow-up here means fairness broke, not that the machine is slow).
SERVE_P99_AMPLIFICATION_CEILING = 64.0


def extract_metrics(name: str, doc: dict) -> dict[str, float]:
    """Flattens one bench JSON into {metric_name: ratio} pairs."""
    metrics: dict[str, float] = {}
    if name == "bench_engine_throughput.json":
        for row in doc.get("schemes", []):
            metrics[f"engine_speedup/{row['scheme']}"] = row["speedup"]
        for row in doc.get("wide", []):
            metrics[f"wide_speedup/x{row['width']}/{row['scheme']}"] = (
                row["speedup"]
            )
        for row in doc.get("facade", []):
            metrics[f"facade_overhead/{row['case']}"] = (
                row["session_vs_engine"]
            )
        for row in doc.get("decode", []):
            metrics[f"decode_vs_scalar/{row['geometry']}/{row['scheme']}"] = (
                row["decode_vs_scalar"]
            )
        for row in doc.get("kernels", []):
            if row["kernel"] == "swar" or not row["available"]:
                continue  # the reference itself / ISA absent on this host
            for path in KERNEL_PATHS + KERNEL_OPTIONAL_PATHS:
                if f"{path}_vs_swar" in row:
                    metrics[f"kernel_vs_swar/{row['kernel']}/{path}"] = (
                        row[f"{path}_vs_swar"]
                    )
        for row in doc.get("select", []):
            if row["mode"] == "fixed":
                continue  # absolute rows, trend-only
            metrics[f"select_vs_fixed/{row['label']}"] = row["vs_fixed_floor"]
            metrics[f"select_energy_saved/{row['label']}"] = (
                row["energy_saved_ratio"]
            )
    elif name == "bench_serve.json":
        for row in doc.get("rows", []):
            tenants = row["tenants"]
            metrics[f"serve_vs_session/{tenants}t"] = row["serve_vs_session"]
            if "p99_amplification" in row:
                metrics[f"serve_p99_amplification/{tenants}t"] = (
                    row["p99_amplification"]
                )
    elif name == "bench_trace_replay.json":
        for row in doc.get("schemes", []):
            metrics[f"replay_vs_stream/{row['scheme']}"] = (
                row["replay_vs_stream"]
            )
        wide = doc.get("wide")
        if wide:
            metrics[f"wide_replay_vs_memory/x{wide['width']}"] = (
                wide["replay_vs_memory"]
            )
        obs = doc.get("obs")
        if obs:
            metrics["obs_overhead"] = obs["obs_vs_off"]
        lake = doc.get("lake")
        if lake:
            metrics["lake_replay_vs_per_file"] = lake["lake_vs_per_file"]
            if "pool_vs_serial" in lake:
                metrics["lake_pool_vs_serial"] = lake["pool_vs_serial"]
    return metrics


def floor_for(metric: str) -> float | None:
    if metric.startswith("facade_overhead/"):
        return FACADE_FLOOR
    for width in FLOOR_WIDTHS:
        for scheme in FLOOR_SCHEMES:
            if metric == f"wide_speedup/x{width}/{scheme}":
                return FLOOR_SPEEDUP
    for geometry in DECODE_FLOOR_GEOMETRIES:
        for scheme in FLOOR_SCHEMES:
            if metric == f"decode_vs_scalar/{geometry}/{scheme}":
                return DECODE_FLOOR
    if metric.startswith("kernel_vs_swar/"):
        if is_optional_kernel_path(metric):
            return None
        if "/encode_" in metric and "/avx" in metric:
            return KERNEL_ENCODE_FLOOR
        return KERNEL_FLOOR
    if metric == "obs_overhead":
        return OBS_FLOOR
    if metric.startswith("select_vs_fixed/exact/c"):
        return 1.0 / int(metric.rsplit("/c", 1)[1])
    if metric.startswith("select_vs_fixed/predicted/"):
        return SELECT_PREDICTED_FLOOR
    if metric.startswith("select_energy_saved/exact/"):
        return SELECT_EXACT_ENERGY_FLOOR
    if metric == "serve_vs_session/8t":
        return SERVE_FLOOR
    if metric == "lake_replay_vs_per_file":
        return LAKE_REPLAY_FLOOR
    return None


def is_optional_kernel_path(metric: str) -> bool:
    return (metric.startswith("kernel_vs_swar/")
            and metric.rsplit("/", 1)[1] in KERNEL_OPTIONAL_PATHS)


def is_ceiling(metric: str) -> bool:
    """Ceiling metrics are lower-is-better: the relative check inverts
    (current may not rise more than --tolerance above baseline) and
    ceiling_for() supplies the hard cap."""
    return metric.startswith("serve_p99_amplification/")


def ceiling_for(metric: str) -> float | None:
    if metric.startswith("serve_p99_amplification/"):
        return SERVE_P99_AMPLIFICATION_CEILING
    return None


def skipped_kernels(doc: dict) -> set[str]:
    """Kernel variants the current machine cannot run (ISA absent)."""
    return {row["kernel"] for row in doc.get("kernels", [])
            if not row["available"]}


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", required=True)
    parser.add_argument("--current-dir", required=True)
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed fractional regression (default 0.15)")
    parser.add_argument("--trend", default=None,
                        help="write a CSV trend artifact here")
    args = parser.parse_args()

    failures: list[str] = []
    rows: list[tuple[str, str, float, float, str]] = []

    for name in FILES:
        baseline_path = os.path.join(args.baseline_dir, name)
        current_path = os.path.join(args.current_dir, name)
        if not os.path.exists(baseline_path):
            failures.append(f"{name}: missing baseline {baseline_path}")
            continue
        if not os.path.exists(current_path):
            failures.append(f"{name}: missing current run {current_path}")
            continue
        current_doc = load(current_path)
        baseline = extract_metrics(name, load(baseline_path))
        current = extract_metrics(name, current_doc)
        skipped = skipped_kernels(current_doc)

        for metric, base_value in sorted(baseline.items()):
            if metric not in current:
                if (metric.startswith("kernel_vs_swar/")
                        and metric.split("/")[1] in skipped):
                    # Baselined on a machine with the ISA, gated on one
                    # without it: documented skip, not a regression.
                    rows.append((name, metric, base_value, float("nan"),
                                 "skipped-isa"))
                    continue
                failures.append(
                    f"{metric}: present in baseline but missing from the "
                    f"current run (bench output shape changed?)")
                continue
            cur_value = current[metric]
            status = "ok"
            if is_ceiling(metric):
                # Lower is better: regression means rising above the
                # baseline allowance, failure means topping the cap.
                allowed = base_value * (1.0 + args.tolerance)
                if cur_value > allowed:
                    status = "REGRESSED"
                    failures.append(
                        f"{metric}: {cur_value:.3f} > {allowed:.3f} "
                        f"(baseline {base_value:.3f} + {args.tolerance:.0%},"
                        f" ceiling metric)")
                ceiling = ceiling_for(metric)
                if ceiling is not None and cur_value > ceiling:
                    status = "ABOVE-CEILING"
                    failures.append(
                        f"{metric}: {cur_value:.3f} above the hard "
                        f"acceptance ceiling {ceiling:.2f}")
            else:
                allowed = base_value * (1.0 - args.tolerance)
                if cur_value < allowed:
                    status = "REGRESSED"
                    failures.append(
                        f"{metric}: {cur_value:.3f} < {allowed:.3f} "
                        f"(baseline {base_value:.3f} - {args.tolerance:.0%})")
                floor = floor_for(metric)
                if floor is not None and cur_value < floor:
                    status = "BELOW-FLOOR"
                    failures.append(
                        f"{metric}: {cur_value:.3f} below the hard "
                        f"acceptance floor {floor:.2f}")
            rows.append((name, metric, base_value, cur_value, status))

        for metric in sorted(set(current) - set(baseline)):
            if is_optional_kernel_path(metric):
                continue  # gated once a baseline records it
            status = "new"
            floor = floor_for(metric)
            if floor is not None and current[metric] < floor:
                status = "BELOW-FLOOR"
                failures.append(
                    f"{metric}: {current[metric]:.3f} below the hard "
                    f"acceptance floor {floor:.2f} (new metric)")
            ceiling = ceiling_for(metric)
            if ceiling is not None and current[metric] > ceiling:
                status = "ABOVE-CEILING"
                failures.append(
                    f"{metric}: {current[metric]:.3f} above the hard "
                    f"acceptance ceiling {ceiling:.2f} (new metric)")
            rows.append((name, metric, float("nan"), current[metric], status))

    sha = os.environ.get("GITHUB_SHA", "local")
    if args.trend:
        with open(args.trend, "w", encoding="utf-8") as f:
            f.write("commit,bench,metric,baseline,current,status\n")
            for bench, metric, base, cur, status in rows:
                f.write(f"{sha},{bench},{metric},{base:.4f},{cur:.4f},"
                        f"{status}\n")

    width = max((len(r[1]) for r in rows), default=10)
    print(f"bench gate @ {sha} (tolerance {args.tolerance:.0%})")
    for bench, metric, base, cur, status in rows:
        print(f"  {metric:<{width}}  baseline {base:7.3f}  "
              f"current {cur:7.3f}  {status}")

    # When running under GitHub Actions, mirror the gate table into the
    # job summary so a red X explains itself without opening the log.
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        def cell(value: float) -> str:
            return "–" if value != value else f"{value:.3f}"  # NaN-safe

        with open(summary_path, "a", encoding="utf-8") as f:
            f.write(f"## Bench regression gate @ `{sha}` "
                    f"(tolerance {args.tolerance:.0%})\n\n")
            f.write("| metric | baseline | measured | status |\n")
            f.write("| --- | ---: | ---: | --- |\n")
            for _bench, metric, base, cur, status in rows:
                mark = status if status in ("ok", "new", "skipped-isa") \
                    else f"**{status}**"
                f.write(f"| `{metric}` | {cell(base)} | {cell(cur)} "
                        f"| {mark} |\n")
            if failures:
                f.write(f"\n**FAIL** — {len(failures)} metric(s) out of "
                        f"bounds:\n\n")
                for failure in failures:
                    f.write(f"- {failure}\n")
            else:
                f.write(f"\n**OK** — {len(rows)} metrics within "
                        f"tolerance.\n")

    if failures:
        print("\nFAIL: bench regression gate", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"\nOK: {len(rows)} metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
