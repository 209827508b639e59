"""CI gate: fail on benchmark throughput regression vs the committed baseline.

Compares a fresh benchmark run against its checked-in baseline.  Raw
rows/second is hardware-bound and useless across CI machines, so each
benchmark declares a machine-invariant *ratio* measured within one run
on one machine, and the gate compares that:

* ``bench_backends.py`` → ``BENCH_backends.json``, gated on
  ``relative_throughput`` (SQLite-over-memory throughput), which the
  SQL generation + staging overhead must not erode — and, with
  ``--metric relative_throughput_columnar``, on the columnar
  backend's batch-kernel advantage over the row interpreter (CI runs
  the gate once per metric);
* ``bench_sharded.py`` → ``BENCH_sharded.json``, gated on
  ``projected_speedup`` (critical-path speedup projected from serial
  mode's per-shard compute timers, per key distribution and shard
  count).  The 1-shard projection is 1.0 by construction, so gating
  the 4-shard value is exactly the 4-over-1 scaling ratio; it is
  measured deterministically on one core, hence core-count-invariant
  — wall-clock parallel numbers are NOT gated (CI hosts may have a
  single core);
* ``bench_planner.py`` → ``BENCH_planner.json``, gated on
  ``work_reduction`` (rows of maintenance work avoided by adaptive
  re-planning and by explicit shared-subplan selection, each measured
  against a disabled twin within one run) — counted in rows, not
  seconds, hence machine-invariant;
* ``bench_serving.py`` → ``BENCH_serving.json``, gated on
  ``consistent_fraction`` (which must be *exactly* 1.0 — snapshot
  isolation is correctness, not throughput, so no tolerance applies)
  plus the absolute ``read_p99_ms`` budget each record carries
  (``read_p99_budget_ms``), generous enough for a single-core CI host.

The baseline file and metric are picked from the fresh report's
``benchmark`` name, which must be one of the above (a report without
one is an error); ``--baseline``/``--metric`` override.

Usage::

    python benchmarks/bench_planner.py \
        --scale small --out /tmp/BENCH_planner_smoke.json
    python benchmarks/check_bench_regression.py \
        /tmp/BENCH_planner_smoke.json \
        [--baseline BENCH_planner.json] [--metric work_reduction] \
        [--scale small] [--tolerance 0.25]

Exit status 1 (with a per-stream report) if any stream's metric falls
more than ``tolerance`` below the baseline's.  The gate also asserts
both runs carry the per-transaction histogram summaries
(``histograms.txn_latency_ms`` etc.) so the observability layer's
distribution reporting cannot silently disappear from the benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent

#: benchmark name (the report's ``benchmark`` key) → committed baseline
#: and the machine-invariant ratio field it gates on.
BENCHMARKS = {
    "backend_comparison": (_REPO / "BENCH_backends.json", "relative_throughput"),
    "sharded_scaling": (_REPO / "BENCH_sharded.json", "projected_speedup"),
    "serving_load": (_REPO / "BENCH_serving.json", "consistent_fraction"),
    "planner_adaptivity": (_REPO / "BENCH_planner.json", "work_reduction"),
}

#: Histogram summaries every stream record must carry (and the summary
#: keys inside each), since the bench promises distribution reporting.
REQUIRED_HISTOGRAMS = ("txn_latency_ms", "txn_delta_rows", "txn_rows_per_sec")
REQUIRED_SUMMARY_KEYS = ("count", "sum", "p50", "p95", "p99")


def check_histograms(label: str, streams: dict) -> list[str]:
    """Failures for stream records missing histogram summaries."""
    failures = []
    for kind, record in sorted(streams.items()):
        histograms = record.get("histograms")
        if histograms is None:
            failures.append(f"{label}/{kind}: no 'histograms' key")
            continue
        for name in REQUIRED_HISTOGRAMS:
            summary = histograms.get(name)
            if summary is None:
                failures.append(f"{label}/{kind}: missing histogram {name!r}")
                continue
            missing = [k for k in REQUIRED_SUMMARY_KEYS if k not in summary]
            if missing:
                failures.append(
                    f"{label}/{kind}: histogram {name!r} lacks {missing!r}"
                )
    return failures


def compare(
    baseline: dict,
    fresh: dict,
    scale: str,
    tolerance: float,
    metric: str,
) -> list[str]:
    """Human-readable failures; empty when the gate passes."""
    try:
        base_streams = baseline["scales"][scale]["streams"]
    except KeyError:
        return [f"baseline has no scale {scale!r}"]
    try:
        fresh_streams = fresh["scales"][scale]["streams"]
    except KeyError:
        return [f"fresh run has no scale {scale!r}"]
    failures = check_histograms("baseline", base_streams)
    failures += check_histograms("fresh", fresh_streams)
    for kind, base in sorted(base_streams.items()):
        measured = fresh_streams.get(kind)
        if measured is None:
            failures.append(f"{kind}: missing from fresh run")
            continue
        if metric not in base or metric not in measured:
            failures.append(f"{kind}: no {metric!r} field to compare")
            continue
        floor = base[metric] * (1.0 - tolerance)
        verdict = "ok" if measured[metric] >= floor else "REGRESSION"
        print(
            f"  {kind:<13} baseline {base[metric]:>5.2f}x  "
            f"measured {measured[metric]:>5.2f}x  "
            f"floor {floor:>5.2f}x  {verdict}"
        )
        if measured[metric] < floor:
            failures.append(
                f"{kind}: {metric} {measured[metric]:.2f}x fell below "
                f"{floor:.2f}x ({base[metric]:.2f}x baseline - "
                f"{tolerance:.0%} tolerance)"
            )
    return failures


def compare_sharded(
    baseline: dict,
    fresh: dict,
    tolerance: float,
    metric: str = "projected_speedup",
) -> list[str]:
    """The sharded-scaling report gates per (distribution, shard count)
    rather than per (scale, stream); scales may differ between runs —
    the projection is a ratio, invariant to batch and warehouse size
    within the gate's tolerance."""
    failures: list[str] = []
    for distribution, base_record in sorted(baseline["distributions"].items()):
        fresh_record = fresh.get("distributions", {}).get(distribution)
        if fresh_record is None:
            failures.append(f"{distribution}: missing from fresh run")
            continue
        failures += check_histograms(
            f"baseline/{distribution}", base_record["shards"]
        )
        failures += check_histograms(
            f"fresh/{distribution}", fresh_record["shards"]
        )
        for n_shards, base in sorted(
            base_record["shards"].items(), key=lambda kv: int(kv[0])
        ):
            measured = fresh_record["shards"].get(n_shards)
            if measured is None:
                failures.append(
                    f"{distribution}/{n_shards}: missing from fresh run"
                )
                continue
            floor = base[metric] * (1.0 - tolerance)
            verdict = "ok" if measured[metric] >= floor else "REGRESSION"
            print(
                f"  {distribution:<8} {n_shards:>2} shards  "
                f"baseline {base[metric]:>5.2f}x  "
                f"measured {measured[metric]:>5.2f}x  "
                f"floor {floor:>5.2f}x  {verdict}"
            )
            if measured[metric] < floor:
                failures.append(
                    f"{distribution}/{n_shards}: {metric} "
                    f"{measured[metric]:.2f}x fell below {floor:.2f}x "
                    f"({base[metric]:.2f}x baseline - "
                    f"{tolerance:.0%} tolerance)"
                )
    return failures


def compare_serving(
    baseline: dict,
    fresh: dict,
    scale: str,
    metric: str = "consistent_fraction",
) -> list[str]:
    """The serving gate: isolation is exact (no tolerance) and read p99
    must stay inside the absolute budget the baseline record declares.
    """
    try:
        base_streams = baseline["scales"][scale]["streams"]
    except KeyError:
        return [f"baseline has no scale {scale!r}"]
    try:
        fresh_streams = fresh["scales"][scale]["streams"]
    except KeyError:
        return [f"fresh run has no scale {scale!r}"]
    failures = check_histograms("baseline", base_streams)
    failures += check_histograms("fresh", fresh_streams)
    for kind, base in sorted(base_streams.items()):
        measured = fresh_streams.get(kind)
        if measured is None:
            failures.append(f"{kind}: missing from fresh run")
            continue
        fraction = measured.get(metric)
        budget = base.get("read_p99_budget_ms")
        p99 = measured.get("read_p99_ms")
        iso_ok = fraction == 1.0
        p99_ok = budget is None or (p99 is not None and p99 <= budget)
        verdict = "ok" if iso_ok and p99_ok else "REGRESSION"
        print(
            f"  {kind:<13} {metric} {fraction}  "
            f"p99 {p99}ms (budget {budget}ms)  "
            f"torn {measured.get('torn_reads')}  "
            f"mismatches {measured.get('replay_mismatches')}  {verdict}"
        )
        if not iso_ok:
            failures.append(
                f"{kind}: {metric} {fraction!r} != 1.0 "
                f"(torn_reads={measured.get('torn_reads')}, "
                f"replay_mismatches={measured.get('replay_mismatches')})"
            )
        if not p99_ok:
            failures.append(
                f"{kind}: read_p99_ms {p99} exceeds the "
                f"{budget}ms budget"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", help="JSON written by a fresh bench run")
    parser.add_argument(
        "--baseline",
        default=None,
        help="committed baseline JSON (default: picked from the fresh "
        "report's 'benchmark' name)",
    )
    parser.add_argument(
        "--metric",
        default=None,
        help="ratio field to gate on (default: picked from the fresh "
        "report's 'benchmark' name)",
    )
    parser.add_argument(
        "--scale", default="small", help="scale to gate on (default: small)"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional metric drop (default: 0.25)",
    )
    args = parser.parse_args(argv)
    fresh = json.loads(Path(args.fresh).read_text())
    name = fresh.get("benchmark")
    if name not in BENCHMARKS:
        parser.error(
            f"{args.fresh}: 'benchmark' is {name!r}, expected one of "
            f"{', '.join(sorted(BENCHMARKS))}"
        )
    default_baseline, default_metric = BENCHMARKS[name]
    baseline_path = Path(args.baseline) if args.baseline else default_baseline
    metric = args.metric or default_metric
    baseline = json.loads(baseline_path.read_text())
    print(
        f"regression gate: benchmark={fresh.get('benchmark', '?')} "
        f"metric={metric} scale={args.scale} tolerance={args.tolerance:.0%}"
    )
    if fresh.get("benchmark") == "sharded_scaling":
        failures = compare_sharded(baseline, fresh, args.tolerance, metric)
    elif fresh.get("benchmark") == "serving_load":
        failures = compare_serving(baseline, fresh, args.scale, metric)
    else:
        failures = compare(baseline, fresh, args.scale, args.tolerance, metric)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
