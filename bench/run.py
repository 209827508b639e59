#!/usr/bin/env python3
"""The repository's one benchmark.

    python bench/run.py [--workload W] [--seed S] [--seconds N]
                        [--trace 0|1 | --traced] [--smoke]
                        [--json OUT] [--repeat N]

Each workload runs in a fresh subprocess with a pinned environment,
checks its outputs against a recomputation oracle, and prints every
metric by name with its unit.  With ``--workload`` the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import metrics  # noqa: E402  (bench-local modules; no repro import here)
from workloads import BY_NAME, NOMINAL_SECONDS, WORKLOADS  # noqa: E402

#: The driver allows a run 180 s; a child that overruns is killed.
CHILD_TIMEOUT_S = 170
#: Engine and planner selection must be the program's default, so a
#: later change of default shows here.
UNPINNED_ENV = ("REPRO_BACKEND", "REPRO_PLANNER", "REPRO_REPLAN_RATIO")


def manifest() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": NOMINAL_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, __ in metrics.END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, *__ in metrics.PER_LAYER
        ],
    }


# ----------------------------------------------------------------------
# Child: one pass of one workload, in this process.
# ----------------------------------------------------------------------

def child_main(args) -> int:
    import harness  # imports repro: fails here when the program is absent

    started = time.perf_counter()
    loadavg_start = harness.loadavg()
    workload = BY_NAME[args.workload]
    if args.smoke:
        workload = workload.smoke()
    rounds = workload.rounds_for(args.seconds)
    if args.trace:
        import layers
        record = layers.run(workload, args.seed, smoke=args.smoke)
    elif workload.served:
        import served
        record = served.run(workload, args.seed, rounds, smoke=args.smoke)
    else:
        import inprocess
        record = inprocess.run(workload, args.seed, rounds)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "traced": bool(args.trace),
        "smoke": args.smoke,
        "claim": None,
        **record,
        "env": harness.env_stamp(loadavg_start, started),
    }
    print(json.dumps(record))
    return 0


# ----------------------------------------------------------------------
# Parent: fresh subprocess per workload, printing, repeat tool.
# ----------------------------------------------------------------------

def run_child(workload: str, seed: int, seconds: float, trace: int,
              smoke: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in UNPINNED_ENV}
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload}: child exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def contract_line(record: dict) -> dict:
    """The driver's result object: exactly these keys, numbers only."""
    units = metrics.LAYER_UNITS if record["traced"] else metrics.E2E_UNITS
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": record["metrics"][name]["value"], "unit": unit}
            for name, unit in units.items()
        },
    }


def print_record(record: dict) -> None:
    kind = "per-layer (traced pass)" if record["traced"] else "end-to-end"
    print(f"== {record['workload']}  seed={record['seed']}  {kind}  "
          f"digest={record['workload_digest'][:12]}  "
          f"correct={record['correct']}  attempted={record['attempted']}  "
          f"failed={record['failed']}  wall={record['env']['wall_s']:.1f}s")
    units = metrics.LAYER_UNITS if record["traced"] else metrics.E2E_UNITS
    for name, unit in units.items():
        entry = record["metrics"][name]
        note = ""
        if "median" in entry:
            note = (f"   (rounds: median {entry['median']:.6g}, "
                    f"IQR {entry['iqr']:.3g}, n={entry['n']}"
                    f"{', DISTURBED' if entry['disturbed'] else ''})")
        print(f"  {name:<46}{entry['value']:>14.6g} {unit}{note}")
    for name in record.get("missing", ()):
        print(f"  missing: {name}")


def save(record: dict) -> None:
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    suffix = "-traced" if record["traced"] else ""
    path = out / f"{record['workload']}{suffix}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")


def repeat(args, names: list[str]) -> int:
    """Run the whole benchmark N times, alternating workload order, and
    judge the run-to-run range of every metric against its bound.  With
    ``--json FILE`` the set is appended to the sets FILE already holds,
    and consecutive sets must agree on every median within the bound."""
    runs = []
    for index in range(args.repeat):
        order = names if index % 2 == 0 else names[::-1]
        runs.append({
            name: run_child(name, args.seed, args.seconds, 0, args.smoke)
            for name in order
        })
        print(f"run {index + 1}/{args.repeat} done", file=sys.stderr)
    path = Path(args.json) if args.json else None
    sets = json.loads(path.read_text())["sets"] if path and path.exists() else []
    earlier = sets[-1]["table"] if sets else None
    table = {}
    failed = False
    print(f"{'workload':<16}{'metric':<22}{'min':>12}{'median':>12}"
          f"{'max':>12}{'range':>8}{'bound':>7}")
    for name in names:
        table[name] = {
            "workload_digest": sorted(
                {run[name]["workload_digest"] for run in runs}
            ),
            "correct": all(run[name]["correct"] for run in runs),
        }
        for metric, unit, __, bound, ___ in metrics.END_TO_END:
            values = [run[name]["metrics"][metric]["value"] for run in runs]
            median = statistics.median(values)
            spread = (max(values) - min(values)) / median
            verdict = "PASS" if spread <= bound else "FAIL"
            entry = table[name][metric] = {
                "unit": unit, "values": values, "min": min(values),
                "median": median, "max": max(values),
                "relative_range": spread, "bound": bound, "verdict": verdict,
            }
            line = (f"{name:<16}{metric:<22}{min(values):>12.5g}"
                    f"{median:>12.5g}{max(values):>12.5g}{spread:>8.1%}"
                    f"{bound:>7.0%} {verdict}")
            if earlier and name in earlier:
                before = earlier[name][metric]["median"]
                entry["median_vs_previous_set"] = median / before - 1.0
                agrees = abs(median / before - 1.0) <= bound
                entry["agrees_with_previous_set"] = agrees
                line += (f"   vs previous set {median / before - 1.0:+.1%} "
                         f"{'PASS' if agrees else 'FAIL'}")
                failed |= not agrees
            failed |= verdict == "FAIL"
            print(line)
    if path:
        sets.append({
            "runs": args.repeat, "seed": args.seed,
            "env": runs[-1][names[-1]]["env"], "table": table,
        })
        path.write_text(json.dumps({"claim": None, "sets": sets}, indent=1) + "\n")
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS,
                        help="sizes the run: scales the fixed round count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="2 rounds on a small base, both passes")
    parser.add_argument("--json", metavar="OUT")
    parser.add_argument("--repeat", type=int, metavar="N")
    parser.add_argument("--manifest", action="store_true",
                        help="print BENCHMARK.json and exit")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.traced:
        args.trace = 1
    if args.manifest:
        print(json.dumps(manifest(), indent=2))
        return 0
    if args.child:
        return child_main(args)
    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]
    if args.repeat:
        return repeat(args, names)
    passes = (0, 1) if args.smoke and args.trace is None else (args.trace or 0,)
    records = [
        run_child(name, args.seed, args.seconds, trace, args.smoke)
        for name in names for trace in passes
    ]
    for record in records:
        print_record(record)
        save(record)
    if args.json:
        Path(args.json).write_text(json.dumps(records, indent=1) + "\n")
    if args.workload and len(passes) == 1:
        print(json.dumps(contract_line(records[0])))
    return 0 if all(record["correct"] for record in records) else 1


if __name__ == "__main__":
    sys.exit(main())
