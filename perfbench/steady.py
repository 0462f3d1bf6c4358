"""Steadiness check: run one workload N times and report each metric's spread.

    python3 perfbench/steady.py --workload deep --runs 10 [--first-seed 1]
        [--trace 0] [--seconds T] [--against COPY_OF_AN_EARLIER_REPORT.json]

Each run is a fresh `perfbench/run.py` process with its own seed (first-seed,
first-seed + 1, ...). For every metric the tool prints the median, the first
and third quartiles (statistics.quantiles(values, n=4)) and the spread, the
distance between the quartiles as a share of the median. For end-to-end
metrics the spread is compared with the metric's bound from BENCHMARK.json:
"steady" when it is below a third of the bound, "within" when it is at most
the bound, "WIDE" otherwise. With --against, each median is also compared with
the median of an earlier report, and a metric whose median got worse by more
than its bound is marked "WORSE". The report is written to
perfbench/out/steady-<workload>-trace<k>.json (copy it before a second pass
that compares against it). Exit code 1 means a run failed,
a spread exceeded its bound or a median got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import OUT, ROOT, SPEC  # noqa: E402


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
    }


def verdict(stats: dict, metric: dict, before: dict | None) -> str:
    bound = metric.get("bound")
    if bound is None:
        return ""
    notes = []
    if stats["spread"] < bound / 3:
        notes.append("steady")
    elif stats["spread"] <= bound:
        notes.append("within")
    else:
        notes.append("WIDE")
    if before is not None:
        sign = 1 if metric["better"] == "lower" else -1
        change = sign * (stats["median"] - before["median"]) / before["median"]
        notes.append("WORSE" if change > bound else f"median {change:+.3f}")
    return " ".join(notes)


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--against", type=Path, help="an earlier report to compare medians with")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: m for m in SPEC[section]}
    before = json.loads(args.against.read_text())["metrics"] if args.against else {}
    results = []
    status = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        if proc.returncode != 0 or result is None or not result["correct"]:
            print(f"seed {seed}: run failed (exit {proc.returncode})\n{proc.stderr[-2000:]}")
            status = 1
            continue
        results.append({"seed": seed, **result})
        print(f"seed {seed}: ok", flush=True)

    report = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "runs": results, "metrics": {}}
    if len(results) >= 2:
        print(f"{'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, metric in metrics.items():
            values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            if len(values) < 2:
                continue
            stats = summarize(values)
            note = verdict(stats, metric, before.get(name))
            if "WIDE" in note or "WORSE" in note:
                status = 1
            report["metrics"][name] = stats
            bound = metric.get("bound", "")
            print(f"{name:<40} {stats['median']:>12.6g} {stats['q1']:>12.6g} "
                  f"{stats['q3']:>12.6g} {stats['spread']:>8.4f} {bound!s:>6} {note}")
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"steady-{args.workload}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"report: {path.relative_to(ROOT)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
