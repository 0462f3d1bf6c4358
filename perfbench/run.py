"""pmq benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds T]

One run measures one workload (wide, deep or cli-sweep, see README.md) in
this process. It first times SETUP_PROBES fresh interpreters that import pmq
from this checkout's src/ and build the workload config (setup_s is their
median), warms up on a miniature problem, then runs whole iterations back
to back until --seconds have passed and at least the workload's panel has
run. Every iteration's outputs are checked.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: stage times and
total_s are medians over the iterations, stated at a nominal host speed (see
NOMINAL_YARDSTICK_S in harness.py); the quality metrics are the mean over
the panel. --trace 1 spends the first half of the run untraced and the
second half with spans installed on pmq's public functions, and reports the
per-layer metrics of BENCHMARK.json as medians over the traced iterations,
plus the tracing overhead (traced minus untraced total_s).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A full record, with the environment, goes to
perfbench/out/<workload>-trace<k>.json, and a traced run writes its spans to
perfbench/out/<workload>.spans.jsonl. The exit code is 0 only when every
stage, sweep point and output check succeeded; 2 means pmq could not be set
up from this checkout.

--workload all runs every workload, untraced and traced, each in a fresh
process, prints every metric with its unit and writes
perfbench/out/summary.json.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import OUT, ROOT, SPEC, envinfo  # noqa: E402


def run_one(args) -> int:
    if not (ROOT / "src" / "pmq" / "__init__.py").is_file():
        print(f"perfbench: no pmq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc, caps = envinfo.cap_threads()
    os.environ.pop("PMQ_SEED", None)  # the seed reaches pmq only through the config
    sys.path.insert(0, str(ROOT / "src"))
    import pmq

    if not Path(pmq.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported pmq from {pmq.__file__}, not this checkout", file=sys.stderr)
        return 2
    from perfbench import harness

    return harness.run(args, nproc, caps)


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    summary = {}
    status = 0
    for wl in SPEC["workloads"]:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", wl["name"],
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]) if proc.returncode in (0, 1) else proc.stderr, flush=True)
            if proc.returncode != 0:
                status = 1
            if proc.returncode in (0, 1) and lines:
                summary[f"{wl['name']}/trace{trace}"] = json.loads(lines[-1])
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "summary.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return status


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
