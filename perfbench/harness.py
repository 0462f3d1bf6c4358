"""One benchmark run of one workload: set-up probes, iterations, metrics.

See run.py for the command line and README.md for what is measured.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field

import numpy as np

from perfbench import OUT, ROOT, SPEC, checks, envinfo, spans, workloads

SETUP_PROBES = 7
# Interpreter start through `import pmq` and building the workload config.
PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import json, pmq, pmq.cli\n"
    "pmq.cli.config_from_dict(json.loads(sys.argv[2]))\n"
    "print(time.monotonic())\n"
)
COUNT_FIELDS = ("calls", "flops", "bytes", "columns")
# The host's speed drifts. On the 2-CPU machine where this benchmark was
# built, a fixed workload (yardstick_s) ran in two states about 30% apart that
# switched every few minutes, so whole runs landed in one state or the other.
# Every time in the end-to-end metrics is therefore stated at a nominal host
# speed: measured seconds * NOMINAL_YARDSTICK_S / yardstick_s() measured
# around the measurement. The measured seconds stay in the result record.
NOMINAL_YARDSTICK_S = 0.15


class SetupFailed(RuntimeError):
    pass


@dataclass
class Iteration:
    index: int
    problem_seed: int
    traced: bool
    stages: dict[str, float]
    wall_s: float
    attempted: int
    failed: int
    total_s: float | None = None
    yardstick_s: float = NOMINAL_YARDSTICK_S
    macro_mse: float | None = None
    total_objective: float | None = None
    quantized_sha256: str = ""
    failures: list[str] = field(default_factory=list)

    @property
    def scale(self) -> float:
        return NOMINAL_YARDSTICK_S / self.yardstick_s


def _median(values):
    values = list(values)
    return statistics.median(values) if values else None


def yardstick_s() -> float:
    """Seconds for a fixed workload shaped like pmq's hot loops.

    Elementwise numpy updates in a Python loop (the shape of the pinned-order
    matmul) and a few BLAS products, on inputs that never change.
    """
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(2, 64, 64))
    g = rng.normal(size=(192, 192))
    out, tmp = np.empty((64, 64)), np.empty((64, 64))
    start = time.perf_counter()
    for _ in range(200):
        out.fill(0.0)
        for j in range(64):
            np.multiply(a[:, j, np.newaxis], b[j, np.newaxis, :], out=tmp)
            out += tmp
    for _ in range(40):
        np.matmul(g, g)
    return time.perf_counter() - start


def measure_setup(cfg_dict: dict) -> list[tuple[float, float]]:
    """(measured seconds, yardstick time around it) for each set-up probe."""
    samples = []
    before = yardstick_s()
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, str(ROOT / "src"), json.dumps(cfg_dict)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise SetupFailed((proc.stderr.strip().splitlines() or ["probe failed"])[-1])
        measured = float(proc.stdout.split()[-1]) - start
        after = yardstick_s()
        samples.append((measured, (before + after) / 2))
        before = after
    return samples


def run_iteration(wl, seed, index, workdir, tracer, traced, reference) -> Iteration:
    def quiet():
        return tracer.paused() if traced else nullcontext()

    pseed = workloads.problem_seed(seed, index)
    clock = workloads.StageClock(tracer if traced else None)
    tracer.iteration = index
    start = time.perf_counter()
    with quiet():
        cfg = wl.run_config(pseed)
    it = Iteration(index, pseed, traced, clock.stages, 0.0, 0, 0)
    try:
        raw = wl.iterate(cfg, workdir, clock)
        with quiet():
            outcome = wl.outcome(cfg, workdir, raw)
    except Exception as exc:  # a failed operation is reported, not raised
        where = f"stage {clock.current}" if clock.current else "checks"
        it.attempted, it.failed = len(clock.stages) + 1, 1
        it.failures.append(f"{where}: {type(exc).__name__}: {exc}")
        it.wall_s = time.perf_counter() - start
        return it
    found = list(outcome.checks)
    expected = reference["workloads"].get(wl.name, [])
    if seed == reference["seed"] and index < len(expected):
        for name in ("macro_mse", "total_objective"):
            found.append(
                checks.reference(
                    name, getattr(outcome, name), expected[index][name], reference["rtol"]
                )
            )
    it.total_s = clock.total_s
    it.macro_mse, it.total_objective = outcome.macro_mse, outcome.total_objective
    it.quantized_sha256 = outcome.quantized_sha256
    it.attempted = len(clock.stages) + outcome.sweep_points + len(found)
    it.failed = outcome.sweep_failed + sum(not c.ok for c in found)
    if outcome.sweep_failed:
        it.failures.append(f"{outcome.sweep_failed} sweep points failed")
    it.failures += [f"check {c.name}: {c.detail}" for c in found if not c.ok]
    it.wall_s = time.perf_counter() - start
    return it


def measure(wl, seed: int, seconds: float, trace: bool, tracer) -> list[Iteration]:
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text(encoding="utf-8"))
    work = OUT / "work"
    wl.iterate(wl.run_config(0, warmup=True), work / f"{wl.name}-warmup", workloads.StageClock())
    start = time.perf_counter()
    if trace:
        phases = [(False, start + seconds / 2, 1), (True, start + seconds, 1)]
    else:
        phases = [(False, start + seconds, wl.panel)]
    iterations: list[Iteration] = []
    yardstick_before = yardstick_s()
    for traced, until, minimum in phases:
        installation = spans.install(tracer) if traced else None
        try:
            done = 0
            while True:
                it = run_iteration(
                    wl, seed, len(iterations), work / wl.name, tracer, traced, reference
                )
                yardstick_after = yardstick_s()
                it.yardstick_s = (yardstick_before + yardstick_after) / 2
                yardstick_before = yardstick_after
                iterations.append(it)
                done += 1
                if it.failed or (done >= minimum and time.perf_counter() + it.wall_s > until):
                    break
        finally:
            if installation is not None:
                installation.uninstall()
        if iterations[-1].failed:
            break
    return iterations


def end_to_end(wl, iterations: list[Iteration], setup_s: float) -> dict[str, float]:
    plain = [it for it in iterations if not it.traced and it.total_s is not None]
    values = {"setup_s": setup_s}
    for stage in wl.stages:
        values[f"{stage}_s"] = _median(it.stages[stage] * it.scale for it in plain)
    values["total_s"] = _median(it.total_s * it.scale for it in plain)
    values["total_s_measured"] = _median(it.total_s for it in plain)
    values["yardstick_s"] = _median(it.yardstick_s for it in plain)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    panel = plain[: wl.panel]
    if len(panel) == wl.panel:
        values["macro_mse"] = statistics.fmean(it.macro_mse for it in panel)
        values["total_objective"] = statistics.fmean(it.total_objective for it in panel)
    return {k: v for k, v in values.items() if v is not None}


def per_layer(names: list[str], iterations: list[Iteration], tracer) -> dict[str, float]:
    traced = [it for it in iterations if it.traced and it.total_s is not None]
    plain = [it for it in iterations if not it.traced and it.total_s is not None]
    if not traced or not plain:
        return {}
    by_iteration = spans.aggregate(tracer.spans)
    values = {}
    for name in names:
        if name == "trace.overhead_s":
            values[name] = _median(it.total_s * it.scale for it in traced) - _median(
                it.total_s * it.scale for it in plain
            )
            continue
        func, _, what = name.rpartition(".")
        samples = []
        for it in traced:
            entry = by_iteration.get(it.index, {}).get(func, {})
            if what == "gflops_per_s":
                own = entry.get("self_s", 0.0)
                samples.append(entry.get("flops", 0) / own / 1e9 if own > 0 else 0.0)
            else:
                samples.append(entry.get(what, 0))
        value = statistics.median(samples)
        values[name] = int(round(value)) if what in COUNT_FIELDS else float(value)
    return values


def run(args, nproc: int, caps: dict[str, str]) -> int:
    wl = workloads.WORKLOADS[args.workload]
    try:
        setup = measure_setup(wl.config_dict(workloads.problem_seed(args.seed, 0)))
    except (SetupFailed, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: setup failed: {exc}", file=sys.stderr)
        return 2
    tracer = spans.Tracer()
    iterations = measure(wl, args.seed, args.seconds, bool(args.trace), tracer)

    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    if args.trace:
        values = per_layer(list(declared), iterations, tracer)
    else:
        setup_s = statistics.median(m * NOMINAL_YARDSTICK_S / y for m, y in setup)
        values = end_to_end(wl, iterations, setup_s)
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    missing = sorted(set(declared) - set(values))
    correct = failed == 0 and not missing
    metrics = {name: {"value": values[name], "unit": declared[name]} for name in declared
               if name in values}
    extra = {k: v for k, v in values.items() if k not in declared}
    extra["error_rate"] = failed / attempted if attempted else 1.0

    OUT.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": envinfo.collect(ROOT, nproc, caps, args.seed),
        "setup_probes": [{"measured_s": m, "yardstick_s": y} for m, y in setup],
        "iterations": [asdict(it) for it in iterations],
        "missing_metrics": missing,
        "extra": extra,
        "result": {"correct": correct, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
    }
    (OUT / f"{wl.name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    if args.trace:
        tracer.write_jsonl(OUT / f"{wl.name}.spans.jsonl")

    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"iterations={len(iterations)} (panel {wl.panel})")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    for name, value in extra.items():
        print(f"  {name:<40} {value:>14.6g} (not in BENCHMARK.json)")
    print(f"  operations: {attempted} attempted, {failed} failed")
    for it in iterations:
        for failure in it.failures:
            print(f"  FAILED iteration {it.index}: {failure}")
    for name in missing:
        print(f"  MISSING metric {name}")
    print("  env " + json.dumps(record["env"], sort_keys=True))
    print(json.dumps(record["result"]))
    return 0 if correct else 1


