"""The benchmark's workloads: their configs, one iteration of each, and checks.

Every workload is a closed loop: one caller runs the stages back to back and
starts the next iteration when the previous one has ended. Iteration i of a
run with seed S solves the problem generated from config seed
S * SEED_STRIDE + i, so a run's inputs follow from its seed alone, and the
seed reaches pmq only through the config.

pmq functions are looked up on the package at call time, so wrappers that
the tracer installs on the package are the ones called.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import shutil
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import pmq
import pmq.cli

from perfbench import checks

SEED_STRIDE = 1000

# A miniature problem run once before timing, so lazy imports and first-call
# costs land outside the measured iterations.
WARMUP_OVERRIDES = {
    "dims": [8, 8, 4],
    "samples_per_task": 32,
    "heldout_samples": 16,
    "train_samples": 16,
    "train_steps": 2,
    "sweep_bits": [4],
}


def problem_seed(seed: int, iteration: int) -> int:
    return seed * SEED_STRIDE + iteration


class StageFailed(RuntimeError):
    pass


class StageClock:
    """Times the stages of one iteration, opening a stage span when tracing."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.stages: dict[str, float] = {}
        self.current: str | None = None
        self.first_start: float | None = None
        self.last_end: float | None = None

    @contextmanager
    def stage(self, name: str):
        self.current = name
        span = self.tracer.span(f"stage.{name}") if self.tracer else nullcontext()
        start = time.perf_counter()
        with span:
            yield
        end = time.perf_counter()
        self.stages[name] = end - start
        self.current = None
        if self.first_start is None:
            self.first_start = start
        self.last_end = end

    @property
    def total_s(self) -> float:
        return self.last_end - self.first_start


@dataclass
class Outcome:
    """What an iteration produced, and the checks run on it."""

    macro_mse: float
    total_objective: float
    quantized_sha256: str
    checks: list[checks.Check]
    sweep_points: int = 0
    sweep_failed: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    # iterations every run makes; the quality metrics are their mean
    panel: int
    stages: tuple[str, ...] = ("gen", "merge", "quantize", "eval")

    def config_dict(self, seed: int, warmup: bool = False) -> dict:
        return {**self.config, **(WARMUP_OVERRIDES if warmup else {}), "seed": seed}

    def run_config(self, seed: int, warmup: bool = False):
        return pmq.cli.config_from_dict(self.config_dict(seed, warmup))


class LibraryWorkload(Workload):
    """gen, merge, epmq quantize, evaluate plus deviation diagnostics, in process."""

    def iterate(self, cfg, workdir: Path, clock: StageClock):
        with clock.stage("gen"):
            problem = pmq.make_synthetic_tasks(
                seed=cfg.seed,
                num_tasks=cfg.k,
                dims=cfg.dims,
                samples_per_task=cfg.samples_per_task,
                heldout_samples=cfg.heldout_samples,
                expert_mode=cfg.expert_mode,
            )
        with clock.stage("merge"):
            merged = pmq.apply_merge(cfg.merge, problem.base, problem.experts)
        with clock.stage("quantize"):
            run = pmq.run_epmq(merged, problem.experts, problem.calib, cfg.quant)
        with clock.stage("eval"):
            result = pmq.evaluate(run.model, problem.heldout)
            report = pmq.deviation_diagnostics(run, problem.heldout)
        return run, result, report

    def outcome(self, cfg, workdir: Path, raw) -> Outcome:
        run, result, report = raw
        layers = len(cfg.dims) - 1
        found = [
            checks.run_json(pmq.pipeline.run_to_json_dict(run, config=cfg.to_json_dict())),
            checks.quantized_model(run.model, layers, cfg.quant.bits),
            checks.deviation(report, layers * cfg.k),
        ]
        digest = hashlib.sha256()
        for layer in run.model.layers:
            for arr in (layer.source.codes, layer.source.scales, layer.source.zeros):
                digest.update(arr.tobytes())
        return Outcome(result.macro_mse, run.total_objective(), digest.hexdigest(), found)


class CliWorkload(Workload):
    """`pmq gen/merge/quantize/eval/sweep` through pmq.cli.main and files."""

    def iterate(self, cfg, workdir: Path, clock: StageClock):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        cfg_path = workdir / "cfg.json"
        cfg_path.write_text(json.dumps(dataclasses.asdict(cfg)), encoding="utf-8")
        common = ["--config", str(cfg_path), "--out", str(workdir)]
        for stage in self.stages:
            argv = [stage, *common, *(["--axis", "bits"] if stage == "sweep" else [])]
            with clock.stage(stage):
                code = pmq.cli.main(argv)
            if code != 0:
                raise StageFailed(f"pmq {stage} exited with {code}")
        return None

    def outcome(self, cfg, workdir: Path, raw) -> Outcome:
        layers = len(cfg.dims) - 1
        run_obj = json.loads((workdir / "run.json").read_text(encoding="utf-8"))
        found = [checks.run_json(run_obj)]
        for path in sorted((workdir / "sweep").glob("*/*/run.json")):
            label = path.relative_to(workdir).as_posix()
            found.append(checks.run_json(json.loads(path.read_text(encoding="utf-8")), label))

        model = pmq.load_model(workdir / "quantized.safetensors")
        found.append(checks.quantized_model(model, layers, cfg.quant.bits))
        written = len(run_obj.get("deviation", []))
        if written != layers * cfg.k:
            found.append(checks.Check("deviation:run.json", False, f"{written} rows written"))
        experts = [
            pmq.load_checkpoint(workdir / f"expert{i}.safetensors") for i in range(1, cfg.k + 1)
        ]
        run = pmq.PmqRun(
            merged=pmq.load_checkpoint(workdir / "merged.safetensors"),
            experts=experts,
            calib=None,
            cfg=cfg.quant,
            layer_reports=[],
            model=model,
            method=cfg.quant.solver,
        )
        heldout = pmq.load_calib_set(workdir / "heldout")
        found.append(checks.deviation(pmq.deviation_diagnostics(run, heldout), layers * cfg.k))

        points = len(cfg.sweep_bits) * len(cfg.sweep_methods)
        found.append(checks.sweep_csv(workdir / "sweep.csv", points))
        with open(workdir / "sweep.csv", newline="", encoding="utf-8") as f:
            sweep_failed = sum(1 for row in csv.DictReader(f) if row["error"])
        with open(workdir / "metrics.csv", newline="", encoding="utf-8") as f:
            macro = next(float(r["mse"]) for r in csv.DictReader(f) if r["task"] == "macro")
        digest = hashlib.sha256((workdir / "quantized.safetensors").read_bytes()).hexdigest()
        return Outcome(
            macro, float(run_obj["total_objective"]), digest, found, points, sweep_failed
        )


_EPMQ = {"solver": "epmq", "bits": 4, "group_size": 128}

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        LibraryWorkload(
            name="wide",
            # n is cut to 512 so that three iterations fit in a run: the median
            # of two was at the mercy of one slow iteration
            config={
                "k": 2,
                "dims": [512, 512, 512],
                "samples_per_task": 512,
                "expert_mode": "perturb",
                "merge": {"method": "task_arithmetic"},
                "quant": _EPMQ,
            },
            panel=3,
        ),
        LibraryWorkload(
            name="deep",
            # held-out n is cut to 32 so a six-problem panel fits in one run (the
            # quality metrics' spread across seeds needs it); the O(L^2 K)
            # re-forwarding in the diagnostics still dominates
            config={
                "k": 4,
                "dims": [48] * 65,
                "samples_per_task": 256,
                "heldout_samples": 32,
                "expert_mode": "perturb",
                "merge": {"method": "task_arithmetic"},
                "quant": _EPMQ,
            },
            panel=6,
        ),
        CliWorkload(
            name="cli-sweep",
            # expert training uses 64 samples and 50 steps, so that a six-problem
            # panel of seven generations each fits in one run
            config={
                "k": 3,
                "dims": [32, 48, 48, 16],
                "expert_mode": "train",
                "train_samples": 64,
                "train_steps": 50,
                "merge": {"method": "ties"},
                "quant": {"solver": "gptq", "bits": 4, "group_size": 32},
                "sweep_bits": [3, 4],
                "sweep_methods": ["rtn", "gptq", "epmq"],
            },
            panel=6,
            stages=("gen", "merge", "quantize", "eval", "sweep"),
        ),
    )
}
