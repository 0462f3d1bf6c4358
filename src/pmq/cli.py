"""Command-line harness.

    pmq gen|merge|quantize|eval|sweep --config cfg.json --out DIR [--set k=v]...

One JSON config file drives everything; --set applies dotted-path overrides
(values parsed as JSON when possible) so sweep definitions stay reproducible
artifacts. PMQ_SEED overrides the config seed. Exit codes: 0 success,
2 config error, 3 numeric failure, 4 I/O failure. Task files whose tensors
do not stack into one (K, rows, n) array are a config error (ShapeError).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import io
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from .calib import SyntheticProblem, load_calib_set, make_synthetic_tasks, save_calib_set
from .checkpoint import Checkpoint, ManifestError, load_checkpoint, save_checkpoint
from .linalg import ShapeError, SingularMatrixError, require_real
from .merge import MergeSpec, apply_merge
from .model import load_model, save_model
from .pipeline import (
    ConfigError,
    PmqRun,
    evaluate,
    evaluate_with_deviations,
    quantize,
    run_to_json_dict,
)
from .quant import QuantConfig
from .tensorfile import TensorFileError, write_atomic, write_json

SWEEP_AXES = ("bits", "alpha", "samples")
PROBLEM_RECORD = "problem.json"  # the _problem_inputs of the problem `pmq gen` wrote


@dataclass
class RunConfig:
    seed: int = 0
    k: int = 2
    dims: list[int] = field(default_factory=lambda: [8, 16, 12, 6])
    samples_per_task: int = 256
    heldout_samples: int = 256
    merge: MergeSpec = field(default_factory=MergeSpec)
    quant: QuantConfig = field(default_factory=QuantConfig)
    train_steps: int = 100
    train_samples: int = 256
    learning_rate: float = 0.1
    teacher_scale: float = 0.25
    expert_mode: str = "train"
    hidden_activation: str = "relu"
    sweep_bits: list[int] = field(default_factory=lambda: [3, 4, 5, 6, 7, 8])
    sweep_alpha: list[float] = field(default_factory=lambda: [0.0, 0.01, 0.1, 1.0, 10.0])
    sweep_samples: list[int] = field(default_factory=lambda: [64, 128, 256])
    sweep_methods: list[str] = field(default_factory=lambda: ["epmq", "gptq"])

    def __post_init__(self):
        # counts and sizes are ints proper: not floats, and not bools
        if type(self.seed) is not int or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        for name in ("k", "samples_per_task", "heldout_samples", "train_steps", "train_samples"):
            if type(getattr(self, name)) is not int:
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if len(self.dims) < 2 or any(type(d) is not int or d < 1 for d in self.dims):
            raise ConfigError(f"dims must be a chain of positive integers, got {self.dims}")
        if self.samples_per_task < 1 or self.heldout_samples < 1:
            raise ConfigError("sample counts must be >= 1")
        if self.train_steps < 0 or self.train_samples < 0:
            raise ConfigError("train_steps and train_samples must be non-negative integers")
        if self.expert_mode not in ("train", "perturb"):
            raise ConfigError(f"unknown expert_mode '{self.expert_mode}'")
        for m in self.sweep_methods:
            if m not in ("rtn", "gptq", "epmq"):
                raise ConfigError(f"unknown sweep method '{m}'")
        for name in ("learning_rate", "teacher_scale"):
            require_real(getattr(self, name), name)
        for name in ("sweep_bits", "sweep_samples"):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)) or any(type(v) is not int for v in values):
                raise ConfigError(f"{name} must be a list of integers, got {values!r}")
        alphas = self.sweep_alpha
        if not isinstance(alphas, (list, tuple)):
            raise ConfigError(f"sweep_alpha must be a list of real numbers, got {alphas!r}")
        for value in alphas:
            require_real(value, "sweep_alpha entry")

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)  # merge and quant become nested dicts too


_TOP_KEYS = {f.name for f in dataclasses.fields(RunConfig)}
_NESTED = {"merge": MergeSpec, "quant": QuantConfig}


def config_from_dict(obj: dict) -> RunConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(obj) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(obj)
    try:
        for key, cls in _NESTED.items():
            if key in kwargs:
                bad = set(kwargs[key]) - {f.name for f in dataclasses.fields(cls)}
                if bad:
                    raise ConfigError(f"unknown {key} keys: {sorted(bad)}")
                kwargs[key] = cls(**kwargs[key])
        return RunConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def load_config(path: str, overrides: list[str], env: dict | None = None) -> RunConfig:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: config is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got '{item}'")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        target = obj
        parts = key.split(".")
        for part in parts[:-1]:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise ConfigError(f"--set path '{key}' does not address an object")
        target[parts[-1]] = value
    env = os.environ if env is None else env
    if "PMQ_SEED" in env:
        try:
            obj["seed"] = int(env["PMQ_SEED"])
        except ValueError as exc:
            raise ConfigError(f"PMQ_SEED must be an integer, got '{env['PMQ_SEED']}'") from exc
    return config_from_dict(obj)


# ---------------------------------------------------------------------------
# commands


def _expert_paths(out: Path, k: int) -> list[Path]:
    return [out / f"expert{i}.safetensors" for i in range(1, k + 1)]


def _expert_files(out: Path, k: int, required: bool) -> list[Path]:
    """The k expert files, or [] when none exists and they are optional.

    A partial set means k and `pmq gen` disagree, which is a config error
    whether or not the command needs the experts.
    """
    paths = _expert_paths(out, k)
    missing = [p.name for p in paths if not p.exists()]
    if missing and (len(missing) < len(paths) or required):
        raise ConfigError(
            f"k={k} but {out} lacks expert files {missing}; run `pmq gen` with the same k"
        )
    return [] if missing else paths


def _load_matching(cfg: RunConfig, path: Path, load):
    """load(path), refused when its layer widths are not cfg.dims: another config made it."""
    found = load(path)
    dims = [found.manifest.layers[0].d_in] + [s.d_out for s in found.manifest.layers]
    if dims != cfg.dims:
        raise ConfigError(f"config dims {cfg.dims} disagree with the manifest of {path}: {dims}")
    return found


def _problem_inputs(cfg: RunConfig) -> dict:
    """The arguments of `make_synthetic_tasks` that `cfg` sets."""
    return dict(
        seed=cfg.seed,
        num_tasks=cfg.k,
        dims=cfg.dims,
        samples_per_task=cfg.samples_per_task,
        heldout_samples=cfg.heldout_samples,
        train_samples=cfg.train_samples,
        train_steps=cfg.train_steps,
        learning_rate=cfg.learning_rate,
        teacher_scale=cfg.teacher_scale,
        expert_mode=cfg.expert_mode,
        hidden_activation=cfg.hidden_activation,
    )


def _generate_problem(cfg: RunConfig) -> SyntheticProblem:
    return make_synthetic_tasks(**_problem_inputs(cfg))


def _recorded_problem(out: Path) -> dict | None:
    """The `_problem_inputs` `pmq gen` recorded in `out`; None without a readable record."""
    try:
        return json.loads((out / PROBLEM_RECORD).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _load_problem(out: Path, k: int) -> SyntheticProblem:
    """The problem `pmq gen` wrote to `out`, read back from its files."""
    return SyntheticProblem(
        base=load_checkpoint(out / "base.safetensors"),
        experts=[load_checkpoint(p) for p in _expert_files(out, k, required=True)],
        calib=load_calib_set(out / "calib"),
        heldout=load_calib_set(out / "heldout"),
    )


def cmd_gen(cfg: RunConfig, out: Path) -> None:
    """Write the problem, then record its inputs; a failed gen leaves no record."""
    problem = _generate_problem(cfg)
    out.mkdir(parents=True, exist_ok=True)
    (out / PROBLEM_RECORD).unlink(missing_ok=True)
    save_checkpoint(problem.base, out / "base.safetensors")
    for path, expert in zip(_expert_paths(out, cfg.k), problem.experts):
        save_checkpoint(expert, path)
    save_calib_set(problem.calib, out / "calib")
    save_calib_set(problem.heldout, out / "heldout")
    write_json(out / PROBLEM_RECORD, _problem_inputs(cfg))


def cmd_merge(cfg: RunConfig, out: Path) -> None:
    base = _load_matching(cfg, out / "base.safetensors", load_checkpoint)
    experts = [load_checkpoint(p) for p in _expert_files(out, cfg.k, required=True)]
    merged = apply_merge(cfg.merge, base, experts)
    save_checkpoint(merged, out / "merged.safetensors")


def _write_run(run: PmqRun, cfg: RunConfig, directory: Path) -> None:
    """A run's two files: quantized.safetensors, then run.json, which records
    the SHA-256 of the model bytes it describes (`pmq eval` checks it)."""
    obj = run_to_json_dict(run, config=cfg.to_json_dict())
    obj["model_sha256"] = save_model(run.model, directory / "quantized.safetensors")
    write_json(directory / "run.json", obj)


def _write_csv(path: Path, fieldnames: list[str], rows: list[dict]) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, restval="")
    writer.writeheader()
    writer.writerows(rows)
    write_atomic(path, buf.getvalue().encode("utf-8"))


def cmd_quantize(cfg: RunConfig, out: Path) -> None:
    merged = _load_matching(cfg, out / "merged.safetensors", load_checkpoint)
    calib_dir = out / "calib"
    calib = load_calib_set(calib_dir) if (calib_dir / "index.json").exists() else None
    # rtn and gptq run without experts
    experts = [load_checkpoint(p) for p in _expert_files(out, cfg.k, cfg.quant.solver == "epmq")]
    _write_run(quantize(merged, experts, calib, cfg.quant), cfg, out)


def cmd_eval(cfg: RunConfig, out: Path) -> None:
    model_path = out / "quantized.safetensors"
    model = _load_matching(cfg, model_path, load_model)
    # run.json must describe these model bytes: a failed rewrite may have left an older one
    run_path = out / "run.json"
    obj = None
    if run_path.exists():
        try:
            obj = json.loads(run_path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise TensorFileError(f"{run_path}: not valid JSON: {exc}") from exc
        recorded = obj.get("model_sha256") if isinstance(obj, dict) else None
        digest = hashlib.sha256(model_path.read_bytes()).hexdigest()
        if recorded != digest:
            raise TensorFileError(
                f"{run_path} does not describe {model_path}: model_sha256 {recorded!r}, "
                f"file {digest}; rerun pmq quantize"
            )
    heldout = load_calib_set(out / "heldout")
    # the deviation diagnostics are skipped when no expert file or no run.json
    # exists; only then are the experts and the merged checkpoint read
    expert_paths = _expert_files(out, cfg.k, required=False)
    merged, experts = None, []
    if obj is not None and expert_paths:
        experts = [load_checkpoint(p) for p in expert_paths]
        merged = _load_matching(cfg, out / "merged.safetensors", load_checkpoint)
    # one walk gives metrics.csv and the deviation rows, all before the first
    # write, so a failed eval writes no file
    result, deviation = evaluate_with_deviations(model, heldout, merged, experts)
    rows = [
        {
            "task": task,
            "method": cfg.quant.solver,
            "bits": cfg.quant.bits,
            "alpha": cfg.quant.alpha,
            "samples": cfg.samples_per_task,
            "mse": repr(mse),
        }
        for task, mse in [*sorted(result.per_task_mse.items()), ("macro", result.macro_mse)]
    ]
    _write_csv(out / "metrics.csv", ["task", "method", "bits", "alpha", "samples", "mse"], rows)
    if deviation is not None:
        updated = dict(obj)
        updated["deviation"] = [
            {
                "layer_id": row.layer_id,
                "task": row.task_id,
                "quant_norm": row.quant_norm,
                "merge_norm": row.merge_norm,
                "combined_norm": row.combined_norm,
            }
            for row in deviation.rows
        ]
        write_json(run_path, updated)


def _point_config(cfg: RunConfig, axis: str, value, method: str) -> RunConfig:
    """The run config of one sweep point: `method` solves, `axis` is set to `value`."""
    quant = dataclasses.asdict(cfg.quant)
    quant["solver"] = method
    samples = cfg.samples_per_task
    if axis == "bits":
        quant["bits"] = value
    elif axis == "alpha":
        quant["alpha"] = float(value)
    else:
        samples = value
    return dataclasses.replace(cfg, quant=QuantConfig(**quant), samples_per_task=samples)


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _sweep_point(
    cfg: RunConfig, problem: SyntheticProblem, merged: Checkpoint, subdir: Path
) -> dict:
    """One sweep point on a generated and merged problem: quantize, evaluate, write.

    Returns the point's CSV fields; a failure becomes an `error` field.
    """
    try:
        start = time.perf_counter()
        run = quantize(merged, problem.experts, problem.calib, cfg.quant)
        wall = time.perf_counter() - start
        result = evaluate(run.model, problem.heldout)
        subdir.mkdir(parents=True, exist_ok=True)
        _write_run(run, cfg, subdir)
    except Exception as exc:  # record the failure, keep sweeping
        return {"error": _error_text(exc)}
    row = {f"mse_task{task_id}": repr(mse) for task_id, mse in sorted(result.per_task_mse.items())}
    row["macro_mse"] = repr(result.macro_mse)
    row["wall_time_s"] = repr(wall)
    row["damped"] = str(run.damped_fallback).lower()
    return row


def cmd_sweep(cfg: RunConfig, out: Path, axis: str) -> None:
    """Sweep one axis over every method, one CSV row per (value, method) point.

    Points whose generation and merge inputs agree share one problem, merged
    once here; only the `samples` axis changes those inputs. A group whose
    generation inputs equal the record `pmq gen` left in `out` loads that
    problem from `out` (an unreadable file there is the group's error, never a
    reason to regenerate); any other group generates its own. The points run
    in this process, group by group. An invalid point, or one whose problem
    failed to generate or load, gets an `error` row and the sweep goes on.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got '{axis}'")
    values = getattr(cfg, f"sweep_{axis}")
    if not values:
        raise ConfigError(f"sweep axis '{axis}' has no values configured")
    out.mkdir(parents=True, exist_ok=True)
    points = [(value, method) for value in values for method in cfg.sweep_methods]
    rows = [{"axis": axis, "axis_value": v, "method": m, "error": ""} for v, m in points]
    groups: dict[str, list[tuple[int, RunConfig]]] = {}
    for idx, (value, method) in enumerate(points):
        try:
            point_cfg = _point_config(cfg, axis, value, method)
        except Exception as exc:  # an invalid point is recorded, the others run
            rows[idx]["error"] = _error_text(exc)
            continue
        # points share a problem when they agree on all that generation and merging read
        key = repr((_problem_inputs(point_cfg), point_cfg.merge))
        groups.setdefault(key, []).append((idx, point_cfg))

    recorded = _recorded_problem(out)
    for members in groups.values():
        group_cfg = members[0][1]
        try:
            if recorded == _problem_inputs(group_cfg):
                problem = _load_problem(out, group_cfg.k)
            else:
                problem = _generate_problem(group_cfg)
            merged = apply_merge(group_cfg.merge, problem.base, problem.experts)
        except Exception as exc:  # every point of the group records the failure
            for idx, _ in members:
                rows[idx]["error"] = _error_text(exc)
            continue
        for idx, point_cfg in members:
            value, method = points[idx]
            subdir = out / "sweep" / f"{axis}={value}" / method
            rows[idx].update(_sweep_point(point_cfg, problem, merged, subdir))

    fieldnames = ["axis", "axis_value", "method"]
    fieldnames += [f"mse_task{i}" for i in range(1, cfg.k + 1)]
    fieldnames += ["macro_mse", "wall_time_s", "damped", "error"]
    _write_csv(out / "sweep.csv", fieldnames, rows)


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parse_args leaves it as it is."""
    parser = argparse.ArgumentParser(prog="pmq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("gen", "generate base/expert checkpoints and calibration data"),
        ("merge", "merge experts into a single checkpoint"),
        ("quantize", "quantize the merged checkpoint"),
        ("eval", "evaluate a quantized checkpoint on held-out data"),
        ("sweep", "sweep one axis and emit a CSV"),
    ):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="dotted-path config override (value parsed as JSON when possible)",
        )
        if name == "sweep":
            p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.set)
        out = Path(args.out)
        if args.command == "gen":
            cmd_gen(cfg, out)
        elif args.command == "merge":
            cmd_merge(cfg, out)
        elif args.command == "quantize":
            cmd_quantize(cfg, out)
        elif args.command == "eval":
            cmd_eval(cfg, out)
        elif args.command == "sweep":
            cmd_sweep(cfg, out, args.axis)
        return 0
    # a ManifestError here means checkpoints disagree; a malformed sidecar is an i/o failure
    except (ConfigError, ManifestError, ShapeError) as exc:
        print(f"pmq: config error: {exc}", file=sys.stderr)
        return 2
    except (SingularMatrixError, ArithmeticError, FloatingPointError) as exc:
        print(f"pmq: numeric failure: {exc}", file=sys.stderr)
        return 3
    except (TensorFileError, OSError) as exc:
        print(f"pmq: i/o failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
