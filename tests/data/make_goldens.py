"""Regenerate the stored golden files.

Run from the repository root:

    python3 tests/data/make_goldens.py

ties_golden.json is produced by the literal trim/elect/disjoint-mean
reference in tests/oracles.py, applied to the deterministic fixture problem.
sweep_golden.json freezes the fixture bits-sweep macro MSE per method with a
declared tolerance band.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))  # tests/ for oracles

import numpy as np

from pmq.calib import make_synthetic_tasks
from pmq.merge import apply_merge, MergeSpec
from pmq.pipeline import evaluate, quantize
from pmq.quant import QuantConfig

from oracles import ties_reference

FIXTURE = dict(
    seed=123,
    num_tasks=2,
    dims=[8, 12, 10, 6],
    samples_per_task=32,
    heldout_samples=64,
    train_samples=128,
    train_steps=40,
)
TIES = dict(coefficient=0.3, density=0.5)
SWEEP_BITS = [3, 4, 5, 6, 7, 8]


def make_ties_golden():
    problem = make_synthetic_tasks(**FIXTURE)
    tensors = {}
    for idx, lw in enumerate(problem.base.layers):
        base_w = lw.weight
        base_b = lw.bias
        expert_ws = [e.layers[idx].weight for e in problem.experts]
        expert_bs = [e.layers[idx].bias for e in problem.experts]
        tensors[f"{lw.id}.weight"] = ties_reference(base_w, expert_ws, **TIES).tolist()
        tensors[f"{lw.id}.bias"] = ties_reference(base_b, expert_bs, **TIES).tolist()
    return {"fixture": FIXTURE, "ties": TIES, "tensors": tensors}


def make_sweep_golden():
    problem = make_synthetic_tasks(**FIXTURE)
    merged = apply_merge(MergeSpec(), problem.base, problem.experts)
    rows = {}
    for method in ("epmq", "gptq"):
        rows[method] = []
        for bits in SWEEP_BITS:
            cfg = QuantConfig(bits=bits, solver=method, alpha=0.01)
            experts = problem.experts if method == "epmq" else []
            run = quantize(merged, experts, problem.calib, cfg)
            rows[method].append(evaluate(run.model, problem.heldout).macro_mse)
    # rtol: tolerance for matching the stored values (covers cross-platform
    # LAPACK differences); noise_band: allowed relative rise between adjacent
    # bit widths when checking the non-increasing trend.
    return {
        "fixture": FIXTURE,
        "bits": SWEEP_BITS,
        "macro_mse": rows,
        "rtol": 1e-6,
        "noise_band": 2e-3,
    }


if __name__ == "__main__":
    (HERE / "ties_golden.json").write_text(
        json.dumps(make_ties_golden(), indent=1) + "\n"
    )
    (HERE / "sweep_golden.json").write_text(
        json.dumps(make_sweep_golden(), indent=1) + "\n"
    )
    print("goldens written to", HERE)
