"""Regenerate the stored golden files, or check them.

Run from the repository root:

    python3 tests/data/make_goldens.py           # rewrite both files
    python3 tests/data/make_goldens.py --check   # compare, write nothing

--check regenerates the goldens in memory and prints, per committed file,
the largest relative difference of any value from the regenerated one. It
exits 1 only when a difference lies past the tolerance that tests/test_cli.py
applies to that file, so last-digit drift between platforms (BLAS builds,
thread counts) can be told apart from a real change.

ties_golden.json is produced by the literal trim/elect/disjoint-mean
reference in tests/oracles.py, applied to the deterministic fixture problem.
sweep_golden.json freezes the fixture bits-sweep macro MSE per method with a
declared tolerance band. tests/test_cli.py reads the epmq and gptq rows; the
rtn row, whose MSE need not fall with the bit width, is compared by --check.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))  # tests/ for oracles
sys.path.insert(0, str(HERE.parents[1] / "src"))  # pmq from this checkout

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
# the assert_allclose tolerances of test_cli.py's ties test; the sweep file
# carries its own rtol
TIES_RTOL, TIES_ATOL = 1e-12, 1e-14


def make_ties_golden():
    problem = make_synthetic_tasks(**FIXTURE)
    tensors = {}
    for idx, lw in enumerate(problem.base.layers):
        base_w = lw.weight
        base_b = lw.bias
        expert_ws = [e.layers[idx].weight for e in problem.experts]
        expert_bs = [e.layers[idx].bias for e in problem.experts]
        tensors[f"{lw.spec.id}.weight"] = ties_reference(base_w, expert_ws, **TIES).tolist()
        tensors[f"{lw.spec.id}.bias"] = ties_reference(base_b, expert_bs, **TIES).tolist()
    return {"fixture": FIXTURE, "ties": TIES, "tensors": tensors}


def make_sweep_golden():
    problem = make_synthetic_tasks(**FIXTURE)
    merged = apply_merge(MergeSpec(), problem.base, problem.experts)
    rows = {}
    for method in ("epmq", "gptq", "rtn"):
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


def largest_difference(fresh, stored, rtol, atol):
    """(largest |fresh - stored| / |stored| over nonzero stored values, within
    |fresh - stored| <= atol + rtol * |stored| everywhere)."""
    fresh, stored = np.asarray(fresh, dtype=np.float64), np.asarray(stored, dtype=np.float64)
    if fresh.shape != stored.shape:
        return float("inf"), False
    diff = np.abs(fresh - stored)
    nonzero = stored != 0
    rel = float((diff[nonzero] / np.abs(stored[nonzero])).max(initial=0.0))
    return rel, bool(np.all(diff <= atol + rtol * np.abs(stored)))


def check() -> int:
    """Compare regenerated goldens with the committed files; 1 past tolerance."""
    ties = json.loads((HERE / "ties_golden.json").read_text())
    sweep = json.loads((HERE / "sweep_golden.json").read_text())
    fresh_ties, fresh_sweep = make_ties_golden(), make_sweep_golden()
    results = []
    for name, stored, fresh, rtol, atol in (
        ("ties_golden.json", ties["tensors"], fresh_ties["tensors"], TIES_RTOL, TIES_ATOL),
        ("sweep_golden.json", sweep["macro_mse"], fresh_sweep["macro_mse"], sweep["rtol"], 0.0),
    ):
        pairs = [largest_difference(fresh[k], stored[k], rtol, atol) for k in stored if k in fresh]
        rel = max((r for r, _ in pairs), default=0.0)
        ok = sorted(fresh) == sorted(stored) and all(within for _, within in pairs)
        print(f"{name}: largest relative difference {rel:.3g} (rtol {rtol:g}, atol {atol:g}): "
              + ("ok" if ok else "PAST TOLERANCE"))
        results.append(ok)
    return 0 if all(results) else 1


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(check())
    (HERE / "ties_golden.json").write_text(
        json.dumps(make_ties_golden(), indent=1) + "\n"
    )
    (HERE / "sweep_golden.json").write_text(
        json.dumps(make_sweep_golden(), indent=1) + "\n"
    )
    print("goldens written to", HERE)
