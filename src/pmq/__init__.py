"""Post-merge quantization toolkit.

Merge expert checkpoints, collect layer-wise calibration statistics along
the partially quantized trajectory, and solve for low-bit codes with an
expert-guided anchored objective next to rtn/gptq baselines, plus a
synthetic-task harness for desk-scale experiments.
"""

from .calib import (
    CalibSet,
    SyntheticProblem,
    collect_layer_stats,
    load_calib_set,
    make_synthetic_tasks,
    save_calib_set,
)
from .checkpoint import (
    Checkpoint,
    Layer,
    LayerSpec,
    ManifestError,
    ModelManifest,
    load_checkpoint,
    save_checkpoint,
)
from .linalg import (
    ShapeError,
    SingularMatrixError,
    cholesky_solve,
    frobenius_sq,
    matmul,
)
from .merge import MergeSpec, apply_merge
from .model import (
    Model,
    forward,
    forward_to_layer,
    load_model,
    propagate_through_layer,
    save_model,
)
from .pipeline import (
    DeviationReport,
    EvalResult,
    PmqRun,
    deviation_diagnostics,
    evaluate,
    evaluate_with_deviations,
    quantize,
    run_epmq,
)
from .quant import (
    QuantConfig,
    QuantizedLayer,
    pack_codes,
    rtn_quantize,
    unpack_codes,
)
from .solver import (
    SolveReport,
    SolverProblem,
    build_epmq_statistics,
    continuous_solution,
    epmq_objective,
    gptq_solve,
    quadratic_objective,
    solve_layer,
)

__version__ = "0.1.0"

__all__ = [
    "CalibSet",
    "Checkpoint",
    "DeviationReport",
    "EvalResult",
    "Layer",
    "LayerSpec",
    "ManifestError",
    "MergeSpec",
    "Model",
    "ModelManifest",
    "PmqRun",
    "QuantConfig",
    "QuantizedLayer",
    "ShapeError",
    "SingularMatrixError",
    "SolveReport",
    "SolverProblem",
    "SyntheticProblem",
    "apply_merge",
    "build_epmq_statistics",
    "cholesky_solve",
    "collect_layer_stats",
    "continuous_solution",
    "deviation_diagnostics",
    "epmq_objective",
    "evaluate",
    "evaluate_with_deviations",
    "forward",
    "forward_to_layer",
    "frobenius_sq",
    "gptq_solve",
    "load_calib_set",
    "load_checkpoint",
    "load_model",
    "make_synthetic_tasks",
    "matmul",
    "pack_codes",
    "propagate_through_layer",
    "quadratic_objective",
    "quantize",
    "rtn_quantize",
    "run_epmq",
    "save_calib_set",
    "save_checkpoint",
    "save_model",
    "solve_layer",
    "unpack_codes",
]
