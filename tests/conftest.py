import os
from pathlib import Path

import numpy as np
import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def random_spd(rng, d, extra=4):
    """Random SPD matrix from a thin Gaussian factor (full rank for n > d)."""
    x = rng.normal(size=(d, d + extra))
    return x @ x.T + 1e-6 * np.eye(d)


def ill_conditioned_gram(rng, d):
    """Gram matrix of d + 16 samples that share one strong common component."""
    x = rng.normal(size=(d, 1)) + rng.uniform(0.5, 1.5, size=(d, 1)) * rng.normal(size=(d, d + 16))
    return x @ x.T


def subprocess_env(blas_threads=None):
    """Environment for a fresh interpreter that imports pmq from this checkout,
    without PMQ_SEED, and with BLAS capped at `blas_threads` threads if given."""
    env = {k: v for k, v in os.environ.items() if k != "PMQ_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    if blas_threads is not None:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(blas_threads)
    return env


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
