"""Environment record attached to every benchmark result."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

# Thread pools that BLAS and OpenMP builds read at load time.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> tuple[int, dict[str, str]]:
    """Cap BLAS/OpenMP threads at the CPUs this process may use.

    Must run before numpy is imported. Returns (nproc, the caps set).
    """
    nproc = len(os.sched_getaffinity(0))
    caps = {}
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        value = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = caps[var] = str(value)
    return nproc, caps


def _git_commit(root: Path) -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if level in ("2", "3") and kind in ("Unified", "Data"):
                sizes[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return {"L2": sizes.get("L2", "unknown"), "L3": sizes.get("L3", "unknown")}


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})"


def collect(root: Path, nproc: int, caps: dict[str, str], seed: int) -> dict:
    import numpy as np
    import scipy

    return {
        "git_commit": _git_commit(root),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "thread_caps": caps,
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "cache": _cache_sizes(),
        "seed": seed,
    }
