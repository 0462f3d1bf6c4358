"""Output checks run on every benchmark iteration.

Each check is one operation of the benchmark: a failed check counts in the
error rate and makes the benchmark exit nonzero.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import jsonschema

from pmq.pipeline import RUN_JSON_SCHEMA

IDENTITY_TOL = 1e-9


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def run_json(obj: dict, label: str = "run.json") -> Check:
    try:
        jsonschema.validate(obj, RUN_JSON_SCHEMA)
    except jsonschema.ValidationError as exc:
        return Check(f"schema:{label}", False, exc.message)
    return Check(f"schema:{label}", True)


def quantized_model(model, num_layers: int, bits: int) -> Check:
    """Every layer carries codes, and every code fits in `bits` bits."""
    if model.num_layers != num_layers:
        return Check("quantized", False, f"{model.num_layers} layers, expected {num_layers}")
    for layer in model.layers:
        if not layer.is_quantized:
            return Check("quantized", False, f"layer '{layer.spec.id}' is not quantized")
        q = layer.source
        if q.bits != bits or int(q.codes.max(initial=0)) > (1 << bits) - 1:
            return Check("quantized", False, f"layer '{layer.spec.id}' codes exceed {bits} bits")
    return Check("quantized", True)


def deviation(report, expected_rows: int) -> Check:
    if len(report.rows) != expected_rows:
        return Check("deviation", False, f"{len(report.rows)} rows, expected {expected_rows}")
    worst = report.max_identity_error()
    if not worst <= IDENTITY_TOL:
        return Check("deviation", False, f"identity error {worst:g} > {IDENTITY_TOL:g}")
    return Check("deviation", True)


def sweep_csv(path: Path, expected_rows: int) -> Check:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    if len(rows) != expected_rows:
        return Check("sweep.csv", False, f"{len(rows)} rows, expected {expected_rows}")
    for row in rows:
        if row["error"]:
            return Check("sweep.csv", False, f"error row: {row['error']}")
        if not math.isfinite(float(row["macro_mse"])):
            return Check("sweep.csv", False, "non-finite macro_mse")
    return Check("sweep.csv", True)


def reference(name: str, value: float, expected: float, rtol: float) -> Check:
    ok = math.isclose(value, expected, rel_tol=rtol, abs_tol=0.0)
    return Check(f"reference:{name}", ok, "" if ok else f"{value!r} != {expected!r} (rtol {rtol:g})")
