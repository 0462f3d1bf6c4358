"""Spans around pmq's public functions, recorded from outside the package.

`install` replaces every public function and method that a pmq module
defines with a wrapper that records one span per call: its name, start,
end and the span that was open when it began (its parent). A function is
rebound on every pmq namespace that holds it, because `from .linalg import
matmul` copies the name into the importing module; methods are wrapped on
their class. Properties are left alone. Spans stay in memory until the
caller writes them out.

A span's self time is its duration minus the part of it that its children
cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 for a root
    iteration: int  # spans of one workload iteration share this id
    attrs: dict | None = None


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.iteration = -1
        self.recording = True
        self._open: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.iteration))
        self._open.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    @contextmanager
    def paused(self):
        """Calls made inside run unrecorded (used for output checks)."""
        before, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = before

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for idx, span in enumerate(self.spans):
                f.write(json.dumps({"id": idx, **asdict(span)}, separators=(",", ":")) + "\n")


def _matmul_attrs(args, result) -> dict:
    return {"flops": 2 * int(result.size) * int(np.shape(args[0])[1])}


def _checksum_attrs(args, result) -> dict:
    # bytes hashed, computed from the layer specs (weights and biases are f64)
    model = args[0]
    total = 0
    for layer in model.layers:
        total += layer.spec.d_out * layer.spec.d_in
        if layer.bias is not None:
            total += layer.spec.d_out
    return {"bytes": 8 * total}


def _file_attrs(args, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


# Per-call amounts recorded next to the span, keyed by span name.
ATTRS: dict[str, Callable] = {
    "linalg.matmul": _matmul_attrs,
    "solver.gptq_solve": lambda args, result: {"columns": int(args[0].target.shape[1])},
    "model.Model.state_checksum": _checksum_attrs,
    "tensorfile.read_tensor_file": _file_attrs,
    "tensorfile.write_tensor_file": _file_attrs,
}


def _wrap(tracer: Tracer, name: str, func: Callable) -> Callable:
    attrs_of = ATTRS.get(name)

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if not tracer.recording:
            return func(*args, **kwargs)
        idx = tracer.open(name)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.close(idx)
        if attrs_of is not None:
            tracer.spans[idx].attrs = attrs_of(args, result)
        return result

    return wrapper


def _package_modules(package: str) -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == package or name.startswith(package + "."))
    ]


class Installation:
    """Wrappers installed on a package; `uninstall` puts the originals back."""

    def __init__(self):
        self.wrappers: dict[Callable, Callable] = {}
        self._restore: list[tuple[object, str, object]] = []

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self.wrappers.clear()


def install(tracer: Tracer, package: str = "pmq") -> Installation:
    """Wrap the public functions and methods defined in `package`'s modules."""
    inst = Installation()
    modules = _package_modules(package)
    for module in modules:
        short = module.__name__.rpartition(".")[2]
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                inst.wrappers[obj] = _wrap(tracer, f"{short}.{obj.__name__}", obj)
            elif inspect.isclass(obj):
                _install_methods(tracer, inst, obj, f"{short}.{obj.__name__}")
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in inst.wrappers:
                setattr(module, attr, inst.wrappers[obj])
                inst._restore.append((module, attr, obj))
    return inst


def _install_methods(tracer: Tracer, inst: Installation, cls: type, prefix: str) -> None:
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        if inspect.isfunction(member):
            replacement = _wrap(tracer, f"{prefix}.{attr}", member)
        elif isinstance(member, (classmethod, staticmethod)):
            replacement = type(member)(_wrap(tracer, f"{prefix}.{attr}", member.__func__))
        else:
            continue
        setattr(cls, attr, replacement)
        inst._restore.append((cls, attr, member))


@contextmanager
def installed(tracer: Tracer, package: str = "pmq"):
    inst = install(tracer, package)
    try:
        yield inst
    finally:
        inst.uninstall()


def covered_length(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of `intervals`, clipped to [start, end]."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        a, b = max(a, start), min(b, end)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        (s.end - s.start) - covered_length(children.get(i, []), s.start, s.end)
        for i, s in enumerate(spans)
    ]


def aggregate(spans: list[Span]) -> dict[int, dict[str, dict[str, float]]]:
    """Per iteration and span name: calls, self_s and the sum of each attribute."""
    out: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
    for span, own in zip(spans, self_times(spans)):
        entry = out[span.iteration][span.name]
        entry["calls"] += 1
        entry["self_s"] += own
        for key, value in (span.attrs or {}).items():
            entry[key] += value
    return {it: {name: dict(e) for name, e in names.items()} for it, names in out.items()}
