"""Tests of the benchmark harness itself: spans, wrapping, metric names, checks."""

from __future__ import annotations

import csv
import dataclasses
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import pmq  # noqa: E402
import pmq.calib  # noqa: E402
import pmq.model  # noqa: E402
import pmq.solver  # noqa: E402
from pmq.pipeline import DeviationReport, DeviationRow  # noqa: E402

from perfbench import checks, spans, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_self_time_of_hand_built_tree():
    tree = [
        spans.Span("root", 0.0, 10.0, -1, 0),
        spans.Span("a", 1.0, 4.0, 0, 0),
        spans.Span("b", 5.0, 8.0, 0, 0),
        spans.Span("c", 2.0, 3.0, 1, 0),
        spans.Span("b", 20.0, 21.5, -1, 1, {"bytes": 7}),
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 3.0, 1.0, 1.5])
    agg = spans.aggregate(tree)
    assert agg[0]["b"] == pytest.approx({"calls": 1, "self_s": 3.0})
    assert agg[1]["b"] == pytest.approx({"calls": 1, "self_s": 1.5, "bytes": 7})


def test_covered_length_merges_overlaps_and_clips():
    assert spans.covered_length([(1.0, 4.0), (3.0, 6.0), (8.0, 9.0)], 0.0, 10.0) == 6.0
    assert spans.covered_length([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == 3.0
    assert spans.covered_length([], 0.0, 10.0) == 0.0


def test_benchmark_names_and_units():
    sections = SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in sections]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_per_layer_metrics_name_pmq_functions():
    for metric in SPEC["per_layer"]:
        func, _, _ = metric["name"].rpartition(".")
        if func == "trace":
            continue
        obj = pmq
        for part in func.split("."):
            obj = getattr(obj, part)
        assert callable(obj), func


def test_wrappers_are_shared_by_every_alias_and_removed():
    original = pmq.linalg.matmul
    checksum = pmq.model.Model.state_checksum
    tracer = spans.Tracer()
    with spans.installed(tracer):
        wrapped = pmq.calib.matmul
        assert wrapped is not original
        assert wrapped is pmq.solver.matmul is pmq.model.matmul is pmq.linalg.matmul is pmq.matmul
        assert pmq.model.Model.state_checksum is not checksum
        cfg = workloads.WORKLOADS["deep"].run_config(0, warmup=True)
        problem = pmq.make_synthetic_tasks(cfg.seed, cfg.k, cfg.dims, cfg.samples_per_task)
        model = pmq.model.Model.from_checkpoint(problem.base)
        model.state_checksum()
        pmq.forward(model, problem.calib.batches[0].inputs)
    assert pmq.calib.matmul is original and pmq.matmul is original
    assert pmq.model.Model.state_checksum is checksum

    names = [s.name for s in tracer.spans]
    assert "model.Model.from_checkpoint" in names
    assert "model.Model.state_checksum" in names
    by_index = dict(enumerate(tracer.spans))
    inner = [s for s in tracer.spans if s.name == "linalg.matmul" and s.parent >= 0]
    assert any(by_index[s.parent].name == "model.propagate_through_layer" for s in inner)
    for span in tracer.spans:
        assert span.end >= span.start
    flops = [s.attrs["flops"] for s in tracer.spans if s.name == "linalg.matmul"]
    assert flops and all(f > 0 for f in flops)


@pytest.fixture(scope="module")
def library_outputs(tmp_path_factory):
    wl = workloads.WORKLOADS["wide"]
    cfg = wl.run_config(3, warmup=True)
    clock = workloads.StageClock()
    raw = wl.iterate(cfg, tmp_path_factory.mktemp("lib"), clock)
    return wl, cfg, raw, clock


def test_library_iteration_passes_its_checks(library_outputs):
    wl, cfg, raw, clock = library_outputs
    assert list(clock.stages) == list(wl.stages)
    outcome = wl.outcome(cfg, Path("."), raw)
    assert outcome.checks and all(c.ok for c in outcome.checks)
    assert outcome.macro_mse > 0 and outcome.total_objective > 0


def test_corrupted_library_outputs_trip_checks(library_outputs):
    _, cfg, raw, _ = library_outputs
    run, _, report = raw
    obj = pmq.pipeline.run_to_json_dict(run)
    del obj["layers"][0]["bits"]
    assert not checks.run_json(obj).ok

    plain = pmq.model.Model.from_checkpoint(run.merged)
    assert not checks.quantized_model(plain, len(cfg.dims) - 1, cfg.quant.bits).ok
    assert not checks.quantized_model(run.model, len(cfg.dims) - 1, cfg.quant.bits - 1).ok

    bad = DeviationReport(rows=list(report.rows))
    bad.rows[0] = dataclasses.replace(bad.rows[0], identity_max_abs=1e-6)
    assert not checks.deviation(bad, len(report.rows)).ok
    assert not checks.deviation(report, len(report.rows) + 1).ok
    assert not checks.reference("macro_mse", 1.0, 1.01, 1e-3).ok
    assert checks.reference("macro_mse", 1.0, 1.0 + 1e-6, 1e-3).ok


def test_cli_iteration_checks_and_corruption(tmp_path):
    wl = workloads.WORKLOADS["cli-sweep"]
    cfg = wl.run_config(5, warmup=True)
    wl.iterate(cfg, tmp_path, workloads.StageClock())
    outcome = wl.outcome(cfg, tmp_path, None)
    assert all(c.ok for c in outcome.checks), outcome.checks
    assert outcome.sweep_points == len(cfg.sweep_bits) * len(cfg.sweep_methods)

    run_json = tmp_path / "run.json"
    obj = json.loads(run_json.read_text())
    obj["method"] = "unknown"
    run_json.write_text(json.dumps(obj))
    sweep = tmp_path / "sweep.csv"
    with open(sweep, newline="") as f:
        rows = list(csv.DictReader(f))
    rows[0]["error"] = "ValueError: corrupted"
    with open(sweep, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    outcome = wl.outcome(cfg, tmp_path, None)
    failed = {c.name for c in outcome.checks if not c.ok}
    assert failed == {"schema:run.json", "sweep.csv"}
    assert outcome.sweep_failed == 1
