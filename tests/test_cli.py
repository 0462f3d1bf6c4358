import argparse
import csv
import dataclasses
import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pmq.cli
import pmq.model
import pmq.pipeline
import pmq.tensorfile
from conftest import subprocess_env
from oracles import sweep_from_scratch
from pmq.checkpoint import load_checkpoint
from pmq.cli import ConfigError, RunConfig, config_from_dict, load_config, main
from pmq.merge import MergeSpec
from pmq.model import Model, load_model, save_model
from pmq.pipeline import RUN_JSON_SCHEMA, PmqRun, deviation_diagnostics, evaluate
from pmq.quant import QuantConfig
from pmq.tensorfile import read_tensor_file, write_tensor_file

DATA = Path(__file__).parent / "data"

FIXTURE_CFG = {
    "seed": 123,
    "k": 2,
    "dims": [8, 12, 10, 6],
    "samples_per_task": 32,
    "heldout_samples": 64,
    "train_samples": 128,
    "train_steps": 40,
    "merge": {"method": "task_arithmetic", "coefficient": 0.3, "density": 0.5},
    "quant": {"bits": 4, "solver": "epmq", "alpha": 0.01},
}


def write_cfg(tmp_path, overrides=None, name="cfg.json"):
    cfg = json.loads(json.dumps(FIXTURE_CFG))
    for key, value in (overrides or {}).items():
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(*args):
    return main(list(args))


def dir_hashes(out: Path) -> dict:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def strip_wall_time(path):
    """sweep.csv rows without the one column that varies between identical runs."""
    with open(path) as f:
        rows = list(csv.DictReader(f))
    for r in rows:
        r.pop("wall_time_s")
    return rows


def count_calls(monkeypatch, *names):
    """Count calls of the named pmq.cli functions made in this process."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(pmq.cli, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(pmq.cli, name, counted)
    return calls


class TestConfig:
    def test_unknown_top_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict({"seed": 1, "bogus": 2})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown quant keys"):
            config_from_dict({"quant": {"bitz": 3}})

    def test_set_override_and_json_values(self, tmp_path):
        path = write_cfg(tmp_path)
        cfg = load_config(path, ["quant.bits=3", "dims=[4,5]"], env={})
        assert cfg.quant.bits == 3 and cfg.dims == [4, 5]

    def test_pmq_seed_env_override(self, tmp_path):
        path = write_cfg(tmp_path)
        cfg = load_config(path, [], env={"PMQ_SEED": "777"})
        assert cfg.seed == 777

    def test_bad_override_value_rejected(self, tmp_path):
        path = write_cfg(tmp_path)
        with pytest.raises(ConfigError):
            load_config(path, ["quant.bits=99"], env={})

    def test_set_does_not_leak_into_the_next_call(self, tmp_path):
        """main() builds its parser once per process, and each call reads only its own --set."""
        cfg, out = write_cfg(tmp_path), str(tmp_path / "out")
        for cmd in ("gen", "merge"):
            assert run_cli(cmd, "--config", cfg, "--out", out) == 0
        bits = []
        for extra in (("--set", "quant.bits=3"), ()):
            assert run_cli("quantize", "--config", cfg, "--out", out, *extra) == 0
            run = json.loads((tmp_path / "out" / "run.json").read_text())
            bits.append({layer["bits"] for layer in run["layers"]})
        assert bits == [{3}, {4}]
        assert pmq.cli._build_parser() is pmq.cli._build_parser()


def test_config_reference_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Config reference", 1)[1].split("\n\n")[1]
    listed = set()
    for line in table.splitlines()[2:]:
        listed.update(re.findall(r"`([\w.]+)`", line.split("|")[1]))
    expected = {f.name for f in dataclasses.fields(RunConfig)} - {"merge", "quant"}
    expected |= {f"merge.{f.name}" for f in dataclasses.fields(MergeSpec)}
    expected |= {f"quant.{f.name}" for f in dataclasses.fields(QuantConfig)}
    assert listed == expected
    # the removed keys are named in the README and rejected as unknown
    assert "`recompute_trajectory`" in readme and "`quant.samples_per_task`" in readme
    for removed in ({"recompute_trajectory": False}, {"quant": {"samples_per_task": 64}}):
        with pytest.raises(ConfigError, match="unknown"):
            config_from_dict(removed)


def test_readme_cli_section_names_the_parser_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("### Config reference", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", section))
    commands = next(
        a for a in pmq.cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    flags = {
        flag
        for sub in commands.choices.values()
        for action in sub._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }
    assert documented == flags


def test_make_goldens_check_passes_in_a_fresh_interpreter():
    done = subprocess.run(
        [sys.executable, str(DATA / "make_goldens.py"), "--check"],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert sorted(line.split(":")[0] for line in lines) == sorted(
        p.name for p in DATA.glob("*_golden.json")
    )
    assert all(line.endswith(": ok") for line in lines)


class TestGen:
    def test_same_seed_identical_hashes(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("gen", "--config", cfg, "--out", str(out1)) == 0
        assert run_cli("gen", "--config", cfg, "--out", str(out2)) == 0
        assert dir_hashes(out1) == dir_hashes(out2)

    def test_expert_file_count_matches_k(self, tmp_path):
        cfg = write_cfg(tmp_path, {"k": 3})
        out = tmp_path / "out"
        assert run_cli("gen", "--config", cfg, "--out", str(out)) == 0
        assert sorted(p.name for p in out.glob("expert*.safetensors")) == [
            "expert1.safetensors",
            "expert2.safetensors",
            "expert3.safetensors",
        ]
        assert len(list((out / "calib").glob("task*.safetensors"))) == 3

    def test_generated_checkpoints_load_back(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        run_cli("gen", "--config", cfg, "--out", str(out))
        base = load_checkpoint(out / "base.safetensors")
        assert [s.id for s in base.manifest.layers] == ["layer1", "layer2", "layer3"]
        expert = load_checkpoint(out / "expert1.safetensors")
        assert expert.manifest == base.manifest


class TestMerge:
    def test_average_single_expert_equals_expert_file(self, tmp_path):
        cfg = write_cfg(tmp_path, {"k": 1, "merge.method": "average"})
        out = tmp_path / "out"
        run_cli("gen", "--config", cfg, "--out", str(out))
        assert run_cli("merge", "--config", cfg, "--out", str(out)) == 0
        merged = (out / "merged.safetensors").read_bytes()
        expert = (out / "expert1.safetensors").read_bytes()
        assert merged == expert

    def test_task_arithmetic_zero_coefficient_equals_base(self, tmp_path):
        cfg = write_cfg(tmp_path, {"merge.coefficient": 0.0})
        out = tmp_path / "out"
        run_cli("gen", "--config", cfg, "--out", str(out))
        assert run_cli("merge", "--config", cfg, "--out", str(out)) == 0
        assert (out / "merged.safetensors").read_bytes() == (out / "base.safetensors").read_bytes()

    def test_ties_matches_reference_golden(self, tmp_path):
        golden = json.loads((DATA / "ties_golden.json").read_text())
        cfg = write_cfg(
            tmp_path,
            {
                "merge.method": "ties",
                "merge.coefficient": golden["ties"]["coefficient"],
                "merge.density": golden["ties"]["density"],
            },
        )
        out = tmp_path / "out"
        run_cli("gen", "--config", cfg, "--out", str(out))
        assert run_cli("merge", "--config", cfg, "--out", str(out)) == 0
        merged = load_checkpoint(out / "merged.safetensors")
        for lw in merged.layers:
            np.testing.assert_allclose(
                lw.weight, np.array(golden["tensors"][f"{lw.spec.id}.weight"]), rtol=1e-12, atol=1e-14
            )
            np.testing.assert_allclose(
                lw.bias, np.array(golden["tensors"][f"{lw.spec.id}.bias"]), rtol=1e-12, atol=1e-14
            )


class TestQuantize:
    def test_rtn_output_independent_of_calib_presence(self, tmp_path):
        cfg = write_cfg(tmp_path, {"quant.solver": "rtn"})
        out = tmp_path / "out"
        run_cli("gen", "--config", cfg, "--out", str(out))
        run_cli("merge", "--config", cfg, "--out", str(out))
        assert run_cli("quantize", "--config", cfg, "--out", str(out)) == 0
        with_calib = (out / "quantized.safetensors").read_bytes()
        # remove the calibration files and requantize
        for p in (out / "calib").iterdir():
            p.unlink()
        (out / "calib").rmdir()
        assert run_cli("quantize", "--config", cfg, "--out", str(out)) == 0
        assert (out / "quantized.safetensors").read_bytes() == with_calib

    def test_eight_bit_gptq_mse_within_one_percent_of_merged(self, tmp_path):
        cfg = write_cfg(tmp_path, {"quant.solver": "gptq", "quant.bits": 8})
        out = tmp_path / "out"
        run_cli("gen", "--config", cfg, "--out", str(out))
        run_cli("merge", "--config", cfg, "--out", str(out))
        assert run_cli("quantize", "--config", cfg, "--out", str(out)) == 0
        from pmq.calib import load_calib_set
        from pmq.model import Model
        from pmq.pipeline import evaluate

        heldout = load_calib_set(out / "heldout")
        merged_mse = evaluate(
            Model.from_checkpoint(load_checkpoint(out / "merged.safetensors")), heldout
        ).macro_mse
        quant_mse = evaluate(load_model(out / "quantized.safetensors"), heldout).macro_mse
        assert abs(quant_mse - merged_mse) <= 0.01 * merged_mse

    def test_run_json_validates_against_schema(self, tmp_path):
        import jsonschema

        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        run_cli("gen", "--config", cfg, "--out", str(out))
        run_cli("merge", "--config", cfg, "--out", str(out))
        assert run_cli("quantize", "--config", cfg, "--out", str(out)) == 0
        blob = json.loads((out / "run.json").read_text())
        jsonschema.validate(blob, RUN_JSON_SCHEMA)
        assert blob["method"] == "epmq"
        assert "solver" not in blob  # it always equalled method; each layer keeps its own
        assert [layer["solver"] for layer in blob["layers"]] == ["epmq"] * 3

    def test_quantize_idempotent(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        run_cli("gen", "--config", cfg, "--out", str(out))
        run_cli("merge", "--config", cfg, "--out", str(out))
        run_cli("quantize", "--config", cfg, "--out", str(out))
        first = dir_hashes(out)
        run_cli("quantize", "--config", cfg, "--out", str(out))
        assert dir_hashes(out) == first


class TestEval:
    def test_metrics_csv_schema_and_determinism(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        for cmd in ("gen", "merge", "quantize", "eval"):
            assert run_cli(cmd, "--config", cfg, "--out", str(out)) == 0
        with open(out / "metrics.csv") as f:
            rows = list(csv.DictReader(f))
        assert [r["task"] for r in rows] == ["1", "2", "macro"]
        assert set(rows[0]) == {"task", "method", "bits", "alpha", "samples", "mse"}
        assert all(r["method"] == "epmq" and r["bits"] == "4" for r in rows)
        first = (out / "metrics.csv").read_bytes()
        run_cli("eval", "--config", cfg, "--out", str(out))
        assert (out / "metrics.csv").read_bytes() == first

    def test_eval_appends_deviation_to_run_json(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        for cmd in ("gen", "merge", "quantize", "eval"):
            run_cli(cmd, "--config", cfg, "--out", str(out))
        blob = json.loads((out / "run.json").read_text())
        assert "deviation" in blob
        assert len(blob["deviation"]) == 3 * 2  # layers x tasks
        for row in blob["deviation"]:
            assert row["combined_norm"] <= row["quant_norm"] + row["merge_norm"] + 1e-9

    @pytest.mark.parametrize("removed, code", [(["expert2"], 2), (["expert1", "expert2"], 0)])
    def test_partial_expert_set_is_2_and_none_skips_diagnostics(
        self, tmp_path, capsys, removed, code
    ):
        cfg = write_cfg(tmp_path, {"quant.solver": "gptq"})
        out = tmp_path / "out"
        for cmd in ("gen", "merge", "quantize"):
            assert run_cli(cmd, "--config", cfg, "--out", str(out)) == 0
        for name in removed:
            (out / f"{name}.safetensors").unlink()
        before = (out / "run.json").read_bytes()
        capsys.readouterr()
        assert run_cli("eval", "--config", cfg, "--out", str(out)) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        # without diagnostics run.json is left as quantize wrote it
        assert (out / "run.json").read_bytes() == before
        if code == 2:
            assert "config error" in err and "expert2.safetensors" in err
            assert not (out / "metrics.csv").exists()

    def test_eval_without_run_json_reads_no_checkpoint(self, tmp_path, capsys, monkeypatch):
        """No run.json means no deviation rows, so a cut expert file is never read."""
        cfg = write_cfg(tmp_path, {"dims": [8, 12, 6]})
        out = tmp_path / "out"
        for cmd in ("gen", "merge", "quantize"):
            assert run_cli(cmd, "--config", cfg, "--out", str(out)) == 0
        (out / "run.json").unlink()
        expert2 = out / "expert2.safetensors"
        expert2.write_bytes(expert2.read_bytes()[:100])
        calls = count_calls(monkeypatch, "load_checkpoint")
        capsys.readouterr()
        assert run_cli("eval", "--config", cfg, "--out", str(out)) == 0
        assert calls == {"load_checkpoint": 0}
        assert "Traceback" not in capsys.readouterr().err
        assert (out / "metrics.csv").exists() and not (out / "run.json").exists()
        # the partial-set rule still holds without reading a file
        (out / "metrics.csv").unlink()
        expert2.unlink()
        assert run_cli("eval", "--config", cfg, "--out", str(out)) == 2
        assert "expert2.safetensors" in capsys.readouterr().err
        assert calls == {"load_checkpoint": 0} and not (out / "metrics.csv").exists()

    def test_missing_merged_checkpoint_is_4_and_writes_nothing(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        for cmd in ("gen", "merge", "quantize"):
            assert run_cli(cmd, "--config", cfg, "--out", str(out)) == 0
        (out / "merged.safetensors").unlink()
        before = (out / "run.json").read_bytes()
        capsys.readouterr()
        assert run_cli("eval", "--config", cfg, "--out", str(out)) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err and "merged.safetensors" in err
        assert not (out / "metrics.csv").exists()
        assert (out / "run.json").read_bytes() == before


    def test_heldout_tasks_not_matching_experts_is_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"k": 3})
        out = tmp_path / "out"
        for cmd in ("gen", "merge", "quantize"):
            assert run_cli(cmd, "--config", cfg, "--out", str(out)) == 0
        before = dir_hashes(out)
        capsys.readouterr()
        assert run_cli("eval", "--config", cfg, "--out", str(out), "--set", "k=2") == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "3 held-out tasks for 2 experts" in err
        assert dir_hashes(out) == before


    def test_walks_once_and_writes_what_two_walks_wrote(self, tmp_path, monkeypatch):
        """One held-out walk: one stacked activation per layer, where evaluate
        then deviation_diagnostics made 2L - 1, and the same metrics.csv and
        run.json bytes as those two walks."""
        cfg = write_cfg(
            tmp_path,
            {
                "k": 3,
                "dims": [32, 48, 48, 16],
                "train_samples": 64,
                "train_steps": 50,
                "merge.method": "ties",
                "quant.solver": "gptq",
                "quant.group_size": 32,
            },
        )
        out, two = tmp_path / "out", tmp_path / "two"
        for cmd in ("gen", "merge", "quantize"):
            assert run_cli(cmd, "--config", cfg, "--out", str(out)) == 0
        shutil.copytree(out, two)
        activations = []
        for module in (pmq.model, pmq.pipeline):
            real = module.apply_activation

            def spy(name, x, _real=real, **kwargs):
                activations.append(x.shape)
                return _real(name, x, **kwargs)

            monkeypatch.setattr(module, "apply_activation", spy)
        assert run_cli("eval", "--config", cfg, "--out", str(out)) == 0
        assert activations == [(3, 48, 64), (3, 48, 64), (3, 16, 64)]
        monkeypatch.undo()

        def two_walks(model, heldout, merged, experts):
            run = PmqRun(merged, experts, None, None, [], model, "gptq")
            return evaluate(model, heldout), deviation_diagnostics(run, heldout)

        monkeypatch.setattr(pmq.cli, "evaluate_with_deviations", two_walks)
        assert run_cli("eval", "--config", cfg, "--out", str(two)) == 0
        assert len(json.loads((out / "run.json").read_text())["deviation"]) == 3 * 3
        for name in ("metrics.csv", "run.json"):
            assert (out / name).read_bytes() == (two / name).read_bytes()


class TestSweep:
    def test_bits_sweep_matches_golden_and_trend(self, tmp_path):
        golden = json.loads((DATA / "sweep_golden.json").read_text())
        cfg = write_cfg(tmp_path, {"sweep_bits": golden["bits"]})
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", cfg, "--out", str(out), "--axis", "bits") == 0
        with open(out / "sweep.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == len(golden["bits"]) * 2
        for method in ("epmq", "gptq"):
            got = [
                float(r["macro_mse"])
                for r in rows
                if r["method"] == method and not r["error"]
            ]
            expected = golden["macro_mse"][method]
            np.testing.assert_allclose(got, expected, rtol=golden["rtol"])
            band = golden["noise_band"]
            for a, b in zip(got, got[1:]):
                assert b <= a * (1 + band), f"{method}: macro MSE rose beyond the noise band"

    def test_alpha_sweep_zero_row_flagged_damped(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "dims": [10, 12, 6],
                "samples_per_task": 4,  # pooled curvature rank-deficient at alpha=0
                "sweep_alpha": [-1.0, 0.0, 0.1],
                "sweep_methods": ["epmq"],
            },
        )
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", cfg, "--out", str(out), "--axis", "alpha") == 0
        with open(out / "sweep.csv") as f:
            rows = {r["axis_value"]: r for r in csv.DictReader(f)}
        assert rows["-1.0"]["error"]  # invalid point recorded, sweep continued
        assert rows["0.0"]["damped"] == "true" and not rows["0.0"]["error"]
        assert rows["0.1"]["damped"] == "false" and not rows["0.1"]["error"]

    def test_samples_sweep_row_count(self, tmp_path):
        cfg = write_cfg(tmp_path, {"sweep_samples": [8, 16, 24]})
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", cfg, "--out", str(out), "--axis", "samples") == 0
        with open(out / "sweep.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 3 * 2  # three values x two methods

    @pytest.mark.parametrize("axis", ["bits", "alpha", "samples"])
    def test_matches_from_scratch_oracle(self, tmp_path, axis):
        """Byte-identical to regenerating the problem at every point."""
        cfg = write_cfg(
            tmp_path,
            {
                "k": 3,
                "dims": [32, 48, 48, 16],
                "train_samples": 64,
                "merge.method": "ties",
                "sweep_bits": [3, 4],
                "sweep_alpha": [-1.0, 0.0, 0.1],
                "sweep_samples": [0, 16, 32],
                "sweep_methods": ["rtn", "gptq", "epmq"],
            },
        )
        oracle = tmp_path / "oracle"
        sweep_from_scratch(load_config(cfg, [], env={}), oracle, axis)
        expected = dir_hashes(oracle)
        expected.pop("sweep.csv")
        assert sum(name.endswith("run.json") for name in expected) >= 6
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", cfg, "--out", str(out), "--axis", axis) == 0
        got = dir_hashes(out)
        got.pop("sweep.csv")
        assert got == expected
        assert strip_wall_time(out / "sweep.csv") == strip_wall_time(oracle / "sweep.csv")

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("axis, problems", [("bits", 1), ("alpha", 1), ("samples", 3)])
    def test_one_problem_per_generation_config(self, tmp_path, monkeypatch, axis, problems, k):
        calls = count_calls(monkeypatch, "make_synthetic_tasks", "apply_merge")
        cfg = write_cfg(
            tmp_path,
            {"k": k, "sweep_bits": [3, 4], "sweep_alpha": [0.0, 0.1], "sweep_samples": [8, 16, 24]},
        )
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", cfg, "--out", str(out), "--axis", axis) == 0
        assert calls == {"make_synthetic_tasks": problems, "apply_merge": problems}
        with open(out / "sweep.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2 * (3 if axis == "samples" else 2)
        assert not any(r["error"] for r in rows)

    def test_failed_points_get_error_rows(self, tmp_path, monkeypatch):
        """An invalid value and a problem that fails to generate each cost only their points."""
        real = pmq.cli.make_synthetic_tasks

        def generate(**kwargs):
            if kwargs["samples_per_task"] == 8:
                raise ValueError("generator failed")
            return real(**kwargs)

        monkeypatch.setattr(pmq.cli, "make_synthetic_tasks", generate)
        calls = count_calls(monkeypatch, "make_synthetic_tasks")
        cfg = write_cfg(tmp_path, {"sweep_samples": [0, 8, 16]})
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", cfg, "--out", str(out), "--axis", "samples") == 0
        assert calls == {"make_synthetic_tasks": 2}  # value 0 never reaches generation
        with open(out / "sweep.csv") as f:
            rows = list(csv.DictReader(f))
        assert [(r["axis_value"], r["method"]) for r in rows] == [
            (v, m) for v in ("0", "8", "16") for m in ("epmq", "gptq")
        ]
        for r in rows[:2]:
            assert r["error"] == "ConfigError: sample counts must be >= 1" and not r["macro_mse"]
        for r in rows[2:4]:
            assert r["error"] == "ValueError: generator failed" and not r["macro_mse"]
        for r in rows[4:]:
            assert not r["error"] and float(r["macro_mse"]) > 0
        assert sorted(p.parent.name for p in out.glob("sweep/*/*/run.json")) == ["epmq", "gptq"]


class TestSweepAfterGen:
    """`sweep` loads the problem `gen` wrote to --out when gen's record matches."""

    CFG = {"sweep_bits": [3, 4], "sweep_alpha": [0.0, 0.1], "sweep_samples": [8, 32, 16]}

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("axis, generated", [("bits", 0), ("alpha", 0), ("samples", 2)])
    def test_reuse_changes_no_output(self, tmp_path, monkeypatch, axis, generated, k):
        """Only the group whose inputs equal the record loads; samples_per_task is 32."""
        cfg = write_cfg(tmp_path, {**self.CFG, "k": k})
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        args = ("--config", cfg, "--axis", axis)
        assert run_cli("sweep", "--out", str(fresh), *args) == 0
        assert run_cli("gen", "--config", cfg, "--out", str(reused)) == 0
        recorded = json.loads((reused / "problem.json").read_text())
        assert recorded == pmq.cli._problem_inputs(load_config(cfg, [], env={}))
        calls = count_calls(monkeypatch, "make_synthetic_tasks")
        assert run_cli("sweep", "--out", str(reused), *args) == 0
        assert calls == {"make_synthetic_tasks": generated}
        assert dir_hashes(reused / "sweep") == dir_hashes(fresh / "sweep")
        rows = strip_wall_time(reused / "sweep.csv")
        assert rows == strip_wall_time(fresh / "sweep.csv")
        assert len(rows) == 2 * len(self.CFG[f"sweep_{axis}"])
        assert not any(r["error"] for r in rows)

    @pytest.mark.parametrize("change", ["set", "env"])
    def test_record_of_another_problem_regenerates(self, tmp_path, monkeypatch, change):
        cfg = write_cfg(tmp_path, self.CFG)
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        assert run_cli("gen", "--config", cfg, "--out", str(reused)) == 0
        extra = ("--set", "train_steps=39") if change == "set" else ()
        if change == "env":
            monkeypatch.setenv("PMQ_SEED", "124")
        args = ("--config", cfg, "--axis", "bits", *extra)
        assert run_cli("sweep", "--out", str(fresh), *args) == 0
        calls = count_calls(monkeypatch, "make_synthetic_tasks")
        assert run_cli("sweep", "--out", str(reused), *args) == 0
        assert calls == {"make_synthetic_tasks": 1}
        assert dir_hashes(reused / "sweep") == dir_hashes(fresh / "sweep")
        assert strip_wall_time(reused / "sweep.csv") == strip_wall_time(fresh / "sweep.csv")

    def test_failed_gen_leaves_no_record(self, tmp_path, monkeypatch, capsys):
        cfg = write_cfg(tmp_path, self.CFG)
        out = tmp_path / "out"
        assert run_cli("gen", "--config", cfg, "--out", str(out)) == 0

        def failing(calib, directory):
            raise OSError(28, "No space left on device")

        # the second gen writes base and experts of another problem, then fails
        monkeypatch.setattr(pmq.cli, "save_calib_set", failing)
        capsys.readouterr()
        assert run_cli("gen", "--config", cfg, "--out", str(out), "--set", "train_steps=39") == 4
        assert "No space left on device" in capsys.readouterr().err
        assert not (out / "problem.json").exists()
        calls = count_calls(monkeypatch, "make_synthetic_tasks")
        assert run_cli("sweep", "--config", cfg, "--out", str(out), "--axis", "bits") == 0
        assert calls == {"make_synthetic_tasks": 1}

    def test_unreadable_problem_file_is_an_error_row(self, tmp_path, monkeypatch):
        """A matching record with a corrupt file: error rows, never a silent regeneration."""
        cfg = write_cfg(tmp_path, self.CFG)
        out = tmp_path / "out"
        assert run_cli("gen", "--config", cfg, "--out", str(out)) == 0
        path = out / "calib" / "task1.safetensors"
        path.write_bytes(b"\xff" * 32)
        calls = count_calls(monkeypatch, "make_synthetic_tasks")
        assert run_cli("sweep", "--config", cfg, "--out", str(out), "--axis", "bits") == 0
        assert calls == {"make_synthetic_tasks": 0}
        with open(out / "sweep.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 4
        for r in rows:
            assert r["error"].startswith(f"TruncatedPayloadError: {path}: header length")
            assert not r["macro_mse"]
        assert not (out / "sweep").exists()


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"bogus_key": 1}))
        assert run_cli("gen", "--config", str(path), "--out", str(tmp_path / "o")) == 2

    @pytest.mark.parametrize("seed", ['"x"', "1.5", "-1", "true"])
    def test_seed_not_a_non_negative_integer_is_2(self, tmp_path, capsys, seed):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli("gen", "--config", cfg, "--out", str(out), "--set", f"seed={seed}") == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "seed must be a non-negative integer" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"dims": [8.0, 4.0]},
            {"k": 2.0},
            {"k": True},
            {"samples_per_task": 16.0},
            {"heldout_samples": 1e9},
            {"dims": [8, 4], "train_steps": "x"},
            {"train_samples": 64.0},
            {"train_samples": -1},
            {"quant.bits": 4.5},
            {"quant.group_size": 2.5},
        ],
        ids=lambda o: ",".join(f"{k}={v!r}" for k, v in o.items()),
    )
    def test_count_not_a_valid_integer_is_2(self, tmp_path, capsys, overrides):
        cfg = write_cfg(tmp_path, overrides)
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli("gen", "--config", cfg, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "config error" in err and "integer" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"sweep_bits": [4.5]},
            {"sweep_bits": [3, True]},
            {"sweep_bits": 4},
            {"sweep_samples": [8.7]},
            {"sweep_samples": ["64"]},
        ],
        ids=lambda o: ",".join(f"{k}={v!r}" for k, v in o.items()),
    )
    def test_sweep_entry_not_an_integer_is_2(self, tmp_path, capsys, overrides):
        cfg = write_cfg(tmp_path, overrides)
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli("sweep", "--config", cfg, "--out", str(out), "--axis", "bits") == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "config error" in err and "integers" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"learning_rate": "x"},
            {"learning_rate": True},
            {"teacher_scale": "x"},
            {"teacher_scale": None},
            {"sweep_alpha": [0.1, "x"]},
            {"sweep_alpha": [False]},
        ],
        ids=lambda o: ",".join(f"{k}={v!r}" for k, v in o.items()),
    )
    def test_rate_or_scale_not_a_real_number_is_2(self, tmp_path, capsys, overrides):
        cfg = write_cfg(tmp_path, overrides)
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli("gen", "--config", cfg, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "config error" in err and "real number" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "sets",
        [
            ["quant.alpha=NaN"],
            ["quant.alpha=Infinity"],
            ["quant.alpha=true"],
            ["quant.solver=rtn", 'quant.percdamp="x"'],
            ["merge.method=average", 'merge.coefficient="x"'],
            ["merge.density=NaN"],
            ["learning_rate=-Infinity"],
            ["sweep_alpha=[0.1,NaN]"],
        ],
        ids=lambda sets: ",".join(sets),
    )
    def test_float_not_a_finite_real_number_is_2(self, tmp_path, capsys, sets):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        capsys.readouterr()
        args = [arg for item in sets for arg in ("--set", item)]
        assert run_cli("gen", "--config", cfg, "--out", str(out), *args) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "must be a finite real number" in err
        assert not out.exists()

    def test_non_finite_generation_is_3_and_writes_nothing(self, tmp_path, capsys):
        """A finite but diverging learning rate trained non-finite experts."""
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        capsys.readouterr()
        args = ("--config", cfg, "--out", str(out), "--set", "learning_rate=1e308")
        assert run_cli("gen", *args) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "numeric failure: expert 1: layer1.weight is not finite" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "sets, message",
        [
            (["learning_rate=1e308"], "expert 1: layer1.weight is not finite"),
            (["teacher_scale=1e300"], "expert 1: layer1.weight is not finite"),
            (["teacher_scale=1e300", "expert_mode=perturb"], "held-out targets of task 1"),
        ],
        ids=["diverging-training", "outsized-teacher-train", "outsized-teacher-perturb"],
    )
    def test_non_finite_generation_prints_only_its_error(self, tmp_path, sets, message):
        """No numpy warning precedes the error, in a fresh interpreter's stderr."""
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        args = [arg for item in sets for arg in ("--set", item)]
        done = subprocess.run(
            [sys.executable, "-m", "pmq.cli", "gen", "--config", cfg, "--out", str(out), *args],
            env=subprocess_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        lines = done.stderr.splitlines()
        assert done.returncode == 3 and len(lines) == 1, done.stderr
        assert lines[0].startswith(f"pmq: numeric failure: {message}")
        assert not out.exists()

    def test_integer_rates_and_alphas_are_real_numbers(self):
        cfg = config_from_dict(
            {"learning_rate": 1, "teacher_scale": 0, "sweep_alpha": [0, 1, 0.5]}
        )
        assert (cfg.learning_rate, cfg.teacher_scale, cfg.sweep_alpha) == (1, 0, [0, 1, 0.5])

    def test_missing_input_is_4(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert run_cli("eval", "--config", cfg, "--out", str(tmp_path / "empty")) == 4

    def test_numeric_failure_is_3(self, tmp_path):
        cfg = write_cfg(tmp_path, {"quant.solver": "gptq"})
        out = tmp_path / "out"
        run_cli("gen", "--config", cfg, "--out", str(out))
        run_cli("merge", "--config", cfg, "--out", str(out))
        # corrupt the calibration inputs with enormous finite values so the
        # curvature accumulation overflows
        task1 = out / "calib" / "task1.safetensors"
        tensors, _ = read_tensor_file(task1)
        tensors["inputs"] = np.full_like(tensors["inputs"], 1e200)
        write_tensor_file(task1, tensors)
        assert run_cli("quantize", "--config", cfg, "--out", str(out)) == 3

    @pytest.mark.parametrize(
        "command, solver, removed, overrides",
        [
            ("quantize", "epmq", ["expert2"], []),
            ("quantize", "gptq", ["expert1"], []),
            ("quantize", "epmq", ["expert1", "expert2"], []),
            ("quantize", "epmq", [], ["k=3"]),
            ("quantize", "epmq", [], ["k=1"]),
            ("merge", "epmq", ["expert2"], []),
            ("merge", "epmq", [], ["k=3"]),
        ],
        ids=[
            "epmq-removed0-overrides0",
            "gptq-removed1-overrides1",
            "epmq-removed2-overrides2",
            "epmq-removed3-overrides3",
            "epmq-removed4-overrides4",
            "merge-expert2-removed",
            "merge-k3",
        ],
    )
    def test_expert_files_not_matching_k_is_2(
        self, tmp_path, capsys, command, solver, removed, overrides
    ):
        cfg = write_cfg(tmp_path, {"quant.solver": solver})
        out = tmp_path / "out"
        run_cli("gen", "--config", cfg, "--out", str(out))
        if command == "quantize":
            run_cli("merge", "--config", cfg, "--out", str(out))
        for name in removed:
            (out / f"{name}.safetensors").unlink()
        capsys.readouterr()
        sets = [arg for item in overrides for arg in ("--set", item)]
        assert run_cli(command, "--config", cfg, "--out", str(out), *sets) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "config error" in err
        for name in removed + (["expert3"] if overrides == ["k=3"] else []):
            assert f"{name}.safetensors" in err
        written = "quantized" if command == "quantize" else "merged"
        assert not (out / f"{written}.safetensors").exists()

    @pytest.mark.parametrize(
        "command, solver, tensor, files, rows, message",
        [
            # one task file changed: the tasks do not stack, and loading names the next file
            ("quantize", "gptq", "calib/inputs", "task1", 5,
             "task2.safetensors: tensor 'inputs' has 8 rows where task1.safetensors has 5"),
            ("quantize", "rtn", "calib/inputs", "task1", 5,
             "task2.safetensors: tensor 'inputs' has 8 rows where task1.safetensors has 5"),
            ("eval", "gptq", "heldout/inputs", "task1", 5,
             "task2.safetensors: tensor 'inputs' has 8 rows where task1.safetensors has 5"),
            ("eval", "gptq", "heldout/targets", "task1", None,
             "task2.safetensors: tensor 'targets' has 6 rows where task1.safetensors has no"),
            ("eval", "gptq", "heldout/targets", "task1", 4,
             "task2.safetensors: tensor 'targets' has 6 rows where task1.safetensors has 4"),
            # every task file changed: the tasks stack but do not fit the model
            ("quantize", "gptq", "calib/inputs", "task*", 5,
             "calibration inputs have 5 rows, layer 1 has d_in=8"),
            ("quantize", "rtn", "calib/inputs", "task*", 5,
             "calibration inputs have 5 rows, layer 1 has d_in=8"),
            ("eval", "gptq", "heldout/inputs", "task*", 5,
             "held-out inputs have 5 rows, layer 1 has d_in=8"),
            ("eval", "gptq", "heldout/targets", "task*", None, "held-out tasks have no targets"),
            ("eval", "gptq", "heldout/targets", "task*", 4,
             "held-out targets have 4 rows, the last layer has d_out=6"),
        ],
        ids=["calib-width-gptq", "calib-width-rtn", "heldout-width", "no-targets", "target-rows",
             "all-calib-width-gptq", "all-calib-width-rtn", "all-heldout-width",
             "all-no-targets", "all-target-rows"],
    )
    def test_data_not_matching_model_is_2(
        self, tmp_path, capsys, command, solver, tensor, files, rows, message
    ):
        cfg = write_cfg(tmp_path, {"quant.solver": solver})
        out = tmp_path / "out"
        for stage in ("gen", "merge", "quantize")[: 2 if command == "quantize" else 3]:
            assert run_cli(stage, "--config", cfg, "--out", str(out)) == 0
        subdir, name = tensor.split("/")
        for path in (out / subdir).glob(f"{files}.safetensors"):
            tensors, _ = read_tensor_file(path)
            if rows is None:
                del tensors[name]
            else:
                tensors[name] = tensors[name][:rows]
            write_tensor_file(path, tensors)
        before = dir_hashes(out)
        capsys.readouterr()
        assert run_cli(command, "--config", cfg, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "config error" in err and message in err
        assert files != "task1" or f"{out / subdir / 'task2.safetensors'}: " in err
        # no quantized.safetensors or run.json, no metrics.csv, run.json untouched
        assert dir_hashes(out) == before

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_sweep_jobs_below_one_is_2(self, tmp_path, capsys, jobs):
        """--jobs is no flag (sweep points run in process): argparse's usage error."""
        cfg = write_cfg(tmp_path, {"sweep_bits": [4], "sweep_methods": ["rtn"]})
        out = tmp_path / "out"
        capsys.readouterr()
        args = ("--config", cfg, "--out", str(out), "--axis", "bits", "--jobs", jobs)
        with pytest.raises(SystemExit) as exited:
            run_cli("sweep", *args)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.startswith("usage: pmq")
        assert f"unrecognized arguments: --jobs {jobs}" in err
        assert not out.exists()

    def test_sweep_jobs_flag_exits_2_with_usage(self, tmp_path):
        cfg = write_cfg(tmp_path, {"sweep_bits": [4], "sweep_methods": ["rtn"]})
        out = tmp_path / "out"
        args = ("--config", cfg, "--out", str(out), "--axis", "bits", "--jobs", "2")
        done = subprocess.run(
            [sys.executable, "-m", "pmq.cli", "sweep", *args],
            env=subprocess_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("usage: pmq") and "Traceback" not in done.stderr
        assert "unrecognized arguments: --jobs 2" in done.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, tensor, corrupt, message",
        [
            ("eval", "heldout/targets", lambda t: t[:, :5], "tensor 'targets' has shape [6, 5]"),
            ("quantize", "calib/inputs", lambda t: t.ravel(), "tensor 'inputs' must be (d, n>=1)"),
            # non-finite values are refused by the tensor reader itself
            ("quantize", "calib/inputs", lambda t: np.where(t > 0, np.nan, t),
             "tensor 'inputs' contains non-finite values"),
            ("eval", "heldout/targets", lambda t: np.where(t > 0, np.inf, t),
             "tensor 'targets' contains non-finite values"),
            ("quantize", "calib/inputs", None, "no tensor 'inputs'"),
        ],
        ids=["target-columns", "inputs-1d", "calib-nan", "targets-inf", "no-inputs"],
    )
    def test_malformed_task_file_is_4(self, tmp_path, capsys, command, tensor, corrupt, message):
        cfg = write_cfg(tmp_path, {"quant.solver": "gptq"})
        out = tmp_path / "out"
        for stage in ("gen", "merge", "quantize")[: 2 if command == "quantize" else 3]:
            assert run_cli(stage, "--config", cfg, "--out", str(out)) == 0
        subdir, name = tensor.split("/")
        path = out / subdir / "task1.safetensors"
        tensors, _ = read_tensor_file(path)
        if corrupt is None:
            del tensors[name]
        else:
            tensors[name] = corrupt(tensors[name])
        write_tensor_file(path, tensors)
        before = dir_hashes(out)
        capsys.readouterr()
        assert run_cli(command, "--config", cfg, "--out", str(out)) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err and "i/o failure" in err
        assert f"{path}: {message}" in err
        assert dir_hashes(out) == before

    def test_incomplete_calib_index_is_4(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        run_cli("gen", "--config", cfg, "--out", str(out))
        run_cli("merge", "--config", cfg, "--out", str(out))
        (out / "calib" / "index.json").write_text('{"seed": 123}')
        capsys.readouterr()
        assert run_cli("quantize", "--config", cfg, "--out", str(out)) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err and "'K'" in err

    @pytest.mark.parametrize(
        "command, solver, directory",
        [
            ("quantize", "gptq", "calib"),
            ("quantize", "rtn", "calib"),
            ("eval", "epmq", "heldout"),
        ],
    )
    def test_empty_task_set_is_4(self, tmp_path, capsys, command, solver, directory):
        cfg = write_cfg(tmp_path, {"quant.solver": solver})
        out = tmp_path / "out"
        for cmd in ("gen", "merge", "quantize"):
            run_cli(cmd, "--config", cfg, "--out", str(out))
        index = out / directory / "index.json"
        index.write_text('{"K": 0, "samples_per_task": 4}')
        if directory == "heldout":
            for path in out.glob("expert*.safetensors"):
                path.unlink()
        before = dir_hashes(out)
        capsys.readouterr()
        assert run_cli(command, "--config", cfg, "--out", str(out)) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err and f"{index}: malformed index: K=0" in err
        assert dir_hashes(out) == before

    @pytest.mark.parametrize(
        "command, directory, samples", [("quantize", "calib", 32), ("eval", "heldout", 64)]
    )
    def test_task_width_not_samples_per_task_is_4(
        self, tmp_path, capsys, command, directory, samples
    ):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        for cmd in ("gen", "merge", "quantize")[: 2 if command == "quantize" else 3]:
            assert run_cli(cmd, "--config", cfg, "--out", str(out)) == 0
        path = out / directory / "task2.safetensors"
        tensors, _ = read_tensor_file(path)
        write_tensor_file(path, {name: t[:, :5] for name, t in tensors.items()})
        before = dir_hashes(out)
        capsys.readouterr()
        assert run_cli(command, "--config", cfg, "--out", str(out)) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err and "i/o failure" in err
        assert f"{path}: 5 samples, index.json has {samples}" in err
        assert dir_hashes(out) == before

    def test_tensor_not_matching_its_sidecar_is_4(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        run_cli("gen", "--config", cfg, "--out", str(out))
        path = out / "base.safetensors"
        tensors, _ = read_tensor_file(path)
        tensors["layer1.weight"] = tensors["layer1.weight"][:5]
        write_tensor_file(path, tensors)
        capsys.readouterr()
        assert run_cli("merge", "--config", cfg, "--out", str(out)) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err and "i/o failure" in err
        assert f"{path}: tensor 'layer1.weight' has shape [5, 8], manifest declares [12, 8]" in err
        assert not (out / "merged.safetensors").exists()

    def test_quantized_model_as_checkpoint_is_4(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        for command in ("gen", "merge", "quantize"):
            assert run_cli(command, "--config", cfg, "--out", str(out)) == 0
        for suffix in (".safetensors", ".manifest.json"):
            (out / f"merged{suffix}").write_bytes((out / f"quantized{suffix}").read_bytes())
        before = dir_hashes(out)
        capsys.readouterr()
        assert run_cli("quantize", "--config", cfg, "--out", str(out)) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"i/o failure: {out / 'merged.safetensors'}: layer 'layer1' is quantized" in err
        assert dir_hashes(out) == before

    def test_model_weight_not_in_its_sidecar_dtype_is_4(self, tmp_path, capsys):
        """An F64 full-precision layer1.weight beside an f32 sidecar."""
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        run_cli("gen", "--config", cfg, "--out", str(out))
        path = out / "quantized.safetensors"
        save_model(Model.from_checkpoint(load_checkpoint(out / "base.safetensors")), path)
        sidecar = out / "quantized.manifest.json"
        sidecar.write_text(sidecar.read_text().replace('"dtype":"f64"', '"dtype":"f32"'))
        before = dir_hashes(out)
        capsys.readouterr()
        assert run_cli("eval", "--config", cfg, "--out", str(out)) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"i/o failure: {path}: tensor 'layer1.weight' has dtype float64" in err
        assert dir_hashes(out) == before

    def test_corrupt_tensor_file_is_4(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        run_cli("gen", "--config", cfg, "--out", str(out))
        (out / "base.safetensors").write_bytes(b"\xff" * 32)
        assert run_cli("merge", "--config", cfg, "--out", str(out)) == 4

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: text[:-3],
            lambda text: text.replace('"relu"', '"tanh"', 1),
        ],
        ids=["not-json", "bad-activation"],
    )
    def test_bad_manifest_sidecar_is_4(self, tmp_path, capsys, edit):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        run_cli("gen", "--config", cfg, "--out", str(out))
        sidecar = out / "base.manifest.json"
        sidecar.write_text(edit(sidecar.read_text()))
        capsys.readouterr()
        assert run_cli("merge", "--config", cfg, "--out", str(out)) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err and f"i/o failure: {sidecar}: bad manifest" in err
        assert not (out / "merged.safetensors").exists()

    @pytest.mark.parametrize("command", ["quantize", "merge"])
    def test_checkpoints_with_other_manifests_are_2(self, tmp_path, capsys, command):
        """Experts regenerated with other hidden dims meet a stale merge, or a stale expert3."""
        cfg = write_cfg(tmp_path, {"k": 2 if command == "quantize" else 3})
        out = tmp_path / "out"
        for stage in ("gen", "merge"):
            assert run_cli(stage, "--config", cfg, "--out", str(out)) == 0
        regen = ["--set", "dims=[8,14,10,6]", "--set", "k=2"]
        assert run_cli("gen", "--config", cfg, "--out", str(out), *regen) == 0
        before = dir_hashes(out)
        capsys.readouterr()
        assert run_cli(command, "--config", cfg, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "config error" in err and "manifest" in err
        assert dir_hashes(out) == before

    @pytest.mark.parametrize("rerun", [["gen", "merge"], ["gen"]])
    def test_eval_against_checkpoints_of_other_shapes_is_2(self, tmp_path, capsys, rerun):
        """gen (and merge) rerun with other hidden dims leave a model whose
        merged checkpoint or experts no longer fit it."""
        cfg = write_cfg(tmp_path, {"dims": [8, 16, 6]})
        out = tmp_path / "out"
        for stage in ("gen", "merge", "quantize", "eval"):
            assert run_cli(stage, "--config", cfg, "--out", str(out)) == 0
        for stage in rerun:
            assert run_cli(stage, "--config", cfg, "--out", str(out), "--set", "dims=[8,12,6]") == 0
        before = dir_hashes(out)
        capsys.readouterr()
        assert run_cli("eval", "--config", cfg, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        if "merge" in rerun:
            assert "disagree with the manifest of" in err and "merged.safetensors" in err
        else:
            assert "expert 1 does not share the quantized model's manifest" in err
        assert dir_hashes(out) == before

    @pytest.mark.parametrize(
        "command, compute",
        [("merge", "apply_merge"), ("quantize", "quantize"), ("eval", "evaluate_with_deviations")],
    )
    def test_dims_not_matching_the_checkpoint_is_2(
        self, tmp_path, capsys, monkeypatch, command, compute
    ):
        """A stage run with other dims than `gen` used stops before its first compute."""
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        stages = ("gen", "merge", "quantize")
        for stage in stages[: ("merge", "quantize", "eval").index(command) + 1]:
            assert run_cli(stage, "--config", cfg, "--out", str(out)) == 0
        before = dir_hashes(out)

        def must_not_run(*args, **kwargs):
            raise AssertionError(f"{compute} ran")

        monkeypatch.setattr(pmq.cli, compute, must_not_run)
        capsys.readouterr()
        assert run_cli(command, "--config", cfg, "--out", str(out), "--set", "dims=[8,12,6]") == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "config error: config dims [8, 12, 6] disagree with the manifest of" in err
        assert "[8, 12, 10, 6]" in err
        assert dir_hashes(out) == before

    def test_unknown_hidden_activation_is_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"hidden_activation": "tanh"})
        capsys.readouterr()
        assert run_cli("gen", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "unknown activation 'tanh'" in err
        assert not (tmp_path / "o").exists()

    def test_gptq_without_calibration_is_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"quant.solver": "gptq"})
        out = tmp_path / "out"
        for stage in ("gen", "merge"):
            assert run_cli(stage, "--config", cfg, "--out", str(out)) == 0
        for p in (out / "calib").iterdir():
            p.unlink()
        (out / "calib").rmdir()
        capsys.readouterr()
        assert run_cli("quantize", "--config", cfg, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "gptq requires a calibration set" in err
        assert not (out / "quantized.safetensors").exists()

    @pytest.mark.parametrize("how", ["set", "env"])
    def test_config_not_an_object_is_2(self, tmp_path, capsys, monkeypatch, how):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        args = ["gen", "--config", str(path), "--out", str(tmp_path / "o")]
        if how == "set":
            args += ["--set", "a=1"]
        else:
            monkeypatch.setenv("PMQ_SEED", "3")
        capsys.readouterr()
        assert run_cli(*args) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "config must be a JSON object" in err
        assert not (tmp_path / "o").exists()


def pmq_namespaces():
    return [m for name, m in sorted(sys.modules.items()) if name == "pmq" or name.startswith("pmq.")]


class TestAtomicWrites:
    def test_every_file_goes_through_the_atomic_writer(self, tmp_path, monkeypatch):
        written = []
        real = pmq.tensorfile.write_atomic

        def recording(path, data):
            written.append(Path(path).resolve())
            return real(path, data)

        for module in pmq_namespaces():
            for attr, obj in list(vars(module).items()):
                if obj is real:
                    monkeypatch.setattr(module, attr, recording)
        cfg = write_cfg(tmp_path, {"sweep_bits": [3, 4]})
        out = tmp_path / "out"
        for cmd in ("gen", "merge", "quantize", "eval", "sweep"):
            extra = ("--axis", "bits") if cmd == "sweep" else ()
            assert run_cli(cmd, "--config", cfg, "--out", str(out), *extra) == 0
        files = {p.resolve() for p in out.rglob("*") if p.is_file()}
        assert len(files) > 20 and set(written) == files

    def test_failed_rewrite_keeps_previous_file_and_no_temp(self, tmp_path, capsys, monkeypatch):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        for cmd in ("gen", "merge", "quantize", "eval"):
            assert run_cli(cmd, "--config", cfg, "--out", str(out)) == 0
        before = dir_hashes(out)
        failed = []

        class HalfWrite:
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.f.write(data[: len(data) // 2])
                self.f.flush()
                failed.append(self.f.name)
                raise OSError(28, "No space left on device")

        def failing_open(path, mode="r", *args, **kwargs):
            f = open(path, mode, *args, **kwargs)
            return HalfWrite(f) if Path(path).name.startswith(".run.json.") else f

        monkeypatch.setattr(pmq.tensorfile, "open", failing_open, raising=False)
        capsys.readouterr()
        assert run_cli("eval", "--config", cfg, "--out", str(out)) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err and "No space left on device" in err
        assert len(failed) == 1
        # run.json is the one eval wrote before; no temp file is left behind
        assert dir_hashes(out) == before

    def test_failed_replace_during_quantize_keeps_the_previous_run(
        self, tmp_path, capsys, monkeypatch
    ):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        for cmd in ("gen", "merge", "quantize"):
            assert run_cli(cmd, "--config", cfg, "--out", str(out)) == 0
        before = dir_hashes(out)
        attempts = []

        def failing_replace(src, dst):
            attempts.append(Path(dst).name)
            raise PermissionError(13, "Permission denied", str(dst))

        monkeypatch.setattr(pmq.tensorfile.os, "replace", failing_replace)
        capsys.readouterr()
        # another bit width, so that a completed rewrite would change both files
        args = ("--config", cfg, "--out", str(out), "--set", "quant.bits=3")
        assert run_cli("quantize", *args) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err and "i/o failure" in err and "Permission denied" in err
        assert attempts == ["quantized.safetensors"]
        assert not list(out.rglob(".*.tmp"))
        assert dir_hashes(out) == before

    def test_run_json_left_behind_by_a_failed_rerun_fails_eval(
        self, tmp_path, capsys, monkeypatch
    ):
        """A rerun whose last write, run.json, fails leaves a new model beside the
        old record; the record's model_sha256 no longer matches, so eval exits 4."""
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        for cmd in ("gen", "merge", "quantize"):
            assert run_cli(cmd, "--config", cfg, "--out", str(out)) == 0
        model_path, run_path = out / "quantized.safetensors", out / "run.json"
        recorded = json.loads(run_path.read_text())["model_sha256"]
        assert recorded == hashlib.sha256(model_path.read_bytes()).hexdigest()
        old_model, old_run = model_path.read_bytes(), run_path.read_bytes()
        real = pmq.tensorfile.os.replace

        def failing_for_run_json(src, dst):
            if Path(dst).name == "run.json":
                raise PermissionError(13, "Permission denied", str(dst))
            return real(src, dst)

        monkeypatch.setattr(pmq.tensorfile.os, "replace", failing_for_run_json)
        args = ("--config", cfg, "--out", str(out), "--set", "quant.bits=3")
        assert run_cli("quantize", *args) == 4
        monkeypatch.undo()
        assert model_path.read_bytes() != old_model and run_path.read_bytes() == old_run
        before = dir_hashes(out)
        capsys.readouterr()
        assert run_cli("eval", *args) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err and "does not describe" in err and recorded in err
        assert dir_hashes(out) == before  # no metrics.csv, run.json untouched
        # a completed rerun pairs them again
        assert run_cli("quantize", *args) == 0
        assert run_cli("eval", *args) == 0

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", '{"method": "epmq"}'])
    def test_eval_of_an_unreadable_run_json_is_4(self, tmp_path, capsys, text):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        for cmd in ("gen", "merge", "quantize"):
            assert run_cli(cmd, "--config", cfg, "--out", str(out)) == 0
        (out / "run.json").write_text(text)
        capsys.readouterr()
        assert run_cli("eval", "--config", cfg, "--out", str(out)) == 4
        assert "Traceback" not in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()


PIPELINE_SCRIPT = """
import sys
from pmq.cli import main
cfg, out = sys.argv[1:]
for command in ("gen", "merge", "quantize"):
    code = main([command, "--config", cfg, "--out", out])
    if code:
        sys.exit(code)
"""


def run_pipeline_with_blas_threads(cfg, out, threads):
    """gen -> merge -> quantize in a fresh interpreter with a fixed BLAS thread count."""
    subprocess.run(
        [sys.executable, "-c", PIPELINE_SCRIPT, cfg, str(out)],
        env=subprocess_env(threads),
        check=True,
        timeout=300,
    )
    return (out / "quantized.safetensors").read_bytes(), (out / "run.json").read_bytes()


def assert_json_close(a, b, rtol, path="run.json"):
    """Same structure and non-float values; floats equal to rtol relative."""
    assert type(a) is type(b), path
    if isinstance(a, dict):
        assert sorted(a) == sorted(b), path
        for key in a:
            assert_json_close(a[key], b[key], rtol, f"{path}.{key}")
    elif isinstance(a, list):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_json_close(x, y, rtol, f"{path}[{i}]")
    elif isinstance(a, float):
        assert abs(a - b) <= rtol * max(abs(a), abs(b)), f"{path}: {a!r} vs {b!r}"
    else:
        assert a == b, path


class TestDeterminism:
    def test_blas_thread_counts(self, tmp_path):
        """Byte-identical at one thread count; across counts only run.json floats may move."""
        cfg = write_cfg(
            tmp_path,
            {
                "dims": [256, 256, 32],
                "samples_per_task": 512,
                "heldout_samples": 8,
                "expert_mode": "perturb",
            },
        )
        model_1a, run_1a = run_pipeline_with_blas_threads(cfg, tmp_path / "t1a", 1)
        model_1b, run_1b = run_pipeline_with_blas_threads(cfg, tmp_path / "t1b", 1)
        model_2, run_2 = run_pipeline_with_blas_threads(cfg, tmp_path / "t2", 2)
        assert model_1a == model_1b == model_2
        assert run_1a == run_1b
        assert_json_close(json.loads(run_1a), json.loads(run_2), rtol=1e-12)
