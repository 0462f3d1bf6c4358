"""Corrupted inputs end every pmq command with a documented exit code.

Each example copies one generated, merged, quantized and evaluated run
directory, corrupts one input (the calibration index, a quantized layer's
attrs or tensors, a manifest sidecar, or a --set config value) and runs the
command that reads it. The command must exit with 2, 3 or 4, print no
traceback, leave no temp file and rewrite no file.
"""

import contextlib
import io
import json
import shutil
import tempfile
import traceback
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pmq.cli import main
from pmq.tensorfile import read_tensor_file, write_tensor_file

from test_cli import FIXTURE_CFG, dir_hashes

FUZZ = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# JSON values that are no count, flag or name pmq accepts: text of none of its
# words' letters, non-empty lists and objects, null, booleans and numbers
JUNK_TEXT = st.text(alphabet="xyz!#", min_size=1, max_size=6)
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**12), 10**12),
    st.floats(),
    JUNK_TEXT,
    st.lists(JUNK_TEXT, min_size=1, max_size=2),
    st.dictionaries(JUNK_TEXT, st.integers(), min_size=1, max_size=2),
)


def differs(value, original) -> bool:
    """value is another JSON value than original (1, 1.0 and true are three)."""
    return type(value) is not type(original) or value != original


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    """A directory after gen, merge, quantize (epmq) and eval, with its config."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(FIXTURE_CFG))
    out = root / "out"
    for command in ("gen", "merge", "quantize", "eval"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    return cfg, out


def run_corrupted(prepared, corrupt, command, *extra):
    """Copy the prepared run, corrupt it, run `command`; assert the documented failure."""
    cfg, source = prepared
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        shutil.copytree(source, out)
        corrupt(out)
        before = dir_hashes(out)
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                code = main([command, "--config", str(cfg), "--out", str(out), *extra])
        except Exception:
            code = 1
            err.write(traceback.format_exc())
        text = err.getvalue()
        assert code in (2, 3, 4) and "Traceback" not in text, f"exit {code}: {text}"
        assert not list(out.rglob(".*.tmp"))
        assert dir_hashes(out) == before


def edit_json(path: Path, edit) -> None:
    obj = json.loads(path.read_text())
    path.write_text(json.dumps(edit(obj)))


INDEX = {"K": 2, "samples_per_task": 32, "seed": 123}


@FUZZ
@given(key=st.sampled_from(sorted(INDEX)), value=JUNK, drop=st.booleans())
@example(key="seed", value="x", drop=False)
@example(key="K", value=float("inf"), drop=False)
def test_corrupted_calib_index(prepared, key, value, drop):
    """A count dropped or made another value, or a seed made a non-integer."""
    valid_seed = key == "seed" and (drop or value is None or type(value) is int)
    if valid_seed or not (drop or differs(value, INDEX[key])):
        return

    def corrupt(out):
        def edit(index):
            if drop:
                del index[key]
            else:
                index[key] = value
            return index

        edit_json(out / "calib" / "index.json", edit)

    run_corrupted(prepared, corrupt, "quantize")


QUANT_ATTRS = {"bits": 4, "group_size": 128}


@FUZZ
@given(
    layer=st.sampled_from(["layer1", "layer2", "layer3"]),
    key=st.sampled_from(sorted(QUANT_ATTRS)),
    value=JUNK,
)
@example(layer="layer2", key="bits", value=9)
@example(layer="layer2", key="bits", value=3)
@example(layer="layer1", key="bits", value="x")
@example(layer="layer3", key="group_size", value=0)
def test_corrupted_quant_attrs(prepared, layer, key, value):
    """A quantized layer's bits or group size made another value."""
    # any positive group size gives these layers (d_in <= 12) the one group they have
    valid_group_size = key == "group_size" and type(value) is int and value > 0
    if valid_group_size or not differs(value, QUANT_ATTRS[key]):
        return

    def corrupt(out):
        (out / "run.json").unlink()  # so the model file alone decides
        path = out / "quantized.safetensors"
        tensors, metadata = read_tensor_file(path)
        attrs = json.loads(metadata[f"{layer}.quant"])
        attrs[key] = value
        metadata[f"{layer}.quant"] = json.dumps(attrs)
        write_tensor_file(path, tensors, metadata=metadata)

    run_corrupted(prepared, corrupt, "eval")


@FUZZ
@given(
    layer=st.sampled_from(["layer1", "layer2", "layer3"]),
    part=st.sampled_from(["codes", "scales", "zeros"]),
    text=st.one_of(st.just(None), JUNK_TEXT, st.just("[4]"), st.just('{"bits": 4}')),
)
def test_corrupted_quantized_layer(prepared, layer, part, text):
    """A tensor cut short, or attrs that are no {bits, group_size} object."""

    def corrupt(out):
        (out / "run.json").unlink()
        path = out / "quantized.safetensors"
        tensors, metadata = read_tensor_file(path)
        if text is None:
            tensors[f"{layer}.{part}"] = tensors[f"{layer}.{part}"][:-1]
        else:
            metadata[f"{layer}.quant"] = text
        write_tensor_file(path, tensors, metadata=metadata)

    run_corrupted(prepared, corrupt, "eval")


MANIFESTS = {"base": "merge", "merged": "quantize", "quantized": "eval"}
MANIFEST_FIELDS = [(None, "version"), (None, "dtype"), (None, "layers")] + [
    (layer, key) for layer in range(3) for key in ("id", "d_in", "d_out", "activation", "has_bias")
]


@FUZZ
@given(
    name=st.sampled_from(sorted(MANIFESTS)),
    field=st.sampled_from(MANIFEST_FIELDS),
    value=JUNK,
)
def test_corrupted_manifest_sidecar(prepared, name, field, value):
    """One field of a sidecar, or of one of its layers, made another value."""
    layer, key = field
    sidecar = f"{name}.manifest.json"
    manifest = json.loads((prepared[1] / sidecar).read_text())
    if not differs(value, (manifest if layer is None else manifest["layers"][layer])[key]):
        return

    def corrupt(out):
        def edit(manifest):
            (manifest if layer is None else manifest["layers"][layer])[key] = value
            return manifest

        edit_json(out / sidecar, edit)

    run_corrupted(prepared, corrupt, MANIFESTS[name])


CONFIG_KEYS = [
    "seed", "k", "dims", "samples_per_task", "heldout_samples", "train_steps",
    "train_samples", "learning_rate", "teacher_scale", "expert_mode", "hidden_activation",
    "sweep_bits", "sweep_alpha", "sweep_samples", "sweep_methods", "merge", "quant",
    "merge.method", "merge.coefficient", "merge.density", "quant.bits", "quant.group_size",
    "quant.percdamp", "quant.alpha", "quant.solver", "quant.grid_source",
]
# values no config key accepts: finite numbers are valid for some keys; booleans,
# NaN and the infinities for none
CONFIG_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    JUNK_TEXT,
    st.lists(JUNK_TEXT, min_size=1, max_size=2),
    st.dictionaries(JUNK_TEXT, st.integers(), min_size=1, max_size=2),
)


@FUZZ
@given(key=st.sampled_from(CONFIG_KEYS), value=CONFIG_JUNK, raw=st.booleans())
@example(key="quant.alpha", value=float("nan"), raw=False)
@example(key="quant.percdamp", value=True, raw=False)
@example(key="merge.coefficient", value="x", raw=False)
def test_corrupted_config_value(prepared, key, value, raw):
    """A --set value of the wrong type; gen reads every key before its first write."""
    text = value if raw and isinstance(value, str) else json.dumps(value)
    run_corrupted(prepared, lambda out: None, "gen", "--set", f"{key}={text}")
