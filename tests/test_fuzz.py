"""Corrupted inputs end every pmq command with a documented exit code.

Each example copies one generated, merged, quantized and evaluated run
directory, corrupts one input (the calibration index, a task tensor file, a
quantized layer's attrs or tensors, a manifest sidecar, run.json, problem.json
or a --set config value) and runs the command that reads it. A failing
command must exit with 2, 3 or 4 and rewrite no file; no command may print a
traceback or leave a temp file.
"""

import contextlib
import io
import json
import shutil
import struct
import tempfile
import traceback
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pmq.cli import main
from pmq.tensorfile import read_tensor_file, write_tensor_file

from test_cli import FIXTURE_CFG, dir_hashes, strip_wall_time

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


def run_corrupted(prepared, corrupt, command, *extra, codes=(2, 3, 4), check=None):
    """Copy the prepared run, corrupt it, run `command`; assert an exit code in
    `codes`, and that a failure rewrote no file or a success passes `check(out)`."""
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
        assert code in codes and "Traceback" not in text, f"exit {code}: {text}"
        assert not list(out.rglob(".*.tmp"))
        if code != 0:
            assert dir_hashes(out) == before
        elif check is not None:
            check(out)


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


def read_header(path: Path) -> tuple[dict, bytes]:
    """A tensor file's JSON header and the payload bytes after it."""
    data = path.read_bytes()
    (length,) = struct.unpack("<Q", data[:8])
    return json.loads(data[8 : 8 + length]), data[8 + length :]


def edit_header(path: Path, edit) -> None:
    """Rewrite a tensor file's JSON header through `edit`, keeping its payload."""
    header, payload = read_header(path)
    blob = json.dumps(edit(header)).encode()
    path.write_bytes(struct.pack("<Q", len(blob)) + blob + payload)


TASK_FILES = {"calib": "quantize", "heldout": "eval"}
HEADER_JUNK = {
    "dtype": st.one_of(st.sampled_from(["F32", "U8", "I32"]), JUNK),
    "shape": st.one_of(
        st.lists(st.integers(0, 300), max_size=3),
        st.lists(st.sampled_from([2**63, 2**64 + 8, -1, True]), min_size=1, max_size=2),
        JUNK,
    ),
    "data_offsets": st.one_of(
        st.lists(st.integers(0, 8000), min_size=2, max_size=2),
        st.lists(st.sampled_from([2**64, -8, True]), min_size=2, max_size=2),
        JUNK,
    ),
}


@st.composite
def task_file_corruptions(draw):
    """(directory, task, tensor, how, detail): one way to damage a task tensor file."""
    directory = draw(st.sampled_from(sorted(TASK_FILES)))
    task = draw(st.sampled_from([1, 2]))
    tensor = draw(st.sampled_from(["inputs", "targets"] if directory == "heldout" else ["inputs"]))
    how = draw(st.sampled_from(["header", "truncate", "drop", "nan"]))
    if how == "header":
        key = draw(st.sampled_from(sorted(HEADER_JUNK)))
        detail = (key, draw(HEADER_JUNK[key]))
    elif how == "truncate":
        detail = draw(st.floats(0, 1, exclude_max=True))
    else:
        detail = draw(st.integers(0, 10**6))
    return directory, task, tensor, how, detail


@FUZZ
@given(case=task_file_corruptions())
@example(case=("heldout", 1, "targets", "header", ("data_offsets", [0, 3072])))
@example(case=("heldout", 1, "inputs", "header", ("data_offsets", [8, 4104])))
@example(case=("calib", 1, "inputs", "header", ("shape", [2**64, 0])))
@example(case=("calib", 2, "inputs", "header", ("shape", [True, 256])))
@example(case=("calib", 1, "inputs", "header", ("dtype", "U8")))
@example(case=("calib", 1, "inputs", "header", ("dtype", ["x"])))
@example(case=("heldout", 2, "inputs", "drop", 0))
def test_corrupted_task_file(prepared, case):
    """A task file's header entry made another value, the file cut short, its
    inputs dropped, or a NaN in its payload: quantize or eval exits 4."""
    directory, task, tensor, how, detail = case
    path_of = lambda out: out / directory / f"task{task}.safetensors"
    if how == "header":
        key, value = detail
        if not differs(value, read_header(path_of(prepared[1]))[0][tensor][key]):
            return

    def corrupt(out):
        path = path_of(out)
        if how == "header":
            edit_header(path, lambda header: {**header, tensor: {**header[tensor], key: value}})
        elif how == "truncate":
            data = path.read_bytes()
            path.write_bytes(data[: int(detail * len(data))])
        else:
            tensors, _ = read_tensor_file(path)
            if how == "drop":
                del tensors["inputs"]
            else:
                values = tensors[tensor].copy()
                values.flat[detail % values.size] = float("nan")
                tensors[tensor] = values
            write_tensor_file(path, tensors)

    run_corrupted(prepared, corrupt, TASK_FILES[directory], codes=(4,))


def damage_json(draw, original: dict):
    """A function that damages JSON text: cut it short, overwrite one byte, or
    set a top-level key to junk or drop it."""
    how = draw(st.sampled_from(["truncate", "byte", "value", "drop"]))
    if how in ("value", "drop"):
        key = draw(st.sampled_from(sorted(original)))
        value = draw(JUNK)

        def edit(obj):
            if how == "drop":
                del obj[key]
            else:
                obj[key] = value
            return obj

        return lambda data: json.dumps(edit(json.loads(data))).encode()
    at = draw(st.floats(0, 1, exclude_max=True))
    if how == "truncate":
        return lambda data: data[: int(at * len(data))]
    byte = draw(st.integers(0, 255))
    return lambda data: data[: int(at * len(data))] + bytes([byte]) + data[int(at * len(data)) + 1 :]


def records_sha(data: bytes, sha: str) -> bool:
    try:
        obj = json.loads(data)
    except ValueError:
        return False
    return isinstance(obj, dict) and obj.get("model_sha256") == sha


@FUZZ
@given(data=st.data())
def test_corrupted_run_json(prepared, data):
    """run.json cut short, a byte overwritten, or a key changed or dropped: eval
    exits 4 and leaves run.json and metrics.csv alone, or exits 0 when the
    model_sha256 it records survived."""
    original = (prepared[1] / "run.json").read_bytes()
    damaged = damage_json(data.draw, json.loads(original))(original)
    survived = records_sha(damaged, json.loads(original)["model_sha256"])
    corrupt = lambda out: (out / "run.json").write_bytes(damaged)
    run_corrupted(prepared, corrupt, "eval", codes=(0, 4) if survived else (4,))


SWEEP_ARGS = ("--axis", "bits", "--set", "sweep_bits=[4]", "--set", 'sweep_methods=["rtn","epmq"]')


@pytest.fixture(scope="module")
def clean_sweep(prepared):
    """sweep.csv rows of the sweep on the uncorrupted run, which loads the recorded problem."""
    cfg, source = prepared
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        shutil.copytree(source, out)
        assert main(["sweep", "--config", str(cfg), "--out", str(out), *SWEEP_ARGS]) == 0
        return strip_wall_time(out / "sweep.csv")


@settings(FUZZ, max_examples=15)
@given(data=st.data())
def test_corrupted_problem_record(prepared, clean_sweep, data):
    """problem.json damaged: sweep treats the record as absent, regenerates the
    problem and writes the sweep.csv of the undamaged run."""
    damage = damage_json(data.draw, json.loads((prepared[1] / "problem.json").read_bytes()))

    def corrupt(out):
        path = out / "problem.json"
        path.write_bytes(damage(path.read_bytes()))

    def check(out):
        assert strip_wall_time(out / "sweep.csv") == clean_sweep

    run_corrupted(prepared, corrupt, "sweep", *SWEEP_ARGS, codes=(0,), check=check)
