"""Malformed inputs fed to the readers and the CLI.

Each file case starts from a golden VVOL/VFLO file and changes one thing: a
header value (arbitrary JSON), the whole header line, the payload length, or
a magic byte.  A reader must return a valid object or raise an
``IsosliceError``; the CLI must fail such a file with exit 1, one ``error:``
line and no output file.  The ``loss`` command is given series and weights
files one change away from a valid pair (or any JSON value) and must either
print one JSON object or fail that way.  Numeric flags of ``phantom``,
``impute``, ``export`` and ``decimate`` are drawn from any integer or float text; each run
must print one JSON object or exit 1 or 2 with one ``error:`` line.
"""

import contextlib
import io
import json

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from isoslice import (
    FlowField,
    IsosliceError,
    LabelVolume,
    Volume,
    load_flow,
    load_volume,
    save_flow,
    save_volume,
)
from isoslice.cli import main

GOLDEN_F32 = (
    b'VVOL\n{"dims":[4,3,2],"spacing":[1.0,1.0,4.0],"dtype":"f32"}\n'
    + np.arange(24, dtype="<f4").tobytes()
)
GOLDEN_U8 = (
    b'VVOL\n{"dims":[4,3,2],"spacing":[1.0,1.0,4.0],"dtype":"u8","classes":3}\n'
    + (np.arange(24) % 3).astype("u1").tobytes()
)
GOLDEN_FLOW = b'VFLO\n{"dims":[4,3]}\n' + np.linspace(-2.0, 2.0, 24, dtype="<f4").tobytes()

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


@st.composite
def mutated(draw, golden: bytes) -> bytes:
    magic, header_line, payload = golden.split(b"\n", 2)
    header = json.loads(header_line)
    change = draw(st.sampled_from(["value", "header", "raw-header", "payload", "magic"]))
    if change == "value":
        key = draw(st.sampled_from(sorted(header)) | st.text(max_size=8))
        header_line = json.dumps({**header, key: draw(JSON_VALUES)}).encode()
    elif change == "header":
        header_line = json.dumps(draw(JSON_VALUES)).encode()
    elif change == "raw-header":
        header_line = draw(st.binary(max_size=64))
    elif change == "payload":
        delta = draw(st.integers(-len(payload), 16).filter(bool))
        payload = payload[:delta] if delta < 0 else payload + bytes(delta)
    else:
        i = draw(st.integers(0, len(magic) - 1))
        magic = magic[:i] + bytes([magic[i] ^ draw(st.integers(1, 255))]) + magic[i + 1 :]
    return magic + b"\n" + header_line + b"\n" + payload


def load_outcome(load, path, data: bytes):
    path.write_bytes(data)
    try:
        return load(path)
    except IsosliceError as exc:
        return exc


@settings(max_examples=300, deadline=None)
@given(data=st.sampled_from([GOLDEN_F32, GOLDEN_U8]).flatmap(mutated))
def test_volume_reader_returns_a_volume_or_raises_isoslice_error(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("vvol")
    outcome = load_outcome(load_volume, tmp / "in.vvol", data)
    if not isinstance(outcome, IsosliceError):
        assert isinstance(outcome, (Volume, LabelVolume))
        save_volume(outcome, tmp / "again.vvol")
        assert load_volume(tmp / "again.vvol") == outcome


@settings(max_examples=200, deadline=None)
@given(data=mutated(GOLDEN_FLOW))
def test_flow_reader_returns_a_field_or_raises_isoslice_error(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("vflo")
    outcome = load_outcome(load_flow, tmp / "in.vflo", data)
    if not isinstance(outcome, IsosliceError):
        assert isinstance(outcome, FlowField)
        save_flow(outcome, tmp / "again.vflo")
        assert load_flow(tmp / "again.vflo") == outcome


COMMANDS = {
    "decimate": (GOLDEN_F32, lambda bad, good, out: ["decimate", "--in", bad, "--out", out]),
    "export": (
        GOLDEN_U8,
        lambda bad, good, out: ["export", "--in", bad, "--axis", "axial", "--index", "0", "--out", out],
    ),
    "impute": (
        GOLDEN_F32,
        lambda bad, good, out: ["impute", "--in", bad, "--n", "1", "--method", "linear", "--out", out],
    ),
    "metrics": (
        GOLDEN_U8,
        lambda bad, good, out: ["metrics", "--gt", good, "--pred", bad, "--out-json", out],
    ),
}


@settings(max_examples=120, deadline=None)
@given(command=st.sampled_from(sorted(COMMANDS)), data=st.data())
def test_cli_fails_cleanly_on_a_broken_input(tmp_path_factory, command, data):
    golden, argv = COMMANDS[command]
    tmp = tmp_path_factory.mktemp("cli")
    bad, good, out = tmp / "bad.vvol", tmp / "good.vvol", tmp / "out"
    good.write_bytes(golden)
    assume(isinstance(load_outcome(load_volume, bad, data.draw(mutated(golden))), IsosliceError))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([str(a) for a in argv(bad, good, out)])
    assert code == 1
    assert stdout.getvalue() == ""
    lines = stderr.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert not out.exists()


GOLDEN_SERIES = {
    **{k: [0.25, 0.75] for k in ("ld_fake", "ld_real", "gd_fake", "gd_real", "oc_fake", "oc_real")},
    "y_fake": [1, 0],
    "y_real": [0, 1],
}
GOLDEN_WEIGHTS = {"lambda_adv": 1.0, "lambda_tp_smooth": 0.5}


@st.composite
def changed(draw, golden: dict, values) -> object:
    """The golden JSON object with one key set to a drawn value or removed, or any JSON value."""
    change = draw(st.sampled_from(["value", "drop", "whole"]))
    if change == "whole":
        return draw(JSON_VALUES)
    key = draw(st.sampled_from(sorted(golden)) | st.text(max_size=8))
    if change == "drop":
        return {k: v for k, v in golden.items() if k != key}
    return {**golden, key: draw(values)}


@settings(max_examples=200, deadline=None)
@given(
    series=changed(GOLDEN_SERIES, JSON_VALUES | st.lists(st.floats() | JSON_VALUES, max_size=3)),
    weights=changed(GOLDEN_WEIGHTS, JSON_VALUES | st.floats()),
)
@example(series={"ld_fake": [10**400], "gd_fake": [0.5]}, weights={})
@example(series={"ld_fake": [0.01], "gd_fake": [0.01]}, weights={"lambda_adv": 1e308})
def test_loss_reports_or_fails_cleanly_on_any_json(tmp_path_factory, series, weights):
    tmp = tmp_path_factory.mktemp("loss")
    series_path, weights_path = tmp / "series.json", tmp / "weights.json"
    series_path.write_text(json.dumps(series))
    weights_path.write_text(json.dumps(weights))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["loss", "--series-json", str(series_path), "--weights-json", str(weights_path)])
    if code == 0:
        lines = stdout.getvalue().splitlines()
        assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict), lines
    else:
        assert code == 1
        assert stdout.getvalue() == ""
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


# Flag values as a user might type them: any integer or float, including nan,
# inf and values that underflow or overflow inside the library, with small
# values drawn often enough that many runs succeed.
NUMBER_TEXT = (st.integers() | st.integers(-3, 40) | st.floats() | st.floats(-64, 64)).map(str)
GOLDEN_PAIR = (  # a flat slice, then a deterministic pseudo-noise slice
    b'VVOL\n{"dims":[8,8,2],"spacing":[1.0,1.0,2.0],"dtype":"f32"}\n'
    + np.zeros(64, "<f4").tobytes()
    + (np.arange(64) * 37 % 64 / 64.0).astype("<f4").tobytes()
)
FIXED_ARGS = {
    "phantom": ["--out", "{tmp}/p.vvol", "--out-labels", "{tmp}/l.vvol"],
    "impute": ["--in", "{tmp}/in.vvol", "--out", "{tmp}/o.vvol", "--n", "1", "--method", "flow"],
    "export": ["--in", "{tmp}/in.vvol", "--axis", "axial", "--index", "1", "--out", "{tmp}/o.pgm"],
    "decimate": ["--in", "{tmp}/in.vvol", "--out", "{tmp}/o.vvol"],
}


@st.composite
def cli_flags(draw) -> list[str]:
    """A command and some of its numeric flags, each written as ``--flag=TEXT``."""
    command = draw(st.sampled_from(sorted(FIXED_ARGS)))
    if command == "phantom":
        extents = st.lists(st.integers(12, 64), min_size=3, max_size=3)
        flags = {"size": extents.map(lambda e: ",".join(map(str, e)))}
        flags |= dict.fromkeys(["radius", "step", "seed"], NUMBER_TEXT)
    elif command == "impute":
        # Sweep and warp counts multiply the run time, so they stay small.
        flags = dict.fromkeys(["iterations", "warps-per-level"], st.integers(0, 3).map(str))
        flags |= {"alpha": NUMBER_TEXT, "pyramid-levels": NUMBER_TEXT | st.just("auto")}
    elif command == "decimate":
        flags = {"stride": NUMBER_TEXT}
    else:
        flags = {"window": st.tuples(NUMBER_TEXT, NUMBER_TEXT).map(",".join)}
    drawn = {name: draw(st.none() | values) for name, values in flags.items()}
    return [command, *(f"--{name}={text}" for name, text in drawn.items() if text is not None)]


@settings(max_examples=150, deadline=None)
@given(argv=cli_flags())
@example(argv=["phantom", "--step=nan"])
@example(argv=["impute", "--alpha=1e-160"])
@example(argv=["decimate", "--stride=1" + "0" * 400])
def test_cli_argv_reports_or_fails_cleanly(tmp_path_factory, argv):
    tmp = tmp_path_factory.mktemp("argv")
    (tmp / "in.vvol").write_bytes(GOLDEN_PAIR)
    command, *flags = argv
    fixed = [arg.format(tmp=tmp) for arg in FIXED_ARGS[command]]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main([command, *fixed, *flags])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    lines = stderr.getvalue().splitlines()
    if code == 0:
        out = stdout.getvalue().splitlines()
        assert len(out) == 1 and isinstance(json.loads(out[0]), dict), out
    else:
        assert code in (1, 2), (code, lines)
        assert stdout.getvalue() == ""
        assert [line for line in lines if "error:" in line] == lines[-1:], lines
        assert code == 2 or (len(lines) == 1 and lines[0].startswith("error: ")), lines
        assert sorted(p.name for p in tmp.iterdir()) == ["in.vvol"]
