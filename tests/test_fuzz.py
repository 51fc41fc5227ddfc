"""Files one mutation away from a valid VVOL/VFLO file, fed to the readers and the CLI.

Each case starts from a golden file and changes one thing: a header value
(arbitrary JSON), the whole header line, the payload length, or a magic byte.
A reader must return a valid object or raise an ``IsosliceError``; the CLI
must fail such a file with exit 1, one ``error:`` line and no output file.
"""

import contextlib
import io
import json

import numpy as np
from hypothesis import assume, given, settings
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
