import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from isoslice import (
    Axis,
    BoundsError,
    DataValidationError,
    FileFormatError,
    FlowField,
    HsParams,
    ImputeConfig,
    LabelVolume,
    LossWeights,
    ParameterError,
    Slice2D,
    Spacing,
    TruncatedPayloadError,
    Volume,
    auto_slice_count,
    compose_intermediate_flow,
    decimate,
    export_pgm,
    extract_slice,
    load_volume,
    moving_disk_phantom,
    one_hot_stack,
    rec_loss,
    save_volume,
    synth_intermediate_label,
    synth_intermediate_slice,
)

GOLDEN_F32 = (
    b'VVOL\n{"dims":[1,1,1],"spacing":[1.0,1.0,1.0],"dtype":"f32"}\n' + b"\x00\x00\x00\x00"
)
GOLDEN_U8 = (
    b'VVOL\n{"dims":[1,1,1],"spacing":[1.0,1.0,1.0],"dtype":"u8","classes":256}\n' + b"\xff"
)

UNIT = Spacing(1.0, 1.0, 1.0)


def enumerated_volume():
    return Volume(np.arange(8, dtype=np.float32).reshape(2, 2, 2), UNIT)


def random_volume(rng, dims=None):
    if dims is None:
        dims = tuple(rng.integers(1, 6, size=3))
    x, y, z = dims
    return Volume(
        rng.random((z, y, x)).astype(np.float32),
        Spacing(*(float(s) for s in rng.uniform(0.2, 5.0, size=3))),
    )


def random_labels(rng, classes=3, dtype=np.uint8, dims=None):
    if dims is None:
        dims = tuple(rng.integers(1, 6, size=3))
    x, y, z = dims
    data = rng.integers(0, classes, size=(z, y, x)).astype(dtype)
    return LabelVolume(data, Spacing(*(float(s) for s in rng.uniform(0.2, 5.0, size=3))), classes)


class TestFileFormat:
    def test_golden_f32_bytes(self, tmp_path):
        path = tmp_path / "min.vvol"
        save_volume(Volume(np.zeros((1, 1, 1), np.float32), UNIT), path)
        assert path.read_bytes() == GOLDEN_F32

    def test_golden_u8_byte(self, tmp_path):
        path = tmp_path / "lab.vvol"
        save_volume(LabelVolume(np.full((1, 1, 1), 255, np.uint8), UNIT, classes=256), path)
        assert path.read_bytes() == GOLDEN_U8

    def test_minimal_file_loads(self, tmp_path):
        path = tmp_path / "min.vvol"
        path.write_bytes(GOLDEN_F32)
        v = load_volume(path)
        assert isinstance(v, Volume)
        assert v.dims == (1, 1, 1)
        assert v.data.ravel().tolist() == [0.0]

    def test_roundtrip_random_volumes(self, tmp_path):
        rng = np.random.default_rng(11)
        path = tmp_path / "v.vvol"
        for _ in range(100):
            v = random_volume(rng)
            save_volume(v, path)
            back = load_volume(path)
            assert back == v
            assert back.data.tobytes() == v.data.tobytes()

    def test_roundtrip_random_labels_u8_and_u16(self, tmp_path):
        rng = np.random.default_rng(12)
        path = tmp_path / "l.vvol"
        for i in range(40):
            dtype = np.uint8 if i % 2 == 0 else np.uint16
            lv = random_labels(rng, classes=int(rng.integers(1, 9)), dtype=dtype)
            save_volume(lv, path)
            back = load_volume(path)
            assert back == lv
            assert back.data.tobytes() == lv.data.tobytes()

    def test_save_is_deterministic(self, tmp_path):
        v = random_volume(np.random.default_rng(3), dims=(4, 4, 4))
        p1, p2 = tmp_path / "a.vvol", tmp_path / "b.vvol"
        save_volume(v, p1)
        save_volume(v, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.uint16])
    def test_save_writes_from_the_array_without_a_copy(self, tmp_path, dtype):
        data = np.random.default_rng(5).integers(0, 7, (17, 256, 256)).astype(dtype)
        v = Volume(data, UNIT) if dtype == np.float32 else LabelVolume(data, UNIT, 7)
        path = tmp_path / "big.vvol"
        tracemalloc.start()
        try:
            save_volume(v, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < data.nbytes // 16  # a tobytes() copy alone would be the whole payload
        assert path.read_bytes().endswith(data.tobytes())

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.vvol"
        header = b'VVOL\n{"dims":[2,2,2],"spacing":[1.0,1.0,1.0],"dtype":"f32"}\n'
        path.write_bytes(header + b"\x00" * (7 * 4))
        with pytest.raises(TruncatedPayloadError):
            load_volume(path)

    def test_overlong_payload(self, tmp_path):
        path = tmp_path / "t.vvol"
        header = b'VVOL\n{"dims":[1,1,1],"spacing":[1.0,1.0,1.0],"dtype":"f32"}\n'
        path.write_bytes(header + b"\x00" * 8)
        with pytest.raises(TruncatedPayloadError):
            load_volume(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.vvol"
        path.write_bytes(b"NOPE\n" + GOLDEN_F32[5:])
        with pytest.raises(FileFormatError):
            load_volume(path)

    def test_malformed_header_json(self, tmp_path):
        path = tmp_path / "bad.vvol"
        path.write_bytes(b"VVOL\n{not json}\n")
        with pytest.raises(FileFormatError):
            load_volume(path)

    def test_unexpected_header_key(self, tmp_path):
        path = tmp_path / "bad.vvol"
        header = {"dims": [1, 1, 1], "spacing": [1.0, 1.0, 1.0], "dtype": "f32", "extra": 1}
        path.write_bytes(b"VVOL\n" + json.dumps(header).encode() + b"\n" + b"\x00" * 4)
        with pytest.raises(FileFormatError):
            load_volume(path)

    def test_label_without_classes_key(self, tmp_path):
        path = tmp_path / "bad.vvol"
        header = {"dims": [1, 1, 1], "spacing": [1.0, 1.0, 1.0], "dtype": "u8"}
        path.write_bytes(b"VVOL\n" + json.dumps(header).encode() + b"\n" + b"\x00")
        with pytest.raises(FileFormatError):
            load_volume(path)

    def test_nonfinite_payload(self, tmp_path):
        path = tmp_path / "nan.vvol"
        header = b'VVOL\n{"dims":[1,1,1],"spacing":[1.0,1.0,1.0],"dtype":"f32"}\n'
        path.write_bytes(header + np.array([np.nan], "<f4").tobytes())
        with pytest.raises(DataValidationError):
            load_volume(path)

    def test_boolean_dims_rejected(self, tmp_path):
        path = tmp_path / "bool.vvol"
        header = b'VVOL\n{"dims":[true,true,true],"spacing":[1.0,1.0,1.0],"dtype":"f32"}\n'
        path.write_bytes(header + b"\x00" * 4)
        with pytest.raises(FileFormatError, match="dims"):
            load_volume(path)

    def test_boolean_classes_rejected(self, tmp_path):
        path = tmp_path / "bool.vvol"
        header = b'VVOL\n{"dims":[1,1,1],"spacing":[1.0,1.0,1.0],"dtype":"u8","classes":true}\n'
        path.write_bytes(header + b"\x00")
        with pytest.raises(FileFormatError, match="classes"):
            load_volume(path)

    @pytest.mark.parametrize(
        "header",
        [
            b'{"dims":[1,1,1],"spacing":[1.0,1.0,1.0],"dtype":["f32"]}',
            b"[" * 50_000 + b"]" * 50_000,
            b'{"dims":[1,1,1],"spacing":[1' + b"0" * 400 + b',1.0,1.0],"dtype":"f32"}',
            b'{"dims":[1' + b"0" * 400 + b',1,1],"spacing":[1.0,1.0,1.0],"dtype":"f32"}',
            b'{"dims":[1,1,1],"spacing":["1",true,"4"],"dtype":"f32"}',
            b'{"dims":[1,1,1],"spacing":[1.0,1.0,1.0],"dtype":"f\xff"}',
        ],
        ids=["list-dtype", "deep-nesting", "huge-spacing", "huge-dims", "non-number-spacing", "non-utf8"],
    )
    def test_hostile_header_is_file_format_error(self, tmp_path, header):
        path = tmp_path / "bad.vvol"
        path.write_bytes(b"VVOL\n" + header + b"\n" + b"\x00" * 4)
        with pytest.raises(FileFormatError, match="bad.vvol"):
            load_volume(path)

    def test_payload_promise_checked_against_file_before_reading(self, tmp_path):
        path = tmp_path / "promise.vvol"
        head = b'VVOL\n{"dims":[1024,1024,64],"spacing":[1.0,1.0,1.0],"dtype":"f32"}\n'
        path.write_bytes(head + b"\x00" * (90 - len(head)))
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedPayloadError):
                load_volume(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the header promises 256 MiB

    def test_class_id_outside_declared_range(self, tmp_path):
        path = tmp_path / "cls.vvol"
        header = b'VVOL\n{"dims":[1,1,1],"spacing":[1.0,1.0,1.0],"dtype":"u8","classes":2}\n'
        path.write_bytes(header + b"\x05")
        with pytest.raises(DataValidationError, match="cls.vvol"):
            load_volume(path)

    @pytest.mark.parametrize("tag, classes, item", [("u8", 300, b"\x00"), ("u16", 70000, b"\x00\x00")])
    def test_classes_beyond_the_payload_dtype(self, tmp_path, tag, classes, item):
        path = tmp_path / "wide.vvol"
        header = {"dims": [1, 1, 1], "spacing": [1.0, 1.0, 1.0], "dtype": tag, "classes": classes}
        path.write_bytes(b"VVOL\n" + json.dumps(header).encode() + b"\n" + item)
        with pytest.raises(FileFormatError, match="wide.vvol"):
            load_volume(path)

    def test_numpy_integer_classes_roundtrip(self, tmp_path):
        data = np.array([[[0, 4]]], np.uint8)
        lv = LabelVolume(data, UNIT, classes=data.max().astype(np.int64) + 1)
        assert type(lv.classes) is int
        save_volume(lv, tmp_path / "np.vvol")
        assert load_volume(tmp_path / "np.vvol") == lv


ZERO_FLOW = FlowField.zeros((3, 2))
ID_SLICE = np.zeros((2, 3), np.uint8)
# Real-valued parameters at the public boundaries, each called with one value.
REAL_PARAMETERS = {
    "auto-slice-count": lambda x: auto_slice_count(x, 1.0),
    "spacing": lambda x: Spacing(x, 1.0, 1.0),
    "loss-weight": lambda x: LossWeights(lambda_rec=x),
    "phantom-radius": lambda x: moving_disk_phantom(radius=x),
    "phantom-step": lambda x: moving_disk_phantom(step=(x, 0.0)),
    "compose-t": lambda x: compose_intermediate_flow(ZERO_FLOW, ZERO_FLOW, x),
    "synth-slice-t": lambda x: synth_intermediate_slice(
        Slice2D(np.zeros((2, 3))), Slice2D(np.zeros((2, 3))), ZERO_FLOW, ZERO_FLOW, x
    ),
    "synth-label-t": lambda x: synth_intermediate_label(ID_SLICE, ID_SLICE, ZERO_FLOW, ZERO_FLOW, x),
}


class TestTypes:
    @pytest.mark.parametrize("dtype", [np.float32, np.uint16])
    def test_load_adopts_its_payload_without_a_copy(self, tmp_path, dtype):
        data = (np.arange(64 * 64 * 32).reshape(32, 64, 64) % 7).astype(dtype)
        path = tmp_path / "big.vvol"
        save_volume(Volume(data, UNIT) if dtype == np.float32 else LabelVolume(data, UNIT), path)
        tracemalloc.start()
        try:
            v = load_volume(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * data.nbytes
        assert np.array_equal(v.data, data)
        with pytest.raises(ValueError):
            v.data.setflags(write=True)

    def test_caller_arrays_are_still_copied(self):
        for writeable in (True, False):
            src = np.zeros((2, 3, 4), np.float32)
            src.setflags(write=writeable)
            v = Volume(src, UNIT)
            assert not np.shares_memory(v.data, src)
            src.setflags(write=True)
            src[0, 0, 0] = 5.0
            assert v.data[0, 0, 0] == 0.0

    def test_bytes_backed_arrays_are_adopted_as_new_views(self):
        raw = bytes(24)
        for src, build in (
            (np.frombuffer(raw, np.float32).reshape(1, 2, 3), lambda a: Volume(a, UNIT)),
            (np.frombuffer(raw, np.uint8).reshape(2, 3, 4), lambda a: LabelVolume(a, UNIT)),
        ):
            v = build(src)
            assert np.shares_memory(v.data, src)
            assert v.data is not src
            shape = v.data.shape
            src.shape = (src.size,)  # reshaping the caller's object leaves the volume as it was
            assert v.data.shape == shape
            with pytest.raises(ValueError):
                v.data.setflags(write=True)

    def test_spacing_must_be_positive(self):
        with pytest.raises(ParameterError):
            Spacing(0.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            Spacing(1.0, -2.0, 1.0)
        with pytest.raises(ParameterError):
            Spacing(1.0, 1.0, float("inf"))

    def test_volume_rejects_nonfinite(self):
        with pytest.raises(DataValidationError):
            Volume(np.full((1, 1, 1), np.nan, np.float32), UNIT)
        with pytest.raises(DataValidationError):
            Volume(np.full((1, 1, 1), 1e39), UNIT)  # beyond float32

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda a: Volume(a, UNIT), "volume data contains non-finite values"),
            (lambda a: Slice2D(a[1]), "slice data contains non-finite values"),
            (lambda a: FlowField(a[1], np.zeros_like(a[1])), "flow u contains non-finite values"),
            (lambda a: FlowField(np.zeros_like(a[1]), a[1]), "flow v contains non-finite values"),
            (lambda a: rec_loss([(np.zeros_like(a[1]), a[1])]), "slice arrays must hold finite real numbers"),
        ],
        ids=["Volume", "Slice2D", "FlowField-u", "FlowField-v", "rec_loss"],
    )
    def test_one_non_finite_element_is_refused(self, build, message, bad, dtype):
        data = np.random.default_rng(4).random((2, 5, 7)).astype(dtype)
        build(data)
        data[1, 3, 2] = bad
        with pytest.raises(DataValidationError, match=message):
            build(data)

    def test_finiteness_check_allocates_no_full_size_temporary(self):
        payload = np.frombuffer(bytes(4 * 32 * 64 * 64), np.float32).reshape(32, 64, 64)
        tracemalloc.start()
        try:
            Volume(payload, UNIT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < payload.size // 8  # a boolean mask of the volume takes payload.size bytes

    def test_volume_rejects_wrong_rank(self):
        with pytest.raises(ParameterError):
            Volume(np.zeros((2, 2), np.float32), UNIT)

    def test_labels_reject_negative_ids(self):
        with pytest.raises(DataValidationError):
            LabelVolume(np.full((1, 1, 1), -1, np.int32), UNIT)

    def test_labels_reject_id_at_class_count(self):
        with pytest.raises(DataValidationError):
            LabelVolume(np.full((1, 1, 1), 2, np.uint8), UNIT, classes=2)

    def test_labels_infer_classes(self):
        lv = LabelVolume(np.array([[[0, 3]]], np.uint8), UNIT)
        assert lv.classes == 4

    def test_volumes_are_immutable(self):
        v = enumerated_volume()
        with pytest.raises(ValueError):
            v.data[0, 0, 0] = 9.0

    @pytest.mark.parametrize(
        "make",
        [
            lambda: LabelVolume(np.zeros((1, 1, 1), np.uint8), UNIT, classes=True),
            lambda: LabelVolume(np.zeros((1, 1, 1), np.uint8), UNIT, classes=2.5),
            lambda: HsParams(iterations=True),
            lambda: ImputeConfig(n_slices=True),
            lambda: moving_disk_phantom(seed=True),
            lambda: decimate(enumerated_volume(), True),
            lambda: one_hot_stack(np.zeros((2, 2), np.uint8), True),
        ],
        ids=["classes-bool", "classes-float", "iterations", "n_slices", "seed", "stride", "one-hot-classes"],
    )
    def test_counts_must_be_integers_not_booleans(self, make):
        with pytest.raises(ParameterError):
            make()

    @pytest.mark.parametrize("value", ["1", None, True], ids=["str", "none", "bool"])
    @pytest.mark.parametrize("make", list(REAL_PARAMETERS.values()), ids=list(REAL_PARAMETERS))
    def test_real_parameters_refuse_strings_none_and_booleans(self, make, value):
        with pytest.raises(ParameterError):
            make(value)


GRID = np.arange(6.0).reshape(2, 3)
# For each value type: a reference value, an equal copy, and values that
# differ from the reference in exactly one field.
VALUES = {
    "Slice2D": (
        lambda: Slice2D(GRID),
        [lambda: Slice2D(GRID + 1.0), lambda: Slice2D(GRID.reshape(3, 2))],
    ),
    "Volume": (
        lambda: Volume(GRID[None], UNIT),
        [
            lambda: Volume(GRID[None] + 1.0, UNIT),
            lambda: Volume(GRID.reshape(1, 3, 2), UNIT),
            lambda: Volume(GRID[None], Spacing(1.0, 1.0, 2.0)),
        ],
    ),
    "LabelVolume": (
        lambda: LabelVolume(GRID[None].astype(np.uint8), UNIT, 8),
        [
            lambda: LabelVolume(GRID[None].astype(np.uint16), UNIT, 8),
            lambda: LabelVolume(GRID.reshape(1, 3, 2).astype(np.uint8), UNIT, 8),
            lambda: LabelVolume(GRID[::-1][None].astype(np.uint8), UNIT, 8),
            lambda: LabelVolume(GRID[None].astype(np.uint8), Spacing(1.0, 1.0, 2.0), 8),
            lambda: LabelVolume(GRID[None].astype(np.uint8), UNIT, 9),
        ],
    ),
    "FlowField": (
        lambda: FlowField(GRID, -GRID),
        [
            lambda: FlowField(GRID, GRID),
            lambda: FlowField(GRID - 1.0, -GRID),
            lambda: FlowField(GRID.reshape(3, 2), -GRID.reshape(3, 2)),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_types_share_one_equality_and_freeze(name):
    make, variants = VALUES[name]
    value = make()
    assert value == make() and not value != make()
    for variant in variants:
        assert value != variant() and variant() != value
    other = next(VALUES[n][0]() for n in sorted(VALUES) if n != name)
    assert value != other and other != value
    with pytest.raises(TypeError):
        hash(value)
    for field in dataclasses.fields(value):
        array = getattr(value, field.name)
        if isinstance(array, np.ndarray):
            with pytest.raises(ValueError):
                array.flat[0] = 9.0


class TestExtractSlice:
    def test_axial_enumerated(self):
        v = enumerated_volume()
        assert extract_slice(v, Axis.AXIAL, 0).data.ravel().tolist() == [0, 1, 2, 3]
        assert extract_slice(v, Axis.AXIAL, 1).data.ravel().tolist() == [4, 5, 6, 7]

    def test_sagittal_enumerated(self):
        # voxel (x, y, z) holds x + 2y + 4z; sagittal x=0 runs y fastest, then z
        v = enumerated_volume()
        s = extract_slice(v, Axis.SAGITTAL, 0)
        assert s.dims == (2, 2)
        assert s.data.ravel().tolist() == [0, 2, 4, 6]

    def test_coronal_enumerated(self):
        v = enumerated_volume()
        s = extract_slice(v, Axis.CORONAL, 0)
        assert s.dims == (2, 2)
        assert s.data.ravel().tolist() == [0, 1, 4, 5]

    def test_single_voxel_every_axis(self):
        v = Volume(np.full((1, 1, 1), 7.0, np.float32), UNIT)
        for axis in Axis:
            s = extract_slice(v, axis, 0)
            assert s.dims == (1, 1)
            assert s.data[0, 0] == 7.0

    def test_out_of_range(self):
        v = enumerated_volume()
        with pytest.raises(BoundsError):
            extract_slice(v, Axis.AXIAL, 2)
        with pytest.raises(BoundsError):
            extract_slice(v, Axis.SAGITTAL, -1)

    def test_pure_and_copying(self):
        v = enumerated_volume()
        before = v.data.tobytes()
        s1 = extract_slice(v, Axis.CORONAL, 1)
        s2 = extract_slice(v, Axis.CORONAL, 1)
        assert s1 == s2
        assert s1.data is not s2.data
        assert v.data.tobytes() == before

    def test_reassembly_every_axis(self):
        rng = np.random.default_rng(5)
        v = random_volume(rng, dims=(3, 4, 5))
        x, y, z = v.dims
        axial = np.stack([extract_slice(v, Axis.AXIAL, k).data for k in range(z)])
        assert np.array_equal(axial, v.data)
        for i in range(x):
            assert np.array_equal(extract_slice(v, Axis.SAGITTAL, i).data, v.data[:, :, i])
        for j in range(y):
            assert np.array_equal(extract_slice(v, Axis.CORONAL, j).data, v.data[:, j, :])


class TestDecimate:
    def test_keep_rule_z8(self):
        rng = np.random.default_rng(1)
        v = random_volume(rng, dims=(3, 3, 8))
        out = decimate(v, 4)
        assert out.dims[2] == 2
        assert np.array_equal(out.data[0], v.data[0])
        assert np.array_equal(out.data[1], v.data[4])
        assert out.spacing.sz == pytest.approx(v.spacing.sz * 4)

    def test_keep_rule_z9(self):
        v = random_volume(np.random.default_rng(2), dims=(2, 2, 9))
        out = decimate(v, 4)
        assert out.dims[2] == 3
        for k, src in enumerate((0, 4, 8)):
            assert np.array_equal(out.data[k], v.data[src])

    def test_single_slice(self):
        v = random_volume(np.random.default_rng(3), dims=(2, 2, 1))
        out = decimate(v, 5)
        assert out.dims[2] == 1
        assert np.array_equal(out.data[0], v.data[0])

    def test_stride_validation(self):
        v = enumerated_volume()
        with pytest.raises(ParameterError):
            decimate(v, 1)
        with pytest.raises(ParameterError):
            decimate(v, 0)

    def test_labels_keep_dtype_and_classes(self):
        lv = random_labels(np.random.default_rng(4), classes=5, dtype=np.uint16, dims=(2, 2, 8))
        out = decimate(lv, 2)
        assert isinstance(out, LabelVolume)
        assert out.classes == 5
        assert out.data.dtype == np.uint16

    @pytest.mark.parametrize(("sz", "stride"), [(1.0, 10**400), (1e300, 10**10)], ids=["huge-stride", "huge-sz"])
    def test_overflowing_spacing_is_parameter_error(self, sz, stride):
        v = Volume(np.zeros((3, 2, 2), np.float32), Spacing(1.0, 1.0, sz))
        with pytest.raises(ParameterError, match="spacing sz=inf"):
            decimate(v, stride)


    def test_overflow_names_stride_and_input_spacing(self):
        v = Volume(np.zeros((3, 2, 2), np.float32), Spacing(1.0, 1.0, 1e300))
        with pytest.raises(ParameterError, match=r"stride=10000000000 times spacing sz=1e\+300"):
            decimate(v, 10**10)


class TestExportPgm:
    def read_pgm(self, path):
        raw = path.read_bytes()
        header, rest = raw.split(b"255\n", 1)
        magic, dims = header.decode().split("\n")[:2]
        w, h = (int(p) for p in dims.split())
        return magic, (w, h), np.frombuffer(rest, np.uint8).reshape(h, w)

    def test_constant_at_lo(self, tmp_path):
        path = tmp_path / "lo.pgm"
        export_pgm(Slice2D(np.zeros((2, 3))), path, lo=0.0, hi=1.0)
        magic, dims, pixels = self.read_pgm(path)
        assert magic == "P5"
        assert dims == (3, 2)
        assert (pixels == 0).all()

    def test_constant_at_hi(self, tmp_path):
        path = tmp_path / "hi.pgm"
        export_pgm(Slice2D(np.ones((2, 2))), path, lo=0.0, hi=1.0)
        assert (self.read_pgm(path)[2] == 255).all()

    def test_midpoint_rounds_half_up(self, tmp_path):
        path = tmp_path / "mid.pgm"
        export_pgm(Slice2D(np.full((1, 1), 0.5)), path, lo=0.0, hi=1.0)
        assert self.read_pgm(path)[2][0, 0] == 128

    def test_values_clamped_to_window(self, tmp_path):
        path = tmp_path / "clip.pgm"
        export_pgm(Slice2D(np.array([[-5.0, 5.0]])), path, lo=0.0, hi=1.0)
        assert self.read_pgm(path)[2].ravel().tolist() == [0, 255]

    def test_default_window_is_min_max(self, tmp_path):
        path = tmp_path / "auto.pgm"
        export_pgm(Slice2D(np.array([[2.0, 4.0]])), path)
        assert self.read_pgm(path)[2].ravel().tolist() == [0, 255]

    def test_bad_window(self, tmp_path):
        with pytest.raises(ParameterError):
            export_pgm(Slice2D(np.zeros((2, 2))), tmp_path / "x.pgm", lo=1.0, hi=1.0)

    def test_constant_slice_default_window_is_c_to_c_plus_one(self, tmp_path):
        path = tmp_path / "flat.pgm"
        assert export_pgm(Slice2D(np.full((2, 3), 2.5)), path) == (2.5, 3.5)
        assert (self.read_pgm(path)[2] == 0).all()

    def test_returns_the_window_used(self, tmp_path):
        s = Slice2D(np.array([[2.0, 4.0]]))
        assert export_pgm(s, tmp_path / "a.pgm") == (2.0, 4.0)
        assert export_pgm(s, tmp_path / "b.pgm", lo=3.0) == (3.0, 4.0)
        assert export_pgm(s, tmp_path / "d.pgm", -1.0, 1.0) == (-1.0, 1.0)

    @pytest.mark.parametrize(
        "data, lo, hi",
        [([[2.0, 4.0]], 5.0, None), ([[2.0, 4.0]], 4.0, None), ([[2.0, 4.0]], None, 2.0),
         ([[2.0, 4.0]], None, 1.0), ([[3.0, 3.0]], 3.0, None), ([[3.0, 3.0]], None, 3.0)],
    )
    def test_one_bound_at_or_past_the_data_is_an_empty_window(self, tmp_path, data, lo, hi):
        path = tmp_path / "x.pgm"
        with pytest.raises(ParameterError):
            export_pgm(Slice2D(np.array(data)), path, lo, hi)
        assert not path.exists()
