import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from isoslice import (
    DataValidationError,
    FileFormatError,
    FlowField,
    HsParams,
    ParameterError,
    ShapeError,
    Slice2D,
    TruncatedPayloadError,
    compose_intermediate_flow,
    estimate_flow,
    flow_magnitude_stats,
    load_flow,
    save_flow,
)
from isoslice.flow import _solve_stack, sample_bilinear


def gaussian_blob(cx, cy, size=64, sigma=8.0):
    xs = np.arange(size)[None, :]
    ys = np.arange(size)[:, None]
    return np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * sigma**2))


def random_field(rng, w=6, h=5, scale=3.0):
    return FlowField(
        rng.uniform(-scale, scale, (h, w)),
        rng.uniform(-scale, scale, (h, w)),
    )


class TestFlowField:
    def test_component_shape_mismatch(self):
        with pytest.raises(ShapeError):
            FlowField(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_nonfinite_rejected(self):
        with pytest.raises(DataValidationError):
            FlowField(np.full((2, 2), np.inf), np.zeros((2, 2)))

    def test_dims_order(self):
        f = FlowField(np.zeros((3, 5)), np.zeros((3, 5)))
        assert f.dims == (5, 3)


class TestEstimate:
    def test_identical_inputs_give_zero_flow(self):
        s = Slice2D(gaussian_blob(30.0, 30.0))
        f = estimate_flow(s, s)
        assert np.abs(f.u).max() <= 1e-3
        assert np.abs(f.v).max() <= 1e-3

    def test_flat_inputs_give_zero_flow(self):
        a = Slice2D(np.full((32, 32), 3.5))
        f = estimate_flow(a, Slice2D(np.full((32, 32), 3.5)))
        assert np.abs(f.u).max() == 0.0
        assert np.abs(f.v).max() == 0.0

    @pytest.mark.parametrize("shift", [1, 2, 3])
    def test_integer_shift_recovery(self, shift):
        img = gaussian_blob(31.0, 32.0)
        i0 = Slice2D(img)
        i1 = Slice2D(np.roll(img, shift, axis=1))
        f = estimate_flow(i0, i1)
        support = img > 0.1
        assert abs(float(np.median(f.u[support])) - shift) < 0.5
        assert abs(float(np.median(f.v[support]))) < 0.5

    def test_vertical_shift_recovery(self):
        img = gaussian_blob(32.0, 31.0)
        i0 = Slice2D(img)
        i1 = Slice2D(np.roll(img, 2, axis=0))
        f = estimate_flow(i0, i1)
        support = img > 0.1
        assert abs(float(np.median(f.v[support])) - 2.0) < 0.5

    def test_deterministic_bit_identical(self):
        i0 = Slice2D(gaussian_blob(30.0, 33.0))
        i1 = Slice2D(gaussian_blob(32.5, 31.0))
        f1 = estimate_flow(i0, i1)
        f2 = estimate_flow(i0, i1)
        assert f1.u.tobytes() == f2.u.tobytes()
        assert f1.v.tobytes() == f2.v.tobytes()

    def test_dims_mismatch(self):
        with pytest.raises(ShapeError):
            estimate_flow(Slice2D(np.zeros((16, 16))), Slice2D(np.zeros((16, 17))))

    def test_too_small_for_pyramid(self):
        tiny = Slice2D(np.zeros((4, 4)))
        with pytest.raises(ParameterError, match=r"^dims \(4, 4\) too small for 3 pyramid levels$"):
            estimate_flow(tiny, tiny, HsParams(pyramid_levels=3))

    @pytest.mark.parametrize("alpha", [1e-160, 1e-154])
    def test_alpha_whose_square_overflows_the_sweep_is_refused(self, alpha):
        with pytest.raises(ParameterError, match="alpha"):
            HsParams(alpha=alpha)

    def test_smallest_accepted_alpha_stays_finite(self):
        # Warnings are errors in this suite, so an overflow in a sweep fails here.
        flat = Slice2D(np.zeros((32, 32)))
        noise = Slice2D(np.random.default_rng(31).random((32, 32)))
        field = estimate_flow(flat, noise, HsParams(alpha=1e-100))
        assert np.all(np.isfinite(field.u)) and np.all(np.isfinite(field.v))

    def test_params_validation(self):
        with pytest.raises(ParameterError):
            HsParams(alpha=0.0)
        with pytest.raises(ParameterError):
            HsParams(iterations=0)


@st.composite
def stacked_pairs(draw):
    """A (B, H, W) pair of stacks, HS params whose pyramid fits, and the index of a constant pair."""
    levels = draw(st.integers(1, 3))
    h = draw(st.integers(2**levels, 19))
    w = draw(st.integers(2**levels, 19))
    depth = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(depth, h, w)) * draw(st.sampled_from([1e-3, 1.0, 300.0]))
    b = np.roll(a, draw(st.integers(-2, 2)), axis=2) + rng.normal(scale=0.1, size=a.shape)
    constant = draw(st.none() | st.integers(0, depth - 1))
    if constant is not None:
        a[constant] = b[constant] = 7.25  # hi == lo, so this pair is not normalized
    hs = HsParams(
        alpha=draw(st.sampled_from([0.5, 15.0])),
        iterations=draw(st.integers(1, 4)),
        pyramid_levels=levels,
        warps_per_level=draw(st.integers(1, 3)),
    )
    return a, b, hs


class TestStackedSolver:
    @settings(max_examples=60, deadline=None)
    @given(stacked_pairs())
    def test_stack_equals_separate_solves_bit_for_bit(self, case):
        a, b, hs = case
        u, v = _solve_stack(a, b, hs)
        for k in range(len(a)):
            alone = estimate_flow(Slice2D(a[k]), Slice2D(b[k]), hs)
            assert u[k].tobytes() == alone.u.tobytes()
            assert v[k].tobytes() == alone.v.tobytes()
        # Stacked bilinear sampling agrees with the per-pixel oracle slice by slice.
        h, w = a.shape[1:]
        du = np.roll(u, 1, axis=0) * 3.0 + 0.5
        dv = np.roll(v, 1, axis=0) * 3.0 - 0.5
        xs = np.arange(w, dtype=np.float64)[None, :] + du
        ys = np.arange(h, dtype=np.float64)[:, None] + dv
        stacked = sample_bilinear(a, xs, ys)
        for k in range(len(a)):
            assert stacked[k].tobytes() == oracles.warp_bilinear(a[k], du[k], dv[k]).tobytes()
            assert stacked[k].tobytes() == sample_bilinear(a[k], xs[k], ys[k]).tobytes()


class TestCompose:
    def test_zero_fields_stay_zero(self):
        z = FlowField.zeros((4, 3))
        ft0, ft1 = compose_intermediate_flow(z, z, 0.4)
        assert not ft0.u.any() and not ft0.v.any()
        assert not ft1.u.any() and not ft1.v.any()

    def test_endpoints_exact(self):
        rng = np.random.default_rng(20)
        f01, f10 = random_field(rng), random_field(rng)
        ft0, ft1 = compose_intermediate_flow(f01, f10, 0.0)
        assert not ft0.u.any() and not ft0.v.any()
        assert np.array_equal(ft1.u, f01.u) and np.array_equal(ft1.v, f01.v)
        ft0, ft1 = compose_intermediate_flow(f01, f10, 1.0)
        assert np.array_equal(ft0.u, f10.u) and np.array_equal(ft0.v, f10.v)
        assert not ft1.u.any() and not ft1.v.any()

    def test_constant_pair_midpoint(self):
        f01 = FlowField(np.full((3, 3), 2.0), np.zeros((3, 3)))
        f10 = FlowField(np.full((3, 3), -2.0), np.zeros((3, 3)))
        ft0, ft1 = compose_intermediate_flow(f01, f10, 0.5)
        assert np.allclose(ft0.u, -1.0) and not ft0.v.any()
        assert np.allclose(ft1.u, 1.0) and not ft1.v.any()

    def test_linearity_in_the_fields(self):
        rng = np.random.default_rng(21)
        f01, f10 = random_field(rng), random_field(rng)
        a = 2.5
        for t in (0.2, 0.5, 0.9):
            big0, big1 = compose_intermediate_flow(
                FlowField(a * f01.u, a * f01.v), FlowField(a * f10.u, a * f10.v), t
            )
            ft0, ft1 = compose_intermediate_flow(f01, f10, t)
            assert np.allclose(big0.u, a * ft0.u, atol=1e-6)
            assert np.allclose(big0.v, a * ft0.v, atol=1e-6)
            assert np.allclose(big1.u, a * ft1.u, atol=1e-6)
            assert np.allclose(big1.v, a * ft1.v, atol=1e-6)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(22)
        f01, f10 = random_field(rng), random_field(rng)
        for t in (0.1, 0.25, 0.5, 0.8):
            ft0, _ = compose_intermediate_flow(f01, f10, t)
            _, swapped_ft1 = compose_intermediate_flow(f10, f01, 1.0 - t)
            assert np.allclose(ft0.u, swapped_ft1.u, atol=1e-6)
            assert np.allclose(ft0.v, swapped_ft1.v, atol=1e-6)

    def test_t_validation(self):
        z = FlowField.zeros((2, 2))
        with pytest.raises(ParameterError):
            compose_intermediate_flow(z, z, -0.1)
        with pytest.raises(ParameterError):
            compose_intermediate_flow(z, z, 1.1)

    def test_dims_mismatch(self):
        with pytest.raises(ShapeError):
            compose_intermediate_flow(FlowField.zeros((2, 2)), FlowField.zeros((3, 2)), 0.5)


class TestMagnitudeStats:
    def test_zero_field(self):
        assert flow_magnitude_stats(FlowField.zeros((3, 3))) == (0.0, 0.0)

    def test_three_four_five(self):
        f = FlowField(np.full((1, 1), 3.0), np.full((1, 1), 4.0))
        assert flow_magnitude_stats(f) == (5.0, 5.0)

    def test_constant_diagonal(self):
        f = FlowField(np.ones((4, 7)), np.ones((4, 7)))
        mean, peak = flow_magnitude_stats(f)
        assert mean == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert peak == pytest.approx(math.sqrt(2.0), abs=1e-12)


class TestFlowFile:
    def test_roundtrip_random_fields(self, tmp_path):
        rng = np.random.default_rng(23)
        path = tmp_path / "f.vflo"
        for _ in range(100):
            w, h = (int(n) for n in rng.integers(1, 7, size=2))
            f = FlowField(
                rng.uniform(-9, 9, (h, w)).astype(np.float32),
                rng.uniform(-9, 9, (h, w)).astype(np.float32),
            )
            save_flow(f, path)
            back = load_flow(path)
            assert back == f

    def test_header_layout(self, tmp_path):
        path = tmp_path / "f.vflo"
        save_flow(FlowField(np.zeros((2, 3)), np.zeros((2, 3))), path)
        raw = path.read_bytes()
        assert raw.startswith(b'VFLO\n{"dims":[3,2]}\n')
        assert len(raw) == len(b'VFLO\n{"dims":[3,2]}\n') + 2 * 6 * 4

    def test_u_then_v_payload_order(self, tmp_path):
        path = tmp_path / "f.vflo"
        f = FlowField(np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]]))
        save_flow(f, path)
        payload = path.read_bytes().split(b"\n", 2)[2]
        assert np.frombuffer(payload, "<f4").tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.vflo"
        path.write_bytes(b'XFLO\n{"dims":[1,1]}\n' + b"\x00" * 8)
        with pytest.raises(FileFormatError):
            load_flow(path)

    def test_boolean_dims_rejected(self, tmp_path):
        path = tmp_path / "f.vflo"
        path.write_bytes(b'VFLO\n{"dims":[true,true]}\n' + b"\x00" * 8)
        with pytest.raises(FileFormatError, match="dims"):
            load_flow(path)

    @pytest.mark.parametrize(
        "header",
        [
            b"[" * 50_000 + b"]" * 50_000,
            b'{"dims":[1' + b"0" * 400 + b",1]}",
            b'{"dims":[1,"1"]}',
            b'{"dims":[1,1],"\xff":0}',
        ],
        ids=["deep-nesting", "huge-dims", "string-dims", "non-utf8"],
    )
    def test_hostile_header_is_file_format_error(self, tmp_path, header):
        path = tmp_path / "bad.vflo"
        path.write_bytes(b"VFLO\n" + header + b"\n" + b"\x00" * 8)
        with pytest.raises(FileFormatError, match="bad.vflo"):
            load_flow(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "f.vflo"
        path.write_bytes(b'VFLO\n{"dims":[2,1]}\n' + b"\x00" * 15)
        with pytest.raises(TruncatedPayloadError):
            load_flow(path)
