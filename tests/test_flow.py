import hashlib
import math
import re
from collections import Counter
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import isoslice.flow as flow_module
import isoslice.volume as volume_module
import oracles
from isoslice import (
    DataValidationError,
    DomainError,
    FileFormatError,
    FlowField,
    HsParams,
    ImputeConfig,
    ParameterError,
    ShapeError,
    Slice2D,
    Spacing,
    TruncatedPayloadError,
    Volume,
    compose_intermediate_flow,
    decimate,
    estimate_flow,
    flow_magnitude_stats,
    impute_volume,
    load_flow,
    moving_disk_phantom,
    save_flow,
)
from isoslice.flow import (
    _AVG_KERNEL,
    _BINOMIAL5,
    _central_gradients,
    _downsample,
    _gap_flows,
    _hs_sweeps,
    _median,
    _normalize,
    _pyramid,
    _pyramid_shapes,
    _refine,
    _warp_by,
    sample_bilinear,
)


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

    @pytest.mark.parametrize("hs", [None, {"alpha": 1.0}, "fast", HsParams])
    def test_params_must_be_hs_params(self, hs):
        with pytest.raises(ParameterError, match="must be an HsParams"):
            ImputeConfig(hs=hs)
        if hs is not None:  # estimate_flow's default
            s = Slice2D(gaussian_blob(30.0, 30.0, size=16))
            with pytest.raises(ParameterError, match="must be an HsParams"):
                estimate_flow(s, s, hs)

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

    def test_field_is_adopted_without_a_copy_or_a_second_scan(self, monkeypatch):
        i0, i1 = Slice2D(gaussian_blob(30.0, 32.0)), Slice2D(gaussian_blob(32.0, 32.0))
        monkeypatch.setattr(flow_module, "_frozen", None)  # FlowField(...) would call it
        f = estimate_flow(i0, i1)
        assert not f.u.flags.writeable and not f.v.flags.writeable
        assert f.u.dtype == np.float64 and f.u.flags.c_contiguous and f.v.flags.c_contiguous

    def test_too_small_for_pyramid(self):
        tiny = Slice2D(np.zeros((4, 4)))
        with pytest.raises(ParameterError, match=r"^dims \(4, 4\) too small for 3 pyramid levels$"):
            estimate_flow(tiny, tiny, HsParams(pyramid_levels=3))

    @pytest.mark.parametrize(
        "dims, levels",
        [((4, 4), 1), ((6, 4), 1), ((32, 32), 3), ((64, 64), 4), ((256, 96), 4), ((256, 256), 6)],
    )
    def test_auto_pyramid_depth_follows_the_short_side(self, dims, levels):
        assert len(_pyramid_shapes(dims, "auto")) == levels
        assert len(_pyramid_shapes(dims, levels)) == levels

    def test_pyramid_shapes_are_the_shapes_pyramid_builds(self):
        sides = [*range(2, 40), 63, 64, 65, 255, 257]
        for w in sides:
            for h in sides:
                deepest = min(w, h).bit_length() - 1  # min(W, H) >= 2**levels
                built = [level.shape[1:] for level in _pyramid(np.zeros((2, h, w)), deepest)]
                for levels in range(1, deepest + 1):
                    assert _pyramid_shapes((w, h), levels) == built[:levels]
                auto = _pyramid_shapes((w, h), "auto")
                assert auto == built[: len(auto)]
                with pytest.raises(ParameterError, match="too small"):
                    _pyramid_shapes((w, h), deepest + 1)

    def test_defaults_fit_tiny_slices(self):
        rng = np.random.default_rng(8)
        field = estimate_flow(Slice2D(rng.random((4, 4))), Slice2D(rng.random((4, 4))))
        assert field.dims == (4, 4)
        assert np.all(np.isfinite(field.u)) and np.all(np.isfinite(field.v))

    @pytest.mark.parametrize("alpha", [1e-160, 1e-154])
    def test_alpha_whose_square_overflows_the_sweep_is_refused(self, alpha):
        with pytest.raises(ParameterError, match="alpha"):
            HsParams(alpha=alpha)

    def test_smallest_accepted_alpha_stays_finite(self):
        # Warnings are errors in this suite, so an overflow in a sweep fails here.
        flat = Slice2D(np.zeros((32, 32)))
        noise = Slice2D(np.random.default_rng(31).random((32, 32)))
        field = estimate_flow(flat, noise, HsParams(alpha=1e-15))
        assert np.all(np.isfinite(field.u)) and np.all(np.isfinite(field.v))

    @pytest.mark.parametrize(
        "lo, hi, shown",
        [(-1e308, 1e308, "-1e+308..1e+308"), (0.0, 1e-310, "0.0..1e-310")],
        ids=["range-overflows", "gain-overflows"],
    )
    def test_finite_slices_whose_range_cannot_be_scaled_are_refused(self, lo, hi, shown):
        # Warnings are errors in this suite, so a numpy overflow warning fails here too.
        a = np.full((16, 16), lo)
        b = a.copy()
        b[3, 5] = hi
        message = rf"^slice pair 0: range {re.escape(shown)} cannot be scaled to 0\.\.255$"
        with pytest.raises(DomainError, match=message):
            estimate_flow(Slice2D(a), Slice2D(b))
        stack = np.stack((np.zeros((16, 16)), a, gaussian_blob(3.0, 4.0, 16), b))
        with pytest.raises(DomainError, match=message.replace("pair 0", "pair 1")):
            _normalize(stack)

    def test_params_validation(self):
        bad = [
            {"alpha": 0.0},
            {"alpha": "1"},
            {"alpha": None},
            {"alpha": [1.0]},
            {"alpha": True},
            {"alpha": 10**400},
            {"iterations": 0},
            {"pyramid_levels": 0},
            {"pyramid_levels": "AUTO"},
            {"pyramid_levels": 2.0},
            {"pyramid_levels": True},
            {"pyramid_levels": None},
            {"pyramid_levels": np.array([2])},
        ]
        for kwargs in bad:
            with pytest.raises(ParameterError):
                HsParams(**kwargs)

    @pytest.mark.parametrize("alpha", [1e-100, 1e-19, 9.9e-16])
    def test_alpha_below_the_float32_floor_is_refused(self, alpha):
        with pytest.raises(ParameterError, match=r"must be a finite number of at least 1e-15$"):
            HsParams(alpha=alpha)

    @pytest.mark.parametrize("alpha", [1.9e19, 1e20, 1e154, 1e308])
    def test_alpha_whose_square_overflows_float32_solves_to_near_zero_flow(self, alpha):
        # Warnings are errors in this suite, so an overflow in a cast or a sweep fails here.
        flat = Slice2D(np.zeros((32, 32)))
        noise = Slice2D(np.random.default_rng(31).random((32, 32)))
        field = estimate_flow(flat, noise, HsParams(alpha=alpha))
        assert np.abs(field.u).max() <= 1e-30 and np.abs(field.v).max() <= 1e-30

    @pytest.mark.parametrize("alpha", [15, np.float32(15.0), np.int64(15)])
    def test_any_real_alpha_is_stored_as_a_float(self, alpha):
        params = HsParams(alpha=alpha)
        assert type(params.alpha) is float and params.alpha == 15.0
        assert params == HsParams()


@st.composite
def stacked_pairs(draw):
    """A (B, H, W) pair of stacks, HS params whose pyramid fits, and the index of a constant pair."""
    levels = draw(st.integers(1, 3) | st.just("auto"))
    smallest = 2 if levels == "auto" else 2**levels
    h = draw(st.integers(smallest, 19))
    w = draw(st.integers(smallest, 19))
    depth = draw(st.integers(1, 8))  # impute stacks 8 slices per solve at 64x64 on 2 CPUs
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
        h, w = a.shape[1:]
        levels = len(_pyramid_shapes((w, h), hs.pyramid_levels))
        uv = _refine(_pyramid(np.concatenate((a, b)), levels), None, hs)
        u, v = uv[: len(a)], uv[len(a) :]
        for k in range(len(a)):
            alone = estimate_flow(Slice2D(a[k]), Slice2D(b[k]), hs)
            assert u[k].tobytes() == alone.u.tobytes()
            assert v[k].tobytes() == alone.v.tobytes()
        # Stacked bilinear sampling agrees with the per-pixel oracle slice by slice.
        du = np.roll(u, 1, axis=0) * 3.0 + 0.5
        dv = np.roll(v, 1, axis=0) * 3.0 - 0.5
        xs = np.arange(w, dtype=np.float64)[None, :] + du
        ys = np.arange(h, dtype=np.float64)[:, None] + dv
        stacked = sample_bilinear(a, xs, ys)
        for k in range(len(a)):
            assert stacked[k].tobytes() == oracles.warp_bilinear(a[k], du[k], dv[k]).tobytes()
            assert stacked[k].tobytes() == sample_bilinear(a[k], xs[k], ys[k]).tobytes()
        # Float32 and 0-d positions sample like the float64 arrays they convert to.
        xs32, ys32 = xs.astype(np.float32), ys.astype(np.float32)
        as64 = sample_bilinear(a, xs32.astype(np.float64), ys32.astype(np.float64))
        assert sample_bilinear(a, xs32, ys32).tobytes() == as64.tobytes()
        assert sample_bilinear(a[0], xs[0, 0, 0], ys[0, 0, 0]) == stacked[0, 0, 0]

    @settings(max_examples=60, deadline=None)
    @given(stacked_pairs())
    def test_normalization_matches_a_per_pair_loop(self, case):
        a, b, _ = case
        ab = np.concatenate((a, b))
        _normalize(ab)
        for k in range(len(a)):
            lo, hi = min(a[k].min(), b[k].min()), max(a[k].max(), b[k].max())
            gain = 255.0 / (hi - lo) if hi > lo else None
            for got, pixels in ((ab[k], a[k]), (ab[len(a) + k], b[k])):
                want = pixels if gain is None else (pixels - lo) * gain
                assert got.tobytes() == want.tobytes()


class TestGapFlows:
    @pytest.mark.parametrize(("dims", "per_run"), [((32, 24), 3), ((64, 64), 2)])  # 2 and 4 pyramid levels
    def test_each_run_gets_each_pairs_flows_once(self, monkeypatch, usable_cpus, dims, per_run):
        w, h = dims
        slices = np.random.default_rng(w).random((8, h, w), dtype=np.float32)
        hs = HsParams(iterations=3, warps_per_level=1)
        assert len(_pyramid_shapes(dims, hs.pyramid_levels)) >= 2
        runs = [range(s, min(s + per_run, 7)) for s in range(0, 7, per_run)]  # the last run is short
        want = []
        for k in range(7):
            a, b = Slice2D(slices[k]), Slice2D(slices[k + 1])
            want.append([(f.u.tobytes(), f.v.tobytes()) for f in (estimate_flow(a, b, hs), estimate_flow(b, a, hs))])
        monkeypatch.setattr(volume_module, "_BLOCK_PIXELS", per_run * 2 * w * h)  # runs of per_run gaps on 1-3 CPUs
        for coarse in (flow_module._COARSE_PIXELS, 1, 1 << 62):  # default, no coarse phase, every level coarse
            monkeypatch.setattr(flow_module, "_COARSE_PIXELS", coarse)
            for workers in (1, 2, 3):
                usable_cpus(workers)
                got = []

                def finish(run, f01, f10):
                    flows = [[(u[i].tobytes(), v[i].tobytes()) for u, v in (f01, f10)] for i in range(len(run))]
                    got.append((run, flows))

                _gap_flows(slices, hs, finish)
                assert sorted(run.start for run, _ in got) == [run.start for run in runs]
                assert all(runs[run.start // per_run] == run for run, _ in got)
                for run, flows in got:
                    assert flows == want[run.start : run.stop], (coarse, workers, run)


class TestMedianSchedule:
    """Every warp of a coarser level ends with the 5x5 median; the full-resolution level's warps share one."""

    @pytest.fixture()
    def medians(self, monkeypatch):
        """How many times each (h, w) level's flow slices were median-filtered, summed over the slices."""
        filtered = Counter()
        median = flow_module._median

        def counting_median(arr):
            filtered[arr.shape[1:]] += len(arr)
            return median(arr)

        monkeypatch.setattr(flow_module, "_median", counting_median)
        return filtered

    @pytest.mark.parametrize("warps", [1, 3])
    def test_estimate_flow(self, medians, warps):
        estimate_flow(Slice2D(gaussian_blob(30, 32)), Slice2D(gaussian_blob(32, 31)), HsParams(iterations=2, warps_per_level=warps))
        finest, *coarser = _pyramid_shapes((64, 64), "auto")
        assert medians == {finest: 2, **{shape: 2 * warps for shape in coarser}}  # u and v of the one pair

    @pytest.mark.parametrize("coarse", [flow_module._COARSE_PIXELS, 1, 1 << 62])  # default, none coarse, all coarse
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_impute_volume(self, monkeypatch, usable_cpus, medians, cpus, coarse):
        monkeypatch.setattr(flow_module, "_COARSE_PIXELS", coarse)
        usable_cpus(cpus)
        vol = Volume(np.random.default_rng(cpus).random((9, 48, 64), dtype=np.float32), Spacing(1.0, 1.0, 1.0))
        impute_volume(vol, cfg=ImputeConfig(n_slices=1, method="flow", hs=HsParams(iterations=2)))
        finest, *coarser = _pyramid_shapes((64, 48), "auto")
        flows = 8 * 2 * 2  # u and v of each of the 8 gaps' two flows
        assert medians == {finest: flows, **{shape: 3 * flows for shape in coarser}}

    def test_one_warp_per_level_keeps_the_earlier_bytes(self):
        """With one warp per level every warp still ends with a median, as it did before the shared one (float32 digests)."""
        ph = moving_disk_phantom(dims=(64, 64, 33), radius=8.0, step=(0.75, 0.0), seed=7)
        thinned, labels = decimate(ph.volume, 4), decimate(ph.labels, 4)
        hs = HsParams(warps_per_level=1)
        f = estimate_flow(Slice2D(thinned.data[0]), Slice2D(thinned.data[1]), hs)
        assert hashlib.sha256(f.u.tobytes() + f.v.tobytes()).hexdigest() == (
            "263f63ae7b26f7d79540f2e4f0b3fcf307e57eb69e509e7bd47564203b48c4f9"
        )
        out, out_labels = impute_volume(thinned, labels, ImputeConfig(n_slices=3, method="flow", hs=hs))
        assert hashlib.sha256(out.data.tobytes() + out_labels.data.tobytes()).hexdigest() == (
            "8c472661b03718b1b1dd93c53f9e2fa977984a232ad3acf66ba365d5f187d7ad"
        )

    def test_gate8_endpoint_error_inside_the_disk(self):
        """Each gap of the gate-8 phantom moves the disk 3 px along x; the mean error inside it stays under 0.07 px."""
        epe = {}
        for seed in (7, 0, 11):
            ph = moving_disk_phantom(dims=(64, 64, 33), radius=8.0, step=(0.75, 0.0), seed=seed)
            slices, disk = decimate(ph.volume, 4).data, decimate(ph.labels, 4).data > 0
            errors = []
            for k in range(len(slices) - 1):
                f = estimate_flow(Slice2D(slices[k]), Slice2D(slices[k + 1]))
                errors.append(np.hypot(f.u - 3.0, f.v)[disk[k]].mean())
            epe[seed] = round(float(np.mean(errors)), 4)
        assert all(error <= 0.07 for error in epe.values()), f"mean endpoint error per seed: {epe}"


@st.composite
def filter_stacks(draw):
    """A float64 (B, H, W) stack, 2x2 up to odd and non-square slices, of repeated values or magnitudes near 1e200.

    No NaN and no -0.0: np.partition and ndimage's selection may pick
    different bits among values that compare equal.
    """
    shape = draw(
        st.tuples(st.integers(1, 3), st.integers(2, 12), st.integers(2, 12))
        | st.sampled_from([(1, 2, 2), (2, 5, 7), (1, 7, 5), (1, 3, 64), (2, 64, 3)])
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "repeated", "huge"]))
    if kind == "repeated":
        return rng.integers(-2, 3, shape) * 0.75
    return rng.normal(size=shape) * (1e200 if kind == "huge" else 1.0)


@st.composite
def seam_pairs(draw):
    """Thin pairs (H or W of 2-3) and a start flow whose slices each have their own scale, 1e-3 up to 1e200.

    A sweep tap that read across a row, slice or u/v boundary would mix
    scales and change the bytes.
    """
    thin, other = draw(st.integers(2, 3)), draw(st.integers(2, 9))
    h, w = draw(st.sampled_from([(thin, other), (other, thin)]))
    depth = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pair_scales = draw(st.lists(st.sampled_from([1e-3, 1.0, 300.0]), min_size=depth, max_size=depth))
    flow_scales = draw(
        st.lists(st.sampled_from([1e-3, 1.0, 1e3, 1e100, 1e200]), min_size=2 * depth, max_size=2 * depth)
    )
    a, b = rng.normal(size=(2, depth, h, w)) * np.array(pair_scales)[:, None, None]
    uv0 = rng.normal(size=(2 * depth, h, w)) * np.array(flow_scales)[:, None, None]
    hs = HsParams(alpha=draw(st.sampled_from([0.5, 15.0])), iterations=draw(st.integers(1, 4)))
    return a, b, uv0, hs


def ndimage_sweeps(a, b, uv0, params):
    """The Jacobi sweeps with the neighbour mean taken by ``ndimage.correlate``: the oracle for ``_hs_sweeps``."""
    n = len(a)
    warped = _warp_by(b, uv0[:n], uv0[n:])
    it = warped - a
    grad = np.concatenate(_central_gradients(0.5 * (a + warped)))
    denom = params.alpha * params.alpha + grad[:n] * grad[:n] + grad[n:] * grad[n:]
    uv = uv0.copy()
    for _ in range(params.iterations):
        avg = ndimage.correlate(uv, _AVG_KERNEL[None], mode="nearest")
        step = (avg - uv0) * grad
        shared = (step[:n] + step[n:] + it) / denom
        uv = avg - np.concatenate((grad[:n] * shared, grad[n:] * shared))
    return uv


class TestFiltersMatchNdimage:
    """The solver's numpy filters give the bytes of the ndimage calls they replace (mode "nearest")."""

    @settings(max_examples=80, deadline=None)
    @given(filter_stacks())
    def test_downsample_is_correlate1d_on_both_axes_then_halved(self, x):
        blurred = ndimage.correlate1d(x, _BINOMIAL5, axis=1, mode="nearest")
        blurred = ndimage.correlate1d(blurred, _BINOMIAL5, axis=2, mode="nearest")
        assert _downsample(x).tobytes() == blurred[:, ::2, ::2].tobytes()

    @staticmethod
    def neighbour_mean(x):
        """One sweep of ``_hs_sweeps`` from the flow ``x`` over ``x`` between constant slices: exactly the mean of ``x``.

        ``it`` and the gradients are 0, so the sweep subtracts only zeros from the mean.
        """
        zeros = np.zeros_like(x)
        return _hs_sweeps(zeros, zeros, np.concatenate((x, x)), HsParams(iterations=1))[: len(x)]

    @settings(max_examples=80, deadline=None)
    @given(filter_stacks())
    def test_neighbour_mean_is_correlate(self, x):
        want = ndimage.correlate(x, _AVG_KERNEL[None], mode="nearest")
        assert self.neighbour_mean(x).tobytes() == want.tobytes()

    def test_neighbour_mean_of_negative_zeros_is_positive_zero(self):
        x = np.full((1, 3, 4), -0.0)
        want = ndimage.correlate(x, _AVG_KERNEL[None], mode="nearest")
        assert not np.signbit(want).any()
        assert self.neighbour_mean(x).tobytes() == want.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(filter_stacks())
    def test_median_is_median_filter(self, x):
        want = ndimage.median_filter(x, size=(1, 5, 5), mode="nearest")
        assert _median(x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(3, 40, 300), (1, 9000, 2), (1, 2, 9000)])
    def test_median_blocks_cut_over_rows_and_the_stack(self, shape):
        x = np.random.default_rng(9).integers(0, 50, shape) * 1.0
        want = ndimage.median_filter(x, size=(1, 5, 5), mode="nearest")
        assert _median(x).tobytes() == want.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(stacked_pairs())
    def test_sweeps_equal_the_ndimage_sweeps(self, case):
        a, b, hs = case
        uv0 = np.random.default_rng(int(a.size)).normal(size=(2 * len(a), *a.shape[1:]))
        assert _hs_sweeps(a, b, uv0, hs).tobytes() == ndimage_sweeps(a, b, uv0, hs).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seam_pairs())
    def test_sweeps_equal_the_ndimage_sweeps_across_row_and_slice_seams(self, case):
        a, b, uv0, hs = case
        assert _hs_sweeps(a, b, uv0, hs).tobytes() == ndimage_sweeps(a, b, uv0, hs).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(stacked_pairs(), st.sampled_from(["zeros", "negative zeros", "normal"]), st.booleans())
    def test_sweeps_never_give_the_median_a_negative_zero(self, case, start, tiny_alpha):
        """``_median`` matches ndimage only without -0.0; the sweeps' last ``avg - step`` never makes one."""
        a, b, hs = case
        if tiny_alpha:
            hs = HsParams(alpha=1e-15, iterations=hs.iterations)
        shape = (2 * len(a), *a.shape[1:])
        uv0 = {
            "zeros": np.zeros(shape),
            "negative zeros": np.full(shape, -0.0),
            "normal": np.random.default_rng(int(a.size)).normal(size=shape),
        }[start]
        uv = _hs_sweeps(a, b, uv0, hs)
        assert not np.signbit(uv[uv == 0.0]).any()


@st.composite
def float32_stacks(draw):
    """A float32 stack of ``filter_stacks``, whose huge magnitudes are scaled from near 1e200 to near 1e30."""
    x = draw(filter_stacks())
    return (x * 1e-170 if np.abs(x).max() > 1e100 else x).astype(np.float32)


@st.composite
def exact_float32_pairs(draw):
    """Float32 pairs of integers in 0..255, an integer start flow and HS params.

    The warp, ``it``, the gradients and ``denom`` are then exact in float32
    and float64 alike, so the two differ only by the sweeps' own rounding.
    """
    depth, h, w = draw(st.integers(1, 4)), draw(st.integers(2, 19)), draw(st.integers(2, 19))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(0, 256, (depth, h, w))
    b = np.roll(a, draw(st.integers(-2, 2)), axis=2)
    b = np.where(rng.random(a.shape) < draw(st.sampled_from([0.0, 0.2, 1.0])), rng.integers(0, 256, a.shape), b)
    uv0 = rng.integers(-3, 4, (2 * depth, h, w))
    hs = HsParams(alpha=draw(st.sampled_from([0.5, 15.0])), iterations=draw(st.integers(1, 25)))
    return a.astype(np.float32), b.astype(np.float32), uv0.astype(np.float32), hs


def float32_ulps(got, want, scale):
    """The largest distance of float32 ``got`` from float64 ``want``, in float32 ulps of ``scale``."""
    return float(np.abs(got.astype(np.float64) - want).max() / np.spacing(np.float32(scale)))


class TestFloat32Solver:
    """The solver's filters on float32 stacks: the median is ndimage's, the sums stay within a few ulps of float64 ndimage."""

    @settings(max_examples=80, deadline=None)
    @given(float32_stacks())
    def test_median_is_median_filter(self, x):
        want = ndimage.median_filter(x, size=(1, 5, 5), mode="nearest")
        assert want.dtype == np.float32
        assert _median(x).tobytes() == want.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(float32_stacks())
    def test_downsample_is_within_4_ulps_of_correlate1d(self, x):
        blurred = ndimage.correlate1d(x.astype(np.float64), _BINOMIAL5, axis=1, mode="nearest")
        blurred = ndimage.correlate1d(blurred, _BINOMIAL5, axis=2, mode="nearest")
        got = _downsample(x)
        assert got.dtype == np.float32
        assert float32_ulps(got, blurred[:, ::2, ::2], np.abs(x).max()) <= 4

    @settings(max_examples=80, deadline=None)
    @given(float32_stacks())
    def test_neighbour_mean_is_within_4_ulps_of_correlate(self, x):
        got = TestFiltersMatchNdimage.neighbour_mean(x)
        want = ndimage.correlate(x.astype(np.float64), _AVG_KERNEL[None], mode="nearest")
        assert got.dtype == np.float32
        assert float32_ulps(got, want, np.abs(x).max()) <= 4

    @settings(max_examples=40, deadline=None)
    @given(exact_float32_pairs())
    def test_sweeps_are_within_8_ulps_of_the_ndimage_sweeps(self, case):
        a, b, uv0, hs = case
        got = _hs_sweeps(a, b, uv0, hs)
        want = ndimage_sweeps(a.astype(np.float64), b.astype(np.float64), uv0.astype(np.float64), hs)
        assert got.dtype == np.float32
        assert float32_ulps(got, want, max(np.abs(want).max(), np.abs(uv0).max())) <= 8

    def test_float32_inside_the_solver_and_float64_out(self, monkeypatch):
        """Pyramid levels, every array a sweep step touches and the medians are float32; flows leave as float64."""
        rng = np.random.default_rng(33)
        assert [level.dtype for level in _pyramid(rng.random((4, 32, 24)), 3)] == [np.float32] * 3
        inside = Counter()

        class RecordingNumpy:
            """``np``, recording the float dtypes of the arrays each sweep step reads or writes."""

            def __getattr__(self, name):
                attr = getattr(np, name)
                if name not in TestSweepWork.COUNTED:
                    return attr

                def recorded(*args, **kwargs):
                    arrays = (x for x in (*args, *kwargs.values()) if isinstance(x, np.ndarray))
                    inside.update(f"{name} {x.dtype}" for x in arrays if x.dtype.kind == "f")
                    return attr(*args, **kwargs)

                return recorded

        median = flow_module._median

        def recorded_median(arr):
            out = median(arr)
            inside.update((f"median {arr.dtype}", f"median {out.dtype}"))
            return out

        monkeypatch.setattr(flow_module, "np", RecordingNumpy())
        monkeypatch.setattr(flow_module, "_median", recorded_median)
        f = estimate_flow(Slice2D(gaussian_blob(15.0, 16.0, size=32)), Slice2D(gaussian_blob(16.0, 16.0, size=32)))
        assert f.u.dtype == f.v.dtype == np.float64
        finished = []
        _gap_flows(rng.random((4, 32, 24), dtype=np.float32), HsParams(iterations=2), lambda run, *flows: finished.append(flows))
        assert {name.split()[1] for name in inside} == {"float32"}
        assert {name.split()[0] for name in inside} == {*TestSweepWork.COUNTED, "median"}
        assert finished and {f.dtype for flows in finished for f in flows} == {np.dtype(np.float64)}


class TestSweepWork:
    COUNTED = ("add", "subtract", "multiply", "divide", "copyto")

    def test_each_sweep_is_21_numpy_calls(self, monkeypatch):
        """Views are built once per warp, so one more sweep costs exactly the loop body's calls."""
        calls = Counter()

        class CountingNumpy:
            def __getattr__(self, name):
                attr = getattr(np, name)
                if name not in TestSweepWork.COUNTED:
                    return attr

                def counted(*args, **kwargs):
                    calls[name] += 1
                    return attr(*args, **kwargs)

                return counted

        monkeypatch.setattr(flow_module, "np", CountingNumpy())
        rng = np.random.default_rng(21)
        a, b = rng.random((2, 2, 9, 11)) * 255.0
        uv0 = rng.normal(size=(4, 9, 11))
        totals = []
        for k in (3, 4):
            calls.clear()
            _hs_sweeps(a, b, uv0, HsParams(iterations=k))
            totals.append(sum(calls.values()))
        assert totals[1] - totals[0] == 21


def traced_peak(fn, *args):
    """Peak bytes numpy allocated while ``fn(*args)`` ran, and its result."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class TestSolverMemory:
    """Blocked and preallocated filters: no stack-sized temporary per product or comparator."""

    MB = 1 << 20

    def stacks(self):
        rng = np.random.default_rng(12)
        a, b = rng.random((2, 2, 256, 256)) * 255.0
        return a, b, rng.normal(size=(4, 256, 256))

    def test_median_holds_its_output_and_2_mb(self):
        _, _, uv = self.stacks()
        peak, out = traced_peak(_median, uv)
        assert peak <= out.nbytes + 2 * self.MB

    def test_warp_peaks_at_most_14_07_mb(self):
        """A solver warp of a (2, 256, 256) stack: one plan, its four gathered corners, then the bilerp."""
        a, b, uv0 = self.stacks()
        n = len(a)
        peak, _ = traced_peak(_warp_by, b, uv0[:n], uv0[n:])
        assert peak <= 14.07 * self.MB

    def test_sweeps_hold_their_own_buffers_and_1_mb(self, monkeypatch):
        """After the opening warp, the 25 sweeps hold their seven padded stacks and no stack-sized temporary."""
        a, b, uv0 = self.stacks()
        warp = flow_module._warp_by

        def warp_then_reset_peak(*args):
            warped = warp(*args)
            tracemalloc.reset_peak()  # from here the peak is the sweeps'
            return warped

        monkeypatch.setattr(flow_module, "_warp_by", warp_then_reset_peak)
        peak, _ = traced_peak(_hs_sweeps, a, b, uv0, HsParams())
        n, h, w = a.shape
        padded = (h + 2) * (w + 2) * 8  # bytes of one padded float64 slice
        # Five (2B, H+2, W+2) stacks (uv0, uv, the gradients, two scratch) and two (B, H+2, W+2) (it, denom).
        assert peak <= (5 * 2 * n + 2 * n) * padded + self.MB


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

    def test_non_finite_payload_names_the_path(self, tmp_path):
        path = tmp_path / "nan.vflo"
        path.write_bytes(b'VFLO\n{"dims":[2,1]}\n' + np.array([0.0, np.nan, 1.0, 2.0], "<f4").tobytes())
        with pytest.raises(DataValidationError, match=f"^{re.escape(str(path))}: flow u contains non-finite values$"):
            load_flow(path)

    @pytest.mark.parametrize("component", ["u", "v"])
    def test_values_beyond_float32_are_refused_before_the_file_is_created(self, tmp_path, component):
        path = tmp_path / "f.vflo"
        big, zero = np.full((2, 2), 1e39), np.zeros((2, 2))
        f = FlowField(big, zero) if component == "u" else FlowField(zero, -big)
        with pytest.raises(DomainError, match=f"^flow {component} holds values beyond the float32 range"):
            save_flow(f, path)
        assert not path.exists()
        largest = FlowField(np.full((2, 2), float(np.finfo(np.float32).max)), zero)
        save_flow(largest, path)
        assert load_flow(path) == largest

    def test_truncated(self, tmp_path):
        path = tmp_path / "f.vflo"
        path.write_bytes(b'VFLO\n{"dims":[2,1]}\n' + b"\x00" * 15)
        with pytest.raises(TruncatedPayloadError):
            load_flow(path)
