import os
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import isoslice.impute as impute_module
import isoslice.volume as volume_module
import oracles
from isoslice.flow import _warp_by
from isoslice import (
    FlowField,
    HsParams,
    ImputeConfig,
    InsufficientSlicesError,
    LabelVolume,
    ParameterError,
    ShapeError,
    Slice2D,
    Spacing,
    Volume,
    auto_slice_count,
    backward_warp,
    compose_intermediate_flow,
    decimate,
    estimate_flow,
    impute_volume,
    moving_disk_phantom,
    one_hot_stack,
    save_volume,
    synth_intermediate_label,
    synth_intermediate_slice,
)

UNIT = Spacing(1.0, 1.0, 1.0)


def disk(cx, cy, size=64, radius=7.0):
    xs = np.arange(size)[None, :]
    ys = np.arange(size)[:, None]
    q = np.maximum(0.0, 1.0 - ((xs - cx) ** 2 + (ys - cy) ** 2) / radius**2)
    return q * q


class TestBackwardWarp:
    def test_zero_flow_is_bit_identical(self):
        rng = np.random.default_rng(30)
        img = Slice2D(rng.random((6, 7)))
        out = backward_warp(img, FlowField.zeros(img.dims))
        assert out.data.tobytes() == img.data.tobytes()

    def test_unit_shift_on_ramp(self):
        img = Slice2D(np.array([[0.0, 1.0, 2.0, 3.0]]))
        flow = FlowField(np.ones((1, 4)), np.zeros((1, 4)))
        assert backward_warp(img, flow).data.ravel().tolist() == [1.0, 2.0, 3.0, 3.0]

    def test_half_shift_blends_then_clamps(self):
        img = Slice2D(np.array([[0.0, 2.0]]))
        flow = FlowField(np.full((1, 2), 0.5), np.zeros((1, 2)))
        assert backward_warp(img, flow).data.ravel().tolist() == [1.0, 2.0]

    def test_dims_mismatch(self):
        with pytest.raises(ShapeError):
            backward_warp(Slice2D(np.zeros((2, 2))), FlowField.zeros((3, 2)))

    def test_one_warp_for_slices_and_stacks(self):
        """A slice warps bit for bit as it does inside a stack and through the public wrapper."""
        rng = np.random.default_rng(32)
        stack = rng.random((3, 9, 7))
        u = rng.uniform(-4, 4, stack.shape)
        v = rng.uniform(-4, 4, stack.shape)
        stacked = _warp_by(stack, u, v)
        for k in range(len(stack)):
            alone = _warp_by(stack[k], u[k], v[k])
            assert alone.tobytes() == stacked[k].tobytes()
            assert alone.tobytes() == backward_warp(Slice2D(stack[k]), FlowField(u[k], v[k])).data.tobytes()

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            img = rng.random((8, 8))
            u = rng.uniform(-3, 3, (8, 8))
            v = rng.uniform(-3, 3, (8, 8))
            out = backward_warp(Slice2D(img), FlowField(u, v))
            assert np.allclose(out.data, oracles.warp_bilinear(img, u, v), atol=1e-12)


class TestSynthSlice:
    def test_zero_flow_midpoint_is_average(self):
        rng = np.random.default_rng(32)
        a, b = Slice2D(rng.random((5, 5))), Slice2D(rng.random((5, 5)))
        zeros = FlowField.zeros((5, 5))
        out = synth_intermediate_slice(a, b, zeros, zeros, 0.5)
        assert np.allclose(out.data, 0.5 * (a.data + b.data), atol=1e-12)

    def test_zero_flow_endpoints(self):
        rng = np.random.default_rng(33)
        a, b = Slice2D(rng.random((4, 6))), Slice2D(rng.random((4, 6)))
        zeros = FlowField.zeros((6, 4))
        assert synth_intermediate_slice(a, b, zeros, zeros, 0.0) == a
        assert synth_intermediate_slice(a, b, zeros, zeros, 1.0) == b

    def test_moving_disk_centroid_lands_midway(self):
        i0 = Slice2D(disk(10.0, 32.0))
        i1 = Slice2D(disk(14.0, 32.0))
        f01 = estimate_flow(i0, i1)
        f10 = estimate_flow(i1, i0)
        ft0, ft1 = compose_intermediate_flow(f01, f10, 0.5)
        mid = synth_intermediate_slice(i0, i1, ft0, ft1, 0.5)
        xs = np.arange(64)[None, :]
        centroid = float((mid.data * xs).sum() / mid.data.sum())
        assert abs(centroid - 12.0) < 0.5

    def test_t_validation(self):
        a = Slice2D(np.zeros((2, 2)))
        z = FlowField.zeros((2, 2))
        with pytest.raises(ParameterError):
            synth_intermediate_slice(a, a, z, z, 1.5)

    def test_dims_mismatch(self):
        a = Slice2D(np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            synth_intermediate_slice(a, a, FlowField.zeros((2, 2)), FlowField.zeros((3, 3)), 0.5)


class TestSynthLabel:
    def test_identical_inputs_identity(self):
        labels = np.array([[0, 1], [2, 0]])
        zeros = FlowField.zeros((2, 2))
        for t in (0.0, 0.25, 0.5, 1.0):
            out = synth_intermediate_label(labels, labels, zeros, zeros, t)
            assert np.array_equal(out, labels)

    def test_blend_weight_dominates(self):
        # foreground only in the first input; weight (1 - 0.25) = 0.75 wins
        zeros = FlowField.zeros((1, 1))
        out = synth_intermediate_label(np.array([[1]]), np.array([[0]]), zeros, zeros, 0.25)
        assert out[0, 0] == 1

    def test_even_tie_goes_to_background(self):
        zeros = FlowField.zeros((1, 1))
        out = synth_intermediate_label(np.array([[1]]), np.array([[0]]), zeros, zeros, 0.5)
        assert out[0, 0] == 0

    def test_shape_mismatch(self):
        zeros = FlowField.zeros((1, 1))
        with pytest.raises(ShapeError):
            synth_intermediate_label(np.zeros((1, 1), int), np.zeros((1, 2), int), zeros, zeros, 0.5)
        with pytest.raises(ShapeError):
            synth_intermediate_label(np.zeros((1, 1, 1), int), np.zeros((1, 1, 1), int), zeros, zeros, 0.5)

    @pytest.mark.parametrize("dtype", [np.float64, bool])
    def test_ids_must_be_integers(self, dtype):
        zeros = FlowField.zeros((1, 1))
        with pytest.raises(ParameterError):
            synth_intermediate_label(np.ones((1, 1), dtype), np.zeros((1, 1), int), zeros, zeros, 0.5)

    def test_one_hot_roundtrip(self):
        rng = np.random.default_rng(34)
        labels = rng.integers(0, 4, (5, 6))
        stack = one_hot_stack(labels, 4)
        assert stack.shape == (4, 5, 6)
        assert np.array_equal(np.argmax(stack, axis=0), labels)
        assert np.array_equal(stack.sum(axis=0), np.ones((5, 6)))

    def test_one_hot_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            one_hot_stack(np.array([[3]]), 2)


class TestAutoSliceCount:
    @pytest.mark.parametrize(
        "inter,intra,expected",
        [(4.0, 0.6, 5), (1.0, 1.0, 0), (6.0, 0.5, 11), (0.5, 1.0, 0), (2.0, 1.0, 1)],
    )
    def test_formula(self, inter, intra, expected):
        assert auto_slice_count(inter, intra) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            auto_slice_count(0.0, 1.0)
        with pytest.raises(ParameterError):
            auto_slice_count(1.0, -1.0)

    def test_rejects_an_overflowing_ratio(self):
        with pytest.raises(ParameterError, match="spacings and their ratio"):
            auto_slice_count(1e308, 1e-308)


class TestImputeVolume:
    def two_slice_volume(self, rng, sz=2.0):
        return Volume(rng.random((2, 4, 4)).astype(np.float32), Spacing(1.0, 1.0, sz))

    def test_linear_midpoint_z2(self):
        rng = np.random.default_rng(40)
        v = self.two_slice_volume(rng)
        out, _ = impute_volume(v, cfg=ImputeConfig(n_slices=1, method="linear"))
        assert out.dims[2] == 3
        assert np.array_equal(out.data[0], v.data[0])
        assert np.array_equal(out.data[2], v.data[1])
        expected = 0.5 * (v.data[0].astype(np.float64) + v.data[1].astype(np.float64))
        assert np.allclose(out.data[1], expected, atol=1e-6)
        assert out.spacing.sz == pytest.approx(1.0)

    def test_flow_gaps_build_no_flow_field(self, monkeypatch):
        """The gap loop hands the solver's arrays straight to synthesis, with no FlowField per t."""
        built = []
        post_init = FlowField.__post_init__

        def spy(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(FlowField, "__post_init__", spy)
        FlowField.zeros((2, 2))
        assert len(built) == 1  # the spy sees every FlowField
        ph = moving_disk_phantom(dims=(32, 24, 16), radius=5.0, step=(0.75, 0.25), seed=5)
        impute_volume(decimate(ph.volume, 4), decimate(ph.labels, 4), ImputeConfig(n_slices=3, method="flow"))
        assert len(built) == 1

    @pytest.mark.parametrize("with_labels", [False, True])
    def test_linear_impute_and_save_hold_output_and_a_few_slices(self, tmp_path, monkeypatch, with_labels):
        """Outputs are adopted as built, not copied or scanned again: input + output + a few slices."""
        rng = np.random.default_rng(43)
        v = Volume(rng.random((17, 256, 256), dtype=np.float32), Spacing(1.0, 1.0, 4.0))
        labels = LabelVolume(rng.integers(0, 5, (17, 256, 256)).astype(np.uint8), v.spacing, 5) if with_labels else None
        monkeypatch.setattr(volume_module, "_frozen", None)  # Volume(...) and LabelVolume(...) would call it
        tracemalloc.start()  # the input is already held
        try:
            out, out_labels = impute_volume(v, labels, ImputeConfig(n_slices=3, method="linear"))
            save_volume(out, tmp_path / "o.vvol")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = out.data.nbytes + (out_labels.data.nbytes if with_labels else 0)
        assert peak <= held + 6 * 256 * 256 * 8  # six float64 slices
        assert not out.data.flags.writeable
        assert not with_labels or not out_labels.data.flags.writeable

    def test_counting_identity_z3_n2(self):
        rng = np.random.default_rng(41)
        v = Volume(rng.random((3, 4, 4)).astype(np.float32), Spacing(1.0, 1.0, 3.0))
        out, _ = impute_volume(v, cfg=ImputeConfig(n_slices=2, method="linear"))
        assert out.dims[2] == 7

    @pytest.mark.parametrize("method", ["linear", "flow"])
    def test_originals_preserved_bit_identically(self, method):
        rng = np.random.default_rng(42)
        v = Volume(rng.random((4, 16, 16)).astype(np.float32), Spacing(1.0, 1.0, 3.0))
        out, _ = impute_volume(v, cfg=ImputeConfig(n_slices=2, method=method))
        assert out.dims[2] == 4 + 3 * 2
        for k in range(4):
            assert out.data[k * 3].tobytes() == v.data[k].tobytes()

    def test_geometry_invariant_random(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            z = int(rng.integers(2, 6))
            n = int(rng.integers(0, 4))
            sz = float(rng.uniform(1.0, 8.0))
            v = Volume(rng.random((z, 3, 3)).astype(np.float32), Spacing(1.0, 1.0, sz))
            out, _ = impute_volume(v, cfg=ImputeConfig(n_slices=n, method="linear"))
            assert out.dims[2] == z + (z - 1) * n
            assert out.spacing.sz == pytest.approx(sz / (n + 1))

    def test_convexity_of_intensities(self):
        rng = np.random.default_rng(44)
        v = Volume(rng.random((3, 16, 16)).astype(np.float32), Spacing(1.0, 1.0, 2.0))
        out, _ = impute_volume(v, cfg=ImputeConfig(n_slices=3, method="flow"))
        assert out.data.min() >= v.data.min() - 1e-6
        assert out.data.max() <= v.data.max() + 1e-6

    def test_linear_matches_closed_form(self):
        rng = np.random.default_rng(45)
        v = Volume(rng.random((3, 5, 5)).astype(np.float32), Spacing(1.0, 1.0, 4.0))
        out, _ = impute_volume(v, cfg=ImputeConfig(n_slices=3, method="linear"))
        for k in range(2):
            a = v.data[k].astype(np.float64)
            b = v.data[k + 1].astype(np.float64)
            for i in range(1, 4):
                t = i / 4.0
                assert np.allclose(out.data[k * 4 + i], (1 - t) * a + t * b, atol=1e-6)

    def test_insufficient_slices(self):
        v = Volume(np.zeros((1, 4, 4), np.float32), UNIT)
        with pytest.raises(InsufficientSlicesError):
            impute_volume(v, cfg=ImputeConfig(n_slices=1))

    def test_auto_noop_warns_when_isotropic(self):
        rng = np.random.default_rng(46)
        v = Volume(rng.random((2, 4, 4)).astype(np.float32), Spacing(1.0, 1.0, 1.0))
        with pytest.warns(UserWarning):
            out, out_labels = impute_volume(v, cfg=ImputeConfig(n_slices="auto"))
        assert out is v
        assert out_labels is None

    def test_auto_resolves_from_spacing(self):
        rng = np.random.default_rng(47)
        v = Volume(rng.random((2, 4, 4)).astype(np.float32), Spacing(0.6, 0.6, 4.0))
        out, _ = impute_volume(v, cfg=ImputeConfig(n_slices="auto", method="linear"))
        assert out.dims[2] == 2 + 5
        assert out.spacing.sz == pytest.approx(4.0 / 6.0)

    def test_explicit_zero_is_noop_without_warning(self):
        rng = np.random.default_rng(48)
        v = self.two_slice_volume(rng)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, _ = impute_volume(v, cfg=ImputeConfig(n_slices=0))
        assert out is v

    def test_label_geometry_mismatch(self):
        rng = np.random.default_rng(49)
        v = self.two_slice_volume(rng)
        bad = LabelVolume(np.zeros((2, 5, 4), np.uint8), v.spacing, 2)
        with pytest.raises(ShapeError):
            impute_volume(v, bad, ImputeConfig(n_slices=1))
        bad_spacing = LabelVolume(np.zeros((2, 4, 4), np.uint8), Spacing(2.0, 1.0, 2.0), 2)
        with pytest.raises(ShapeError):
            impute_volume(v, bad_spacing, ImputeConfig(n_slices=1))

    def test_static_labels_survive_imputation(self):
        rng = np.random.default_rng(50)
        plane = rng.random((16, 16)).astype(np.float32)
        v = Volume(np.stack([plane, plane]), Spacing(1.0, 1.0, 2.0))
        mask = np.zeros((16, 16), np.uint8)
        mask[4:9, 5:11] = 1
        labels = LabelVolume(np.stack([mask, mask]), v.spacing, 2)
        out_v, out_l = impute_volume(v, labels, ImputeConfig(n_slices=3, method="flow"))
        assert out_l is not None
        assert out_l.classes == 2
        for k in range(out_v.dims[2]):
            assert np.array_equal(out_l.data[k], mask)

    def test_moving_labels_track_the_disk(self):
        i0 = disk(24.0, 32.0)
        i1 = disk(28.0, 32.0)
        v = Volume(np.stack([i0, i1]).astype(np.float32), Spacing(1.0, 1.0, 2.0))
        l0 = (disk(24.0, 32.0) > 0).astype(np.uint8)
        l1 = (disk(28.0, 32.0) > 0).astype(np.uint8)
        labels = LabelVolume(np.stack([l0, l1]), v.spacing, 2)
        _, out_l = impute_volume(v, labels, ImputeConfig(n_slices=1, method="flow"))
        mid = out_l.data[1]
        assert mid.max() == 1
        xs = np.arange(64)[None, :]
        centroid = float((mid * xs).sum() / mid.sum())
        assert abs(centroid - 26.0) < 1.0

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            ImputeConfig(n_slices=-1)
        with pytest.raises(ParameterError):
            ImputeConfig(method="cubic")

    def test_output_over_voxel_limit_is_refused(self):
        v = Volume(np.zeros((2, 64, 64), np.float32), UNIT)
        with pytest.raises(ParameterError, match="exceeds the limit"):
            impute_volume(v, cfg=ImputeConfig(n_slices=10**9, method="linear"))

    def test_too_small_for_pyramid_is_refused_before_any_gap(self, monkeypatch):
        def solve(*args):
            raise AssertionError("a gap was solved before the size check")

        monkeypatch.setattr(impute_module, "_solve_stack", solve)
        v = Volume(np.zeros((3, 4, 6), np.float32), UNIT)
        hs = HsParams(pyramid_levels=3)
        with pytest.raises(ParameterError) as from_volume:
            impute_volume(v, cfg=ImputeConfig(n_slices=1, method="flow", hs=hs))
        with pytest.raises(ParameterError) as from_pair:
            estimate_flow(Slice2D(v.data[0]), Slice2D(v.data[1]), hs)
        assert str(from_volume.value) == str(from_pair.value) == "dims (6, 4) too small for 3 pyramid levels"
        # The linear blend builds no pyramid, so the rule does not apply to it.
        out, _ = impute_volume(v, cfg=ImputeConfig(n_slices=1, method="linear", hs=hs))
        assert out.dims == (6, 4, 5)


class TestFlowStability:
    def test_flow_beats_linear_on_every_phantom_seed(self):
        """Default flow stays well below linear on every seed, not just gate 8's.

        Without a median filter after each warp, coarse-to-fine Horn-Schunck
        diverges on about a third of these seeds (ratios up to about 1.0).
        """
        removed = [r for r in range(17) if r % 4]
        cfg = ImputeConfig(n_slices=3, method="flow")
        ratios = {}
        for seed in range(36):
            ph = moving_disk_phantom(dims=(64, 64, 17), radius=8.0, step=(0.75, 0.0), seed=seed)
            thinned = decimate(ph.volume, 4)
            truth = ph.volume.data.astype(np.float64)

            def mean_l1(out):
                return np.mean([np.abs(out.data[r] - truth[r]).mean() for r in removed])

            flow_out, _ = impute_volume(thinned, cfg=cfg)
            linear_out, _ = impute_volume(thinned, cfg=ImputeConfig(n_slices=3, method="linear"))
            ratios[seed] = mean_l1(flow_out) / mean_l1(linear_out)
        failing = {seed: round(float(r), 3) for seed, r in ratios.items() if r > 0.2}
        assert not failing, f"flow/linear L1 ratio above 0.2 for seeds {failing}"


class TestGapWorkers:
    @pytest.fixture()
    def pools(self, monkeypatch):
        """Worker counts of the pools ``impute_volume`` starts."""
        started = []
        pool = impute_module.ThreadPoolExecutor

        def recording_pool(workers):
            started.append(workers)
            return pool(workers)

        monkeypatch.setattr(impute_module, "ThreadPoolExecutor", recording_pool)
        return started

    @pytest.fixture()
    def stacks(self, monkeypatch):
        """(pairs, H, W) of every stack ``impute_volume`` hands the flow solver."""
        shapes = []
        solve = impute_module._solve_stack

        def recording_solve(ab, params, levels):
            shapes.append((len(ab) // 2, *ab.shape[1:]))
            return solve(ab, params, levels)

        monkeypatch.setattr(impute_module, "_solve_stack", recording_solve)
        return shapes

    @pytest.mark.parametrize("n", [1, 3])
    def test_flow_output_bytes_do_not_depend_on_cpu_count(self, monkeypatch, pools, stacks, n):
        ph = moving_disk_phantom(dims=(32, 24, 16), radius=5.0, step=(0.75, 0.25), seed=4)
        cfg = ImputeConfig(n_slices=n, method="flow", hs=HsParams(iterations=10))
        outputs, runs = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the workers as finely as the interpreter allows
        try:
            for cpus in (1, 2, 3, 4, 7):
                monkeypatch.setattr(impute_module, "_usable_cpus", lambda cpus=cpus: cpus)
                image, labels = impute_volume(ph.volume, ph.labels, cfg)
                outputs.append((image.data.tobytes(), labels.data.tobytes()))
                runs.append(sorted(shape[0] // 2 for shape in stacks))
                stacks.clear()
        finally:
            sys.setswitchinterval(interval)
        assert runs == [[15], [7, 8], [5, 5, 5], [3, 4, 4, 4], [3] * 5]  # gaps per run
        assert pools == [2, 3, 4, 5]  # one CPU starts no pool; 7 CPUs get 5 runs
        assert all(out == outputs[0] for out in outputs[1:])

    @pytest.mark.parametrize(
        ("size", "slices"),
        [
            (64, [8, 8]),  # 8 gaps on 2 CPUs: one run of 4 gaps per worker
            (256, [2] * 8),  # one gap (2 * 256 * 256 px) already exceeds the cap
        ],
    )
    def test_each_worker_solves_its_gaps_as_one_stack(self, monkeypatch, stacks, size, slices):
        rng = np.random.default_rng(5)
        vol = Volume(rng.random((9, size, size), dtype=np.float32), UNIT)
        monkeypatch.setattr(impute_module, "_usable_cpus", lambda: 2)
        cfg = ImputeConfig(n_slices=1, method="flow", hs=HsParams(iterations=1, warps_per_level=1))
        impute_volume(vol, cfg=cfg)
        assert sorted(shape[0] for shape in stacks) == slices
        assert all(shape[1:] == (size, size) for shape in stacks)
        # Only a one-gap stack may exceed the cap: a gap's pair is never split.
        assert all(shape[0] == 2 or np.prod(shape) <= impute_module._STACK_PIXELS for shape in stacks)

    def test_each_run_synthesizes_each_t_as_one_stack(self, monkeypatch):
        # Plans and plan lists are kept alive, so their ids stay unique.
        calls, built, handed = [], [], {"_blend": [], "_vote": []}
        for name in ("_blend", "_vote", "_compose", "_plan"):
            real = getattr(impute_module, name)

            def recording(*args, name=name, real=real):
                calls.append(name)
                result = real(*args)
                if name == "_plan":
                    built.append(result)
                elif name in handed:
                    handed[name].append(args[2])
                return result

            monkeypatch.setattr(impute_module, name, recording)
        monkeypatch.setattr(impute_module, "_usable_cpus", lambda: 2)
        rng = np.random.default_rng(6)
        vol = Volume(rng.random((9, 64, 64), dtype=np.float32), UNIT)
        labels = LabelVolume((vol.data > 0.5).astype(np.uint8), UNIT, 2)
        hs = HsParams(iterations=1, warps_per_level=1)
        impute_volume(vol, labels, ImputeConfig(n_slices=3, method="flow", hs=hs))
        # 8 gaps on 2 CPUs are two runs of 4; each run makes one call per t, and builds one plan per endpoint.
        assert sorted(calls) == ["_blend"] * 6 + ["_compose"] * 6 + ["_plan"] * 12 + ["_vote"] * 6
        # The blend and the vote of each t get the very same two plans, and every plan built serves one t.
        assert sorted(map(id, handed["_blend"])) == sorted(map(id, handed["_vote"]))
        assert all(len(plans) == 2 for plans in handed["_blend"])
        assert sorted(id(plan) for plans in handed["_blend"] for plan in plans) == sorted(map(id, built))
        calls.clear()
        ph = moving_disk_phantom(dims=(32, 24, 16), radius=5.0, seed=4)
        impute_volume(ph.volume, cfg=ImputeConfig(n_slices=2, method="linear"))
        assert calls == ["_blend"] * 2  # 15 small gaps make one run

    def test_linear_gaps_stay_serial(self, monkeypatch, pools):
        ph = moving_disk_phantom(dims=(32, 24, 16), radius=5.0, seed=4)
        monkeypatch.setattr(impute_module, "_usable_cpus", lambda: 3)
        impute_volume(ph.volume, ph.labels, ImputeConfig(n_slices=2, method="linear"))
        assert pools == []

    def test_usable_cpus_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert impute_module._usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert impute_module._usable_cpus() == 1


@st.composite
def label_cases(draw):
    """A small image/label volume with 1-4 of up to 50 declared classes, and n."""
    classes = draw(st.integers(1, 50))
    z, h, w = draw(st.integers(2, 3)), draw(st.integers(2, 7)), draw(st.integers(2, 7))
    ids = draw(st.lists(st.integers(0, classes - 1), min_size=1, max_size=4, unique=True))
    dtype = draw(st.sampled_from([np.uint8, np.uint16]))
    labels = draw(hnp.arrays(dtype, (z, h, w), elements=st.sampled_from(ids)))
    image = draw(hnp.arrays(np.float32, (z, h, w), elements=st.floats(0.0, 1.0, width=32)))
    # n = 1 and n = 3 put a slice at t = 0.5, where two-class ties are exact.
    n = draw(st.integers(1, 3))
    return Volume(image, UNIT), LabelVolume(labels, UNIT, classes), n


class TestLabelSynthesisExactness:
    @settings(max_examples=60, deadline=None)
    @given(label_cases())
    def test_linear_labels_match_dense_argmax(self, case):
        v, labels, n = case
        _, out = impute_volume(v, labels, ImputeConfig(n_slices=n, method="linear"))
        expected = oracles.impute_labels(labels.data, labels.classes, n)
        assert out.data.dtype == labels.data.dtype
        assert np.array_equal(out.data, expected)

    @settings(max_examples=40, deadline=None)
    @given(label_cases())
    def test_flow_labels_match_dense_argmax(self, case):
        v, labels, n = case
        hs = HsParams(iterations=10, pyramid_levels=1)
        _, out = impute_volume(v, labels, ImputeConfig(n_slices=n, method="flow", hs=hs))

        def flows(k, t):
            a, b = Slice2D(v.data[k]), Slice2D(v.data[k + 1])
            ft0, ft1 = compose_intermediate_flow(estimate_flow(a, b, hs), estimate_flow(b, a, hs), t)
            return ft0.u, ft0.v, ft1.u, ft1.v

        expected = oracles.impute_labels(labels.data, labels.classes, n, flows)
        assert np.array_equal(out.data, expected)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_public_label_synthesis_is_dense_argmax(self, data):
        h, w = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        ids = data.draw(st.lists(st.integers(0, 11), min_size=1, max_size=8, unique=True))
        elements = st.sampled_from(ids)
        if data.draw(st.booleans()):  # noisy: any id at any pixel
            l0, l1 = (data.draw(hnp.arrays(np.int64, (h, w), elements=elements)) for _ in "01")
        else:  # blocky: 2x2 blocks, so neighbouring corners often agree
            blocks = hnp.arrays(np.int64, (3, 3), elements=elements)
            l0, l1 = (np.kron(data.draw(blocks), np.ones((2, 2), int))[:h, :w] for _ in "01")
        # half-pixel flows make corner weights of exactly 1/2, so ties are common
        halves = hnp.arrays(np.float64, (h, w), elements=st.integers(-6, 6).map(lambda k: k / 2.0))
        ft0 = FlowField(data.draw(halves), data.draw(halves))
        ft1 = FlowField(data.draw(halves), data.draw(halves))
        t = data.draw(st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 1.0]))
        dense = np.stack([
            (1.0 - t) * oracles.warp_bilinear((l0 == c).astype(np.float64), ft0.u, ft0.v)
            + t * oracles.warp_bilinear((l1 == c).astype(np.float64), ft1.u, ft1.v)
            for c in range(max(ids) + 1)
        ])
        out = synth_intermediate_label(l0, l1, ft0, ft1, t)
        assert out.dtype == np.intp
        assert np.array_equal(out, np.argmax(dense, axis=0))

    def test_cost_follows_present_classes_not_declared(self):
        rng = np.random.default_rng(42)
        v = Volume(rng.random((5, 128, 128)).astype(np.float32), Spacing(1.0, 1.0, 4.0))
        ids = rng.integers(0, 3, (5, 128, 128)).astype(np.uint16)
        cfg = ImputeConfig(n_slices=3, method="linear")
        out_bytes = 17 * 128 * 128 * (4 + 2)
        peaks = {}
        for classes in (3, 4000):
            labels = LabelVolume(ids, v.spacing, classes)
            started = time.perf_counter()
            impute_volume(v, labels, cfg)
            elapsed = time.perf_counter() - started
            tracemalloc.start()
            try:
                _, out = impute_volume(v, labels, cfg)
                peaks[classes] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.classes == classes
            assert elapsed < 1.0
        assert peaks[4000] < 3 * out_bytes
        assert peaks[4000] < 1.1 * peaks[3]
        # Flow gaps: about 2600 ids present per slice, nearly every pixel a mixed vote.
        ids = rng.integers(0, 4096, (2, 64, 64)).astype(np.uint16)
        v = Volume(rng.random((2, 64, 64)).astype(np.float32), UNIT)
        hs = HsParams(iterations=1, pyramid_levels=1, warps_per_level=1)
        started = time.perf_counter()
        impute_volume(v, LabelVolume(ids, UNIT, 4096), ImputeConfig(n_slices=3, method="flow", hs=hs))
        assert time.perf_counter() - started < 1.0
