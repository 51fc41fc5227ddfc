import math

import numpy as np
import pytest
from scipy import ndimage

import oracles
from isoslice import (
    DataValidationError,
    DomainError,
    LOSS_TERMS,
    FlowField,
    LossWeights,
    ParameterError,
    ShapeError,
    Slice2D,
    Spacing,
    Volume,
    adv_loss,
    backward_warp,
    global_disc_loss,
    loss_report,
    multitask_loss,
    rec_loss,
    smooth_loss,
    total_loss,
    tp_smooth_loss,
    tp_smooth_slice,
    warp_loss,
)
from isoslice.losses import _SAGITTAL_BLOCK

LN2 = math.log(2.0)


def rand_slice(rng, shape=(8, 8)):
    return Slice2D(rng.random(shape))


def rand_field(rng, shape=(8, 8)):
    return FlowField(rng.uniform(-2, 2, shape), rng.uniform(-2, 2, shape))


class TestRecLoss:
    def test_identical_pairs_zero(self):
        rng = np.random.default_rng(60)
        s = rand_slice(rng)
        assert rec_loss([(s, s), (s, s)]) == 0.0

    def test_worked_single_pair(self):
        pair = (Slice2D(np.array([[0.0, 0.0]])), Slice2D(np.array([[1.0, 3.0]])))
        assert rec_loss([pair]) == pytest.approx(2.0, rel=1e-6)

    def test_mean_of_per_pair_means(self):
        a = (Slice2D(np.zeros((1, 1))), Slice2D(np.ones((1, 1))))  # 1.0
        b = (Slice2D(np.zeros((1, 1))), Slice2D(np.full((1, 1), 3.0)))  # 3.0
        assert rec_loss([a, b]) == pytest.approx(2.0, rel=1e-6)

    def test_empty_list_rejected(self):
        with pytest.raises(ParameterError):
            rec_loss([])

    def test_empty_generator_rejected(self):
        with pytest.raises(ParameterError):
            rec_loss(pair for pair in ())

    def test_generator_equals_list_bit_for_bit(self):
        rng = np.random.default_rng(64)
        pairs = [(rand_slice(rng), rand_slice(rng)) for _ in range(5)]
        assert rec_loss(pair for pair in pairs) == rec_loss(pairs)

    def test_dims_mismatch(self):
        with pytest.raises(ShapeError):
            rec_loss([(Slice2D(np.zeros((1, 2))), Slice2D(np.zeros((2, 1))))])

    def test_matches_oracle(self):
        rng = np.random.default_rng(61)
        pairs = [(rand_slice(rng), rand_slice(rng)) for _ in range(4)]
        expected = oracles.rec([(a.data, b.data) for a, b in pairs])
        assert rec_loss(pairs) == pytest.approx(expected, rel=1e-6)

    def test_absolute_homogeneity(self):
        rng = np.random.default_rng(62)
        a, b = rand_slice(rng), rand_slice(rng)
        base = rec_loss([(a, b)])
        scaled = rec_loss([(Slice2D(3.0 * a.data), Slice2D(3.0 * b.data))])
        assert scaled == pytest.approx(3.0 * base, rel=1e-9)

    def test_array_pairs_equal_slice_pairs(self):
        rng = np.random.default_rng(65)
        arrays = [(rng.random((5, 7), np.float32), rng.random((5, 7), np.float32)) for _ in range(3)]
        assert rec_loss(arrays) == rec_loss((Slice2D(a), Slice2D(b)) for a, b in arrays)

    @pytest.mark.parametrize(
        "a, b",
        [(np.zeros((2, 3)), np.zeros((3, 2))), (np.zeros(4), np.zeros(4)),
         (np.zeros((1, 2, 2)), np.zeros((1, 2, 2))), (np.zeros((0, 3)), np.zeros((0, 3)))],
    )
    def test_array_pairs_need_one_non_empty_2d_shape(self, a, b):
        with pytest.raises(ShapeError):
            rec_loss([(a, b)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_arrays_rejected(self, bad):
        a = np.zeros((2, 2))
        b = np.zeros((2, 2))
        b[1, 0] = bad
        with pytest.raises(DataValidationError):
            rec_loss([(a, b)])
        with pytest.raises(DataValidationError):
            rec_loss([(Slice2D(a), b)])

    @pytest.mark.parametrize(
        "bad", [np.array([["a", "b"]]), np.zeros((1, 2), complex), np.array([[1.0, None]], object)]
    )
    def test_non_real_arrays_rejected(self, bad):
        with pytest.raises(DataValidationError):
            rec_loss([(np.zeros((1, 2)), bad)])


class TestWarpLoss:
    def test_perfect_inputs_zero(self):
        rng = np.random.default_rng(63)
        s = rand_slice(rng)
        z = FlowField.zeros(s.dims)
        assert warp_loss(s, s, z, z, [(s, z, z)]) == 0.0

    def test_worked_endpoint_terms(self):
        i0 = Slice2D(np.zeros((3, 3)))
        i1 = Slice2D(np.ones((3, 3)))
        z = FlowField.zeros((3, 3))
        assert warp_loss(i0, i1, z, z) == pytest.approx(2.0, rel=1e-6)

    def test_exactly_reconstructed_mid_adds_nothing_from_first_endpoint(self):
        rng = np.random.default_rng(64)
        i0, i1 = rand_slice(rng), rand_slice(rng)
        fa, fb = rand_field(rng), rand_field(rng)
        f01, f10 = rand_field(rng), rand_field(rng)
        target = backward_warp(i0, fa)
        base = warp_loss(i0, i1, f01, f10)
        with_mid = warp_loss(i0, i1, f01, f10, [(target, fa, fb)])
        second_half = np.abs(target.data - backward_warp(i1, fb).data).mean()
        assert with_mid == pytest.approx(base + second_half, rel=1e-9)

    def test_shape_mismatch(self):
        i0 = Slice2D(np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            warp_loss(i0, i0, FlowField.zeros((3, 3)), FlowField.zeros((2, 2)))

    def test_matches_oracle(self):
        rng = np.random.default_rng(75)
        i0, i1 = rand_slice(rng), rand_slice(rng)
        f01, f10 = rand_field(rng), rand_field(rng)
        mids = [(rand_slice(rng), rand_field(rng), rand_field(rng)) for _ in range(3)]
        expected = oracles.mean_abs(i0.data, oracles.warp_bilinear(i1.data, f01.u, f01.v))
        expected += oracles.mean_abs(i1.data, oracles.warp_bilinear(i0.data, f10.u, f10.v))
        expected += sum(
            oracles.mean_abs(tgt.data, oracles.warp_bilinear(i0.data, fa.u, fa.v))
            for tgt, fa, _ in mids
        ) / len(mids)
        expected += sum(
            oracles.mean_abs(tgt.data, oracles.warp_bilinear(i1.data, fb.u, fb.v))
            for tgt, _, fb in mids
        ) / len(mids)
        assert warp_loss(i0, i1, f01, f10, mids) == pytest.approx(expected, rel=1e-6)


class TestSmoothLoss:
    def test_constant_fields_zero(self):
        c = FlowField(np.full((4, 4), 2.0), np.full((4, 4), -1.0))
        assert smooth_loss(c, c) == 0.0

    def test_worked_one_by_two(self):
        f01 = FlowField(np.array([[0.0, 1.0]]), np.zeros((1, 2)))
        f10 = FlowField.zeros((2, 1))
        assert smooth_loss(f01, f10) == pytest.approx(1.0, rel=1e-6)

    def test_doubling_doubles(self):
        rng = np.random.default_rng(65)
        f01, f10 = rand_field(rng), rand_field(rng)
        base = smooth_loss(f01, f10)
        doubled = smooth_loss(
            FlowField(2 * f01.u, 2 * f01.v), FlowField(2 * f10.u, 2 * f10.v)
        )
        assert doubled == pytest.approx(2.0 * base, rel=1e-9)

    def test_matches_oracle(self):
        rng = np.random.default_rng(66)
        f01, f10 = rand_field(rng), rand_field(rng)
        expected = oracles.field_gradient_l1(f01.u, f01.v) + oracles.field_gradient_l1(
            f10.u, f10.v
        )
        assert smooth_loss(f01, f10) == pytest.approx(expected, rel=1e-6)


class TestTpSmooth:
    def test_constant_volume_zero(self):
        v = Volume(np.full((3, 3, 3), 5.0, np.float32), Spacing(1, 1, 1))
        assert tp_smooth_loss(v) == 0.0

    def test_worked_two_by_two_slice(self):
        s = Slice2D(np.array([[0.0, 1.0], [2.0, 3.0]]))
        assert tp_smooth_slice(s) == 2.5

    def test_quadratic_homogeneity(self):
        rng = np.random.default_rng(67)
        arr = rng.random((4, 5))
        base = tp_smooth_slice(Slice2D(arr))
        assert tp_smooth_slice(Slice2D(3.0 * arr)) == pytest.approx(9.0 * base, rel=1e-9)

    def test_slice_matches_oracle(self):
        rng = np.random.default_rng(68)
        arr = rng.random((8, 8))
        assert tp_smooth_slice(Slice2D(arr)) == pytest.approx(
            oracles.tp_smooth_slice(arr), rel=1e-6
        )

    def test_volume_averages_both_slice_families(self):
        rng = np.random.default_rng(69)
        data = rng.random((3, 4, 5)).astype(np.float32)
        v = Volume(data, Spacing(1, 1, 1))
        sagittal = [oracles.tp_smooth_slice(data[:, :, i].astype(np.float64)) for i in range(5)]
        coronal = [oracles.tp_smooth_slice(data[:, j, :].astype(np.float64)) for j in range(4)]
        expected = float(np.mean(sagittal + coronal))
        assert tp_smooth_loss(v) == pytest.approx(expected, rel=1e-6)
        # Exactly the mean over Slice2D copies of the slices.
        slices = [Slice2D(data[:, :, i]) for i in range(5)] + [Slice2D(data[:, j, :]) for j in range(4)]
        assert tp_smooth_loss(v) == float(np.mean([tp_smooth_slice(s) for s in slices]))
        # Sagittal slices are read in blocks; the mean stays exact for one
        # partial block, a block plus one, and several blocks plus a remainder.
        n = _SAGITTAL_BLOCK
        for x in (2, n - 1, n + 1, 3 * n + 2):
            for y in (2, n - 1, n + 1, 3 * n + 2):
                data = rng.random((2, y, x)).astype(np.float32)
                slices = [Slice2D(data[:, :, i]) for i in range(x)] + [Slice2D(data[:, j, :]) for j in range(y)]
                want = float(np.mean([tp_smooth_slice(s) for s in slices]))
                assert tp_smooth_loss(Volume(data, Spacing(1, 1, 1))) == want, (x, y)

    def test_degenerate_extent_rejected(self):
        v = Volume(np.zeros((1, 3, 3), np.float32), Spacing(1, 1, 1))
        with pytest.raises(ParameterError):
            tp_smooth_loss(v)

    def test_smoothing_noise_decreases_loss(self):
        rng = np.random.default_rng(70)
        noisy = rng.random((6, 6, 6)).astype(np.float32)
        smoothed = ndimage.uniform_filter(noisy, size=3, mode="nearest")
        v_noisy = Volume(noisy, Spacing(1, 1, 1))
        v_smooth = Volume(smoothed, Spacing(1, 1, 1))
        assert tp_smooth_loss(v_smooth) < tp_smooth_loss(v_noisy)


class TestProbabilisticLosses:
    def test_adv_worked_half(self):
        assert adv_loss([0.5], [0.5]) == pytest.approx(2 * LN2, abs=1e-9)

    def test_adv_perfect_fooling_limit(self):
        assert adv_loss([0.999999], [0.999999]) < 1e-5

    def test_adv_mean_invariance(self):
        assert adv_loss([0.3, 0.3], [0.6, 0.6]) == pytest.approx(
            adv_loss([0.3], [0.6]), abs=1e-12
        )

    def test_adv_rejects_out_of_domain_with_index(self):
        with pytest.raises(DomainError, match=r"gd_fake\[1\]"):
            adv_loss([0.5, 0.5], [0.5, 1.0])

    def test_adv_rejects_empty(self):
        with pytest.raises(ParameterError):
            adv_loss([], [])

    @pytest.mark.parametrize(
        "entry", ["0.5", True, None, [0.5], 10**400], ids=["str", "bool", "null", "list", "huge-int"]
    )
    def test_series_reject_non_numbers(self, entry):
        with pytest.raises(ParameterError, match="ld_fake"):
            adv_loss([entry], [0.5])

    def test_series_accept_numpy_arrays_and_scalars(self):
        expected = multitask_loss([0.5], [0.5], [0.5], [0.5], [1], [0])
        got = multitask_loss(
            np.array([0.5]), np.array([0.5], np.float32), [np.float64(0.5)], [np.float32(0.5)],
            np.array([1], np.uint8), [np.int64(0)],
        )
        assert got == expected

    def test_global_worked_half(self):
        assert global_disc_loss([0.5], [0.5]) == pytest.approx(2 * LN2, abs=1e-9)

    def test_global_perfect_discrimination_limit(self):
        assert global_disc_loss([1e-9], [1.0 - 1e-9]) < 1e-6

    def test_global_swap_identity(self):
        # swapping (fake p, real q) -> (fake 1-q, real 1-p) keeps the value
        rng = np.random.default_rng(71)
        p = rng.uniform(0.05, 0.95, 5)
        q = rng.uniform(0.05, 0.95, 5)
        assert global_disc_loss(p, q) == pytest.approx(
            global_disc_loss(1.0 - q, 1.0 - p), rel=1e-9
        )

    def test_multitask_worked_half(self):
        value = multitask_loss([0.5], [0.5], [0.5], [0.5], [1], [1])
        assert value == pytest.approx(4 * LN2, abs=1e-9)

    def test_multitask_zero_labels_drop_classifier_term(self):
        disc_only = multitask_loss([0.3], [0.8], [0.123], [0.9], [0], [0])
        assert disc_only == pytest.approx(-math.log(0.7) - math.log(0.8), abs=1e-12)

    def test_multitask_perfect_limit(self):
        value = multitask_loss([1e-9], [1.0 - 1e-9], [0.5], [0.5], [0], [0])
        assert value < 1e-6

    def test_multitask_rejects_length_mismatch(self):
        with pytest.raises(ShapeError):
            multitask_loss([0.5], [0.5], [0.5], [0.5], [1, 1], [1])

    def test_multitask_rejects_nonbinary_labels(self):
        with pytest.raises(DomainError, match=r"y_fake\[0\]"):
            multitask_loss([0.5], [0.5], [0.5], [0.5], [0.5], [1])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(72)
        p = rng.uniform(0.05, 0.95, 6)
        q = rng.uniform(0.05, 0.95, 6)
        perm = rng.permutation(6)
        assert adv_loss(p, q) == pytest.approx(adv_loss(p[perm], q[perm]), rel=1e-12)
        assert global_disc_loss(p, q) == pytest.approx(
            global_disc_loss(p[perm], q[perm]), rel=1e-12
        )

    def test_match_oracles_on_random_series(self):
        rng = np.random.default_rng(73)
        p = rng.uniform(0.05, 0.95, 8).tolist()
        q = rng.uniform(0.05, 0.95, 8).tolist()
        r = rng.uniform(0.05, 0.95, 8).tolist()
        s = rng.uniform(0.05, 0.95, 8).tolist()
        yf = rng.integers(0, 2, 8).tolist()
        yr = rng.integers(0, 2, 8).tolist()
        assert adv_loss(p, q) == pytest.approx(oracles.adv(p, q), rel=1e-6)
        assert global_disc_loss(p, q) == pytest.approx(oracles.global_disc(p, q), rel=1e-6)
        assert multitask_loss(p, q, r, s, yf, yr) == pytest.approx(
            oracles.multitask(p, q, r, s, yf, yr), rel=1e-6
        )


class TestNonNegativity:
    def test_every_evaluator_is_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(76)
        for _ in range(10):
            a, b = rand_slice(rng), rand_slice(rng)
            f01, f10 = rand_field(rng), rand_field(rng)
            p = rng.uniform(0.05, 0.95, 4).tolist()
            q = rng.uniform(0.05, 0.95, 4).tolist()
            y = rng.integers(0, 2, 4).tolist()
            assert rec_loss([(a, b)]) >= 0.0
            assert warp_loss(a, b, f01, f10) >= 0.0
            assert smooth_loss(f01, f10) >= 0.0
            assert tp_smooth_slice(a) >= 0.0
            assert adv_loss(p, q) >= 0.0
            assert global_disc_loss(p, q) >= 0.0
            assert multitask_loss(p, q, p, q, y, y) >= 0.0


class TestTotalLoss:
    def test_all_zero(self):
        assert total_loss({t: 0.0 for t in ("l_rec", "l_warp", "l_adv")}) == 0.0

    def test_worked_unit_parts_default_weights(self):
        parts = {t: 1.0 for t in ("l_rec", "l_per", "l_warp", "l_smooth", "l_adv", "l_tp_smooth")}
        assert total_loss(parts) == pytest.approx(3.517, rel=1e-6)

    def test_linearity_in_parts(self):
        rng = np.random.default_rng(74)
        parts = {
            t: float(rng.random())
            for t in ("l_rec", "l_per", "l_warp", "l_smooth", "l_adv", "l_tp_smooth")
        }
        doubled = {t: 2.0 * v for t, v in parts.items()}
        assert total_loss(doubled) == pytest.approx(2.0 * total_loss(parts), rel=1e-12)

    def test_unknown_term_rejected(self):
        with pytest.raises(ParameterError):
            total_loss({"l_typo": 1.0})

    def test_overflowing_total_rejected(self):
        with pytest.raises(ParameterError, match="overflows"):
            total_loss({"l_adv": 2.0}, LossWeights(lambda_adv=1e308))

    def test_weight_override(self):
        weights = LossWeights.from_dict({"lambda_adv": 0.5})
        assert total_loss({"l_adv": 1.0}, weights) == pytest.approx(0.5)
        assert weights.lambda_tp_smooth == pytest.approx(0.467)

    @pytest.mark.parametrize("term", ["l_typo", "rec", "lambda_rec", ""])
    def test_for_term_rejects_non_terms(self, term):
        with pytest.raises(ParameterError):
            LossWeights().for_term(term)

    def test_for_term_reads_each_field(self):
        weights = LossWeights(*range(1, 7))
        assert [weights.for_term(t) for t in LOSS_TERMS] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_weights_reject_unknown_key(self):
        with pytest.raises(ParameterError):
            LossWeights.from_dict({"lambda_nope": 1.0})

    def test_weights_accept_numpy_scalars(self):
        weights = LossWeights.from_dict({"lambda_rec": np.float32(2.0), "lambda_adv": np.int64(1)})
        assert (weights.lambda_rec, weights.lambda_adv) == (2.0, 1.0)

    @pytest.mark.parametrize(
        "value", [True, "2", None, [1.0], 10**400], ids=["bool", "str", "null", "list", "huge-int"]
    )
    def test_weights_reject_non_numbers(self, value):
        with pytest.raises(ParameterError):
            LossWeights.from_dict({"lambda_rec": value})

    def test_weights_reject_negative(self):
        with pytest.raises(ParameterError):
            LossWeights(lambda_rec=-1.0)

    def test_report_includes_total(self):
        report = loss_report({"l_rec": 2.0, "l_adv": 1.0})
        assert report == {"l_rec": 2.0, "l_adv": 1.0, "total": pytest.approx(2.05)}
