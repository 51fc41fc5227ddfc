import time
import tracemalloc

import numpy as np
import pytest
import scipy.spatial

import isoslice.metrics
import oracles
from isoslice import (
    ClassScores,
    DomainError,
    LabelVolume,
    ParameterError,
    ShapeError,
    Spacing,
    UndefinedMetricError,
    assd,
    dice,
    evaluate,
    mssd,
    ravd,
    surface_voxels,
)

UNIT = Spacing(1.0, 1.0, 1.0)


def lv(arr, spacing=UNIT, classes=None):
    return LabelVolume(np.asarray(arr, dtype=np.uint8), spacing, classes)


def single_voxel(pos, shape=(8, 8, 8), spacing=UNIT):
    data = np.zeros(shape, np.uint8)
    x, y, z = pos
    data[z, y, x] = 1
    return lv(data, spacing, 2)


def random_pair(rng, classes=3, shape=(8, 8, 8), spacing=UNIT):
    gt = rng.integers(0, classes, shape).astype(np.uint8)
    pred = rng.integers(0, classes, shape).astype(np.uint8)
    return lv(gt, spacing, classes), lv(pred, spacing, classes)


def composed_scores(gt, pred, cid):
    """One class's scores from the per-metric functions, None where they raise."""

    def or_none(metric):
        try:
            return metric(gt, pred, cid)
        except UndefinedMetricError:
            return None

    r = or_none(ravd)
    return ClassScores(dice(gt, pred, cid), *(r or (None, None)), or_none(assd), or_none(mssd))


class TestDice:
    def test_identical_masks(self):
        rng = np.random.default_rng(80)
        gt, _ = random_pair(rng)
        assert dice(gt, gt, 1) == 100.0

    def test_disjoint_masks(self):
        a = single_voxel((0, 0, 0))
        b = single_voxel((5, 5, 5))
        assert dice(a, b, 1) == 0.0

    def test_worked_two_two_one(self):
        gt = np.zeros((4, 4, 4), np.uint8)
        pred = np.zeros((4, 4, 4), np.uint8)
        gt[0, 0, 0] = gt[0, 0, 1] = 1
        pred[0, 0, 1] = pred[0, 0, 2] = 1
        assert dice(lv(gt, classes=2), lv(pred, classes=2), 1) == 50.0

    def test_both_empty_is_vacuous_agreement(self):
        empty = lv(np.zeros((4, 4, 4), np.uint8), classes=2)
        assert dice(empty, empty, 1) == 100.0

    def test_one_empty_no_overlap(self):
        empty = lv(np.zeros((8, 8, 8), np.uint8), classes=2)
        assert dice(single_voxel((1, 1, 1)), empty, 1) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(81)
        gt, pred = random_pair(rng)
        assert dice(gt, pred, 1) == dice(pred, gt, 1)

    def test_dims_mismatch(self):
        with pytest.raises(ShapeError):
            dice(lv(np.zeros((2, 2, 2), np.uint8)), lv(np.zeros((2, 2, 3), np.uint8)), 1)


class TestRavd:
    def test_identical_masks_zero(self):
        gt = single_voxel((2, 2, 2))
        assert ravd(gt, gt, 1) == (0.0, 0.0)

    def test_worked_two_to_three(self):
        gt = np.zeros((4, 4, 4), np.uint8)
        pred = np.zeros((4, 4, 4), np.uint8)
        gt[0, 0, :2] = 1
        pred[0, 0, :3] = 1
        assert ravd(lv(gt, classes=2), lv(pred, classes=2), 1) == (50.0, 50.0)

    def test_worked_four_to_two(self):
        gt = np.zeros((4, 4, 4), np.uint8)
        pred = np.zeros((4, 4, 4), np.uint8)
        gt[0, 0, :4] = 1
        pred[0, 0, :2] = 1
        assert ravd(lv(gt, classes=2), lv(pred, classes=2), 1) == (-50.0, 50.0)

    def test_empty_reference_undefined(self):
        empty = lv(np.zeros((4, 4, 4), np.uint8), classes=2)
        with pytest.raises(UndefinedMetricError):
            ravd(empty, single_voxel((0, 0, 0), (4, 4, 4)), 1)


class TestSurfaceVoxels:
    def test_single_voxel(self):
        s = surface_voxels(single_voxel((3, 4, 5)), 1)
        assert s.tolist() == [[3, 4, 5]]

    def test_solid_cube_sheds_its_center(self):
        data = np.zeros((7, 7, 7), np.uint8)
        data[2:5, 2:5, 2:5] = 1
        s = surface_voxels(lv(data, classes=2), 1)
        assert len(s) == 26
        assert [3, 3, 3] not in s.tolist()

    def test_full_volume_keeps_boundary_faces(self):
        data = np.ones((4, 5, 6), np.uint8)
        s = surface_voxels(lv(data, classes=2), 1)
        interior = (6 - 2) * (5 - 2) * (4 - 2)
        assert len(s) == 4 * 5 * 6 - interior

    def test_empty_mask_empty_set(self):
        assert len(surface_voxels(lv(np.zeros((3, 3, 3), np.uint8), classes=2), 1)) == 0

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(82)
        cases = [(random_pair(rng)[0], 1) for _ in range(20)]
        shape = (6, 7, 8)
        inner = tuple(slice(1, n - 1) for n in shape)
        for axis in range(3):
            # a random blob whose bounding box reaches one volume face
            for side in (0, shape[axis] - 1):
                data = np.zeros(shape, np.uint8)
                data[inner] = rng.integers(0, 2, data[inner].shape)
                face = list(inner)
                face[axis] = side
                data[tuple(face)] = 1
                cases.append((lv(data, classes=2), 1))
            # a one-voxel-thick sheet across this axis
            data = np.zeros(shape, np.uint8)
            sheet = list(inner)
            sheet[axis] = 2
            data[tuple(sheet)] = 1
            cases.append((lv(data, classes=2), 1))
        corner = np.zeros(shape, np.uint8)
        corner[-1, -1, -1] = 1
        cases.append((lv(corner, classes=2), 1))
        high = rng.integers(0, 2, shape).astype(np.uint16) * 999
        high[0, 0, :] = 500
        cases.append((LabelVolume(high, UNIT, 1000), 999))
        for l, cid in cases:
            got = sorted(map(tuple, surface_voxels(l, cid).tolist()))
            assert got == oracles.surface(l.data, cid)


class TestSurfaceDistances:
    def test_identical_masks_zero(self):
        rng = np.random.default_rng(83)
        gt, _ = random_pair(rng)
        assert assd(gt, gt, 1) == 0.0
        assert mssd(gt, gt, 1) == 0.0

    def test_one_z_step_in_mm(self):
        spacing = Spacing(1.0, 1.0, 2.5)
        a = single_voxel((1, 1, 1), (4, 4, 4), spacing)
        b = single_voxel((1, 1, 2), (4, 4, 4), spacing)
        assert assd(a, b, 1) == pytest.approx(2.5, abs=1e-12)
        assert mssd(a, b, 1) == pytest.approx(2.5, abs=1e-12)

    def test_three_four_five_triangle(self):
        a = single_voxel((0, 0, 0))
        b = single_voxel((3, 4, 0))
        assert mssd(a, b, 1) == pytest.approx(5.0, abs=1e-12)

    @pytest.mark.parametrize(("pitch", "what"), [(1e308, "points"), (1e160, "distances")])
    def test_overflowing_spacing_is_domain_error(self, pitch, what):
        spacing = Spacing(pitch, pitch, pitch)
        a = single_voxel((0, 0, 0), (4, 4, 4), spacing)
        b = single_voxel((3, 3, 3), (4, 4, 4), spacing)
        for score in (assd, mssd):
            with pytest.raises(DomainError, match=f"surface {what} overflow"):
                score(a, b, 1)
        with pytest.raises(DomainError, match=f"surface {what} overflow"):
            evaluate(a, b)

    def test_underflowing_spacing_is_domain_error(self):
        # Squared distances below the smallest normal float64 would lose
        # precision or vanish: these two voxels read 0.0 apart at 1e-170.
        for spacing in (Spacing(1e-170, 1e-170, 1e-170), Spacing(1.0, 1e-155, 1.0)):
            a = single_voxel((0, 0, 0), (4, 4, 4), spacing)
            b = single_voxel((2, 0, 0), (4, 4, 4), spacing)
            for score in (assd, mssd):
                with pytest.raises(DomainError, match="surface distances underflow"):
                    score(a, b, 1)
            with pytest.raises(DomainError, match="surface distances underflow"):
                evaluate(a, b)
        small = Spacing(1e-150, 1e-150, 1e-150)
        a = single_voxel((0, 0, 0), (4, 4, 4), small)
        b = single_voxel((2, 0, 0), (4, 4, 4), small)
        assert assd(a, b, 1) == mssd(a, b, 1) == 2e-150
        assert evaluate(a, b).classes[1].assd_mm == 2e-150

    def test_empty_surface_undefined(self):
        empty = lv(np.zeros((4, 4, 4), np.uint8), classes=2)
        with pytest.raises(UndefinedMetricError):
            assd(single_voxel((0, 0, 0), (4, 4, 4)), empty, 1)
        with pytest.raises(UndefinedMetricError):
            mssd(empty, empty, 1)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(84)
        spacing = Spacing(0.7, 1.1, 2.3)
        for _ in range(25):
            gt, pred = random_pair(rng, spacing=spacing)
            expected = oracles.surface_distances(gt.data, pred.data, 1, spacing.as_tuple())
            assert expected is not None
            assert assd(gt, pred, 1) == pytest.approx(expected[0], abs=1e-9)
            assert mssd(gt, pred, 1) == pytest.approx(expected[1], abs=1e-9)

    def test_queries_only_points_off_the_other_surface(self, monkeypatch):
        gt = np.zeros((6, 7, 8), np.uint8)
        pred = np.zeros((6, 7, 8), np.uint8)
        gt[1:4, 1:5, 1:5] = 1
        pred[1:4, 2:6, 1:6] = 1
        queried = []
        real_tree = scipy.spatial.cKDTree

        class Tree(real_tree):
            def query(self, points):
                queried.append(len(points))
                return super().query(points)

        monkeypatch.setattr(scipy.spatial, "cKDTree", Tree)
        spacing = (0.7, 1.1, 2.3)
        a, b = lv(gt, Spacing(*spacing)), lv(pred, Spacing(*spacing))
        surf_gt = {tuple(p) for p in surface_voxels(a, 1)}
        surf_pred = {tuple(p) for p in surface_voxels(b, 1)}
        shared = len(surf_gt & surf_pred)
        assert shared > 0
        expected = oracles.surface_distances(gt, pred, 1, spacing)
        assert assd(a, b, 1) == pytest.approx(expected[0], abs=1e-9)
        assert queried == [len(surf_gt) - shared, len(surf_pred) - shared]

    def test_mssd_dominates_assd(self):
        rng = np.random.default_rng(85)
        for _ in range(10):
            gt, pred = random_pair(rng)
            assert mssd(gt, pred, 1) >= assd(gt, pred, 1) >= 0.0

    def test_spacing_equivariance(self):
        rng = np.random.default_rng(86)
        gt, pred = random_pair(rng)
        scaled = Spacing(3.0, 3.0, 3.0)
        assert assd(gt, pred, 1, scaled) == pytest.approx(3.0 * assd(gt, pred, 1), rel=1e-12)
        assert mssd(gt, pred, 1, scaled) == pytest.approx(3.0 * mssd(gt, pred, 1), rel=1e-12)
        # overlap metrics never see the spacing
        a = lv(gt.data, Spacing(2.0, 2.0, 2.0), gt.classes)
        b = lv(pred.data, Spacing(2.0, 2.0, 2.0), pred.classes)
        assert dice(a, b, 1) == dice(gt, pred, 1)
        assert ravd(a, b, 1) == ravd(gt, pred, 1)

    def test_translation_invariance(self):
        rng = np.random.default_rng(87)
        core_gt = rng.integers(0, 2, (4, 4, 4)).astype(np.uint8)
        core_pred = rng.integers(0, 2, (4, 4, 4)).astype(np.uint8)
        core_gt[0, 0, 0] = core_pred[1, 1, 1] = 1

        def place(core, offset):
            data = np.zeros((10, 10, 10), np.uint8)
            data[offset : offset + 4, offset : offset + 4, offset : offset + 4] = core
            return lv(data, classes=2)

        base = (
            dice(place(core_gt, 0), place(core_pred, 0), 1),
            ravd(place(core_gt, 0), place(core_pred, 0), 1),
            assd(place(core_gt, 0), place(core_pred, 0), 1),
            mssd(place(core_gt, 0), place(core_pred, 0), 1),
        )
        moved = (
            dice(place(core_gt, 3), place(core_pred, 3), 1),
            ravd(place(core_gt, 3), place(core_pred, 3), 1),
            assd(place(core_gt, 3), place(core_pred, 3), 1),
            mssd(place(core_gt, 3), place(core_pred, 3), 1),
        )
        assert base == moved

    def test_spacing_disagreement_needs_override(self):
        gt = single_voxel((0, 0, 0))
        pred = single_voxel((1, 0, 0), spacing=Spacing(2.0, 1.0, 1.0))
        with pytest.raises(ShapeError):
            assd(gt, pred, 1)
        assert assd(gt, pred, 1, Spacing(2.0, 1.0, 1.0)) == pytest.approx(2.0)


class TestEvaluate:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(88)
        gt, _ = random_pair(rng)
        report = evaluate(gt, gt)
        for scores in report.classes.values():
            assert scores.dice == 100.0
            assert scores.ravd == 0.0
            assert scores.assd_mm == 0.0
            assert scores.mssd_mm == 0.0
        assert report.mean.dice == 100.0

    def test_worked_mean_of_sixty_and_eighty(self):
        gt = np.zeros((8, 8, 8), np.uint8)
        pred = np.zeros((8, 8, 8), np.uint8)
        gt[0, 0, 0:5] = 1
        pred[0, 0, 2:7] = 1  # overlap 3 of 5+5 -> dice 60
        gt[2, 0, 0:5] = 2
        pred[2, 0, 1:6] = 2  # overlap 4 of 5+5 -> dice 80
        report = evaluate(lv(gt, classes=3), lv(pred, classes=3))
        assert report.classes[1].dice == pytest.approx(60.0)
        assert report.classes[2].dice == pytest.approx(80.0)
        assert report.mean.dice == pytest.approx(70.0)

    def test_matches_per_metric_composition(self):
        rng = np.random.default_rng(89)
        pairs = [random_pair(rng)]
        spacing = Spacing(0.8, 1.3, 3.0)
        a, b = (l.data.copy() for l in random_pair(rng, spacing=spacing))
        a[0, 0, :3] = 3  # only in gt
        b[7, 7, 5:] = 4  # only in pred; class 5 is declared but absent from both
        pairs.append((lv(a, spacing, 6), lv(b, spacing, 6)))
        for gt, pred in pairs:
            report = evaluate(gt, pred)
            assert sorted(report.classes) == list(range(1, gt.classes))
            for cid, scores in report.classes.items():
                assert scores == composed_scores(gt, pred, cid), cid

    def test_extracts_each_surface_once_and_only_for_classes_in_both(self, monkeypatch):
        gt = np.zeros((6, 6, 6), np.uint8)
        pred = np.zeros((6, 6, 6), np.uint8)
        gt[0, 0, :2] = pred[0, 0, 1:3] = 1
        gt[2, 2, 2] = 2
        pred[4, 4, 4] = 3  # class 4 is declared but absent from both
        surfaces, trees = [], []
        real_surface, real_tree = isoslice.metrics._surface, scipy.spatial.cKDTree

        def surface(l, cid, box):
            surfaces.append(cid)
            return real_surface(l, cid, box)

        def tree(points, **options):
            trees.append(len(points))
            return real_tree(points, **options)

        monkeypatch.setattr(isoslice.metrics, "_surface", surface)
        monkeypatch.setattr(scipy.spatial, "cKDTree", tree)
        evaluate(lv(gt, classes=5), lv(pred, classes=5))
        assert surfaces == [1, 1]
        assert trees == [2, 2]

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_first_error_in_class_order_is_raised(self, usable_cpus, cpus):
        data = np.zeros((12, 12, 12), np.uint8)
        data[2:11, 2:11, 2:11] = 1  # the largest surface, so its worker tends to finish last
        data[0, 0, 5] = 2
        data[0, 0, 8] = 3
        spacing = Spacing(1e308, 1e308, 1e308)  # every point of classes 1-3 overflows
        usable_cpus(cpus)
        with pytest.raises(DomainError, match="^class 1: surface points overflow"):
            evaluate(lv(data, spacing, 4), lv(data, spacing, 4))

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("case", ["disjoint-boxes", "all-six-faces", "in-one-volume", "sparse-high-id"])
    def test_entries_match_composition_on_any_worker_count(self, usable_cpus, cpus, case):
        """Each class is counted inside its own boxes on the pool; every entry
        still equals the per-metric functions."""
        spacing = Spacing(0.8, 1.3, 3.0)
        gt = np.zeros((6, 7, 8), np.uint16)
        pred = np.zeros_like(gt)
        classes, checked = 6, range(1, 6)
        if case == "disjoint-boxes":
            gt[:2, :3, :3] = pred[3:, 4:, 5:] = 1  # the boxes meet on no axis
            gt[4:, :2, :3] = pred[4:, :2, 4:7] = 2  # they meet in z and y, not in x
        elif case == "all-six-faces":
            gt[:] = pred[:] = 1
            gt[2:4, 2:5, 2:6] = 2
            pred[1:3, 3:6, 3:7] = 2
            flips = np.random.default_rng(95).random(gt.shape) < 0.2
            pred[flips] = 3
        elif case == "in-one-volume":
            gt[1:3, 1:3, 1:3] = 1  # only in gt
            pred[0:2, 4:7, 4:8] = 2  # only in pred
            gt[4:6, 5:7, 0:4] = pred[3:6, 4:7, 1:5] = 3
            pred[5, 0, 0] = 4  # only in pred, one voxel; class 5 is declared but absent from both
        else:
            classes, checked = 5000, (1, 17, 3999, 4000, 4999)
            gt[1:5, 2:6, 1:7] = 4000
            pred[2:6, 1:5, 2:8] = 4000
            gt[0, 0, 0] = 3999  # only in gt
            pred[5, 6, 7] = 17  # only in pred
        gt, pred = (LabelVolume(a, spacing, classes) for a in (gt, pred))
        usable_cpus(cpus)
        report = evaluate(gt, pred)
        assert sorted(report.classes) == list(range(1, classes))
        for cid in checked:
            assert report.classes[cid] == composed_scores(gt, pred, cid), cid

    def test_cost_does_not_grow_with_declared_classes(self):
        rng = np.random.default_rng(91)
        gt, pred = (
            LabelVolume(rng.integers(0, 4, (16, 64, 64)).astype(np.uint16), UNIT, 5000)
            for _ in range(2)
        )
        start = time.perf_counter()
        report = evaluate(gt, pred)
        assert time.perf_counter() - start < 1.0
        # a classes x classes joint count would need about 190 MiB here
        tracemalloc.start()
        try:
            evaluate(gt, pred)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert sorted(report.classes) == list(range(1, 5000))
        for cid in (1, 2, 3, 4, 2500, 4999):
            assert report.classes[cid] == composed_scores(gt, pred, cid), cid

    def test_undefined_entries_become_none(self):
        gt = np.zeros((4, 4, 4), np.uint8)
        pred = np.zeros((4, 4, 4), np.uint8)
        gt[0, 0, 0] = 1  # class 2 empty in gt
        pred[0, 0, 0] = 1
        pred[1, 1, 1] = 2
        report = evaluate(lv(gt, classes=3), lv(pred, classes=3))
        assert report.classes[2].ravd is None
        assert report.classes[2].assd_mm is None
        assert report.classes[2].dice == 0.0
        # mean skips the undefined entries
        assert report.mean.ravd == 0.0
        assert report.mean.assd_mm == 0.0

    def test_all_background_report(self):
        empty = lv(np.zeros((4, 4, 4), np.uint8), classes=2)
        report = evaluate(empty, empty)
        assert report.classes[1].dice == 100.0
        assert report.classes[1].ravd is None
        assert report.mean.assd_mm is None

    def test_json_shape(self):
        rng = np.random.default_rng(90)
        gt, pred = random_pair(rng)
        d = evaluate(gt, pred).as_dict()
        assert set(d) == {"classes", "mean"}
        assert set(d["classes"]) == {"1", "2"}
        assert set(d["classes"]["1"]) == {"dice", "ravd", "ravd_abs", "assd_mm", "mssd_mm"}

    def test_geometry_checks(self):
        a = lv(np.zeros((2, 2, 2), np.uint8), classes=2)
        with pytest.raises(ShapeError):
            evaluate(a, lv(np.zeros((2, 2, 3), np.uint8), classes=2))
        with pytest.raises(ShapeError):
            evaluate(a, lv(np.zeros((2, 2, 2), np.uint8), Spacing(2, 2, 2), 2))
        with pytest.raises(ShapeError):
            evaluate(a, lv(np.zeros((2, 2, 2), np.uint8), classes=3))


@pytest.mark.parametrize(
    "class_id", [3, 7, -1, 2.5, True, "1"], ids=["classes", "7", "negative", "float", "bool", "str"]
)
@pytest.mark.parametrize(
    "metric",
    [dice, ravd, assd, mssd, lambda gt, pred, cid: surface_voxels(pred, cid)],
    ids=["dice", "ravd", "assd", "mssd", "surface_voxels"],
)
def test_class_id_must_be_a_declared_class(metric, class_id):
    gt, pred = random_pair(np.random.default_rng(92))
    metric(gt, pred, np.uint8(2))
    with pytest.raises(ParameterError, match="class_id"):
        metric(gt, pred, class_id)


@pytest.mark.parametrize(
    "spacing", [(1, 1, 1), [0.7, 1.1, 2.3], {}, 0, "1"], ids=["tuple", "list", "empty-dict", "zero", "str"]
)
@pytest.mark.parametrize("metric", [assd, mssd])
def test_spacing_must_be_a_spacing_or_none(metric, spacing):
    gt, pred = random_pair(np.random.default_rng(92))
    with pytest.raises(ParameterError, match=r"^spacing must be a Spacing, got "):
        metric(gt, pred, 1, spacing)
    assert metric(gt, pred, 1, None) == metric(gt, pred, 1, gt.spacing)
