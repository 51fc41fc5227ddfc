"""Overlap and surface-distance scores between label volumes.

Surfaces are foreground voxels with at least one non-foreground
6-neighbour, the volume boundary counting as background.  Each surface's
neighbour test runs inside the class's own bounding box, padded with
background: voxels outside the box are not in the class, and where the box
meets the volume edge the pad plays the volume boundary, so the crop gives
exactly the full-volume surface.  Finding the box still compares the whole
volume with the class id and reduces that mask once, so every surface costs
a full-volume pass plus work that follows the class's extent.  Distances
are Euclidean in millimetres over the anisotropic grid and come from a k-d
tree over the mm-scaled surface points, which is exact (a point on both
surfaces is at 0.0 without a query); the naive all-pairs computation lives
in the test suite as the correctness oracle.

The per-class functions refuse a class id that is not an integer in
``0..classes-1`` with ``ParameterError``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import ParameterError, ShapeError, UndefinedMetricError
from .volume import LabelVolume, Spacing, _is_int


@dataclass(frozen=True)
class ClassScores:
    """Scores for one class; None marks a metric undefined for these masks."""

    dice: float | None
    ravd: float | None
    ravd_abs: float | None
    assd_mm: float | None
    mssd_mm: float | None

    def as_dict(self) -> dict[str, float | None]:
        return asdict(self)


@dataclass(frozen=True)
class MetricReport:
    """Per-class scores for every non-background class plus their plain mean."""

    classes: dict[int, ClassScores]
    mean: ClassScores

    def as_dict(self) -> dict:
        return {
            "classes": {str(cid): scores.as_dict() for cid, scores in self.classes.items()},
            "mean": self.mean.as_dict(),
        }


def _check_dims(gt: LabelVolume, pred: LabelVolume) -> None:
    if gt.dims != pred.dims:
        raise ShapeError(f"label dims {gt.dims} and {pred.dims} differ")


def _check_class(class_id, *volumes: LabelVolume) -> None:
    for l in volumes:
        if not (_is_int(class_id) and 0 <= class_id < l.classes):
            raise ParameterError(f"class_id={class_id!r} must be an integer in 0..{l.classes - 1}")


def _dice(inter: int, n_gt: int, n_pred: int) -> float:
    denom = n_gt + n_pred
    if denom == 0:
        return 100.0
    return 200.0 * inter / denom


def _ravd(n_gt: int, n_pred: int, class_id: int) -> tuple[float, float]:
    if n_gt == 0:
        raise UndefinedMetricError(f"ravd is undefined: class {class_id} is empty in the reference")
    signed = 100.0 * (n_pred - n_gt) / n_gt
    return signed, abs(signed)


def dice(gt: LabelVolume, pred: LabelVolume, class_id: int) -> float:
    """Overlap of the two masks as a percentage: 2|A n B| / (|A| + |B|) * 100.

    Two empty masks agree vacuously (100); one empty mask overlaps nothing (0).
    """
    _check_dims(gt, pred)
    _check_class(class_id, gt, pred)
    a = gt.data == class_id
    b = pred.data == class_id
    return _dice(int(np.count_nonzero(a & b)), int(np.count_nonzero(a)), int(np.count_nonzero(b)))


def ravd(gt: LabelVolume, pred: LabelVolume, class_id: int) -> tuple[float, float]:
    """Relative volume difference (|pred| - |gt|) / |gt| as (signed %, absolute %)."""
    _check_dims(gt, pred)
    _check_class(class_id, gt, pred)
    n_gt = int(np.count_nonzero(gt.data == class_id))
    n_pred = int(np.count_nonzero(pred.data == class_id))
    return _ravd(n_gt, n_pred, class_id)


def surface_voxels(l: LabelVolume, class_id: int) -> np.ndarray:
    """(n, 3) array of (x, y, z) coordinates of the class's surface voxels.

    A surface voxel is foreground with at least one of its six face
    neighbours outside the mask; faces on the volume boundary count as
    outside.  Rows are ordered by (z, y, x).

    The test runs on the mask cropped to its bounding box (one ``any``
    projection per axis) and padded there with background.  That is exact:
    no voxel outside the box is in the class, and where the box meets the
    volume edge the pad stands for the volume boundary.
    """
    _check_class(class_id, l)
    mask = l.data == class_id
    zs = np.flatnonzero(mask.any(axis=(1, 2)))
    if len(zs) == 0:
        return np.empty((0, 3), np.int64)
    mask = mask[zs[0] : zs[-1] + 1]
    ys = np.flatnonzero(mask.any(axis=(0, 2)))
    mask = mask[:, ys[0] : ys[-1] + 1]
    xs = np.flatnonzero(mask.any(axis=(0, 1)))
    mask = mask[:, :, xs[0] : xs[-1] + 1]
    padded = np.pad(mask, 1, constant_values=False)
    interior = (
        padded[:-2, 1:-1, 1:-1]
        & padded[2:, 1:-1, 1:-1]
        & padded[1:-1, :-2, 1:-1]
        & padded[1:-1, 2:, 1:-1]
        & padded[1:-1, 1:-1, :-2]
        & padded[1:-1, 1:-1, 2:]
    )
    zz, yy, xx = np.nonzero(mask & ~interior)
    return np.column_stack([xx + xs[0], yy + ys[0], zz + zs[0]]).astype(np.int64)


def _surface_distances(
    gt: LabelVolume, pred: LabelVolume, class_id: int, spacing: Spacing | None
) -> tuple[float, float]:
    """(assd, mssd) in mm from one surface extraction and one k-d tree per side."""
    _check_dims(gt, pred)
    if spacing is None:
        if gt.spacing != pred.spacing:
            raise ShapeError("label spacings differ; pass an explicit spacing to override")
        spacing = gt.spacing
    scale = np.array(spacing.as_tuple(), dtype=np.float64)
    vox_gt = surface_voxels(gt, class_id)
    vox_pred = surface_voxels(pred, class_id)
    if len(vox_gt) == 0 or len(vox_pred) == 0:
        raise UndefinedMetricError(
            f"surface distances are undefined: class {class_id} has an empty surface"
        )
    pts_gt, pts_pred = vox_gt * scale, vox_pred * scale
    # A point on both surfaces is at distance 0.0, so only the others are
    # queried.  Rows are sorted by (z, y, x), so their flat keys are sorted
    # and one searchsorted finds the shared rows.
    x, y, _ = gt.dims
    key_gt = (vox_gt[:, 2] * y + vox_gt[:, 1]) * x + vox_gt[:, 0]
    key_pred = (vox_pred[:, 2] * y + vox_pred[:, 1]) * x + vox_pred[:, 0]
    at = np.minimum(np.searchsorted(key_pred, key_gt), len(key_pred) - 1)
    shared_gt = key_pred[at] == key_gt
    shared_pred = np.zeros(len(key_pred), dtype=bool)
    shared_pred[at[shared_gt]] = True
    d_gt = np.zeros(len(pts_gt))
    d_pred = np.zeros(len(pts_pred))
    d_gt[~shared_gt] = cKDTree(pts_pred).query(pts_gt[~shared_gt])[0]
    d_pred[~shared_pred] = cKDTree(pts_gt).query(pts_pred[~shared_pred])[0]
    assd_mm = (d_gt.sum() + d_pred.sum()) / (len(d_gt) + len(d_pred))
    return float(assd_mm), float(max(d_gt.max(), d_pred.max()))


def assd(
    gt: LabelVolume, pred: LabelVolume, class_id: int, spacing: Spacing | None = None
) -> float:
    """Average symmetric surface distance in mm.

    Every surface voxel contributes its distance to the nearest voxel of the
    other surface; the two directed sums are divided by the total number of
    surface voxels on both sides.
    """
    return _surface_distances(gt, pred, class_id, spacing)[0]


def mssd(
    gt: LabelVolume, pred: LabelVolume, class_id: int, spacing: Spacing | None = None
) -> float:
    """Maximum symmetric surface distance in mm (symmetric Hausdorff)."""
    return _surface_distances(gt, pred, class_id, spacing)[1]


def _mean_or_none(values: list[float | None]) -> float | None:
    present = [v for v in values if v is not None]
    if not present:
        return None
    return float(np.mean(present))


def evaluate(gt: LabelVolume, pred: LabelVolume) -> MetricReport:
    """Score every non-background class and average the per-class results.

    Undefined entries (empty reference mask or empty surface) surface as
    None rather than raising; the mean skips them.
    """
    _check_dims(gt, pred)
    if gt.spacing != pred.spacing:
        raise ShapeError("label spacings differ")
    if gt.classes != pred.classes:
        raise ShapeError(f"class counts {gt.classes} and {pred.classes} differ")

    # Three counting passes give every class's size in each volume and its
    # overlap; a class absent from both then costs nothing more, and only
    # classes present in both need surfaces.
    n_gt = np.bincount(gt.data.ravel(), minlength=gt.classes).tolist()
    n_pred = np.bincount(pred.data.ravel(), minlength=gt.classes).tolist()
    inter = np.bincount(gt.data[gt.data == pred.data], minlength=gt.classes).tolist()
    per_class: dict[int, ClassScores] = {}
    for cid in range(1, gt.classes):
        dice_val = _dice(inter[cid], n_gt[cid], n_pred[cid])
        ravd_signed = ravd_abs = assd_val = mssd_val = None
        if n_gt[cid]:
            ravd_signed, ravd_abs = _ravd(n_gt[cid], n_pred[cid], cid)
        if n_gt[cid] and n_pred[cid]:
            assd_val, mssd_val = _surface_distances(gt, pred, cid, gt.spacing)
        per_class[cid] = ClassScores(dice_val, ravd_signed, ravd_abs, assd_val, mssd_val)

    scores = list(per_class.values())
    mean = ClassScores(
        _mean_or_none([s.dice for s in scores]),
        _mean_or_none([s.ravd for s in scores]),
        _mean_or_none([s.ravd_abs for s in scores]),
        _mean_or_none([s.assd_mm for s in scores]),
        _mean_or_none([s.mssd_mm for s in scores]),
    )
    return MetricReport(per_class, mean)
