"""Overlap and surface-distance scores between label volumes.

Surfaces are foreground voxels with at least one non-foreground
6-neighbour, the volume boundary counting as background.  Each surface's
neighbour test (``_surface``) runs inside the class's own bounding box,
padded with background: voxels outside the box are not in the class, and
where the box meets the volume edge the pad plays the volume boundary, so
the crop gives exactly the full-volume surface.  Distances are Euclidean in
millimetres over the anisotropic grid and come from a k-d tree over the
mm-scaled surface points, which is exact (a point on both surfaces is at 0.0
without a query, and the others are queried in blocks of ``_QUERY_BLOCK``);
the naive all-pairs computation lives in the test suite as the correctness
oracle.

``evaluate`` takes every class's bounding box from one
``ndimage.find_objects`` pass per volume and maps the surface distances of
the classes present in both volumes over a thread pool of one worker per
usable CPU (k-d tree builds and queries release the GIL).  Meanwhile the
calling thread counts every class's voxels and overlap one z-slice at a
time.  The scores do not depend on the worker count.  The public
``surface_voxels``, ``assd`` and ``mssd`` find a class's box from one
``any`` projection per axis of its whole-volume mask and run on the calling
thread.

``scipy.ndimage`` (``evaluate``'s box pass) and ``scipy.spatial`` (the k-d
tree of ``_nearest``) are imported inside those functions on first use, not
when this module is imported: every command imports this module, but only
scoring needs them, and their first load took about 0.5 s on a 2-CPU Xeon
VM.

The per-class functions refuse a class id that is not an integer in
``0..classes-1`` with ``ParameterError``, and a spacing that takes a surface
point or distance past the float64 range with ``DomainError``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError, ParameterError, ShapeError, UndefinedMetricError
from .volume import LabelVolume, Spacing, _is_int, _usable_cpus

# Rows per k-d tree query: the query's own arrays stay this small.
_QUERY_BLOCK = 4096

# A bounding box as the ``[z, y, x]`` slices that crop it out of a volume.
_Box = tuple[slice, slice, slice]


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


def _box(l: LabelVolume, class_id: int) -> _Box | None:
    """The class's ``[z, y, x]`` bounding box from one ``any`` projection per axis; None if absent."""
    _check_class(class_id, l)
    mask = l.data == class_id
    zs = np.flatnonzero(mask.any(axis=(1, 2)))
    if len(zs) == 0:
        return None
    ys = np.flatnonzero(mask.any(axis=(0, 2)))
    xs = np.flatnonzero(mask.any(axis=(0, 1)))
    return tuple(slice(int(a[0]), int(a[-1]) + 1) for a in (zs, ys, xs))


def _surface(l: LabelVolume, class_id: int, box: _Box) -> np.ndarray:
    """``surface_voxels`` of a class that lies wholly inside ``box``."""
    mask = l.data[box] == class_id
    padded = np.pad(mask, 1, constant_values=False)
    interior = (
        padded[:-2, 1:-1, 1:-1]
        & padded[2:, 1:-1, 1:-1]
        & padded[1:-1, :-2, 1:-1]
        & padded[1:-1, 2:, 1:-1]
        & padded[1:-1, 1:-1, :-2]
        & padded[1:-1, 1:-1, 2:]
    )
    del padded  # free the masks before the coordinate arrays are built
    mask &= ~interior
    del interior
    offsets = np.array([b.start for b in box[::-1]], dtype=np.int64)
    return np.argwhere(mask)[:, ::-1] + offsets


def surface_voxels(l: LabelVolume, class_id: int) -> np.ndarray:
    """(n, 3) array of (x, y, z) coordinates of the class's surface voxels.

    A surface voxel is foreground with at least one of its six face
    neighbours outside the mask; faces on the volume boundary count as
    outside.  Rows are ordered by (z, y, x).

    The test runs on the mask cropped to its bounding box (one ``any``
    projection per axis of the whole-volume mask) and padded there with
    background.  That is exact: no voxel outside the box is in the class,
    and where the box meets the volume edge the pad stands for the volume
    boundary.  ``evaluate`` takes every class's box from one
    ``ndimage.find_objects`` pass instead and runs the same test.
    """
    box = _box(l, class_id)
    if box is None:
        return np.empty((0, 3), np.int64)
    return _surface(l, class_id, box)


def _nearest(ref: np.ndarray, pts: np.ndarray, shared: np.ndarray) -> np.ndarray:
    """Distance from every row of ``pts`` to the nearest row of ``ref``; 0.0 where ``shared``.

    The others are queried in blocks of ``_QUERY_BLOCK`` rows, so the
    query's own arrays stay small; each query is independent of the rest,
    so the distances do not depend on the block size.
    """
    from scipy.spatial import cKDTree

    d = np.zeros(len(pts))
    # Sliding-midpoint splits suit grid points: on the `score` bench inputs
    # they built and queried in 0.23 s against 0.30 s for median splits.
    tree = cKDTree(ref, balanced_tree=False)
    off = np.flatnonzero(~shared)
    for start in range(0, len(off), _QUERY_BLOCK):
        rows = off[start : start + _QUERY_BLOCK]
        d[rows] = tree.query(pts[rows])[0]
    return d


def _points(l: LabelVolume, class_id: int, box: _Box, scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The class's surface voxels in ``l`` as mm points and as flat voxel keys.

    Surface rows are sorted by (z, y, x), so their flat keys are sorted too.
    Points past the float64 range are infinite.
    """
    vox = _surface(l, class_id, box)
    with np.errstate(over="ignore"):  # C order: a k-d tree then uses the points without a copy
        pts = np.multiply(vox, scale, order="C")
    x, y, _ = l.dims
    return pts, (vox[:, 2] * y + vox[:, 1]) * x + vox[:, 0]


def _surface_distances(
    gt: LabelVolume,
    pred: LabelVolume,
    class_id: int,
    spacing: Spacing,
    boxes: tuple[_Box | None, _Box | None],
) -> tuple[float, float]:
    """(assd, mssd) in mm from one surface extraction and one k-d tree per side.

    ``boxes`` holds the class's bounding box in ``gt`` and in ``pred``
    (None where it is absent).
    """
    if None in boxes:
        raise UndefinedMetricError(
            f"surface distances are undefined: class {class_id} has an empty surface"
        )
    scale = np.array(spacing.as_tuple(), dtype=np.float64)
    pts_gt, key_gt = _points(gt, class_id, boxes[0], scale)
    pts_pred, key_pred = _points(pred, class_id, boxes[1], scale)
    if not (np.isfinite(pts_gt).all() and np.isfinite(pts_pred).all()):
        raise DomainError(f"class {class_id}: surface points overflow at spacing {spacing.as_tuple()}")
    # A point on both surfaces is at distance 0.0, so only the others are
    # queried.  Keys are sorted (see ``_points``), so one searchsorted finds
    # the shared rows.  Each array is dropped once used, so that two classes
    # in flight stay small.
    at = np.minimum(np.searchsorted(key_pred, key_gt), len(key_pred) - 1)
    shared_gt = key_pred[at] == key_gt
    shared_pred = np.zeros(len(key_pred), dtype=bool)
    shared_pred[at[shared_gt]] = True
    del key_gt, key_pred, at
    d_gt = _nearest(pts_pred, pts_gt, shared_gt)
    d_pred = _nearest(pts_gt, pts_pred, shared_pred)
    assd_mm = (d_gt.sum() + d_pred.sum()) / (len(d_gt) + len(d_pred))
    if not np.isfinite(assd_mm):  # an overflowed distance is inf, and so is the mean
        raise DomainError(f"class {class_id}: surface distances overflow at spacing {spacing.as_tuple()}")
    return float(assd_mm), float(max(d_gt.max(), d_pred.max()))


def _checked_distances(
    gt: LabelVolume, pred: LabelVolume, class_id: int, spacing: Spacing | None
) -> tuple[float, float]:
    """``_surface_distances`` behind the public checks of ``assd`` and ``mssd``."""
    _check_dims(gt, pred)
    if spacing is None:
        if gt.spacing != pred.spacing:
            raise ShapeError("label spacings differ; pass an explicit spacing to override")
        spacing = gt.spacing
    return _surface_distances(gt, pred, class_id, spacing, (_box(gt, class_id), _box(pred, class_id)))


def assd(
    gt: LabelVolume, pred: LabelVolume, class_id: int, spacing: Spacing | None = None
) -> float:
    """Average symmetric surface distance in mm.

    Every surface voxel contributes its distance to the nearest voxel of the
    other surface; the two directed sums are divided by the total number of
    surface voxels on both sides.
    """
    return _checked_distances(gt, pred, class_id, spacing)[0]


def mssd(
    gt: LabelVolume, pred: LabelVolume, class_id: int, spacing: Spacing | None = None
) -> float:
    """Maximum symmetric surface distance in mm (symmetric Hausdorff)."""
    return _checked_distances(gt, pred, class_id, spacing)[1]


def _mean_or_none(values: list[float | None]) -> float | None:
    present = [v for v in values if v is not None]
    if not present:
        return None
    return float(np.mean(present))


def _class_counts(gt: np.ndarray, pred: np.ndarray, classes: int) -> list[list[int]]:
    """Per class: voxels in ``gt``, voxels in ``pred`` and voxels where both agree on it.

    Counted one z-slice at a time; each slice's counts run only up to its
    largest id, so the work follows the data, not ``classes``.
    """
    counts = np.zeros((3, classes), dtype=np.int64)
    for g, p in zip(gt, pred):
        for row, ids in zip(counts, (g.ravel(), p.ravel(), g[g == p])):
            found = np.bincount(ids)
            row[: len(found)] += found
    return counts.tolist()


def evaluate(gt: LabelVolume, pred: LabelVolume) -> MetricReport:
    """Score every non-background class and average the per-class results.

    Undefined entries (empty reference mask or empty surface) surface as
    None rather than raising; the mean skips them.
    """
    from scipy import ndimage

    _check_dims(gt, pred)
    if gt.spacing != pred.spacing:
        raise ShapeError("label spacings differ")
    if gt.classes != pred.classes:
        raise ShapeError(f"class counts {gt.classes} and {pred.classes} differ")

    # One pass per volume gives every present class's bounding box (entry
    # cid - 1; zip stops at the lower top id, above which no class is in
    # both), and so the classes present in both, which alone need surfaces.
    # k-d tree builds and queries release the GIL, so their pool runs while
    # this thread counts every class's voxels and overlap.  Results come
    # back in class order, so the first error in class order is raised.
    boxes = list(zip(ndimage.find_objects(gt.data), ndimage.find_objects(pred.data)))
    both = [cid for cid, pair in enumerate(boxes, 1) if None not in pair]

    def distances(cid: int) -> tuple[float, float]:
        return _surface_distances(gt, pred, cid, gt.spacing, boxes[cid - 1])

    with ThreadPoolExecutor(max(1, min(_usable_cpus(), len(both)))) as pool:
        pending = pool.map(distances, both)
        n_gt, n_pred, inter = _class_counts(gt.data, pred.data, gt.classes)
        surface = dict(zip(both, pending))

    per_class: dict[int, ClassScores] = {}
    for cid in range(1, gt.classes):
        dice_val = _dice(inter[cid], n_gt[cid], n_pred[cid])
        ravd_signed = ravd_abs = None
        if n_gt[cid]:
            ravd_signed, ravd_abs = _ravd(n_gt[cid], n_pred[cid], cid)
        assd_val, mssd_val = surface.get(cid, (None, None))
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
