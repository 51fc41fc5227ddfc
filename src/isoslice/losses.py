"""Closed-form quality terms for synthesized slices, fields, and volumes.

These are evaluators, not training objectives: no gradients, just numbers.
L1 terms are normalized to per-pixel means so values are resolution
independent; logs are natural.  Each evaluator is pure and reentrant, so
callers may run several at once: ``isoslice loss`` computes
``tp_smooth_loss`` on one side thread while ``rec_loss`` runs on the calling
thread (numpy releases the GIL in the slice arithmetic).  Array inputs are
checked finite through their min and max, with no full-size temporary, and
``tp_smooth_loss`` reads sagittal slices a small block at a time, so its
extra memory stays a few slices however large the volume.

Term vocabulary (also the JSON report keys): ``l_rec``, ``l_per``,
``l_warp``, ``l_smooth``, ``l_adv``, ``l_tp_smooth``.  ``l_per`` needs an
external feature extractor, so it is only ever accepted as a precomputed
scalar (or 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataValidationError, DomainError, ParameterError, ShapeError
from .flow import FlowField
from .impute import backward_warp
from .volume import Slice2D, Volume, _all_finite, _as_float, _is_number

LOSS_TERMS = ("l_rec", "l_per", "l_warp", "l_smooth", "l_adv", "l_tp_smooth")


@dataclass(frozen=True)
class LossWeights:
    """Coefficients of the combined objective; all finite and non-negative."""

    lambda_rec: float = 1.0
    lambda_per: float = 0.0
    lambda_warp: float = 1.0
    lambda_smooth: float = 1.0
    lambda_adv: float = 0.050
    lambda_tp_smooth: float = 0.467

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            value = _as_float(getattr(self, name))
            if not (math.isfinite(value) and value >= 0.0):
                raise ParameterError(f"{name}={getattr(self, name)!r} must be a finite non-negative number")
            object.__setattr__(self, name, value)

    @classmethod
    def from_dict(cls, overrides: Mapping[str, float]) -> "LossWeights":
        """Defaults with selected lambdas replaced; unknown keys are rejected."""
        unknown = set(overrides) - set(cls.__dataclass_fields__)
        if unknown:
            raise ParameterError(f"unknown weight keys: {sorted(unknown)}")
        return cls(**overrides)

    def for_term(self, term: str) -> float:
        """The weight of loss term ``l_<name>``, which is field ``lambda_<name>``."""
        if term not in LOSS_TERMS:
            raise ParameterError(f"unknown loss term {term!r}; expected one of {LOSS_TERMS}")
        return getattr(self, "lambda_" + term.removeprefix("l_"))


def _plane(s: Slice2D | np.ndarray) -> np.ndarray:
    """The pixels of a ``Slice2D``, or of an array checked as real and finite."""
    if isinstance(s, Slice2D):
        return s.data
    arr = np.asarray(s)
    if arr.dtype.kind not in "biuf" or not _all_finite(arr):
        raise DataValidationError(f"slice arrays must hold finite real numbers, got dtype {arr.dtype}")
    return arr


def _mean_abs_diff(a: Slice2D | np.ndarray, b: Slice2D | np.ndarray) -> float:
    """Mean absolute per-pixel difference in float64 of two same-shape slices or 2-D arrays."""
    a, b = _plane(a), _plane(b)
    if a.ndim != 2 or a.size == 0 or a.shape != b.shape:
        raise ShapeError(f"slice shapes {a.shape} and {b.shape} must be one non-empty 2-D shape")
    return float(np.mean(np.abs(np.subtract(a, b, dtype=np.float64))))


def rec_loss(pairs: Iterable[tuple[Slice2D | np.ndarray, Slice2D | np.ndarray]]) -> float:
    """Mean over pairs of the mean absolute per-pixel difference.

    A pair holds two same-shape ``Slice2D`` or 2-D arrays, such as the
    axial slices of two loaded volumes; arrays are not copied but, like
    ``Slice2D``, must be real and finite.  ``pairs`` may be any iterable,
    a generator included, so a caller need not hold every slice at once.
    """
    values = [_mean_abs_diff(a, b) for a, b in pairs]
    if not values:
        raise ParameterError("rec_loss needs at least one slice pair")
    return float(np.mean(values))


def warp_loss(
    i0: Slice2D,
    iN1: Slice2D,
    f01: FlowField,
    f10: FlowField,
    mids: Sequence[tuple[Slice2D, FlowField, FlowField]] = (),
) -> float:
    """How well the fields explain the slices.

    Two endpoint terms (each endpoint reconstructed by warping the other)
    plus, when ``mids`` is given, the mean residual of every intermediate
    slice reconstructed from each endpoint.  ``mids`` entries are
    ``(target, flow sampling i0, flow sampling iN1)``.
    """
    total = _mean_abs_diff(i0, backward_warp(iN1, f01))
    total += _mean_abs_diff(iN1, backward_warp(i0, f10))
    if mids:
        from_first = [_mean_abs_diff(tgt, backward_warp(i0, fa)) for tgt, fa, _ in mids]
        from_last = [_mean_abs_diff(tgt, backward_warp(iN1, fb)) for tgt, _, fb in mids]
        total += float(np.mean(from_first)) + float(np.mean(from_last))
    return total


def _field_gradient_l1(f: FlowField) -> float:
    # Forward differences, averaged over valid pairs per component and axis;
    # an axis of extent 1 has no pairs and contributes nothing.
    total = 0.0
    for comp in (f.u, f.v):
        dx = np.abs(np.diff(comp, axis=1))
        dy = np.abs(np.diff(comp, axis=0))
        if dx.size:
            total += float(dx.mean())
        if dy.size:
            total += float(dy.mean())
    return total


def smooth_loss(f01: FlowField, f10: FlowField) -> float:
    """L1 of the flow gradients, summed over the bidirectional pair."""
    if f01.dims != f10.dims:
        raise ShapeError(f"flow dims {f01.dims} and {f10.dims} differ")
    return _field_gradient_l1(f01) + _field_gradient_l1(f10)


def tp_smooth_slice(s: Slice2D) -> float:
    """Squared neighbour differences of one slice, normalized by its area.

    Column terms pair each pixel with its left neighbour, row terms with the
    pixel below; terms that would index outside the slice are skipped while
    the 1/(rows*cols) normalization stays put.
    """
    return _tp_smooth(s.data)


def _tp_smooth(arr: np.ndarray) -> float:
    horizontal = float(np.sum((arr[:, 1:] - arr[:, :-1]) ** 2))
    vertical = float(np.sum((arr[1:, :] - arr[:-1, :]) ** 2))
    return (horizontal + vertical) / arr.size


_SAGITTAL_BLOCK = 8  # sagittal slices gathered per pass over the z-planes


def tp_smooth_loss(v: Volume) -> float:
    """Mean of ``tp_smooth_slice`` over every sagittal and coronal slice."""
    x, y, z = v.dims
    if min(x, y, z) < 2:
        raise ParameterError(f"volume extents {v.dims} must all be at least 2")
    # The volume is already validated: each slice only needs Slice2D's
    # C-ordered float64 copy, not a re-checked Slice2D.  A sagittal slice is
    # one column of every z-plane, so a few are gathered at once, each
    # plane's strip transposed in one copy, instead of column by column.
    values = []
    for i in range(0, x, _SAGITTAL_BLOCK):
        strip = v.data[:, :, i : i + _SAGITTAL_BLOCK]
        block = np.empty((strip.shape[2], z, y), np.float32)
        for k, plane in enumerate(strip):
            block[:, k] = plane.T
        values += [_tp_smooth(np.ascontiguousarray(s, np.float64)) for s in block]
    values += [_tp_smooth(np.ascontiguousarray(v.data[:, j, :], np.float64)) for j in range(y)]
    return float(np.mean(values))


def _float_series(name: str, values: Sequence[float]) -> np.ndarray:
    try:
        items = list(values)
        if not all(_is_number(v) for v in items):
            raise TypeError("entries must be real numbers, not booleans, strings or containers")
        arr = np.array(items, dtype=np.float64)
    except (TypeError, OverflowError) as exc:
        raise ParameterError(f"{name} must be a series of numbers: {exc}") from exc
    if arr.size == 0:
        raise ParameterError(f"{name} must be a non-empty series")
    return arr


def _prob_series(name: str, values: Sequence[float]) -> np.ndarray:
    arr = _float_series(name, values)
    bad = np.nonzero(~((arr > 0.0) & (arr < 1.0)))[0]
    if bad.size:
        i = int(bad[0])
        raise DomainError(f"{name}[{i}] = {arr[i]!r} is outside the open interval (0, 1)")
    return arr


def _binary_series(name: str, values: Sequence[float]) -> np.ndarray:
    arr = _float_series(name, values)
    bad = np.nonzero((arr != 0.0) & (arr != 1.0))[0]
    if bad.size:
        i = int(bad[0])
        raise DomainError(f"{name}[{i}] = {arr[i]!r} is not 0 or 1")
    return arr


def adv_loss(ld_fake: Sequence[float], gd_fake: Sequence[float]) -> float:
    """Cross-entropy pushing both discriminator outputs on fakes toward 1."""
    ld = _prob_series("ld_fake", ld_fake)
    gd = _prob_series("gd_fake", gd_fake)
    if ld.size != gd.size:
        raise ShapeError(f"series lengths {ld.size} and {gd.size} differ")
    return float(-np.mean(np.log(ld)) - np.mean(np.log(gd)))


def global_disc_loss(gd_fake: Sequence[float], gd_real: Sequence[float]) -> float:
    """Discriminator cross-entropy: fakes toward 0, reals toward 1."""
    fake = _prob_series("gd_fake", gd_fake)
    real = _prob_series("gd_real", gd_real)
    if fake.size != real.size:
        raise ShapeError(f"series lengths {fake.size} and {real.size} differ")
    return float(-np.mean(np.log1p(-fake)) - np.mean(np.log(real)))


def multitask_loss(
    ld_fake: Sequence[float],
    ld_real: Sequence[float],
    oc_fake: Sequence[float],
    oc_real: Sequence[float],
    y_fake: Sequence[int],
    y_real: Sequence[int],
) -> float:
    """Local-discriminator cross-entropy plus the presence-classifier term.

    The classifier term multiplies each log-probability by its binary
    presence label, so absent objects (label 0) contribute nothing; there is
    deliberately no (1 - y) * log(1 - p) counterpart.
    """
    lf = _prob_series("ld_fake", ld_fake)
    lr = _prob_series("ld_real", ld_real)
    of = _prob_series("oc_fake", oc_fake)
    orr = _prob_series("oc_real", oc_real)
    yf = _binary_series("y_fake", y_fake)
    yr = _binary_series("y_real", y_real)
    sizes = {arr.size for arr in (lf, lr, of, orr, yf, yr)}
    if len(sizes) != 1:
        raise ShapeError(f"all six series must share one length, got {sorted(sizes)}")
    disc = -np.mean(np.log1p(-lf)) - np.mean(np.log(lr))
    cls = -np.mean(yf * np.log(of)) - np.mean(yr * np.log(orr))
    return float(disc + cls)


def total_loss(parts: Mapping[str, float], weights: LossWeights | None = None) -> float:
    """Weighted sum of the six named terms; missing terms count as 0."""
    weights = weights or LossWeights()
    total = 0.0
    for term, value in parts.items():
        weight = weights.for_term(term)
        if not math.isfinite(value):
            raise ParameterError(f"{term}={value!r} must be finite")
        total += weight * float(value)
    if not math.isfinite(total):
        raise ParameterError(f"the weighted total overflows: {total!r}")
    return total


def loss_report(parts: Mapping[str, float], weights: LossWeights | None = None) -> dict[str, float]:
    """Flat report of the given terms plus their weighted total."""
    report = {term: float(value) for term, value in parts.items()}
    report["total"] = total_loss(parts, weights)
    return report
