"""Closed-form quality terms for synthesized slices, fields, and volumes.

These are evaluators, not training objectives: no gradients, just numbers.
L1 terms are normalized to per-pixel means so values are resolution
independent; logs are natural.  Each evaluator is pure and reentrant.
Array inputs are checked finite through their min and max, with no
full-size temporary.  ``tp_smooth_slice`` and ``tp_smooth_loss`` share one
kernel; ``tp_smooth_slice`` runs it on its slice as a one-slice block.
``tp_smooth_loss`` reads the sagittal and coronal slices in blocks of whole
slices cut by the package's one block budget (``volume._slabs``: at most
2^16 pixels, or one slice where a slice is larger) and deals them to the
workers of its one pool rule (``volume._pool``), so its extra memory stays
a few blocks' worth of float64 per worker however large the volume.

Term vocabulary (also the JSON report keys): ``l_rec``, ``l_per``,
``l_warp``, ``l_smooth``, ``l_adv``, ``l_tp_smooth``.  ``l_per`` needs an
external feature extractor, so it is only ever accepted as a precomputed
scalar (or 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import DataValidationError, DomainError, ParameterError, ShapeError
from .flow import FlowField
from .impute import backward_warp
from .volume import LabelVolume, Slice2D, Volume, _all_finite, _as_float, _config, _is_number, _pool, _slabs
from .volume import _usable_cpus

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
            raise ParameterError(f"unknown weight keys: {sorted(unknown, key=repr)}")
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


def _entry(name: str, item: object, kinds: tuple[type, ...], what: str) -> tuple:
    """``item``, an entry of argument ``name``, as a tuple of one value of each of ``kinds``; else ParameterError."""
    try:
        values = tuple(item)
    except TypeError:
        values = None
    shown = type(item).__name__
    if values is not None and len(values) == len(kinds):
        if all(map(isinstance, values, kinds)):
            return values
        shown = f"({', '.join(type(value).__name__ for value in values)})"
    raise ParameterError(f"{name} entries must be {what}, got {shown}")


def rec_loss(pairs: Iterable[tuple[Slice2D | np.ndarray, Slice2D | np.ndarray]]) -> float:
    """Mean over pairs of the mean absolute per-pixel difference.

    A pair holds two same-shape ``Slice2D`` or 2-D arrays, such as the
    axial slices of two loaded volumes; arrays are not copied but, like
    ``Slice2D``, must be real and finite.  ``pairs`` may be any iterable,
    a generator included, so a caller need not hold every slice at once.
    """
    pairs = _config("pairs", pairs, Iterable)
    values = [_mean_abs_diff(*_entry("pairs", pair, (object, object), "(slice, slice) pairs")) for pair in pairs]
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
    slice reconstructed from each endpoint.  ``mids`` is a sequence of
    ``(target, flow sampling i0, flow sampling iN1)`` tuples of a
    ``Slice2D`` and two ``FlowField``s.
    """
    _config("i0", i0, Slice2D)
    _config("iN1", iN1, Slice2D)
    _config("f01", f01, FlowField)
    _config("f10", f10, FlowField)
    what = "(Slice2D, FlowField, FlowField) tuples"
    mids = [_entry("mids", mid, (Slice2D, FlowField, FlowField), what) for mid in _config("mids", mids, Sequence)]
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
    _config("f01", f01, FlowField)
    _config("f10", f10, FlowField)
    if f01.dims != f10.dims:
        raise ShapeError(f"flow dims {f01.dims} and {f10.dims} differ")
    return _field_gradient_l1(f01) + _field_gradient_l1(f10)


def tp_smooth_slice(s: Slice2D) -> float:
    """Squared neighbour differences of one slice, normalized by its area.

    Column terms pair each pixel with its left neighbour, row terms with the
    pixel below; terms that would index outside the slice are skipped while
    the 1/(rows*cols) normalization stays put.  The slice runs through
    ``tp_smooth_loss``'s kernel as a one-slice stack.
    """
    return float(_tp_smooth_blocks([_config("s", s, Slice2D).data[None]])[0][0])


def _tp_smooth_blocks(stacks: list[np.ndarray]) -> list[np.ndarray]:
    """``tp_smooth_slice`` of every slice of each (k, rows, cols) stack, one float64 array per stack.

    Each stack is copied into a C-ordered float64 array and its differences
    are new arrays in the same order, so each slice's differences are one
    contiguous run and ``sum(axis=(1, 2))`` adds them in the same order
    however many slices share the stack: every slice's value equals
    ``tp_smooth_slice`` of that slice, not just closely.
    """
    values = []
    for s in stacks:
        block = np.ascontiguousarray(s, dtype=np.float64)
        total = np.zeros(len(s))
        for a, b in ((block[:, :, 1:], block[:, :, :-1]), (block[:, 1:], block[:, :-1])):
            d = a - b
            d *= d
            total += d.sum(axis=(1, 2))
        values.append(total / (s.shape[1] * s.shape[2]))
    return values


def tp_smooth_loss(v: Volume) -> float:
    """Mean of ``tp_smooth_slice`` over every sagittal and coronal slice of a Volume or LabelVolume."""
    x, y, z = _config("v", v, (Volume, LabelVolume)).dims
    if min(x, y, z) < 2:
        raise ParameterError(f"volume extents {v.dims} must all be at least 2")
    # The volume is already validated, so slices need no Slice2D check.  Blocks
    # of the sagittal ([x, z, y]) and coronal ([y, z, x]) slices are dealt in
    # turn to the workers: numpy releases the GIL inside each call.  Sagittal
    # slices copy from strided memory and cost more, so contiguous shares
    # would leave one worker with the slow family (ROADMAP, dead ends).
    blocks = []
    for family in (v.data.transpose(2, 0, 1), v.data.transpose(1, 0, 2)):
        blocks += [family[run.start : run.stop] for run in _slabs(len(family), family[0].size)]
    workers = min(_usable_cpus(), len(blocks))
    with _pool(workers) as each:
        shares = list(each(_tp_smooth_blocks, (blocks[i::workers] for i in range(workers))))
    values = [None] * len(blocks)
    for i, share in enumerate(shares):
        values[i::workers] = share
    return float(np.mean(np.concatenate(values)))


def _series(ok: Callable[[np.ndarray], np.ndarray], fault: str, **named: Sequence[float]) -> list[np.ndarray]:
    """Each named series in turn as a non-empty float64 array whose entries all pass ``ok``.

    The first entry that fails raises DomainError naming ``name[i]``, its
    value and ``fault``; NaN fails every test.
    """
    arrays = []
    for name, values in named.items():
        try:
            items = list(values)
            if not all(_is_number(v) for v in items):
                raise TypeError("entries must be real numbers, not booleans, strings or containers")
            arr = np.array(items, dtype=np.float64)
        except (TypeError, OverflowError) as exc:
            raise ParameterError(f"{name} must be a series of numbers: {exc}") from exc
        if arr.size == 0:
            raise ParameterError(f"{name} must be a non-empty series")
        bad = np.flatnonzero(~ok(arr))
        if bad.size:
            raise DomainError(f"{name}[{bad[0]}] = {arr[bad[0]]!r} {fault}")
        arrays.append(arr)
    return arrays


def _probabilities(**named: Sequence[float]) -> list[np.ndarray]:
    """``_series`` of probabilities: each entry lies in the open interval (0, 1)."""
    return _series(lambda a: (a > 0.0) & (a < 1.0), "is outside the open interval (0, 1)", **named)


def _same_length(*series: np.ndarray) -> None:
    """ShapeError naming every length unless all the series share one."""
    *head, last = [arr.size for arr in series]
    if any(n != last for n in head):
        raise ShapeError(f"series lengths {', '.join(map(str, head))} and {last} differ")


def adv_loss(ld_fake: Sequence[float], gd_fake: Sequence[float]) -> float:
    """Cross-entropy pushing both discriminator outputs on fakes toward 1."""
    ld, gd = _probabilities(ld_fake=ld_fake, gd_fake=gd_fake)
    _same_length(ld, gd)
    return float(-np.mean(np.log(ld)) - np.mean(np.log(gd)))


def global_disc_loss(gd_fake: Sequence[float], gd_real: Sequence[float]) -> float:
    """Discriminator cross-entropy: fakes toward 0, reals toward 1."""
    fake, real = _probabilities(gd_fake=gd_fake, gd_real=gd_real)
    _same_length(fake, real)
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
    lf, lr, of, orr = _probabilities(ld_fake=ld_fake, ld_real=ld_real, oc_fake=oc_fake, oc_real=oc_real)
    yf, yr = _series(lambda a: (a == 0.0) | (a == 1.0), "is not 0 or 1", y_fake=y_fake, y_real=y_real)
    _same_length(lf, lr, of, orr, yf, yr)
    disc = -np.mean(np.log1p(-lf)) - np.mean(np.log(lr))
    cls = -np.mean(yf * np.log(of)) - np.mean(yr * np.log(orr))
    return float(disc + cls)


def total_loss(parts: Mapping[str, float], weights: LossWeights | None = None) -> float:
    """Weighted sum of the six named terms; missing terms count as 0.

    ``weights`` is a ``LossWeights``, or None for the defaults.  Any other
    ``weights``, or a term whose value is not a finite real number, raises
    ParameterError.
    """
    weights = _config("weights", weights, LossWeights, LossWeights())
    _config("parts", parts, Mapping)
    total = 0.0
    for term, value in parts.items():
        weight = weights.for_term(term)
        number = _as_float(value)
        if not math.isfinite(number):
            raise ParameterError(f"{term}={value!r} must be a finite real number")
        total += weight * number
    if not math.isfinite(total):
        raise ParameterError(f"the weighted total overflows: {total!r}")
    return total


def loss_report(parts: Mapping[str, float], weights: LossWeights | None = None) -> dict[str, float]:
    """Flat report of the given terms plus their weighted total."""
    total = total_loss(parts, weights)  # checks every value before the report reads it
    return {**{term: float(value) for term, value in parts.items()}, "total": total}
