"""Slice synthesis and through-plane imputation.

A synthetic slice at position ``t`` between two bracketing slices is the
position-weighted blend of the two backward-warped endpoints (``_blend``,
warping with ``flow._warp_by``).  Labels travel the same way: each pixel
takes the class whose warped and blended indicator map is largest (ties go
to the lower class id, so background wins).  ``impute_volume`` applies this
between every pair of consecutive axial slices and carries the original
slices over untouched.  The public ``synth_intermediate_*`` check their
inputs; ``impute_volume`` checks once and passes on the solver's arrays.

Label synthesis is a vote among the ids at each pixel's 8 bilinear corners
(4 per endpoint), scored with the same operations as their warped and
blended indicator maps, so its cost and memory follow the slice size, not
the number of classes present or declared.  This is exact: an id at none of
the corners scores 0.0 there and can never beat one that is at a corner.

The gaps are split into contiguous runs of at most ``_STACK_PIXELS // (2 *
W * H)`` gaps (at least one), with ``method="flow"`` also spread over the
usable CPUs.  A flow run solves every pair ``(a -> b, b -> a)`` of its g gaps
in one solve, on its endpoints stacked once as ``(fore, aft, aft, fore)``, a
(4g, H, W) array of 2g sources over 2g targets; every run synthesizes all
its gaps at one ``t`` as one (g, H, W) stack.  Flow runs go to a thread
pool (the solver spends most of its time in numpy calls that release the
GIL), and fewer, larger solves cut the per-call work that holds it.  Output bytes do not depend on the run
split or the CPU count.  Linear runs go serially (see ``impute_volume``).
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientSlicesError, ParameterError, ShapeError
from .flow import FlowField, HsParams, _check_t, _compose, _pyramid_depth, _solve_stack, _warp_by
from .flow import _bilerp, _corners, _displaced
from .volume import LabelVolume, Slice2D, Spacing, Volume, _adopted, _as_float, _is_int, _usable_cpus

# Not called here (gaps solve both directions as one stack, synthesis warps
# through flow._warp_by and labels vote on id slices), but bench/tracing.py
# still wraps these and one_hot_stack by name (ROADMAP item 7).
from .flow import compose_intermediate_flow, estimate_flow, sample_bilinear  # noqa: F401


def one_hot_stack(labels: np.ndarray, classes: int) -> np.ndarray:
    """Expand a 2D integer label slice into a (classes, H, W) indicator stack."""
    arr = np.asarray(labels)
    if arr.ndim != 2:
        raise ParameterError(f"label slice must be 2D, got shape {arr.shape}")
    if not _is_int(classes) or classes < 1:
        raise ParameterError(f"classes={classes!r} must be an integer of at least 1")
    if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= classes):
        raise ParameterError(f"label ids must lie in 0..{classes - 1}")
    stack = np.zeros((classes, *arr.shape), dtype=np.float64)
    for c in range(classes):
        stack[c] = arr == c
    return stack


METHOD_FLOW = "flow"
METHOD_LINEAR = "linear"

# Largest output volume ``impute_volume`` will allocate, in voxels, so a
# hostile header spacing or slice count fails before any allocation.
MAX_OUTPUT_VOXELS = 1 << 30

# Most pixels in a run's (2g, H, W) stack of gap endpoints, for both methods.
# Measured for flow on 2 CPUs with the default HsParams: at 64x64, 16 gaps
# on two threads took 25.5 ms per gap as 1-gap stacks, 22.0 as 2-gap and 20.8
# as 4- or 8-gap stacks (2^15-2^16 px); at 128x128 and 256x256 the stack size
# made no difference.  One thread's cost per pixel is lowest from 2^14 to
# 2^16 px and rises beyond (4.8 to 5.3 us/px at 2^20), while a larger stack
# only holds more memory.
_STACK_PIXELS = 1 << 16


@dataclass(frozen=True)
class ImputeConfig:
    """How many slices to insert per gap and how to synthesize them.

    ``n_slices`` may be "auto", which derives the count from the volume's
    spacing so the output comes out isotropic (see ``auto_slice_count``).
    """

    n_slices: int | str = "auto"
    method: str = METHOD_FLOW
    hs: HsParams = field(default_factory=HsParams)

    def __post_init__(self) -> None:
        if self.n_slices != "auto":
            if not _is_int(self.n_slices) or self.n_slices < 0:
                raise ParameterError(f'n_slices must be "auto" or an integer >= 0, got {self.n_slices!r}')
        if self.method not in (METHOD_FLOW, METHOD_LINEAR):
            raise ParameterError(f"method must be {METHOD_FLOW!r} or {METHOD_LINEAR!r}, got {self.method!r}")


def backward_warp(img: Slice2D, flow: FlowField) -> Slice2D:
    """Sample ``img`` at positions displaced by ``flow``.

    ``output(x, y) = img(x + u(x, y), y + v(x, y))`` with bilinear
    interpolation and clamp-to-edge boundary.  A zero flow reproduces the
    input bit for bit.
    """
    if img.dims != flow.dims:
        raise ShapeError(f"image dims {img.dims} and flow dims {flow.dims} differ")
    return Slice2D(_warp_by(img.data, flow.u, flow.v))


def synth_intermediate_slice(
    i0: Slice2D, i1: Slice2D, ft0: FlowField, ft1: FlowField, t: float
) -> Slice2D:
    """Blend the two warped endpoints: ``(1-t) * warp(i0, ft0) + t * warp(i1, ft1)``."""
    if not (i0.dims == i1.dims == ft0.dims == ft1.dims):
        raise ShapeError(
            f"dims differ: slices {i0.dims}/{i1.dims}, flows {ft0.dims}/{ft1.dims}"
        )
    _check_t(t)
    return Slice2D(_blend(i0.data, i1.data, ((ft0.u, ft0.v), (ft1.u, ft1.v)), t))


def _blend(a: np.ndarray, b: np.ndarray, flows: tuple | None, t: float) -> np.ndarray:
    """``(1-t) * warp(a, *ft0) + t * warp(b, *ft1)`` on slices or stacks; ``flows`` is ``(ft0, ft1)`` or None."""
    if flows is None:
        return (1.0 - t) * a + t * b
    ft0, ft1 = flows
    return (1.0 - t) * _warp_by(a, *ft0) + t * _warp_by(b, *ft1)


def _vote(l0: np.ndarray, l1: np.ndarray, flows: tuple | None, t: float) -> np.ndarray:
    """Per-pixel id ``c`` with the largest ``_blend(l0 == c, l1 == c, flows, t)``, ties to the lower id.

    Only an id at one of the pixel's 8 bilinear corners (4 per endpoint) can
    score above 0.0, and one always does, as ``1 - wx`` and ``1 - wy`` are
    positive.  So where the 8 agree that id wins, and elsewhere each corner
    id is scored with the very operations of its warped indicator maps,
    elementwise, so ``l0``, ``l1`` and the flows may be slices or stacks.
    """
    s0, s1 = 1.0 - t, t
    if flows is None:
        return l0 if s0 > s1 else l1 if s1 > s0 else np.minimum(l0, l1)
    g0, wx0, wy0 = _corners(l0, *_displaced(*flows[0]))
    g1, wx1, wy1 = _corners(l1, *_displaced(*flows[1]))
    ids, corners = g0[0], np.array(g0 + g1)
    mixed = (corners != ids).any(axis=0)
    cands = corners[:, mixed]
    wx0, wy0, wx1, wy1 = (w[mixed] for w in (wx0, wy0, wx1, wy1))
    scores = np.array([
        s0 * _bilerp(cands[:4] == c, wx0, wy0) + s1 * _bilerp(cands[4:] == c, wx1, wy1) for c in cands
    ])
    ids[mixed] = np.where(scores == scores.max(axis=0), cands, np.iinfo(ids.dtype).max).min(axis=0)
    return ids


def synth_intermediate_label(
    l0: np.ndarray, l1: np.ndarray, ft0: FlowField, ft1: FlowField, t: float
) -> np.ndarray:
    """Warp and blend two (H, W) integer id slices, then pick the winning class per pixel.

    ``l0`` and ``l1`` hold class ids as ``LabelVolume`` slices do, not one-hot
    stacks.  Each class's indicator map is warped and blended exactly like
    an image; the result is the ``np.intp`` id slice of the largest blended
    map, ties going to the lower id.  Only ids at a pixel's 8 bilinear
    corners can win, so the cost does not depend on the class count.
    """
    l0, l1 = np.asarray(l0), np.asarray(l1)
    if l0.ndim != 2 or l0.shape != l1.shape:
        raise ShapeError(f"id slices must share an (H, W) shape, got {l0.shape} and {l1.shape}")
    if not all(a.dtype.kind in "iu" and np.can_cast(a.dtype, np.intp) for a in (l0, l1)):
        raise ParameterError(f"id slices must hold integers that fit np.intp, got {l0.dtype} and {l1.dtype}")
    if ft0.dims != l0.shape[::-1] or ft1.dims != l0.shape[::-1]:
        raise ShapeError(f"flow dims {ft0.dims}/{ft1.dims} do not match label dims {l0.shape[::-1]}")
    _check_t(t)
    return _vote(l0.astype(np.intp), l1.astype(np.intp), ((ft0.u, ft0.v), (ft1.u, ft1.v)), t)


def auto_slice_count(inter_mm: float, intra_mm: float) -> int:
    """Slices to insert per gap so inter-slice spacing matches in-plane spacing.

    ``floor(inter / intra) - 1``, clamped at zero: already-isotropic (or
    super-resolved) inputs need nothing inserted.  Spacings whose ratio
    overflows raise ParameterError.
    """
    inter, intra = _as_float(inter_mm), _as_float(intra_mm)
    if not (0.0 < inter < math.inf and 0.0 < intra < math.inf and inter / intra < math.inf):
        raise ParameterError(f"spacings and their ratio must be positive and finite: {inter_mm!r}, {intra_mm!r}")
    return max(math.floor(inter / intra) - 1, 0)


def impute_volume(
    v: Volume,
    labels: LabelVolume | None = None,
    cfg: ImputeConfig | None = None,
) -> tuple[Volume, LabelVolume | None]:
    """Insert synthetic slices between every consecutive axial pair.

    For each gap (k, k+1), N slices are synthesized at positions
    ``t = n / (N + 1)``; output Z grows to ``Z + (Z - 1) * N`` and the
    through-plane spacing shrinks to ``sz / (N + 1)``.  Original slices land
    unchanged at output index ``k * (N + 1)``.  With ``method="linear"`` the
    flows are identically zero, so each synthetic slice is the plain blend
    of its neighbours.  An output of more than ``MAX_OUTPUT_VOXELS`` voxels
    raises ``ParameterError`` before anything is allocated.
    """
    cfg = cfg or ImputeConfig()
    x, y, z = v.dims
    if z < 2:
        raise InsufficientSlicesError(f"imputation needs Z >= 2, got Z={z}")
    if labels is not None:
        if labels.dims != v.dims:
            raise ShapeError(f"label dims {labels.dims} do not match volume dims {v.dims}")
        if labels.spacing != v.spacing:
            raise ShapeError("label spacing does not match volume spacing")

    if cfg.n_slices == "auto":
        n = auto_slice_count(v.spacing.sz, v.spacing.sx)
        if n == 0:
            warnings.warn(
                f"spacing sz={v.spacing.sz} is already isotropic, within one in-plane step of "
                f"sx={v.spacing.sx}; copying the input unchanged",
                stacklevel=2,
            )
    else:
        n = int(cfg.n_slices)
    if n == 0:
        return v, labels

    z_out = z + (z - 1) * n
    if z_out * y * x > MAX_OUTPUT_VOXELS:
        raise ParameterError(
            f"output of {x}x{y}x{z_out} voxels ({n} slices per gap) exceeds the "
            f"limit of {MAX_OUTPUT_VOXELS} voxels"
        )
    use_flow = cfg.method == METHOD_FLOW
    if use_flow:
        levels = _pyramid_depth((x, y), cfg.hs.pyramid_levels)
    out = np.empty((z_out, y, x), dtype=np.float32)
    out[:: n + 1] = v.data
    out_labels = None
    if labels is not None:
        out_labels = np.empty((z_out, y, x), dtype=labels.data.dtype)
        out_labels[:: n + 1] = labels.data

    def fill_run(gaps: range) -> None:
        """Write the n synthetic slices of every gap (k, k+1) in ``gaps``, one (g, H, W) stack per t."""
        g = len(gaps)
        ends = v.data[gaps.start : gaps.stop + 1].astype(np.float64)
        fore, aft = ends[:-1], ends[1:]
        if use_flow:  # every (a -> b) and (b -> a) pair of the run in one solve
            us, vs = _solve_stack(np.concatenate((fore, aft, aft, fore)), cfg.hs, levels)
        for i in range(1, n + 1):
            t = i / (n + 1)
            flows = _compose((us[:g], vs[:g]), (us[g:], vs[g:]), t) if use_flow else None
            rows = slice(gaps.start * (n + 1) + i, gaps.stop * (n + 1), n + 1)
            out[rows] = _blend(fore, aft, flows, t)
            if labels is not None:
                ids = labels.data[gaps.start : gaps.stop + 1]
                out_labels[rows] = _vote(ids[:-1], ids[1:], flows, t)

    # Runs share no state and write disjoint rows, and a pair's flow and
    # synthesis do not depend on its stack, so neither the run split nor the
    # CPU count can change a byte of the output.  Linear runs stay serial: on
    # a 117-class 256x256 label volume (2 CPUs) threading them saved no time
    # (0.018-0.020 s per job, serial 0.016-0.019) and raised peak RSS from 110
    # to 116 MB, over three 30 s `organs-linear` bench runs each.
    gaps = z - 1
    workers = min(_usable_cpus(), gaps) if use_flow else 1
    per_run = max(1, min(math.ceil(gaps / workers), _STACK_PIXELS // (2 * x * y)))
    runs = [range(s, min(s + per_run, gaps)) for s in range(0, gaps, per_run)]
    workers = min(workers, len(runs))
    if workers > 1:
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(fill_run, runs))
    else:
        for run in runs:
            fill_run(run)

    spacing = Spacing(v.spacing.sx, v.spacing.sy, v.spacing.sz / (n + 1))
    # Both outputs are adopted as built: a blend of finite slices is finite,
    # and every synthesized id is one of the input's.
    result_labels = None if labels is None else _adopted(
        LabelVolume, data=out_labels, spacing=spacing, classes=labels.classes
    )
    return _adopted(Volume, data=out, spacing=spacing), result_labels
