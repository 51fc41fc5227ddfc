"""Slice synthesis and through-plane imputation.

A synthetic slice at position ``t`` between two bracketing slices is the
position-weighted blend of the two backward-warped endpoints (``_blend``).
Labels travel the same way, through the same ``flow._plan``s: each pixel
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

The gaps are split into contiguous runs, and every run synthesizes all its
gaps at one ``t`` as one (g, H, W) stack.  With ``method="flow"``,
``flow._gap_flows`` picks the runs and their workers, solves them and hands
each run's flows to its synthesis on the same worker.  Linear runs are cut
by the block budget alone (``volume._slabs``) and go serially (see
``impute_volume``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientSlicesError, ParameterError, ShapeError
from .flow import FlowField, HsParams, _check_t, _compose, _gap_flows, _pyramid_shapes, _warp_by
from .flow import _bilerp, _displaced, _plan
from .volume import MAX_OUTPUT_VOXELS, LabelVolume, Slice2D, Spacing, Volume, _adopted, _as_float, _config, _is_int
from .volume import _slabs

# Not called here (gaps solve both directions as one stack, synthesis warps
# through flow._plan and labels vote on id slices), but bench/tracing.py
# still wraps these and one_hot_stack by name (ROADMAP item 3).
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
        _config("hs", self.hs, HsParams)


def backward_warp(img: Slice2D, flow: FlowField) -> Slice2D:
    """Sample ``img`` at positions displaced by ``flow``.

    ``output(x, y) = img(x + u(x, y), y + v(x, y))`` with bilinear
    interpolation and clamp-to-edge boundary.  A zero flow reproduces the
    input bit for bit.
    """
    _config("img", img, Slice2D)
    _config("flow", flow, FlowField)
    if img.dims != flow.dims:
        raise ShapeError(f"image dims {img.dims} and flow dims {flow.dims} differ")
    return Slice2D(_warp_by(img.data, flow.u, flow.v))


def synth_intermediate_slice(
    i0: Slice2D, i1: Slice2D, ft0: FlowField, ft1: FlowField, t: float
) -> Slice2D:
    """Blend the two warped endpoints: ``(1-t) * warp(i0, ft0) + t * warp(i1, ft1)``."""
    _config("i0", i0, Slice2D)
    _config("i1", i1, Slice2D)
    _config("ft0", ft0, FlowField)
    _config("ft1", ft1, FlowField)
    if not (i0.dims == i1.dims == ft0.dims == ft1.dims):
        raise ShapeError(
            f"dims differ: slices {i0.dims}/{i1.dims}, flows {ft0.dims}/{ft1.dims}"
        )
    _check_t(t)
    return Slice2D(_blend(i0.data, i1.data, _plans(i0.data.shape, ((ft0.u, ft0.v), (ft1.u, ft1.v))), t))


def _plans(shape: tuple, flows) -> list:
    """One ``flow._plan`` per backward warp ``(u, v)`` in ``flows``, over arrays of ``shape``."""
    return [_plan(shape, *_displaced(u, v)) for u, v in flows]


def _blend(a: np.ndarray, b: np.ndarray, plans: list | None, t: float) -> np.ndarray:
    """``(1-t) * warp(a) + t * warp(b)`` on slices or stacks, through ``plans`` (one per endpoint) or none."""
    if plans is None:
        return (1.0 - t) * a + t * b
    (c0, wx0, wy0), (c1, wx1, wy1) = plans
    return (1.0 - t) * _bilerp(a.reshape(-1).take(c0), wx0, wy0) + t * _bilerp(b.reshape(-1).take(c1), wx1, wy1)


def _vote(l0: np.ndarray, l1: np.ndarray, plans: list | None, t: float) -> np.ndarray:
    """Per-pixel id ``c`` with the largest ``_blend(l0 == c, l1 == c, plans, t)``, ties to the lower id.

    Only an id at one of the pixel's 8 bilinear corners (4 per endpoint) can
    score above 0.0, and one always does, as ``1 - wx`` and ``1 - wy`` are
    positive.  So where the 8 agree that id wins, and elsewhere each corner
    id is scored with the very operations of its warped indicator maps,
    elementwise, so ``l0``, ``l1`` and the plans may be slices or stacks.
    """
    s0, s1 = 1.0 - t, t
    if plans is None:
        return l0 if s0 > s1 else l1 if s1 > s0 else np.minimum(l0, l1)
    (c0, wx0, wy0), (c1, wx1, wy1) = plans
    corners = np.concatenate((l0.reshape(-1).take(c0), l1.reshape(-1).take(c1)))
    ids = corners[0].copy()
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
    _config("ft0", ft0, FlowField)
    _config("ft1", ft1, FlowField)
    if ft0.dims != l0.shape[::-1] or ft1.dims != l0.shape[::-1]:
        raise ShapeError(f"flow dims {ft0.dims}/{ft1.dims} do not match label dims {l0.shape[::-1]}")
    _check_t(t)
    return _vote(l0.astype(np.intp), l1.astype(np.intp), _plans(l0.shape, ((ft0.u, ft0.v), (ft1.u, ft1.v))), t)


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
    of its neighbours.  ``cfg`` is an ``ImputeConfig``, or None for the
    defaults.  Any other ``cfg`` raises ``ParameterError``, as does an output
    of more than ``MAX_OUTPUT_VOXELS`` voxels, before anything is allocated.
    """
    cfg = _config("cfg", cfg, ImputeConfig, ImputeConfig())
    _config("v", v, Volume)
    x, y, z = v.dims
    if z < 2:
        raise InsufficientSlicesError(f"imputation needs Z >= 2, got Z={z}")
    if labels is not None:
        _config("labels", labels, LabelVolume)
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
    if use_flow:  # the pyramid's size rule, before anything is allocated
        _pyramid_shapes((x, y), cfg.hs.pyramid_levels)
    out = np.empty((z_out, y, x), dtype=np.float32)
    out[:: n + 1] = v.data
    out_labels = None
    if labels is not None:
        out_labels = np.empty((z_out, y, x), dtype=labels.data.dtype)
        out_labels[:: n + 1] = labels.data

    def synthesize(gaps: range, f01: np.ndarray | None = None, f10: np.ndarray | None = None) -> None:
        """Write the n synthetic slices of each gap in ``gaps``, one (g, H, W) stack per t, warped along ``f01``
        and ``f10``, the (2, g, H, W) ``u``-over-``v`` flows ``_gap_flows`` hands over, or blended without them."""
        ends = v.data[gaps.start : gaps.stop + 1].astype(np.float64)
        fore, aft = ends[:-1], ends[1:]
        for i in range(1, n + 1):
            t = i / (n + 1)
            plans = None if f01 is None else _plans(fore.shape, _compose(f01, f10, t))
            rows = slice(gaps.start * (n + 1) + i, gaps.stop * (n + 1), n + 1)
            out[rows] = _blend(fore, aft, plans, t)
            if labels is not None:
                ids = labels.data[gaps.start : gaps.stop + 1]
                out_labels[rows] = _vote(ids[:-1], ids[1:], plans, t)

    # Runs write disjoint rows, and a pair's flow and synthesis do not depend
    # on its stack, so neither the run split nor the CPU count can change a
    # byte of the output.  Linear runs stay serial: threading them saved no
    # time on `organs-linear` and raised its peak RSS (610d15d).
    if use_flow:
        _gap_flows(v.data, cfg.hs, synthesize)
    else:
        list(map(synthesize, _slabs(z - 1, 2 * x * y)))

    spacing = Spacing(v.spacing.sx, v.spacing.sy, v.spacing.sz / (n + 1))
    # Both outputs are adopted as built: a blend of finite slices is finite,
    # and every synthesized id is one of the input's.
    result_labels = None if labels is None else _adopted(
        LabelVolume, data=out_labels, spacing=spacing, classes=labels.classes
    )
    return _adopted(Volume, data=out, spacing=spacing), result_labels
