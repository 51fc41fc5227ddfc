"""Slice synthesis and through-plane imputation.

A synthetic slice at position ``t`` between two bracketing slices is the
position-weighted blend of the two backward-warped endpoints.  Labels travel
the same way as per-class indicator maps and are decided per pixel by argmax
(ties go to the lower class id, so background wins).  ``impute_volume``
applies this between every pair of consecutive axial slices; the original
slices are carried over untouched.

Label synthesis visits only the classes present in the two bracketing
slices and keeps a running per-pixel best, so its cost and memory scale with
the classes present there, not with the declared class count.  This is
exact: every blended map is a convex combination of indicators, so an
absent class is 0.0 everywhere and can never beat a present one.

With ``method="flow"`` the gaps are split into contiguous runs, one per
usable CPU, of at most ``_STACK_PIXELS // (2 * W * H)`` gaps (at least
one).  A run solves every flow pair ``(a -> b, b -> a)`` of its gaps as one
(2g, H, W) stack, then writes its synthetic image and label slices into its
own output rows.  The runs go to a thread pool (the flow solver spends most
of its time in ndimage calls that release the GIL), and fewer, larger solves
cut the per-call work that holds it.  Output bytes do not depend on the run
split or the CPU count.  Linear gaps run serially, because threading them
raised peak memory on a 117-class label volume by about a fifth.
"""

from __future__ import annotations

import math
import os
import warnings
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DataValidationError, InsufficientSlicesError, ParameterError, ShapeError
from .flow import FlowField, HsParams, _pyramid_depth, _solve_stack, compose_intermediate_flow, sample_bilinear

# Not called here since gaps solve both directions as one stack, but
# bench/tracing.py still wraps this name (see ROADMAP item 2).
from .flow import estimate_flow  # noqa: F401
from .volume import LabelVolume, Slice2D, Spacing, Volume, _is_int

METHOD_FLOW = "flow"
METHOD_LINEAR = "linear"

# Largest output volume ``impute_volume`` will allocate, in voxels, so a
# hostile header spacing or slice count fails before any allocation.
MAX_OUTPUT_VOXELS = 1 << 30

# Most pixels in one flow solve's (2g, H, W) stack.  Measured on 2 CPUs with
# the default HsParams: at 64x64, 16 gaps on two threads took 25.5 ms per gap
# as 1-gap stacks, 22.0 as 2-gap and 20.8 as 4- or 8-gap stacks (2^15-2^16
# px); at 128x128 and 256x256 the stack size made no difference.  One
# thread's cost per pixel is lowest from 2^14 to 2^16 px and rises beyond
# (4.8 to 5.3 us/px at 2^20), while a larger stack only holds more memory.
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
    return Slice2D(_warp_arr(img.data, flow))


def _warp_arr(arr: np.ndarray, flow: FlowField) -> np.ndarray:
    h, w = arr.shape
    xs = np.arange(w, dtype=np.float64)[None, :] + flow.u
    ys = np.arange(h, dtype=np.float64)[:, None] + flow.v
    return sample_bilinear(arr, xs, ys)


def synth_intermediate_slice(
    i0: Slice2D, i1: Slice2D, ft0: FlowField, ft1: FlowField, t: float
) -> Slice2D:
    """Blend the two warped endpoints: ``(1-t) * warp(i0, ft0) + t * warp(i1, ft1)``."""
    if not (i0.dims == i1.dims == ft0.dims == ft1.dims):
        raise ShapeError(
            f"dims differ: slices {i0.dims}/{i1.dims}, flows {ft0.dims}/{ft1.dims}"
        )
    if not (np.isfinite(t) and 0.0 <= t <= 1.0):
        raise ParameterError(f"t={t!r} must lie in [0, 1]")
    return Slice2D(_blend(i0.data, i1.data, (ft0, ft1), t))


def _blend(
    a: np.ndarray, b: np.ndarray, flows: tuple[FlowField, FlowField] | None, t: float
) -> np.ndarray:
    """``(1-t) * warp(a, ft0) + t * warp(b, ft1)``; without flows, the plain blend."""
    if flows is None:
        return (1.0 - t) * a + t * b
    ft0, ft1 = flows
    return (1.0 - t) * _warp_arr(a, ft0) + t * _warp_arr(b, ft1)


def _class_maps(l0: np.ndarray, l1: np.ndarray) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """``(id, l0 == id, l1 == id)`` for every class present in either id slice, ascending."""
    return [(int(c), l0 == c, l1 == c) for c in np.union1d(l0, l1)]


def _blend_argmax(
    maps: Iterable[tuple[int, np.ndarray, np.ndarray]],
    flows: tuple[FlowField, FlowField] | None,
    t: float,
    dtype: np.dtype,
) -> np.ndarray:
    """Per-pixel id of the class whose blended map is largest.

    ``maps`` holds ``(id, map0, map1)`` in ascending id order.  One running
    best value and id are kept per pixel; a later class takes over only where
    it is strictly greater, which is ``np.argmax``'s lower-id tie rule.
    """
    best = ids = None
    for c, m0, m1 in maps:
        value = _blend(m0, m1, flows, t)
        if best is None:
            best, ids = value, np.full(value.shape, c, dtype=dtype)
        else:
            ids[value > best] = c
            np.maximum(best, value, out=best)
    return ids


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


def synth_intermediate_label(
    l0: np.ndarray, l1: np.ndarray, ft0: FlowField, ft1: FlowField, t: float
) -> np.ndarray:
    """Warp and blend two one-hot stacks, then pick the winning class per pixel.

    ``l0`` and ``l1`` are (classes, H, W) indicator stacks.  Each class map is
    warped and blended exactly like an image; the result is the argmax over
    the blended maps, with ties resolved toward the lower class id.
    """
    l0 = np.asarray(l0, dtype=np.float64)
    l1 = np.asarray(l1, dtype=np.float64)
    if l0.ndim != 3 or l1.ndim != 3 or l0.shape != l1.shape or l0.shape[0] == 0:
        raise ShapeError(f"one-hot stacks must share a (C, H, W) shape, got {l0.shape} and {l1.shape}")
    if not (np.all(np.isfinite(l0)) and np.all(np.isfinite(l1))):
        raise DataValidationError("one-hot stacks contain non-finite values")
    h, w = l0.shape[1:]
    if ft0.dims != (w, h) or ft1.dims != (w, h):
        raise ShapeError(f"flow dims {ft0.dims}/{ft1.dims} do not match label dims {(w, h)}")
    if not (np.isfinite(t) and 0.0 <= t <= 1.0):
        raise ParameterError(f"t={t!r} must lie in [0, 1]")
    return _blend_argmax(zip(range(l0.shape[0]), l0, l1), (ft0, ft1), t, np.intp)


def auto_slice_count(inter_mm: float, intra_mm: float) -> int:
    """Slices to insert per gap so inter-slice spacing matches in-plane spacing.

    ``floor(inter / intra) - 1``, clamped at zero: already-isotropic (or
    super-resolved) inputs need nothing inserted.
    """
    if not (np.isfinite(inter_mm) and inter_mm > 0 and np.isfinite(intra_mm) and intra_mm > 0):
        raise ParameterError(f"spacings must be positive and finite, got {inter_mm!r}, {intra_mm!r}")
    return max(math.floor(inter_mm / intra_mm) - 1, 0)


def _usable_cpus() -> int:
    """CPUs this process may run on (all of them where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
                f"spacing sz={v.spacing.sz} is already within one in-plane step of "
                f"sx={v.spacing.sx}; nothing to impute",
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
    out_labels = None
    if labels is not None:
        out_labels = np.empty((z_out, y, x), dtype=labels.data.dtype)

    for k in range(z):
        out[k * (n + 1)] = v.data[k]
        if out_labels is not None:
            out_labels[k * (n + 1)] = labels.data[k]

    def fill_run(gaps: range) -> None:
        """Write the n synthetic slices of each gap (k, k+1) in ``gaps`` into their own output rows."""
        ends = v.data[gaps.start : gaps.stop + 1].astype(np.float64)
        if use_flow:
            # Every (a -> b) and (b -> a) pair of the run in one solve.
            fore, aft = ends[:-1], ends[1:]
            us, vs = _solve_stack(np.concatenate((fore, aft)), np.concatenate((aft, fore)), cfg.hs, levels)
        for j, k in enumerate(gaps):
            a, b = ends[j], ends[j + 1]
            if use_flow:
                back = len(gaps) + j
                f01, f10 = FlowField(us[j], vs[j]), FlowField(us[back], vs[back])
            if out_labels is not None:
                maps = _class_maps(labels.data[k], labels.data[k + 1])
            for i in range(1, n + 1):
                t = i / (n + 1)
                flows = compose_intermediate_flow(f01, f10, t) if use_flow else None
                out[k * (n + 1) + i] = _blend(a, b, flows, t)
                if out_labels is not None:
                    out_labels[k * (n + 1) + i] = _blend_argmax(maps, flows, t, out_labels.dtype)

    # Runs share no state and write disjoint rows, and a pair's flow does
    # not depend on its stack, so neither the run split nor the CPU count
    # can change a byte of the output.  Linear gaps stay serial, one per
    # run: overlapping their label synthesis raised peak RSS on a 117-class
    # 256x256 label volume from 110 to 131 MB.
    gaps = z - 1
    workers, per_run = 1, 1
    if use_flow:
        workers = min(_usable_cpus(), gaps)
        per_run = max(1, min(math.ceil(gaps / workers), _STACK_PIXELS // (2 * x * y)))
    runs = [range(s, min(s + per_run, gaps)) for s in range(0, gaps, per_run)]
    workers = min(workers, len(runs))
    if workers > 1:
        with ThreadPoolExecutor(workers) as pool:
            for _ in pool.map(fill_run, runs):
                pass
    else:
        for run in runs:
            fill_run(run)

    spacing = Spacing(v.spacing.sx, v.spacing.sy, v.spacing.sz / (n + 1))
    result = Volume(out, spacing)
    result_labels = None
    if out_labels is not None:
        result_labels = LabelVolume(out_labels, spacing, labels.classes)
    return result, result_labels
