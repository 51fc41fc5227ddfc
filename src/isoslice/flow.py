"""Dense 2D displacement fields between slice pairs.

``estimate_flow`` is a classical Horn-Schunck estimator run coarse-to-fine
over an image pyramid with incremental warping.  After every warp's Jacobi
sweeps a 5x5 median filter is applied to both flow components, the step Sun,
Roth and Black ("Secrets of Optical Flow Estimation and Their Principles",
CVPR 2010) found essential: without it the estimate diverges across warps on
deeper pyramids.  With it 25 sweeps per warp suffice, and the default pyramid
depth follows the slice size, ``max(1, min(W, H).bit_length() - 3)`` levels,
so the coarsest level's short side is about 8-16 px (4 levels at 64x64, 6 at
256x256, 1 below 16 px).  Every sweep and filter has a fixed order, so
repeated runs on the same inputs are bit-identical.  The solver
works on (B, H, W) stacks of independent pairs, so ``impute`` solves the
forward and backward flows of a whole run of gaps in one pass; each pair's
result is bit-identical to solving it alone, and ``estimate_flow`` is the
one-pair case.  Inside the solver ``u`` and ``v`` are one (2B, H, W) array,
so each Jacobi sweep and each median filter is one ndimage call for both.

Flow semantics are forward for estimation: the field returned by
``estimate_flow(i0, i1)`` maps a pixel ``(x, y)`` of ``i0`` to
``(x + u, y + v)`` in ``i1``.  Sampling is backward with clamp-to-edge
bilinear interpolation by ``_warp_by``, the one backward warp for the solver
and for ``impute``: warping ``i1`` by that same field reconstructs ``i0``.
Its ``_corners`` and ``_bilerp`` steps also serve ``impute``'s label vote.

The on-disk container ("VFLO") is the volume container with its own magic::

    b"VFLO\\n"
    one JSON line: {"dims":[W,H]}
    W*H little-endian f32 u values, then W*H f32 v values (row-major)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from .errors import FileFormatError, ParameterError, ShapeError
from .volume import (
    Slice2D,
    _ArrayValue,
    _as_float,
    _frozen,
    _header_dims,
    _is_int,
    _is_number,
    _read_container,
    _write_container,
)

FLOW_MAGIC = b"VFLO\n"

# Weighted 8-neighbour average used by the Jacobi sweeps, shaped (1, 3, 3)
# so it averages within each slice of a (B, H, W) stack.
_AVG_KERNEL = np.array(
    [
        [1.0 / 12.0, 1.0 / 6.0, 1.0 / 12.0],
        [1.0 / 6.0, 0.0, 1.0 / 6.0],
        [1.0 / 12.0, 1.0 / 6.0, 1.0 / 12.0],
    ]
)[None]

_BINOMIAL5 = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0

# Side of the square median window applied to u and v after every warp.
_MEDIAN_SIZE = 5


@dataclass(frozen=True, eq=False)
class FlowField(_ArrayValue):
    """Per-pixel displacement between two same-sized slices.

    ``u`` moves along the slice's first axis (columns, x) and ``v`` along
    the second (rows, y); both are float64 arrays indexed ``[row, col]``
    and measured in pixels of the slice grid.
    """

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        u = _frozen(self.u, np.float64, 2, "flow u")
        v = _frozen(self.v, np.float64, 2, "flow v")
        if u.shape != v.shape:
            raise ShapeError(f"u shape {u.shape} differs from v shape {v.shape}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @classmethod
    def zeros(cls, dims: tuple[int, int]) -> "FlowField":
        w, h = dims
        return cls(np.zeros((h, w)), np.zeros((h, w)))


@dataclass(frozen=True)
class HsParams:
    """Knobs of the variational estimator.

    The defaults suit smooth slices regardless of intensity units, since the
    estimator range-normalizes its inputs to 0..255 before differentiating.
    ``alpha`` must be a real number of at least 1e-100 (it is stored as a
    float): where the image gradient vanishes each Jacobi sweep divides an
    intensity difference of up to 255 by ``alpha ** 2``, which stays near
    1e202 at that floor but overflows float64 below about 1e-153 and turns
    the flow into NaN.

    ``iterations`` is the number of Jacobi sweeps per warp; each warp ends
    with a 5x5 median filter of the flow.  ``pyramid_levels`` may be "auto",
    which gives ``max(1, min(W, H).bit_length() - 3)`` levels for (W, H)
    slices; an explicit depth needs ``min(W, H) >= 2 ** pyramid_levels``.
    """

    alpha: float = 15.0
    iterations: int = 25
    pyramid_levels: int | str = "auto"
    warps_per_level: int = 3

    def __post_init__(self) -> None:
        alpha = _as_float(self.alpha)
        if not (math.isfinite(alpha) and alpha >= 1e-100):
            raise ParameterError(f"alpha={self.alpha!r} must be a finite number of at least 1e-100")
        object.__setattr__(self, "alpha", alpha)
        for name in ("iterations", "warps_per_level"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ParameterError(f"{name}={value!r} must be a positive integer")
        levels = self.pyramid_levels
        if not (isinstance(levels, str) and levels == "auto") and not (_is_int(levels) and levels >= 1):
            raise ParameterError(f'pyramid_levels must be "auto" or a positive integer, got {levels!r}')


def sample_bilinear(arr: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Bilinear lookup of ``arr`` at float positions, clamped to the edge.

    ``arr`` is one (H, W) slice or a (B, H, W) stack.  For a stack the
    positions broadcast against (B, ...) and slice ``b`` is sampled at
    ``xs[b], ys[b]``; each slice's samples equal a 2-D call on that slice.
    """
    return _bilerp(*_corners(arr, xs, ys))


def _corners(arr: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> tuple[list, np.ndarray, np.ndarray]:
    """``arr`` at the clamped corners (top-left, top-right, bottom-left, bottom-right), and ``wx``, ``wy``."""
    h, w = arr.shape[-2:]
    xs = np.clip(xs, 0.0, w - 1.0)
    ys = np.clip(ys, 0.0, h - 1.0)
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    lead = (np.arange(arr.shape[0])[:, None, None],) if arr.ndim == 3 else ()
    return [arr[(*lead, y, x)] for y in (y0, y1) for x in (x0, x1)], xs - x0, ys - y0


def _bilerp(corners: list, wx: np.ndarray, wy: np.ndarray) -> np.ndarray:
    """The bilinear sum over ``_corners``'s values and weights."""
    c00, c01, c10, c11 = corners
    top = c00 * (1.0 - wx) + c01 * wx
    bottom = c10 * (1.0 - wx) + c11 * wx
    return top * (1.0 - wy) + bottom * wy


def _displaced(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pixel positions ``(x + u, y + v)`` of a backward warp by ``(u, v)``."""
    h, w = u.shape[-2:]
    return np.arange(w, dtype=np.float64)[None, :] + u, np.arange(h, dtype=np.float64)[:, None] + v


# The solver's helpers below work on (B, H, W) stacks of independent
# problems: every operation acts on each slice alone, in the same order as
# on a single slice, so a slice's result does not depend on its stack.


def _warp_by(arr: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return sample_bilinear(arr, *_displaced(u, v))


def _central_gradients(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Central differences with replicate boundary.
    px = np.pad(arr, ((0, 0), (0, 0), (1, 1)), mode="edge")
    py = np.pad(arr, ((0, 0), (1, 1), (0, 0)), mode="edge")
    gx = (px[:, :, 2:] - px[:, :, :-2]) * 0.5
    gy = (py[:, 2:, :] - py[:, :-2, :]) * 0.5
    return gx, gy


def _downsample(arr: np.ndarray) -> np.ndarray:
    out = ndimage.correlate1d(arr, _BINOMIAL5, axis=1, mode="nearest")
    out = ndimage.correlate1d(out, _BINOMIAL5, axis=2, mode="nearest")
    return out[:, ::2, ::2]


def _resize_bilinear(arr: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    h2, w2 = shape
    h1, w1 = arr.shape[1:]
    xs = np.zeros(w2) if w2 == 1 else np.arange(w2) * ((w1 - 1) / (w2 - 1))
    ys = np.zeros(h2) if h2 == 1 else np.arange(h2) * ((h1 - 1) / (h2 - 1))
    return sample_bilinear(arr, xs[None, None, :], ys[None, :, None])


def _normalized(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Copies of the stacks with each pair's joint range mapped onto 0..255.

    The data/smoothness balance assumes that scale; the flow itself is scale
    free.  A constant pair is left as it is.
    """
    a, b = a.copy(), b.copy()
    for k in range(len(a)):
        lo = min(a[k].min(), b[k].min())
        hi = max(a[k].max(), b[k].max())
        if hi > lo:
            gain = 255.0 / (hi - lo)
            a[k] = (a[k] - lo) * gain
            b[k] = (b[k] - lo) * gain
    return a, b


def _hs_sweeps(a: np.ndarray, b: np.ndarray, uv0: np.ndarray, params: HsParams) -> np.ndarray:
    """One warp iteration: linearize around ``uv0``, then fixed Jacobi sweeps.

    ``uv0`` stacks the B ``u`` slices over the B ``v`` slices as one (2B, H,
    W) array, so each sweep averages both components with one ``correlate``
    call.  Per pixel a sweep is ``u = ub - gx * shared`` and ``v = vb - gy *
    shared`` with ``ub``, ``vb`` the neighbour means and ``shared = (gx * (ub
    - u0) + gy * (vb - v0) + it) / denom``, evaluated into preallocated
    buffers.
    """
    n = len(a)
    warped = _warp_by(b, uv0[:n], uv0[n:])
    it = warped - a
    grad = np.concatenate(_central_gradients(0.5 * (a + warped)))
    gx, gy = grad[:n], grad[n:]
    denom = params.alpha * params.alpha + gx * gx + gy * gy
    uv = uv0.copy()
    avg, step = np.empty_like(uv), np.empty_like(uv)
    shared = np.empty_like(a)
    halves = (2, *a.shape)
    for _ in range(params.iterations):
        ndimage.correlate(uv, _AVG_KERNEL, output=avg, mode="nearest")
        np.subtract(avg, uv0, out=step)
        step *= grad
        np.add(step[:n], step[n:], out=shared)
        shared += it
        shared /= denom
        np.multiply(grad.reshape(halves), shared, out=step.reshape(halves))
        np.subtract(avg, step, out=uv)
    return uv


def _pyramid_depth(dims: tuple[int, int], levels: int | str) -> int:
    """Pyramid levels for (W, H) slices: ``levels`` resolved ("auto") and checked."""
    w, h = dims
    short = min(w, h).bit_length()
    if levels == "auto":
        levels = max(1, short - 3)
    if short <= levels:  # i.e. min(w, h) < 2**levels
        raise ParameterError(f"dims {dims} too small for {levels} pyramid levels")
    return levels


def _median(arr: np.ndarray) -> np.ndarray:
    return ndimage.median_filter(arr, size=(1, _MEDIAN_SIZE, _MEDIAN_SIZE), mode="nearest")


def _solve_stack(
    a: np.ndarray, b: np.ndarray, params: HsParams, levels: int
) -> tuple[np.ndarray, np.ndarray]:
    """Forward flows ``(u, v)`` from each slice of stack ``a`` toward the same slice of ``b``.

    ``a`` and ``b`` are (B, H, W) float64 stacks of pairs already checked
    against the resolved pyramid depth ``levels`` (see ``_pyramid_depth``);
    slice ``k`` of the result is bit-identical to solving pair ``k`` alone.
    """
    a, b = _normalized(a, b)
    a_levels = [a]
    b_levels = [b]
    for _ in range(levels - 1):
        a_levels.append(_downsample(a_levels[-1]))
        b_levels.append(_downsample(b_levels[-1]))

    n = len(a)
    uv = np.zeros((2 * n, *a_levels[-1].shape[1:]))
    for a, b in zip(reversed(a_levels), reversed(b_levels)):
        if uv.shape[1:] != a.shape[1:]:
            scale_x = a.shape[2] / uv.shape[2]
            scale_y = a.shape[1] / uv.shape[1]
            uv = _resize_bilinear(uv, a.shape[1:])
            uv[:n] *= scale_x
            uv[n:] *= scale_y
        for _ in range(params.warps_per_level):
            uv = _median(_hs_sweeps(a, b, uv, params))
    return uv[:n], uv[n:]


def estimate_flow(i0: Slice2D, i1: Slice2D, params: HsParams | None = None) -> FlowField:
    """Estimate the forward flow taking ``i0``'s frame toward ``i1``.

    Coarse-to-fine: the images are repeatedly binomial-blurred and halved,
    the coarsest level starts from zero motion, and each finer level warps
    ``i1`` by the upsampled estimate before re-solving; every warp ends with
    a median filter of the flow.  Deterministic for fixed inputs and params.
    """
    params = params or HsParams()
    if i0.dims != i1.dims:
        raise ShapeError(f"slice dims {i0.dims} and {i1.dims} differ")
    levels = _pyramid_depth(i0.dims, params.pyramid_levels)
    u, v = _solve_stack(i0.data[None], i1.data[None], params, levels)
    return FlowField(u[0], v[0])


def compose_intermediate_flow(
    f01: FlowField, f10: FlowField, t: float
) -> tuple[FlowField, FlowField]:
    """Blend a bidirectional flow pair into the fields at position ``t``.

    Returns ``(ft0, ft1)``: the field sampling the first endpoint and the
    field sampling the second, per the quadratic time weighting

        ft0 = -(1 - t) * t * f01 + t^2 * f10
        ft1 = (1 - t)^2 * f01 - (1 - t) * t * f10

    At ``t == 0`` this is exactly ``(0, f01)``; at ``t == 1``, ``(f10, 0)``.
    """
    if f01.dims != f10.dims:
        raise ShapeError(f"flow dims {f01.dims} and {f10.dims} differ")
    _check_t(t)
    return tuple(FlowField(*uv) for uv in _compose((f01.u, f01.v), (f10.u, f10.v), t))


def _check_t(t: float) -> None:
    """The position rule of every synthesis entry point: a real number in [0, 1]."""
    if not (_is_number(t) and 0.0 <= t <= 1.0):
        raise ParameterError(f"t={t!r} must be a real number in [0, 1]")


def _compose(f01: tuple[np.ndarray, np.ndarray], f10: tuple[np.ndarray, np.ndarray], t: float):
    """The quadratic weights of ``compose_intermediate_flow`` on ``(u, v)`` array pairs."""
    cross = -(1.0 - t) * t
    sq = (1.0 - t) * (1.0 - t)
    ft0 = tuple(cross * a + t * t * b for a, b in zip(f01, f10))
    ft1 = tuple(sq * a + cross * b for a, b in zip(f01, f10))
    return ft0, ft1


def flow_magnitude_stats(f: FlowField) -> tuple[float, float]:
    """(mean, max) of the per-pixel Euclidean displacement magnitude."""
    mag = np.hypot(f.u, f.v)
    return float(mag.mean()), float(mag.max())


def save_flow(f: FlowField, path: str | Path) -> None:
    """Write ``f`` to ``path`` in the VFLO container (components stored as f32)."""
    w, h = f.dims
    _write_container(
        path, FLOW_MAGIC, {"dims": [w, h]}, f.u.astype("<f4").tobytes(), f.v.astype("<f4").tobytes()
    )


def _flow_payload_size(header: dict) -> int:
    if set(header) != {"dims"}:
        raise FileFormatError("header must carry exactly the dims key")
    w, h = _header_dims(header, 2)
    return 2 * w * h * 4


def load_flow(path: str | Path) -> FlowField:
    """Read a VFLO file back into a FlowField."""
    header, payload = _read_container(path, FLOW_MAGIC, _flow_payload_size)
    w, h = header["dims"]
    u, v = np.frombuffer(payload, dtype="<f4").reshape(2, h, w)
    return FlowField(u, v)
