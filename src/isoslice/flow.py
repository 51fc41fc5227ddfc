"""Dense 2D displacement fields between slice pairs.

``estimate_flow`` is a classical Horn-Schunck estimator run coarse-to-fine
over an image pyramid with incremental warping.  Every sweep has a fixed
order, so repeated runs on the same inputs are bit-identical.  The solver
works on (B, H, W) stacks of independent pairs, so ``impute`` solves a gap's
forward and backward flows in one pass; each pair's result is bit-identical
to solving it alone, and ``estimate_flow`` is the one-pair case.

Flow semantics are forward for estimation: the field returned by
``estimate_flow(i0, i1)`` maps a pixel ``(x, y)`` of ``i0`` to
``(x + u, y + v)`` in ``i1``.  Sampling is backward with clamp-to-edge
bilinear interpolation (see ``impute.backward_warp``): warping ``i1`` by
that same field reconstructs ``i0``.

The on-disk container ("VFLO") is the volume container with its own magic::

    b"VFLO\\n"
    one JSON line: {"dims":[W,H]}
    W*H little-endian f32 u values, then W*H f32 v values (row-major)
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from .errors import FileFormatError, ParameterError, ShapeError
from .volume import Slice2D, _ArrayValue, _frozen, _header_dims, _is_int, _read_container, _write_container

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

    @property
    def dims(self) -> tuple[int, int]:
        """(W, H) = (columns, rows)."""
        return (self.u.shape[1], self.u.shape[0])

    @classmethod
    def zeros(cls, dims: tuple[int, int]) -> "FlowField":
        w, h = dims
        return cls(np.zeros((h, w)), np.zeros((h, w)))


@dataclass(frozen=True)
class HsParams:
    """Knobs of the variational estimator.

    The defaults suit smooth slices regardless of intensity units, since the
    estimator range-normalizes its inputs to 0..255 before differentiating.
    ``alpha`` must be at least 1e-100: where the image gradient vanishes each
    Jacobi sweep divides an intensity difference of up to 255 by
    ``alpha ** 2``, which stays near 1e202 at that floor but overflows
    float64 below about 1e-153 and turns the flow into NaN.
    """

    alpha: float = 15.0
    iterations: int = 100
    pyramid_levels: int = 3
    warps_per_level: int = 3

    def __post_init__(self) -> None:
        if not (np.isfinite(self.alpha) and self.alpha >= 1e-100):
            raise ParameterError(f"alpha={self.alpha!r} must be finite and at least 1e-100")
        for name in ("iterations", "pyramid_levels", "warps_per_level"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ParameterError(f"{name}={value!r} must be a positive integer")


def sample_bilinear(arr: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Bilinear lookup of ``arr`` at float positions, clamped to the edge.

    ``arr`` is one (H, W) slice or a (B, H, W) stack.  For a stack the
    positions broadcast against (B, ...) and slice ``b`` is sampled at
    ``xs[b], ys[b]``; each slice's samples equal a 2-D call on that slice.
    """
    h, w = arr.shape[-2:]
    xs = np.clip(xs, 0.0, w - 1.0)
    ys = np.clip(ys, 0.0, h - 1.0)
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    wx = xs - x0
    wy = ys - y0
    lead = (np.arange(arr.shape[0])[:, None, None],) if arr.ndim == 3 else ()
    top = arr[(*lead, y0, x0)] * (1.0 - wx) + arr[(*lead, y0, x1)] * wx
    bottom = arr[(*lead, y1, x0)] * (1.0 - wx) + arr[(*lead, y1, x1)] * wx
    return top * (1.0 - wy) + bottom * wy


# The solver's helpers below work on (B, H, W) stacks of independent
# problems: every operation acts on each slice alone, in the same order as
# on a single slice, so a slice's result does not depend on its stack.


def _warp_by(arr: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    h, w = arr.shape[1:]
    xs = np.arange(w, dtype=np.float64)[None, :] + u
    ys = np.arange(h, dtype=np.float64)[:, None] + v
    return sample_bilinear(arr, xs, ys)


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


def _hs_sweeps(
    a: np.ndarray,
    b: np.ndarray,
    u0: np.ndarray,
    v0: np.ndarray,
    params: HsParams,
) -> tuple[np.ndarray, np.ndarray]:
    """One warp iteration: linearize around (u0, v0), then fixed Jacobi sweeps.

    Each sweep is ``u = ub - gx * shared`` with ``ub`` the neighbour mean and
    ``shared = (gx * (ub - u0) + gy * (vb - v0) + it) / denom``, evaluated
    into preallocated buffers.
    """
    warped = _warp_by(b, u0, v0)
    it = warped - a
    gx, gy = _central_gradients(0.5 * (a + warped))
    denom = params.alpha * params.alpha + gx * gx + gy * gy
    u, v = u0.copy(), v0.copy()
    ub, vb = np.empty_like(u), np.empty_like(v)
    shared, tmp = np.empty_like(u), np.empty_like(u)
    for _ in range(params.iterations):
        ndimage.correlate(u, _AVG_KERNEL, output=ub, mode="nearest")
        ndimage.correlate(v, _AVG_KERNEL, output=vb, mode="nearest")
        np.subtract(ub, u0, out=shared)
        shared *= gx
        np.subtract(vb, v0, out=tmp)
        tmp *= gy
        shared += tmp
        shared += it
        shared /= denom
        np.multiply(gx, shared, out=tmp)
        np.subtract(ub, tmp, out=u)
        np.multiply(gy, shared, out=tmp)
        np.subtract(vb, tmp, out=v)
    return u, v


def _check_pyramid(dims: tuple[int, int], levels: int) -> None:
    w, h = dims
    if min(w, h).bit_length() <= levels:  # i.e. min(w, h) < 2**levels
        raise ParameterError(f"dims {dims} too small for {levels} pyramid levels")


def _solve_stack(a: np.ndarray, b: np.ndarray, params: HsParams) -> tuple[np.ndarray, np.ndarray]:
    """Forward flows ``(u, v)`` from each slice of stack ``a`` toward the same slice of ``b``.

    ``a`` and ``b`` are (B, H, W) float64 stacks of already-checked pairs;
    slice ``k`` of the result is bit-identical to solving pair ``k`` alone.
    """
    a, b = _normalized(a, b)
    a_levels = [a]
    b_levels = [b]
    for _ in range(params.pyramid_levels - 1):
        a_levels.append(_downsample(a_levels[-1]))
        b_levels.append(_downsample(b_levels[-1]))

    u = np.zeros_like(a_levels[-1])
    v = np.zeros_like(a_levels[-1])
    for a, b in zip(reversed(a_levels), reversed(b_levels)):
        if u.shape != a.shape:
            scale_x = a.shape[2] / u.shape[2]
            scale_y = a.shape[1] / u.shape[1]
            u = _resize_bilinear(u, a.shape[1:]) * scale_x
            v = _resize_bilinear(v, a.shape[1:]) * scale_y
        for _ in range(params.warps_per_level):
            u, v = _hs_sweeps(a, b, u, v, params)
    return u, v


def estimate_flow(i0: Slice2D, i1: Slice2D, params: HsParams | None = None) -> FlowField:
    """Estimate the forward flow taking ``i0``'s frame toward ``i1``.

    Coarse-to-fine: the images are repeatedly binomial-blurred and halved,
    the coarsest level starts from zero motion, and each finer level warps
    ``i1`` by the upsampled estimate before re-solving.  Deterministic for
    fixed inputs and params.
    """
    params = params or HsParams()
    if i0.dims != i1.dims:
        raise ShapeError(f"slice dims {i0.dims} and {i1.dims} differ")
    _check_pyramid(i0.dims, params.pyramid_levels)
    u, v = _solve_stack(i0.data[None], i1.data[None], params)
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
    if not (np.isfinite(t) and 0.0 <= t <= 1.0):
        raise ParameterError(f"t={t!r} must lie in [0, 1]")
    cross = -(1.0 - t) * t
    ft0 = FlowField(cross * f01.u + t * t * f10.u, cross * f01.v + t * t * f10.v)
    sq = (1.0 - t) * (1.0 - t)
    ft1 = FlowField(sq * f01.u + cross * f10.u, sq * f01.v + cross * f10.v)
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
