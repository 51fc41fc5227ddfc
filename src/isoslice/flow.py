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
one-pair case.  The caller hands the solver ``a`` over ``b`` as one (2B, H,
W) array, which it normalizes in place, and ``u`` over ``v`` is one such
array too, so each pyramid level is one ``_downsample`` and each Jacobi
sweep and median filter one pass over both.

Flow semantics are forward for estimation: the field returned by
``estimate_flow(i0, i1)`` maps a pixel ``(x, y)`` of ``i0`` to
``(x + u, y + v)`` in ``i1``.  Sampling is backward, clamp-to-edge bilinear
through one ``_plan`` of corner indices and weights per warp: warping
``i1`` by that same field reconstructs ``i0``.

The solver runs on numpy alone.  Its three filters (the pyramid's binomial
blur, the sweeps' 8-neighbour mean and the 5x5 median, all with
edge-replicated borders) repeat the arithmetic of ``scipy.ndimage``'s
``correlate1d``, ``correlate`` and ``median_filter`` in mode "nearest" bit
for bit, so their outputs are the bytes those calls gave; the tests hold
them to that.  So a flow solve never loads scipy; only ``metrics`` does.
A warp's Jacobi sweeps keep every operand in one flat layout with a
one-pixel border, so each step of a sweep is one contiguous pass over whole
buffers, and each of the mean's eight taps is a constant offset into one of
two scaled copies of the flow: 21 numpy calls per sweep where shifted
per-tap products took 27.
Loading ``scipy.ndimage`` costs a fresh process about 0.25 s and 24 MB of
peak RSS: a cold 64x64x9 ``impute --method flow`` took 0.67 s and 69 MB
with it and takes 0.42 s and 45 MB without (2-CPU Xeon VM).

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

from .errors import DataValidationError, FileFormatError, ParameterError, ShapeError
from .volume import (
    Slice2D,
    _ArrayValue,
    _adopted,
    _as_float,
    _frozen,
    _header_dims,
    _is_int,
    _is_number,
    _read_container,
    _write_container,
)

FLOW_MAGIC = b"VFLO\n"

# Weighted 8-neighbour average used by the Jacobi sweeps within each slice.
_AVG_KERNEL = np.array(
    [
        [1.0 / 12.0, 1.0 / 6.0, 1.0 / 12.0],
        [1.0 / 6.0, 0.0, 1.0 / 6.0],
        [1.0 / 12.0, 1.0 / 6.0, 1.0 / 12.0],
    ]
)
# Its non-zero taps as (row offset, column offset, weight) into a slice
# padded by one pixel, in the kernel's C order: ndimage.correlate's order.
# ``_neighbour_mean`` adds them in this order, reading each tap's product
# from one of two whole-buffer products, by 1/12 or by 1/6, picked by its
# weight.  The weights are Python floats: with numpy scalar weights, two
# threads' neighbour-mean loops took about 1.9x one thread's time (1.07x
# with floats), so ``_BINOMIAL5``'s weights are taken as floats too.
_AVG_TAPS = tuple((dy, dx, float(w)) for (dy, dx), w in np.ndenumerate(_AVG_KERNEL) if w)

_BINOMIAL5 = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0

# Output pixels per block of ``_median``: whole slices of a stack or rows of
# one slice.  A block's 25 window values per pixel then take 1.6 MB per
# thread whatever the slice size, where whole-stack temporaries raised a
# threaded ``disk-flow`` job's peak RSS from 84.6 to 106 MB.
_MEDIAN_BLOCK = 1 << 13


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
    corners, wx, wy = _plan(arr.shape, xs, ys)
    values = arr.reshape(-1).take(corners)
    del corners  # before the bilerp's temporaries
    return _bilerp(values, wx, wy)


def _plan(shape: tuple, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The flat indices of the clamped bilinear corners of ``xs, ys`` in an array of ``shape``, and ``wx``, ``wy``.

    ``corners`` is one (4, ...) intp array, filled in place: top-left, top-right, bottom-left, bottom-right.
    """
    h, w = shape[-2:]
    wx = np.clip(xs, 0.0, w - 1.0, dtype=np.float64)  # float64 weights whatever the positions' dtype
    wy = np.clip(ys, 0.0, h - 1.0, dtype=np.float64)
    col = np.floor(wx).astype(np.intp)
    row = np.floor(wy).astype(np.intp)
    wx -= col
    wy -= row
    lead = np.arange(shape[0])[:, None, None] * (h * w) if len(shape) == 3 else 0
    corners = np.empty((4, *np.broadcast_shapes(np.shape(lead), col.shape, row.shape)), np.intp)
    np.add(row * w + lead, col, out=corners[0, ...])  # [k, ...] is an array even for 0-d positions
    np.add(corners[0], col < w - 1, out=corners[1, ...])
    np.add(corners[0], (row < h - 1) * w, out=corners[2, ...])
    np.add(corners[2], col < w - 1, out=corners[3, ...])
    return corners, wx, wy


def _bilerp(corners: np.ndarray, wx: np.ndarray, wy: np.ndarray) -> np.ndarray:
    """The bilinear sum over the four corner values a ``_plan`` gathers and its weights, elementwise for any shape."""
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
    """Blur a (B, H, W) stack along rows, then columns, with ``_BINOMIAL5`` and keep every second of each.

    The bytes of ``ndimage.correlate1d`` along axis 1, then axis 2 (mode
    "nearest"), sliced ``[:, ::2, ::2]``; only the kept rows and columns are
    computed.
    """
    return _blur_halve(_blur_halve(arr, 1), 2)


def _blur_halve(arr: np.ndarray, axis: int) -> np.ndarray:
    """Samples 0, 2, 4, ... along ``axis`` of the edge-replicated ``_BINOMIAL5`` blur of ``arr``.

    ``correlate1d`` sums a symmetric kernel as ``x[0] * w0``, then
    ``+= (x[-2] + x[+2]) * w2``, then ``+= (x[-1] + x[+1]) * w1``; so does this.
    """
    n = arr.shape[axis]
    padded = np.take(arr, np.clip(np.arange(-2, n + 2), 0, n - 1), axis=axis)

    def tap(k: int) -> np.ndarray:  # offset k - 2 from every kept sample
        return padded[(slice(None),) * axis + (slice(k, k + n, 2),)]

    w2, w1, w0 = map(float, _BINOMIAL5[:3])
    out = tap(2) * w0
    out += (tap(0) + tap(4)) * w2
    out += (tap(1) + tap(3)) * w1
    return out


def _resize_bilinear(arr: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    h2, w2 = shape
    h1, w1 = arr.shape[1:]
    xs = np.zeros(w2) if w2 == 1 else np.arange(w2) * ((w1 - 1) / (w2 - 1))
    ys = np.zeros(h2) if h2 == 1 else np.arange(h2) * ((h1 - 1) / (h2 - 1))
    return sample_bilinear(arr, xs[None, None, :], ys[None, :, None])


def _normalize(ab: np.ndarray) -> None:
    """Map each pair's joint range onto 0..255, in place in the (2B, H, W) stack ``ab``.

    Pair ``k`` is slices ``k`` and ``B + k``.  The data/smoothness balance
    assumes that scale; the flow itself is scale free.  A constant pair gets
    ``lo = 0`` and ``gain = 1``: it is left as it is.
    """
    pairs = ab.reshape(2, len(ab) // 2, -1)
    lo, hi = pairs.min(axis=(0, 2)), pairs.max(axis=(0, 2))
    varied = hi > lo
    gain = 255.0 / np.where(varied, hi - lo, 255.0)
    pairs -= np.where(varied, lo, 0.0)[:, None]
    pairs *= gain[:, None]


def _neighbour_mean(padded: np.ndarray, twelfths: np.ndarray, sixths: np.ndarray) -> np.ndarray:
    """The ``_AVG_KERNEL`` mean of each interior pixel's neighbours, written over the interior of ``padded``.

    ``padded`` is a C-contiguous (K, H+2, W+2) stack with edge-replicated
    borders.  ``twelfths`` and ``sixths`` are scratch of its shape that take
    ``padded`` times 1/12 and times 1/6, so each tap's products sit at a
    constant offset in one of them, flat.  They are added in ``_AVG_TAPS``
    order over one flat span that covers every interior pixel, then ``+=
    0.0`` (ndimage's start, which only turns a sum of eight -0.0 products
    into +0.0): the interior holds the bytes of ``ndimage.correlate(stack,
    _AVG_KERNEL[None], mode="nearest")``.  The span crosses the border
    pixels between rows and slices, which are left holding sums of no use.
    Returns the interior, a view.
    """
    width = padded.shape[2]
    flat = padded.reshape(-1)
    scaled = {}
    for buffer, weight in ((twelfths, 1.0 / 12.0), (sixths, 1.0 / 6.0)):
        scaled[weight] = np.multiply(flat, weight, out=buffer.reshape(-1))
    first = width + 1  # the first interior pixel, and the span's distance from each end
    span = flat[first:-first]
    first_tap, second_tap, *rest = (
        scaled[weight][first + (dy - 1) * width + dx - 1 :][: len(span)] for dy, dx, weight in _AVG_TAPS
    )
    np.add(first_tap, second_tap, out=span)
    for tap in rest:
        span += tap
    span += 0.0
    return padded[:, 1:-1, 1:-1]


def _replicate_edges(padded: np.ndarray) -> None:
    """Copy the outermost interior rows, then columns, of a (B, H+2, W+2) stack onto its one-pixel border."""
    padded[:, 0] = padded[:, 1]
    padded[:, -1] = padded[:, -2]
    padded[:, :, 0] = padded[:, :, 1]
    padded[:, :, -1] = padded[:, :, -2]


def _padded(stack: np.ndarray) -> np.ndarray:
    """A (B, H, W) stack inside a one-pixel border of zeros."""
    return np.pad(stack, ((0, 0), (1, 1), (1, 1)))


def _hs_sweeps(a: np.ndarray, b: np.ndarray, uv0: np.ndarray, params: HsParams) -> np.ndarray:
    """One warp iteration: linearize around ``uv0``, then fixed Jacobi sweeps.

    ``uv0`` stacks the B ``u`` slices over the B ``v`` slices as one (2B, H,
    W) array, so each sweep averages both components in one pass.  Per pixel
    a sweep is ``u = ub - gx * shared`` and ``v = vb - gy * shared`` with
    ``ub``, ``vb`` the neighbour means and ``shared = (gx * (ub - u0) + gy *
    (vb - v0) + it) / denom``.  Every operand lives in one (H+2, W+2) layout
    with a one-pixel border, so each step of a sweep is one pass over whole
    contiguous buffers and the neighbour mean needs no copy.  The border of
    ``uv`` is re-replicated before each sweep; between sweeps it holds sums
    of no use (see ``_neighbour_mean``).  The borders of ``uv0``, the
    gradients and ``it`` are 0, so ``denom``'s is ``alpha ** 2``, never 0,
    and every border step stays finite.  The two scaled copies the mean
    takes are then reused as the sweep's ``step`` and ``shared``.  The
    result is ``uv``'s interior, a view.
    """
    n = len(a)
    warped = _warp_by(b, uv0[:n], uv0[n:])
    it = _padded(warped - a)
    grad = _padded(np.concatenate(_central_gradients(0.5 * (a + warped))))
    del warped
    gx, gy = grad[:n], grad[n:]
    denom = params.alpha * params.alpha + gx * gx + gy * gy
    uv0 = _padded(uv0)
    uv = uv0.copy()
    step, scratch = np.empty_like(uv), np.empty_like(uv)
    shared = scratch[:n]
    halves = (2, *it.shape)
    for _ in range(params.iterations):
        _replicate_edges(uv)
        _neighbour_mean(uv, step, scratch)  # uv holds the mean until the sweep's last line
        np.subtract(uv, uv0, out=step)
        step *= grad
        np.add(step[:n], step[n:], out=shared)
        shared += it
        shared /= denom
        np.multiply(grad.reshape(halves), shared, out=step.reshape(halves))
        np.subtract(uv, step, out=uv)
    return uv[:, 1:-1, 1:-1]


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
    """The 5x5 median of each slice of a (B, H, W) stack, edge-replicated, as a new array.

    The bytes of ``ndimage.median_filter(arr, size=(1, 5, 5),
    mode="nearest")`` for inputs without NaN or -0.0 (the solver makes
    neither): like it, a rank-12 partition of each pixel's 25 window values
    selects one of them.  Runs in blocks of about ``_MEDIAN_BLOCK`` output
    pixels, whose windows are copied out and partitioned in place.
    """
    depth, h, w = arr.shape
    out = np.empty((depth, h, w))
    cols = np.clip(np.arange(-2, w + 2), 0, w - 1)
    slices = max(1, _MEDIAN_BLOCK // (h * w))
    rows = h if slices > 1 else max(1, _MEDIAN_BLOCK // w)
    for z in range(0, depth, slices):
        for y in range(0, h, rows):
            ys = np.clip(np.arange(y - 2, min(y + rows, h) + 2), 0, h - 1)
            dest = out[z : z + slices, y : y + rows]
            block = arr[z : z + slices, ys[:, None], cols]
            windows = np.lib.stride_tricks.sliding_window_view(block, (5, 5), (1, 2)).reshape(*dest.shape, 25)
            windows.partition(12)
            dest[...] = windows[..., 12]
            del windows  # before the next block's copy is made
    return out


def _solve_stack(ab: np.ndarray, params: HsParams, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Forward flows ``(u, v)`` from each source slice of ``ab`` toward its target.

    ``ab`` is a (2B, H, W) float64 stack of B pairs, the B sources over the
    B targets (pair ``k`` is slices ``k`` and ``B + k``), already checked against the resolved pyramid depth ``levels``
    (see ``_pyramid_depth``); it is normalized in place, so the caller hands
    it over.  Slice ``k`` of the result is bit-identical to solving pair
    ``k`` alone.
    """
    n = len(ab) // 2
    _normalize(ab)
    pyramid = [ab]
    for _ in range(levels - 1):
        pyramid.append(_downsample(pyramid[-1]))

    uv = np.zeros((2 * n, *pyramid[-1].shape[1:]))
    for ab in reversed(pyramid):
        if uv.shape[1:] != ab.shape[1:]:
            scale_x = ab.shape[2] / uv.shape[2]
            scale_y = ab.shape[1] / uv.shape[1]
            uv = _resize_bilinear(uv, ab.shape[1:])
            uv[:n] *= scale_x
            uv[n:] *= scale_y
        for _ in range(params.warps_per_level):
            uv = _median(_hs_sweeps(ab[:n], ab[n:], uv, params))
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
    u, v = _solve_stack(np.stack((i0.data, i1.data)), params, levels)
    return _adopted(FlowField, u=u[0], v=v[0])


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
    """The quadratic weights of ``compose_intermediate_flow``, elementwise on ``(u, v)`` slices or stacks."""
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
    _write_container(path, FLOW_MAGIC, {"dims": [w, h]}, f.u.astype("<f4"), f.v.astype("<f4"))


def _flow_payload_size(header: dict) -> int:
    if set(header) != {"dims"}:
        raise FileFormatError("header must carry exactly the dims key")
    w, h = _header_dims(header, 2)
    return 2 * w * h * 4


def load_flow(path: str | Path) -> FlowField:
    """Read a VFLO file back into a FlowField; a DataValidationError names the path, as ``load_volume``'s does."""
    header, payload = _read_container(path, FLOW_MAGIC, _flow_payload_size)
    w, h = header["dims"]
    u, v = np.frombuffer(payload, dtype="<f4").reshape(2, h, w)
    try:
        return FlowField(u, v)
    except DataValidationError as exc:
        raise DataValidationError(f"{path}: {exc}") from exc
