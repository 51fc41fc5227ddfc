"""Dense 2D displacement fields between slice pairs.

``estimate_flow`` is a classical Horn-Schunck estimator run coarse-to-fine
over an image pyramid with incremental warping, with 5x5 median filters of
the flow between warps (see ``_refine``), the step Sun, Roth and Black
("Secrets of Optical Flow Estimation and Their Principles", CVPR 2010) found
essential: without it the estimate diverges across warps on deeper
pyramids, and with it 25 sweeps per warp suffice.  Every sweep and filter
has a fixed order, so repeated runs on the same inputs are bit-identical.

The solver works on (2B, H, W) stacks of B independent pairs, sources over
targets, and on their flows ``u`` over ``v``, so each pyramid level is one
``_downsample`` and each sweep and median filter one pass over both.  Each
pair's result is bit-identical to solving it alone, so ``_gap_flows`` solves
the flows of many gaps of a volume as one stack and ``estimate_flow`` is the
one-pair case.

Flow semantics are forward for estimation: the field returned by
``estimate_flow(i0, i1)`` maps a pixel ``(x, y)`` of ``i0`` to
``(x + u, y + v)`` in ``i1``.  Sampling is backward, clamp-to-edge bilinear
through one ``_plan`` of corner indices and weights per warp: warping
``i1`` by that same field reconstructs ``i0``.

The solver runs on numpy alone.  Its three filters (the pyramid's binomial
blur, the sweeps' 8-neighbour mean and the 5x5 median, all with
edge-replicated borders) repeat the arithmetic of ``scipy.ndimage``'s
``correlate1d``, ``correlate`` and ``median_filter`` in mode "nearest" bit
for bit on float64 stacks, as the tests check, so a flow solve never pays
scipy's load time and memory (baabf5e); only ``metrics`` loads it.

The solver runs those same kernels on float32: ``_pyramid`` normalizes each
pair in float64 and builds every level as float32, and the levels' dtype
carries through the sweeps, medians and resizes.  On float32 the median
still selects ndimage's value; the blur and the mean, which ndimage sums in
float64, stay within a few float32 ulps of it.  Volumes and flow files are
float32, so float64 sweeps bought no output precision, while float32 halves
the memory every sweep streams.  Flows leave the solver as float64.

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

from .errors import DataValidationError, DomainError, FileFormatError, ParameterError, ShapeError
from .volume import (
    Slice2D,
    _ArrayValue,
    _adopted,
    _all_finite,
    _as_float,
    _config,
    _frozen,
    _header_dims,
    _is_int,
    _is_number,
    _pool,
    _read_container,
    _slabs,
    _usable_cpus,
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
# padded by one pixel, in the kernel's C order: ndimage.correlate's order,
# which ``_hs_sweeps`` adds them in.  The weights, and ``_BINOMIAL5``'s where
# they are used, are Python floats: numpy scalar weights keep two threads'
# loops from overlapping (baabf5e).
_AVG_TAPS = tuple((dy, dx, float(w)) for (dy, dx), w in np.ndenumerate(_AVG_KERNEL) if w)

_BINOMIAL5 = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0

# Output pixels per block of ``_median``: whole slices of a stack or rows of
# one slice, so a block's 25 window values per pixel take 0.8 MB per thread
# in float32 (1.6 MB in float64) whatever the slice size; whole-stack
# temporaries raised peak RSS (3d84590).
_MEDIAN_BLOCK = 1 << 13

# Fewest pixels in a run's (4g, h, w) flow stack for a pyramid level below
# the finest to be solved per run in ``_gap_flows``; smaller levels, on which
# threads lose, are solved once for a group of runs on one worker (268630b).
_COARSE_PIXELS = 1 << 14


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
    ``alpha`` must be a finite real number of at least 1e-15 (it is stored
    as a float): where the image gradient vanishes each float32 Jacobi sweep
    divides an intensity difference of up to 255 by ``alpha ** 2``, which
    stays near 2.6e32 at that floor, a millionth of float32's 3.4e38, but
    overflows below ``sqrt(255 / 3.4e38)``, about 8.7e-19, and turns the
    flow into NaN.  There is no ceiling: an ``alpha`` whose square float32
    cannot hold (above about 1.8e19) is solved as if its square were
    float32's largest value, which, like any huge ``alpha``, leaves the flow
    near zero (about 1e-34 px between a flat and a noise slice).

    ``iterations`` is the number of Jacobi sweeps per warp.  Each warp of a
    coarser level ends with a 5x5 median filter of the flow; on the
    full-resolution level only the last of ``warps_per_level`` warps does.
    ``pyramid_levels`` may be "auto", which gives
    ``max(1, min(W, H).bit_length() - 3)`` levels for (W, H) slices; an
    explicit depth needs ``min(W, H) >= 2 ** pyramid_levels``.
    """

    alpha: float = 15.0
    iterations: int = 25
    pyramid_levels: int | str = "auto"
    warps_per_level: int = 3

    def __post_init__(self) -> None:
        alpha = _as_float(self.alpha)
        if not (math.isfinite(alpha) and alpha >= 1e-15):
            raise ParameterError(f"alpha={self.alpha!r} must be a finite number of at least 1e-15")
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
    h2, w2 = shape  # at least 4 px each: ``_pyramid_shapes`` keeps min(W, H) >= 2**levels
    h1, w1 = arr.shape[1:]
    xs = np.arange(w2) * ((w1 - 1) / (w2 - 1))
    ys = np.arange(h2) * ((h1 - 1) / (h2 - 1))
    return sample_bilinear(arr, xs[None, None, :], ys[None, :, None])


def _normalize(ab: np.ndarray) -> None:
    """Map each pair's joint range onto 0..255, in place in the (2B, H, W) stack ``ab``.

    Pair ``k`` is slices ``k`` and ``B + k``.  The data/smoothness balance
    assumes that scale; the flow itself is scale free.  A constant pair gets
    ``lo = 0`` and ``gain = 1``: it is left as it is.  A range that is not a
    finite float64, or whose gain is not, raises DomainError.
    """
    pairs = ab.reshape(2, len(ab) // 2, -1)
    lo, hi = pairs.min(axis=(0, 2)), pairs.max(axis=(0, 2))
    varied = hi > lo
    with np.errstate(over="ignore"):  # an overflow is refused just below
        span = np.where(varied, hi - lo, 255.0)
        gain = 255.0 / span
    for k in np.flatnonzero(~(np.isfinite(span) & np.isfinite(gain))):
        raise DomainError(f"slice pair {k}: range {float(lo[k])}..{float(hi[k])} cannot be scaled to 0..255")
    pairs -= np.where(varied, lo, 0.0)[:, None]
    pairs *= gain[:, None]


def _hs_sweeps(a: np.ndarray, b: np.ndarray, uv0: np.ndarray, params: HsParams) -> np.ndarray:
    """One warp iteration: linearize around ``uv0``, then fixed Jacobi sweeps.

    ``uv0`` stacks the B ``u`` slices over the B ``v`` slices as one (2B, H,
    W) array, so each sweep averages both components in one pass.  ``a``,
    ``b`` and ``uv0`` share one float dtype, which every buffer and the
    result take; ``alpha ** 2`` is capped at that dtype's largest value.
    Per pixel a sweep is ``u = ub - gx * shared`` and ``v = vb - gy *
    shared`` with ``ub``, ``vb`` the neighbour means and ``shared = (gx *
    (ub - u0) + gy * (vb - v0) + it) / denom``.  Every operand lives in one
    (H+2, W+2) layout with a one-pixel border, so each step of a sweep is
    one pass over whole contiguous buffers.  The borders of ``uv0``, the gradients and ``it``
    are 0, so ``denom``'s is the capped ``alpha ** 2``, never 0, and every
    border step stays finite.

    A sweep first copies the outermost interior rows, then columns, of
    ``uv`` onto its border.  Its neighbour mean then writes ``uv`` times
    1/12 and times 1/6 into the two scratch stacks, so each of the eight
    taps is a constant flat offset into one of them, and adds the taps in
    ``_AVG_TAPS`` order over one flat span that covers every interior pixel,
    then ``+= 0.0`` (ndimage's start, which only turns a sum of eight -0.0
    products into +0.0).  The interior then holds the bytes of
    ``ndimage.correlate(uv, _AVG_KERNEL[None], mode="nearest")``.  The span
    crosses the border pixels between rows and slices, which are left
    holding sums of no use until the next sweep re-replicates them.  The
    scratch stacks are then reused as the sweep's ``step`` and ``shared``.
    Every view is built once per warp, before the first sweep, so a sweep
    is its 21 numpy calls and no more.  The result is ``uv``'s interior, a
    view.
    """
    n = len(a)
    border = ((0, 0), (1, 1), (1, 1))
    warped = _warp_by(b, uv0[:n], uv0[n:]).astype(a.dtype, copy=False)
    it = np.pad(warped - a, border)
    grad = np.pad(np.concatenate(_central_gradients(0.5 * (a + warped))), border)
    del warped
    square = a.dtype.type(min(params.alpha * params.alpha, float(np.finfo(a.dtype).max)))
    denom = square + grad[:n] * grad[:n] + grad[n:] * grad[n:]
    uv0 = np.pad(uv0, border)
    uv = uv0.copy()
    step, scratch = np.empty_like(uv), np.empty_like(uv)
    edges = ((uv[:, 0], uv[:, 1]), (uv[:, -1], uv[:, -2]), (uv[:, :, 0], uv[:, :, 1]), (uv[:, :, -1], uv[:, :, -2]))
    width = uv.shape[2]
    first = width + 1  # the first interior pixel, and the span's distance from each end
    flat, twelfths, sixths = uv.reshape(-1), step.reshape(-1), scratch.reshape(-1)
    span = flat[first:-first]  # uv holds the mean until the sweep's last line
    scaled = {1.0 / 12.0: twelfths, 1.0 / 6.0: sixths}
    taps = [scaled[weight][first + (dy - 1) * width + dx - 1 :][: len(span)] for dy, dx, weight in _AVG_TAPS]
    shared, step_u, step_v = scratch[:n], step[:n], step[n:]
    halves = (2, *it.shape)
    grad_halves, step_halves = grad.reshape(halves), step.reshape(halves)
    for _ in range(params.iterations):
        for dest, source in edges:
            np.copyto(dest, source)
        np.multiply(flat, 1.0 / 12.0, out=twelfths)
        np.multiply(flat, 1.0 / 6.0, out=sixths)
        np.add(taps[0], taps[1], out=span)
        for tap in taps[2:]:
            np.add(span, tap, out=span)
        np.add(span, 0.0, out=span)
        np.subtract(uv, uv0, out=step)
        np.multiply(step, grad, out=step)
        np.add(step_u, step_v, out=shared)
        np.add(shared, it, out=shared)
        np.divide(shared, denom, out=shared)
        np.multiply(grad_halves, shared, out=step_halves)
        np.subtract(uv, step, out=uv)
    return uv[:, 1:-1, 1:-1]


def _pyramid_shapes(dims: tuple[int, int], levels: int | str) -> list[tuple[int, int]]:
    """The (h, w) of each pyramid level for (W, H) slices, finest first, with ``levels`` resolved ("auto") and checked.

    Each ``_downsample`` keeps samples 0, 2, 4, ... of both sides.
    """
    w, h = dims
    short = min(w, h).bit_length()
    if levels == "auto":
        levels = max(1, short - 3)
    if short <= levels:  # i.e. min(w, h) < 2**levels
        raise ParameterError(f"dims {dims} too small for {levels} pyramid levels")
    shapes = [(h, w)]
    for _ in range(levels - 1):
        shapes.append(tuple((side + 1) // 2 for side in shapes[-1]))
    return shapes


def _median(arr: np.ndarray) -> np.ndarray:
    """The 5x5 median of each slice of a (B, H, W) stack, edge-replicated, as a new array of its dtype.

    The bytes of ``ndimage.median_filter(arr, size=(1, 5, 5),
    mode="nearest")`` for inputs without NaN or -0.0 (the solver makes
    neither): like it, a rank-12 partition of each pixel's 25 window values
    selects one of them.  Runs in blocks of about ``_MEDIAN_BLOCK`` output
    pixels, whose windows are copied out and partitioned in place.
    """
    depth, h, w = arr.shape
    out = np.empty((depth, h, w), arr.dtype)
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


def _pyramid(ab: np.ndarray, levels: int) -> list[np.ndarray]:
    """``levels`` float32 levels of the (2B, H, W) pair stack ``ab``, finest first: ``ab`` normalized, then halved.

    ``ab`` is float64 and normalized in place, so ``_normalize``'s range
    refusals see the input's own values.  ``levels`` is a depth that
    ``_pyramid_shapes`` accepts for these slices.
    """
    _normalize(ab)
    pyramid = [ab.astype(np.float32)]
    for _ in range(levels - 1):
        pyramid.append(_downsample(pyramid[-1]))
    return pyramid


def _refine(pyramid: list[np.ndarray], uv: np.ndarray | None, params: HsParams, finest: bool = True) -> np.ndarray:
    """The (2B, h, w) float64 flows ``u`` over ``v`` after the warps of every level of ``pyramid``.

    ``pyramid`` lists (2B, h, w) stacks of sources over targets, finest
    first, as ``_pyramid`` builds them; they are solved coarsest first.  The
    warps start from ``uv``, a coarser level's flows that are resized and
    rescaled to the coarsest level given, or from zero motion when ``uv`` is
    None; either way they are solved in the pyramid's dtype.  Each warp of
    a level ends with ``_median``, except on the full-resolution level,
    ``pyramid[0]`` when ``finest``: its warps share one median, after the
    last.  That is cheaper, and the sweeps in between keep the zero flow of
    a small static structure, which a median after each warp there would
    erase.
    """
    n, dtype = len(pyramid[0]) // 2, pyramid[0].dtype
    uv = np.zeros((2 * n, *pyramid[-1].shape[1:]), dtype) if uv is None else uv.astype(dtype)
    for level, ab in reversed(list(enumerate(pyramid))):
        if uv.shape[1:] != ab.shape[1:]:
            scale_x = ab.shape[2] / uv.shape[2]
            scale_y = ab.shape[1] / uv.shape[1]
            uv = _resize_bilinear(uv, ab.shape[1:]).astype(dtype)
            uv[:n] *= scale_x
            uv[n:] *= scale_y
        full = finest and level == 0
        for left in range(params.warps_per_level, 0, -1):  # warps left, this one included
            uv = _hs_sweeps(ab[:n], ab[n:], uv, params)
            if left == 1 or not full:
                uv = _median(uv)
    return uv.astype(np.float64)


def estimate_flow(i0: Slice2D, i1: Slice2D, params: HsParams | None = None) -> FlowField:
    """Estimate the forward flow taking ``i0``'s frame toward ``i1``.

    Coarse-to-fine: the images are repeatedly binomial-blurred and halved,
    the coarsest level starts from zero motion, and each finer level warps
    ``i1`` by the upsampled estimate before re-solving.  Every warp ends with
    a median filter of the flow, except on the full-resolution level, where
    only the last does.  Deterministic for fixed inputs and params.
    The pair's joint range is scaled to 0..255 first: a range, or 255 over it, that
    overflows float64 (1e308 against -1e308, 0 against 1e-310) raises DomainError.
    """
    params = _config("params", params, HsParams, HsParams())
    _config("i0", i0, Slice2D)
    _config("i1", i1, Slice2D)
    if i0.dims != i1.dims:
        raise ShapeError(f"slice dims {i0.dims} and {i1.dims} differ")
    levels = len(_pyramid_shapes(i0.dims, params.pyramid_levels))
    u, v = _refine(_pyramid(np.stack((i0.data, i1.data)), levels), None, params)
    return _adopted(FlowField, u=u, v=v)


def _pairs(ends: list[np.ndarray]) -> np.ndarray:
    """Every gap's pair both ways, sources over targets, as one stack.

    ``ends`` holds one (2g, h, w) stack of endpoints per run, fore over aft,
    normalized per gap.  A pair's joint range is symmetric, so a run's stack
    is ``(fore, aft, aft, fore)``, several runs' all sources over all targets.
    """
    halves = [(e[: len(e) // 2], e[len(e) // 2 :]) for e in ends]
    return np.concatenate([*ends, *(half for fore, aft in halves for half in (aft, fore))])


def _gap_flows(slices: np.ndarray, params: HsParams, finish) -> None:
    """Solve both flows of every gap (k, k+1) of the (Z, H, W) ``slices`` and hand them to ``finish`` run by run.

    The gaps are split into contiguous runs of one length, the last maybe
    shorter: ``ceil(gaps / usable CPUs)`` gaps each, but few enough that a
    run's endpoint stack holds at most ``_BLOCK_PIXELS`` unless one gap
    alone is larger (see ``_slabs``).  ``finish(run, f01, f10)`` is called
    once per run, on the worker that solved it.  ``f01`` and ``f10`` are
    (2, g, H, W) float64 views, ``u`` over ``v``, of the flows ``estimate_flow``
    gives from each gap's slice k to k+1 and back, bit for bit.  The runs go
    to ``_pool``, as the solver's numpy calls mostly release the GIL.

    A run solves both directions of its g gaps as one stack per pyramid
    level (see ``_pairs``).  Levels below the finest on which its stack is
    under ``_COARSE_PIXELS`` are the coarse phase: they are solved once for
    a group of runs before the runs fan out, and each run then finishes its
    own finer levels from its coarse flows.  Only the coarse flows of all
    gaps are held at once, so memory follows the runs in flight, not the gap
    count.  A pair's flow does not depend on its stack, so neither the run
    split, the coarse groups nor the worker count can change a byte.
    """
    runs = _slabs(len(slices) - 1, 2 * slices[0].size, _usable_cpus())
    shapes = _pyramid_shapes(slices.shape[:0:-1], params.pyramid_levels)
    per_run = len(runs[0])
    # The finest level is always a run's own, so a gap's full-size flows
    # exist only while its run is in flight.
    fine = 1 + sum(4 * per_run * h * w >= _COARSE_PIXELS for h, w in shapes[1:])

    def endpoints(run: range) -> np.ndarray:
        """A new (2g, H, W) float64 stack of the endpoints of ``run``, fore over aft, for a pyramid to normalize."""
        return np.concatenate((slices[run.start : run.stop], slices[run.start + 1 : run.stop + 1]), dtype=np.float64)

    def solve_coarse(group: list[range]) -> list[np.ndarray]:
        """The flows after the coarse levels of each run in ``group``, from one solve of all their pairs."""
        # Each run's full pyramid lives only until its coarse levels are taken.
        coarse = [_pyramid(endpoints(run), len(shapes))[fine:] for run in group]
        uv = _refine([_pairs(level) for level in zip(*coarse)], None, params, finest=False)
        cuts = np.cumsum([2 * len(run) for run in group[:-1]])  # uv is u over v, each run after run
        return [np.concatenate(run) for run in zip(*(np.split(half, cuts) for half in np.split(uv, 2)))]

    def solve_run(gaps: range, uv: np.ndarray | None) -> None:
        """Finish the solve of ``gaps`` from its coarse flows ``uv`` (None without them), then ``finish`` it."""
        pyramid = _pyramid(endpoints(gaps), fine)
        while pyramid:  # coarsest first, each level dropped once its pair stack is built
            uv = _refine([_pairs([pyramid.pop()])], uv, params, finest=not pyramid)
        # uv is u over v, each the run's forward flows over its backward ones.
        finish(gaps, *uv.reshape(2, 2, len(gaps), *uv.shape[1:]).swapaxes(0, 1))

    with _pool(len(runs)) as each:
        starts = [None] * len(runs)
        if fine < len(shapes):  # a group's (4G, h, w) stack reaches _COARSE_PIXELS on its finest coarse level
            size = math.ceil(_COARSE_PIXELS / (4 * per_run * math.prod(shapes[fine])))
            groups = [runs[first : first + size] for first in range(0, len(runs), size)]
            starts = [uv for flows in each(solve_coarse, groups) for uv in flows]
        list(each(solve_run, runs, starts))


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
    _config("f01", f01, FlowField)
    _config("f10", f10, FlowField)
    if f01.dims != f10.dims:
        raise ShapeError(f"flow dims {f01.dims} and {f10.dims} differ")
    _check_t(t)
    ft0, ft1 = _compose(np.stack((f01.u, f01.v)), np.stack((f10.u, f10.v)), t)
    return FlowField(*ft0), FlowField(*ft1)


def _check_t(t: float) -> None:
    """The position rule of every synthesis entry point: a real number in [0, 1]."""
    if not (_is_number(t) and 0.0 <= t <= 1.0):
        raise ParameterError(f"t={t!r} must be a real number in [0, 1]")


def _compose(f01: np.ndarray, f10: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """The quadratic weights of ``compose_intermediate_flow``, elementwise on ``u``-over-``v`` arrays."""
    cross = -(1.0 - t) * t
    return cross * f01 + t * t * f10, (1.0 - t) * (1.0 - t) * f01 + cross * f10


def flow_magnitude_stats(f: FlowField) -> tuple[float, float]:
    """(mean, max) of the per-pixel Euclidean displacement magnitude."""
    _config("f", f, FlowField)
    mag = np.hypot(f.u, f.v)
    return float(mag.mean()), float(mag.max())


def save_flow(f: FlowField, path: str | Path) -> None:
    """Write ``f`` to ``path`` in the VFLO container (components stored as f32).

    A component with a value that f32 cannot hold raises DomainError, naming
    it, before the file is created: ``load_flow`` would refuse its infinity.
    """
    _config("f", f, FlowField)
    w, h = f.dims
    with np.errstate(over="ignore"):  # an overflow is refused just below
        stored = {"u": f.u.astype("<f4"), "v": f.v.astype("<f4")}
    for name, values in stored.items():
        if not _all_finite(values):
            raise DomainError(f"flow {name} holds values beyond the float32 range of the VFLO file")
    _write_container(path, FLOW_MAGIC, {"dims": [w, h]}, *stored.values())


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
