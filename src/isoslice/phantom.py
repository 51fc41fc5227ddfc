"""Synthetic volumes with analytically known content, for tests and demos."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ParameterError
from .volume import MAX_OUTPUT_VOXELS, LabelVolume, Spacing, Volume, _adopted, _as_float, _is_int


class MovingDiskPhantom(NamedTuple):
    """A generated phantom plus the line its disk centre follows."""

    volume: Volume
    labels: LabelVolume
    start: tuple[float, float]
    step: tuple[float, float]
    radius: float


def moving_disk_phantom(
    dims: tuple[int, int, int] = (64, 64, 33),
    radius: float = 8.0,
    step: tuple[float, float] = (0.75, 0.0),
    seed: int = 0,
) -> MovingDiskPhantom:
    """A smooth disk whose centre translates linearly across z.

    The intensity profile is the compact bump ``(1 - (d/r)^2)^2`` inside the
    radius and 0 outside; the label marks the analytic support ``d < r``.
    ``seed`` picks the start position inside a box that keeps the whole path
    (plus a 2 px margin) in bounds, so equal seeds give identical volumes.
    Voxels are unit-spaced.  ``dims`` other than three integers of at least
    16, a non-finite step or more than ``MAX_OUTPUT_VOXELS`` voxels is
    refused.
    """
    if not (isinstance(dims, (tuple, list)) and len(dims) == 3 and all(_is_int(d) and d >= 16 for d in dims)):
        raise ParameterError(f"phantom dims={dims!r} must be three integers of at least 16")
    x, y, z = map(int, dims)
    if x * y * z > MAX_OUTPUT_VOXELS:
        raise ParameterError(f"phantom dims {dims} exceed the limit of {MAX_OUTPUT_VOXELS} voxels")
    if not 2.0 <= _as_float(radius) < np.inf:
        raise ParameterError(f"radius={radius!r} must be a finite number of at least 2 px")
    pair = isinstance(step, (tuple, list)) and len(step) == 2
    if not (pair and all(np.isfinite(_as_float(s)) for s in step)):
        raise ParameterError(f"step={step!r} must be a pair of finite numbers")
    if not _is_int(seed) or seed < 0:
        raise ParameterError(f"seed={seed!r} must be a non-negative integer")
    margin = 2.0
    rng = np.random.default_rng(seed)
    start = []
    for extent, travel in ((x, step[0] * (z - 1)), (y, step[1] * (z - 1))):
        lo = margin + radius - min(travel, 0.0)
        hi = extent - 1 - margin - radius - max(travel, 0.0)
        if hi < lo:
            raise ParameterError(
                f"disk of radius {radius} travelling {travel:+.1f} px does not fit in extent {extent}"
            )
        start.append(float(rng.uniform(lo, hi)))

    xs = np.arange(x, dtype=np.float64)[None, :]
    ys = np.arange(y, dtype=np.float64)[:, None]
    img = np.zeros((z, y, x), dtype=np.float32)
    lab = np.zeros((z, y, x), dtype=np.uint8)
    r2 = radius * radius
    for k in range(z):
        cx = start[0] + k * step[0]
        cy = start[1] + k * step[1]
        d2 = (xs - cx) ** 2 + (ys - cy) ** 2
        q = np.maximum(0.0, 1.0 - d2 / r2)
        img[k] = (q * q).astype(np.float32)
        lab[k] = d2 < r2

    spacing = Spacing(1.0, 1.0, 1.0)
    return MovingDiskPhantom(
        _adopted(Volume, data=img, spacing=spacing),
        _adopted(LabelVolume, data=lab, spacing=spacing, classes=2),
        (start[0], start[1]),
        step,
        radius,
    )
