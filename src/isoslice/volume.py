"""Scalar and label volumes on a regular 3D grid with physical spacing.

Conventions used by every module in this package:

* Public volume dims are ``(X, Y, Z)``; z is the through-plane stacking
  axis.  In memory voxels live in a numpy array indexed ``[z, y, x]``, so
  the flattened payload is x-fastest, matching the on-disk layout.
* 2D slices are numpy arrays indexed ``[row, col]``.  A slice's public
  dims are ``(W, H)`` = (columns, rows).

The on-disk container ("VVOL") is a header plus a raw payload::

    b"VVOL\\n"
    one JSON line: {"dims":[X,Y,Z],"spacing":[sx,sy,sz],"dtype":...}
                   (label volumes additionally carry "classes")
    raw little-endian voxels, x-fastest, exactly X*Y*Z elements

``dtype`` is ``"f32"`` for scalar volumes and ``"u8"`` / ``"u16"`` for
label volumes.  Saving the same object twice produces identical bytes.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .errors import (
    BoundsError,
    DataValidationError,
    FileFormatError,
    ParameterError,
    TruncatedPayloadError,
)

MAGIC = b"VVOL\n"

_DTYPE_TAGS = {"f32": np.dtype("<f4"), "u8": np.dtype("u1"), "u16": np.dtype("<u2")}
_MAX_HEADER_BYTES = 1 << 20


@dataclass(frozen=True)
class Spacing:
    """Physical voxel pitch in mm along x, y and z (z = stacking axis)."""

    sx: float
    sy: float
    sz: float

    def __post_init__(self) -> None:
        for name in ("sx", "sy", "sz"):
            value = float(getattr(self, name))
            if not (np.isfinite(value) and value > 0.0):
                raise ParameterError(f"spacing {name}={value!r} must be positive and finite")
            object.__setattr__(self, name, value)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.sx, self.sy, self.sz)


class Axis(enum.Enum):
    """Slicing axes: axial stacks along z, sagittal along x, coronal along y."""

    AXIAL = "axial"
    SAGITTAL = "sagittal"
    CORONAL = "coronal"


@dataclass(frozen=True, eq=False)
class Slice2D:
    """One 2D slice; ``data`` is float64 indexed ``[row, col]``."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.data, dtype=np.float64, copy=True, order="C")
        if arr.ndim != 2 or arr.size == 0:
            raise ParameterError(f"slice data must be a non-empty 2D array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DataValidationError("slice contains non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def dims(self) -> tuple[int, int]:
        """(W, H) = (columns, rows)."""
        return (self.data.shape[1], self.data.shape[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Slice2D):
            return NotImplemented
        return self.data.shape == other.data.shape and bool(np.array_equal(self.data, other.data))


@dataclass(frozen=True, eq=False)
class Volume:
    """Scalar volume; ``data`` is float32 indexed ``[z, y, x]``."""

    data: np.ndarray
    spacing: Spacing

    def __post_init__(self) -> None:
        arr = np.array(self.data, dtype=np.float32, copy=True, order="C")
        if arr.ndim != 3 or arr.size == 0:
            raise ParameterError(f"volume data must be a non-empty 3D array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DataValidationError("volume contains non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def dims(self) -> tuple[int, int, int]:
        """(X, Y, Z)."""
        z, y, x = self.data.shape
        return (x, y, z)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Volume):
            return NotImplemented
        return (
            self.spacing == other.spacing
            and self.data.shape == other.data.shape
            and bool(np.array_equal(self.data, other.data))
        )


@dataclass(frozen=True, eq=False)
class LabelVolume:
    """Integer class-id volume sharing the scalar volume's geometry.

    Class ids are drawn from the contiguous set ``{0 .. classes-1}`` with 0
    meaning background.  The stored dtype (uint8 or uint16) is preserved and
    decides the on-disk encoding.
    """

    data: np.ndarray
    spacing: Spacing
    classes: int | None = None

    def __post_init__(self) -> None:
        src = np.asarray(self.data)
        if src.ndim != 3 or src.size == 0:
            raise ParameterError(f"label data must be a non-empty 3D array, got shape {src.shape}")
        if not np.issubdtype(src.dtype, np.integer):
            raise DataValidationError(f"label data must be integer, got dtype {src.dtype}")
        if src.size and int(src.min()) < 0:
            raise DataValidationError("label data contains negative class ids")
        top = int(src.max())
        classes = self.classes if self.classes is not None else top + 1
        if classes < 1:
            raise ParameterError(f"classes={classes} must be at least 1")
        if top >= classes:
            raise DataValidationError(f"class id {top} outside declared range 0..{classes - 1}")
        if src.dtype in (np.dtype("u1"), np.dtype("u2"), np.dtype("<u2")):
            dtype = np.dtype("u1") if src.dtype.itemsize == 1 else np.dtype("<u2")
        elif classes <= 256:
            dtype = np.dtype("u1")
        elif classes <= 65536:
            dtype = np.dtype("<u2")
        else:
            raise ParameterError(f"classes={classes} exceeds the 16-bit encodable range")
        if classes > (1 << (8 * dtype.itemsize)):
            raise ParameterError(f"classes={classes} does not fit the {dtype} payload")
        arr = np.array(src, dtype=dtype, copy=True, order="C")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "classes", classes)

    @property
    def dims(self) -> tuple[int, int, int]:
        """(X, Y, Z)."""
        z, y, x = self.data.shape
        return (x, y, z)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabelVolume):
            return NotImplemented
        return (
            self.spacing == other.spacing
            and self.classes == other.classes
            and self.data.shape == other.data.shape
            and self.data.dtype == other.data.dtype
            and bool(np.array_equal(self.data, other.data))
        )


AnyVolume = Union[Volume, LabelVolume]


def _dtype_tag(v: AnyVolume) -> str:
    if isinstance(v, Volume):
        return "f32"
    return "u8" if v.data.dtype.itemsize == 1 else "u16"


def save_volume(v: AnyVolume, path: str | Path) -> None:
    """Write ``v`` to ``path`` in the VVOL container, bit-reproducibly.

    The header JSON keeps a fixed key order (dims, spacing, dtype, classes)
    so identical objects always serialize to identical bytes.
    """
    x, y, z = v.dims
    header: dict = {
        "dims": [x, y, z],
        "spacing": [v.spacing.sx, v.spacing.sy, v.spacing.sz],
        "dtype": _dtype_tag(v),
    }
    if isinstance(v, LabelVolume):
        header["classes"] = v.classes
    payload = np.ascontiguousarray(v.data, dtype=_DTYPE_TAGS[header["dtype"]]).tobytes()
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(json.dumps(header, separators=(",", ":")).encode("utf-8"))
        f.write(b"\n")
        f.write(payload)


def _parse_header(raw: bytes) -> dict:
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"header is not a valid JSON line: {exc}") from exc
    if not isinstance(header, dict):
        raise FileFormatError("header must be a JSON object")
    return header


def _is_count(value) -> bool:
    """A header integer >= 1; JSON ``true``/``false`` are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def load_volume(path: str | Path) -> AnyVolume:
    """Read a VVOL file; dtype "f32" yields a Volume, "u8"/"u16" a LabelVolume.

    Raises:
        FileFormatError: bad magic, malformed header, or unexpected keys.
        TruncatedPayloadError: payload size disagrees with the header dims.
        DataValidationError: non-finite intensities or out-of-range class ids.
    """
    with open(path, "rb") as f:
        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            raise FileFormatError(f"{path}: not a VVOL file (magic {magic!r})")
        raw = f.readline(_MAX_HEADER_BYTES)
        if not raw.endswith(b"\n"):
            raise FileFormatError(f"{path}: header line missing terminator")
        header = _parse_header(raw[:-1])

        dtype_tag = header.get("dtype")
        if dtype_tag not in _DTYPE_TAGS:
            raise FileFormatError(f"{path}: unknown dtype tag {dtype_tag!r}")
        expected_keys = {"dims", "spacing", "dtype"}
        if dtype_tag != "f32":
            expected_keys.add("classes")
        if set(header) != expected_keys:
            raise FileFormatError(
                f"{path}: header keys {sorted(header)} differ from {sorted(expected_keys)}"
            )

        dims = header["dims"]
        if (
            not isinstance(dims, list)
            or len(dims) != 3
            or not all(_is_count(d) for d in dims)
        ):
            raise FileFormatError(f"{path}: dims must be three positive integers, got {dims!r}")
        spacing_raw = header["spacing"]
        if not isinstance(spacing_raw, list) or len(spacing_raw) != 3:
            raise FileFormatError(f"{path}: spacing must be three numbers, got {spacing_raw!r}")
        try:
            spacing = Spacing(*(float(s) for s in spacing_raw))
        except (TypeError, ValueError, ParameterError) as exc:
            raise FileFormatError(f"{path}: bad spacing: {exc}") from exc

        x, y, z = dims
        dtype = _DTYPE_TAGS[dtype_tag]
        n_bytes = x * y * z * dtype.itemsize
        payload = f.read(n_bytes + 1)
        if len(payload) != n_bytes:
            raise TruncatedPayloadError(
                f"{path}: expected {n_bytes} payload bytes for dims {dims}, found "
                f"{'more' if len(payload) > n_bytes else str(len(payload))}"
            )

    arr = np.frombuffer(payload, dtype=dtype).reshape(z, y, x)
    if dtype_tag == "f32":
        if not np.all(np.isfinite(arr)):
            raise DataValidationError(f"{path}: payload contains non-finite values")
        return Volume(arr, spacing)
    classes = header["classes"]
    if not _is_count(classes):
        raise FileFormatError(f"{path}: classes must be a positive integer, got {classes!r}")
    return LabelVolume(arr, spacing, classes)


_SLICE_AXIS = {Axis.AXIAL: 0, Axis.SAGITTAL: 2, Axis.CORONAL: 1}


def extract_slice(v: AnyVolume, axis: Axis, index: int) -> Slice2D:
    """Copy one slice out of ``v`` along ``axis``.

    Slice dims follow a fixed order: axial gives (X, Y), sagittal (Y, Z),
    coronal (X, Z).  Label ids are cast to float for display / export use.
    """
    np_axis = _SLICE_AXIS[axis]
    extent = v.data.shape[np_axis]
    if not 0 <= index < extent:
        raise BoundsError(f"{axis.value} index {index} outside 0..{extent - 1}")
    if axis is Axis.AXIAL:
        plane = v.data[index]
    elif axis is Axis.SAGITTAL:
        plane = v.data[:, :, index]
    else:
        plane = v.data[:, index, :]
    return Slice2D(plane)


def decimate(v: AnyVolume, stride: int = 4) -> AnyVolume:
    """Keep only axial slices whose index is a multiple of ``stride``.

    The through-plane spacing grows by the same factor, which is how a dense
    volume is made anisotropic for round-trip experiments.
    """
    if not isinstance(stride, (int, np.integer)) or stride < 2:
        raise ParameterError(f"stride must be an integer >= 2, got {stride!r}")
    kept = v.data[::stride]
    spacing = Spacing(v.spacing.sx, v.spacing.sy, v.spacing.sz * stride)
    if isinstance(v, LabelVolume):
        return LabelVolume(kept, spacing, v.classes)
    return Volume(kept, spacing)


def export_pgm(s: Slice2D, path: str | Path, lo: float | None = None, hi: float | None = None) -> None:
    """Write ``s`` as a binary PGM (P5, maxval 255).

    Intensities are mapped affinely from ``[lo, hi]`` onto 0..255, clamped,
    and rounded half away from zero.  Omitted bounds default to the slice
    min / max.
    """
    if lo is None:
        lo = float(s.data.min())
    if hi is None:
        hi = float(s.data.max())
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ParameterError(f"window lo={lo!r} must be strictly below hi={hi!r}")
    w, h = s.dims
    norm = np.clip((s.data - lo) / (hi - lo), 0.0, 1.0)
    pixels = np.floor(norm * 255.0 + 0.5).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(pixels.tobytes())
