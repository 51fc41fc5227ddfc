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
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from numbers import Real
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Union

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
            value = _as_float(getattr(self, name))
            if not (np.isfinite(value) and value > 0.0):
                raise ParameterError(f"spacing {name}={getattr(self, name)!r} must be positive and finite")
            object.__setattr__(self, name, value)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.sx, self.sy, self.sz)


class Axis(enum.Enum):
    """Slicing axes: axial stacks along z, sagittal along x, coronal along y."""

    AXIAL = "axial"
    SAGITTAL = "sagittal"
    CORONAL = "coronal"


def _is_int(value) -> bool:
    """A Python or numpy integer; ``True`` and ``False`` are not integers here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A real number (Python or numpy); ``True`` and ``False`` are not numbers here."""
    return isinstance(value, Real) and not isinstance(value, bool)


def _as_float(value) -> float:
    """A real number (see ``_is_number``) as a float, infinite past the float64 range; anything else NaN."""
    if not _is_number(value):
        return np.nan
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float64 range
        return np.inf if value > 0 else -np.inf


def _usable_cpus() -> int:
    """CPUs this process may run on (all of them where affinity is unknown).

    The worker-count rule of every thread pool in the package.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _bytes_backed(data, dtype) -> bool:
    """``data`` is an aligned, C-ordered ``dtype`` array whose memory belongs to a ``bytes`` object."""
    if not (type(data) is np.ndarray and data.dtype == dtype and data.flags.c_contiguous and data.flags.aligned):
        return False
    base = data
    while isinstance(base, np.ndarray):
        base = base.base
    return isinstance(base, bytes)


def _all_finite(arr: np.ndarray) -> bool:
    """Whether a real array holds no NaN or infinity.

    ``min`` and ``max`` propagate NaN and +-inf, so checking the two
    extremes checks every element without a full-size boolean temporary.
    """
    return arr.dtype.kind != "f" or arr.size == 0 or bool(np.isfinite(arr.min()) and np.isfinite(arr.max()))


def _frozen(data, dtype, ndim: int, what: str) -> np.ndarray:
    """A read-only, C-ordered ``dtype`` copy of ``data``, or a new view of it if it is bytes-backed.

    An array whose memory belongs to an immutable ``bytes`` object (as
    ``load_volume``'s payload does) is adopted without a copy: numpy refuses
    to make it writeable, so no one can change its values, and the result is
    a new array object, so reshaping the caller's object leaves it as it is.
    Every other input is copied.  Raises ParameterError unless the result is a non-empty
    ``ndim``-D array, and DataValidationError if a float result holds
    non-finite values (values too large for ``dtype`` become infinite in the
    copy and are refused too).
    """
    if _bytes_backed(data, dtype):
        arr = data.view()
    else:
        with np.errstate(over="ignore"):
            arr = np.array(data, dtype=dtype, copy=True, order="C")
    if arr.ndim != ndim or arr.size == 0:
        raise ParameterError(f"{what} must be a non-empty {ndim}D array, got shape {arr.shape}")
    if not _all_finite(arr):
        raise DataValidationError(f"{what} contains non-finite values")
    arr.setflags(write=False)
    return arr


def _adopted(cls: type, **values):
    """A ``cls`` holding arrays this library has just built, without a copy or a second check.

    The one adoption path for library-built values (``impute_volume``'s
    outputs, ``moving_disk_phantom``'s, ``estimate_flow``'s field).  It skips
    ``__post_init__``: each array is made read-only in place and kept, with
    no finiteness or id-range scan.  So it is only for arrays nothing else
    holds, already C-ordered with the field's dtype and valid by
    construction; caller arrays go through the public constructors, which
    copy.
    """
    obj = object.__new__(cls)
    for name, value in values.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)
    return obj


class _ArrayValue:
    """Base of the frozen dataclasses holding validated arrays; unhashable.

    Equal values have one type, array fields of equal dtype, shape and
    values, and other fields that compare equal.
    """

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        pairs = [(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)]
        return all(
            a.dtype == b.dtype and np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in pairs
        )

    @property
    def dims(self) -> tuple[int, ...]:
        """The first array's shape reversed: (W, H) for a slice or flow, (X, Y, Z) for a volume."""
        return getattr(self, fields(self)[0].name).shape[::-1]


@dataclass(frozen=True, eq=False)
class Slice2D(_ArrayValue):
    """One 2D slice; ``data`` is float64 indexed ``[row, col]``."""

    data: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "data", _frozen(self.data, np.float64, 2, "slice data"))


@dataclass(frozen=True, eq=False)
class Volume(_ArrayValue):
    """Scalar volume; ``data`` is float32 indexed ``[z, y, x]``."""

    data: np.ndarray
    spacing: Spacing

    def __post_init__(self) -> None:
        object.__setattr__(self, "data", _frozen(self.data, np.float32, 3, "volume data"))


@dataclass(frozen=True, eq=False)
class LabelVolume(_ArrayValue):
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
        if int(src.min()) < 0:
            raise DataValidationError("label data contains negative class ids")
        top = int(src.max())
        classes = self.classes if self.classes is not None else top + 1
        if not _is_int(classes) or classes < 1:
            raise ParameterError(f"classes={classes!r} must be an integer of at least 1")
        if top >= classes:
            raise DataValidationError(f"class id {top} outside declared range 0..{classes - 1}")
        if src.dtype in (np.dtype("u1"), np.dtype("<u2")):
            dtype = src.dtype
        else:
            dtype = np.dtype("u1") if classes <= 256 else np.dtype("<u2")
        if classes > 1 << 8 * dtype.itemsize:
            raise ParameterError(f"classes={classes} does not fit a {8 * dtype.itemsize}-bit payload")
        object.__setattr__(self, "data", _frozen(src, dtype, 3, "label data"))
        object.__setattr__(self, "classes", int(classes))


AnyVolume = Union[Volume, LabelVolume]


def _header_dims(header: dict, n: int) -> list[int]:
    """The header's ``dims``: ``n`` integers in 1..2**31-1, or FileFormatError."""
    dims = header["dims"]
    listed = isinstance(dims, list) and len(dims) == n
    if not (listed and all(_is_int(d) and 1 <= d < 1 << 31 for d in dims)):
        raise FileFormatError(f"dims must be {n} integers in 1..2**31-1, got {dims!r}")
    return dims


def _write_container(path: str | Path, magic: bytes, header: dict, *payload: np.ndarray) -> None:
    """Write ``magic``, ``header`` as one compact JSON line, then the payload arrays' memory.

    Each array must be C-ordered; its bytes are written from its own memory, without a copy.
    """
    with open(path, "wb") as f:
        f.write(magic)
        f.write(json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n")
        f.writelines(memoryview(part).cast("B") for part in payload)


def _read_header(
    f: BinaryIO, path: str | Path, magic: bytes, payload_size: Callable[[dict], int]
) -> tuple[dict, int]:
    """(header, payload size) of the container open in ``f``, which is left at the payload.

    ``payload_size`` checks the decoded header object and returns the payload
    size it promises, raising FileFormatError otherwise.  That size is checked
    against the file's size before anything is read, so memory follows the
    file, never the header.
    """
    found = f.read(len(magic))
    if found != magic:
        raise FileFormatError(f"{path}: not a {magic[:-1].decode()} file (magic {found!r})")
    raw = f.readline(_MAX_HEADER_BYTES)
    if not raw.endswith(b"\n"):
        raise FileFormatError(f"{path}: header line missing terminator")
    try:
        header = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise FileFormatError(f"{path}: header is not a valid JSON line: {exc}") from exc
    if not isinstance(header, dict):
        raise FileFormatError(f"{path}: header must be a JSON object")
    try:
        n_bytes = payload_size(header)
    except FileFormatError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    held = os.fstat(f.fileno()).st_size - f.tell()
    if held != n_bytes:
        raise TruncatedPayloadError(f"{path}: header promises {n_bytes} payload bytes, file holds {held}")
    return header, n_bytes


def _read_exactly(f: BinaryIO, path: str | Path, n_bytes: int) -> bytes:
    """The next ``n_bytes`` of ``f``; TruncatedPayloadError if the file ends first."""
    data = f.read(n_bytes)
    if len(data) != n_bytes:
        raise TruncatedPayloadError(f"{path}: payload ended {n_bytes - len(data)} bytes early")
    return data


def _read_container(
    path: str | Path, magic: bytes, payload_size: Callable[[dict], int]
) -> tuple[dict, bytes]:
    """Read a container written by ``_write_container``; return (header, payload)."""
    with open(path, "rb") as f:
        header, n_bytes = _read_header(f, path, magic, payload_size)
        return header, _read_exactly(f, path, n_bytes)


def save_volume(v: AnyVolume, path: str | Path) -> None:
    """Write ``v`` to ``path`` in the VVOL container, bit-reproducibly.

    The header JSON keeps a fixed key order (dims, spacing, dtype, classes)
    so identical objects always serialize to identical bytes.
    """
    header: dict = {
        "dims": list(v.dims),
        "spacing": list(v.spacing.as_tuple()),
        "dtype": "f32" if isinstance(v, Volume) else f"u{8 * v.data.dtype.itemsize}",
    }
    if isinstance(v, LabelVolume):
        header["classes"] = v.classes
    _write_container(path, MAGIC, header, np.ascontiguousarray(v.data, dtype=_DTYPE_TAGS[header["dtype"]]))


def _volume_payload_size(header: dict) -> int:
    tag = header.get("dtype")
    if not (isinstance(tag, str) and tag in _DTYPE_TAGS):
        raise FileFormatError(f"unknown dtype tag {tag!r}")
    expected_keys = {"dims", "spacing", "dtype"} | ({"classes"} if tag != "f32" else set())
    if set(header) != expected_keys:
        raise FileFormatError(f"header keys {sorted(header)} differ from {sorted(expected_keys)}")
    x, y, z = _header_dims(header, 3)
    spacing = header["spacing"]
    if not (isinstance(spacing, list) and len(spacing) == 3):
        raise FileFormatError(f"spacing must be three JSON numbers, got {spacing!r}")
    try:
        Spacing(*spacing)
    except ParameterError as exc:
        raise FileFormatError(f"bad spacing: {exc}") from exc
    itemsize = _DTYPE_TAGS[tag].itemsize
    if tag != "f32":
        classes, top = header["classes"], 1 << 8 * itemsize
        if not (_is_int(classes) and 1 <= classes <= top):
            raise FileFormatError(f"classes must be an integer in 1..{top} for {tag}, got {classes!r}")
    return x * y * z * itemsize


def load_volume(path: str | Path) -> AnyVolume:
    """Read a VVOL file; dtype "f32" yields a Volume, "u8"/"u16" a LabelVolume.

    Raises:
        FileFormatError: bad magic, malformed header, or unexpected keys.
        TruncatedPayloadError: payload size disagrees with the header dims.
        DataValidationError: non-finite intensities or out-of-range class ids;
            the message names the path.
    """
    header, payload = _read_container(path, MAGIC, _volume_payload_size)
    x, y, z = header["dims"]
    spacing = Spacing(*header["spacing"])
    arr = np.frombuffer(payload, dtype=_DTYPE_TAGS[header["dtype"]]).reshape(z, y, x)
    try:
        if header["dtype"] == "f32":
            return Volume(arr, spacing)
        return LabelVolume(arr, spacing, header["classes"])
    except DataValidationError as exc:
        raise DataValidationError(f"{path}: {exc}") from exc


@contextmanager
def _volume_planes(path: str | Path) -> Iterator[tuple[tuple[int, int, int], Iterator[np.ndarray]]]:
    """The scalar volume at ``path`` as its dims and its z-planes, read one at a time.

    On entry the file gets every check ``load_volume`` makes before it reads
    the payload, and ParameterError if it holds a LabelVolume.  The planes
    are read-only (Y, X) float32 arrays, read only as the iterator is
    advanced; a plane holding a non-finite value raises ``load_volume``'s
    DataValidationError.  The file is closed when the block exits.
    """
    with open(path, "rb") as f:
        header, _ = _read_header(f, path, MAGIC, _volume_payload_size)
        _check_kind(path, Volume, Volume if header["dtype"] == "f32" else LabelVolume)
        x, y, z = header["dims"]

        def planes() -> Iterator[np.ndarray]:
            for _ in range(z):
                plane = np.frombuffer(_read_exactly(f, path, x * y * 4), dtype="<f4").reshape(y, x)
                if not _all_finite(plane):
                    raise DataValidationError(f"{path}: volume data contains non-finite values")
                yield plane

        yield (x, y, z), planes()


def _check_kind(path: str | Path, kind: type, found: type) -> None:
    """ParameterError unless ``found``, the type the file at ``path`` holds, is ``kind``."""
    if found is not kind:
        raise ParameterError(f"{path}: expected a {kind.__name__}, found a {found.__name__}")


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
    return Slice2D(np.moveaxis(v.data, np_axis, 0)[index])


def decimate(v: AnyVolume, stride: int = 4) -> AnyVolume:
    """Keep only axial slices whose index is a multiple of ``stride``.

    The through-plane spacing grows by the same factor, which is how a dense
    volume is made anisotropic for round-trip experiments.  A spacing that
    overflows the float64 range raises ParameterError naming the stride and
    the input spacing.
    """
    if not _is_int(stride) or stride < 2:
        raise ParameterError(f"stride must be an integer >= 2, got {stride!r}")
    sz = v.spacing.sz * _as_float(stride)
    if not np.isfinite(sz):
        raise ParameterError(
            f"stride={stride} times spacing sz={v.spacing.sz!r} gives spacing sz=inf, past the float64 range"
        )
    spacing = Spacing(v.spacing.sx, v.spacing.sy, sz)
    return replace(v, data=v.data[::stride], spacing=spacing)


def pgm_window(s: Slice2D, lo: float | None = None, hi: float | None = None) -> tuple[float, float]:
    """The ``(lo, hi)`` window ``export_pgm`` maps onto 0..255.

    Omitted bounds are the slice min / max, except that a constant slice with
    both omitted gets ``(c, c + 1)``.  Raises ParameterError unless ``lo < hi``
    and both are finite.
    """
    both_omitted = lo is None and hi is None
    lo = float(s.data.min()) if lo is None else lo
    hi = float(s.data.max()) if hi is None else hi
    if both_omitted and hi == lo:
        hi = lo + 1.0
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ParameterError(f"window lo={lo!r} must be strictly below hi={hi!r}")
    return lo, hi


def export_pgm(
    s: Slice2D, path: str | Path, lo: float | None = None, hi: float | None = None
) -> tuple[float, float]:
    """Write ``s`` as a binary PGM (P5, maxval 255); return the ``pgm_window`` used.

    Intensities are mapped affinely from that window onto 0..255, clamped,
    and rounded half away from zero; a bad window is refused before writing.
    """
    lo, hi = pgm_window(s, lo, hi)
    w, h = s.dims
    norm = (np.clip(s.data, lo, hi) - lo) / (hi - lo)  # clip first: a tiny window cannot overflow
    pixels = np.floor(norm * 255.0 + 0.5).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(pixels.tobytes())
    return lo, hi
