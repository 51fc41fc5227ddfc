"""Command-line pipeline: subcommands wiring files to the library.

Exit codes: 0 on success, 1 on runtime or data errors, 2 on usage errors.
Standard output carries exactly one canonical JSON object (sorted keys,
shortest round-trip floats); diagnostics go to standard error.  Each output
is written to a temporary file beside its target, and the targets are
replaced only after the command's last output is written.  A failing run
removes its temporary files, so it leaves no partial file behind and every
file that was already at a target as it was.  A target that is an existing
directory, or that names the same file as another target, is refused before
any output is written.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import fields
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .errors import IsosliceError, ParameterError
from .flow import HsParams, estimate_flow, flow_magnitude_stats, save_flow
from .impute import ImputeConfig, impute_volume
from .losses import LossWeights, adv_loss, global_disc_loss, loss_report, multitask_loss, rec_loss, tp_smooth_loss
from .metrics import evaluate
from .phantom import moving_disk_phantom
from .volume import (
    Axis,
    LabelVolume,
    Volume,
    _check_kind,
    _volume_planes,
    decimate,
    export_pgm,
    extract_slice,
    load_volume,
    pgm_window,
    save_volume,
)


def canonical_json(obj) -> str:
    """Byte-stable JSON: sorted keys, no whitespace, shortest float repr."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _int_at_least(minimum: int):
    """An argparse type for integers no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from exc
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{text!r} must be at least {minimum}")
        return value

    return parse


def _auto_or(parse_int):
    """An argparse type for the word "auto" or an integer that ``parse_int`` accepts."""

    def parse(text: str) -> int | str:
        return "auto" if text == "auto" else parse_int(text)

    return parse


def _size(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"size must be X,Y,Z, got {text!r}")
    try:
        x, y, z = (int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"size must be three integers, got {text!r}") from exc
    if min(x, y, z) < 16:
        raise argparse.ArgumentTypeError("each phantom extent must be at least 16")
    return x, y, z


def _window(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"window must be LO,HI, got {text!r}")
    try:
        lo, hi = (float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"window must be two numbers, got {text!r}") from exc
    return lo, hi


def _load(path: str, kind: type[Volume] | type[LabelVolume]):
    """The volume at ``path``; ParameterError unless it is a ``kind``."""
    v = load_volume(path)
    _check_kind(path, kind, type(v))
    return v


def _load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (ValueError, RecursionError) as exc:
        raise ParameterError(f"{path}: invalid JSON: {exc}") from exc


def _hs_from_args(args: argparse.Namespace) -> HsParams:
    return HsParams(**{f.name: getattr(args, f.name) for f in fields(HsParams)})


def _add_hs_flags(parser: argparse.ArgumentParser) -> None:
    hs = HsParams()
    parser.add_argument("--alpha", type=float, default=hs.alpha, help="smoothness weight")
    parser.add_argument(
        "--iterations",
        type=_int_at_least(1),
        default=hs.iterations,
        help="Jacobi sweeps per warp, each warp followed by a 5x5 median filter (default: %(default)s)",
    )
    parser.add_argument(
        "--pyramid-levels",
        type=_auto_or(_int_at_least(1)),
        default=hs.pyramid_levels,
        help="pyramid depth, or 'auto' for max(1, bit_length(min(W, H)) - 3) (default: %(default)s)",
    )
    parser.add_argument("--warps-per-level", type=_int_at_least(1), default=hs.warps_per_level)


def cmd_decimate(args: argparse.Namespace, claim: Callable[[str], Path]) -> dict:
    vol = load_volume(args.input)
    kept = decimate(vol, args.stride)
    save_volume(kept, claim(args.out))
    z_in, z_out = vol.dims[2], kept.dims[2]
    return {"kept": z_out, "removed": z_in - z_out}


def cmd_impute(args: argparse.Namespace, claim: Callable[[str], Path]) -> dict:
    vol = _load(args.input, Volume)
    labels = _load(args.labels, LabelVolume) if args.labels else None
    cfg = ImputeConfig(n_slices=args.n, method=args.method, hs=_hs_from_args(args))
    with warnings.catch_warnings(record=True) as notes:
        warnings.simplefilter("always", UserWarning)
        out_vol, out_labels = impute_volume(vol, labels, cfg)
    save_volume(out_vol, claim(args.out))
    if out_labels is not None:
        save_volume(out_labels, claim(args.out_labels))
    for note in notes:
        print(f"note: {note.message}", file=sys.stderr)
    z_in, z_out = vol.dims[2], out_vol.dims[2]
    return {
        "n_per_gap": (z_out - z_in) // (z_in - 1),
        "z_in": z_in,
        "z_out": z_out,
        "sz_out": out_vol.spacing.sz,
    }


def cmd_flow(args: argparse.Namespace, claim: Callable[[str], Path]) -> dict:
    slices = []
    for path in (args.a, args.b):
        vol = _load(path, Volume)
        if vol.dims[2] != 1:
            raise ParameterError(f"{path}: flow inputs must be single-slice volumes (Z=1)")
        slices.append(extract_slice(vol, Axis.AXIAL, 0))
    field = estimate_flow(slices[0], slices[1], _hs_from_args(args))
    save_flow(field, claim(args.out))
    mean, peak = flow_magnitude_stats(field)
    return {
        "max": peak,
        "mean": mean,
        "median_u": float(np.median(field.u)),
        "median_v": float(np.median(field.v)),
    }


def cmd_metrics(args: argparse.Namespace, claim: Callable[[str], Path]) -> dict:
    gt = _load(args.gt, LabelVolume)
    pred = _load(args.pred, LabelVolume)
    report = evaluate(gt, pred).as_dict()
    with open(claim(args.out_json), "w", encoding="utf-8") as f:
        f.write(canonical_json(report))
        f.write("\n")
    return report


def cmd_loss(args: argparse.Namespace, claim: Callable[[str], Path]) -> dict:
    weights = LossWeights()
    if args.weights_json:
        overrides = _load_json_file(args.weights_json)
        if not isinstance(overrides, dict):
            raise ParameterError(f"{args.weights_json}: weights JSON must be an object")
        weights = LossWeights.from_dict(overrides)

    parts: dict[str, float] = {}
    extras: dict[str, float] = {}
    held: dict[str, Volume] = {}  # each distinct path is read once

    def volume(path: str) -> Volume:
        if path not in held:
            held[path] = _load(path, Volume)
        return held[path]

    # The smoothness term runs on a side thread beside the reconstruction
    # term.  Its result (or error) is taken first, so the parts keep their
    # order and, should both terms fail, its error is the one reported.
    smooth = l_rec = None
    with ThreadPoolExecutor(1) as side:
        if args.volume:
            smooth = side.submit(tp_smooth_loss, volume(args.volume))
        try:
            if args.rec:
                synth, second = volume(args.rec[0]), args.rec[1]
                # The second volume is read one z-plane at a time, unless it is already held.
                if second in held:
                    real = nullcontext((held[second].dims, held[second].data))
                else:
                    real = _volume_planes(second)
                with real as (dims, planes):
                    if synth.dims != dims:
                        raise ParameterError("the two --rec volumes must share dims")
                    l_rec = rec_loss(zip(synth.data, planes))
        finally:
            if smooth is not None:
                parts["l_tp_smooth"] = smooth.result()
    if l_rec is not None:
        parts["l_rec"] = l_rec
    if args.series_json:
        series = _load_json_file(args.series_json)
        if not isinstance(series, dict):
            raise ParameterError(f"{args.series_json}: series JSON must be an object")
        if {"ld_fake", "gd_fake"} <= set(series):
            parts["l_adv"] = adv_loss(series["ld_fake"], series["gd_fake"])
        if {"gd_fake", "gd_real"} <= set(series):
            extras["l_global"] = global_disc_loss(series["gd_fake"], series["gd_real"])
        mul_keys = ("ld_fake", "ld_real", "oc_fake", "oc_real", "y_fake", "y_real")
        if set(mul_keys) <= set(series):
            extras["l_mul"] = multitask_loss(*(series[k] for k in mul_keys))
    if not parts and not extras:
        raise ParameterError("no loss inputs given; pass --volume, --rec, or --series-json")

    return {**loss_report(parts, weights), **extras}


def cmd_phantom(args: argparse.Namespace, claim: Callable[[str], Path]) -> dict:
    made = moving_disk_phantom(
        dims=args.size, radius=args.radius, step=(args.step, 0.0), seed=args.seed
    )
    save_volume(made.volume, claim(args.out))
    save_volume(made.labels, claim(args.out_labels))
    return {
        "dims": list(args.size),
        "radius": made.radius,
        "seed": args.seed,
        "start": [made.start[0], made.start[1]],
        "step": [made.step[0], made.step[1]],
    }


def cmd_export(args: argparse.Namespace, claim: Callable[[str], Path]) -> dict:
    plane = extract_slice(load_volume(args.input), Axis(args.axis), args.index)
    lo, hi = pgm_window(plane, *(args.window or ()))  # checked before --out is claimed
    export_pgm(plane, claim(args.out), lo, hi)
    w, h = plane.dims
    return {"height": h, "hi": hi, "lo": lo, "width": w}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; ``main`` parses each argv with it."""
    parser = argparse.ArgumentParser(
        prog="isoslice",
        description="Slice imputation, flow estimation, and segmentation scoring over VVOL volumes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decimate", help="keep every stride-th axial slice")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stride", type=_int_at_least(2), default=4)
    p.set_defaults(handler=cmd_decimate)

    p = sub.add_parser("impute", help="insert synthetic slices between consecutive slices")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--labels")
    p.add_argument("--out", required=True)
    p.add_argument("--out-labels")
    p.add_argument("--n", type=_auto_or(_int_at_least(0)), default="auto")
    p.add_argument("--method", choices=("flow", "linear"), default="flow")
    _add_hs_flags(p)
    p.set_defaults(handler=cmd_impute)

    p = sub.add_parser("flow", help="estimate the flow between two single-slice volumes")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out", required=True)
    _add_hs_flags(p)
    p.set_defaults(handler=cmd_flow)

    p = sub.add_parser("metrics", help="score a predicted label volume against ground truth")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--out-json", required=True)
    p.set_defaults(handler=cmd_metrics)

    p = sub.add_parser("loss", help="evaluate loss terms from files")
    p.add_argument("--volume", help="scalar volume for the through-plane smoothness term")
    p.add_argument("--rec", nargs=2, metavar=("SYNTH", "REAL"), help="volume pair for the reconstruction term")
    p.add_argument("--series-json", help="JSON object of probability/label series")
    p.add_argument("--weights-json", help="JSON object overriding default lambda weights")
    p.set_defaults(handler=cmd_loss)

    p = sub.add_parser("phantom", help="generate a synthetic ground-truth volume")
    p.add_argument("--out", required=True)
    p.add_argument("--out-labels", required=True)
    p.add_argument("--size", type=_size, default=(64, 64, 33))
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--radius", type=float, default=8.0)
    p.add_argument("--step", type=float, default=0.75, help="centre displacement per slice, px along x")
    p.set_defaults(handler=cmd_phantom)

    p = sub.add_parser("export", help="write one slice as a binary PGM")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--axis", choices=("axial", "sagittal", "coronal"), required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--window", type=_window, help="LO,HI intensity window (default: slice min,max; min,min+1 if constant)"
    )
    p.set_defaults(handler=cmd_export)

    return parser


def _claimer(claimed: list[tuple[Path, Path]]) -> Callable[[str], Path]:
    """The ``claim`` a handler calls for each output path: it returns a new temporary path to write instead.

    The temporary file sits in the target's directory, so moving it onto the
    target with ``os.replace`` stays on one file system.  A target that is an
    existing directory, or the same directory entry as an earlier target, is
    refused here, before any target is replaced.
    """

    def claim(path: str) -> Path:
        target = Path(path)
        if os.path.isdir(target) and not os.path.islink(target):  # os.replace would fail on it
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        for _, earlier in claimed:
            if earlier.name == target.name and earlier.parent.resolve() == target.parent.resolve():
                raise ParameterError(f"output {path} is the same file as output {earlier}")
        # A file name holds at most 255 bytes: the 18 this adds come off the target's name.
        name = os.fsencode(target.name)[: 255 - 18]
        temporary = target.parent / os.fsdecode(b".%s.%s.tmp" % (name, os.urandom(6).hex().encode()))
        claimed.append((temporary, target))
        return temporary

    return claim


def _cleanup(claimed: list[tuple[Path, Path]]) -> None:
    """Remove the temporary files still left; targets are never touched."""
    for temporary, _ in claimed:
        try:
            temporary.unlink(missing_ok=True)
        except OSError:
            pass


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "impute" and bool(args.labels) != bool(args.out_labels):
        parser.error("--labels and --out-labels go together")
    claimed: list[tuple[Path, Path]] = []
    try:
        payload = args.handler(args, _claimer(claimed))
        for temporary, target in claimed:
            os.replace(temporary, target)
    except (IsosliceError, OSError) as exc:
        # An error writing or moving a temporary file names its target, the path the user gave.
        targets = {str(temporary): str(target) for temporary, target in claimed}
        if isinstance(exc, OSError) and exc.filename in targets:
            exc = OSError(exc.errno, exc.strerror, targets[exc.filename])
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        _cleanup(claimed)
    print(canonical_json(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
