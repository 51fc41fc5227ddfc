"""The benchmark's workloads: seeded inputs, the command chain of one job, and
the checks run on every job's outputs.

A workload writes a small pool of inputs at set-up.  A job is one user
command chain on one input; the harness times only the ``isoslice.cli.main``
calls and then hands the captured stdout and the output files to
``Workload.check``, which raises ``CheckFailed`` on any wrong output and
otherwise returns the job's quality numbers.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from isoslice import LabelVolume, Spacing, Volume, decimate, moving_disk_phantom, save_volume

VVOL_DTYPES = {"f32": np.dtype("<f4"), "u8": np.dtype("u1"), "u16": np.dtype("<u2")}


class CheckFailed(Exception):
    """A job's output is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_vvol(path: Path) -> tuple[dict, np.ndarray]:
    """Header and ``[z, y, x]`` payload of a VVOL file, read without the library."""
    raw = path.read_bytes()
    require(raw.startswith(b"VVOL\n"), f"{path.name}: bad magic")
    end = raw.index(b"\n", 5)
    header = json.loads(raw[5:end])
    x, y, z = header["dims"]
    dtype = VVOL_DTYPES[header["dtype"]]
    payload = raw[end + 1 :]
    require(len(payload) == x * y * z * dtype.itemsize, f"{path.name}: payload size disagrees with dims")
    return header, np.frombuffer(payload, dtype=dtype).reshape(z, y, x)


def vvol_slices(path: Path) -> Iterator[np.ndarray]:
    """The ``[y, x]`` slices of a VVOL file one at a time, so a check that
    reads a whole volume holds no more than one slice of it."""
    with open(path, "rb") as f:
        require(f.read(5) == b"VVOL\n", f"{path.name}: bad magic")
        header = json.loads(f.readline())
        x, y, z = header["dims"]
        dtype = VVOL_DTYPES[header["dtype"]]
        for _ in range(z):
            raw = f.read(x * y * dtype.itemsize)
            require(len(raw) == x * y * dtype.itemsize, f"{path.name}: payload shorter than dims")
            yield np.frombuffer(raw, dtype=dtype).reshape(y, x)


def write_vvol_slices(path: Path, header: dict, slices: Iterable[np.ndarray]) -> None:
    """A VVOL file written from its ``[y, x]`` slices in z order."""
    dtype = VVOL_DTYPES[header["dtype"]]
    with open(path, "wb") as f:
        f.write(b"VVOL\n" + json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n")
        for s in slices:
            f.write(np.ascontiguousarray(s, dtype=dtype).tobytes())


def one_json_object(stdout: str) -> dict:
    """The single JSON object the CLI contract puts on stdout."""
    lines = stdout.splitlines()
    require(len(lines) == 1, f"expected one stdout line, got {len(lines)}")
    try:
        payload = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from exc
    require(isinstance(payload, dict), "stdout JSON is not an object")
    return payload


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def confusion(gt: np.ndarray, pred: np.ndarray, classes: int) -> np.ndarray:
    """``[gt class, pred class]`` voxel counts."""
    return np.bincount(
        gt.ravel().astype(np.int64) * classes + pred.ravel(), minlength=classes * classes
    ).reshape(classes, classes)


def mean_dice(both: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean Dice (%) over the foreground classes present in either array of
    a confusion matrix, and the per-class Dice for every class id (NaN where
    absent from both)."""
    inter = np.diag(both).astype(np.float64)
    sizes = both.sum(axis=1) + both.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        per_class = np.where(sizes > 0, 200.0 * inter / sizes, np.nan)
    return float(np.nanmean(per_class[1:])), per_class


# ------------------------------------------------------------------ inputs


def organ_params(
    rng: np.random.Generator,
    dims: tuple[int, int, int],
    organs: int,
    radius: tuple[float, float],
    half_depth: tuple[float, float],
) -> np.ndarray:
    """Random ellipsoid organs as rows of (cx, cy, cz, rx, ry, rz, angle).

    Each column is a Latin hypercube sample of its range, so the organs'
    total size, and with it the work a job does, varies little from seed
    to seed.
    """
    x, y, z = dims
    ranges = [(0.2 * x, 0.8 * x), (0.2 * y, 0.8 * y), (0.0, z - 1.0), radius, radius, half_depth, (0.0, math.pi)]
    strata = (rng.permuted(np.tile(np.arange(organs), (len(ranges), 1)), axis=1) + rng.random((len(ranges), organs))) / organs
    return np.column_stack([lo + (hi - lo) * u for (lo, hi), u in zip(ranges, strata)])


def perturb(rng: np.random.Generator, params: np.ndarray) -> np.ndarray:
    """Shift every organ by a few voxels and dilate or shrink it by up to ~12%."""
    out = params.copy()
    out[:, 0:2] += rng.normal(0.0, 2.0, (len(out), 2))
    out[:, 2] += rng.normal(0.0, 1.0, len(out))
    out[:, 3:6] *= rng.uniform(0.9, 1.12, (len(out), 3))
    return out


def render_organs(params: np.ndarray, dims: tuple[int, int, int]) -> np.ndarray:
    """Label array ``[z, y, x]``; organ i gets class id i + 1, later organs on top."""
    x, y, z = dims
    lab = np.zeros((z, y, x), dtype=np.uint8)
    for cid, (cx, cy, cz, rx, ry, rz, angle) in enumerate(params, start=1):
        reach = max(rx, ry)
        x0, x1 = max(int(cx - reach), 0), min(int(cx + reach) + 2, x)
        y0, y1 = max(int(cy - reach), 0), min(int(cy + reach) + 2, y)
        z0, z1 = max(int(cz - rz), 0), min(int(cz + rz) + 2, z)
        if x0 >= x1 or y0 >= y1 or z0 >= z1:
            continue
        dz = (np.arange(z0, z1) - cz)[:, None, None]
        dy = (np.arange(y0, y1) - cy)[None, :, None]
        dx = (np.arange(x0, x1) - cx)[None, None, :]
        c, s = math.cos(angle), math.sin(angle)
        inside = ((dx * c + dy * s) / rx) ** 2 + ((dy * c - dx * s) / ry) ** 2 + (dz / rz) ** 2 < 1.0
        lab[z0:z1, y0:y1, x0:x1][inside] = cid
    return lab


def intensities(labels: np.ndarray, lut: np.ndarray) -> np.ndarray:
    """A scalar slice or volume matching ``labels``: one level per class plus
    a smooth in-plane ripple, built in float32."""
    y, x = labels.shape[-2:]
    ripple = 0.05 * np.sin(np.arange(x) / 17.0)[None, :] * np.cos(np.arange(y) / 23.0)[:, None]
    img = lut.astype(np.float32)[labels]
    img += ripple.astype(np.float32)
    return img


# --------------------------------------------------------------- workloads


@dataclass
class Input:
    """One pool entry: the files a job reads plus what its checks compare to."""

    key: str
    files: dict[str, Path]
    truth: dict = field(default_factory=dict)


class Workload:
    name = ""
    pool = 1

    def make_inputs(self, rng: np.random.Generator, workdir: Path) -> list[Input]:
        raise NotImplementedError

    def commands(self, inp: Input, outdir: Path) -> list[list[str]]:
        raise NotImplementedError

    def outputs(self, inp: Input, outdir: Path) -> list[Path]:
        raise NotImplementedError

    def output_voxels(self, inp: Input) -> int:
        raise NotImplementedError

    def check(self, inp: Input, stdouts: list[str], outdir: Path) -> dict[str, float]:
        """Raise CheckFailed on a wrong output; return l1_ratio and label_dice."""
        raise NotImplementedError

    def summarize(self, quality: dict[str, dict[str, float]]) -> dict[str, float]:
        """The run's quality numbers from those of each input."""
        return {k: float(np.mean([q[k] for q in quality.values()])) for k in ("l1_ratio", "label_dice")}

    def self_check(self, inputs: list[Input]) -> None:
        """A check made once at set-up; raises CheckFailed."""


class ImputeWorkload(Workload):
    """Decimated volume plus labels in, ``impute`` out.

    The output keeps every stride-th dense slice, so output slice r lines up
    with dense slice r and the slices at r % stride != 0 are the removed
    ones the quality numbers are taken on.
    """

    stride = 4
    method = ""
    n_arg = ""

    def dense_pair(self, rng: np.random.Generator, index: int) -> tuple[Volume, LabelVolume]:
        raise NotImplementedError

    def make_inputs(self, rng, workdir):
        inputs = []
        for i in range(self.pool):
            dense, labels = self.dense_pair(rng, i)
            key = f"{self.name}-{i}"
            files = {name: workdir / f"{key}-{name}.vvol" for name in ("in", "labels", "dense", "dense-labels")}
            save_volume(decimate(dense, self.stride), files["in"])
            save_volume(decimate(labels, self.stride), files["labels"])
            # The dense truth is kept on disk, not in this process, so it
            # adds nothing to the jobs' peak memory.
            save_volume(dense, files["dense"])
            save_volume(labels, files["dense-labels"])
            inputs.append(Input(key, files))
        return inputs

    def _out(self, inp, outdir):
        return outdir / f"{inp.key}-out.vvol", outdir / f"{inp.key}-out-labels.vvol"

    def commands(self, inp, outdir):
        out, out_labels = self._out(inp, outdir)
        return [
            [
                "impute", "--in", str(inp.files["in"]), "--labels", str(inp.files["labels"]),
                "--out", str(out), "--out-labels", str(out_labels),
                "--n", self.n_arg, "--method", self.method,
            ]
        ]

    def outputs(self, inp, outdir):
        return list(self._out(inp, outdir))

    def output_voxels(self, inp):
        return math.prod(self.dims)

    def check(self, inp, stdouts, outdir):
        _, dense = read_vvol(inp.files["dense"])
        truth_head, truth_labels = read_vvol(inp.files["dense-labels"])
        classes = truth_head["classes"]
        z_dense, y, x = dense.shape
        n = self.stride - 1
        report = one_json_object(stdouts[0])
        require(report.get("n_per_gap") == n, f"n_per_gap {report.get('n_per_gap')} != {n}")
        require(report.get("z_out") == z_dense, f"z_out {report.get('z_out')} != {z_dense}")

        out_path, labels_path = self._out(inp, outdir)
        head, out = read_vvol(out_path)
        lhead, out_labels = read_vvol(labels_path)
        for h, tag in ((head, "f32"), (lhead, "u8")):
            require(h["dtype"] == tag, f"dtype {h['dtype']} != {tag}")
            require(h["dims"] == [x, y, z_dense], f"dims {h['dims']} != {[x, y, z_dense]}")
            # Dense spacing is 1 mm, so the input's sz is `stride` mm.
            require(h["spacing"] == [1.0, 1.0, self.stride / (n + 1)], f"spacing {h['spacing']}")
        require(lhead["classes"] == classes, f"classes {lhead['classes']} != {classes}")
        require(int(out_labels.max()) < classes, "label id outside 0..C-1")
        kept = slice(None, None, self.stride)
        require(out[kept].tobytes() == dense[kept].tobytes(), "an original slice changed")
        require(out_labels[kept].tobytes() == truth_labels[kept].tobytes(), "an original label slice changed")

        removed = np.arange(z_dense) % self.stride != 0
        linear = self._linear_blend(dense)
        ref = dense[removed].astype(np.float64)
        l1_out = float(np.abs(out[removed] - ref).mean())
        l1_linear = float(np.abs(linear[removed] - ref).mean())
        dice, _ = mean_dice(confusion(truth_labels[removed], out_labels[removed], classes))
        return {"l1_ratio": l1_out / l1_linear, "label_dice": dice}

    def _linear_blend(self, dense: np.ndarray) -> np.ndarray:
        """The plain blend of the two kept neighbours at every removed slice."""
        out = dense.copy()
        for r in range(dense.shape[0]):
            k, i = divmod(r, self.stride)
            if i:
                t = i / self.stride
                a = dense[k * self.stride].astype(np.float64)
                b = dense[(k + 1) * self.stride].astype(np.float64)
                out[r] = (1.0 - t) * a + t * b
        return out


class DiskFlow(ImputeWorkload):
    """Acceptance gate 8's moving disk: HS flow does nearly all the work.

    Pool entry 0 is gate 8's own phantom (seed 7): its flow/linear L1 ratio
    is the run's ``l1_ratio`` and must stay at or below 0.8.  The other
    entries start the disk at seeded positions.  Their ratios are recorded
    per input but neither gated nor averaged: across start positions the
    ratio ranges from about 0.12 to about 1.0, so a mean over a few of them
    would swing from seed to seed.
    """

    name = "disk-flow"
    pool = 4
    method = "flow"
    n_arg = "3"
    dims = (64, 64, 33)
    radius = 8.0

    def dense_pair(self, rng, index):
        seed = 7 if index == 0 else int(rng.integers(2**31))
        ph = moving_disk_phantom(dims=self.dims, radius=self.radius, step=(0.75, 0.0), seed=seed)
        return ph.volume, ph.labels

    def check(self, inp, stdouts, outdir):
        quality = super().check(inp, stdouts, outdir)
        if inp.key == f"{self.name}-0":
            require(quality["l1_ratio"] <= 0.8, f"l1_ratio {quality['l1_ratio']:.4f} > 0.8 (gate 8)")
        return quality

    def summarize(self, quality):
        summary = super().summarize(quality)
        summary["l1_ratio"] = quality[f"{self.name}-0"]["l1_ratio"]
        return summary


class OrgansLinear(ImputeWorkload):
    """Many declared classes, no flow: label synthesis and argmax dominate.

    The pool is large because one input's label Dice depends on where its
    organs sit against the kept slices (±1.6 points between inputs); the
    mean over 12 inputs keeps ``label_dice`` steady from seed to seed.
    """

    name = "organs-linear"
    pool = 12
    method = "linear"
    n_arg = "auto"
    dims = (256, 256, 17)
    classes = 117

    def dense_pair(self, rng, index):
        params = organ_params(rng, self.dims, self.classes - 1, radius=(6.0, 28.0), half_depth=(1.0, 3.0))
        labels = render_organs(params, self.dims)
        lut = np.concatenate([[0.0], rng.uniform(0.1, 1.0, self.classes - 1)])
        spacing = Spacing(1.0, 1.0, 1.0)
        return Volume(intensities(labels, lut), spacing), LabelVolume(labels, spacing, self.classes)


class Score(Workload):
    """Ground truth versus a perturbed prediction: ``metrics`` then ``loss``."""

    name = "score"
    pool = 5
    dims = (256, 256, 65)
    classes = 16

    def make_inputs(self, rng, workdir):
        spacing = Spacing(1.0, 1.0, 1.0)
        inputs = []
        for i in range(self.pool):
            params = organ_params(rng, self.dims, self.classes - 1, radius=(14.0, 45.0), half_depth=(8.0, 24.0))
            gt = render_organs(params, self.dims)
            pred = render_organs(perturb(rng, params), self.dims)
            lut = np.concatenate([[0.0], rng.uniform(0.1, 1.0, self.classes - 1)])
            key = f"{self.name}-{i}"
            files = {name: workdir / f"{key}-{name}.vvol" for name in ("gt", "pred", "gt-img", "pred-img")}
            # The scalar volumes are written slice by slice, so set-up peaks
            # well below the jobs and peak RSS stays the program's.
            header = {"dims": list(self.dims), "spacing": list(spacing.as_tuple()), "dtype": "f32"}
            for name, labels in (("gt", gt), ("pred", pred)):
                save_volume(LabelVolume(labels, spacing, self.classes), files[name])
                write_vvol_slices(files[f"{name}-img"], header, (intensities(s, lut) for s in labels))
            inputs.append(Input(key, files))
        return inputs

    def _reference(self, inp):
        """Per-class Dice and the mean over slices of the mean absolute
        difference of the scalar pair, computed by the benchmark from the
        input files on first use and kept.  The files are read one slice at
        a time, so the process holds no volumes of its own while jobs run
        and the check stays far below the program's peak memory."""
        if not inp.truth:
            f = inp.files
            both = sum(
                confusion(g, p, self.classes) for g, p in zip(vvol_slices(f["gt"]), vvol_slices(f["pred"]))
            )
            inp.truth["dice"] = mean_dice(both)[1]
            l1 = [
                float(np.mean(np.abs(p.astype(np.float64) - g.astype(np.float64))))
                for g, p in zip(vvol_slices(f["gt-img"]), vvol_slices(f["pred-img"]))
            ]
            inp.truth["l1"] = float(np.mean(l1))
        return inp.truth["dice"], inp.truth["l1"]

    def self_check(self, inputs):
        """Class 1's scores on a small crop of the first pair against the
        brute-force oracle of the test suite, at acceptance gate 1's 1e-9."""
        import oracles
        from isoslice import UndefinedMetricError, assd, dice, mssd

        gt, pred = (read_vvol(inputs[0].files[k])[1] for k in ("gt", "pred"))
        mask = gt == 1
        zs, ys, xs = np.nonzero(mask & ~np.roll(mask, 1, axis=2))
        require(len(zs) > 0, "class 1 is missing from the first ground truth")
        mid = len(zs) // 2
        box = tuple(slice(max(int(c) - r, 0), int(c) + r) for c, r in ((zs[mid], 4), (ys[mid], 12), (xs[mid], 12)))
        spacing = Spacing(1.0, 1.0, 1.0)
        crops = [LabelVolume(a[box], spacing, self.classes) for a in (gt, pred)]
        want = oracles.surface_distances(crops[0].data, crops[1].data, 1, spacing.as_tuple())
        try:
            got = (assd(*crops, 1), mssd(*crops, 1))
        except UndefinedMetricError:
            got = None
        require((got is None) == (want is None), f"surface distances defined {got} vs oracle {want}")
        if got is not None:
            require(np.allclose(got, want, rtol=0.0, atol=1e-9), f"assd/mssd {got} != oracle {want}")
        got_dice = dice(*crops, 1)
        want_dice = oracles.dice(crops[0].data, crops[1].data, 1)
        require(abs(got_dice - want_dice) <= 1e-9, f"dice {got_dice} != oracle {want_dice}")

    def _report(self, inp, outdir):
        return outdir / f"{inp.key}-report.json"

    def commands(self, inp, outdir):
        f = inp.files
        return [
            ["metrics", "--gt", str(f["gt"]), "--pred", str(f["pred"]), "--out-json", str(self._report(inp, outdir))],
            ["loss", "--volume", str(f["pred-img"]), "--rec", str(f["pred-img"]), str(f["gt-img"])],
        ]

    def outputs(self, inp, outdir):
        return [self._report(inp, outdir)]

    def output_voxels(self, inp):
        return math.prod(self.dims)

    def check(self, inp, stdouts, outdir):
        report = one_json_object(stdouts[0])
        saved = self._report(inp, outdir).read_text(encoding="utf-8")
        require(saved == stdouts[0], "report file differs from the printed report")
        dice_ref, l1_ref = self._reference(inp)
        classes = report["classes"]
        require(sorted(classes, key=int) == [str(c) for c in range(1, self.classes)], "class list")
        for cid, scores in classes.items():
            d = scores["dice"]
            require(0.0 <= d <= 100.0, f"class {cid}: dice {d} outside [0, 100]")
            ref = dice_ref[int(cid)]
            require(abs(d - (100.0 if np.isnan(ref) else ref)) <= 1e-9, f"class {cid}: dice {d} != {ref}")
            if scores["assd_mm"] is not None:
                require(scores["assd_mm"] <= scores["mssd_mm"], f"class {cid}: assd > mssd")

        losses = one_json_object(stdouts[1])
        require(set(losses) == {"l_tp_smooth", "l_rec", "total"}, f"loss keys {sorted(losses)}")
        require(all(math.isfinite(v) for v in losses.values()), "non-finite loss")
        require(abs(losses["l_rec"] - l1_ref) <= 1e-9 * max(1.0, l1_ref), f"l_rec {losses['l_rec']} != {l1_ref}")
        return {"l1_ratio": losses["l_rec"] / l1_ref, "label_dice": report["mean"]["dice"]}


WORKLOADS = {w.name: w for w in (DiskFlow, OrgansLinear, Score)}
