import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import isoslice.metrics
from isoslice import (
    LabelVolume,
    Spacing,
    Volume,
    evaluate,
    load_volume,
    moving_disk_phantom,
    save_volume,
)
from isoslice.cli import canonical_json, main
from isoslice.volume import _volume_planes

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*args, cwd=None):
    """A fresh interpreter on ``args`` that imports isoslice from this checkout."""
    env = os.environ.copy()
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def run_cli(*args, cwd=None):
    return run_python("-m", "isoslice", *args, cwd=cwd)


def payload(result):
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def assert_single_error(result):
    """Exit 1 with nothing on stdout and one ``error:`` line on stderr."""
    assert result.returncode == 1
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr


def box_label_inputs(tmp_path):
    """A seeded 22x18x5 random image with six box-shaped label classes (nine declared), saved as VVOL."""
    rng = np.random.default_rng(106)
    shape = (5, 18, 22)
    image = rng.random(shape).astype(np.float32)
    labels = np.zeros(shape, np.uint8)
    for cid in range(1, 7):
        z, y, x = (int(rng.integers(0, n - 2)) for n in shape)
        dz, dy, dx = (int(rng.integers(2, 9)) for _ in shape)
        labels[z : z + dz, y : y + dy, x : x + dx] = cid
    spacing = Spacing(0.7, 0.7, 2.5)
    vol, lab = tmp_path / "v.vvol", tmp_path / "l.vvol"
    save_volume(Volume(image, spacing), vol)
    save_volume(LabelVolume(labels, spacing, 9), lab)  # class 7 and 8 declared but absent
    return vol, lab


@pytest.fixture()
def ramp_volume(tmp_path):
    path = tmp_path / "ramp.vvol"
    rng = np.random.default_rng(100)
    v = Volume(rng.random((8, 6, 6)).astype(np.float32), Spacing(1.0, 1.0, 4.0))
    save_volume(v, path)
    return path, v


class TestDecimate:
    def test_counts_on_stdout(self, tmp_path, ramp_volume):
        in_path, _ = ramp_volume
        out = tmp_path / "dec.vvol"
        result = run_cli("decimate", "--in", in_path, "--out", out, "--stride", 4)
        assert payload(result) == {"kept": 2, "removed": 6}
        assert load_volume(out).dims[2] == 2

    def test_stride_one_is_usage_error(self, tmp_path, ramp_volume):
        in_path, _ = ramp_volume
        result = run_cli("decimate", "--in", in_path, "--out", tmp_path / "x.vvol", "--stride", 1)
        assert result.returncode == 2
        assert result.stdout == ""

    def test_overflowing_stride_names_stride_and_spacing(self, tmp_path, ramp_volume):
        in_path, _ = ramp_volume
        out = tmp_path / "x.vvol"
        stride = "1" + "0" * 400
        result = run_cli("decimate", "--in", in_path, "--out", out, "--stride", stride)
        assert_single_error(result)
        sz = load_volume(in_path).spacing.sz
        assert f"stride={stride} times spacing sz={sz!r}" in result.stderr
        assert not out.exists()

    def test_missing_input_is_runtime_error(self, tmp_path):
        result = run_cli("decimate", "--in", tmp_path / "nope.vvol", "--out", tmp_path / "x.vvol")
        assert result.returncode == 1
        assert "error:" in result.stderr
        assert not (tmp_path / "x.vvol").exists()


class TestImpute:
    def test_auto_n_from_spacing(self, tmp_path):
        path = tmp_path / "ps.vvol"
        rng = np.random.default_rng(101)
        save_volume(
            Volume(rng.random((2, 16, 16)).astype(np.float32), Spacing(0.6, 0.6, 4.0)), path
        )
        out = tmp_path / "imp.vvol"
        result = run_cli("impute", "--in", path, "--out", out, "--n", "auto", "--method", "linear")
        data = payload(result)
        assert data["n_per_gap"] == 5
        assert data["z_in"] == 2
        assert data["z_out"] == 7
        assert data["sz_out"] == pytest.approx(4.0 / 6.0)

    def test_n_zero_copies_input_bytes(self, tmp_path, ramp_volume):
        in_path, _ = ramp_volume
        out = tmp_path / "same.vvol"
        result = run_cli("impute", "--in", in_path, "--out", out, "--n", 0)
        assert payload(result)["z_out"] == 8
        assert out.read_bytes() == in_path.read_bytes()
        assert result.stderr == ""  # an explicit 0 is no note

    def test_auto_n_reports_the_library_count_without_a_note(self, tmp_path, ramp_volume):
        in_path, _ = ramp_volume  # sz=4, sx=1
        result = run_cli("impute", "--in", in_path, "--out", tmp_path / "o.vvol", "--method", "linear")
        assert payload(result) == {"n_per_gap": 3, "sz_out": 1.0, "z_in": 8, "z_out": 29}
        assert result.stderr == ""

    def test_linear_matches_library(self, tmp_path, ramp_volume):
        in_path, v = ramp_volume
        out = tmp_path / "lin.vvol"
        run_cli("impute", "--in", in_path, "--out", out, "--n", 1, "--method", "linear")
        from isoslice import ImputeConfig, impute_volume

        expected, _ = impute_volume(v, cfg=ImputeConfig(n_slices=1, method="linear"))
        assert load_volume(out) == expected

    def test_labels_roundtrip(self, tmp_path):
        rng = np.random.default_rng(102)
        vol_path = tmp_path / "v.vvol"
        lab_path = tmp_path / "l.vvol"
        spacing = Spacing(1.0, 1.0, 2.0)
        save_volume(Volume(rng.random((2, 16, 16)).astype(np.float32), spacing), vol_path)
        save_volume(
            LabelVolume(rng.integers(0, 2, (2, 16, 16)).astype(np.uint8), spacing, 2), lab_path
        )
        out_v = tmp_path / "ov.vvol"
        out_l = tmp_path / "ol.vvol"
        result = run_cli(
            "impute",
            "--in", vol_path,
            "--labels", lab_path,
            "--out", out_v,
            "--out-labels", out_l,
            "--n", 1,
            "--method", "linear",
        )
        assert payload(result)["z_out"] == 3
        assert isinstance(load_volume(out_l), LabelVolume)

    def test_hostile_spacing_is_refused_before_writing(self, tmp_path):
        cases = [
            (Spacing(1e-6, 1e-6, 4.0), "exceeds the limit"),
            (Spacing(1e-308, 1e-308, 1e308), "their ratio must be positive and finite: 1e+308, 1e-308"),
        ]
        for spacing, message in cases:
            save_volume(Volume(np.zeros((3, 32, 32), np.float32), spacing), tmp_path / "v.vvol")
            save_volume(LabelVolume(np.zeros((3, 32, 32), np.uint8), spacing, 2), tmp_path / "l.vvol")
            result = run_cli(
                "impute", "--in", tmp_path / "v.vvol", "--labels", tmp_path / "l.vvol",
                "--out", tmp_path / "out.vvol", "--out-labels", tmp_path / "out_l.vvol",
                "--n", "auto", "--method", "linear",
            )
            assert_single_error(result)
            assert message in result.stderr
            assert sorted(p.name for p in tmp_path.iterdir()) == ["l.vvol", "v.vvol"]

    def test_too_small_for_pyramid_is_refused_before_writing(self, tmp_path):
        spacing = Spacing(1.0, 1.0, 4.0)
        save_volume(Volume(np.zeros((3, 4, 6), np.float32), spacing), tmp_path / "v.vvol")
        save_volume(LabelVolume(np.zeros((3, 4, 6), np.uint8), spacing, 2), tmp_path / "l.vvol")
        result = run_cli(
            "impute", "--in", tmp_path / "v.vvol", "--labels", tmp_path / "l.vvol",
            "--out", tmp_path / "out.vvol", "--out-labels", tmp_path / "out_l.vvol",
            "--n", 1, "--method", "flow", "--pyramid-levels", 3,
        )
        assert_single_error(result)
        assert "too small for 3 pyramid levels" in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["l.vvol", "v.vvol"]

    @pytest.mark.parametrize("levels", [None, "auto"])
    def test_auto_pyramid_depth_fits_small_slices(self, tmp_path, levels):
        spacing = Spacing(1.0, 1.0, 4.0)
        save_volume(Volume(np.zeros((3, 4, 6), np.float32), spacing), tmp_path / "v.vvol")
        flags = [] if levels is None else ["--pyramid-levels", levels]
        result = run_cli(
            "impute", "--in", tmp_path / "v.vvol", "--out", tmp_path / "out.vvol",
            "--n", 1, "--method", "flow", *flags,
        )
        assert payload(result)["z_out"] == 5
        assert load_volume(tmp_path / "out.vvol").dims == (6, 4, 5)

    def test_flow_output_bytes_match_recorded_hash(self, tmp_path):
        """Any rewrite of the flow solver or of gap scheduling must reproduce these files byte for byte."""
        dense, dense_labels = tmp_path / "p.vvol", tmp_path / "l.vvol"
        payload(run_cli("phantom", "--out", dense, "--out-labels", dense_labels, "--seed", 7))
        thin, thin_labels = tmp_path / "pd.vvol", tmp_path / "ld.vvol"
        payload(run_cli("decimate", "--in", dense, "--out", thin, "--stride", 4))
        payload(run_cli("decimate", "--in", dense_labels, "--out", thin_labels, "--stride", 4))
        out, out_labels = tmp_path / "o.vvol", tmp_path / "ol.vvol"
        payload(run_cli(
            "impute", "--in", thin, "--labels", thin_labels, "--out", out, "--out-labels", out_labels,
            "--method", "flow", "--n", 3,
        ))
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "d747b72b2ad8a17e0259fefe6789a58f71e8466a03557f81170035db8f172b90"
        )
        assert hashlib.sha256(out_labels.read_bytes()).hexdigest() == (
            "5e400b787c0821eb5c0bc85a394b54e48c51517ce6e65babba44126042dfa288"
        )

    def test_flow_output_bytes_match_recorded_hash_when_every_gap_is_its_own_run(self, tmp_path):
        """At 256x192 one gap's endpoints exceed the run stack's pixel cap, so each gap is solved and warped alone."""
        dense, dense_labels = tmp_path / "p.vvol", tmp_path / "l.vvol"
        payload(run_cli(
            "phantom", "--out", dense, "--out-labels", dense_labels,
            "--size", "256,192,16", "--radius", 30, "--step", 2, "--seed", 2,
        ))
        thin, thin_labels = tmp_path / "pd.vvol", tmp_path / "ld.vvol"
        payload(run_cli("decimate", "--in", dense, "--out", thin, "--stride", 5))
        payload(run_cli("decimate", "--in", dense_labels, "--out", thin_labels, "--stride", 5))
        out, out_labels = tmp_path / "o.vvol", tmp_path / "ol.vvol"
        payload(run_cli(
            "impute", "--in", thin, "--labels", thin_labels, "--out", out, "--out-labels", out_labels,
            "--method", "flow", "--n", 2, "--iterations", 8,
        ))
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "c9affc7386464eb3c5fab02847c3b5583ef4d129f6ec5c4f32fd884c76e1b2b5"
        )
        assert hashlib.sha256(out_labels.read_bytes()).hexdigest() == (
            "1dbdafd4bff068e4d7f167c075ecf645899da0aded4ac15d2187b6fd88f0a2ad"
        )

    def test_linear_output_bytes_match_recorded_hash(self, tmp_path):
        """Any rewrite of linear synthesis or label argmax must reproduce these files byte for byte."""
        vol, lab = box_label_inputs(tmp_path)
        out, out_labels = tmp_path / "o.vvol", tmp_path / "ol.vvol"
        payload(run_cli(
            "impute", "--in", vol, "--labels", lab, "--out", out, "--out-labels", out_labels,
            "--method", "linear", "--n", 2,
        ))
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "f6d18e34d828e09ab4ac2c6a244b9ebec5053d20a912d0c0949ddadbd5153823"
        )
        assert hashlib.sha256(out_labels.read_bytes()).hexdigest() == (
            "164cd692639b4637b386b99b13ce543dd6739daa5e30b44fb8eb9f52a8999273"
        )

    def test_multiclass_flow_output_bytes_match_recorded_hash(self, tmp_path):
        """Flow label synthesis over six classes, with a slice at t = 1/2 where votes tie, byte for byte."""
        vol, lab = box_label_inputs(tmp_path)
        out, out_labels = tmp_path / "o.vvol", tmp_path / "ol.vvol"
        payload(run_cli(
            "impute", "--in", vol, "--labels", lab, "--out", out, "--out-labels", out_labels,
            "--method", "flow", "--n", 3, "--iterations", 5,
        ))
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "85fe743d26e831fdd6b884f3a8ec558e9015d5d98c393412f7f23b0dfb33b6c7"
        )
        assert hashlib.sha256(out_labels.read_bytes()).hexdigest() == (
            "e4943b31636322c3887281eb3e883b5d11f10918a136b93f4d04391413bd0546"
        )

    def test_failing_run_keeps_an_existing_out(self, tmp_path):
        """Outputs go to temporary files and replace their targets only once the last one is written."""
        vol, lab = box_label_inputs(tmp_path)
        out = tmp_path / "existing.vvol"
        out.write_bytes(b"kept")
        before = sorted(os.listdir(tmp_path))
        result = run_cli(
            "impute", "--in", vol, "--labels", lab, "--out", out,
            "--out-labels", tmp_path / "missing_dir" / "l.vvol", "--method", "linear", "--n", 1,
        )
        assert_single_error(result)
        # The target, not a temporary name, and nothing after it.
        target = str(tmp_path / "missing_dir" / "l.vvol")
        assert result.stderr == f"error: [Errno 2] No such file or directory: {target!r}\n"
        assert out.read_bytes() == b"kept"
        assert sorted(os.listdir(tmp_path)) == before
        out_labels = tmp_path / "l_out.vvol"
        payload(run_cli(
            "impute", "--in", vol, "--labels", lab, "--out", out, "--out-labels", out_labels,
            "--method", "linear", "--n", 1,
        ))
        assert load_volume(out).dims[2] == 9 and load_volume(out_labels).dims[2] == 9
        assert sorted(os.listdir(tmp_path)) == sorted([*before, "l_out.vvol"])

    def test_a_directory_target_is_refused_before_any_target_is_replaced(self, tmp_path):
        vol, lab = box_label_inputs(tmp_path)
        out = tmp_path / "existing.vvol"
        out.write_bytes(b"kept")
        (tmp_path / "labdir").mkdir()
        before = sorted(os.listdir(tmp_path))
        result = run_cli(
            "impute", "--in", vol, "--labels", lab, "--out", "existing.vvol", "--out-labels", "labdir",
            "--method", "linear", "--n", 1, cwd=tmp_path,
        )
        assert_single_error(result)
        assert result.stderr == "error: [Errno 21] Is a directory: 'labdir'\n"
        assert out.read_bytes() == b"kept"
        assert sorted(os.listdir(tmp_path)) == before and not os.listdir(tmp_path / "labdir")

    @pytest.mark.parametrize("first_existed", [True, False])
    def test_a_failed_later_move_puts_back_the_targets_already_moved(
        self, tmp_path, monkeypatch, capsys, first_existed
    ):
        """The second move fails: the first target gets its old file back, or goes if it had none."""
        vol, lab = box_label_inputs(tmp_path)
        out = tmp_path / "existing.vvol"
        if first_existed:
            out.write_bytes(b"kept")
        before = sorted(os.listdir(tmp_path))
        replace, moves = os.replace, []

        def second_move_fails(src, dst):
            moves.append(dst)
            if len(moves) == 2:
                raise PermissionError(13, "Permission denied", str(src))
            replace(src, dst)

        monkeypatch.setattr(os, "replace", second_move_fails)
        code = main([
            "impute", "--in", str(vol), "--labels", str(lab), "--out", str(out),
            "--out-labels", str(tmp_path / "l_out.vvol"), "--method", "linear", "--n", "1",
        ])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: [Errno 13] Permission denied: {str(tmp_path / 'l_out.vvol')!r}\n"
        if first_existed:
            assert out.read_bytes() == b"kept"
        else:
            assert not out.exists()
        assert sorted(os.listdir(tmp_path)) == before  # no temporary file or aside link is left

    def test_one_path_for_both_outputs_is_refused(self, tmp_path):
        vol, lab = box_label_inputs(tmp_path)
        before = sorted(os.listdir(tmp_path))
        result = run_cli(
            "impute", "--in", vol, "--labels", lab, "--out", "same.vvol", "--out-labels", "./same.vvol",
            "--method", "linear", "--n", 1, cwd=tmp_path,
        )
        assert_single_error(result)
        assert result.stderr == "error: output ./same.vvol is the same file as output same.vvol\n"
        assert sorted(os.listdir(tmp_path)) == before

    def test_an_output_name_of_255_bytes_is_written(self, tmp_path, ramp_volume):
        """The temporary file's name stays within the 255 bytes a file name may hold."""
        in_path, _ = ramp_volume
        short, long = tmp_path / "short.vvol", tmp_path / ("\u00e9" * 125 + ".vvol")
        assert len(os.fsencode(long.name)) == 255
        for out in (short, long):
            payload(run_cli("decimate", "--in", in_path, "--out", out))
        assert long.read_bytes() == short.read_bytes()
        assert sorted(os.listdir(tmp_path)) == sorted(["ramp.vvol", short.name, long.name])

    def test_labels_without_out_labels_is_usage_error(self, tmp_path, ramp_volume):
        in_path, _ = ramp_volume
        result = run_cli(
            "impute", "--in", in_path, "--labels", in_path, "--out", tmp_path / "o.vvol"
        )
        assert result.returncode == 2

    def test_out_labels_without_labels_is_usage_error(self, tmp_path, ramp_volume):
        in_path, _ = ramp_volume
        result = run_cli(
            "impute", "--in", in_path, "--out", tmp_path / "o.vvol", "--out-labels", tmp_path / "x.vvol"
        )
        assert result.returncode == 2
        assert not (tmp_path / "o.vvol").exists() and not (tmp_path / "x.vvol").exists()

    def test_single_slice_input_fails(self, tmp_path):
        path = tmp_path / "one.vvol"
        save_volume(Volume(np.zeros((1, 4, 4), np.float32), Spacing(1, 1, 4)), path)
        result = run_cli("impute", "--in", path, "--out", tmp_path / "o.vvol", "--n", 1)
        assert result.returncode == 1

    def test_auto_on_isotropic_input_notes_noop_on_stderr(self, tmp_path):
        path = tmp_path / "iso.vvol"
        rng = np.random.default_rng(105)
        save_volume(
            Volume(rng.random((2, 4, 4)).astype(np.float32), Spacing(1.0, 1.0, 1.0)), path
        )
        out = tmp_path / "o.vvol"
        result = run_cli("impute", "--in", path, "--out", out, "--n", "auto")
        data = payload(result)  # stdout stays pure JSON
        assert data["n_per_gap"] == 0
        assert len(result.stdout.splitlines()) == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("note: ") and "isotropic" in lines[0], result.stderr
        assert out.read_bytes() == path.read_bytes()


class TestFlow:
    def save_slice(self, path, arr):
        save_volume(Volume(arr[None, :, :].astype(np.float32), Spacing(1, 1, 1)), path)

    def blob(self, cx, cy):
        xs = np.arange(64)[None, :]
        ys = np.arange(64)[:, None]
        return np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * 8.0**2))

    def test_identical_slices_zero_stats(self, tmp_path):
        a = tmp_path / "a.vvol"
        self.save_slice(a, self.blob(32, 32))
        out = tmp_path / "f.vflo"
        result = run_cli("flow", "--a", a, "--b", a, "--out", out)
        stats = payload(result)
        assert stats["mean"] <= 1e-3
        assert out.exists()

    def test_shifted_blob_median_near_truth(self, tmp_path):
        a, b = tmp_path / "a.vvol", tmp_path / "b.vvol"
        img = self.blob(31, 32)
        self.save_slice(a, img)
        self.save_slice(b, np.roll(img, 2, axis=1))
        result = run_cli("flow", "--a", a, "--b", b, "--out", tmp_path / "f.vflo")
        stats = payload(result)
        assert abs(stats["median_u"] - 2.0) < 0.5
        assert abs(stats["median_v"]) < 0.5

    def test_auto_pyramid_levels_is_the_default_and_resolves_from_size(self, tmp_path):
        a, b = tmp_path / "a.vvol", tmp_path / "b.vvol"
        self.save_slice(a, self.blob(31, 32))
        self.save_slice(b, self.blob(33, 32))
        written = {}
        for flags in ([], ["--pyramid-levels", "auto"], ["--pyramid-levels", "4"]):
            out = tmp_path / f"f{len(written)}.vflo"
            payload(run_cli("flow", "--a", a, "--b", b, "--out", out, *flags))
            written[" ".join(flags)] = out.read_bytes()
        assert len(set(written.values())) == 1, "64x64 slices resolve 'auto' to 4 levels"
        for bad in ("0", "autos", "2.5"):
            result = run_cli("flow", "--a", a, "--b", b, "--out", tmp_path / "x.vflo", "--pyramid-levels", bad)
            assert result.returncode == 2
        assert not (tmp_path / "x.vflo").exists()

    @pytest.mark.parametrize(
        "dims, radius, step, seed, flags, digest",
        [
            ((64, 64, 33), 8.0, (0.75, 0.0), 7, [],
             "881aa01c75de016ed9775dd770ac3fe23b58a3f1ded66e2dbf4b84a31c37640d"),
            ((256, 256, 16), 40.0, (0.75, 0.5), 3, [],
             "09e6d13a7926999e68881b36899ec1d95bf74e457fecc5f1fe657df6a8875a2e"),
            ((64, 64, 33), 8.0, (0.75, 0.0), 7, ["--alpha", "1e-100"],
             "a5469462db72c831e88782f328d6d5cb7088ecde1bca3abe16439429baa79631"),
        ],
        ids=["gate8-pair", "256x256-pair", "alpha-floor"],
    )
    def test_flow_file_bytes_match_recorded_hash(self, tmp_path, dims, radius, step, seed, flags, digest):
        """The solver's own bytes: slices 0 and 4 of a moving-disk phantom (gate 8's at seed 7)."""
        ph = moving_disk_phantom(dims=dims, radius=radius, step=step, seed=seed)
        a, b = tmp_path / "a.vvol", tmp_path / "b.vvol"
        save_volume(Volume(ph.volume.data[0:1], ph.volume.spacing), a)
        save_volume(Volume(ph.volume.data[4:5], ph.volume.spacing), b)
        out = tmp_path / "f.vflo"
        payload(run_cli("flow", "--a", a, "--b", b, "--out", out, *flags))
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_missing_file(self, tmp_path):
        result = run_cli(
            "flow", "--a", tmp_path / "no.vvol", "--b", tmp_path / "no.vvol",
            "--out", tmp_path / "f.vflo",
        )
        assert result.returncode == 1

    def test_dims_mismatch(self, tmp_path):
        a, b = tmp_path / "a.vvol", tmp_path / "b.vvol"
        self.save_slice(a, np.zeros((32, 32)))
        self.save_slice(b, np.zeros((32, 33)))
        result = run_cli("flow", "--a", a, "--b", b, "--out", tmp_path / "f.vflo")
        assert result.returncode == 1


class TestMetrics:
    def test_perfect_prediction(self, tmp_path):
        rng = np.random.default_rng(103)
        gt = LabelVolume(rng.integers(0, 2, (4, 4, 4)).astype(np.uint8), Spacing(1, 1, 1), 2)
        gt_path = tmp_path / "gt.vvol"
        save_volume(gt, gt_path)
        out_json = tmp_path / "report.json"
        result = run_cli("metrics", "--gt", gt_path, "--pred", gt_path, "--out-json", out_json)
        report = payload(result)
        assert report["classes"]["1"]["dice"] == 100.0
        assert report["classes"]["1"]["assd_mm"] == 0.0

    def test_disjoint_masks_zero_dice(self, tmp_path):
        a = np.zeros((4, 4, 4), np.uint8)
        b = np.zeros((4, 4, 4), np.uint8)
        a[0, 0, 0] = 1
        b[3, 3, 3] = 1
        pa, pb = tmp_path / "a.vvol", tmp_path / "b.vvol"
        save_volume(LabelVolume(a, Spacing(1, 1, 1), 2), pa)
        save_volume(LabelVolume(b, Spacing(1, 1, 1), 2), pb)
        result = run_cli("metrics", "--gt", pa, "--pred", pb, "--out-json", tmp_path / "r.json")
        assert payload(result)["classes"]["1"]["dice"] == 0.0

    def test_file_matches_library_canonical_json(self, tmp_path):
        rng = np.random.default_rng(104)
        gt = LabelVolume(rng.integers(0, 3, (5, 5, 5)).astype(np.uint8), Spacing(1, 1, 2), 3)
        pred = LabelVolume(rng.integers(0, 3, (5, 5, 5)).astype(np.uint8), Spacing(1, 1, 2), 3)
        pg, pp = tmp_path / "gt.vvol", tmp_path / "pred.vvol"
        save_volume(gt, pg)
        save_volume(pred, pp)
        out_json = tmp_path / "report.json"
        result = run_cli("metrics", "--gt", pg, "--pred", pp, "--out-json", out_json)
        assert result.returncode == 0
        expected = canonical_json(evaluate(gt, pred).as_dict()) + "\n"
        assert out_json.read_text() == expected
        assert result.stdout == expected

    def test_report_bytes_match_recorded_hash(self, tmp_path):
        """Any rewrite of the metrics must reproduce this report byte for byte."""
        rng = np.random.default_rng(105)
        shape = (9, 20, 24)
        gt = np.zeros(shape, np.uint8)
        for cid in range(1, 5):
            z, y, x = (int(rng.integers(0, n - 2)) for n in shape)
            dz, dy, dx = (int(rng.integers(2, 9)) for _ in shape)
            gt[z : z + dz, y : y + dy, x : x + dx] = cid
        pred = gt.copy()
        flips = rng.random(shape) < 0.1
        pred[flips] = rng.integers(0, 5, int(flips.sum()))
        gt[0, :3, -4:] = 5  # only in gt
        pred[-2:, -3:, :2] = 6  # only in pred; class 7 is declared but absent from both
        spacing = Spacing(0.8, 1.1, 3.0)
        pg, pp = tmp_path / "gt.vvol", tmp_path / "pred.vvol"
        save_volume(LabelVolume(gt, spacing, 8), pg)
        save_volume(LabelVolume(pred, spacing, 8), pp)
        out_json = tmp_path / "report.json"
        payload(run_cli("metrics", "--gt", pg, "--pred", pp, "--out-json", out_json))
        digest = hashlib.sha256(out_json.read_bytes()).hexdigest()
        assert digest == "33619ddc0e3c923bd19b5b25b3c84093e4346ea44dbabc756ab1e93f77528c95"

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_report_bytes_do_not_depend_on_cpu_count(self, tmp_path, monkeypatch, capsys, cpus):
        """The recorded report hash above holds however many workers score the classes."""
        rng = np.random.default_rng(105)
        shape = (9, 20, 24)
        gt = np.zeros(shape, np.uint8)
        for cid in range(1, 5):
            z, y, x = (int(rng.integers(0, n - 2)) for n in shape)
            dz, dy, dx = (int(rng.integers(2, 9)) for _ in shape)
            gt[z : z + dz, y : y + dy, x : x + dx] = cid
        pred = gt.copy()
        flips = rng.random(shape) < 0.1
        pred[flips] = rng.integers(0, 5, int(flips.sum()))
        gt[0, :3, -4:] = 5
        pred[-2:, -3:, :2] = 6
        spacing = Spacing(0.8, 1.1, 3.0)
        pg, pp = tmp_path / "gt.vvol", tmp_path / "pred.vvol"
        save_volume(LabelVolume(gt, spacing, 8), pg)
        save_volume(LabelVolume(pred, spacing, 8), pp)
        out_json = tmp_path / "report.json"
        pools = []
        real_pool = isoslice.metrics.ThreadPoolExecutor

        def pool(workers):
            pools.append(workers)
            return real_pool(workers)

        monkeypatch.setattr(isoslice.metrics, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(isoslice.metrics, "ThreadPoolExecutor", pool)
        assert main(["metrics", "--gt", str(pg), "--pred", str(pp), "--out-json", str(out_json)]) == 0
        capsys.readouterr()
        assert pools == [cpus]
        digest = hashlib.sha256(out_json.read_bytes()).hexdigest()
        assert digest == "33619ddc0e3c923bd19b5b25b3c84093e4346ea44dbabc756ab1e93f77528c95"

    def test_geometry_mismatch(self, tmp_path):
        a = LabelVolume(np.zeros((2, 2, 2), np.uint8), Spacing(1, 1, 1), 2)
        b = LabelVolume(np.zeros((2, 2, 3), np.uint8), Spacing(1, 1, 1), 2)
        pa, pb = tmp_path / "a.vvol", tmp_path / "b.vvol"
        save_volume(a, pa)
        save_volume(b, pb)
        result = run_cli("metrics", "--gt", pa, "--pred", pb, "--out-json", tmp_path / "r.json")
        assert result.returncode == 1
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("pitch", [1e308, 1e160])
    def test_overflowing_spacing_writes_no_report(self, tmp_path, pitch):
        gt = np.zeros((4, 4, 4), np.uint8)
        gt[1:3, 1:3, 1:3] = 1
        pred = np.roll(gt, 1, axis=2)
        pa, pb = tmp_path / "a.vvol", tmp_path / "b.vvol"
        save_volume(LabelVolume(gt, Spacing(pitch, pitch, pitch), 2), pa)
        save_volume(LabelVolume(pred, Spacing(pitch, pitch, pitch), 2), pb)
        result = run_cli("metrics", "--gt", pa, "--pred", pb, "--out-json", tmp_path / "r.json")
        assert_single_error(result)
        assert "overflow" in result.stderr
        assert not (tmp_path / "r.json").exists()


class TestLoss:
    def test_constant_volume_tp_smooth_zero(self, tmp_path):
        path = tmp_path / "c.vvol"
        save_volume(Volume(np.full((3, 3, 3), 2.0, np.float32), Spacing(1, 1, 1)), path)
        result = run_cli("loss", "--volume", path)
        report = payload(result)
        assert report["l_tp_smooth"] == 0.0
        assert report["total"] == 0.0

    def test_weights_override_changes_total(self, tmp_path):
        series = tmp_path / "series.json"
        series.write_text(json.dumps({"ld_fake": [0.5], "gd_fake": [0.5]}))
        base = payload(run_cli("loss", "--series-json", series))
        weights = tmp_path / "weights.json"
        weights.write_text(json.dumps({"lambda_adv": 1.0}))
        boosted = payload(run_cli("loss", "--series-json", series, "--weights-json", weights))
        assert base["total"] == pytest.approx(0.050 * base["l_adv"])
        assert boosted["total"] == pytest.approx(boosted["l_adv"])

    def test_malformed_weights_json(self, tmp_path):
        series = tmp_path / "series.json"
        series.write_text(json.dumps({"ld_fake": [0.5], "gd_fake": [0.5]}))
        weights = tmp_path / "weights.json"
        weights.write_text("{broken")
        result = run_cli("loss", "--series-json", series, "--weights-json", weights)
        assert result.returncode == 1

    def test_non_numeric_weight(self, tmp_path):
        series = tmp_path / "series.json"
        series.write_text(json.dumps({"ld_fake": [0.5], "gd_fake": [0.5]}))
        weights = tmp_path / "weights.json"
        weights.write_text(json.dumps({"lambda_rec": "abc"}))
        assert_single_error(run_cli("loss", "--series-json", series, "--weights-json", weights))

    @pytest.mark.parametrize("value", [True, "2"], ids=["boolean", "string"])
    def test_weight_must_be_a_json_number(self, tmp_path, value):
        series = tmp_path / "series.json"
        series.write_text(json.dumps({"ld_fake": [0.5], "gd_fake": [0.5]}))
        weights = tmp_path / "weights.json"
        weights.write_text(json.dumps({"lambda_adv": value}))
        assert_single_error(run_cli("loss", "--series-json", series, "--weights-json", weights))

    @pytest.mark.parametrize("flag", ["--weights-json", "--series-json"])
    @pytest.mark.parametrize(
        "content",
        [b'{"lambda_adv": "\xff"}', b"[" * 50_000 + b"]" * 50_000],
        ids=["non-utf8", "deep-nesting"],
    )
    def test_undecodable_json_input(self, tmp_path, flag, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        result = run_cli("loss", flag, bad)
        assert_single_error(result)
        assert "bad.json" in result.stderr

    def test_non_numeric_series_entry(self, tmp_path):
        series = tmp_path / "series.json"
        series.write_text(json.dumps({"ld_fake": ["x"], "gd_fake": [0.5]}))
        result = run_cli("loss", "--series-json", series)
        assert_single_error(result)
        assert "ld_fake" in result.stderr

    @pytest.mark.parametrize(
        "entries",
        [{"ld_fake": ["0.5"]}, {"y_fake": [True]}, {"ld_fake": [10**400]}],
        ids=["string", "boolean", "huge-int"],
    )
    def test_series_entries_must_be_json_numbers(self, tmp_path, entries):
        good = {k: [0.5] for k in ("ld_fake", "ld_real", "gd_fake", "oc_fake", "oc_real")}
        series = tmp_path / "series.json"
        series.write_text(json.dumps({**good, "y_fake": [1], "y_real": [1], **entries}))
        result = run_cli("loss", "--series-json", series)
        assert_single_error(result)
        assert next(iter(entries)) in result.stderr

    def test_out_of_domain_probability_names_the_index(self, tmp_path):
        series = tmp_path / "series.json"
        series.write_text(json.dumps({"ld_fake": [0.5, 1.5], "gd_fake": [0.5, 0.5]}))
        result = run_cli("loss", "--series-json", series)
        assert result.returncode == 1
        assert "ld_fake[1]" in result.stderr

    def test_rec_term_from_volume_pair(self, tmp_path):
        a = Volume(np.zeros((2, 2, 2), np.float32), Spacing(1, 1, 1))
        b = Volume(np.ones((2, 2, 2), np.float32), Spacing(1, 1, 1))
        pa, pb = tmp_path / "a.vvol", tmp_path / "b.vvol"
        save_volume(a, pa)
        save_volume(b, pb)
        report = payload(run_cli("loss", "--rec", pa, pb))
        assert report["l_rec"] == 1.0

    def test_volume_and_rec_stdout_match_recorded_hash(self, tmp_path):
        """Any rewrite of the smoothness or reconstruction terms must reproduce this stdout byte for byte."""
        rng = np.random.default_rng(107)
        spacing = Spacing(1.0, 1.0, 3.0)
        synth = Volume(rng.random((6, 14, 17)).astype(np.float32), spacing)
        real = Volume(rng.normal(0.5, 0.3, (6, 14, 17)).astype(np.float32), spacing)
        ps, pr = tmp_path / "s.vvol", tmp_path / "r.vvol"
        save_volume(synth, ps)
        save_volume(real, pr)
        result = run_cli("loss", "--volume", ps, "--rec", ps, pr)
        payload(result)
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
            "a4bb3b14797d063f77e88ca4b66fbb8e57ca3de699688ba2cb47698210bc1611"
        )

    def test_each_distinct_file_is_read_once(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(108)
        a, b, c = (str(tmp_path / f"{name}.vvol") for name in "abc")
        for path in (a, b, c):
            save_volume(Volume(rng.random((3, 4, 5)).astype(np.float32), Spacing(1, 1, 1)), path)
        whole, planes = [], []

        def counting_load(path):
            whole.append(path)
            return load_volume(path)

        def counting_planes(path):
            planes.append(path)
            return _volume_planes(path)

        monkeypatch.setattr("isoslice.cli.load_volume", counting_load)
        monkeypatch.setattr("isoslice.cli._volume_planes", counting_planes)
        # The second --rec file is read one plane at a time, unless it is already held.
        for argv, want_whole, want_planes in (
            ([a, "--rec", a, b], [a], [b]),
            ([a, "--rec", b, c], [a, b], [c]),
            ([a, "--rec", b, a], [a, b], []),
            ([a, "--rec", b, b], [a, b], []),
        ):
            whole.clear()
            planes.clear()
            assert main(["loss", "--volume", *argv]) == 0
            assert (sorted(whole), planes) == (want_whole, want_planes)

    @pytest.mark.parametrize("case", ["nan-in-last-plane", "label-volume", "truncated", "bad-magic", "missing"])
    def test_streamed_rec_refuses_what_a_whole_read_refuses(self, tmp_path, capsys, case):
        good, bad = tmp_path / "good.vvol", tmp_path / "bad.vvol"
        data = np.zeros((4, 3, 5), np.float32)
        save_volume(Volume(data, Spacing(1, 1, 1)), good)
        if case == "nan-in-last-plane":
            data[-1, 2, 4] = np.nan
            bad.write_bytes(good.read_bytes()[: -data.nbytes] + data.tobytes())
        elif case == "label-volume":
            save_volume(LabelVolume(np.zeros((4, 3, 5), np.uint8), Spacing(1, 1, 1), 2), bad)
        elif case == "truncated":
            bad.write_bytes(good.read_bytes()[:-1])
        elif case == "bad-magic":
            bad.write_bytes(b"VFLO\n" + good.read_bytes()[5:])
        errors = []
        for rec in ((bad, good), (good, bad)):  # bad read whole, then bad read plane by plane
            assert main(["loss", "--rec", *map(str, rec)]) == 1
            errors.append(capsys.readouterr())
        assert errors[0] == errors[1]
        assert errors[1].out == "" and errors[1].err.startswith("error: ") and "bad.vvol" in errors[1].err

    @pytest.mark.parametrize("case", ["flat-volume-and-missing-rec", "rec-dims-differ"])
    def test_side_worker_keeps_the_serial_error_order(self, tmp_path, capsys, case):
        def saved(name, shape):
            path = tmp_path / name
            save_volume(Volume(np.zeros(shape, np.float32), Spacing(1, 1, 1)), path)
            return str(path)

        good = saved("good.vvol", (3, 4, 5))
        if case == "flat-volume-and-missing-rec":
            # The smoothness term fails, and so would loading the second --rec file.
            argv = ["--volume", saved("flat.vvol", (3, 4, 1)), "--rec", good, str(tmp_path / "missing.vvol")]
            message = "volume extents (1, 4, 3) must all be at least 2"
        else:
            argv = ["--volume", good, "--rec", good, saved("wide.vvol", (3, 4, 6))]
            message = "the two --rec volumes must share dims"
        threads = threading.enumerate()
        assert main(["loss", *argv]) == 1
        assert threading.enumerate() == threads
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_full_series_reports_global_and_multitask(self, tmp_path):
        series = tmp_path / "series.json"
        series.write_text(
            json.dumps(
                {
                    "ld_fake": [0.5],
                    "ld_real": [0.5],
                    "gd_fake": [0.5],
                    "gd_real": [0.5],
                    "oc_fake": [0.5],
                    "oc_real": [0.5],
                    "y_fake": [1],
                    "y_real": [1],
                }
            )
        )
        report = payload(run_cli("loss", "--series-json", series))
        ln2 = float(np.log(2.0))
        assert report["l_adv"] == pytest.approx(2 * ln2)
        assert report["l_global"] == pytest.approx(2 * ln2)
        assert report["l_mul"] == pytest.approx(4 * ln2)

    def test_no_inputs_is_runtime_error(self):
        result = run_cli("loss")
        assert result.returncode == 1


class TestPhantom:
    def test_same_seed_byte_identical_outputs(self, tmp_path):
        for sub in ("one", "two"):
            d = tmp_path / sub
            d.mkdir()
            result = run_cli(
                "phantom", "--out", d / "p.vvol", "--out-labels", d / "l.vvol", "--seed", 5
            )
            assert result.returncode == 0
        assert (tmp_path / "one/p.vvol").read_bytes() == (tmp_path / "two/p.vvol").read_bytes()
        assert (tmp_path / "one/l.vvol").read_bytes() == (tmp_path / "two/l.vvol").read_bytes()

    def test_reported_line_matches_label_support(self, tmp_path):
        result = run_cli(
            "phantom", "--out", tmp_path / "p.vvol", "--out-labels", tmp_path / "l.vvol",
            "--seed", 8, "--size", "32,32,17", "--radius", "6.0",
        )
        info = payload(result)
        labels = load_volume(tmp_path / "l.vvol")
        xs = np.arange(32)[None, :]
        ys = np.arange(32)[:, None]
        for z in (0, 8, 16):
            cx = info["start"][0] + z * info["step"][0]
            cy = info["start"][1] + z * info["step"][1]
            inside = (xs - cx) ** 2 + (ys - cy) ** 2 < info["radius"] ** 2
            assert np.array_equal(labels.data[z].astype(bool), inside)

    @pytest.mark.parametrize("out, out_labels", [("q", "q"), ("d/q", "alias/../d/q"), ("d/q", "alias/q")])
    def test_one_file_for_both_outputs_is_refused(self, tmp_path, out, out_labels):
        (tmp_path / "d").mkdir()
        (tmp_path / "alias").symlink_to("d")
        result = run_cli(
            "phantom", "--out", out, "--out-labels", out_labels, "--size", "32,16,16", "--radius", 4, cwd=tmp_path
        )
        assert_single_error(result)
        assert result.stderr == f"error: output {out_labels} is the same file as output {out}\n"
        assert sorted(os.listdir(tmp_path)) == ["alias", "d"] and not os.listdir(tmp_path / "d")

    def test_negative_seed_is_usage_error(self, tmp_path):
        result = run_cli(
            "phantom", "--out", tmp_path / "p.vvol", "--out-labels", tmp_path / "l.vvol",
            "--seed", "-1",
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert list(tmp_path.iterdir()) == []

    def test_small_size_is_usage_error(self, tmp_path):
        result = run_cli(
            "phantom", "--out", tmp_path / "p.vvol", "--out-labels", tmp_path / "l.vvol",
            "--size", "8,64,64",
        )
        assert result.returncode == 2


class TestExport:
    def test_axial_export_follows_layout(self, tmp_path):
        path = tmp_path / "v.vvol"
        save_volume(
            Volume(np.arange(8, dtype=np.float32).reshape(2, 2, 2), Spacing(1, 1, 1)), path
        )
        out = tmp_path / "s.pgm"
        result = run_cli(
            "export", "--in", path, "--axis", "axial", "--index", 0, "--out", out,
            "--window", "0,3",
        )
        assert result.returncode == 0
        raw = out.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        assert list(raw[-4:]) == [0, 85, 170, 255]

    def test_constant_zero_slice_with_unit_window(self, tmp_path):
        path = tmp_path / "v.vvol"
        save_volume(Volume(np.zeros((1, 2, 2), np.float32), Spacing(1, 1, 1)), path)
        out = tmp_path / "s.pgm"
        result = run_cli(
            "export", "--in", path, "--axis", "axial", "--index", 0, "--out", out,
            "--window", "0,1",
        )
        assert result.returncode == 0
        assert out.read_bytes().endswith(b"\x00" * 4)

    def test_constant_slice_without_window_reports_unit_window(self, tmp_path):
        path = tmp_path / "v.vvol"
        save_volume(Volume(np.full((1, 2, 2), 3.0, np.float32), Spacing(1, 1, 1)), path)
        out = tmp_path / "s.pgm"
        result = run_cli("export", "--in", path, "--axis", "axial", "--index", 0, "--out", out)
        assert payload(result) == {"height": 2, "hi": 4.0, "lo": 3.0, "width": 2}
        assert out.read_bytes().endswith(b"\x00" * 4)

    def test_reversed_window_is_runtime_error(self, tmp_path, ramp_volume):
        in_path, _ = ramp_volume
        out = tmp_path / "s.pgm"
        result = run_cli(
            "export", "--in", in_path, "--axis", "axial", "--index", 0, "--out", out, "--window", "3,1",
        )
        assert_single_error(result)
        assert not out.exists()

    def test_reversed_window_keeps_an_existing_out(self, tmp_path, ramp_volume):
        in_path, _ = ramp_volume
        out = tmp_path / "s.pgm"
        out.write_bytes(b"kept")
        result = run_cli(
            "export", "--in", in_path, "--axis", "axial", "--index", 0, "--out", out, "--window", "3,1",
        )
        assert_single_error(result)
        assert out.read_bytes() == b"kept"

    def test_bad_axis_is_usage_error(self, tmp_path, ramp_volume):
        in_path, _ = ramp_volume
        result = run_cli(
            "export", "--in", in_path, "--axis", "diagonal", "--index", 0,
            "--out", tmp_path / "s.pgm",
        )
        assert result.returncode == 2

    def test_out_of_range_index(self, tmp_path, ramp_volume):
        in_path, _ = ramp_volume
        result = run_cli(
            "export", "--in", in_path, "--axis", "axial", "--index", 99,
            "--out", tmp_path / "s.pgm",
        )
        assert result.returncode == 1
        assert not (tmp_path / "s.pgm").exists()


# Prints, after the command's own output, the scipy subpackages it loaded.
COLD_START = """
import sys
from isoslice.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(sorted(m for m in ("scipy.ndimage", "scipy.spatial") if m in sys.modules))
sys.exit(code)
"""


class TestColdStart:
    """Which commands load scipy, by module presence in a fresh interpreter (not by time)."""

    @pytest.mark.parametrize(
        "argv, loaded",
        [
            (["decimate", "--in", "{ramp}", "--out", "{tmp}/d.vvol"], []),
            (["impute", "--in", "{ramp}", "--out", "{tmp}/i.vvol", "--n", "1", "--method", "linear"], []),
            (["loss", "--volume", "{ramp}", "--rec", "{ramp}", "{tmp}/d.vvol"], []),
            (["export", "--in", "{ramp}", "--axis", "axial", "--index", "0", "--out", "{tmp}/e.pgm"], []),
            (["phantom", "--out", "{tmp}/p.vvol", "--out-labels", "{tmp}/pl.vvol", "--size", "32,16,16", "--radius", "4"], []),
            (["--version"], []),
            (["impute", "--in", "{ramp}", "--out", "{tmp}/f.vvol", "--n", "1", "--method", "flow"], []),
            (["flow", "--a", "{tmp}/s.vvol", "--b", "{tmp}/s.vvol", "--out", "{tmp}/f.vflo"], []),
            (["metrics", "--gt", "{tmp}/l.vvol", "--pred", "{tmp}/l.vvol", "--out-json", "{tmp}/m.json"],
             ["scipy.ndimage", "scipy.spatial"]),
        ],
        ids=["decimate", "impute-linear", "loss", "export", "phantom", "version", "impute-flow", "flow", "metrics"],
    )
    def test_scipy_loads_only_where_a_command_calls_it(self, tmp_path, ramp_volume, argv, loaded):
        ramp, v = ramp_volume
        save_volume(v, tmp_path / "d.vvol")
        save_volume(Volume(v.data[:1], v.spacing), tmp_path / "s.vvol")
        labels = np.zeros(v.data.shape, np.uint8)
        labels[2:5, 1:4, 1:4] = 1
        save_volume(LabelVolume(labels, v.spacing), tmp_path / "l.vvol")
        result = run_python("-c", COLD_START, *(a.format(ramp=ramp, tmp=tmp_path) for a in argv))
        assert result.returncode == 0 and result.stderr == "", result.stderr
        assert result.stdout.splitlines()[-1] == str(loaded)


class TestContract:
    def test_stdout_is_json_only(self, tmp_path, ramp_volume):
        in_path, _ = ramp_volume
        result = run_cli("decimate", "--in", in_path, "--out", tmp_path / "d.vvol")
        json.loads(result.stdout)
        assert result.stdout.count("\n") == 1

    def test_inputs_never_modified(self, tmp_path, ramp_volume):
        in_path, _ = ramp_volume
        before = in_path.read_bytes()
        run_cli("decimate", "--in", in_path, "--out", tmp_path / "d.vvol")
        run_cli("impute", "--in", in_path, "--out", tmp_path / "i.vvol", "--n", 1, "--method", "linear")
        assert in_path.read_bytes() == before

    def test_second_main_call_builds_no_parser(self, tmp_path, ramp_volume, monkeypatch, capsys):
        in_path, _ = ramp_volume
        argv = ["decimate", "--in", str(in_path), "--out", str(tmp_path / "d.vvol")]
        assert main(argv) == 0
        added = []
        add_argument = argparse._ActionsContainer.add_argument

        def counting(self, *args, **kwargs):
            added.append(args)
            return add_argument(self, *args, **kwargs)

        monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counting)
        assert main(argv) == 0
        assert added == []
        assert capsys.readouterr().out.count("\n") == 2

    def test_version_flag(self):
        result = run_cli("--version")
        assert result.returncode == 0
