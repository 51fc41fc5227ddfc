import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from isoslice import (
    LabelVolume,
    Spacing,
    Volume,
    evaluate,
    load_volume,
    save_volume,
)
from isoslice.cli import canonical_json, main

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args, cwd=None):
    env = os.environ.copy()
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "isoslice", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


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
        spacing = Spacing(1e-6, 1e-6, 4.0)
        save_volume(Volume(np.zeros((3, 32, 32), np.float32), spacing), tmp_path / "v.vvol")
        save_volume(LabelVolume(np.zeros((3, 32, 32), np.uint8), spacing, 2), tmp_path / "l.vvol")
        result = run_cli(
            "impute", "--in", tmp_path / "v.vvol", "--labels", tmp_path / "l.vvol",
            "--out", tmp_path / "out.vvol", "--out-labels", tmp_path / "out_l.vvol",
            "--n", "auto", "--method", "linear",
        )
        assert_single_error(result)
        assert "exceeds the limit" in result.stderr
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

    def test_geometry_mismatch(self, tmp_path):
        a = LabelVolume(np.zeros((2, 2, 2), np.uint8), Spacing(1, 1, 1), 2)
        b = LabelVolume(np.zeros((2, 2, 3), np.uint8), Spacing(1, 1, 1), 2)
        pa, pb = tmp_path / "a.vvol", tmp_path / "b.vvol"
        save_volume(a, pa)
        save_volume(b, pb)
        result = run_cli("metrics", "--gt", pa, "--pred", pb, "--out-json", tmp_path / "r.json")
        assert result.returncode == 1
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
