import tracemalloc

import numpy as np
import pytest

import isoslice.volume as volume_module
from isoslice import ParameterError, moving_disk_phantom


class TestMovingDisk:
    def test_volumes_are_adopted_without_a_copy(self, monkeypatch):
        monkeypatch.setattr(volume_module, "_frozen", None)  # Volume(...) and LabelVolume(...) would call it
        tracemalloc.start()
        try:
            ph = moving_disk_phantom(dims=(256, 256, 17), radius=40.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = ph.volume.data.nbytes + ph.labels.data.nbytes
        assert peak <= held + 6 * 256 * 256 * 8  # six float64 slices, not a second copy of both volumes
        assert not ph.volume.data.flags.writeable and not ph.labels.data.flags.writeable
        assert ph.labels.classes == 2 and ph.labels.data.dtype == np.uint8

    def test_same_seed_is_byte_identical(self):
        a = moving_disk_phantom(seed=9)
        b = moving_disk_phantom(seed=9)
        assert a.volume.data.tobytes() == b.volume.data.tobytes()
        assert a.labels.data.tobytes() == b.labels.data.tobytes()
        assert a.start == b.start

    def test_different_seeds_differ(self):
        a = moving_disk_phantom(seed=1)
        b = moving_disk_phantom(seed=2)
        assert a.start != b.start

    def test_label_is_the_analytic_support(self):
        ph = moving_disk_phantom(dims=(32, 32, 17), radius=6.0, seed=3)
        xs = np.arange(32)[None, :]
        ys = np.arange(32)[:, None]
        for z in range(17):
            cx = ph.start[0] + z * ph.step[0]
            cy = ph.start[1] + z * ph.step[1]
            inside = (xs - cx) ** 2 + (ys - cy) ** 2 < ph.radius**2
            assert np.array_equal(ph.labels.data[z].astype(bool), inside)
            # intensity support matches the label support
            assert np.array_equal(ph.volume.data[z] > 0, inside)

    def test_centroid_follows_the_configured_line(self):
        ph = moving_disk_phantom(dims=(64, 64, 33), step=(0.75, 0.25), seed=4)
        xs = np.arange(64)[None, :]
        ys = np.arange(64)[:, None]
        for z in range(0, 33, 4):
            plane = ph.volume.data[z].astype(np.float64)
            cx = float((plane * xs).sum() / plane.sum())
            cy = float((plane * ys).sum() / plane.sum())
            assert abs(cx - (ph.start[0] + z * ph.step[0])) < 0.5
            assert abs(cy - (ph.start[1] + z * ph.step[1])) < 0.5

    def test_intensities_normalized(self):
        ph = moving_disk_phantom(seed=5)
        assert ph.volume.data.min() >= 0.0
        assert 0.9 < ph.volume.data.max() <= 1.0

    def test_size_validation(self):
        with pytest.raises(ParameterError):
            moving_disk_phantom(dims=(8, 64, 64))
        for dims in [(64.5, 64, 33), (64, 64), (64, 64, 33, 1), (64, 64, True), "64x64x33", None]:
            with pytest.raises(ParameterError, match="three integers"):
                moving_disk_phantom(dims=dims)

    @pytest.mark.parametrize("step", [(float("nan"), 0.0), (0.75, float("inf"))])
    def test_non_finite_step_rejected(self, step):
        with pytest.raises(ParameterError, match="step"):
            moving_disk_phantom(step=step)

    def test_size_over_the_voxel_limit_rejected(self):
        with pytest.raises(ParameterError, match="exceed the limit"):
            moving_disk_phantom(dims=(1 << 20, 1 << 20, 1 << 20))

    def test_path_must_fit(self):
        with pytest.raises(ParameterError):
            moving_disk_phantom(dims=(16, 16, 33), radius=7.0, step=(2.0, 0.0))

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError, match="seed"):
            moving_disk_phantom(seed=-1)
