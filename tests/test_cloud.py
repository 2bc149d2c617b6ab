import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srkd import cloud as cloudmod
from srkd.cloud import (IGNORE_LABEL, PointCloud, SceneSpec, generate_scene,
                        read_cloud, resample_fixed, write_cloud)
from srkd.errors import ConfigError, ParseError


def small_cloud(n=12, d=2, c=4, seed=0):
    rng = np.random.default_rng(seed)
    return PointCloud(positions=rng.standard_normal((n, 3)),
                      features=rng.standard_normal((n, d)),
                      labels=rng.integers(0, c, n).astype(np.int64),
                      n_classes=c, id=f"cloud-{seed}")


class TestSceneGeneration:
    def test_deterministic(self):
        spec = SceneSpec(seed=7)
        a = generate_scene(spec, 0)
        b = generate_scene(spec, 0)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_spec_echo(self):
        spec = SceneSpec(n_classes=8, points_per_scene=2048)
        cloud = generate_scene(spec, 0)
        assert cloud.positions.shape == (2048, 3)
        assert set(np.unique(cloud.labels)) <= set(range(8))

    def test_distinct_indices_differ(self):
        spec = SceneSpec(seed=3)
        a = generate_scene(spec, 0)
        b = generate_scene(spec, 1)
        assert not np.array_equal(a.positions, b.positions)

    def test_geometric_decay_imbalance(self):
        # class 0 should outnumber class 7 in nearly every seeded scene
        hits = 0
        for seed in range(100):
            cloud = generate_scene(SceneSpec(seed=seed, decay_ratio=0.7), 0)
            counts = np.bincount(cloud.labels, minlength=8)
            hits += counts[0] > counts[7]
        assert hits >= 95

    def test_all_classes_present(self):
        cloud = generate_scene(SceneSpec(seed=1), 0)
        assert np.bincount(cloud.labels, minlength=8).min() > 0

    def test_invalid_spec(self):
        with pytest.raises(ConfigError):
            SceneSpec(n_classes=0)
        with pytest.raises(ConfigError):
            SceneSpec(radial_extent=-1.0)
        with pytest.raises(ConfigError):
            SceneSpec(label_fraction=0.0)
        with pytest.raises(ConfigError):
            SceneSpec(label_fraction=1.5)
        with pytest.raises(ConfigError):
            SceneSpec(label_noise=1.0)
        with pytest.raises(ConfigError):
            SceneSpec(cue_noise=-0.1)

    @pytest.mark.parametrize("field", ["radial_extent", "height_extent",
                                       "noise_std", "decay_ratio",
                                       "label_fraction", "label_noise",
                                       "cue_noise"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_setting_rejected(self, field, value):
        with pytest.raises(ConfigError, match="finite"):
            SceneSpec(**{field: value})

    def test_label_fraction_hides_labels(self):
        spec = SceneSpec(seed=4, points_per_scene=2048, label_fraction=0.25)
        cloud = generate_scene(spec, 0)
        labeled = cloud.labels != IGNORE_LABEL
        assert int(labeled.sum()) == round(0.25 * 2048)
        # geometry and features are identical to the fully-labeled scene,
        # and the surviving labels agree with it
        full = generate_scene(SceneSpec(seed=4, points_per_scene=2048), 0)
        np.testing.assert_array_equal(cloud.positions, full.positions)
        np.testing.assert_array_equal(cloud.features, full.features)
        np.testing.assert_array_equal(cloud.labels[labeled], full.labels[labeled])

    def test_label_fraction_one_is_dense(self):
        cloud = generate_scene(SceneSpec(seed=4, label_fraction=1.0), 0)
        assert np.all(cloud.labels != IGNORE_LABEL)

    def test_label_noise_flips_to_wrong_class(self):
        spec = SceneSpec(seed=4, points_per_scene=2048, label_noise=0.3)
        cloud = generate_scene(spec, 0)
        clean = generate_scene(SceneSpec(seed=4, points_per_scene=2048), 0)
        np.testing.assert_array_equal(cloud.positions, clean.positions)
        flipped = cloud.labels != clean.labels
        frac = flipped.mean()
        assert 0.2 < frac < 0.4
        # a flip never lands on the original class and stays a valid label
        assert np.all(cloud.labels < spec.n_classes)
        assert np.all(cloud.labels[flipped] != clean.labels[flipped])

    def test_label_noise_zero_is_clean(self):
        noisy = generate_scene(SceneSpec(seed=4, label_noise=0.0), 0)
        clean = generate_scene(SceneSpec(seed=4), 0)
        np.testing.assert_array_equal(noisy.labels, clean.labels)

    def test_label_noise_spares_hidden_labels(self):
        spec = SceneSpec(seed=4, points_per_scene=2048,
                         label_fraction=0.5, label_noise=0.5)
        cloud = generate_scene(spec, 0)
        hidden = cloud.labels == IGNORE_LABEL
        assert int((~hidden).sum()) == round(0.5 * 2048)
        assert np.all(cloud.labels[~hidden] < spec.n_classes)


class TestResample:
    def test_subsample(self):
        cloud = generate_scene(SceneSpec(points_per_scene=2048), 0)
        sample = resample_fixed(cloud, 1024, seed=5)
        assert sample.mask.all()
        assert sample.cloud.positions.shape == (1024, 3)

    def test_padding(self):
        cloud = small_cloud(n=1000, seed=2)
        sample = resample_fixed(cloud, 1024, seed=5)
        assert int(sample.mask.sum()) == 1000
        pad = ~sample.mask
        assert pad.sum() == 24
        assert np.all(sample.cloud.positions[pad] == 0.0)
        assert np.all(sample.cloud.labels[pad] == IGNORE_LABEL)

    def test_identity_size(self):
        cloud = small_cloud(n=16)
        sample = resample_fixed(cloud, 16, seed=5)
        assert sample.mask.all()
        got = {tuple(p) for p in sample.cloud.positions}
        want = {tuple(p) for p in cloud.positions}
        assert got == want

    @given(n=st.integers(1, 300), n_fixed=st.integers(1, 300),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_invariants_hold(self, n, n_fixed, seed):
        sample = resample_fixed(small_cloud(n=n, seed=1), n_fixed, seed)
        assert sample.cloud.positions.shape[0] == n_fixed
        assert int(sample.mask.sum()) == min(n, n_fixed)


class TestIO:
    @pytest.mark.parametrize("suffix", [".pcbin"])
    def test_round_trip(self, tmp_path, suffix):
        cloud = small_cloud(n=20, seed=9)
        path = tmp_path / f"c{suffix}"
        write_cloud(cloud, path)
        back = read_cloud(path)
        np.testing.assert_array_equal(back.positions, cloud.positions)
        np.testing.assert_array_equal(back.features, cloud.features)
        np.testing.assert_array_equal(back.labels, cloud.labels)
        assert back.n_classes == cloud.n_classes

    @pytest.mark.parametrize("n, d", [(1, 0xFFFFFFFF), (1, 2**28), (0, 0xFFFFFFFF)])
    def test_binary_header_sizes_checked(self, tmp_path, n, d):
        path = tmp_path / "h.pcbin"
        path.write_bytes(b"PCB1" + struct.pack("<III", n, d, 4))
        with pytest.raises(ParseError):
            read_cloud(path)

    def test_binary_write_is_stable(self, tmp_path):
        cloud = small_cloud(n=20, seed=9)
        p1, p2 = tmp_path / "a.pcbin", tmp_path / "b.pcbin"
        write_cloud(cloud, p1)
        write_cloud(read_cloud(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("suffix", [".pcbin"])
    def test_interrupted_rewrite_keeps_previous_file(self, tmp_path, suffix,
                                                     monkeypatch):
        path = tmp_path / f"c{suffix}"
        write_cloud(small_cloud(n=20, seed=1), path)
        before = path.read_bytes()

        class InterruptedFile:
            """Passes the first two writes through, then raises."""

            def __init__(self, f):
                self.f, self.writes = f, 0

            def write(self, data):
                self.writes += 1
                if self.writes == 3:
                    raise KeyboardInterrupt
                return self.f.write(data)

            def __getattr__(self, name):
                return getattr(self.f, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.f.__exit__(*exc)

        monkeypatch.setattr(cloudmod, "open",
                            lambda *a, **kw: InterruptedFile(open(*a, **kw)),
                            raising=False)
        with pytest.raises(KeyboardInterrupt):
            write_cloud(small_cloud(n=20, seed=2), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    @pytest.mark.parametrize("suffix", [".pctxt", ".ply", ""])
    def test_unknown_suffix_rejected(self, tmp_path, suffix):
        path = tmp_path / f"c{suffix}"
        with pytest.raises(ConfigError, match="extension"):
            write_cloud(small_cloud(), path)
        assert not path.exists()
        path.write_bytes(b"")
        with pytest.raises(ConfigError, match="extension"):
            read_cloud(path)

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "c.pcbin"
        write_cloud(small_cloud(n=3, c=8), path)
        raw = bytearray(path.read_bytes())
        raw[-2:] = struct.pack("<H", 9)  # the last record's label
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="label 9 out of range"):
            read_cloud(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "c.pcbin"
        path.write_text("WRONG\n")
        with pytest.raises(ParseError, match="magic"):
            read_cloud(path)
