"""Datasets: synthetic generators (determinism, moments, labels, the
pattern images against their per-sample oracle) and the IDX file format
reader (magic validation, truncation, scaling)."""

import struct

import numpy as np
import pytest

from aqvq.data import Dataset, DatasetSource, _patterns, load_idx, make_dataset, synth_dataset
from aqvq.errors import ConfigError, FormatError
from helpers import reference_patterns

RNG = np.random.default_rng


def idx_bytes(dtype_code, extents, payload):
    header = struct.pack(">BBBB", 0, 0, dtype_code, len(extents))
    header += struct.pack(f">{len(extents)}I", *extents)
    return header + bytes(payload)


class TestGaussianMixture:
    def test_zero_noise_single_cluster_collapses(self):
        src = DatasetSource(kind="synthetic_gaussian_mixture", clusters=1, dims=4,
                            samples=32, noise_sigma=0.0, seed=0)
        ds = synth_dataset(src)
        everything = np.vstack([ds.train, ds.val])
        np.testing.assert_array_equal(everything, np.tile(everything[0], (32, 1)))

    def test_same_seed_bit_identical(self):
        src = DatasetSource(clusters=3, dims=5, samples=64, seed=7)
        a, b = synth_dataset(src), synth_dataset(src)
        np.testing.assert_array_equal(a.train, b.train)
        np.testing.assert_array_equal(a.val, b.val)

    def test_different_seed_differs(self):
        a = synth_dataset(DatasetSource(samples=64, seed=1))
        b = synth_dataset(DatasetSource(samples=64, seed=2))
        assert not np.array_equal(a.train, b.train)

    def test_split_fraction(self):
        src = DatasetSource(samples=100, val_fraction=0.25, seed=3)
        ds = synth_dataset(src)
        assert ds.val.shape[0] == 25
        assert ds.train.shape[0] == 75

    def test_sample_mean_matches_mixture_mean(self):
        # Monte Carlo moment check against the generating centers
        src = DatasetSource(clusters=4, dims=4, samples=100_000, noise_sigma=0.1,
                            spread=1.0, seed=4, val_fraction=0.5)
        ds = synth_dataset(src)
        rng = np.random.default_rng(src.seed)
        centers = src.spread * rng.normal(size=(src.clusters, src.dims))
        mixture_mean = centers.mean(axis=0)
        per_coord_var = (src.noise_sigma**2
                         + ((centers - mixture_mean) ** 2).mean(axis=0))
        data = np.vstack([ds.train, ds.val])
        se = np.sqrt(per_coord_var / data.shape[0])
        assert np.all(np.abs(data.mean(axis=0) - mixture_mean) <= 3 * se)

    def test_validation(self):
        with pytest.raises(ConfigError):
            DatasetSource(clusters=0)
        with pytest.raises(ConfigError):
            DatasetSource(val_fraction=1.0)
        with pytest.raises(ConfigError):
            DatasetSource(kind="other")

    @pytest.mark.parametrize("field", ["noise_sigma", "spread"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            DatasetSource(**{field: value})


class TestPatterns:
    def test_shape_and_determinism(self):
        src = DatasetSource(kind="synthetic_patterns", samples=40, noise_sigma=0.02, seed=5)
        a, b = synth_dataset(src), synth_dataset(src)
        assert a.train.shape[1:] == (1, 8, 8)
        np.testing.assert_array_equal(a.train, b.train)

    def test_noise_free_values_in_unit_range(self):
        src = DatasetSource(kind="synthetic_patterns", samples=60, noise_sigma=0.0, seed=6)
        ds = synth_dataset(src)
        data = np.vstack([ds.train, ds.val])
        assert data.min() >= 0.0 and data.max() <= 1.0

    def test_patterns_vary(self):
        src = DatasetSource(kind="synthetic_patterns", samples=30, noise_sigma=0.0, seed=7)
        ds = synth_dataset(src)
        flat = ds.train.reshape(ds.train.shape[0], -1)
        assert np.unique(flat, axis=0).shape[0] > 5


    @pytest.mark.parametrize("noise_sigma", [0.0, 0.05])
    @pytest.mark.parametrize("samples", [2, 3, 7, 1024])
    @pytest.mark.parametrize("seed", [0, 5, 11, 97])
    def test_bulk_build_matches_per_sample_oracle(self, seed, samples, noise_sigma):
        src = DatasetSource(kind="synthetic_patterns", samples=samples,
                            noise_sigma=noise_sigma, seed=seed)
        ours, theirs = RNG(seed), RNG(seed)
        images, families = _patterns(src, ours)
        ref_images, ref_families = reference_patterns(src, theirs)
        assert images.tobytes() == ref_images.tobytes()
        np.testing.assert_array_equal(families, ref_families)
        # the same draws in the same order leave the generator in the same state
        assert ours.bit_generator.state == theirs.bit_generator.state


class TestLabels:
    @staticmethod
    def labelled_rows(src):
        ds = synth_dataset(src)
        assert ds.labels_train.shape == ds.train.shape[:1]
        assert ds.labels_val.shape == ds.val.shape[:1]
        return (np.concatenate([ds.train, ds.val]),
                np.concatenate([ds.labels_train, ds.labels_val]))

    def test_pattern_labels_are_families(self):
        src = DatasetSource(kind="synthetic_patterns", samples=300, noise_sigma=0.0, seed=3)
        data, labels = self.labelled_rows(src)
        assert set(labels.tolist()) == {0, 1, 2}
        # stripes and checkers are binary images; blobs are not
        assert set(np.unique(data[labels < 2]).tolist()) == {0.0, 1.0}
        assert not np.isin(data[labels == 2], (0.0, 1.0)).all()

    def test_mixture_labels_are_components(self):
        src = DatasetSource(clusters=5, dims=3, samples=200, noise_sigma=0.0, seed=4)
        data, labels = self.labelled_rows(src)
        assert set(labels.tolist()) == set(range(5))
        for label in range(5):
            rows = data[labels == label]
            np.testing.assert_array_equal(rows, np.broadcast_to(rows[0], rows.shape))
        assert np.unique(data, axis=0).shape[0] == 5


class TestLoadIdx:
    def test_image_file(self, tmp_path):
        path = tmp_path / "images.idx"
        path.write_bytes(idx_bytes(0x08, (2, 2, 2), range(8)))
        images = load_idx(str(path))
        assert images.shape == (2, 2, 2)
        np.testing.assert_allclose(images[1, 1, 1], 7 / 255.0)

    def test_label_file(self, tmp_path):
        images = tmp_path / "images.idx"
        labels = tmp_path / "labels.idx"
        images.write_bytes(idx_bytes(0x08, (3, 2, 2), range(12)))
        labels.write_bytes(idx_bytes(0x08, (3,), [1, 0, 2]))
        imgs, labs = load_idx(str(images), str(labels))
        assert imgs.shape == (3, 2, 2)
        assert labs.tolist() == [1, 0, 2]

    def test_wrong_magic_reports_bytes(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b"\x12\x34\x56\x78" + bytes(16))
        with pytest.raises(FormatError) as err:
            load_idx(str(path))
        assert "12345678" in str(err.value)

    def test_truncated_payload_reports_lengths(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(idx_bytes(0x08, (2, 2, 2), range(5)))  # needs 8 bytes
        with pytest.raises(FormatError) as err:
            load_idx(str(path))
        assert "5" in str(err.value) and "8" in str(err.value)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.idx"
        path.write_bytes(b"")
        with pytest.raises(FormatError):
            load_idx(str(path))

    def test_label_count_mismatch(self, tmp_path):
        images = tmp_path / "images.idx"
        labels = tmp_path / "labels.idx"
        images.write_bytes(idx_bytes(0x08, (2, 2, 2), range(8)))
        labels.write_bytes(idx_bytes(0x08, (3,), [0, 1, 2]))
        with pytest.raises(FormatError):
            load_idx(str(images), str(labels))


class TestMakeDataset:
    def test_idx_end_to_end(self, tmp_path):
        images = tmp_path / "images.idx"
        pixels = RNG(0).integers(0, 256, size=128).astype(np.uint8)
        images.write_bytes(idx_bytes(0x08, (8, 4, 4), pixels.tobytes()))
        src = DatasetSource(kind="idx_images", images_path=str(images),
                            val_fraction=0.25, seed=0)
        ds = make_dataset(src)
        assert ds.train.shape == (6, 1, 4, 4)
        assert ds.val.shape == (2, 1, 4, 4)
        assert ds.train.max() <= 1.0

    @pytest.mark.parametrize("count", [0, 1])
    def test_idx_needs_two_images(self, tmp_path, count):
        images = tmp_path / "images.idx"
        images.write_bytes(idx_bytes(0x08, (count, 2, 2), range(4 * count)))
        with pytest.raises(ConfigError, match="at least two images"):
            make_dataset(DatasetSource(kind="idx_images", images_path=str(images)))

    def test_idx_requires_path(self):
        with pytest.raises(ConfigError):
            DatasetSource(kind="idx_images")

    def test_synthetic_dispatch(self):
        ds = make_dataset(DatasetSource(samples=16, seed=1))
        assert isinstance(ds, Dataset)
        assert ds.sample_shape == (8,)
