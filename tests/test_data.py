"""IDX round-trips and format errors, blob generation, glyph fixtures."""

import struct

import numpy as np
import pytest

from sgdph import data


class TestIdxRoundTrip:
    def test_images_and_labels(self, tmp_path):
        images = np.arange(2 * 4 * 4, dtype=np.uint8).reshape(2, 4, 4)
        labels = np.array([3, 7], dtype=np.uint8)
        ip, lp = str(tmp_path / "img.idx"), str(tmp_path / "lab.idx")
        data.write_idx(ip, images)
        data.write_idx(lp, labels)
        ds = data.load_idx(ip, lp, ip, lp)
        assert ds.x_train.shape == (2, 1, 4, 4)
        np.testing.assert_allclose(ds.x_train[:, 0], images / 255.0, rtol=0, atol=0)
        np.testing.assert_array_equal(ds.y_train, [3, 7])
        assert ds.n_classes == 8
        assert ds.in_shape == (1, 4, 4)

    def test_subset_keeps_file_order(self, tmp_path):
        images = np.zeros((10, 2, 2), dtype=np.uint8)
        labels = np.arange(10, dtype=np.uint8)
        ip, lp = str(tmp_path / "img.idx"), str(tmp_path / "lab.idx")
        data.write_idx(ip, images)
        data.write_idx(lp, labels)
        ds = data.load_idx(ip, lp, ip, lp, subset_n=4)
        np.testing.assert_array_equal(ds.y_train, [0, 1, 2, 3])

    def test_big_endian_header(self, tmp_path):
        path = str(tmp_path / "lab.idx")
        data.write_idx(path, np.array([1], dtype=np.uint8))
        with open(path, "rb") as f:
            header = f.read(8)
        assert header == struct.pack(">II", data.LABELS_MAGIC, 1)

    def test_rejects_non_uint8(self, tmp_path):
        with pytest.raises(data.IdxFormatError, match="uint8"):
            data.write_idx(str(tmp_path / "x.idx"), np.zeros(3, dtype=np.float64))

    def test_rejects_2d_array(self, tmp_path):
        with pytest.raises(data.IdxFormatError, match="1-D or 3-D"):
            data.write_idx(str(tmp_path / "x.idx"), np.zeros((2, 2), dtype=np.uint8))


class TestIdxErrors:
    def _quad(self, tmp_path, n=3):
        images = np.zeros((n, 2, 2), dtype=np.uint8)
        labels = np.zeros(n, dtype=np.uint8)
        paths = {}
        for key, arr in (("ti", images), ("tl", labels), ("si", images), ("sl", labels)):
            paths[key] = str(tmp_path / f"{key}.idx")
            data.write_idx(paths[key], arr)
        return paths

    def test_bad_magic_names_both_values(self, tmp_path):
        paths = self._quad(tmp_path)
        with pytest.raises(data.IdxFormatError, match="0x00000801.*0x00000803"):
            data.load_idx(paths["tl"], paths["tl"], paths["si"], paths["sl"])

    def test_truncated_payload_names_byte_offset(self, tmp_path):
        paths = self._quad(tmp_path)
        with open(paths["ti"], "rb") as f:
            raw = f.read()
        with open(paths["ti"], "wb") as f:
            f.write(raw[:-5])
        with pytest.raises(data.IdxFormatError, match="byte offset 16"):
            data.load_idx(paths["ti"], paths["tl"], paths["si"], paths["sl"])

    def test_truncated_header(self, tmp_path):
        path = str(tmp_path / "short.idx")
        with open(path, "wb") as f:
            f.write(b"\x00\x00")
        with pytest.raises(data.IdxFormatError, match="magic"):
            data.load_idx(path, path, path, path)

    def test_trailing_bytes_rejected(self, tmp_path):
        paths = self._quad(tmp_path)
        with open(paths["tl"], "ab") as f:
            f.write(b"\x00")
        with pytest.raises(data.IdxFormatError, match="after payload"):
            data.load_idx(paths["ti"], paths["tl"], paths["si"], paths["sl"])

    def test_count_mismatch(self, tmp_path):
        paths = self._quad(tmp_path)
        short = str(tmp_path / "short-labels.idx")
        data.write_idx(short, np.zeros(2, dtype=np.uint8))
        with pytest.raises(data.IdxFormatError, match="count mismatch"):
            data.load_idx(paths["ti"], short, paths["si"], paths["sl"])


class TestBlobs:
    def test_deterministic(self):
        a = data.gen_blobs(100, seed=7)
        b = data.gen_blobs(100, seed=7)
        np.testing.assert_array_equal(a.x_train, b.x_train)
        np.testing.assert_array_equal(a.y_test, b.y_test)

    def test_seed_changes_samples(self):
        a = data.gen_blobs(100, seed=7)
        b = data.gen_blobs(100, seed=8)
        assert np.any(a.x_train != b.x_train)

    def test_stride_split(self):
        ds = data.gen_blobs(100, classes=4)
        assert ds.x_train.shape == (80, 2) and ds.x_test.shape == (20, 2)
        # every 5th example is test, so test labels follow indices 4, 9, 14, ...
        np.testing.assert_array_equal(ds.y_test, (np.arange(4, 100, 5) % 4))

    def test_zero_noise_sits_on_centers(self):
        ds = data.gen_blobs(40, dims=2, classes=4, noise=0.0)
        xs = np.concatenate([ds.x_train, ds.x_test])
        ys = np.concatenate([ds.y_train, ds.y_test])
        for c in range(4):
            center = np.zeros(2)
            center[c % 2] = 3.0 * (1 + c // 2)
            np.testing.assert_array_equal(xs[ys == c], np.tile(center, (10, 1)))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="classes"):
            data.gen_blobs(10, classes=1)
        with pytest.raises(ValueError, match="noise"):
            data.gen_blobs(10, noise=-0.1)
        # fewer than 5 examples leave the every-5th test split empty
        with pytest.raises(ValueError, match="n=4"):
            data.gen_blobs(4)
        with pytest.raises(ValueError, match="dims=0"):
            data.gen_blobs(10, dims=0)

    def test_label_balance(self):
        ds = data.gen_blobs(200, classes=4)
        counts = np.bincount(np.concatenate([ds.y_train, ds.y_test]), minlength=4)
        np.testing.assert_array_equal(counts, [50, 50, 50, 50])


class TestDigits:
    def test_deterministic(self):
        xa, ya = data.gen_digits(20, seed=3)
        xb, yb = data.gen_digits(20, seed=3)
        np.testing.assert_array_equal(xa, xb)
        np.testing.assert_array_equal(ya, yb)

    def test_labels_cycle(self):
        _, y = data.gen_digits(25)
        np.testing.assert_array_equal(y, np.arange(25) % 10)

    def test_shape_and_range(self):
        x, _ = data.gen_digits(5)
        assert x.shape == (5, 28, 28) and x.dtype == np.uint8

    def test_glyphs_are_distinct(self):
        arrays = [data._glyph_array(d) for d in range(10)]
        for i in range(10):
            for j in range(i + 1, 10):
                assert np.any(arrays[i] != arrays[j])

    def test_fixture_round_trips(self, tmp_path):
        paths = data.write_digits_fixture(str(tmp_path), n_train=30, n_test=20, seed=0)
        ds = data.load_idx(paths["train_images"], paths["train_labels"],
                           paths["test_images"], paths["test_labels"])
        assert ds.x_train.shape == (30, 1, 28, 28)
        assert ds.x_test.shape == (20, 1, 28, 28)
        assert ds.n_classes == 10
        assert 0.0 <= ds.x_train.min() and ds.x_train.max() <= 1.0
        # train and test use different seeds
        assert np.any(ds.x_train[:20] != ds.x_test)
