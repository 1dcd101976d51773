"""Round-trips and format details for the binary artifact files."""

import struct

import numpy as np
import pytest

from dkph import serial


class TestCheckpoint:
    def test_roundtrip_preserves_doubles_exactly(self, tmp_path):
        rng = np.random.default_rng(0)
        mats = {"encoder.w_in": rng.normal(size=(4, 6)),
                "bias": rng.normal(size=(1, 3)),
                "e_pos": rng.normal(size=(5, 2))}
        path = tmp_path / "model.ckpt"
        serial.save_checkpoint(path, mats)
        back = serial.load_checkpoint(path)
        assert set(back) == set(mats)
        for name in mats:
            np.testing.assert_array_equal(back[name], np.atleast_2d(mats[name]))

    def test_header_layout(self, tmp_path):
        path = tmp_path / "one.ckpt"
        serial.save_checkpoint(path, {"m": np.zeros((2, 2))})
        raw = path.read_bytes()
        assert raw[:4] == b"DKPM"
        version, count = struct.unpack("<II", raw[4:12])
        assert version == 1 and count == 1
        name_len = struct.unpack("<I", raw[12:16])[0]
        assert raw[16:16 + name_len] == b"m"

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"XXXX" + b"\0" * 32)
        with pytest.raises(ValueError):
            serial.load_checkpoint(path)


class TestFeatures:
    def test_roundtrip_is_float32_exact(self, tmp_path):
        x = np.random.default_rng(1).normal(size=(3, 4, 5))
        path = tmp_path / "x.feat"
        serial.save_features(path, x)
        back = serial.load_features(path)
        np.testing.assert_array_equal(back, x.astype(np.float32).astype(np.float64))

    def test_load_keeps_the_stored_float32(self, tmp_path):
        # training and encoding compute in the features' dtype, so widening
        # here would silently move the pipeline back to float64
        path = tmp_path / "x.feat"
        serial.save_features(path, np.ones((2, 3, 4)))
        assert serial.load_features(path).dtype == np.float32

    def test_header_carries_magic_and_dims(self, tmp_path):
        path = tmp_path / "x.feat"
        serial.save_features(path, np.zeros((7, 2, 9)))
        raw = path.read_bytes()
        assert raw[:4] == b"DKPH"
        version, n, m, d = struct.unpack("<IIII", raw[4:20])
        assert (version, n, m, d) == (1, 7, 2, 9)
        assert len(raw) == 20 + 7 * 2 * 9 * 4

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "x.feat"
        serial.save_features(path, np.zeros((2, 2, 2)))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(EOFError):
            serial.load_features(path)


class TestCodesAndLabels:
    def test_codes_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        packed = rng.integers(0, 256, size=(6, 3), dtype=np.uint8)
        path = tmp_path / "db.codes"
        serial.save_codes(path, packed, k=17)
        back, k = serial.load_codes(path)
        assert k == 17
        np.testing.assert_array_equal(back, packed)

    def test_codes_shape_validated(self, tmp_path):
        with pytest.raises(ValueError):
            serial.save_codes(tmp_path / "bad.codes", np.zeros((2, 3), dtype=np.uint8), k=8)

    def test_labels_roundtrip(self, tmp_path):
        path = tmp_path / "labels.txt"
        serial.save_labels(path, [3, 1, 4, 1, 5])
        np.testing.assert_array_equal(serial.load_labels(path), [3, 1, 4, 1, 5])


class TestGraphFile:
    def test_roundtrip_with_header(self, tmp_path):
        pos = [np.array([1, 2]), np.array([], dtype=np.int64), np.array([0])]
        neg = [np.array([2]), np.array([0, 2]), np.array([], dtype=np.int64)]
        path = tmp_path / "graph.bin"
        serial.save_graph(path, pos, neg, n_centers=4, p=2, alpha=0.75,
                          lambda1=2.0, lambda2=1.0, seed=99)
        rpos, rneg, header = serial.load_graph(path)
        assert header == dict(n=3, n_centers=4, p=2, alpha=0.75,
                              lambda1=2.0, lambda2=1.0, seed=99)
        for a, b in zip(pos, rpos):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(neg, rneg):
            np.testing.assert_array_equal(a, b)

    def test_magic(self, tmp_path):
        path = tmp_path / "graph.bin"
        serial.save_graph(path, [np.array([0])], [np.array([0])], n_centers=1,
                          p=1, alpha=1.0, lambda1=1.0, lambda2=1.0, seed=0)
        assert path.read_bytes()[:4] == b"DKPG"
