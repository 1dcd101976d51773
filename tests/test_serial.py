"""Round-trips and format details for the binary artifact files."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dkph import serial
from dkph.encoder import EncoderConfig
from dkph.student import init_student
from dkph.teacher import init_teacher


def write_read(path, arrays):
    serial.save_arrays(path, arrays)
    return serial.load_arrays(path)


def assert_same_arrays(back, arrays):
    assert list(back) == list(arrays)
    for name, a in arrays.items():
        assert back[name].dtype == a.dtype, name
        assert back[name].shape == a.shape, name
        assert back[name].tobytes() == a.tobytes(), name  # bitwise, NaN payloads too
        assert back[name].flags.owndata, name


ALLOWED = st.sampled_from(serial.DTYPES).map(lambda code: np.dtype("<" + code))
ARRAYS = hnp.arrays(ALLOWED, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))


class TestContainer:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(arrays=st.dictionaries(st.text(max_size=6), ARRAYS, max_size=4))
    def test_roundtrip_keeps_every_dtype_and_shape(self, tmp_path, arrays):
        assert_same_arrays(write_read(tmp_path / "a.bin", arrays), arrays)

    def test_every_allowed_dtype_as_scalar_and_empty(self, tmp_path):
        arrays = {}
        for code in serial.DTYPES:
            arrays[f"{code}_scalar"] = np.array(7, dtype="<" + code)
            arrays[f"{code}_empty"] = np.zeros((3, 0), dtype="<" + code)
        assert_same_arrays(write_read(tmp_path / "a.bin", arrays), arrays)

    def test_truncation_at_every_byte_raises_eof(self, tmp_path):
        path = tmp_path / "a.bin"
        serial.save_arrays(path, {"m": np.arange(6.0).reshape(2, 3), "s": np.int64(3),
                                  "e": np.zeros(0, np.uint8), "é": np.ones(2, np.float32)})
        raw = path.read_bytes()
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(EOFError):
                serial.load_arrays(path)

    def test_wrong_magic_version_or_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "a.bin"
        serial.save_arrays(path, {"m": np.zeros(2)})
        raw = path.read_bytes()
        bad_version = raw[:4] + struct.pack("<I", serial.VERSION + 1) + raw[8:]
        for bad in (b"XXXX" + raw[4:], bad_version, raw + b"\0"):
            path.write_bytes(bad)
            with pytest.raises(ValueError):
                serial.load_arrays(path)

    @pytest.mark.parametrize("dtype", [bool, np.float16, np.complex128, object, "U3"])
    def test_save_refuses_a_dtype_outside_the_allow_list(self, tmp_path, dtype):
        path = tmp_path / "a.bin"
        with pytest.raises(ValueError, match="dtype"):
            serial.save_arrays(path, {"x": np.zeros(2, dtype=dtype)})
        assert not path.exists()

    def test_load_refuses_a_dtype_outside_the_allow_list(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(serial.MAGIC + struct.pack("<II", serial.VERSION, 1)
                         + struct.pack("<I2sB", 1, b"b1", 1) + b"x"
                         + struct.pack("<Q", 2) + b"\x01\x00")
        with pytest.raises(ValueError, match="dtype"):
            serial.load_arrays(path)

    def test_a_kind_loader_refuses_another_kind(self, tmp_path):
        path = tmp_path / "x.codes"
        serial.save_codes(path, np.zeros((2, 1), dtype=np.uint8), k=8)
        with pytest.raises(ValueError, match="not a features file"):
            serial.load_features(path)


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

    @pytest.mark.parametrize("init", [init_teacher, init_student])
    def test_model_roundtrip_restores_the_init_dict(self, tmp_path, init):
        # every tensor comes back in its own shape and dtype, no cast needed
        cfg = EncoderConfig(frame_count=3, input_dim=5, model_dim=4)
        params = init(cfg, np.random.default_rng(1), code_bits=6)
        path = tmp_path / "model.ckpt"
        for dtype in (np.float64, np.float32):
            want = {name: arr.astype(dtype) for name, arr in params.items()}
            serial.save_checkpoint(path, want)
            assert_same_arrays(serial.load_checkpoint(path), want)

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

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_empty_rows_and_an_exact_header_roundtrip(self, tmp_path, n):
        # no edges at all; header values a 32-bit field would round
        header = dict(n_centers=2**40 + 1, p=3, alpha=0.1 + 0.2, lambda1=1e-300,
                      lambda2=2.0 / 3.0, seed=2**63 - 1)
        path = tmp_path / "graph.bin"
        serial.save_graph(path, [[]] * n, [[]] * n, **header)
        rpos, rneg, back = serial.load_graph(path)
        assert back == dict(n=n, **header)
        assert {key: type(v) for key, v in back.items()} == \
            {key: type(v) for key, v in dict(n=n, **header).items()}
        assert len(rpos) == len(rneg) == n
        assert all(r.size == 0 and r.dtype == np.int64 for r in rpos + rneg)
