"""Round-trips and format details for the binary artifact files."""

import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dkph import serial
from dkph.codes import pack_bits
from dkph.config import RunConfig
from dkph.student import init_student
from dkph.teacher import init_teacher
from test_graph import graph_from_rows


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

    def test_a_size_field_past_the_end_raises_eof_before_reading(self, tmp_path):
        # the array's shape field claims 2**62 float64 values; only 16 bytes follow
        path = tmp_path / "a.bin"
        path.write_bytes(serial.MAGIC + struct.pack("<II", serial.VERSION, 1)
                         + struct.pack("<I2sB", 1, b"f8", 1) + b"x"
                         + struct.pack("<Q", 1 << 62) + bytes(16))
        with pytest.raises(EOFError, match=f"wanted {8 << 62} bytes, 16 left"):
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

    def test_a_repeated_array_name_raises_naming_the_path(self, tmp_path):
        # once loaded as the second array: (2, 2, 3) where the first was (1, 2, 3)
        path = tmp_path / "a.features"
        serial.save_arrays(path, {"features": np.zeros((1, 2, 3), np.float32),
                                  "featureZ": np.ones((2, 2, 3), np.float32)})
        path.write_bytes(path.read_bytes().replace(b"featureZ", b"features"))
        for load in (serial.load_arrays, serial.load_features):
            with pytest.raises(ValueError, match=re.escape(f"{path}: array name 'features'")):
                load(path)

    def test_a_name_that_is_not_utf8_raises_naming_the_path(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(serial.MAGIC + struct.pack("<II", serial.VERSION, 1)
                         + struct.pack("<I2sB", 1, b"f8", 1) + b"\xff"
                         + struct.pack("<Q", 1) + bytes(8))
        with pytest.raises(ValueError, match=re.escape(f"{path}: an array name is not UTF-8")):
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
        cfg = RunConfig(frames=3, feat_dim=5, model_dim=4, teacher_bits=6)
        rng = np.random.default_rng(1)
        params = init(cfg, rng) if init is init_teacher else init(cfg, rng, 6)
        path = tmp_path / "model.ckpt"
        for dtype in (np.float64, np.float32):
            want = {name: arr.astype(dtype) for name, arr in params.items()}
            serial.save_checkpoint(path, want)
            assert_same_arrays(serial.load_checkpoint(path), want)

    def test_checkpoint_names_are_not_the_container(self, tmp_path, monkeypatch):
        # a tracer rebinds every name bound to a function it wraps; bound to
        # the container itself, the checkpoint names once took in every read
        # and write of every kind
        def refuse(*args):
            raise AssertionError("a features round trip read or wrote a checkpoint")

        for name in ("save_checkpoint", "load_checkpoint"):
            target = getattr(serial, name)
            for attr, value in list(vars(serial).items()):
                if value is target:
                    monkeypatch.setattr(serial, attr, refuse)
        x = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        serial.save_features(tmp_path / "x.features", x)
        np.testing.assert_array_equal(serial.load_features(tmp_path / "x.features"), x)

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

    @pytest.mark.parametrize("features", [np.zeros((3, 4, 6)), np.zeros((3, 4), np.float32)],
                             ids=["float64", "2-d"])
    def test_load_refuses_what_save_does_not_write(self, tmp_path, features):
        # a float64 file would train and encode in float64 downstream
        path = tmp_path / "x.feat"
        serial.save_arrays(path, {"features": features})
        with pytest.raises(ValueError, match=re.escape(str(path))):
            serial.load_features(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "x.feat"
        serial.save_features(path, np.zeros((2, 2, 2)))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(EOFError):
            serial.load_features(path)


class TestCodesAndLabels:
    def test_codes_roundtrip(self, tmp_path):
        bits = np.where(np.random.default_rng(2).random((6, 17)) > 0.5, 1, -1)
        packed = pack_bits(bits)
        path = tmp_path / "db.codes"
        serial.save_codes(path, packed, k=17)
        back, k = serial.load_codes(path)
        assert k == 17
        np.testing.assert_array_equal(back, packed)

    def test_codes_shape_validated(self, tmp_path):
        with pytest.raises(ValueError):
            serial.save_codes(tmp_path / "bad.codes", np.zeros((2, 3), dtype=np.uint8), k=8)

    @pytest.mark.parametrize("packed, k", [
        (np.zeros((3, 2), np.uint8), np.int64(40)),   # 40 bits need 5 bytes per row
        (np.zeros((3, 0), np.uint8), np.int64(0)),
        (np.zeros((3, 1), np.uint8), np.array([8])),
        (np.zeros((3, 1), np.uint8), np.float64(8.0)),
        (np.zeros(3, np.uint8), np.int64(8)),
        (np.zeros((3, 1), np.int8), np.int64(8)),
    ], ids=["rows-too-short", "k-0", "k-not-scalar", "k-float", "rows-1-d", "rows-int8"])
    def test_load_codes_checks_the_container_as_save_does(self, tmp_path, packed, k):
        path = tmp_path / "bad.codes"
        serial.save_arrays(path, {"packed": packed, "k": k})
        with pytest.raises(ValueError, match=re.escape(str(path))):
            serial.load_codes(path)

    def test_labels_roundtrip(self, tmp_path):
        path = tmp_path / "a.labels"
        serial.save_labels(path, [3, 1, 4, 1, 5])
        np.testing.assert_array_equal(serial.load_labels(path), [3, 1, 4, 1, 5])
        serial.save_labels(path, np.zeros(0, dtype=np.uint16))
        got = serial.load_labels(path)
        assert (got.dtype, got.shape) == (np.int64, (0,))

    @pytest.mark.parametrize("text", ["3\n1\n4\n", "\n  3\n1 \n\n\t4\r\n \n"],
                             ids=["lines", "whitespace"])
    def test_labels_refuse_the_old_text_format(self, tmp_path, text):
        path = tmp_path / "a.labels"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            serial.load_labels(path)

    @pytest.mark.parametrize("labels", [np.zeros(3), np.zeros((2, 2), np.int64),
                                        np.zeros(3, np.uint8)],
                             ids=["float64", "2-D", "uint8"])
    def test_load_labels_refuses_a_container_save_does_not_write(self, tmp_path, labels):
        path = tmp_path / "a.labels"
        serial.save_arrays(path, {"labels": labels})
        with pytest.raises(ValueError, match=re.escape(f"{path}: labels array 'labels'")):
            serial.load_labels(path)

    def test_save_labels_refuses_a_label_int64_cannot_hold(self, tmp_path):
        path = tmp_path / "a.labels"
        with pytest.raises(ValueError, match=re.escape(f"{path}: label {2**63} ")):
            serial.save_labels(path, np.array([1, 2**63], dtype=np.uint64))
        assert not path.exists()
        serial.save_labels(path, np.array([1, 2**63 - 1], dtype=np.uint64))
        np.testing.assert_array_equal(serial.load_labels(path), [1, 2**63 - 1])

    @pytest.mark.parametrize("labels", [[0.7, 1.9, -0.5], np.zeros(3), [True, False],
                                        np.zeros((2, 2), dtype=np.int64)],
                             ids=["fractional", "float-integers", "bool", "2-D"])
    def test_save_labels_refuses_non_integer_or_non_1d_labels(self, tmp_path, labels):
        # [0.7, 1.9, -0.5] was once saved as 0 1 0, and a (2, 2) array as 4 labels
        path = tmp_path / "labels.txt"
        with pytest.raises(ValueError, match=re.escape(str(path))):
            serial.save_labels(path, labels)
        assert not path.exists()
        serial.save_labels(path, np.array([2, 0, 7], dtype=np.uint8))
        got = serial.load_labels(path)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, [2, 0, 7])

    @pytest.mark.parametrize("token", ["1.5", "x", "2e3"])
    def test_labels_reject_a_non_integer_token(self, tmp_path, token):
        path = tmp_path / "labels.txt"
        path.write_text(f"3\n{token}\n1\n")
        with pytest.raises(ValueError):
            serial.load_labels(path)


def assert_graph_roundtrips(path, positives, negatives):
    g = graph_from_rows(positives, negatives)
    serial.save_graph(path, g)
    back = serial.load_graph(path)
    assert back.n == len(positives)
    assert back.offsets.dtype == back.indices.dtype == np.int64
    np.testing.assert_array_equal(back.offsets, g.offsets)
    np.testing.assert_array_equal(back.indices, g.indices)
    assert [r.tolist() for r in back.positives] == positives
    assert [r.tolist() for r in back.negatives] == negatives


class TestGraphFile:
    def test_roundtrip(self, tmp_path):
        assert_graph_roundtrips(tmp_path / "graph.bin", [[1, 2], [], [0], [0, 1, 2]],
                                [[3], [0, 2], [], []])

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_empty_rows_roundtrip(self, tmp_path, n):
        assert_graph_roundtrips(tmp_path / "graph.bin", [[]] * n, [[]] * n)

    @pytest.mark.parametrize("empty", ["positives", "negatives"])
    def test_one_empty_side_roundtrips(self, tmp_path, empty):
        rows = [[[1], [0], [3], [2]], [[]] * 4]
        assert_graph_roundtrips(tmp_path / "graph.bin",
                                *(rows[::-1] if empty == "positives" else rows))

    def test_file_holds_the_offsets_and_uint32_indices(self, tmp_path):
        serial.save_graph(tmp_path / "graph.bin",
                          graph_from_rows([[1, 2], [], [0]], [[2], [0, 2], []]))
        serial.save_arrays(tmp_path / "want.bin", {
            "offsets": np.array([[0, 2, 2, 3], [3, 4, 6, 6]], dtype=np.int64),
            "indices": np.array([1, 2, 0, 2, 0, 2], dtype=np.uint32)})
        assert (tmp_path / "graph.bin").read_bytes() == (tmp_path / "want.bin").read_bytes()

    @staticmethod
    def two_video_arrays():
        # video 0's positive edge to 1, then video 1's negative edge to 0
        return {"offsets": np.array([[0, 1, 1], [1, 1, 2]], dtype=np.int64),
                "indices": np.array([1, 0], dtype=np.uint32)}

    @pytest.mark.parametrize("name, value", [
        ("indices", [2, 0]), ("indices", [1, 7]),
        ("offsets", [0, 1, 2]), ("offsets", [[0, 1, 1], [1, 1, 2], [2, 2, 2]]),
        ("offsets", [[1, 1, 1], [1, 1, 2]]), ("offsets", [[0, 1, 0], [0, 1, 2]]),
        ("offsets", [[0, 1, 1], [2, 2, 2]]), ("offsets", [[0, 1, 1], [1, 1, 1]]),
    ], ids=["pos-edge-past-n", "neg-edge-past-n", "offsets-1-d", "offsets-of-three-rows",
            "offsets-not-from-0", "offsets-decreasing", "side-1-not-where-side-0-ends",
            "last-offset-not-the-edge-count"])
    def test_a_damaged_graph_raises_naming_the_file(self, tmp_path, name, value):
        path = tmp_path / "graph.bin"
        serial.save_arrays(path, self.two_video_arrays())
        assert serial.load_graph(path).n == 2
        arrays = self.two_video_arrays()
        arrays[name] = np.array(value, dtype=arrays[name].dtype)
        serial.save_arrays(path, arrays)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            serial.load_graph(path)

    @pytest.mark.parametrize("indices", [np.array([1.7, 0.2, 1.9]), np.array([1, 0, 1])],
                             ids=["float64", "int64"])
    def test_indices_not_uint32_raise_naming_the_file(self, tmp_path, indices):
        # float64 indices would load truncated, [1.7, 0.2, 1.9] as [1, 0, 1]
        path = tmp_path / "graph.bin"
        serial.save_arrays(path, {"offsets": np.array([[0, 2, 2], [2, 2, 3]], dtype=np.int64),
                                  "indices": indices})
        with pytest.raises(ValueError, match=re.escape(f"{path}: graph array 'indices' must be")):
            serial.load_graph(path)

    def test_int32_offsets_raise_naming_the_file(self, tmp_path):
        path = tmp_path / "graph.bin"
        arrays = self.two_video_arrays()
        serial.save_arrays(path, {**arrays, "offsets": arrays["offsets"].astype(np.int32)})
        with pytest.raises(ValueError, match=re.escape(str(path))):
            serial.load_graph(path)

    def test_a_four_array_file_of_the_per_side_layout_raises_naming_the_file(self, tmp_path):
        # the layout before the file held SignedGraph's own two arrays
        path = tmp_path / "graph.bin"
        serial.save_arrays(path, {
            "pos_offsets": np.array([0, 1, 1], dtype=np.int64),
            "pos_indices": np.array([1], dtype=np.uint32),
            "neg_offsets": np.array([0, 0, 1], dtype=np.int64),
            "neg_indices": np.array([0], dtype=np.uint32)})
        with pytest.raises(ValueError, match=re.escape(f"{path}: not a graph file")):
            serial.load_graph(path)
