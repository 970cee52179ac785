import json
import os

import numpy as np
import pytest

from asrkit import serialization as ser
from asrkit.errors import CheckpointError


def test_round_trip_preserves_bits(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "w.float32": rng.normal(size=(3, 4)).astype(np.float32),
        "b.float64": rng.normal(size=(7,)),
        "ids": rng.integers(0, 10, size=(2, 5)).astype(np.int64),
        "scalarish": np.array([1.5], dtype=np.float32),
    }
    ser.save_arrays(str(tmp_path), arrays)
    loaded = ser.load_arrays(str(tmp_path))
    assert set(loaded) == set(arrays)
    for name, a in arrays.items():
        assert loaded[name].dtype == a.dtype
        assert loaded[name].shape == a.shape
        assert np.array_equal(loaded[name], a)


def test_index_is_sorted_and_offsets_contiguous(tmp_path):
    arrays = {"z": np.zeros(3, dtype=np.float32),
              "a": np.ones((2, 2), dtype=np.float32),
              "m": np.arange(4, dtype=np.int64)}
    ser.save_arrays(str(tmp_path), arrays)
    index = json.load(open(tmp_path / ser.INDEX_FILE))
    names = list(index["arrays"])
    assert names == sorted(names)
    offset = 0
    for name in names:
        meta = index["arrays"][name]
        assert meta["offset"] == offset
        size = np.dtype(meta["dtype"]).itemsize
        for d in meta["shape"]:
            size *= d
        offset += size
    assert offset == os.path.getsize(tmp_path / ser.PARAMS_FILE)


def test_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(CheckpointError):
        ser.save_arrays(str(tmp_path),
                        {"h": np.zeros(2, dtype=np.float16)})


def test_truncated_blob_rejected(tmp_path):
    ser.save_arrays(str(tmp_path), {"w": np.ones(8, dtype=np.float64)})
    blob = tmp_path / ser.PARAMS_FILE
    blob.write_bytes(blob.read_bytes()[:-4])
    with pytest.raises(CheckpointError):
        ser.load_arrays(str(tmp_path))


def test_loading_holds_each_array_once(tmp_path):
    import tracemalloc
    rng = np.random.default_rng(5)
    arrays = {f"w{i}": rng.normal(size=(256, 256)).astype(np.float32)
              for i in range(8)}
    ser.save_arrays(str(tmp_path), arrays)
    total = sum(a.nbytes for a in arrays.values())
    tracemalloc.start()
    try:
        loaded = ser.load_arrays(str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(loaded[n].tobytes() == a.tobytes() for n, a in arrays.items())
    assert peak < total + 64 * 1024, (peak, total)


def test_trailing_bytes_rejected(tmp_path):
    ser.save_arrays(str(tmp_path), {"w": np.ones(8, dtype=np.float64)})
    blob = tmp_path / ser.PARAMS_FILE
    blob.write_bytes(blob.read_bytes() + b"\0" * 4)
    with pytest.raises(CheckpointError, match="4 trailing bytes"):
        ser.load_arrays(str(tmp_path))


def overlap_c_with_a(arrays):
    arrays["c"]["offset"] -= 4


def drop_a(arrays):
    del arrays["a"]


@pytest.mark.parametrize("edit,message", [
    (overlap_c_with_a, "'c' starts at byte 4"),
    (drop_a, "'b' starts at byte 8"),  # a gap where "a" was
])
def test_index_ranges_must_tile_the_params_file(tmp_path, edit, message):
    arrays = {"a": np.ones(2, dtype=np.float32),
              "b": np.zeros((0, 3), dtype=np.float64),
              "c": np.arange(3, dtype=np.int64)}
    ser.save_arrays(str(tmp_path), arrays)
    # zero-size arrays share an offset with their successor and load
    loaded = ser.load_arrays(str(tmp_path))
    assert all(loaded[n].tobytes() == a.tobytes() for n, a in arrays.items())
    index_path = tmp_path / ser.INDEX_FILE
    index = json.load(open(index_path))
    edit(index["arrays"])
    json.dump(index, open(index_path, "w"))
    with pytest.raises(CheckpointError, match=message):
        ser.load_arrays(str(tmp_path))


def test_a_params_file_of_another_checkpoint_does_not_load(tmp_path):
    # a save into A that stopped after params.bin leaves A's index over
    # B's bytes
    from conftest import DECODER_CFG, ENCODER_CFG, FRONTEND_CFG
    from oracles import tiny_vocab
    from asrkit.decoder import DecoderConfig
    from asrkit.encoder import EncoderConfig
    from asrkit.model import AsrModel, ModelConfig, load_model, save_model
    from asrkit.ssl import SslConfig
    for name, depth in (("A", 2), ("B", 6)):
        model = AsrModel(ModelConfig(frontend=SslConfig(**FRONTEND_CFG),
                                     encoder=EncoderConfig(**ENCODER_CFG),
                                     decoder=DecoderConfig(**DECODER_CFG),
                                     seed=7), tiny_vocab())
        model.encoder.grow(depth)
        save_model(str(tmp_path / name), model)
    load_model(str(tmp_path / "A"))
    (tmp_path / "A" / ser.PARAMS_FILE).write_bytes(
        (tmp_path / "B" / ser.PARAMS_FILE).read_bytes())
    with pytest.raises(CheckpointError, match="trailing bytes"):
        load_model(str(tmp_path / "A"))


def test_missing_index_rejected(tmp_path):
    with pytest.raises(CheckpointError):
        ser.load_arrays(str(tmp_path))


def test_json_round_trip(tmp_path):
    payload = {"b": 2, "a": [1, 2, 3], "nested": {"y": 0.5, "x": "s"}}
    ser.save_json(str(tmp_path), "config.json", payload)
    assert ser.load_json(str(tmp_path), "config.json") == payload


def test_missing_json_rejected(tmp_path):
    with pytest.raises(CheckpointError):
        ser.load_json(str(tmp_path), "config.json")


def test_index_entry_without_an_offset_does_not_load(tmp_path):
    ser.save_arrays(str(tmp_path), {"a": np.zeros(2, dtype=np.float32),
                                    "b": np.ones(3, dtype=np.float32)})
    index_path = tmp_path / ser.INDEX_FILE
    index = json.load(open(index_path))
    del index["arrays"]["b"]["offset"]
    json.dump(index, open(index_path, "w"))
    with pytest.raises(CheckpointError, match=r"'b' has no offset"):
        ser.load_arrays(str(tmp_path))


@pytest.mark.parametrize("field,value", [
    ("offset", "0"), ("shape", "2x3"), ("offset", -8), ("shape", [2, -3]),
    ("dtype", "<f2"),
])
def test_index_entry_with_a_bad_field_does_not_load(tmp_path, field, value):
    ser.save_arrays(str(tmp_path), {"w": np.zeros((2, 3), dtype=np.float32)})
    index_path = tmp_path / ser.INDEX_FILE
    index = json.load(open(index_path))
    index["arrays"]["w"][field] = value
    json.dump(index, open(index_path, "w"))
    with pytest.raises(CheckpointError, match=rf"'w' has a bad {field}"):
        ser.load_arrays(str(tmp_path))


def test_index_without_arrays_does_not_load(tmp_path):
    ser.save_arrays(str(tmp_path), {"a": np.zeros(2, dtype=np.float32)})
    json.dump({"tensors": {}}, open(tmp_path / ser.INDEX_FILE, "w"))
    with pytest.raises(CheckpointError, match="arrays"):
        ser.load_arrays(str(tmp_path))
