"""Checkpoint directory format.

A checkpoint directory holds:
  index.json   — {"arrays": {name: {"shape", "dtype", "offset"}}} with
                 names sorted, offsets into params.bin
  params.bin   — the arrays' raw little-endian bytes, concatenated in
                 index order
  config.json  — model/build configuration (written by the caller)
  vocab.json   — the model's vocabulary (model checkpoints only)
  train_state.json — optional training progress (written by the caller)

Round-tripping an array dict through save/load is bit-exact.  An
index.json without its "arrays" object, or an entry with a field that
is missing or bad (an unknown dtype code, a shape that is not a list of
ints >= 0, an offset that is not an int >= 0), raises CheckpointError
naming the array and the field.  The index's byte ranges must tile
params.bin exactly, as save_arrays writes them: in offset order each
array starts where the previous one ended, and the last ends at the
file's end.  Otherwise CheckpointError names the first array out of
place or the trailing bytes, so a params.bin that belongs to another
index does not load.
"""

import json
import math
import os

import numpy as np

from .errors import CheckpointError, ValidationError

_DTYPES = {"<f4": np.dtype("<f4"), "<f8": np.dtype("<f8"),
           "<i8": np.dtype("<i8")}

INDEX_FILE = "index.json"
PARAMS_FILE = "params.bin"
CONFIG_FILE = "config.json"
VOCAB_FILE = "vocab.json"
STATE_FILE = "train_state.json"


def save_arrays(directory: str, arrays: dict[str, np.ndarray]) -> None:
    """Write index.json + params.bin for a name -> array mapping."""
    os.makedirs(directory, exist_ok=True)
    index = {}
    offset = 0
    names = sorted(arrays)
    blobs = []
    for name in names:
        arr = np.ascontiguousarray(arrays[name])
        if arr.dtype == np.float32:
            code = "<f4"
        elif arr.dtype == np.float64:
            code = "<f8"
        elif arr.dtype == np.int64:
            code = "<i8"
        else:
            raise CheckpointError(
                f"unsupported dtype {arr.dtype} for array {name!r}")
        raw = arr.astype(_DTYPES[code], copy=False).tobytes()
        index[name] = {"shape": list(arr.shape), "dtype": code,
                       "offset": offset}
        offset += len(raw)
        blobs.append(raw)
    with open(os.path.join(directory, PARAMS_FILE), "wb") as fh:
        for raw in blobs:
            fh.write(raw)
    with open(os.path.join(directory, INDEX_FILE), "w", encoding="utf-8") as fh:
        json.dump({"arrays": index}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _nonneg_int(value) -> bool:
    # JSON true/false load as bools, which Python also counts as ints
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 0


def load_index(directory: str) -> dict[str, dict]:
    """index.json's {name: {"dtype", "shape", "offset"}} map, with every
    field present and well-formed; CheckpointError names the array and
    the field otherwise."""
    index_path = os.path.join(directory, INDEX_FILE)
    index = load_json(directory, INDEX_FILE).get("arrays")
    if not isinstance(index, dict):
        raise CheckpointError(f"{index_path} has no \"arrays\" object")
    for name, meta in index.items():
        missing = [field for field in ("dtype", "shape", "offset")
                   if not isinstance(meta, dict) or field not in meta]
        if missing:
            raise CheckpointError(
                f"{index_path}: array {name!r} has no "
                f"{', '.join(missing)}")
        dtype, shape, offset = meta["dtype"], meta["shape"], meta["offset"]
        for field, ok in (
                ("dtype", isinstance(dtype, str) and dtype in _DTYPES),
                ("shape", isinstance(shape, list)
                 and all(_nonneg_int(d) for d in shape)),
                ("offset", _nonneg_int(offset))):
            if not ok:
                raise CheckpointError(
                    f"{index_path}: array {name!r} has a bad {field} "
                    f"{meta[field]!r}")
    return index


def load_arrays(directory: str, check=None) -> dict[str, np.ndarray]:
    """The checkpoint's arrays by name.  check, when given, is called
    with the index's {name: shape} map before params.bin is read, so
    that a caller's fault, such as a missing array, is named first."""
    index_path = os.path.join(directory, INDEX_FILE)
    params_path = os.path.join(directory, PARAMS_FILE)
    if not os.path.isfile(index_path) or not os.path.isfile(params_path):
        raise CheckpointError(
            f"{directory!r} is not a checkpoint directory "
            f"(missing {INDEX_FILE} or {PARAMS_FILE})")
    index = load_index(directory)
    if check is not None:
        check({name: tuple(meta["shape"]) for name, meta in index.items()})
    with open(params_path, "rb") as fh:
        blob = fh.read()
    out = {}
    end = 0
    # offset order; a zero-size array sorts before the array that shares
    # its offset
    for name, meta in sorted(index.items(), key=lambda item: (
            item[1]["offset"], math.prod(item[1]["shape"]))):
        dtype = _DTYPES[meta["dtype"]]
        shape = tuple(meta["shape"])
        start = meta["offset"]
        if start != end:
            raise CheckpointError(
                f"array {name!r} starts at byte {start} of {PARAMS_FILE}, "
                f"not where the previous array ends ({end})")
        end = start + math.prod(shape) * dtype.itemsize
        if end > len(blob):
            raise CheckpointError(
                f"array {name!r} extends past the end of {PARAMS_FILE}")
        out[name] = np.frombuffer(
            blob[start:end], dtype=dtype).reshape(shape).copy()
    if end != len(blob):
        raise CheckpointError(
            f"{PARAMS_FILE} has {len(blob) - end} trailing bytes past the "
            f"last array of {INDEX_FILE}")
    return out


def save_json(directory: str, filename: str, payload: dict) -> None:
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, filename), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def metrics_row(row: dict) -> str:
    """One metrics.jsonl line (without the newline) for both training
    loops.  A non-finite value, such as the loss of a batch whose
    utterances were all skipped, is written as null: bare NaN is not
    JSON."""
    clean = {k: None if isinstance(v, float) and not math.isfinite(v) else v
             for k, v in row.items()}
    return json.dumps(clean, sort_keys=True, allow_nan=False)


def load_json(directory: str, filename: str) -> dict:
    """Read one JSON object; a file that is missing, does not parse or
    holds something else raises CheckpointError naming it."""
    path = os.path.join(directory, filename)
    if not os.path.isfile(path):
        raise CheckpointError(f"missing {filename} in {directory!r}")
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise CheckpointError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise CheckpointError(f"{path} does not hold a JSON object")
    return payload


def load_json_as(directory: str, filename: str, build):
    """load_json, then build(payload); a payload that build rejects (a
    missing or unknown field, a bad value) raises CheckpointError naming
    the file and the fault."""
    path = os.path.join(directory, filename)
    payload = load_json(directory, filename)
    try:
        return build(payload)
    except KeyError as exc:
        raise CheckpointError(f"{path}: missing field {exc}") from None
    except (TypeError, ValueError, ValidationError) as exc:
        raise CheckpointError(f"{path}: {exc}") from None
