"""Bit-exact binary container for trained state.

Layout: magic, one compact JSON header line (format version, metadata,
array directory), then raw little-endian array payloads in directory order.
Nothing in the file depends on time or environment, so identical state
always serializes to identical bytes.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .anchors import AnchorTable
from .cli import (_BOOL, _NON_NEGATIVE_INT, _NUMBER, _OBJECT, _OBJECT_LIST, _POSITIVE,
                  _POSITIVE_INT, _REQUIRED, _STRING, _STRING_LIST, _parse)
from .encoder import NUM_OFFSETS, ConvLayer, SparseEncoder
from .hull import PrototypeBank
from .objective import SceneModel

MAGIC = b"SCENEHULL-CKPT\n"
FORMAT_VERSION = 1


def _array_entry(name: str, arr: np.ndarray) -> dict:
    return {"name": name, "dtype": arr.dtype.newbyteorder("<").str, "shape": list(arr.shape)}


def save_checkpoint(path, model: SceneModel, meta: dict | None = None) -> None:
    arrays = model.arrays()
    encoder, bank, table = model.encoder, model.bank, model.table

    header = {
        "format": FORMAT_VERSION,
        "encoder": {"voxel_size": encoder.voxel_size, "num_layers": len(encoder.layers)},
        "bank": None if bank is None else {"inv_temperature": bank.inv_temperature},
        "anchors": {"class_names": list(table.class_names), "normalize": table.normalize},
        "meta": meta or {},
        "arrays": [_array_entry(k, v) for k, v in arrays.items()],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(blob)
        fh.write(b"\n")
        for entry in header["arrays"]:
            arr = np.ascontiguousarray(arrays[entry["name"]])
            # force little-endian on disk regardless of host
            fh.write(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())


def _is_float_dtype(value) -> bool:
    try:
        return isinstance(value, str) and np.dtype(value).kind == "f"
    except TypeError:  # not a dtype numpy knows
        return False


_SHAPE = (lambda v: isinstance(v, list) and all(_NON_NEGATIVE_INT[0](n) for n in v),
          "a list of non-negative integers")
_HEADER_SCHEMA = {
    # load_checkpoint tests it first, naming the unsupported version
    "format": ((lambda v: v == FORMAT_VERSION, str(FORMAT_VERSION)), _REQUIRED),
    "encoder": (_OBJECT, _REQUIRED),
    "bank": ((lambda v: v is None or isinstance(v, dict), "an object or null"), _REQUIRED),
    "anchors": (_OBJECT, _REQUIRED),
    "meta": (_OBJECT, _REQUIRED),
    "arrays": (_OBJECT_LIST, _REQUIRED),
}
_SECTION_SCHEMAS = {
    "encoder": {"num_layers": (_POSITIVE_INT, _REQUIRED), "voxel_size": (_POSITIVE, _REQUIRED)},
    "bank": {"inv_temperature": (_NUMBER, _REQUIRED)},
    "anchors": {"class_names": (_STRING_LIST, _REQUIRED), "normalize": (_BOOL, _REQUIRED)},
}
_ARRAY_ENTRY_SCHEMA = {
    "name": (_STRING, _REQUIRED),
    "dtype": ((_is_float_dtype, "a float dtype such as '<f8'"), _REQUIRED),
    "shape": (_SHAPE, _REQUIRED),
}


def load_checkpoint(path) -> tuple:
    """(model, meta) from a checkpoint that save_checkpoint wrote."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"{path}: not a scenehull checkpoint")
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except ValueError as exc:  # not UTF-8, or not JSON
            raise OSError(f"{path}: corrupt checkpoint header: {exc}") from None
        if not isinstance(header, dict):
            raise ValueError(f"{path}: checkpoint header is not a JSON object")
        if header.get("format") != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint format {header.get('format')}")
        _parse(header, _HEADER_SCHEMA, f"{path}: checkpoint header")
        for section, schema in _SECTION_SCHEMAS.items():
            if header[section] is not None:
                _parse(header[section], schema, f"{path}: checkpoint header {section}")
        arrays = {}
        left = os.fstat(fh.fileno()).st_size - fh.tell()  # payload bytes not yet read
        for i, entry in enumerate(header["arrays"]):
            _parse(entry, _ARRAY_ENTRY_SCHEMA, f"{path}: checkpoint header arrays[{i}]")
            name, dtype, shape = entry["name"], np.dtype(entry["dtype"]), tuple(entry["shape"])
            if dtype != dtype.newbyteorder("<"):  # the payload is little-endian
                raise ValueError(f"{path}: array {name} has big-endian dtype {entry['dtype']!r}")
            nbytes = math.prod(shape) * dtype.itemsize  # Python ints: a huge shape cannot wrap
            if nbytes > left:
                raise OSError(f"{path}: truncated array {name}")
            left -= nbytes
            arrays[name] = np.frombuffer(fh.read(nbytes), dtype=dtype).reshape(shape).copy()
            if not np.isfinite(arrays[name]).all():
                raise ValueError(f"{path}: array {name} is not finite")
        if left:
            raise OSError(f"{path}: {left} bytes after the last array")

    def array(name, *dims):
        """arrays[name], whose shape must be dims (None: any length)."""
        if name not in arrays:
            raise ValueError(f"{path}: missing array {name}")
        shape = arrays[name].shape
        if len(shape) != len(dims) or any(d not in (None, n) for d, n in zip(dims, shape)):
            want = ", ".join("*" if d is None else str(d) for d in dims)
            raise ValueError(f"{path}: array {name} has shape {shape}, expected ({want})")
        return arrays[name]

    layers = []
    width = 1  # voxelize's feature width; each next layer reads the previous output
    for i in range(header["encoder"]["num_layers"]):
        weight = array(f"encoder.layers.{i}.weight", NUM_OFFSETS, width, None)
        width = weight.shape[2]
        layers.append(ConvLayer(weight, array(f"encoder.layers.{i}.bias", width)))
    encoder = SparseEncoder(layers, voxel_size=header["encoder"]["voxel_size"])
    dim = encoder.feature_dim

    if header["bank"] is not None:
        w_key = array("bank.w_key", dim, None)
        bank_arrays = (array("bank.prototypes", None, dim), w_key,
                       array("bank.w_query", *w_key.shape))
    class_names = header["anchors"]["class_names"]
    embeddings = array("anchors.embeddings", len(class_names), None)
    w_proj = array("anchors.w_proj", embeddings.shape[1], dim)
    # header values of the right type may still be refused here, such as a
    # negative inverse temperature or a repeated class name
    try:
        model = SceneModel(
            encoder,
            None if header["bank"] is None
            else PrototypeBank(*bank_arrays, header["bank"]["inv_temperature"]),
            AnchorTable(class_names, embeddings, w_proj, normalize=header["anchors"]["normalize"]),
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    # a payload read in another order would load each array from the wrong bytes
    expected = list(model.arrays())
    if list(arrays) != expected:
        raise ValueError(f"{path}: arrays {list(arrays)} are not {expected} in that order")
    return model, header["meta"]
