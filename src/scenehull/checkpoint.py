"""Bit-exact binary container for trained state.

Layout: magic, one compact JSON header line (format version, metadata,
array directory), then raw little-endian array payloads in directory order.
Nothing in the file depends on time or environment, so identical state
always serializes to identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .anchors import AnchorTable
from .encoder import ConvLayer, SparseEncoder
from .hull import PrototypeBank

MAGIC = b"SCENEHULL-CKPT\n"
FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    encoder: SparseEncoder
    bank: PrototypeBank | None
    table: AnchorTable
    meta: dict


def _array_entry(name: str, arr: np.ndarray) -> dict:
    return {"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape)}


def save_checkpoint(path, encoder: SparseEncoder, bank: PrototypeBank | None,
                    table: AnchorTable, meta: dict | None = None) -> None:
    arrays = {}
    for i, layer in enumerate(encoder.layers):
        arrays[f"encoder.layers.{i}.weight"] = layer.weight
        arrays[f"encoder.layers.{i}.bias"] = layer.bias
    if bank is not None:
        arrays["bank.prototypes"] = bank.prototypes
        arrays["bank.w_key"] = bank.w_key
        arrays["bank.w_query"] = bank.w_query
    arrays["anchors.embeddings"] = table.embeddings
    arrays["anchors.w_proj"] = table.w_proj

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


def _field(path, section, key: str, where: str = ""):
    """section[key], or ValueError naming the header key that is missing."""
    if not isinstance(section, dict) or key not in section:
        raise ValueError(f"{path}: checkpoint header lacks {where}{key}")
    return section[key]


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"{path}: not a scenehull checkpoint")
        header = json.loads(fh.readline().decode("utf-8"))
        if not isinstance(header, dict):
            raise ValueError(f"{path}: checkpoint header is not a JSON object")
        if header.get("format") != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint format {header.get('format')}")
        for key in ("encoder", "bank", "anchors", "meta", "arrays"):
            _field(path, header, key)
        arrays = {}
        for i, entry in enumerate(header["arrays"]):
            for key in ("name", "dtype", "shape"):
                _field(path, entry, key, f"arrays[{i}].")
            dtype = np.dtype(entry["dtype"])
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            data = fh.read(count * dtype.itemsize)
            if len(data) != count * dtype.itemsize:
                raise ValueError(f"{path}: truncated array {entry['name']}")
            arrays[entry["name"]] = np.frombuffer(data, dtype=dtype).reshape(shape).copy()

    def array(name):
        if name not in arrays:
            raise ValueError(f"{path}: missing array {name}")
        return arrays[name]

    num_layers = _field(path, header["encoder"], "num_layers", "encoder.")
    voxel_size = _field(path, header["encoder"], "voxel_size", "encoder.")
    layers = []
    for i in range(num_layers):
        layers.append(ConvLayer(
            array(f"encoder.layers.{i}.weight"),
            array(f"encoder.layers.{i}.bias"),
        ))
    encoder = SparseEncoder(layers, voxel_size=voxel_size)

    bank = None
    if header["bank"] is not None:
        # validation happened when the bank was created; load as-is
        bank = PrototypeBank(
            array("bank.prototypes"),
            array("bank.w_key"),
            array("bank.w_query"),
            _field(path, header["bank"], "inv_temperature", "bank."),
            require_overcomplete=False,
        )
    table = AnchorTable(
        _field(path, header["anchors"], "class_names", "anchors."),
        array("anchors.embeddings"),
        array("anchors.w_proj"),
        normalize=_field(path, header["anchors"], "normalize", "anchors."),
    )
    return Checkpoint(encoder=encoder, bank=bank, table=table, meta=header["meta"])
