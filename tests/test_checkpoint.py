"""Checkpoint container: bit-exact round trips, version guard."""

import json
import re

import numpy as np
import pytest

from scenehull.anchors import AnchorTable
from scenehull.checkpoint import load_checkpoint, save_checkpoint
from scenehull.encoder import SparseEncoder
from scenehull.hull import PrototypeBank
from scenehull.objective import SceneModel


def make_model(seed=0, with_bank=True):
    rng = np.random.default_rng(seed)
    encoder = SparseEncoder.create(widths=(5, 7), seed=seed, voxel_size=0.04)
    bank = None
    if with_bank:
        bank = PrototypeBank.create(num_prototypes=11, feature_dim=7,
                                    attention_dim=3, inv_temperature=0.8, seed=seed)
    table = AnchorTable(["a", "b", "night stand"], rng.normal(size=(3, 6)),
                        rng.normal(size=(6, 7)))
    return SceneModel(encoder, bank, table)


class TestRoundTrip:
    def test_arrays_bit_exact(self, tmp_path):
        model = make_model()
        encoder, bank, table = model.encoder, model.bank, model.table
        path = tmp_path / "ck.bin"
        save_checkpoint(path, model, meta={"note": "x"})
        ck, meta = load_checkpoint(path)
        for a, b in zip(encoder.layers, ck.encoder.layers):
            np.testing.assert_array_equal(a.weight, b.weight)
            np.testing.assert_array_equal(a.bias, b.bias)
        np.testing.assert_array_equal(bank.prototypes, ck.bank.prototypes)
        np.testing.assert_array_equal(bank.w_key, ck.bank.w_key)
        np.testing.assert_array_equal(bank.w_query, ck.bank.w_query)
        assert ck.bank.inv_temperature == bank.inv_temperature
        np.testing.assert_array_equal(table.embeddings, ck.table.embeddings)
        np.testing.assert_array_equal(table.w_proj, ck.table.w_proj)
        assert ck.table.class_names == table.class_names
        assert ck.encoder.voxel_size == encoder.voxel_size
        assert meta == {"note": "x"}

    def test_save_load_save_identical_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(p1, make_model(seed=1))
        save_checkpoint(p2, *load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_centered_readout_bit_exact(self, tmp_path):
        # the centroid is derived from the saved prototypes; no extra state
        model = make_model(seed=6)
        path = tmp_path / "ck.bin"
        save_checkpoint(path, model)
        ck, _ = load_checkpoint(path)
        x = np.random.default_rng(7).normal(size=(10, 7))
        np.testing.assert_array_equal(model.bank.project(x, centered=True),
                                      ck.bank.project(x, centered=True))

    def test_without_bank(self, tmp_path):
        path = tmp_path / "nobank.bin"
        save_checkpoint(path, make_model(seed=2, with_bank=False))
        ck, _ = load_checkpoint(path)
        assert ck.bank is None

    def test_loaded_encoder_runs(self, tmp_path):
        from scenehull.geometry import PointCloud

        model = make_model(seed=3)
        path = tmp_path / "ck.bin"
        save_checkpoint(path, model)
        ck, _ = load_checkpoint(path)
        pc = PointCloud(np.random.default_rng(4).uniform(0, 0.5, size=(20, 3)))
        np.testing.assert_array_equal(model.encoder.forward(pc), ck.encoder.forward(pc))


class TestGuards:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError, match="not a scenehull checkpoint"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "ck.bin"
        save_checkpoint(path, make_model(seed=5))
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(OSError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("shape", [[2**62], [2**63], [2**40, 2**30], [2**33]])
    def test_shape_beyond_the_payload_is_truncation(self, tmp_path, shape):
        # sizes are Python ints: [2**62] used to overflow the read, and
        # [2**40, 2**30] to wrap np.prod to 0
        path = tmp_path / "ck.bin"
        save_checkpoint(path, make_model(seed=5))
        self.rewrite_header(path, lambda header: header["arrays"][0].update(shape=shape))
        with pytest.raises(OSError, match=re.escape(
                f"{path}: truncated array encoder.layers.0.weight")):
            load_checkpoint(path)

    def test_bytes_after_the_last_array(self, tmp_path):
        path = tmp_path / "ck.bin"
        save_checkpoint(path, make_model(seed=5))
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(OSError, match=re.escape(f"{path}: 4 bytes after the last array")):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", ["encoder.layers.1.bias", "bank.prototypes",
                                      "anchors.w_proj"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_array_named(self, tmp_path, name, value):
        path = tmp_path / "ck.bin"
        save_checkpoint(path, make_model(seed=5))
        with open(path, "rb") as fh:
            magic, line, payload = fh.readline(), fh.readline(), fh.read()
        offset = 0
        for entry in json.loads(line)["arrays"]:
            if entry["name"] == name:
                break
            offset += int(np.prod(entry["shape"])) * 8
        payload = payload[:offset] + np.float64(value).tobytes() + payload[offset + 8:]
        path.write_bytes(magic + line + payload)
        with pytest.raises(ValueError, match=re.escape(f"{path}: array {name} is not finite")):
            load_checkpoint(path)

    @pytest.mark.parametrize("dtype", [">f8", ">f4"])
    def test_big_endian_dtype_named(self, tmp_path, dtype):
        # the payload is little-endian: >f8 once loaded it byte-swapped
        path = tmp_path / "ck.bin"
        save_checkpoint(path, make_model(seed=5))
        self.rewrite_header(path, lambda header: self.entry(header, "bank.w_key").update(
            dtype=dtype))
        message = f"{path}: array bank.w_key has big-endian dtype '{dtype}'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_checkpoint(path)

    def test_header_names_little_endian_dtypes(self, tmp_path):
        path = tmp_path / "ck.bin"
        save_checkpoint(path, make_model(seed=5))
        with open(path, "rb") as fh:
            fh.readline()
            assert {e["dtype"] for e in json.loads(fh.readline())["arrays"]} == {"<f8"}

    def test_arrays_out_of_order(self, tmp_path):
        # each name keeps its shape, so every array would read the wrong bytes
        path = tmp_path / "ck.bin"
        save_checkpoint(path, make_model(seed=5))

        def swap(header):
            arrays = header["arrays"]
            arrays[4], arrays[5] = arrays[5], arrays[4]

        self.rewrite_header(path, swap)
        with pytest.raises(ValueError, match="in that order"):
            load_checkpoint(path)

    def test_missing_array_named(self, tmp_path):
        # drop bank.w_key from both the header's directory and the payload
        path = tmp_path / "ck.bin"
        save_checkpoint(path, make_model(seed=8))
        with open(path, "rb") as fh:
            magic = fh.readline()
            header = json.loads(fh.readline())
            payload = fh.read()
        kept, offset, parts = [], 0, []
        for entry in header["arrays"]:
            size = int(np.prod(entry["shape"])) * np.dtype(entry["dtype"]).itemsize
            if entry["name"] != "bank.w_key":
                kept.append(entry)
                parts.append(payload[offset:offset + size])
            offset += size
        header["arrays"] = kept
        path.write_bytes(magic + json.dumps(header).encode() + b"\n" + b"".join(parts))
        with pytest.raises(ValueError, match="missing array bank.w_key"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", [
        "encoder", "bank", "anchors", "meta", "arrays",
        "encoder.num_layers", "encoder.voxel_size", "bank.inv_temperature",
        "anchors.class_names", "anchors.normalize",
        "arrays[0].name", "arrays[0].dtype", "arrays[0].shape"])
    def test_missing_header_key_named(self, tmp_path, key):
        path = tmp_path / "ck.bin"
        save_checkpoint(path, make_model(seed=9))
        with open(path, "rb") as fh:
            magic = fh.readline()
            header = json.loads(fh.readline())
            payload = fh.read()
        section, _, leaf = key.rpartition(".")
        if section == "arrays[0]":
            del header["arrays"][0][leaf]
        elif section:
            del header[section][leaf]
        else:
            del header[leaf]
        path.write_bytes(magic + json.dumps(header).encode() + b"\n" + payload)
        where = f"checkpoint header {section}" if section else "checkpoint header"
        with pytest.raises(ValueError, match=re.escape(f"{where}: missing keys ['{leaf}']")):
            load_checkpoint(path)

    @staticmethod
    def rewrite_header(path, edit):
        with open(path, "rb") as fh:
            magic = fh.readline()
            header = json.loads(fh.readline())
            payload = fh.read()
        edit(header)
        path.write_bytes(magic + json.dumps(header).encode() + b"\n" + payload)

    @staticmethod
    def entry(header, name):
        return next(e for e in header["arrays"] if e["name"] == name)

    @pytest.mark.parametrize("key, value", [
        ("encoder", "x"), ("bank", 5), ("meta", []), ("arrays", {}),
        ("encoder.num_layers", "3"), ("encoder.num_layers", 2.0),
        ("encoder.voxel_size", "0.04"), ("bank.inv_temperature", None),
        ("anchors.class_names", "abc"), ("anchors.class_names", ["a", 1, "c"]),
        ("anchors.normalize", "false"),
        ("arrays[0].name", 5), ("arrays[0].dtype", "zz"), ("arrays[0].dtype", "<i8"),
        ("arrays[0].shape", "27,1,5"), ("arrays[0].shape", [27, -1, 5]),
        # in range as well as typed: each used to fail only after the scene
        # was read, naming neither the file nor the key
        ("encoder.num_layers", 0), ("encoder.voxel_size", -0.05), ("encoder.voxel_size", 0)])
    def test_wrong_header_type_named(self, tmp_path, key, value):
        path = tmp_path / "ck.bin"
        save_checkpoint(path, make_model(seed=10))

        def edit(header):
            section, _, leaf = key.rpartition(".")
            if section == "arrays[0]":
                header["arrays"][0][leaf] = value
            elif section:
                header[section][leaf] = value
            else:
                header[leaf] = value

        self.rewrite_header(path, edit)
        section, _, leaf = key.rpartition(".")
        where = f"checkpoint header {section}: {leaf}" if section else f"checkpoint header: {leaf}"
        with pytest.raises(ValueError, match=re.escape(f"{where} must be")):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value, message", [
        ("bank.inv_temperature", -1, "inverse temperature must be finite and nonnegative"),
        ("anchors.class_names", ["a", "a", "night stand"], "class names must be unique")])
    def test_refused_header_value_names_the_file(self, tmp_path, key, value, message):
        # the schema passes both; the model the header describes refuses them
        path = tmp_path / "ck.bin"
        save_checkpoint(path, make_model(seed=12))
        section, _, leaf = key.partition(".")
        self.rewrite_header(path, lambda header: header[section].update({leaf: value}))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name, shape, expected", [
        # same byte counts as saved, so the payload still reads through
        ("encoder.layers.1.weight", [27, 7, 5], "(27, 5, *)"),
        ("encoder.layers.1.bias", [7, 1], "(7)"),
        ("bank.prototypes", [7, 11], "(*, 7)"),
        ("bank.w_query", [3, 7], "(7, 3)"),
        ("anchors.embeddings", [6, 3], "(3, *)"),
        ("anchors.w_proj", [7, 6], "(6, 7)")])
    def test_array_shape_disagreeing_with_header_named(self, tmp_path, name, shape, expected):
        path = tmp_path / "ck.bin"
        save_checkpoint(path, make_model(seed=11))

        def edit(header):
            self.entry(header, name)["shape"] = shape

        self.rewrite_header(path, edit)
        with pytest.raises(ValueError, match=re.escape(f"array {name} has shape")) as err:
            load_checkpoint(path)
        assert str(err.value).endswith(f"expected {expected}")
