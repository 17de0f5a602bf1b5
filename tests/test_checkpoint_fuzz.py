"""Seeded fuzz of the checkpoint reader through `scenehull infer`.

Each case edits a saved checkpoint: the shape entries of its header (zero,
huge, products past 2**63), its dtype strings, the order of its array
directory, or the length of its payload. infer must exit 2 or 3 with one
error line, raise nothing and write no output.
"""

import json

import numpy as np
import pytest

from scenehull.anchors import AnchorTable
from scenehull.checkpoint import save_checkpoint
from scenehull.cli import main
from scenehull.encoder import SparseEncoder
from scenehull.hull import PrototypeBank
from scenehull.objective import SceneModel

CASES = 200
SHAPES = [[0], [], [1], [0, 5], [2**62], [2**63], [2**64], [2**33], [2**40, 2**30],
          [2**31, 2**31, 4], [3, 2**62], [27, 0, 5]]
DTYPES = ["<f4", "<f2", "float32", "<i8", "|u1", "<c16", "zz", "", "<U8", ">f8", ">f4"]


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """(dir, magic, header, payload): a small checkpoint in its three parts,
    saved in dir as ck.bin beside a scene.txt that it reads."""
    path = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    encoder = SparseEncoder.create(widths=(3, 4), voxel_size=0.1, seed=0)
    bank = PrototypeBank.create(num_prototypes=6, feature_dim=4, attention_dim=2, seed=1)
    table = AnchorTable(["a", "b"], rng.normal(size=(2, 3)), rng.normal(size=(3, 4)))
    save_checkpoint(path / "ck.bin", SceneModel(encoder, bank, table))
    np.savetxt(path / "scene.txt", rng.uniform(0.0, 0.5, size=(20, 3)))
    with open(path / "ck.bin", "rb") as fh:
        magic, header, payload = fh.readline(), json.loads(fh.readline()), fh.read()
    return path, magic, header, payload


def mutate(rng, header, payload):
    """One to three random edits of a copy of header and payload; returns
    (header, payload, description)."""
    header = json.loads(json.dumps(header))
    arrays = header["arrays"]
    done = []
    for _ in range(int(rng.integers(1, 4))):
        kind = int(rng.integers(4))
        i = int(rng.integers(len(arrays)))
        if kind == 0:
            arrays[i]["shape"] = list(SHAPES[int(rng.integers(len(SHAPES)))])
            done.append(f"{arrays[i]['name']} shape {arrays[i]['shape']}")
        elif kind == 1:
            arrays[i]["dtype"] = DTYPES[int(rng.integers(len(DTYPES)))]
            done.append(f"{arrays[i]['name']} dtype {arrays[i]['dtype']!r}")
        elif kind == 2:
            j = (i + int(rng.integers(1, len(arrays)))) % len(arrays)
            arrays[i], arrays[j] = arrays[j], arrays[i]
            done.append(f"swap {arrays[j]['name']} {arrays[i]['name']}")
        elif rng.integers(2):
            cut = int(rng.integers(1, len(payload) + 1))
            payload = payload[:-cut]
            done.append(f"payload -{cut}")
        else:
            extra = rng.integers(0, 256, size=int(rng.integers(1, 65)), dtype=np.uint8)
            payload = payload + extra.tobytes()
            done.append(f"payload +{len(extra)}")
    return header, payload, "; ".join(done)


def test_mutated_checkpoints_exit_2_or_3_in_one_line(saved, capsys):
    path, magic, header, payload = saved
    scene, out = path / "scene.txt", path / "probs.txt"
    assert main(["infer", "--checkpoint", str(path / "ck.bin"), "--scene", str(scene),
                 "-o", str(out)]) == 0
    out.unlink()
    out.with_suffix(".classes.txt").unlink()
    capsys.readouterr()

    rng = np.random.default_rng(20231)
    bad = path / "bad.bin"
    failures = []
    for case in range(CASES):
        edited, body, what = mutate(rng, header, payload)
        bad.write_bytes(magic + json.dumps(edited).encode() + b"\n" + body)
        code = main(["infer", "--checkpoint", str(bad), "--scene", str(scene), "-o", str(out)])
        err = capsys.readouterr().err.splitlines()[1:]  # after the config line
        written = [p for p in (out, out.with_suffix(".classes.txt")) if p.exists()]
        if code not in (2, 3) or len(err) != 1 or written:
            failures.append(f"case {case} ({what}): exit {code}, stderr {err}")
        for p in written:
            p.unlink()
    assert not failures, "\n".join(failures)
