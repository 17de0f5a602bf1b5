"""Procedural toy meshes, embeddings and configs for self-contained runs.

Four shape classes ship with the repo: sphere, box and tube are the
foreground classes, cone is the negative that only pushes features around
during training. Embeddings are random unit vectors written in the plain
GloVe text format, so the whole pipeline runs without downloading anything.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .geometry import TriangleMesh, save_mesh

TOY_CLASSES = ["sphere", "box", "tube", "cone"]
TOY_FOREGROUND = [0, 1, 2]
TOY_NEGATIVE = [3]
TOY_EMBEDDING_DIM = 32


def icosphere(subdivisions: int = 3, radius: float = 0.5) -> TriangleMesh:
    """Icosahedron subdivided and reprojected onto the sphere.

    20 * 4**subdivisions faces; subdivisions=3 gives the 1280-face sphere
    used in the sampling tests.
    """
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array([
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ], dtype=np.float64)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [tuple(v) for v in verts]
    midpoint_cache: dict = {}

    def midpoint(i, j):
        key = (min(i, j), max(i, j))
        if key not in midpoint_cache:
            m = np.add(verts[i], verts[j]) / 2.0
            m = tuple(m / np.linalg.norm(m))
            verts.append(m)
            midpoint_cache[key] = len(verts) - 1
        return midpoint_cache[key]

    for _ in range(subdivisions):
        split = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            split += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = split
    return TriangleMesh(np.asarray(verts) * radius, np.asarray(faces))


def ellipsoid(radii=(0.3, 0.2, 0.35), subdivisions: int = 3) -> TriangleMesh:
    sphere = icosphere(subdivisions, radius=1.0)
    return TriangleMesh(sphere.vertices * np.asarray(radii), sphere.faces)


def box_mesh(size=(0.55, 0.45, 0.35)) -> TriangleMesh:
    sx, sy, sz = size
    hx, hy, hz = sx / 2.0, sy / 2.0, sz / 2.0
    verts = np.array([
        (-hx, -hy, -hz), (hx, -hy, -hz), (hx, hy, -hz), (-hx, hy, -hz),
        (-hx, -hy, hz), (hx, -hy, hz), (hx, hy, hz), (-hx, hy, hz),
    ])
    faces = np.array([
        (0, 2, 1), (0, 3, 2),  # bottom
        (4, 5, 6), (4, 6, 7),  # top
        (0, 1, 5), (0, 5, 4),  # y-
        (2, 3, 7), (2, 7, 6),  # y+
        (1, 2, 6), (1, 6, 5),  # x+
        (3, 0, 4), (3, 4, 7),  # x-
    ])
    return TriangleMesh(verts, faces)


def tube_mesh(radius: float = 0.10, height: float = 0.8, segments: int = 32) -> TriangleMesh:
    """Open cylinder shell (no end caps)."""
    angles = 2.0 * math.pi * np.arange(segments) / segments
    ring = np.stack([radius * np.cos(angles), radius * np.sin(angles)], axis=1)
    bottom = np.column_stack([ring, np.full(segments, -height / 2.0)])
    top = np.column_stack([ring, np.full(segments, height / 2.0)])
    faces = []
    for i in range(segments):
        j = (i + 1) % segments
        faces.append((i, j, segments + i))
        faces.append((j, segments + j, segments + i))
    return TriangleMesh(np.concatenate([bottom, top]), np.asarray(faces))


def cone_mesh(radius: float = 0.24, height: float = 0.5, segments: int = 32) -> TriangleMesh:
    """Open cone shell (no base disk)."""
    angles = 2.0 * math.pi * np.arange(segments) / segments
    base = np.column_stack([
        radius * np.cos(angles), radius * np.sin(angles), np.zeros(segments),
    ])
    verts = np.vstack([base, [[0.0, 0.0, height]]])
    apex = segments
    faces = [(i, (i + 1) % segments, apex) for i in range(segments)]
    return TriangleMesh(verts, np.asarray(faces))


def toy_mesh(name: str) -> TriangleMesh:
    builders = {
        "sphere": lambda: icosphere(3, radius=0.28),
        "box": lambda: box_mesh((0.55, 0.45, 0.35)),
        "tube": lambda: tube_mesh(0.10, 0.8),
        "cone": lambda: cone_mesh(0.24, 0.5),
    }
    if name not in builders:
        raise ValueError(f"unknown toy class {name!r}")
    return builders[name]()


def write_embeddings(path, vectors: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for token, vec in vectors.items():
            values = " ".join(f"{v:.17g}" for v in np.asarray(vec, dtype=np.float64))
            fh.write(f"{token} {values}\n")


def toy_embeddings(dim: int = TOY_EMBEDDING_DIM, seed: int = 7) -> dict:
    """Random unit embedding per toy token, plus 'ovoid': a slightly
    perturbed copy of 'sphere' used by the zero-shot checks."""
    rng = np.random.default_rng(seed)
    vectors = {}
    for token in TOY_CLASSES:
        v = rng.standard_normal(dim)
        vectors[token] = v / np.linalg.norm(v)
    near = vectors["sphere"] + 0.05 * rng.standard_normal(dim)
    vectors["ovoid"] = near / np.linalg.norm(near)
    return vectors


def build_toy_dataset(out_dir, points_per_model: int = 512, seed: int = 7,
                      num_scenes: int = 6) -> dict:
    """Write meshes, class list, embeddings, manifest and train config.

    Returns the manifest dict. Everything downstream (simulate, train,
    infer, eval) can run from these files alone.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in TOY_CLASSES:
        save_mesh(out / f"{name}.off", toy_mesh(name))
    save_mesh(out / "ovoid.off", ellipsoid((0.33, 0.22, 0.28)))

    with open(out / "classes.txt", "w", encoding="utf-8") as fh:
        fh.write("".join(f"{name}\n" for name in TOY_CLASSES))
    write_embeddings(out / "embeddings.txt", toy_embeddings(seed=seed))

    manifest = {
        "seed": seed,
        "num_scenes": num_scenes,
        "points_per_model": points_per_model,
        "xy_bounds": [[0.0, 0.0], [3.0, 3.0]],
        "floor_percentile": 1.0,
        "models": [
            {"path": f"{name}.off", "class_id": i, "name": name,
             "negative": i in TOY_NEGATIVE}
            for i, name in enumerate(TOY_CLASSES)
        ],
        "backgrounds": [],
        "augment": {
            "scale_min": 0.9,
            "scale_max": 1.1,
            "crop_anchor_min": 2,
            "crop_anchor_max": 5,
            "crop_prob": 1.0,
            "overlap_voxel": 0.05,
            "overlap_keep_prob": 0.5,
        },
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    # budget and the sharper inverse temperature tuned on this dataset;
    # the bank-wide default stays 0.5
    train_config = {
        "manifest": "manifest.json",
        "classes": "classes.txt",
        "embeddings": "embeddings.txt",
        "seed": 0,
        "epochs": 30,
        "steps_per_epoch": 20,
        "lr": 3e-3,
        "beta1": 0.9,
        "beta2": 0.999,
        "eps": 1e-8,
        "precision": "float64",
        "voxel_size": 0.05,
        "encoder_widths": [32, 64, 96],
        "prototypes": 128,
        "attention_dim": 16,
        "inv_temperature": 4.0,
        "use_dcr": True,
        "normalize_anchors": False,
        "inference_temperature": 1.0,
    }
    with open(out / "train_config.json", "w", encoding="utf-8") as fh:
        json.dump(train_config, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
