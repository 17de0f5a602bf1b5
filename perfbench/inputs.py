"""Seeded benchmark inputs, written with numpy alone.

Nothing here imports scenehull: the parent commit and a change under test
see byte-identical files for the same seed, whatever the program does. The
seed varies mesh dimensions, embeddings and the room layout; the sizes that
set the amount of work (points per model, room extent, object count) are
fixed, so runs with different seeds do comparable work.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

CLASSES = ["sphere", "box", "tube", "cone"]
FOREGROUND = [0, 1, 2]
NEGATIVE = 3
UNSEEN = "ovoid"
UNSEEN_ID = len(CLASSES)  # column of the zero-shot class after --extend-classes
EMBEDDING_DIM = 32
DISTRACTOR_TOKENS = 400

TOY_POINTS = 512
XY_BOUNDS = [[0.0, 0.0], [3.0, 3.0]]
AUGMENT = {
    "scale_min": 0.9, "scale_max": 1.1, "crop_anchor_min": 2,
    "crop_anchor_max": 5, "crop_prob": 1.0, "overlap_voxel": 0.05,
    "overlap_keep_prob": 0.5,
}
# The toy training config; only the epoch budget is set per workload.
TRAIN_CONFIG = {
    "seed": 0, "steps_per_epoch": 10, "lr": 3e-3, "beta1": 0.9,
    "beta2": 0.999, "eps": 1e-8, "precision": "float64", "voxel_size": 0.05,
    "encoder_widths": [32, 64, 96], "prototypes": 128, "attention_dim": 16,
    "inv_temperature": 4.0, "use_dcr": True, "normalize_anchors": False,
    "inference_temperature": 1.0,
}

# Room scan: a 9 m x 7 m floor and 2.4 m walls as unlabeled background,
# 30 objects on a 6 x 5 slot grid. About 175k points and 86k 5 cm voxels.
ROOM_SIZE = (9.0, 7.0)
WALL_HEIGHT = 2.4
BACKGROUND_POINTS = 150_000
OBJECT_DENSITY = 1000.0  # points per square meter of mesh surface
ROOM_OBJECTS = {"sphere": 7, "box": 6, "tube": 6, "cone": 5, UNSEEN: 6}
BACKGROUND_LABEL = -1


# ---------------------------------------------------------------------------
# Meshes
# ---------------------------------------------------------------------------

def uv_ellipsoid(radii, rings=16, segments=32):
    """Latitude/longitude ellipsoid with single-vertex poles."""
    rx, ry, rz = radii
    verts = [(0.0, 0.0, -rz)]
    for i in range(1, rings):
        theta = math.pi * i / rings - math.pi / 2.0
        for j in range(segments):
            phi = 2.0 * math.pi * j / segments
            verts.append((rx * math.cos(theta) * math.cos(phi),
                          ry * math.cos(theta) * math.sin(phi),
                          rz * math.sin(theta)))
    verts.append((0.0, 0.0, rz))
    top = len(verts) - 1

    def ring(i, j):
        return 1 + (i - 1) * segments + (j % segments)

    faces = []
    for j in range(segments):
        faces.append((0, ring(1, j + 1), ring(1, j)))
        faces.append((top, ring(rings - 1, j), ring(rings - 1, j + 1)))
    for i in range(1, rings - 1):
        for j in range(segments):
            a, b = ring(i, j), ring(i, j + 1)
            c, d = ring(i + 1, j), ring(i + 1, j + 1)
            faces.append((a, b, d))
            faces.append((a, d, c))
    return np.array(verts), np.array(faces)


def box(size):
    hx, hy, hz = (s / 2.0 for s in size)
    verts = np.array([
        (-hx, -hy, -hz), (hx, -hy, -hz), (hx, hy, -hz), (-hx, hy, -hz),
        (-hx, -hy, hz), (hx, -hy, hz), (hx, hy, hz), (-hx, hy, hz),
    ])
    faces = np.array([
        (0, 2, 1), (0, 3, 2), (4, 5, 6), (4, 6, 7), (0, 1, 5), (0, 5, 4),
        (2, 3, 7), (2, 7, 6), (1, 2, 6), (1, 6, 5), (3, 0, 4), (3, 4, 7),
    ])
    return verts, faces


def open_cylinder(radius, height, segments=32):
    angles = 2.0 * math.pi * np.arange(segments) / segments
    ring = np.column_stack([radius * np.cos(angles), radius * np.sin(angles)])
    verts = np.vstack([
        np.column_stack([ring, np.full(segments, -height / 2.0)]),
        np.column_stack([ring, np.full(segments, height / 2.0)]),
    ])
    faces = []
    for i in range(segments):
        j = (i + 1) % segments
        faces += [(i, j, segments + i), (j, segments + j, segments + i)]
    return verts, np.array(faces)


def open_cone(radius, height, segments=32):
    angles = 2.0 * math.pi * np.arange(segments) / segments
    verts = np.vstack([
        np.column_stack([radius * np.cos(angles), radius * np.sin(angles),
                         np.zeros(segments)]),
        [[0.0, 0.0, height]],
    ])
    faces = [(i, (i + 1) % segments, segments) for i in range(segments)]
    return verts, np.array(faces)


def make_meshes(rng):
    """The five shapes with each dimension jittered by up to 5 percent."""
    def j(*dims):
        return [d * (1.0 + rng.uniform(-0.05, 0.05)) for d in dims]

    return {
        "sphere": uv_ellipsoid(j(0.28) * 3),
        "box": box(j(0.55, 0.45, 0.35)),
        "tube": open_cylinder(*j(0.10, 0.8)),
        "cone": open_cone(*j(0.24, 0.5)),
        UNSEEN: uv_ellipsoid(j(0.33, 0.22, 0.28)),
    }


def write_off(path, verts, faces):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"OFF\n{len(verts)} {len(faces)} 0\n")
        fh.write("".join(f"{x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in verts))
        fh.write("".join(f"3 {a} {b} {c}\n" for a, b, c in faces))


def surface_points(verts, faces, n, rng):
    """n area-weighted uniform points on a triangle mesh."""
    a, b, c = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    area = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
    face = rng.choice(len(faces), size=n, p=area / area.sum())
    uv = rng.random((n, 2))
    flip = uv.sum(axis=1) > 1.0
    uv[flip] = 1.0 - uv[flip]
    return a[face] + uv[:, :1] * (b[face] - a[face]) + uv[:, 1:] * (c[face] - a[face])


def mesh_area(verts, faces):
    a, b, c = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    return float(0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1).sum())


# ---------------------------------------------------------------------------
# Embeddings, manifest, configs
# ---------------------------------------------------------------------------

def make_embeddings():
    """Unit vectors per class; 'ovoid' is a perturbed copy of 'sphere'. A
    few hundred distractor tokens make the file look like a real vocabulary.

    The vocabulary does not depend on the workload seed: a user has one
    embedding file and many scans, so the seed varies geometry only.
    """
    rng = np.random.default_rng(20230929)
    vectors = {}
    for token in CLASSES:
        v = rng.standard_normal(EMBEDDING_DIM)
        vectors[token] = v / np.linalg.norm(v)
    near = vectors["sphere"] + 0.05 * rng.standard_normal(EMBEDDING_DIM)
    vectors[UNSEEN] = near / np.linalg.norm(near)
    for k in range(DISTRACTOR_TOKENS):
        v = rng.standard_normal(EMBEDDING_DIM)
        vectors[f"word{k:04d}"] = v / np.linalg.norm(v)
    order = list(vectors)
    rng.shuffle(order)
    return {t: vectors[t] for t in order}


def manifest(points_per_model, num_scenes):
    data = {
        "seed": 0,
        "num_scenes": num_scenes,
        "xy_bounds": XY_BOUNDS,
        "floor_percentile": 1.0,
        "models": [{"path": f"{name}.off", "class_id": i, "name": name,
                    "negative": i == NEGATIVE} for i, name in enumerate(CLASSES)],
        "backgrounds": [],
        "augment": AUGMENT,
    }
    if points_per_model is not None:
        data["points_per_model"] = points_per_model
    return data


# ---------------------------------------------------------------------------
# Room scan
# ---------------------------------------------------------------------------

def room_scan(meshes, rng):
    """Labeled (N, 3) positions and (N,) labels of one room."""
    width, depth = ROOM_SIZE
    floor_area = width * depth
    wall_area = 2.0 * (width + depth) * WALL_HEIGHT
    n_floor = int(round(BACKGROUND_POINTS * floor_area / (floor_area + wall_area)))
    n_wall = BACKGROUND_POINTS - n_floor
    floor = np.column_stack([rng.uniform(0.0, width, n_floor),
                             rng.uniform(0.0, depth, n_floor), np.zeros(n_floor)])
    # walls unrolled along the perimeter, then folded back onto the 4 sides
    s = rng.uniform(0.0, 2.0 * (width + depth), n_wall)
    z = rng.uniform(0.0, WALL_HEIGHT, n_wall)
    x = np.select([s < width, s < width + depth, s < 2 * width + depth],
                  [s, width, 2 * width + depth - s], 0.0)
    y = np.select([s < width, s < width + depth, s < 2 * width + depth],
                  [0.0, s - width, depth], 2.0 * (width + depth) - s)
    walls = np.column_stack([x, y, z])
    parts = [floor, walls]
    labels = [np.full(BACKGROUND_POINTS, BACKGROUND_LABEL)]

    names = [n for n, count in ROOM_OBJECTS.items() for _ in range(count)]
    rng.shuffle(names)
    slots = [(1.0 + 1.4 * i, 1.0 + 1.25 * j) for i in range(6) for j in range(5)]
    class_ids = {name: i for i, name in enumerate(CLASSES)}
    class_ids[UNSEEN] = UNSEEN_ID
    for name, (sx, sy) in zip(names, slots):
        verts, faces = meshes[name]
        n = int(round(OBJECT_DENSITY * mesh_area(verts, faces)))
        pts = surface_points(verts, faces, n, rng)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        c, si = math.cos(angle), math.sin(angle)
        pts = pts @ np.array([[c, -si, 0.0], [si, c, 0.0], [0.0, 0.0, 1.0]]).T
        pts -= [pts[:, 0].mean(), pts[:, 1].mean(), pts[:, 2].min()]
        pts += [sx + rng.uniform(-0.2, 0.2), sy + rng.uniform(-0.2, 0.2), 0.0]
        parts.append(pts)
        labels.append(np.full(n, class_ids[name]))
    positions = np.concatenate(parts)
    positions += rng.normal(0.0, 0.003, positions.shape)  # scanner noise
    return positions, np.concatenate(labels)


def write_scan(path, positions, labels):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{x:.6f} {y:.6f} {z:.6f} {lab}\n"
                         for (x, y, z), lab in zip(positions.tolist(), labels.tolist())))


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def generate(out_dir, seed, *, room=False, train_epochs=None, simulate_scenes=None):
    """Write the inputs one workload needs into out_dir.

    Always: five OFF meshes, classes.txt, embeddings.txt (with the unseen
    'ovoid'). With simulate_scenes: manifest_simulate.json at the manifest
    default point count. With train_epochs: manifest.json at 512 points per
    model and train_config.json. With room: room.txt, a labeled scan.
    Returns the SHA-256 over every file written, in name order.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 20230929]))
    meshes = make_meshes(rng)
    for name, (verts, faces) in meshes.items():
        write_off(out / f"{name}.off", verts, faces)
    (out / "classes.txt").write_text("".join(f"{c}\n" for c in CLASSES), encoding="utf-8")
    with open(out / "embeddings.txt", "w", encoding="utf-8") as fh:
        for token, vec in make_embeddings().items():
            fh.write(token + " " + " ".join(f"{v:.17g}" for v in vec) + "\n")

    def dump(name, data):
        (out / name).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                                encoding="utf-8")

    if simulate_scenes is not None:
        dump("manifest_simulate.json", manifest(None, simulate_scenes))
    if train_epochs is not None:
        dump("manifest.json", manifest(TOY_POINTS, 1))
        dump("train_config.json", {"manifest": "manifest.json", "classes": "classes.txt",
                                   "embeddings": "embeddings.txt",
                                   "epochs": train_epochs, **TRAIN_CONFIG})
    if room:
        write_scan(out / "room.txt", *room_scan(meshes, rng))

    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()
