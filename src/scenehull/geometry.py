"""Triangle meshes, surface sampling and rigid point-cloud transforms.

Meshes are read from ASCII OFF files; point clouds live in plain text
("x y z" or "x y z label", one point per line). All coordinates are meters.
Every randomized operation takes a ``numpy.random.Generator`` and is a pure
function of (inputs, generator state), so a fixed seed replays byte-identically.
"""

from __future__ import annotations

import heapq
import io
import math
import re
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

# Faces with area at or below this are dropped at load time.
DEGENERATE_AREA = 1e-12
# Poisson-disk sample elimination: candidates per kept point, and the
# exponent of the pair weight.
OVERSAMPLE = 4
WEIGHT_EXPONENT = 8.0


class MeshFormatError(ValueError):
    """Malformed OFF input; the message carries the 1-based line number."""

    def __init__(self, lineno, message):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


class EmptyMeshError(ValueError):
    """Mesh has no usable (non-degenerate) faces."""


@dataclass
class TriangleMesh:
    """Vertex/face surface representation; faces index into vertices."""

    vertices: np.ndarray  # (V, 3) float64
    faces: np.ndarray     # (F, 3) int64

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64)
        self.faces = np.asarray(self.faces, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError("vertices must have shape (V, 3)")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise ValueError("faces must have shape (F, 3)")
        if not np.isfinite(self.vertices).all():
            raise ValueError("vertices must be finite")
        if len(self.faces) and (self.faces.min() < 0 or self.faces.max() >= len(self.vertices)):
            raise ValueError("face index out of range")

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_faces(self) -> int:
        return len(self.faces)


@dataclass
class PointCloud:
    """Points in meters with optional per-point class labels and instance
    ids (a simulated scene gives background points instance id -1)."""

    positions: np.ndarray            # (N, 3) float64
    labels: np.ndarray | None = None        # (N,) int64 class ids
    instance_ids: np.ndarray | None = None  # (N,) int64

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError("positions must have shape (N, 3)")
        if not np.isfinite(self.positions).all():
            raise ValueError("positions must be finite")
        n = len(self.positions)
        for name in ("labels", "instance_ids"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr, dtype=np.int64)
            if arr.shape != (n,):
                raise ValueError(f"{name} must have length {n}")
            setattr(self, name, arr)

    def __len__(self) -> int:
        return len(self.positions)

    def copy(self) -> "PointCloud":
        return PointCloud(
            self.positions.copy(),
            None if self.labels is None else self.labels.copy(),
            None if self.instance_ids is None else self.instance_ids.copy(),
        )

    def select(self, index) -> "PointCloud":
        """Subset by boolean mask or integer index, keeping per-point arrays."""
        return PointCloud(
            self.positions[index],
            None if self.labels is None else self.labels[index],
            None if self.instance_ids is None else self.instance_ids[index],
        )

    def with_positions(self, positions: np.ndarray) -> "PointCloud":
        """Same per-point data on new coordinates."""
        return PointCloud(
            positions,
            None if self.labels is None else self.labels.copy(),
            None if self.instance_ids is None else self.instance_ids.copy(),
        )


# ---------------------------------------------------------------------------
# Mesh / point-cloud file formats
# ---------------------------------------------------------------------------

def _meaningful_lines(text):
    """Yield (lineno, stripped line) skipping blanks and '#' comments."""
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield i, line


def load_mesh(path) -> TriangleMesh:
    """Read an ASCII OFF mesh, dropping degenerate (zero-area) faces.

    Raises MeshFormatError with a line number on malformed input and
    EmptyMeshError when no valid face remains.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    lines = list(_meaningful_lines(text))
    if not lines:
        raise MeshFormatError(None, "empty OFF file")

    lineno, header = lines[0]
    cursor = 1
    if header == "OFF":
        if len(lines) < 2:
            raise MeshFormatError(lineno, "missing counts line")
        lineno, counts_line = lines[1]
        cursor = 2
    elif header.startswith("OFF"):
        # Some exporters glue the counts onto the header line.
        counts_line = header[3:].strip()
    else:
        raise MeshFormatError(lineno, f"expected OFF header, got {header!r}")

    parts = counts_line.split()
    if len(parts) < 2:
        raise MeshFormatError(lineno, f"expected vertex/face counts, got {counts_line!r}")
    try:
        n_vertices, n_faces = int(parts[0]), int(parts[1])
    except ValueError:
        raise MeshFormatError(lineno, f"non-integer counts {counts_line!r}") from None

    if len(lines) < cursor + n_vertices + n_faces:
        raise MeshFormatError(lines[-1][0], "file truncated")

    vertices = np.empty((n_vertices, 3), dtype=np.float64)
    for row in range(n_vertices):
        lineno, line = lines[cursor + row]
        fields = line.split()
        if len(fields) < 3:
            raise MeshFormatError(lineno, f"vertex needs 3 coordinates, got {line!r}")
        try:
            vertices[row] = [float(fields[0]), float(fields[1]), float(fields[2])]
        except ValueError:
            raise MeshFormatError(lineno, f"bad vertex {line!r}") from None
    cursor += n_vertices

    faces = np.empty((n_faces, 3), dtype=np.int64)
    for row in range(n_faces):
        lineno, line = lines[cursor + row]
        fields = line.split()
        try:
            arity = int(fields[0])
            idx = [int(f) for f in fields[1:1 + arity]]
        except (ValueError, IndexError):
            raise MeshFormatError(lineno, f"bad face {line!r}") from None
        if arity != 3 or len(idx) != 3:
            raise MeshFormatError(lineno, f"only triangles supported, got arity {arity}")
        if min(idx) < 0 or max(idx) >= n_vertices:
            raise MeshFormatError(lineno, f"face index out of range in {line!r}")
        faces[row] = idx

    mesh = TriangleMesh(vertices, faces)
    areas = triangle_areas(mesh)
    keep = areas > DEGENERATE_AREA
    if not keep.any():
        raise EmptyMeshError(f"{path}: no non-degenerate faces")
    if not keep.all():
        mesh = TriangleMesh(vertices, faces[keep])
    return mesh


def save_mesh(path, mesh: TriangleMesh) -> None:
    """Write an ASCII OFF file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("OFF\n")
        fh.write(f"{mesh.num_vertices} {mesh.num_faces} 0\n")
        for v in mesh.vertices:
            fh.write(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for f in mesh.faces:
            fh.write(f"3 {f[0]} {f[1]} {f[2]}\n")


# Line breaks that str.splitlines knows and np.loadtxt does not, and the
# '#' that starts a comment line for the line loop only
_LOOP_ONLY = "#\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def load_points(path) -> PointCloud:
    """Read "x y z" or "x y z label" lines; mixing the two is an error.

    One np.loadtxt call parses a plain file. Text it cannot parse, or that
    holds '#' or a line break it does not know, goes through the line loop,
    which names the first bad line. Both read the same numbers bit for bit.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    # with no break but '\n' left, the first meaningful line is the first
    # line that is not blank
    first = re.search(r"\S[^\n]*", text)
    if first is not None and not any(c in text for c in _LOOP_ONLY):
        labeled = len(first.group().split()) == 4
        dtype = [("p", "f8", 3)] + ([("l", "i8")] if labeled else [])
        try:
            rows = np.loadtxt(io.StringIO(text), dtype=dtype, comments=None, ndmin=1)
        except ValueError:
            pass
        else:
            return PointCloud(np.ascontiguousarray(rows["p"]),
                              np.ascontiguousarray(rows["l"]) if labeled else None)
    return _parse_point_lines(path, text)


def _parse_point_lines(path, text) -> PointCloud:
    """The line loop: blank and '#' lines skipped, errors name the line."""
    positions = []
    labels = []
    for lineno, line in _meaningful_lines(text):
        fields = line.split()
        if len(fields) not in (3, 4):
            raise ValueError(f"{path} line {lineno}: expected 3 or 4 fields")
        try:
            positions.append([float(fields[0]), float(fields[1]), float(fields[2])])
            if len(fields) == 4:
                labels.append(np.int64(int(fields[3])))
        except (ValueError, OverflowError):  # not a number, or a label wider than int64
            raise ValueError(f"{path} line {lineno}: bad point {line!r}") from None
    if labels and len(labels) != len(positions):
        raise ValueError(f"{path}: some points carry labels and some do not")
    return PointCloud(
        np.asarray(positions, dtype=np.float64).reshape(-1, 3),
        np.asarray(labels, dtype=np.int64) if labels else None,
    )


def save_points(path, pc: PointCloud) -> None:
    """Write the plain-text point format, with a label column exactly when
    the cloud has labels; %.17g round-trips float64 exactly."""
    columns = pc.positions.T.tolist()
    fmt = "%.17g %.17g %.17g\n"
    if pc.labels is not None:
        columns.append(pc.labels.tolist())
        fmt = "%.17g %.17g %.17g %d\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(fmt % row for row in zip(*columns))


# ---------------------------------------------------------------------------
# Areas and sampling
# ---------------------------------------------------------------------------

def triangle_areas(mesh: TriangleMesh) -> np.ndarray:
    """Per-face area from the cross product of two edges."""
    a = mesh.vertices[mesh.faces[:, 0]]
    b = mesh.vertices[mesh.faces[:, 1]]
    c = mesh.vertices[mesh.faces[:, 2]]
    return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


def surface_area(mesh: TriangleMesh) -> float:
    return float(triangle_areas(mesh).sum())


def area_weighted_sample(mesh: TriangleMesh, m: int, rng: np.random.Generator) -> PointCloud:
    """m surface points: faces picked with probability proportional to area,
    then placed uniformly inside the triangle via reflected barycentric draws."""
    if m < 1:
        raise ValueError("need at least one sample")
    if mesh.num_faces == 0:
        raise EmptyMeshError("cannot sample an empty mesh")
    areas = triangle_areas(mesh)
    total = areas.sum()
    if total <= 0.0:
        raise EmptyMeshError("mesh has zero total area")
    cum = np.cumsum(areas)
    face_idx = np.searchsorted(cum, rng.random(m) * total, side="right")
    face_idx = np.minimum(face_idx, mesh.num_faces - 1)

    uv = rng.random((m, 2))
    flip = uv.sum(axis=1) > 1.0
    uv[flip] = 1.0 - uv[flip]

    a = mesh.vertices[mesh.faces[face_idx, 0]]
    b = mesh.vertices[mesh.faces[face_idx, 1]]
    c = mesh.vertices[mesh.faces[face_idx, 2]]
    points = a + uv[:, :1] * (b - a) + uv[:, 1:] * (c - a)
    return PointCloud(points)


def poisson_radius(area: float, n: int) -> float:
    """Target disk radius for n samples on a surface of the given area."""
    return math.sqrt(area / (2.0 * math.sqrt(3.0) * n))


def poisson_disk_sample(mesh: TriangleMesh, n: int, rng: np.random.Generator) -> PointCloud:
    """Exactly n well-spread surface points by weighted sample elimination.

    Oversamples OVERSAMPLE * n area-weighted points, weights each by sum
    over neighbors within 2*r of (1 - d/(2r))**WEIGHT_EXPONENT with
    r = sqrt(area / (2*sqrt(3)*n)), then greedily removes the heaviest
    point (lowest index on ties) and subtracts its pair weights from its
    neighbors, until n remain (Yuksel, Eurographics 2015).

    The heap holds one entry per live point, keyed by a weight that may be
    out of date. Weights only fall, so that key is always an upper bound on
    the point's current weight. An entry popped with an out-of-date key is
    pushed back once with the current weight; an entry popped with a current
    key is then the heaviest live point (lowest index on ties), exactly as if
    every update had been pushed. Removed points have no entry.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    m = OVERSAMPLE * n
    points = area_weighted_sample(mesh, m, rng).positions

    radius = 2.0 * poisson_radius(surface_area(mesh), n)
    pairs = cKDTree(points).query_pairs(radius, output_type="ndarray")
    dist = np.linalg.norm(points[pairs[:, 0]] - points[pairs[:, 1]], axis=1)
    pair_w = (1.0 - dist / radius) ** WEIGHT_EXPONENT
    # neighbor rows in CSR form; each row lists a neighbor once
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    wgt = np.concatenate([pair_w, pair_w])
    order = np.argsort(src, kind="stable")
    src, dst, wgt = src[order], dst[order], wgt[order]
    bounds = np.searchsorted(src, np.arange(m + 1)).tolist()
    # bincount of no pairs is int64; the in-place subtraction needs floats
    weight = np.bincount(src, weights=wgt, minlength=m).astype(np.float64)

    heap = [(-w, i) for i, w in enumerate(weight.tolist())]
    heapq.heapify(heap)
    alive = np.ones(m, dtype=bool)
    remaining = m
    while remaining > n:
        key, i = heapq.heappop(heap)
        w = weight.item(i)
        if -key != w:
            heapq.heappush(heap, (-w, i))
            continue
        alive[i] = False
        remaining -= 1
        lo, hi = bounds[i], bounds[i + 1]
        weight[dst[lo:hi]] -= wgt[lo:hi]
    return PointCloud(points[alive])


# ---------------------------------------------------------------------------
# Rigid / similarity transforms
# ---------------------------------------------------------------------------

def rotate_z(pc: PointCloud, angle: float) -> PointCloud:
    """Rotate about the z-axis through the origin; labels ride along."""
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return pc.with_positions(pc.positions @ rot.T)


def scale(pc: PointCloud, factor: float) -> PointCloud:
    """Uniform scaling about the cloud centroid."""
    if not factor > 0:
        raise ValueError("scale factor must be positive")
    centroid = pc.positions.mean(axis=0)
    # p*f + c*(1-f) keeps factor 1.0 an exact identity.
    return pc.with_positions(pc.positions * factor + centroid * (1.0 - factor))


def translate(pc: PointCloud, offset) -> PointCloud:
    offset = np.asarray(offset, dtype=np.float64).reshape(3)
    return pc.with_positions(pc.positions + offset)
