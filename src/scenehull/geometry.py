"""Triangle meshes, surface sampling, rigid point-cloud transforms and files.

Meshes are ASCII OFF files; point clouds ("x y z" or "x y z label") and
class probabilities are plain text, one row per line, with one reader and
one writer. OFF vertex and face rows, point and probability rows, and the
word-vector rows of anchors are parsed and checked by one line loop, which
names the file and line of a bad row. All coordinates are meters.
Every randomized operation takes a ``numpy.random.Generator`` and is a pure
function of (inputs, generator state), so a fixed seed replays byte-identically.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

# Faces with area at or below this are dropped at load time.
DEGENERATE_AREA = 1e-12
# Poisson-disk sample elimination: candidates per kept point, the exponent
# of the pair weight, and the size of its window of heaviest live points.
OVERSAMPLE = 4
WEIGHT_EXPONENT = 8.0
CANDIDATES = 128
# The most points to sample: their OVERSAMPLE * n candidates fit int32
# indices. Pair weights are computed PAIR_PART pairs at a time.
MAX_SAMPLE_POINTS = (2**31 - 1) // OVERSAMPLE
PAIR_PART = 65536


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

    def _annotations(self, take) -> list:
        """take applied to the labels and instance ids that are set."""
        return [None if arr is None else take(arr) for arr in (self.labels, self.instance_ids)]

    def copy(self) -> "PointCloud":
        return PointCloud(self.positions.copy(), *self._annotations(np.copy))

    def select(self, index) -> "PointCloud":
        """Subset by boolean mask or integer index, keeping per-point arrays."""
        return PointCloud(self.positions[index], *self._annotations(lambda arr: arr[index]))

    def with_positions(self, positions: np.ndarray) -> "PointCloud":
        """Same per-point data on new coordinates."""
        return PointCloud(positions, *self._annotations(np.copy))


# ---------------------------------------------------------------------------
# Mesh, point-cloud and probability file formats
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _open_text(path):
    """path opened as UTF-8 text; a byte that is not UTF-8 is a ValueError
    naming the file (its position would count from the last read)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _meaningful_lines(text):
    """(lineno, stripped line) pairs, skipping blanks and '#' comments."""
    lines = ((i, raw.strip()) for i, raw in enumerate(text.splitlines(), start=1))
    return ((i, line) for i, line in lines if line and not line.startswith("#"))


def load_mesh(path) -> TriangleMesh:
    """Read an ASCII OFF mesh, dropping degenerate (zero-area) faces;
    ValueError when no face remains."""
    with _open_text(path) as fh:
        lines = list(_meaningful_lines(fh.read()))
    if not lines:
        raise ValueError(f"{path}: empty OFF file")

    lineno, header = lines[0]
    if not header.startswith("OFF"):
        raise ValueError(f"{path} line {lineno}: expected OFF header, got {header!r}")
    cursor = 2 if header == "OFF" else 1  # some exporters glue the counts onto the header
    lineno, counts = lines[1] if cursor == 2 and len(lines) > 1 else (lineno, header[3:])
    n_vertices, n_faces = _parse_lines(path, [(lineno, counts)], _COUNTS)[1][0].tolist()
    if n_vertices < 0 or n_faces < 0:
        raise ValueError(f"{path} line {lineno}: negative counts {counts!r}")
    if len(lines) < cursor + n_vertices + n_faces:
        raise ValueError(f"{path} line {lines[-1][0]}: file truncated")

    vertices = _off_rows(path, lines[cursor:cursor + n_vertices], _VERTICES, np.float64, 3)
    face_lines = lines[cursor + n_vertices:cursor + n_vertices + n_faces]
    rows = _off_rows(path, face_lines, _FACES, np.int64, 4)
    faces = rows[:, 1:].copy()
    bad = (rows[:, 0] != 3) | (faces < 0).any(axis=1) | (faces >= n_vertices).any(axis=1)
    if bad.any():
        lineno, line = face_lines[bad.argmax()]
        raise ValueError(f"{path} line {lineno}: not a triangle or an index out of range: {line!r}")

    mesh = TriangleMesh(vertices, faces)
    keep = triangle_areas(mesh) > DEGENERATE_AREA
    if not keep.any():
        raise ValueError(f"{path}: no non-degenerate faces")
    return mesh if keep.all() else TriangleMesh(vertices, faces[keep])


def _off_rows(path, lines, layout, dtype, width):
    """The first width fields of each (lineno, line) as dtype, by one
    np.loadtxt; the line loop names a row it refuses or one not finite."""
    try:
        with warnings.catch_warnings():  # an empty section
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt([line for _, line in lines], dtype, comments=None,
                              usecols=range(width), ndmin=2)
        if np.isfinite(rows).all():
            return rows
    except ValueError:
        pass
    floats, ints = _parse_lines(path, lines, layout)
    return (ints if dtype is np.int64 else floats).reshape(-1, width)


def save_mesh(path, mesh: TriangleMesh) -> None:
    """Write an ASCII OFF file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"OFF\n{mesh.num_vertices} {mesh.num_faces} 0\n")
        _write_rows(fh, list(mesh.vertices.T), ["%.17g"] * 3)
        _write_rows(fh, [np.full(mesh.num_faces, 3), *mesh.faces.T], ["%d"] * 4)


# Line breaks that str.splitlines knows and np.loadtxt does not, and the
# '#' that starts a comment line for the line loop only
_LOOP_ONLY = "#\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_PART = 4096  # rows parsed or formatted at a time

# A row layout: field count -> (float, int64) counts, or None where no row may
# have that many; then the line loop's error words, the last formatted with
# path, the first row's counted width and line, and a row counted otherwise.
_POINTS = ({3: (3, 0), 4: (3, 1)}.get, "expected 3 or 4 fields", "bad point",
           "coordinate not finite", "{path}: some points carry labels and some do not")
_PROBABILITIES = (lambda width: (width, 0), None, "bad probability row", "probability not finite",
                  "{path} line {lineno}: expected {width} fields, as on line {first}")
# OFF rows: the vertex and face counts, 3 coordinates, a face's arity and 3
# indices; later fields (the edge count, a face colour) are skipped
_COUNTS = (lambda width: (0, 2) if width >= 2 else None, "expected vertex and face counts",
           "non-integer counts", None, None)
_VERTICES = (lambda width: (3, 0) if width >= 3 else None, "vertex needs 3 coordinates",
             "bad vertex", "vertex not finite", None)
_FACES = (lambda width: (0, 4) if width >= 4 else None, "face needs an arity and 3 indices",
          "bad face", None, None)


def _read_rows(path, layout):
    """(floats (N, F), int64s (N, I)) with F and I set by the layout for
    the first row's field count.

    np.loadtxt parses a plain file, 4096 lines at a time, into arrays sized
    by its line count, so the text is never held whole. Text it cannot
    parse, that holds '#' or a line break it does not know, or that holds a
    float that is not finite, goes through the line loop, which names the
    first bad line. Both read the same numbers bit for bit.
    """
    with _open_text(path) as fh:
        plain, lines = True, 1
        for chunk in iter(lambda: fh.read(1 << 16), ""):
            plain = plain and not any(c in chunk for c in _LOOP_ONLY)
            lines += chunk.count("\n")
        fh.seek(0)
        first = next((line for line in fh if not line.isspace()), None)
        columns = layout[0](len(first.split())) if first else None
        if plain and columns:
            n_float, n_int = columns
            dtype = [("f", "f8", (n_float,))] + ([("i", "i8", (n_int,))] if n_int else [])
            floats, ints, n = np.empty((lines, n_float)), np.empty((lines, n_int), np.int64), 0
            fh.seek(0)
            try:
                with warnings.catch_warnings():  # a run of blank lines holds no data
                    warnings.simplefilter("ignore", UserWarning)
                    for part in iter(lambda: list(itertools.islice(fh, _PART)), []):
                        rows = np.loadtxt(part, dtype=dtype, comments=None, ndmin=1)
                        for name, out in zip(rows.dtype.names, (floats, ints)):
                            out[n:n + len(rows)] = rows[name]
                        n += len(rows)
                if np.isfinite(floats[:n]).all():
                    return floats[:n], ints[:n]
            except ValueError:  # the line loop names the line
                pass
        fh.seek(0)
        return _parse_lines(path, _meaningful_lines(fh.read()), layout)


def _parse_lines(path, lines, layout):
    """The line loop over (lineno, line) pairs: the first fields of a row, as
    many as the layout counts, are parsed, and errors name the line."""
    columns, width_error, bad, not_finite, mixed = layout
    floats, ints, counted = [], [], []
    for lineno, line in lines:
        fields = line.split()
        counts = columns(len(fields))
        if counts is None:
            raise ValueError(f"{path} line {lineno}: {width_error}")
        try:
            floats.append([float(f) for f in fields[:counts[0]]])
            ints.append([np.int64(int(f)) for f in fields[counts[0]:sum(counts)]])
        except (ValueError, OverflowError):  # not a number, or an int wider than int64
            raise ValueError(f"{path} line {lineno}: {bad} {line!r}") from None
        if not all(map(math.isfinite, floats[-1])):
            raise ValueError(f"{path} line {lineno}: {not_finite}: {line!r}")
        counted.append((counts, lineno))
    if not counted:
        return np.empty((0, 0)), np.empty((0, 0))
    for counts, lineno in counted:
        if counts != counted[0][0]:
            raise ValueError(mixed.format(path=path, lineno=lineno, width=sum(counted[0][0]),
                                          first=counted[0][1]))
    return np.array(floats), np.array(ints, np.int64)


def _write_rows(fh, columns, formats, order=None) -> None:
    """One line per row of the 1-D columns, formatted in parts by formats, one
    per column (%.17g round-trips float64 exactly). With order, line i
    repeats row order[i], and each row is still formatted once.

    The ordered rows wait in one fixed-width byte array, 25 bytes a column:
    a %.17g float64 or a %d int64 is at most 24 characters (as in
    -2.2250738585072014e-308), plus its space or newline. As one Python
    str each, the rows would fill CPython's small-object arenas, which the
    process keeps after the write."""
    fmt = " ".join(formats) + "\n"
    parts = ([fmt % row for row in zip(*(c[lo:lo + _PART].tolist() for c in columns))]
             for lo in range(0, len(columns[0]), _PART))
    if order is None:
        for lines in parts:
            fh.writelines(lines)
    else:
        rows = np.empty(len(columns[0]), f"S{25 * len(columns)}")
        for lo, lines in zip(range(0, len(rows), _PART), parts):
            rows[lo:lo + _PART] = lines
        for lo in range(0, len(order), _PART):
            fh.write(b"".join(rows[order[lo:lo + _PART]].tolist()).decode())


def load_points(path) -> PointCloud:
    """Read "x y z" or "x y z label" lines; mixing the two is an error."""
    floats, ints = _read_rows(path, _POINTS)
    return PointCloud(floats.reshape(-1, 3), ints[:, 0] if ints.shape[1] else None)


def save_points(path, pc: PointCloud) -> None:
    """Write the plain-text point format, with a label column exactly when
    the cloud has labels."""
    labels = [] if pc.labels is None else [pc.labels]
    with open(path, "w", encoding="utf-8") as fh:
        _write_rows(fh, [*pc.positions.T, *labels], ["%.17g"] * 3 + ["%d"] * len(labels))


def load_probabilities(path) -> np.ndarray:
    """(N, C) float64, one finite value per class on each point's line."""
    return _read_rows(path, _PROBABILITIES)[0]


def save_probabilities(path, probs: np.ndarray, order=None) -> None:
    """Write (N, C) probabilities a row per line, or row order[i] on line i."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_rows(fh, list(probs.T), ["%.17g"] * probs.shape[1], order)


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
        raise ValueError("cannot sample an empty mesh")
    areas = triangle_areas(mesh)
    total = areas.sum()
    if total <= 0.0:
        raise ValueError("mesh has zero total area")
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
    neighbors, until n remain (Yuksel, Eurographics 2015). n above
    MAX_SAMPLE_POINTS raises ValueError: its candidates would not fit the
    int32 pair indices.

    The pair weights are computed PAIR_PART pairs at a time into one array,
    so no gather spans all pairs. Each point's initial weight is a bincount
    over the pair list in query order, both directions; that summation
    order fixes its bits, so it is not taken from the neighbor rows.
    scipy.sparse builds those rows, in CSR form, by a counting sort.

    Removals come from a window of the CANDIDATES heaviest live points (by
    weight, then lowest index); (v, last) is the key of the point ranked
    next. Weights only fall, so while the window's argmax (lowest index on
    ties) ranks above that key it is the heaviest live point. It is removed
    and its weight set to -inf; otherwise the window is built again. With
    no more than CANDIDATES points live, the window holds them all.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if n > MAX_SAMPLE_POINTS:
        raise ValueError(f"cannot sample {n} points: at most {MAX_SAMPLE_POINTS}")
    m = OVERSAMPLE * n
    points = area_weighted_sample(mesh, m, rng).positions

    radius = 2.0 * poisson_radius(surface_area(mesh), n)
    pairs = cKDTree(points).query_pairs(radius, output_type="ndarray").astype(np.int32)
    p = len(pairs)
    wgt = np.empty(2 * p)
    for lo in range(0, p, PAIR_PART):
        part = pairs[lo:lo + PAIR_PART]
        dist = np.linalg.norm(points[part[:, 0]] - points[part[:, 1]], axis=1)
        wgt[lo:lo + len(part)] = (1.0 - dist / radius) ** WEIGHT_EXPONENT
    wgt[p:] = wgt[:p]
    src = pairs.T.ravel()
    del pairs
    dst = np.concatenate([src[p:], src[:p]])
    # bincount of no pairs is int64; the subtractions below need floats
    weight = np.bincount(src, weights=wgt, minlength=m).astype(np.float64)
    # neighbor rows; each lists a neighbor once, in any order
    rows = csr_matrix((wgt, (src, dst)), shape=(m, m))
    del src, dst, wgt
    bounds, dst, wgt = rows.indptr.tolist(), rows.indices.astype(np.intp), rows.data
    del rows

    remaining = m
    while remaining > n:
        v, last = -np.inf, 0
        if remaining > CANDIDATES:
            v = np.partition(weight, m - CANDIDATES - 1)[m - CANDIDATES - 1]
            last = np.flatnonzero(weight == v)[CANDIDATES - np.count_nonzero(weight > v)]
        window = np.flatnonzero((weight > v) | ((weight == v) & (np.arange(m) < last)))
        while remaining > n:
            i = window.item(weight[window].argmax())
            w = weight.item(i)
            if w < v or (w == v and i > last):
                break
            weight[i] = -np.inf
            remaining -= 1
            lo, hi = bounds[i], bounds[i + 1]
            weight[dst[lo:hi]] -= wgt[lo:hi]
    return PointCloud(points[weight > -np.inf])


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
