"""Mesh loading, surface sampling and rigid transforms."""

import heapq
import io
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

from scenehull import geometry
from scenehull.geometry import (
    EmptyMeshError,
    PointCloud,
    TriangleMesh,
    area_weighted_sample,
    load_mesh,
    load_points,
    load_probabilities,
    poisson_disk_sample,
    poisson_radius,
    rotate_z,
    save_mesh,
    save_points,
    save_probabilities,
    scale,
    surface_area,
    translate,
)
from scenehull.toydata import TOY_CLASSES, icosphere, toy_mesh

CUBE_OFF = """OFF
8 12 0
0 0 0
1 0 0
1 1 0
0 1 0
0 0 1
1 0 1
1 1 1
0 1 1
3 0 2 1
3 0 3 2
3 4 5 6
3 4 6 7
3 0 1 5
3 0 5 4
3 1 2 6
3 1 6 5
3 2 3 7
3 2 7 6
3 3 0 4
3 3 4 7
"""


def unit_square_mesh():
    verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)
    faces = np.array([[0, 1, 2], [0, 2, 3]])
    return TriangleMesh(verts, faces)


class TestLoadMesh:
    def test_unit_cube(self, tmp_path):
        path = tmp_path / "cube.off"
        path.write_text(CUBE_OFF)
        mesh = load_mesh(path)
        assert mesh.num_vertices == 8
        assert mesh.num_faces == 12
        # vertex order preserved
        np.testing.assert_array_equal(mesh.vertices[1], [1, 0, 0])

    def test_face_index_out_of_range(self, tmp_path):
        path = tmp_path / "bad.off"
        path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 9\n")
        with pytest.raises(ValueError, match="out of range"):
            load_mesh(path)

    def test_degenerate_face_dropped(self, tmp_path):
        # cube plus one zero-area face (repeated vertex)
        path = tmp_path / "degen.off"
        text = CUBE_OFF.replace("8 12 0", "8 13 0") + "3 0 0 1\n"
        path.write_text(text)
        mesh = load_mesh(path)
        assert mesh.num_faces == 12

    def test_all_faces_degenerate(self, tmp_path):
        path = tmp_path / "flat.off"
        path.write_text("OFF\n3 1 0\n0 0 0\n0 0 0\n0 0 0\n3 0 1 2\n")
        with pytest.raises(EmptyMeshError):
            load_mesh(path)

    def test_glued_header(self, tmp_path):
        path = tmp_path / "glued.off"
        path.write_text("OFF3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        mesh = load_mesh(path)
        assert mesh.num_faces == 1

    def test_not_off(self, tmp_path):
        path = tmp_path / "nope.off"
        path.write_text("PLY\n")
        with pytest.raises(ValueError, match="line 1"):
            load_mesh(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "short.off"
        path.write_text("OFF\n4 2 0\n0 0 0\n1 0 0\n")
        with pytest.raises(ValueError, match="truncated"):
            load_mesh(path)

    @pytest.mark.parametrize("counts", ["-1 1 0", "3 -2 0"])
    def test_negative_counts(self, tmp_path, counts):
        path = tmp_path / "neg.off"
        path.write_text(f"OFF\n{counts}\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        message = f"{path} line 2: negative counts '{counts}'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_mesh(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_mesh(tmp_path / "absent.off")

    @pytest.mark.parametrize("bad", ["1 0 nan", "inf 0 0", "0 1e400 0"])
    def test_non_finite_vertex_names_the_line(self, tmp_path, bad):
        path = tmp_path / "bad.off"
        path.write_text(f"OFF\n3 1 0\n0 0 0\n# a comment\n{bad}\n0 1 0\n3 0 1 2\n")
        message = f"{path} line 5: vertex not finite: {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_mesh(path)

    @pytest.mark.parametrize("row, message", [
        ("1 0", "vertex needs 3 coordinates"), ("1 0 x", "bad vertex '1 0 x'"),
        ("1 0 0_", "bad vertex '1 0 0_'")])
    def test_bad_vertex_names_the_line(self, tmp_path, row, message):
        path = tmp_path / "bad.off"
        path.write_text(f"OFF\n3 1 0\n0 0 0\n{row}\n0 1 0\n3 0 1 2\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path} line 4: {message}')}$"):
            load_mesh(path)

    @pytest.mark.parametrize("row, message", [
        ("4 0 1 2 3", "not a triangle or an index out of range: '4 0 1 2 3'"),
        ("3 0 1 4", "not a triangle or an index out of range: '3 0 1 4'"),
        ("3 0 -1 2", "not a triangle or an index out of range: '3 0 -1 2'"),
        ("3 0 1", "face needs an arity and 3 indices"), ("3 0 1 2.0", "bad face '3 0 1 2.0'"),
        ("3 0 1 99999999999999999999", "bad face '3 0 1 99999999999999999999'")])
    def test_bad_face_names_the_line(self, tmp_path, row, message):
        # the first bad face is named, not a later one
        path = tmp_path / "bad.off"
        path.write_text(f"OFF\n4 4 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n3 0 1 2\n{row}\n"
                        "4 0 1 2 3\n3 0 1 9\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path} line 8: {message}')}$"):
            load_mesh(path)

    def test_trailing_fields_skipped(self, tmp_path):
        # an OFF face colour, and anything after a vertex's coordinates
        plain, coloured = tmp_path / "plain.off", tmp_path / "coloured.off"
        plain.write_text(CUBE_OFF)
        lines = CUBE_OFF.splitlines()
        lines[2:10] = [f"{line} 0.5" for line in lines[2:10]]
        lines[10:] = [f"{line} 255 0 0 # red" for line in lines[10:]]
        coloured.write_text("\n".join(lines) + "\n")
        a, b = load_mesh(plain), load_mesh(coloured)
        assert a.vertices.tobytes() == b.vertices.tobytes()
        assert a.faces.tobytes() == b.faces.tobytes()

    @pytest.mark.parametrize("name", TOY_CLASSES)
    def test_matches_the_line_loop(self, tmp_path, name):
        """Each mesh reads the same arrays as a float() and int() per field
        of each line, with and without face colours and odd separators."""
        mesh = toy_mesh(name)
        path = tmp_path / f"{name}.off"
        save_mesh(path, mesh)
        text = path.read_text()
        for variant in (text, text.replace(" ", "\t"), text.replace(" ", "\xa0"),
                        "".join(line + (" 1 2 3\n" if line.startswith("3 ") else "\n")
                                for line in text.splitlines())):
            path.write_text(variant)
            back, reference = load_mesh(path), line_loop_load_mesh(path)
            assert back.vertices.dtype == np.float64 and back.faces.dtype == np.int64
            assert back.vertices.tobytes() == reference.vertices.tobytes()
            assert back.faces.tobytes() == reference.faces.tobytes()


class TestSurfaceArea:
    def test_unit_square(self):
        assert surface_area(unit_square_mesh()) == pytest.approx(1.0, abs=1e-12)

    def test_unit_cube(self, tmp_path):
        path = tmp_path / "cube.off"
        path.write_text(CUBE_OFF)
        assert surface_area(load_mesh(path)) == pytest.approx(6.0, abs=1e-12)

    def test_icosphere_matches_sphere(self):
        # independent oracle: sum per-triangle areas from raw vertex math
        mesh = icosphere(3, radius=1.0)
        assert mesh.num_faces == 1280
        total = 0.0
        for i, j, k in mesh.faces:
            a, b, c = mesh.vertices[i], mesh.vertices[j], mesh.vertices[k]
            total += 0.5 * np.linalg.norm(np.cross(b - a, c - a))
        assert surface_area(mesh) == pytest.approx(total, rel=1e-12)
        assert abs(total - 4.0 * math.pi) / (4.0 * math.pi) < 0.01


class TestAreaWeightedSample:
    def test_single_triangle_barycentric(self):
        verts = np.array([[0, 0, 0], [2, 0, 0], [0, 3, 0]], dtype=float)
        mesh = TriangleMesh(verts, np.array([[0, 1, 2]]))
        pc = area_weighted_sample(mesh, 1, np.random.default_rng(0))
        p = pc.positions[0]
        # barycentric coordinates of p w.r.t. the triangle
        u, v = p[0] / 2.0, p[1] / 3.0
        assert u >= 0 and v >= 0 and u + v <= 1.0 + 1e-12
        assert p[2] == 0.0

    def test_area_proportional_split(self):
        # unit square split into 2 equal triangles: ~half the samples in each
        mesh = unit_square_mesh()
        pc = area_weighted_sample(mesh, 10000, np.random.default_rng(1))
        # first triangle is x >= y (below the diagonal)
        frac = np.mean(pc.positions[:, 0] >= pc.positions[:, 1])
        assert abs(frac - 0.5) <= 0.02

    def test_deterministic(self):
        mesh = unit_square_mesh()
        a = area_weighted_sample(mesh, 100, np.random.default_rng(3))
        b = area_weighted_sample(mesh, 100, np.random.default_rng(3))
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_empty_mesh(self):
        mesh = TriangleMesh(np.zeros((3, 3)), np.zeros((0, 3), dtype=int))
        with pytest.raises(EmptyMeshError):
            area_weighted_sample(mesh, 5, np.random.default_rng(0))


def scattered_triangles(count, side=0.01, spacing=10.0):
    """count small right triangles, far apart along x."""
    corner = np.array([[0.0, 0.0, 0.0], [side, 0.0, 0.0], [0.0, side, 0.0]])
    verts = np.concatenate([corner + [k * spacing, 0.0, 0.0] for k in range(count)])
    return TriangleMesh(verts, np.arange(3 * count).reshape(count, 3))


def greedy_elimination(mesh, n, seed, oversample=4, weight_exponent=8.0):
    """Brute-force sample elimination: (kept points, initial weights, pairs).

    Draws the candidates and their neighbor pairs as poisson_disk_sample
    does, then removes the live point of largest current weight (lowest
    index on ties) by a full scan, subtracting its pair weights from its
    live neighbors.
    """
    m = oversample * n
    points = area_weighted_sample(mesh, m, np.random.default_rng(seed)).positions
    radius = 2.0 * poisson_radius(surface_area(mesh), n)
    pairs = cKDTree(points).query_pairs(radius, output_type="ndarray")
    dist = np.linalg.norm(points[pairs[:, 0]] - points[pairs[:, 1]], axis=1)
    pair_w = ((1.0 - dist / radius) ** weight_exponent).tolist()
    # a point's neighbors in the order its weight is summed: first the pairs
    # it leads, then the pairs it closes
    rows = [[] for _ in range(m)]
    for (a, b), w in zip(pairs.tolist(), pair_w):
        rows[a].append((b, w))
    for (a, b), w in zip(pairs.tolist(), pair_w):
        rows[b].append((a, w))
    weight = [0.0] * m
    for i, row in enumerate(rows):
        for _, w in row:
            weight[i] += w
    initial = list(weight)
    alive = [True] * m
    for _ in range(m - n):
        i = max((k for k in range(m) if alive[k]), key=lambda k: (weight[k], -k))
        alive[i] = False
        for j, w in rows[i]:
            if alive[j]:
                weight[j] -= w
    return points[np.array(alive)], initial, pairs


def heap_elimination(mesh, n, rng):
    """poisson_disk_sample with a lazy heap: one (-weight, index) entry per
    live point, keyed by a weight that may be out of date. Weights only
    fall, so an entry popped with an out-of-date key is pushed back with the
    current weight, and one popped with a current key is the heaviest live
    point (lowest index on ties)."""
    m = 4 * n
    points = area_weighted_sample(mesh, m, rng).positions
    radius = 2.0 * poisson_radius(surface_area(mesh), n)
    pairs = cKDTree(points).query_pairs(radius, output_type="ndarray")
    dist = np.linalg.norm(points[pairs[:, 0]] - points[pairs[:, 1]], axis=1)
    pair_w = (1.0 - dist / radius) ** 8.0
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    wgt = np.concatenate([pair_w, pair_w])
    order = np.argsort(src, kind="stable")
    src, dst, wgt = src[order], dst[order], wgt[order]
    bounds = np.searchsorted(src, np.arange(m + 1)).tolist()
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
    return points[alive]


class TestPoissonDisk:
    @pytest.mark.parametrize("n", [1, 7, 64])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_greedy_reference_on_icosphere(self, n, seed):
        mesh = icosphere(3, radius=1.0)
        expected, _, _ = greedy_elimination(mesh, n, seed)
        pc = poisson_disk_sample(mesh, n, np.random.default_rng(seed))
        assert pc.positions.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [7, 20, 40])
    def test_matches_greedy_reference_with_ties(self, n):
        # lone samples on a triangle weigh exactly 0; pairs alone tie too
        mesh = scattered_triangles(200)
        for seed in range(3):
            expected, initial, _ = greedy_elimination(mesh, n, seed)
            assert initial.count(0.0) >= 2
            pc = poisson_disk_sample(mesh, n, np.random.default_rng(seed))
            assert pc.positions.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n, seed", [(100, 0), (100, 1), (300, 2)])
    def test_matches_greedy_reference_past_the_window(self, n, seed):
        # 4n candidates, several windows of CANDIDATES
        assert 4 * n > 3 * geometry.CANDIDATES
        mesh = icosphere(3, radius=1.0)
        expected, _, _ = greedy_elimination(mesh, n, seed)
        pc = poisson_disk_sample(mesh, n, np.random.default_rng(seed))
        assert pc.positions.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [60, 100, 150])
    def test_matches_greedy_reference_with_ties_at_the_window_edge(self, n):
        # more points weigh exactly 0 than a window holds, so a window takes
        # the lowest-index ones and the next one bounds the rest
        mesh = scattered_triangles(400)
        for seed in range(3):
            expected, initial, _ = greedy_elimination(mesh, n, seed)
            assert initial.count(0.0) > geometry.CANDIDATES
            pc = poisson_disk_sample(mesh, n, np.random.default_rng(seed))
            assert pc.positions.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", TOY_CLASSES)
    @pytest.mark.parametrize("n", [512, 8196])
    def test_matches_heap_elimination_on_toy_meshes(self, name, n):
        mesh = toy_mesh(name)
        for seed in range(3):
            expected = heap_elimination(mesh, n, np.random.default_rng(seed))
            pc = poisson_disk_sample(mesh, n, np.random.default_rng(seed))
            assert pc.positions.tobytes() == expected.tobytes()

    def test_no_pairs_keeps_the_last_candidates(self):
        # every candidate on its own triangle: all weights 0, lowest index
        # goes first
        mesh = scattered_triangles(400)
        n = 2
        expected, initial, pairs = greedy_elimination(mesh, n, seed=5)
        assert len(pairs) == 0 and initial == [0.0] * (4 * n)
        candidates = area_weighted_sample(mesh, 4 * n, np.random.default_rng(5))
        pc = poisson_disk_sample(mesh, n, np.random.default_rng(5))
        assert pc.positions.tobytes() == expected.tobytes()
        assert pc.positions.tobytes() == candidates.positions[-n:].tobytes()

    def test_single_point(self):
        pc = poisson_disk_sample(unit_square_mesh(), 1, np.random.default_rng(0))
        assert len(pc) == 1
        assert 0.0 <= pc.positions[0, 0] <= 1.0

    def test_count_and_spacing_on_icosphere(self):
        mesh = icosphere(3, radius=1.0)
        n = 512
        pc = poisson_disk_sample(mesh, n, np.random.default_rng(0))
        assert len(pc) == n
        r_max = poisson_radius(surface_area(mesh), n)
        # brute-force all-pairs minimum distance
        diff = pc.positions[:, None, :] - pc.positions[None, :, :]
        dist = np.sqrt((diff ** 2).sum(-1))
        np.fill_diagonal(dist, np.inf)
        assert dist.min() >= 0.5 * r_max

    def test_deterministic(self):
        mesh = unit_square_mesh()
        a = poisson_disk_sample(mesh, 64, np.random.default_rng(9))
        b = poisson_disk_sample(mesh, 64, np.random.default_rng(9))
        np.testing.assert_array_equal(a.positions, b.positions)


class TestPoissonDiskLimits:
    def test_count_beyond_int32_candidates_rejected(self):
        assert geometry.MAX_SAMPLE_POINTS * geometry.OVERSAMPLE < 2**31
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=f"at most {geometry.MAX_SAMPLE_POINTS}"):
            poisson_disk_sample(unit_square_mesh(), geometry.MAX_SAMPLE_POINTS + 1, rng)
        assert rng.random() == np.random.default_rng(0).random()  # nothing drawn

    @pytest.mark.parametrize("name", TOY_CLASSES)
    def test_memory_peak_of_a_dense_model(self, name):
        # no array spans all ~240k pairs for long: the pair weights are
        # computed in parts and the neighbor rows are counting-sorted
        tracemalloc.start()
        try:
            poisson_disk_sample(toy_mesh(name), 8196, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6


class TestTransforms:
    def test_full_turn_is_identity(self):
        rng = np.random.default_rng(0)
        pc = PointCloud(rng.normal(size=(50, 3)))
        out = rotate_z(pc, 2.0 * math.pi)
        assert np.abs(out.positions - pc.positions).max() < 1e-9

    def test_quarter_turn(self):
        pc = PointCloud(np.array([[1.0, 0.0, 0.0]]))
        out = rotate_z(pc, math.pi / 2.0)
        np.testing.assert_allclose(out.positions[0], [0.0, 1.0, 0.0], atol=1e-12)

    def test_rotation_preserves_pairwise_distances(self):
        rng = np.random.default_rng(4)
        pc = PointCloud(rng.normal(size=(40, 3)))
        out = rotate_z(pc, 1.2345)
        # brute-force pairwise comparison
        d_in = np.linalg.norm(pc.positions[:, None] - pc.positions[None, :], axis=-1)
        d_out = np.linalg.norm(out.positions[:, None] - out.positions[None, :], axis=-1)
        assert np.abs(d_in - d_out).max() < 1e-9

    def test_scale_identity(self):
        rng = np.random.default_rng(5)
        pc = PointCloud(rng.normal(size=(20, 3)))
        out = scale(pc, 1.0)
        np.testing.assert_array_equal(out.positions, pc.positions)

    def test_scale_doubles_centroid_distances(self):
        rng = np.random.default_rng(6)
        pc = PointCloud(rng.normal(size=(20, 3)))
        out = scale(pc, 2.0)
        c_in = pc.positions.mean(axis=0)
        c_out = out.positions.mean(axis=0)
        r_in = np.linalg.norm(pc.positions - c_in, axis=1)
        r_out = np.linalg.norm(out.positions - c_out, axis=1)
        assert np.abs(r_out - 2.0 * r_in).max() < 1e-9

    def test_scale_multiplies_pairwise_distances(self):
        rng = np.random.default_rng(8)
        pc = PointCloud(rng.normal(size=(25, 3)))
        out = scale(pc, 0.37)
        d_in = np.linalg.norm(pc.positions[:, None] - pc.positions[None, :], axis=-1)
        d_out = np.linalg.norm(out.positions[:, None] - out.positions[None, :], axis=-1)
        assert np.abs(d_out - 0.37 * d_in).max() < 1e-9

    def test_nonpositive_scale_rejected(self):
        pc = PointCloud(np.zeros((1, 3)))
        with pytest.raises(ValueError):
            scale(pc, 0.0)
        with pytest.raises(ValueError):
            scale(pc, -1.0)

    def test_translate_roundtrip(self):
        rng = np.random.default_rng(7)
        pc = PointCloud(rng.normal(size=(30, 3)))
        v = np.array([0.3, -1.7, 2.2])
        out = translate(translate(pc, v), -v)
        assert np.abs(out.positions - pc.positions).max() < 1e-12

    def test_labels_carried_through(self):
        pc = PointCloud(np.zeros((3, 3)), labels=[1, 2, 3])
        for out in (rotate_z(pc, 0.5), scale(pc, 1.5), translate(pc, [1, 0, 0])):
            np.testing.assert_array_equal(out.labels, [1, 2, 3])


class TestPointCloudType:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PointCloud(np.array([[0.0, 0.0, np.nan]]))

    def test_rejects_wrong_annotation_length(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((2, 3)), labels=[1])

    def test_point_file_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        pc = PointCloud(rng.normal(size=(17, 3)), labels=rng.integers(0, 5, 17))
        path = tmp_path / "pts.txt"
        save_points(path, pc)
        back = load_points(path)
        np.testing.assert_array_equal(back.positions, pc.positions)
        np.testing.assert_array_equal(back.labels, pc.labels)

    def test_point_file_bytes_match_per_row_formatting(self, tmp_path):
        # -0.0, subnormals, 1e16 (the last integer printed without exponent)
        # and negative labels
        positions = np.array([[-0.0, 5e-324, 2.2250738585072014e-308 / 3],
                              [1e16, -1e16, 1e17],
                              [0.1, 1.0 / 3.0, -123.456]])
        pc = PointCloud(positions, labels=[-1, 0, -7])
        labeled, plain = tmp_path / "l.txt", tmp_path / "p.txt"
        save_points(labeled, pc)
        save_points(plain, PointCloud(pc.positions))
        rows = [f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}" for p in pc.positions]
        assert labeled.read_text() == "".join(
            f"{row} {lab}\n" for row, lab in zip(rows, pc.labels))
        assert plain.read_text() == "".join(f"{row}\n" for row in rows)
        assert labeled.read_text().splitlines()[0] == "-0 4.9406564584124654e-324 " \
                                                      "7.4169128616906696e-309 -1"

    def test_files_over_several_parts_match_per_row_formatting(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 9000  # rows are formatted 4096 at a time
        positions = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-300, 300, size=(n, 1))
        pc = PointCloud(positions, labels=rng.integers(-2**63, 2**63 - 1, n))
        path = tmp_path / "pts.txt"
        save_points(path, pc)
        assert path.read_text() == "".join(f"{x:.17g} {y:.17g} {z:.17g} {label}\n"
                                           for (x, y, z), label in zip(positions, pc.labels))
        mesh = TriangleMesh(positions, rng.integers(0, n, size=(5000, 3)))
        save_mesh(path, mesh)
        assert path.read_text() == "".join(
            [f"OFF\n{n} 5000 0\n"] + [f"{x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in positions]
            + [f"3 {a} {b} {c}\n" for a, b, c in mesh.faces])

    def test_point_file_without_labels(self, tmp_path):
        pc = PointCloud(np.array([[0.5, 1.25, -3.0]]))
        path = tmp_path / "pts.txt"
        save_points(path, pc)
        back = load_points(path)
        assert back.labels is None
        np.testing.assert_array_equal(back.positions, pc.positions)


def line_loop_load_mesh(path) -> TriangleMesh:
    """An OFF file read line by line, with one float() or int() per field,
    for a well-formed mesh with no degenerate face."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.split() for _, line in geometry._meaningful_lines(fh.read())]
    n_vertices, n_faces = int(lines[1][0]), int(lines[1][1])
    vertices = [[float(f) for f in fields[:3]] for fields in lines[2:2 + n_vertices]]
    faces = [[int(f) for f in fields[1:4]] for fields in lines[2 + n_vertices:]]
    assert len(faces) == n_faces
    return TriangleMesh(np.array(vertices), np.array(faces))


def line_loop_load_points(path) -> PointCloud:
    """The reader before np.loadtxt: one str.split and float/int per line,
    and a check that the coordinates are finite."""
    positions = []
    labels = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in geometry._meaningful_lines(fh.read()):
            fields = line.split()
            if len(fields) not in (3, 4):
                raise ValueError(f"{path} line {lineno}: expected 3 or 4 fields")
            try:
                positions.append([float(fields[0]), float(fields[1]), float(fields[2])])
                if len(fields) == 4:
                    labels.append(np.int64(int(fields[3])))
            except (ValueError, OverflowError):
                raise ValueError(f"{path} line {lineno}: bad point {line!r}") from None
            if not all(math.isfinite(v) for v in positions[-1]):
                raise ValueError(f"{path} line {lineno}: coordinate not finite: {line!r}")
    if labels and len(labels) != len(positions):
        raise ValueError(f"{path}: some points carry labels and some do not")
    return PointCloud(
        np.asarray(positions, dtype=np.float64).reshape(-1, 3),
        np.asarray(labels, dtype=np.int64) if labels else None,
    )


def line_loop_load_probabilities(path) -> np.ndarray:
    """A probability table read line by line: one str.split and float per
    field, every value finite, and every row as wide as the first."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in geometry._meaningful_lines(fh.read()):
            try:
                row = [float(field) for field in line.split()]
            except ValueError:
                raise ValueError(f"{path} line {lineno}: bad probability row {line!r}") from None
            if not all(math.isfinite(v) for v in row):
                raise ValueError(f"{path} line {lineno}: probability not finite: {line!r}")
            rows.append((lineno, row))
    if not rows:
        return np.empty((0, 0))
    for lineno, row in rows:
        if len(row) != len(rows[0][1]):
            raise ValueError(f"{path} line {lineno}: expected {len(rows[0][1])} fields, "
                             f"as on line {rows[0][0]}")
    return np.array([row for _, row in rows], dtype=np.float64)


def outcome(reader, path):
    """For a cloud (positions bytes, shape, label bytes or None), for a
    table (bytes, shape), or (exception type, message)."""
    try:
        result = reader(path)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    if isinstance(result, np.ndarray):
        assert result.dtype == np.float64 and result.flags.c_contiguous
        return result.tobytes(), result.shape
    pc = result
    assert pc.positions.dtype == np.float64 and pc.positions.flags.c_contiguous
    labels = None if pc.labels is None else (pc.labels.dtype, pc.labels.tobytes())
    return pc.positions.tobytes(), pc.positions.shape, labels


class TestLoadPointsMatchesLineLoop:
    """load_points and load_probabilities parse with np.loadtxt and fall
    back to the line loop; both must give the same arrays, or the same
    exception and message."""

    CASES = [
        "", "\n\n", "   \n\t\n", "1 2 3\n", "1 2 3", "1 2 3 4\n", "1 2 3 -4\n5 6 7 8\n",
        "\n1 2 3\n\n  \n4 5 6\n\n", "1 2 3\r\n4 5 6\r\n", "1 2 3\r4 5 6\r", "1\t2\t3\t4\n",
        "  1   2\t 3  \n", "# header\n1 2 3\n", "1 2 3\n# 4 5 6\n7 8 9\n", "  # x\n1 2 3\n",
        "1 2 3 # note\n", "1 2 3#\n", "1 2# 3\n", "1 2 3\n4 5 6 7\n", "1 2 3 4\n5 6 7\n",
        "1 2\n", "1 2 3 4 5\n", "1_0 2 3\n", "1 2 3 1_0\n", "\u0661 2 3\n", "1 2 3 \u0663\n",
        "1 2 3 99999999999999999999\n", "1 2 3 -99999999999999999999\n",
        "1 2 3 9223372036854775807\n", "1 2 3 -9223372036854775808\n", "1 2 3 3.0\n",
        "1 2 3 1e3\n", "1 2 3 +4\n", "1 2 3 -0\n", "nan 2 3\n", "inf 2 3 1\n",
        "-Infinity 2 3\n", "1e500 2 3\n", "1 2\f3\n", "1 2 3\f\n", "1 2 3\v4 5 6\n",
        "1 2 3\x1c4 5 6\n", "1 2 3\x85\n", "1 2 3\u2028", "1 2 3\u2029\n", "1\xa02\u30003\n",
        "1 2\x1f3\n", "1 2 3\x00\n", "1 2 3\x004\n", "\x00\n1 2 3\n", "0x1 2 3\n",
        "1 2 3 0x1\n", ".5 -.5e-3 +5.\n", "-0 0 -0.0 -1\n", "5e-324 1e-320 2.2250738585072014e-308\n",
        '"1" 2 3\n', "1,2,3\n", "1 2 3,\n", "nan(1) 2 3\n",
    ]

    # each break that str.splitlines knows and np.loadtxt does not, inside a line
    CASES += [f"1 2{c}3\n" for c in "\v\f\x1c\x1d\x1e\x85\u2028\u2029"]

    @pytest.mark.parametrize("text", CASES)
    def test_case(self, tmp_path, text):
        path = tmp_path / "pts.txt"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(load_points, path) == outcome(line_loop_load_points, path)

    def test_random_files(self, tmp_path):
        tokens = ["1", "-2.5", "0.1", "1e3", "-0", "3.0", "7", "+4", "1_0", "nan", "inf",
                  "\u0663", "99999999999999999999", "0x1", "#", "#1", "1#", "", "\xa0", "\x00",
                  "1e500", ".5"]
        seps = [" ", " ", "\t", "  ", "\f", "\xa0"]
        ends = ["\n", "\n", "\n", "\r\n", "\r", "\v", "\u2028", ""]
        rng = np.random.default_rng(0)
        path = tmp_path / "pts.txt"
        for _ in range(400):
            lines = []
            for _ in range(int(rng.integers(0, 5))):
                width = int(rng.choice([3, 3, 4, 4, 2, 5]))
                if rng.random() < 0.8:  # mostly clean numbers
                    fields = [str(rng.choice(["1", "-2.5", "0.1", "7", "-0"])) for _ in range(width)]
                else:
                    fields = [str(rng.choice(tokens)) for _ in range(width)]
                sep = str(rng.choice(seps)) if rng.random() < 0.2 else " "
                end = str(rng.choice(ends)) if rng.random() < 0.2 else "\n"
                lines.append(sep.join(fields) + end)
            text = "".join(lines)
            path.write_bytes(text.encode("utf-8"))
            assert outcome(load_points, path) == outcome(line_loop_load_points, path), repr(text)

    @pytest.mark.parametrize("bad", ["nan 1 0", "1 -inf 0", "1 0 1e500"])
    def test_non_finite_coordinate_names_the_line(self, tmp_path, bad):
        # past the first part np.loadtxt reads, after two blank lines
        lines = ["", "  "] + ["0 0 0"] * 5000
        lines[4500] = bad
        path = tmp_path / "pts.txt"
        path.write_text("\n".join(lines) + "\n")
        message = f"{path} line 4501: coordinate not finite: '{bad}'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_points(path)

    def test_plain_files_skip_the_line_loop(self, tmp_path, monkeypatch):
        def refuse(path, text, layout):
            raise AssertionError("line loop used")

        rng = np.random.default_rng(1)
        pc = PointCloud(rng.normal(size=(50, 3)), labels=rng.integers(-1, 5, 50))
        path = tmp_path / "pts.txt"
        save_points(path, pc)
        expected = outcome(line_loop_load_points, path)
        probs_path = tmp_path / "probs.txt"
        save_probabilities(probs_path, rng.random((50, 5)))
        expected_probs = outcome(line_loop_load_probabilities, probs_path)
        monkeypatch.setattr(geometry, "_parse_lines", refuse)
        assert outcome(load_points, path) == expected
        assert outcome(load_probabilities, probs_path) == expected_probs
        save_points(path, PointCloud(pc.positions))
        assert load_points(path).labels is None

    # probability-shaped tables, one to five columns wide
    TABLE_CASES = [
        "", "\n\n", "0.5\n", "0.5\n0.25", "1\n\n0\n", "0.5 0.5\n0.1 0.9\n",
        "0.5 0.5\r\n0.1 0.9\r\n", "0.5 0.5\r0.1 0.9\r", "  0.5\t 0.5  \n",
        "0.1 0.2 0.3 0.2 0.2\n" * 3, "1 0 0 0 0\n\n  \n0 0 0 0 1\n",
        "0.5 0.5 # note\n", "0.5 # note\n", "# header\n0.5 0.5\n", "0.5 0.5\n# 1 0\n0 1\n",
        "0.5#\n", "0.5 0.5\n0.1\n0.2 0.8\n", "0.5\n0.1 0.2\n", "1 2 3 4 5\n1 2 3 4\n",
        "1 2 3 4 5\n1 2 3 4 5 6\n", "0.5 0.5\n0.1\nnan 0.8\n", "nan\n", "0.5 inf\n",
        "1 2 3 4 -inf\n", "0.5 1e500\n", "0.5 x\n", "1_0\n", "0x1 2\n", "\u0661 0\n",
        "-0 0\n", "5e-324\n2.2250738585072014e-308\n", "0.5,0.5\n", '"0.5" 0.5\n',
        "0.5 0.5\v0.1 0.9\n", "0.5\f0.5\n", "0.5 0.5\u2028", "0.5\x85\n", "0.5\x00\n",
        "1\xa02\n",
    ]

    @pytest.mark.parametrize("text", TABLE_CASES)
    def test_table_case(self, tmp_path, text):
        path = tmp_path / "probs.txt"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(load_probabilities, path) == outcome(line_loop_load_probabilities, path)

    def test_random_tables(self, tmp_path):
        tokens = ["1", "0.25", "-0", "3.0", "1e-3", "1_0", "nan", "inf", "\u0663",
                  "0x1", "#", "#1", "1#", "", "\xa0", "\x00", "1e500", ".5"]
        seps = [" ", " ", "\t", "  ", "\f", "\xa0"]
        ends = ["\n", "\n", "\n", "\r\n", "\r", "\v", "\u2028", ""]
        rng = np.random.default_rng(5)
        path = tmp_path / "probs.txt"
        for _ in range(400):
            width = int(rng.choice([1, 2, 5]))
            lines = []
            for _ in range(int(rng.integers(0, 5))):
                row_width = width if rng.random() < 0.9 else int(rng.integers(1, 7))
                if rng.random() < 0.8:  # mostly clean numbers
                    fields = [str(rng.choice(["1", "0.25", "0.1", "0", "-0"]))
                              for _ in range(row_width)]
                else:
                    fields = [str(rng.choice(tokens)) for _ in range(row_width)]
                sep = str(rng.choice(seps)) if rng.random() < 0.2 else " "
                end = str(rng.choice(ends)) if rng.random() < 0.2 else "\n"
                lines.append(sep.join(fields) + end)
            text = "".join(lines)
            path.write_bytes(text.encode("utf-8"))
            assert outcome(load_probabilities, path) == \
                outcome(line_loop_load_probabilities, path), repr(text)

    @pytest.mark.parametrize("width", [1, 2, 5])
    def test_table_past_the_first_part(self, tmp_path, width):
        rng = np.random.default_rng(width)
        probs = rng.random((9000, width))
        path = tmp_path / "probs.txt"
        save_probabilities(path, probs)
        back = load_probabilities(path)
        assert back.shape == (9000, width)
        np.testing.assert_array_equal(back, probs)
        # a ragged row past the first part names its line
        lines = path.read_text().splitlines(keepends=True)
        lines[8000] = "0.5 " * (width + 1) + "\n"
        path.write_text("".join(lines))
        message = f"{path} line 8001: expected {width} fields, as on line 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_probabilities(path)


class TestLoadPointsMemory:
    @staticmethod
    def scan(path, n, seed, blank_run=0):
        """A room-like scan with six decimals, about 30 bytes a line, and
        optionally a run of blank lines in the middle."""
        rng = np.random.default_rng(seed)
        lines = [f"{x:.6f} {y:.6f} {z:.6f} {label}\n" for (x, y, z), label
                 in zip(rng.uniform(-1.0, 9.0, size=(n, 3)).tolist(), rng.integers(-1, 5, n))]
        lines[n // 2:n // 2] = ["\n"] * blank_run
        path.write_text("".join(lines), encoding="utf-8")

    def test_peak_below_twice_the_file(self, tmp_path):
        path = tmp_path / "scan.txt"
        self.scan(path, 175000, seed=2)  # the size of a room scan
        size = path.stat().st_size
        tracemalloc.start()
        try:
            load_points(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * size
        assert outcome(load_points, path) == outcome(line_loop_load_points, path)

    def test_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "scan.txt"
        self.scan(path, 9000, seed=4)
        data = bytearray(path.read_bytes())
        data[150000] = 0xFF  # past the first part that is read
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=f"{path}: not UTF-8 text"):
            load_points(path)

    def test_a_run_of_blank_lines_across_parts(self, tmp_path, recwarn):
        path = tmp_path / "scan.txt"
        self.scan(path, 9000, seed=3, blank_run=9000)
        assert outcome(load_points, path) == outcome(line_loop_load_points, path)
        assert len(load_points(path)) == 9000
        assert not recwarn.list


def _ordered_cases():
    """(probs, order) tables that span several 4096-row parts, or none."""
    rng = np.random.default_rng(11)
    # the widest %.17g strings, 24 characters, the most a float64 can take
    widest = [-2.2250738585072014e-308, -1.7976931348623157e+308, -4.9406564584124654e-324]
    wide = rng.choice(widest + [-0.0, 0.1, -1 / 3], size=(9000, 5))
    wide[0] = widest + [-0.0, widest[0]]
    probs = rng.random((10000, 3))
    probs[::7] = -0.0
    return {"widest": (wide, rng.integers(0, 9000, 20000)),
            "random": (probs, rng.permutation(np.tile(np.arange(10000), 2))),
            "one row": (wide[:1], np.zeros(5000, np.intp)),
            "empty order": (probs[:4], np.zeros(0, np.intp))}


class FirstWrite:
    """A file that notes sys.getallocatedblocks() at its first write."""

    def __init__(self, fh):
        self.fh, self.blocks = fh, None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.blocks = self.blocks or sys.getallocatedblocks()
        return self.fh.write(text)

    def writelines(self, lines):
        self.blocks = self.blocks or sys.getallocatedblocks()
        return self.fh.writelines(lines)


class TestOrderedWrite:
    """save_probabilities(path, probs, order) writes line i as row order[i],
    formatting each distinct row once."""

    @pytest.mark.parametrize("name", ["widest", "random", "one row", "empty order"])
    def test_same_bytes_as_the_gathered_table(self, tmp_path, name):
        # an S dtype cuts a longer string without error; this holds the width
        probs, order = _ordered_cases()[name]
        ordered, gathered = tmp_path / "ordered.txt", tmp_path / "gathered.txt"
        save_probabilities(ordered, probs, order)
        save_probabilities(gathered, probs[order])
        assert ordered.read_bytes() == gathered.read_bytes()
        if len(order):
            np.testing.assert_array_equal(load_probabilities(ordered), probs[order])

    def test_widest_int64_rows(self):
        ints = np.array([-2**63, 2**63 - 1, -1, 0])
        columns, order = [ints, ints[::-1]], np.array([0, 3, 1, 1, 2, 0])
        ordered, gathered = io.StringIO(), io.StringIO()
        geometry._write_rows(ordered, columns, ["%d", "%d"], order)
        geometry._write_rows(gathered, [c[order] for c in columns], ["%d", "%d"])
        assert ordered.getvalue() == gathered.getvalue()

    def test_rows_are_not_kept_as_python_objects(self, tmp_path, monkeypatch):
        # 50k distinct rows, one str each, held about 54k more allocated
        # blocks at the first write
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(FirstWrite(open(*args, **kwargs)))
            return opened[-1]

        monkeypatch.setattr(geometry, "open", recording_open, raising=False)
        rng = np.random.default_rng(12)
        probs, order = rng.random((50000, 5)), rng.integers(0, 50000, 90000)
        before = sys.getallocatedblocks()
        save_probabilities(tmp_path / "probs.txt", probs, order)
        assert opened[0].blocks - before < 2 * geometry._PART
