"""Sparse voxel encoder: voxelization, conv-vs-dense oracle, gradients."""

import numpy as np
import pytest

from scenehull.encoder import (
    BLOCK_ROWS,
    OFFSETS,
    ConvLayer,
    SparseEncoder,
    SparseFeatureGrid,
    pack_keys,
    sparse_conv_forward,
    voxelize,
)
from scenehull.geometry import PointCloud


class TestVoxelize:
    def test_single_point_at_origin(self):
        grid = voxelize(PointCloud(np.zeros((1, 3))), 0.05)
        assert grid.num_voxels == 1
        np.testing.assert_array_equal(grid.coords[0], [0, 0, 0])
        np.testing.assert_array_equal(grid.feats, [[1.0]])

    def test_two_points_one_voxel(self):
        pc = PointCloud(np.array([[0.01, 0.0, 0.0], [0.04, 0.0, 0.0]]))
        grid = voxelize(pc, 0.05)
        assert grid.num_voxels == 1
        assert grid.point_to_voxel[0] == grid.point_to_voxel[1]

    def test_two_points_two_voxels(self):
        pc = PointCloud(np.array([[0.01, 0.0, 0.0], [0.06, 0.0, 0.0]]))
        grid = voxelize(pc, 0.05)
        assert grid.num_voxels == 2
        coords = {tuple(c) for c in grid.coords}
        assert coords == {(0, 0, 0), (1, 0, 0)}

    def test_index_bijection(self):
        # one row per occupied cell, in lexicographic order; every point
        # reads the row of its own cell
        rng = np.random.default_rng(0)
        pc = PointCloud(rng.uniform(-0.3, 0.3, size=(200, 3)))
        grid = voxelize(pc, 0.05)
        cells = np.floor(pc.positions / 0.05).astype(np.int64)
        np.testing.assert_array_equal(grid.coords, np.unique(cells, axis=0))
        np.testing.assert_array_equal(grid.coords[grid.point_to_voxel], cells)

    def test_key_overflow_rejected(self):
        # (0, 2^32 - 1, 2^32 - 1) makes the packed extent 2 * 2^32 * 2^32
        # cells; wrapped int64 keys would merge (0, 0, 0) and (1, 0, 0)
        far = 2 ** 32 - 1
        cells = np.array([[0, 0, 0], [1, 0, 0], [0, far, far]], dtype=np.float64)
        pc = PointCloud((cells + 0.5) * 0.05)
        with pytest.raises(ValueError, match="int64"):
            voxelize(pc, 0.05)

    @pytest.mark.parametrize("size", [1e-300, 1e-20])
    def test_cells_beyond_int64_rejected(self, size):
        # floor(p / size) past int64 used to saturate in the cast, merging
        # 50 random points into 1 voxel at 1e-300 and into 15 at 1e-20
        pc = PointCloud(np.random.default_rng(1).uniform(-1.0, 1.0, size=(50, 3)))
        with pytest.raises(ValueError, match=f"voxel size {size} "):
            voxelize(pc, size)

    @pytest.mark.parametrize("x, accepted", [
        (2.0 ** 60, True), (-(2.0 ** 61) + 512.0, True), (2.0 ** 61, False), (-(2.0 ** 61), False)])
    def test_cell_range_is_below_two_to_the_61(self, x, accepted):
        pc = PointCloud(np.array([[x, 0.0, 0.0]]))
        if accepted:
            assert voxelize(pc, 1.0).coords[0, 0] == int(x)
        else:
            with pytest.raises(ValueError, match="beyond 2"):
                voxelize(pc, 1.0)

    def test_key_packing_near_the_limit(self):
        # a box of 2^62 cells still packs: distinct cells, distinct keys
        cells = np.array([[0, 0, 0], [1, 0, 0], [0, 2 ** 31 - 1, 2 ** 30 - 1]])
        keys = pack_keys(cells, cells.min(axis=0), cells.max(axis=0) + 1)
        assert len(np.unique(keys)) == 3

    def test_rejects_empty_and_bad_size(self):
        with pytest.raises(ValueError):
            voxelize(PointCloud(np.zeros((0, 3))), 0.05)
        with pytest.raises(ValueError):
            voxelize(PointCloud(np.zeros((1, 3))), 0.0)


class TestSparseConv:
    def test_offsets_enumerated_lexicographically(self):
        # saved kernels rely on this enumeration order: weight[o] is OFFSETS[o]
        expected = [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)]
        assert [tuple(o) for o in OFFSETS] == expected

    def test_isolated_voxel(self):
        rng = np.random.default_rng(1)
        layer = ConvLayer(rng.normal(size=(27, 2, 3)), rng.normal(size=3))
        feats = rng.normal(size=(1, 2))
        grid = SparseFeatureGrid(np.array([[5, 5, 5]]), feats, np.array([0]))
        out = conv(grid, layer)
        center = 13  # offset (0, 0, 0)
        expected = layer.bias + feats[0] @ layer.weight[center]  # the pre-activation
        np.testing.assert_allclose(out[0], expected, atol=1e-12)

    def test_zero_weights_zero_bias(self):
        grid = SparseFeatureGrid(np.array([[0, 0, 0], [1, 0, 0]]), np.ones((2, 1)),
                                 np.array([0, 1]))
        layer = ConvLayer(np.zeros((27, 1, 4)), np.zeros(4))
        out = conv(grid, layer)
        np.testing.assert_array_equal(out, np.zeros((2, 4)))

    def test_matches_dense_reference(self):
        from scenehull.gradcheck import check_dense_oracle

        for seed in range(100, 120):  # criterion 3 covers seeds 0-99
            res = check_dense_oracle(seed)
            assert res.passed, str(res)

    def test_width_mismatch(self):
        grid = SparseFeatureGrid(np.array([[0, 0, 0]]), np.ones((1, 2)), np.array([0]))
        layer = ConvLayer(np.zeros((27, 3, 4)), np.zeros(4))
        with pytest.raises(ValueError):
            sparse_conv_forward(grid, layer)


def conv(grid, layer):
    """sparse_conv_forward drained into one (V, c_out) array."""
    return np.concatenate(list(sparse_conv_forward(grid, layer)))


def reference_neighbor_maps(coords):
    """One key search per offset, the plain form of the kernel map."""
    lo = coords.min(axis=0) - 1
    dims = coords.max(axis=0) - lo + 2
    keys = pack_keys(coords, lo, dims)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    maps = []
    for off in OFFSETS:
        target = pack_keys(coords + off, lo, dims)
        pos = np.minimum(np.searchsorted(sorted_keys, target), len(coords) - 1)
        hit = sorted_keys[pos] == target
        maps.append((np.flatnonzero(hit), order[pos[hit]]))
    return maps


def reference_forward(grid, layer):
    """Unblocked: one gather-GEMM-add over all pairs of each offset in turn."""
    out = np.tile(layer.bias.astype(grid.feats.dtype), (grid.num_voxels, 1))
    for o, (rows_out, rows_in) in enumerate(reference_neighbor_maps(grid.coords)):
        if len(rows_out):
            out[rows_out] += grid.feats[rows_in] @ layer.weight[o]
    return out


def blocky_coords():
    """Coordinate-ordered rows over more than one block: a column at x = 0
    fills block 0 and part of block 1. Offset (1, 0, 0) has two pairs, the
    only one in block 0 and the only one in block 1; offset (1, 1, 0) has a
    single pair in the whole grid."""
    n = BLOCK_ROWS + 300
    column = [(0, 0, z) for z in range(n)]
    extra = [(1, 0, 5), (1, 0, BLOCK_ROWS + 100), (1, 1, 600), (4, 4, 4)]
    return np.array(column + extra, dtype=np.int64)


def floor_coords():
    """A floor one voxel thick: 18 x-slices of 2400 y-rows, every third a
    20-row doorway, 28920 voxels in 29 blocks. A block deep in the slice
    after a doorway reads no row below that slice, but the next slice reads
    back to the first rows of it: the lowest row a block reads falls from
    one block to a later one."""
    cells = [(x, y, 0) for x in range(18) for y in range(20 if x % 3 == 0 else 2400)]
    return np.array(cells, dtype=np.int64)


class TestKernelMap:
    def grids(self):
        rng = np.random.default_rng(8)
        yield np.array([[3, -2, 7]])  # one voxel
        # disconnected clusters, rows in no particular order
        clusters = [rng.integers(0, 3, size=(20, 3)) + shift
                    for shift in ([0, 0, 0], [10, 0, 0], [0, -9, 40])]
        yield rng.permutation(np.unique(np.concatenate(clusters), axis=0))
        yield blocky_coords()
        # a room-like slab, several blocks, coordinate-ordered
        flat = rng.choice(40 * 40 * 6, size=3000, replace=False)
        yield np.unique(np.stack(np.unravel_index(flat, (40, 40, 6)), axis=1), axis=0)

    def test_symmetric_build_matches_one_search_per_offset(self):
        for coords in self.grids():
            grid = SparseFeatureGrid(coords, np.ones((len(coords), 1)), np.arange(len(coords)))
            for (out, inp), (ref_out, ref_in) in zip(grid.neighbor_maps,
                                                     reference_neighbor_maps(coords)):
                assert out.dtype == inp.dtype == np.int32
                np.testing.assert_array_equal(out, ref_out)
                np.testing.assert_array_equal(inp, ref_in)

    def test_block_starts_split_pairs_by_output_block(self):
        # the block plan: blocks of BLOCK_ROWS output rows, a one-row tail
        # joined to the block before; where each block's pairs of an offset
        # start; the input rows that blocks 0..b read below need[b], and
        # that blocks b.. read from keep[b] on
        for coords in [*self.grids(), floor_coords()]:
            grid = SparseFeatureGrid(coords, np.ones((len(coords), 1)), np.arange(len(coords)))
            maps = grid.neighbor_maps  # builds the plan too
            edges, starts, need, keep = grid._plan
            sizes = np.diff(edges)
            assert edges[0] == 0 and edges[-1] == len(coords)
            assert np.all(sizes[:-1] == BLOCK_ROWS)
            assert 2 <= sizes[-1] <= BLOCK_ROWS + 1 or len(coords) == 1
            reads = [[] for _ in sizes]
            for (rows_out, rows_in), s in zip(maps, starts):
                assert s[0] == 0 and s[-1] == len(rows_out)
                for b in range(len(sizes)):
                    block = rows_out[s[b]:s[b + 1]]
                    assert np.all((block >= edges[b]) & (block < edges[b + 1]))
                    reads[b].extend(rows_in[s[b]:s[b + 1]].tolist())
            assert need == [1 + max(max(r) for r in reads[:b + 1]) for b in range(len(reads))]
            assert keep == [min(min(r) for r in reads[b:]) for b in range(len(reads))]

    def test_duplicate_coords_rejected(self):
        grid = SparseFeatureGrid(np.array([[0, 0, 0], [1, 0, 0], [0, 0, 0]]), np.ones((3, 1)),
                                 np.arange(3))
        with pytest.raises(ValueError, match="distinct"):
            grid.neighbor_maps


class TestBlockedForward:
    @pytest.mark.parametrize("c_in, c_out", [(32, 64), (64, 96), (3, 5)])
    def test_gemm_rows_do_not_depend_on_row_count(self, c_in, c_out):
        # what blocking relies on; a single row is the exception (gemv)
        rng = np.random.default_rng(13)
        a = rng.standard_normal((BLOCK_ROWS + 7, c_in))
        w = rng.standard_normal((c_in, c_out))
        full = a @ w
        for m in [*range(2, 70), 255, 256, 1000, BLOCK_ROWS]:
            for start in (0, 5):
                assert np.array_equal(a[start:start + m] @ w, full[start:start + m])
        assert np.array_equal((a[[3, 3]] @ w)[0], full[3])

    def test_blocky_grid_has_the_single_pair_cases(self):
        coords = blocky_coords()
        maps = reference_neighbor_maps(coords)
        x_pairs = maps[22][0]  # offset (1, 0, 0)
        assert np.array_equal(x_pairs // BLOCK_ROWS, [0, 1])
        assert len(maps[25][0]) == 1  # offset (1, 1, 0)

    def test_matches_unblocked_bit_for_bit(self):
        rng = np.random.default_rng(9)
        coords = blocky_coords()
        for c_in, c_out in [(64, 96), (32, 64), (3, 5), (2, 1)]:
            grid = SparseFeatureGrid(coords, rng.standard_normal((len(coords), c_in)),
                                     np.arange(len(coords)))
            layer = ConvLayer(rng.standard_normal((27, c_in, c_out)), rng.standard_normal(c_out))
            out = conv(grid, layer)
            assert np.array_equal(out, reference_forward(grid, layer))

    def test_matches_unblocked_on_a_scan(self):
        rng = np.random.default_rng(10)
        pc = PointCloud(rng.uniform(0.0, 1.0, size=(4000, 3)) * [2.0, 2.0, 0.3])
        grid = voxelize(pc, 0.05)
        assert grid.num_voxels > 2 * BLOCK_ROWS
        feats = rng.standard_normal((grid.num_voxels, 32))
        layer = ConvLayer(rng.standard_normal((27, 32, 64)), rng.standard_normal(64))
        work = SparseFeatureGrid(grid.coords, feats, grid.point_to_voxel)
        assert np.array_equal(conv(work, layer),
                              reference_forward(work, layer))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_constant_input_matches_gemm(self, dtype):
        # voxelize's constant 1 takes the no-GEMM path; the reference multiplies
        rng = np.random.default_rng(11)
        coords = blocky_coords()
        grid = SparseFeatureGrid(coords, np.ones((len(coords), 1), dtype=dtype),
                                 np.arange(len(coords)))
        layer = ConvLayer(rng.standard_normal((27, 1, 32)).astype(dtype),
                          rng.standard_normal(32).astype(dtype))
        out = conv(grid, layer)
        assert out.dtype == dtype
        assert np.array_equal(out, reference_forward(grid, layer))

    def test_other_width_one_input_is_multiplied(self):
        rng = np.random.default_rng(12)
        coords = blocky_coords()
        grid = SparseFeatureGrid(coords, np.full((len(coords), 1), 1.0), np.arange(len(coords)))
        grid.feats[7] = 0.5
        layer = ConvLayer(rng.standard_normal((27, 1, 8)), rng.standard_normal(8))
        out = conv(grid, layer)
        assert np.array_equal(out, reference_forward(grid, layer))


class TestBlockPipeline:
    @staticmethod
    def grid(coords, feats=None):
        feats = np.ones((len(coords), 1)) if feats is None else feats
        return SparseFeatureGrid(coords, feats, np.arange(len(coords)))

    def test_floor_reads_lower_rows_in_a_later_block(self):
        coords = floor_coords()
        assert len(coords) >= 8 * BLOCK_ROWS
        lowest = np.full(-(-len(coords) // BLOCK_ROWS), len(coords))
        for rows_out, rows_in in reference_neighbor_maps(coords):
            np.minimum.at(lowest, rows_out // BLOCK_ROWS, rows_in)
        # so rows may be dropped only below the lowest of all blocks to come
        still_read = np.minimum.accumulate(lowest[::-1])[::-1]
        assert np.any(lowest[:-1] > still_read[1:])

    def test_streamed_equals_whole_layers_on_a_floor(self):
        enc = SparseEncoder.create(widths=(32, 64, 96), seed=5)
        coords = floor_coords()
        feats = np.ones((len(coords), 1))
        for i, layer in enumerate(enc.layers):
            feats = reference_forward(self.grid(coords, feats), layer)
            if i < len(enc.layers) - 1:
                feats = np.maximum(feats, 0.0)
        assert np.array_equal(enc.forward_grid(self.grid(coords), readout=lambda b: b), feats)
        assert np.array_equal(enc.forward_grid(self.grid(coords)), feats)

    @pytest.mark.parametrize("num_voxels", [BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1])
    def test_one_row_tail_joins_the_block_before(self, num_voxels):
        # a one-row block would take gemv, in the conv and in the readout
        rng = np.random.default_rng(num_voxels)
        rows = np.arange(num_voxels)
        coords = np.stack([rows // 40, rows % 40, np.zeros_like(rows)], axis=1)  # 40 wide
        layer = ConvLayer(rng.standard_normal((27, 6, 5)), rng.standard_normal(5))
        grid = self.grid(coords, rng.standard_normal((num_voxels, 6)))
        assert np.array_equal(conv(grid, layer), reference_forward(grid, layer))

        enc = SparseEncoder([ConvLayer(rng.standard_normal((27, 1, 8)), rng.standard_normal(8))])
        w = rng.standard_normal((8, 3))
        sizes = []

        def readout(block):
            sizes.append(len(block))
            return block @ w

        out = enc.forward_grid(self.grid(coords), readout=readout)
        assert sizes == [BLOCK_ROWS] * (len(sizes) - 1) + [BLOCK_ROWS + 1]
        assert np.array_equal(out, enc.forward_grid(self.grid(coords)) @ w)


class TestEncoderForward:
    def test_same_voxel_same_feature(self):
        enc = SparseEncoder.create(widths=(4, 6), seed=0, voxel_size=0.05)
        # first two share a voxel; the last two give the far voxel an occupied
        # neighbor so its feature differs from the isolated one
        pc = PointCloud(np.array([
            [0.01, 0.01, 0.01], [0.04, 0.02, 0.03],
            [0.2, 0.2, 0.2], [0.26, 0.2, 0.2],
        ]))
        feats = enc.forward(pc)
        np.testing.assert_array_equal(feats[0], feats[1])
        assert not np.array_equal(feats[0], feats[2])

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        pc = PointCloud(rng.uniform(-0.3, 0.3, size=(80, 3)))
        enc = SparseEncoder.create(widths=(4, 6), seed=1, voxel_size=0.05)
        feats = enc.forward(pc)
        perm = rng.permutation(80)
        feats_perm = enc.forward(PointCloud(pc.positions[perm]))
        np.testing.assert_array_equal(feats_perm, feats[perm])

    def test_voxel_aligned_translation_invariance(self):
        rng = np.random.default_rng(4)
        pc = PointCloud(rng.uniform(-0.3, 0.3, size=(60, 3)))
        enc = SparseEncoder.create(widths=(4, 6), seed=2, voxel_size=0.05)
        feats = enc.forward(pc)
        shifted = PointCloud(pc.positions + np.array([3, -2, 5]) * 0.05)
        feats_shifted = enc.forward(shifted)
        assert np.abs(feats - feats_shifted).max() < 1e-9

    def test_default_output_width(self):
        enc = SparseEncoder.create(seed=0)
        assert enc.feature_dim == 96
        pc = PointCloud(np.random.default_rng(5).uniform(-0.2, 0.2, size=(10, 3)))
        assert enc.forward(pc).shape == (10, 96)


class TestEncoderBackward:
    def test_requires_cached_forward(self):
        enc = SparseEncoder.create(widths=(2,), seed=0)
        with pytest.raises(RuntimeError):
            enc.backward(np.zeros((1, 2)))

    def test_zero_upstream_zero_grads(self):
        enc = SparseEncoder.create(widths=(3, 4), seed=1)
        pc = PointCloud(np.random.default_rng(6).uniform(-0.2, 0.2, size=(12, 3)))
        enc.forward(pc)
        grads = enc.backward(np.zeros((12, 4)))
        for g in grads.values():
            assert np.all(g == 0.0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_grads_keyed_and_shaped_like_parameters(self, dtype):
        enc = SparseEncoder.create(widths=(3, 4), seed=1, dtype=dtype)
        pc = PointCloud(np.random.default_rng(6).uniform(-0.2, 0.2, size=(12, 3)))
        enc.forward(pc)
        grads = enc.backward(np.ones((12, 4), dtype=dtype))
        params = enc.parameters()
        assert set(grads) == set(params)
        for name, p in params.items():
            assert grads[name].shape == p.shape and grads[name].dtype == p.dtype, name

    def test_final_bias_gradient_is_voxel_weighted_sum(self):
        # hand derivation: d(bias_last) = sum over voxels of (sum of upstream
        # rows of the points in that voxel); ReLU never touches the last layer
        rng = np.random.default_rng(7)
        enc = SparseEncoder.create(widths=(3, 4), seed=2, voxel_size=0.05)
        pc = PointCloud(rng.uniform(-0.2, 0.2, size=(15, 3)))
        enc.forward(pc)
        upstream = rng.normal(size=(15, 4))
        grads = enc.backward(upstream)
        np.testing.assert_allclose(grads["layers.1.bias"], upstream.sum(axis=0), atol=1e-12)

    def test_gradients_match_finite_differences(self):
        from scenehull.gradcheck import check_encoder

        for seed in range(5):
            for res in check_encoder(seed):
                assert res.passed, str(res)

    def test_backward_after_uncached_forward_grid_raises(self):
        enc = SparseEncoder.create(widths=(3, 4), seed=1)
        pc = PointCloud(np.random.default_rng(8).uniform(-0.2, 0.2, size=(12, 3)))
        enc.forward(pc)  # a cached pass, then a readout pass that drops it
        enc.forward_grid(enc.voxelize(pc), readout=lambda b: b)
        with pytest.raises(RuntimeError):
            enc.backward(np.zeros((12, 4)))

    def test_cache_changes_neither_features_nor_gradients(self):
        # the whole pass keeps every layer's input, the readout pass none
        rng = np.random.default_rng(9)
        enc = SparseEncoder.create(widths=(5, 6, 4), seed=3, voxel_size=0.05)
        pc = PointCloud(rng.uniform(-0.2, 0.2, size=(40, 3)))
        upstream = rng.normal(size=(40, 4))
        grid = enc.voxelize(pc)
        plain = enc.forward_grid(grid, readout=lambda b: b)
        cached = enc.forward_grid(grid)
        assert np.array_equal(plain, cached)
        grads = enc.backward(upstream)
        assert np.array_equal(enc.forward(pc), cached[grid.point_to_voxel])
        expected = enc.backward(upstream)
        assert grads.keys() == expected.keys()
        for name in grads:
            assert np.array_equal(grads[name], expected[name]), name
