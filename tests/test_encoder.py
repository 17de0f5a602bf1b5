"""Sparse voxel encoder: voxelization, conv-vs-dense oracle, gradients."""

import numpy as np
import pytest

from scenehull.encoder import (
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
        out = sparse_conv_forward(grid, layer, relu=True)
        center = 13  # offset (0, 0, 0)
        expected = np.maximum(layer.bias + feats[0] @ layer.weight[center], 0.0)
        np.testing.assert_allclose(out[0], expected, atol=1e-12)

    def test_zero_weights_zero_bias(self):
        grid = SparseFeatureGrid(np.array([[0, 0, 0], [1, 0, 0]]), np.ones((2, 1)),
                                 np.array([0, 1]))
        layer = ConvLayer(np.zeros((27, 1, 4)), np.zeros(4))
        out = sparse_conv_forward(grid, layer, relu=True)
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
