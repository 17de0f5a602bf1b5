"""Scene composition: cropping, placement, overlap handling, provenance."""

import numpy as np
import pytest
from scipy.stats import chisquare

from scenehull.geometry import PointCloud
from scenehull.scene import (
    BACKGROUND_LABEL,
    AugmentConfig,
    anchor_crop,
    estimate_floor,
    place_on_floor,
    resolve_overlap,
    simulate_scene,
)


def random_cloud(n, seed=0, spread=1.0):
    return PointCloud(np.random.default_rng(seed).uniform(-spread, spread, size=(n, 3)))


class TestAugmentConfig:
    def test_defaults(self):
        cfg = AugmentConfig()
        assert cfg.scale_min == 0.9 and cfg.scale_max == 1.1
        assert cfg.crop_anchor_min == 2 and cfg.crop_anchor_max == 5

    def test_bad_scale_range(self):
        with pytest.raises(ValueError):
            AugmentConfig(scale_min=1.2, scale_max=1.1)
        with pytest.raises(ValueError):
            AugmentConfig(scale_min=0.0)

    def test_bad_anchor_range(self):
        with pytest.raises(ValueError):
            AugmentConfig(crop_anchor_min=3, crop_anchor_max=2)

    @pytest.mark.parametrize("low, high", [(1, 1), (1, 5), (0, 3)])
    def test_one_anchor_rejected(self, low, high):
        # with one anchor its cluster is the whole model, and the crop drops it
        with pytest.raises(ValueError, match="need 2 <= crop_anchor_min <= crop_anchor_max"):
            AugmentConfig(crop_anchor_min=low, crop_anchor_max=high)


class TestAnchorCrop:
    def test_two_points_two_anchors(self):
        pc = PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        cfg = AugmentConfig(crop_anchor_min=2, crop_anchor_max=2)
        out = anchor_crop(pc, cfg, np.random.default_rng(0))
        assert len(out) == 1

    def test_dropped_cluster_really_gone(self):
        # recompute nearest anchors by brute force and check the survivors
        pc = random_cloud(100, seed=1)
        cfg = AugmentConfig()
        for seed in range(10):
            rng = np.random.default_rng(seed)
            # replicate the draw sequence to recover the anchor choice
            probe = np.random.default_rng(seed)
            assert probe.random() < 1.0  # crop decision consumed first
            k = int(probe.integers(cfg.crop_anchor_min, cfg.crop_anchor_max + 1))
            anchor_idx = probe.choice(100, size=k, replace=False)
            dropped = None  # determined after assignment below

            out = anchor_crop(pc, cfg, rng)
            anchors = pc.positions[anchor_idx]
            d2 = ((pc.positions[:, None, :] - anchors[None, :, :]) ** 2).sum(-1)
            nearest = d2.argmin(axis=1)
            dropped = int(probe.integers(k))
            expected = pc.positions[nearest != dropped]
            assert len(out) == 100 - int((nearest == dropped).sum())
            np.testing.assert_array_equal(out.positions, expected)

    def test_crop_prob_zero_is_identity(self):
        pc = random_cloud(30, seed=2)
        cfg = AugmentConfig(crop_prob=0.0)
        out = anchor_crop(pc, cfg, np.random.default_rng(0))
        np.testing.assert_array_equal(out.positions, pc.positions)

    def test_too_few_points(self):
        pc = random_cloud(3, seed=3)
        with pytest.raises(ValueError, match="at least"):
            anchor_crop(pc, AugmentConfig(), np.random.default_rng(0))

    def test_output_strict_subset_in_order(self):
        pc = random_cloud(60, seed=4)
        out = anchor_crop(pc, AugmentConfig(), np.random.default_rng(5))
        assert len(out) < len(pc)
        # every surviving row appears in the original, in order
        pos = {tuple(row): i for i, row in enumerate(pc.positions)}
        idx = [pos[tuple(row)] for row in out.positions]
        assert idx == sorted(idx)


class TestPlaceOnFloor:
    def test_min_z_on_floor(self):
        pc = random_cloud(50, seed=5)
        out = place_on_floor(pc, 0.25, ((0, 0), (2, 2)), np.random.default_rng(0))
        assert abs(out.positions[:, 2].min() - 0.25) < 1e-9

    def test_zero_area_bounds(self):
        pc = random_cloud(50, seed=6)
        out = place_on_floor(pc, 0.0, ((1.5, 2.5), (1.5, 2.5)), np.random.default_rng(0))
        np.testing.assert_allclose(out.positions[:, :2].mean(axis=0), [1.5, 2.5], atol=1e-9)

    def test_degenerate_bounds_rejected(self):
        pc = random_cloud(5, seed=7)
        with pytest.raises(ValueError):
            place_on_floor(pc, 0.0, ((1.0, 0.0), (0.0, 1.0)), np.random.default_rng(0))

    def test_centroid_uniform_over_bounds(self):
        # chi-square on a 4x4 grid over 1000 placements
        pc = random_cloud(10, seed=8, spread=0.05)
        rng = np.random.default_rng(123)
        cells = np.zeros(16)
        for _ in range(1000):
            out = place_on_floor(pc, 0.0, ((0, 0), (4, 4)), rng)
            cx, cy = out.positions[:, :2].mean(axis=0)
            cells[min(int(cx), 3) * 4 + min(int(cy), 3)] += 1
        _, p = chisquare(cells)
        assert p > 0.01


class TestEstimateFloor:
    def test_flat_plane_with_objects(self):
        rng = np.random.default_rng(9)
        ground = np.column_stack([rng.uniform(0, 4, 4000), rng.uniform(0, 4, 4000), np.zeros(4000)])
        objects = rng.uniform(0.3, 1.5, size=(500, 3))
        z = estimate_floor(PointCloud(np.vstack([ground, objects])))
        assert abs(z) < 0.05

    def test_constant_z(self):
        pc = PointCloud(np.column_stack([np.arange(5.0), np.arange(5.0), np.full(5, 2.5)]))
        assert estimate_floor(pc) == pytest.approx(2.5)

    def test_robust_to_below_floor_outliers(self):
        rng = np.random.default_rng(10)
        n = 5000
        z = np.concatenate([
            np.zeros(int(n * 0.7)),                   # true floor
            rng.uniform(0.0, 2.0, int(n * 0.29)),     # objects
            rng.uniform(-0.5, -0.1, int(n * 0.01)),   # 1% scanner artifacts
        ])
        pc = PointCloud(np.column_stack([rng.uniform(0, 3, len(z)), rng.uniform(0, 3, len(z)), z]))
        assert abs(estimate_floor(pc) - 0.0) < 0.02


class TestResolveOverlap:
    def test_disjoint_untouched(self):
        a = random_cloud(40, seed=11)
        b = PointCloud(random_cloud(40, seed=12).positions + 50.0)
        cfg = AugmentConfig()
        out_a, out_b = resolve_overlap(a, b, cfg, np.random.default_rng(0))
        np.testing.assert_array_equal(out_a.positions, a.positions)
        np.testing.assert_array_equal(out_b.positions, b.positions)

    def test_identical_keep_zero_empties_both(self):
        a = random_cloud(100, seed=13)
        cfg = AugmentConfig(overlap_keep_prob=0.0)
        out_a, out_b = resolve_overlap(a, a.copy(), cfg, np.random.default_rng(0))
        assert len(out_a) == 0 and len(out_b) == 0

    def test_cells_beyond_int64_rejected(self):
        # two clouds 5 m apart share no cell; at 1e-300 m every cell used to
        # saturate in the int64 cast, and all points were flagged overlapped
        a = random_cloud(50, seed=15)
        b = PointCloud(random_cloud(50, seed=16).positions + 5.0)
        cfg = AugmentConfig(overlap_voxel=1e-300)
        with pytest.raises(ValueError, match="voxel size 1e-300 "):
            resolve_overlap(a, b, cfg, np.random.default_rng(0))

    def test_identical_keep_half_binomial(self):
        a = random_cloud(1000, seed=14)
        cfg = AugmentConfig(overlap_keep_prob=0.5)
        out_a, out_b = resolve_overlap(a, a.copy(), cfg, np.random.default_rng(7))
        # binomial(1000, 0.5): +-50 is ~3.2 sigma
        assert abs(len(out_a) - 500) <= 50
        assert abs(len(out_b) - 500) <= 50


def two_blob_models(n=40):
    rng = np.random.default_rng(20)
    a = PointCloud(rng.uniform(-0.2, 0.2, size=(n, 3)))
    b = PointCloud(rng.uniform(-0.2, 0.2, size=(n, 3)))
    return [(a, 3), (b, 7)]


class TestSimulateScene:
    def test_single_model_no_background(self):
        models = two_blob_models()[:1]
        scene = simulate_scene(None, models, AugmentConfig(), np.random.default_rng(0))
        assert (scene.instance_ids == 0).all()
        assert set(np.unique(scene.labels)) == {3}

    def test_two_models_labels_and_instances(self):
        scene = simulate_scene(None, two_blob_models(), AugmentConfig(),
                               np.random.default_rng(1))
        labels = set(np.unique(scene.labels))
        assert labels == {3, 7}
        assert len(set(np.unique(scene.instance_ids))) == 2

    def test_label_consistent_with_instance(self):
        scene = simulate_scene(None, two_blob_models(), AugmentConfig(),
                               np.random.default_rng(2))
        for inst in np.unique(scene.instance_ids):
            inst_labels = np.unique(scene.labels[scene.instance_ids == inst])
            assert len(inst_labels) == 1

    def test_background_points_reserved_label(self):
        rng = np.random.default_rng(3)
        bg = PointCloud(np.column_stack([rng.uniform(0, 2, 500), rng.uniform(0, 2, 500),
                                         np.zeros(500)]))
        scene = simulate_scene(bg, two_blob_models(), AugmentConfig(),
                               np.random.default_rng(4))
        bg_mask = scene.instance_ids == -1
        assert (scene.labels[bg_mask] == BACKGROUND_LABEL).all()
        assert (scene.labels[~bg_mask] != BACKGROUND_LABEL).all()

    def test_instances_rest_on_floor(self):
        # no overlap filtering (keep everything) so every instance keeps its minimum
        cfg = AugmentConfig(overlap_keep_prob=1.0)
        scene = simulate_scene(None, two_blob_models(), cfg, np.random.default_rng(5))
        for inst in np.unique(scene.instance_ids):
            z = scene.positions[scene.instance_ids == inst, 2]
            assert abs(z.min() - 0.0) < 1e-9

    def test_deterministic_replay(self):
        a = simulate_scene(None, two_blob_models(), AugmentConfig(), np.random.default_rng(6))
        b = simulate_scene(None, two_blob_models(), AugmentConfig(), np.random.default_rng(6))
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.instance_ids, b.instance_ids)

    def test_empty_models_rejected(self):
        with pytest.raises(ValueError):
            simulate_scene(None, [], AugmentConfig(), np.random.default_rng(0))
