"""Contrastive loss, inference rule, and the training loop."""

import dataclasses
import importlib
import inspect
import io
import math
import pkgutil
import tracemalloc
import warnings

import numpy as np
import pytest

from scenehull.anchors import AnchorTable
from scenehull.checkpoint import save_checkpoint
from scenehull.cli import main as cli_main
from scenehull.encoder import BLOCK_ROWS, SparseEncoder
from scenehull.geometry import PointCloud, load_points, poisson_disk_sample, save_points
from scenehull.hull import PrototypeBank
from scenehull.objective import (
    Adam,
    ModelSet,
    TrainConfig,
    SceneModel,
    TrainingDiverged,
    class_probs,
    compose_step_scene,
    contrastive_loss,
    train,
)
from scenehull.scene import AugmentConfig
import scenehull
from scenehull import toydata
from test_encoder import floor_coords


def infer_points(model, cloud, temperature=1.0):
    """Per-point class distributions, (N, C): each point's row of
    model.infer_voxels."""
    probs, point_to_voxel = model.infer_voxels(cloud, temperature)
    return probs[point_to_voxel]


def identity_table(c, d, names=None):
    # anchors == one-hot rows so logits are just feature coordinates
    emb = np.eye(c, d)
    return AnchorTable(names or [f"c{i}" for i in range(c)], emb, np.eye(d))


class TestContrastiveLoss:
    def test_equal_similarities_ln2(self):
        table = identity_table(2, 4)
        feats = np.zeros((1, 4))
        loss, _, _ = contrastive_loss(feats, np.array([0]), table)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_two_logit_worked_example(self):
        # logits (2, 0) with true class 0: loss = ln(1 + e^-2)
        table = identity_table(2, 2)
        feats = np.array([[2.0, 0.0]])
        loss, _, _ = contrastive_loss(feats, np.array([0]), table)
        expected = math.log(1.0 + math.exp(-2.0))
        assert loss == pytest.approx(expected, abs=1e-12)
        assert loss == pytest.approx(0.126928, abs=1e-6)

    def test_equal_similarities_ln_c(self):
        for c in (2, 3, 7):
            table = identity_table(c, 8)
            feats = np.zeros((5, 8))
            loss, _, _ = contrastive_loss(feats, np.zeros(5, dtype=int), table)
            assert loss == pytest.approx(math.log(c), abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        c, d = 4, 6
        table = AnchorTable([f"c{i}" for i in range(c)], rng.normal(size=(c, d)), np.eye(d))
        feats = rng.normal(size=(9, d))
        labels = rng.integers(0, c, 9)
        loss_a, _, _ = contrastive_loss(feats, labels, table)
        # adding a constant to every class similarity = shifting all logits;
        # realized here by appending a constant-direction component
        shifted_emb = np.hstack([table.embeddings, np.ones((c, 1))])
        shifted_table = AnchorTable([f"c{i}" for i in range(c)], shifted_emb, np.eye(d + 1))
        shifted_feats = np.hstack([feats, np.full((9, 1), 3.7)])
        loss_b, _, _ = contrastive_loss(shifted_feats, labels, shifted_table)
        assert abs(loss_a - loss_b) < 1e-9

    def test_label_without_anchor(self):
        table = identity_table(2, 4)
        with pytest.raises(ValueError, match="no anchor"):
            contrastive_loss(np.zeros((1, 4)), np.array([5]), table)
        with pytest.raises(ValueError, match="no anchor"):
            contrastive_loss(np.zeros((1, 4)), np.array([-1]), table)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(1)
        for seed in range(20):
            r = np.random.default_rng(seed)
            table = AnchorTable(["a", "b", "c"], r.normal(size=(3, 5)), r.normal(size=(5, 4)))
            loss, _, _ = contrastive_loss(r.normal(size=(6, 4)), r.integers(0, 3, 6), table)
            assert loss >= 0.0

    def test_gradients_match_finite_differences(self):
        from scenehull.gradcheck import check_loss

        for seed in range(5):
            for res in check_loss(seed):
                assert res.passed, str(res)

    def test_normalized_anchor_gradients(self):
        # cosine mode routes the gradient through the normalization
        from scenehull.gradcheck import numeric_gradient, compare

        rng = np.random.default_rng(2)
        table = AnchorTable(["a", "b", "c"], rng.normal(size=(3, 5)),
                            rng.normal(size=(5, 4)), normalize=True)
        feats = rng.normal(size=(6, 4))
        labels = rng.integers(0, 3, 6)
        _, _, grads = contrastive_loss(feats, labels, table)
        numeric = numeric_gradient(lambda: contrastive_loss(feats, labels, table)[0],
                                   table.w_proj)
        assert compare("wproj", grads["w_proj"], numeric).passed


class TestClassProbs:
    def test_equal_similarities(self):
        table = identity_table(2, 4)
        probs = class_probs(np.zeros((1, 4)), table)
        np.testing.assert_allclose(probs, [[0.5, 0.5]], atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        table = AnchorTable(["a", "b", "c"], rng.normal(size=(3, 5)), rng.normal(size=(5, 8)))
        probs = class_probs(rng.normal(size=(40, 8)), table)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_hand_softmax(self):
        table = identity_table(3, 3)
        probs = class_probs(np.array([[1.0, 0.0, 0.0]]), table)
        e = math.e
        np.testing.assert_allclose(probs, [[e / (e + 2), 1 / (e + 2), 1 / (e + 2)]],
                                   atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        c, d = 5, 6
        emb = rng.normal(size=(c, d))
        table = AnchorTable([f"c{i}" for i in range(c)], emb, np.eye(d))
        x = rng.normal(size=d)
        p = class_probs(x[None], table)
        shifted = AnchorTable([f"c{i}" for i in range(c)],
                              np.hstack([emb, np.ones((c, 1))]), np.eye(d + 1))
        p2 = class_probs(np.concatenate([x, [9.9]])[None], shifted)
        assert np.abs(p - p2).max() < 1e-9

    def test_empty_table_rejected(self):
        table = AnchorTable([], np.zeros((0, 3)), np.eye(3))
        with pytest.raises(ValueError):
            class_probs(np.zeros((1, 3)), table)

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 3)])
    def test_batches_only(self, shape):
        with pytest.raises(ValueError, match="batch"):
            class_probs(np.zeros(shape), identity_table(2, 3))

    @pytest.mark.parametrize("feats, temperature", [
        ([[1.0, 0.0, 0.0]], 5e-324), ([[1e300, 0.0, 0.0]], 1e-10),
        ([[math.nan, 0.0, 0.0]], 1.0), ([[math.inf, 0.0, 0.0]], 1.0)])
    def test_scores_must_be_finite(self, feats, temperature):
        # an overflowing score used to make every probability nan
        with pytest.raises(ValueError, match=f"^class scores are not finite at temperature "
                                             f"{temperature}$"):
            class_probs(np.array(feats), identity_table(2, 3), temperature=temperature)

    def test_scores_further_apart_than_the_float_range(self):
        # each score is finite, their difference is not: no warning, one-hot
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probs = class_probs(np.array([[1.0, -1.0, 0.0]]), identity_table(2, 3),
                                temperature=1e-308)
        assert probs.tolist() == [[1.0, 0.0]]

    @pytest.mark.parametrize("temperature", [0.0, -1.0, math.inf, math.nan])
    def test_temperature_must_be_positive_and_finite(self, temperature):
        with pytest.raises(ValueError, match="temperature"):
            class_probs(np.zeros((1, 3)), identity_table(2, 3), temperature=temperature)


class TestAdam:
    def test_zero_lr_is_exact_noop(self):
        rng = np.random.default_rng(5)
        params = {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=3)}
        snapshot = {k: v.copy() for k, v in params.items()}
        opt = Adam(params, lr=0.0)
        for _ in range(7):
            opt.step({"w": rng.normal(size=(4, 3)), "b": rng.normal(size=3)})
        for k in params:
            np.testing.assert_array_equal(params[k], snapshot[k])

    def test_missing_gradient_raises(self):
        x, y = np.zeros(2), np.zeros(2)
        opt = Adam({"x": x, "y": y}, lr=0.1)
        with pytest.raises(KeyError, match="y"):
            opt.step({"x": np.ones(2)})

    def test_descends_quadratic(self):
        x = np.array([5.0])
        opt = Adam({"x": x}, lr=0.1)
        for _ in range(300):
            opt.step({"x": 2.0 * x})
        assert abs(x[0]) < 0.1


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("lr", math.inf), ("lr", math.nan), ("lr", -1e-3),
        ("beta1", 1.0), ("beta1", -0.1), ("beta1", math.nan),
        ("beta2", 1.0), ("beta2", 1.5), ("beta2", -0.1),
        ("eps", 0.0), ("eps", -1e-8), ("eps", math.nan),
    ])
    def test_bad_optimizer_setting_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_edge_settings_accepted(self):
        TrainConfig(lr=0.0, beta1=0.0, beta2=0.0, eps=1e-300)


def toy_models(points=96):
    clouds = {}
    for i, name in enumerate(toydata.TOY_CLASSES[:3]):
        rng = np.random.default_rng(50 + i)
        clouds[i] = [poisson_disk_sample(toydata.toy_mesh(name), points, rng)]
    return ModelSet(clouds)


def toy_table(d=8, seed=0):
    emb = toydata.toy_embeddings(dim=6)
    names = toydata.TOY_CLASSES[:3]
    rng = np.random.default_rng(seed)
    return AnchorTable(names, np.stack([emb[n] for n in names]),
                       rng.uniform(-0.4, 0.4, size=(6, d)))


class TestTrain:
    def small_setup(self, seed=0):
        models = toy_models()
        table = toy_table(d=8, seed=seed)
        encoder = SparseEncoder.create(widths=(6, 8), seed=seed, voxel_size=0.05)
        bank = PrototypeBank.create(num_prototypes=12, feature_dim=8,
                                    attention_dim=4, seed=seed + 1)
        return models, table, encoder, bank

    def test_loss_decreases(self):
        models, table, encoder, bank = self.small_setup()
        cfg = TrainConfig(epochs=8, steps_per_epoch=4, lr=3e-3, seed=0)
        losses = train(models, table, encoder, bank, cfg,
                       augment=AugmentConfig(), xy_bounds=((0, 0), (2, 2)))
        assert losses[-1] < losses[0]

    def test_zero_lr_keeps_parameters(self):
        models, table, encoder, bank = self.small_setup(seed=1)
        before = {k: v.copy() for k, v in encoder.parameters().items()}
        before.update({f"bank.{k}": v.copy() for k, v in bank.parameters().items()})
        before["w_proj"] = table.w_proj.copy()
        cfg = TrainConfig(epochs=2, steps_per_epoch=2, lr=0.0, seed=1)
        train(models, table, encoder, bank, cfg, augment=AugmentConfig(),
              xy_bounds=((0, 0), (2, 2)))
        for k, v in encoder.parameters().items():
            np.testing.assert_array_equal(v, before[k])
        for k, v in bank.parameters().items():
            np.testing.assert_array_equal(v, before[f"bank.{k}"])
        np.testing.assert_array_equal(table.w_proj, before["w_proj"])

    def test_deterministic_replay(self):
        results = []
        for _ in range(2):
            models, table, encoder, bank = self.small_setup(seed=2)
            cfg = TrainConfig(epochs=3, steps_per_epoch=3, lr=1e-3, seed=2)
            losses = train(models, table, encoder, bank, cfg,
                           augment=AugmentConfig(), xy_bounds=((0, 0), (2, 2)))
            results.append((losses, {k: v.copy() for k, v in encoder.parameters().items()}))
        assert results[0][0] == results[1][0]
        for k in results[0][1]:
            np.testing.assert_array_equal(results[0][1][k], results[1][1][k])

    def test_loss_log_format(self):
        models, table, encoder, bank = self.small_setup(seed=3)
        cfg = TrainConfig(epochs=2, steps_per_epoch=2, lr=1e-3, seed=3)
        log = io.StringIO()
        losses = train(models, table, encoder, bank, cfg, augment=AugmentConfig(),
                       xy_bounds=((0, 0), (2, 2)), log_file=log)
        lines = log.getvalue().strip().splitlines()
        assert len(lines) == 2
        for epoch, line in enumerate(lines):
            fields = line.split()
            assert int(fields[0]) == epoch
            assert float(fields[1]) == losses[epoch]
            assert float(fields[2]) >= 0.0

    def test_divergence_detected(self):
        models, table, encoder, bank = self.small_setup(seed=4)
        # inf projection mixes +inf/-inf in the anchor matvec -> NaN loss
        table.w_proj[:] = np.inf
        cfg = TrainConfig(epochs=1, steps_per_epoch=1, lr=1e-3, seed=4)
        with np.errstate(invalid="ignore"), pytest.raises(TrainingDiverged):
            train(models, table, encoder, bank, cfg, augment=AugmentConfig(),
                  xy_bounds=((0, 0), (2, 2)))

    def test_table_must_cover_model_classes(self):
        models, _, encoder, bank = self.small_setup(seed=5)
        small_table = toy_table(d=8, seed=5)
        small_table.class_names = small_table.class_names[:2]
        object.__setattr__(small_table, "embeddings", small_table.embeddings[:2])
        cfg = TrainConfig(epochs=1, steps_per_epoch=1, seed=5)
        with pytest.raises(ValueError, match="cover"):
            train(models, small_table, encoder, bank, cfg, augment=AugmentConfig())


    @pytest.mark.parametrize("part, message", [
        ("bank", "bank feature dim does not match encoder output"),
        ("table", "anchor projection does not match encoder output")])
    @pytest.mark.parametrize("use_dcr", [True, False])
    def test_parts_must_read_the_encoder_width(self, part, message, use_dcr):
        # a bank of the wrong width is refused even when use_dcr leaves it out
        models, table, encoder, bank = self.small_setup(seed=7)
        if part == "bank":
            bank = PrototypeBank.create(num_prototypes=12, feature_dim=6, attention_dim=4)
        else:
            table = toy_table(d=6)
        cfg = TrainConfig(epochs=1, steps_per_epoch=1, seed=7, use_dcr=use_dcr)
        with pytest.raises(ValueError, match=message):
            train(models, table, encoder, bank, cfg, augment=AugmentConfig())

    def test_use_dcr_needs_a_bank(self):
        models, table, encoder, _ = self.small_setup(seed=7)
        cfg = TrainConfig(epochs=1, steps_per_epoch=1, seed=7)
        with pytest.raises(ValueError, match="use_dcr requires a prototype bank"):
            train(models, table, encoder, None, cfg, augment=AugmentConfig())


class TestSceneGradients:
    """SceneModel.gradients is the step that train runs. gradcheck checks it
    on scenes whose points are all labeled; this checks the background mask."""

    @pytest.mark.parametrize("with_bank", [True, False])
    def test_background_points_match_finite_differences(self, with_bank):
        from scenehull.gradcheck import compare, numeric_gradient

        rng = np.random.default_rng(8)
        encoder = SparseEncoder.create(widths=(2, 3), voxel_size=0.1, seed=8)
        bank = PrototypeBank.create(num_prototypes=5, feature_dim=3, attention_dim=2,
                                    inv_temperature=0.6, seed=9) if with_bank else None
        table = AnchorTable(["a", "b"], rng.normal(size=(2, 4)), rng.normal(size=(4, 3)) * 0.5)
        labels = rng.integers(0, 2, size=12)
        labels[::3] = -1  # background: voxelized and encoded, never scored
        scene = PointCloud(rng.uniform(-0.2, 0.2, size=(12, 3)), labels)
        labeled = labels >= 0

        def scalar():
            feats = encoder.forward(scene)
            projected = bank.project(feats) if with_bank else feats
            return contrastive_loss(projected[labeled], labels[labeled], table)[0]

        model = SceneModel(encoder, bank, table)
        loss, grads = model.gradients(scene)
        assert loss == scalar()
        params = model.parameters()
        assert set(grads) == set(params)
        for name, param in params.items():
            result = compare(name, grads[name], numeric_gradient(scalar, param))
            assert result.passed, str(result)

    def test_scene_without_labeled_points_rejected(self):
        encoder = SparseEncoder.create(widths=(2, 3), voxel_size=0.1, seed=8)
        table = AnchorTable(["a", "b"], np.eye(2, 4), np.eye(4, 3))
        scene = PointCloud(np.zeros((3, 3)), np.full(3, -1))
        with pytest.raises(ValueError, match="no labeled points"):
            SceneModel(encoder, None, table).gradients(scene)


class TestInferScene:
    def trained_model(self):
        models, table, encoder, bank = TestTrain().small_setup(seed=6)
        cfg = TrainConfig(epochs=2, steps_per_epoch=2, lr=1e-3, seed=6)
        train(models, table, encoder, bank, cfg, augment=AugmentConfig(),
              xy_bounds=((0, 0), (2, 2)))
        return SceneModel(encoder, bank, table)

    def test_rows_sum_to_one(self):
        model = self.trained_model()
        cloud = PointCloud(np.random.default_rng(7).uniform(0, 1, size=(64, 3)))
        probs = infer_points(model, cloud)
        assert probs.shape == (64, 3)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_same_voxel_same_row(self):
        model = self.trained_model()
        cloud = PointCloud(np.array([[0.01, 0.01, 0.01], [0.02, 0.02, 0.02],
                                     [0.9, 0.9, 0.9]]))
        probs = infer_points(model, cloud)
        np.testing.assert_array_equal(probs[0], probs[1])

    def test_zero_shot_extension_shape(self):
        model = self.trained_model()
        c_before = model.table.num_classes
        model.table.add_class("newthing",
                              np.random.default_rng(8).normal(size=model.table.embedding_dim))
        cloud = PointCloud(np.random.default_rng(9).uniform(0, 1, size=(32, 3)))
        probs = infer_points(model, cloud)
        assert probs.shape == (32, c_before + 1)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_no_prototype_preference_gives_no_class_preference(self):
        # a zero key map weighs every prototype equally; the centered readout
        # then sits on the origin, where every anchor scores zero
        model = self.trained_model()
        model.bank.w_key[:] = 0.0
        cloud = PointCloud(np.random.default_rng(11).uniform(0, 1, size=(16, 3)))
        probs = infer_points(model, cloud)
        np.testing.assert_allclose(probs, 1.0 / model.table.num_classes, atol=1e-12)

    def test_readout_ignores_where_the_hull_sits(self):
        # moving every prototype by one vector changes neither the
        # coefficients nor the centered readout
        model = self.trained_model()
        cloud = PointCloud(np.random.default_rng(12).uniform(0, 1, size=(32, 3)))
        before = infer_points(model, cloud)
        model.bank.prototypes += np.random.default_rng(13).normal(size=model.bank.feature_dim)
        np.testing.assert_allclose(infer_points(model, cloud), before, atol=1e-10)

    def test_voxel_readout_equals_point_readout(self):
        # infer_voxels reads the hull and the anchors once per voxel; that
        # must equal reading them once per point, bit for bit
        model = self.trained_model()
        cloud = PointCloud(np.random.default_rng(14).uniform(0, 0.3, size=(500, 3)))
        assert model.encoder.voxelize(cloud).num_voxels < len(cloud) / 2
        feats = model.encoder.forward(cloud)
        np.testing.assert_array_equal(
            infer_points(model, cloud),
            class_probs(model.bank.project(feats, centered=True), model.table))
        np.testing.assert_array_equal(infer_points(dataclasses.replace(model, bank=None), cloud),
                                      class_probs(feats, model.table))

    def test_no_labels_consumed(self):
        model = self.trained_model()
        pos = np.random.default_rng(10).uniform(0, 1, size=(16, 3))
        with_labels = PointCloud(pos, labels=np.zeros(16, dtype=int))
        without = PointCloud(pos.copy())
        np.testing.assert_array_equal(infer_points(model, with_labels),
                                      infer_points(model, without))


def distinct_voxel_cloud(num_voxels, voxel_size, seed, spacing=1):
    """One point in each of num_voxels random cells of a box, cells
    `spacing` apart; spacing 2 leaves every voxel without neighbours."""
    rng = np.random.default_rng(seed)
    side = int(np.ceil((2 * num_voxels) ** (1 / 3)))
    cells = rng.choice(side ** 3, size=num_voxels, replace=False)
    ijk = np.stack(np.unravel_index(cells, (side,) * 3), axis=1)
    return PointCloud((ijk * spacing + 0.5) * voxel_size)


class TestBlockedInferScene:
    """infer_voxels reads the hull and the anchors in blocks of BLOCK_ROWS
    voxel rows, a short block padded with zero rows; no row may depend on
    where the blocks are cut."""

    @staticmethod
    def model(widths=(32, 64, 96), prototypes=128):
        encoder = SparseEncoder.create(widths=widths, seed=3, voxel_size=0.05)
        d = encoder.feature_dim
        bank = PrototypeBank.create(num_prototypes=prototypes, feature_dim=d,
                                    attention_dim=16, inv_temperature=2.0, seed=4)
        rng = np.random.default_rng(5)
        table = AnchorTable([f"c{i}" for i in range(5)], rng.normal(size=(5, 6)),
                            rng.normal(size=(6, d)))
        return SceneModel(encoder, bank, table)

    @staticmethod
    def padded_readout(model, feats, first):
        """The readout of (V, D) features in blocks cut after row `first`
        and then every BLOCK_ROWS rows, each padded to BLOCK_ROWS rows."""
        edges = sorted({0, *range(first, len(feats), BLOCK_ROWS), len(feats)})
        probs = []
        for lo, hi in zip(edges, edges[1:]):
            block = np.zeros((BLOCK_ROWS, feats.shape[1]))
            block[:hi - lo] = feats[lo:hi]
            if model.bank is not None:
                block = model.bank.project(block, centered=True)
            probs.append(class_probs(block, model.table)[:hi - lo])
        return np.concatenate(probs)

    # 1026, 1038 and 1124 leave a last block of 2, 14 and 100 rows, which
    # differed from one unpadded pass before the short block was padded
    @pytest.mark.parametrize("num_voxels", [1, 2, BLOCK_ROWS, BLOCK_ROWS + 1, BLOCK_ROWS + 2,
                                            1038, 1124, 2 * BLOCK_ROWS + 1, 2348, 2648])
    def test_blocked_equals_unblocked(self, num_voxels):
        model = self.model()
        cloud = distinct_voxel_cloud(num_voxels, model.encoder.voxel_size, seed=num_voxels)
        grid = model.encoder.voxelize(cloud)
        assert grid.num_voxels == num_voxels
        feats = model.encoder.forward_grid(grid)  # drained whole, no readout
        for model in (model, dataclasses.replace(model, bank=None)):
            probs, _ = model.infer_voxels(cloud)
            for first in (1, 7, 333, 1000):
                assert np.array_equal(probs, self.padded_readout(model, feats, first)), first

    def test_no_voxels_by_prototypes_array(self):
        # narrow features and isolated voxels keep everything but the hull
        # small, so a (V, K) float64 array would show in the traced peak; a
        # block's few (BLOCK_ROWS, K) softmax temporaries stay under it
        model = self.model(widths=(8, 16), prototypes=128)
        cloud = distinct_voxel_cloud(16 * BLOCK_ROWS, model.encoder.voxel_size, seed=1, spacing=2)
        num_voxels = model.encoder.voxelize(cloud).num_voxels
        assert num_voxels == 16 * BLOCK_ROWS
        tracemalloc.start()
        try:
            infer_points(model, cloud)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < num_voxels * model.bank.num_prototypes * 8


class TestStreamedInfer:
    def test_peak_below_one_whole_last_layer(self):
        # the conv stack streams into the readout: no (V, 96) layer exists
        model = TestBlockedInferScene.model()
        coords = floor_coords()
        cloud = PointCloud((coords + 0.5) * model.encoder.voxel_size)
        tracemalloc.start()
        try:
            probs, _ = model.infer_voxels(cloud)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(probs) == len(coords)
        assert peak < len(coords) * model.encoder.feature_dim * 8


def crowded_voxel_cloud(num_voxels, voxel_size, seed, copies=3):
    """distinct_voxel_cloud with `copies` points in each voxel, spread
    within its cell, in shuffled order."""
    centres = distinct_voxel_cloud(num_voxels, voxel_size, seed).positions
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(-0.4, 0.4, size=(copies, *centres.shape)) * voxel_size
    positions = (centres[None] + offsets).reshape(-1, 3)
    return PointCloud(positions[rng.permutation(len(positions))])


class TestInferVoxels:
    """infer_voxels returns the per-voxel rows and each point's voxel."""

    def test_shapes(self):
        model = TestBlockedInferScene.model()
        cloud = crowded_voxel_cloud(40, model.encoder.voxel_size, seed=2)
        probs, point_to_voxel = model.infer_voxels(cloud)
        assert probs.shape == (40, model.table.num_classes)
        assert point_to_voxel.shape == (len(cloud),) == (120,)
        assert np.array_equal(np.bincount(point_to_voxel), np.full(40, 3))

    @pytest.mark.parametrize("num_voxels", [1, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1])
    @pytest.mark.parametrize("with_bank", [True, False])
    def test_infer_scene_is_gather(self, num_voxels, with_bank):
        # each point reads its voxel's row
        model = TestBlockedInferScene.model()
        if not with_bank:
            model = dataclasses.replace(model, bank=None)
        cloud = crowded_voxel_cloud(num_voxels, model.encoder.voxel_size, seed=num_voxels)
        probs, point_to_voxel = model.infer_voxels(cloud, temperature=0.5)
        assert len(probs) == num_voxels
        assert np.array_equal(infer_points(model, cloud, temperature=0.5),
                              probs[point_to_voxel])

    @pytest.mark.parametrize("part, message", [
        ("bank", "bank feature dim does not match encoder output"),
        ("table", "anchor projection does not match encoder output")])
    def test_parts_must_read_the_encoder_width(self, part, message):
        model = TestBlockedInferScene.model(widths=(4, 8), prototypes=12)
        encoder, bank, table = model.encoder, model.bank, model.table
        if part == "bank":
            bank = PrototypeBank.create(num_prototypes=12, feature_dim=6, attention_dim=4)
        else:
            table = AnchorTable(["a", "b"], np.eye(2, 6), np.eye(6))
        with pytest.raises(ValueError, match=message):
            SceneModel(encoder, bank, table)

    def test_points_of_a_voxel_write_identical_lines(self, tmp_path):
        model = TestBlockedInferScene.model()
        save_checkpoint(tmp_path / "checkpoint.bin", model)
        save_points(tmp_path / "scene.txt",
                    crowded_voxel_cloud(300, model.encoder.voxel_size, seed=8))
        cloud = load_points(tmp_path / "scene.txt")
        assert cli_main(["infer", "--checkpoint", str(tmp_path / "checkpoint.bin"),
                         "--scene", str(tmp_path / "scene.txt"),
                         "-o", str(tmp_path / "probs.txt")]) == 0
        lines = (tmp_path / "probs.txt").read_text().splitlines()
        assert len(lines) == len(cloud)
        _, point_to_voxel = model.infer_voxels(cloud)
        for voxel in range(300):
            assert len({lines[i] for i in np.flatnonzero(point_to_voxel == voxel)}) == 1


def test_only_scene_model_takes_encoder_and_table():
    # the network is one SceneModel; a definition that takes its parts
    # apart is one more place that must know how they fit together
    allowed = {
        # kept for perfbench/workloads.py, which calls it positionally, and
        # the tracer, which reads its config from args[4]
        "scenehull.objective.train",
    }
    found = []
    for info in pkgutil.iter_modules(scenehull.__path__):
        module = importlib.import_module(f"scenehull.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found.append((f"{module.__name__}.{name}", obj))
            elif inspect.isclass(obj) and obj is not SceneModel:
                found += [(f"{module.__name__}.{name}.{attr}", fn)
                          for attr, fn in vars(obj).items() if inspect.isfunction(fn)]
    takers = {qualname for qualname, fn in found
              if {"encoder", "table"} <= set(inspect.signature(fn).parameters)}
    assert takers == allowed


class TestComposeStepScene:
    def test_floor_z_sets_every_model_floor(self):
        models = toy_models()
        # keep every overlapping point, so no placed model loses its lowest one
        augment = AugmentConfig(overlap_keep_prob=1.0)
        rng = np.random.default_rng(0)
        cloud = compose_step_scene(models, augment, rng, floor_z=5.0,
                                   xy_bounds=((0, 0), (1, 1)))
        assert set(np.unique(cloud.instance_ids)) == {0, 1, 2}
        for inst in range(3):
            z = cloud.positions[cloud.instance_ids == inst, 2]
            assert z.min() == pytest.approx(5.0, abs=1e-12)

    def test_default_floor_unchanged(self):
        models = toy_models()
        a = compose_step_scene(models, AugmentConfig(), np.random.default_rng(1))
        b = compose_step_scene(models, AugmentConfig(), np.random.default_rng(1), floor_z=None)
        np.testing.assert_array_equal(a.positions, b.positions)
        assert a.positions[:, 2].min() == pytest.approx(0.0, abs=1e-12)
