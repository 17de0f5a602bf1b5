"""Contrastive alignment of point features with class anchors.

Training pulls each labeled point's (hull-projected) feature toward its
class anchor and pushes it from the others via per-point cross-entropy over
anchor similarities. Inference turns the same similarities into a class
distribution per point. Background-labeled points never enter the loss.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .anchors import AnchorTable
from .encoder import BLOCK_ROWS, SparseEncoder
from .hull import PrototypeBank, softmax
from .scene import AugmentConfig, simulate_scene


class TrainingDiverged(RuntimeError):
    """Loss or a parameter became non-finite; the run is aborted rather than
    papered over, and no checkpoint is written."""


@dataclass
class TrainConfig:
    """Optimization settings; Adam with its default moments."""

    epochs: int = 200
    steps_per_epoch: int = 4
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    use_dcr: bool = True

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.steps_per_epoch < 1:
            raise ValueError("steps_per_epoch must be >= 1")
        if not 0.0 <= self.lr < math.inf:
            raise ValueError("lr must be finite and nonnegative")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def contrastive_loss(feats: np.ndarray, labels: np.ndarray, table: AnchorTable):
    """Mean cross-entropy of anchor similarities at the true class.

    Returns (loss, d_feats, d_w_proj) with exact gradients. Every label must
    have an anchor; callers drop background points beforehand.
    """
    feats = np.asarray(feats)
    labels = np.asarray(labels, dtype=np.int64)
    if feats.ndim != 2 or len(feats) != len(labels):
        raise ValueError("feats must be (N, D) with one label per row")
    if len(feats) == 0:
        raise ValueError("no labeled points to score")
    if labels.min() < 0 or labels.max() >= table.num_classes:
        bad = int(labels[(labels < 0) | (labels >= table.num_classes)][0])
        raise ValueError(f"label {bad} has no anchor")

    anchors = table.matrix()
    logits = feats @ anchors.T
    probs = softmax(logits)
    n = len(feats)
    idx = np.arange(n)
    # log-softmax evaluated stably rather than log(probs)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    loss = float(np.mean(log_z - shifted[idx, labels]))

    d_logits = probs
    d_logits[idx, labels] -= 1.0
    d_logits /= n
    d_feats = d_logits @ anchors
    d_w_proj = table.backward(d_logits.T @ feats)
    return loss, d_feats, d_w_proj


def class_probs(feats: np.ndarray, table: AnchorTable, temperature: float = 1.0) -> np.ndarray:
    """(N, C) class distributions of an (N, D) batch: the softmax of its
    anchor similarities divided by the temperature."""
    if table.num_classes == 0:
        raise ValueError("anchor table is empty")
    if not 0.0 < temperature < math.inf:
        raise ValueError(f"temperature must be positive and finite, got {temperature}")
    feats = np.asarray(feats)
    if feats.ndim != 2:
        raise ValueError(f"expected an (N, D) batch, got shape {feats.shape}")
    if not np.isfinite(feats).all():
        raise ValueError("features must be finite")
    return softmax((feats @ table.matrix().T) / temperature)


class Adam:
    """Plain Adam over a dict of named parameter arrays, updated in place."""

    def __init__(self, params: dict, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name in sorted(self.params):
            g = grads.get(name)
            if g is None:
                continue
            p = self.params[name]
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            m_hat = m / (1.0 - b1 ** self.t)
            v_hat = v / (1.0 - b2 ** self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass
class ModelSet:
    """Training library: presampled clouds per class plus which classes are
    negatives (trained against, never evaluated)."""

    clouds: dict            # class_id -> list of PointCloud
    negative_classes: frozenset = frozenset()

    def __post_init__(self):
        self.clouds = {int(c): list(v) for c, v in self.clouds.items()}
        self.negative_classes = frozenset(int(c) for c in self.negative_classes)
        if not self.clouds:
            raise ValueError("no models")
        for c, lst in self.clouds.items():
            if not lst:
                raise ValueError(f"class {c} has no models")

    @property
    def foreground_classes(self) -> list:
        return sorted(c for c in self.clouds if c not in self.negative_classes)


def compose_step_scene(
    models: ModelSet,
    augment: AugmentConfig,
    rng: np.random.Generator,
    *,
    backgrounds=None,
    xy_bounds=None,
    floor_z: float | None = None,
    floor_percentile: float = 1.0,
):
    """One training scene: one model per foreground class plus one negative,
    optionally mixed over a background scan. Models stand on floor_z, or on
    the background's floor_percentile z when it is None (0 with no
    background)."""
    picks = []
    for c in models.foreground_classes:
        variants = models.clouds[c]
        picks.append((variants[int(rng.integers(len(variants)))], c))
    negatives = sorted(models.negative_classes)
    if negatives:
        c = negatives[int(rng.integers(len(negatives)))]
        variants = models.clouds[c]
        picks.append((variants[int(rng.integers(len(variants)))], c))
    background = None
    if backgrounds:
        background = backgrounds[int(rng.integers(len(backgrounds)))]
    return simulate_scene(
        background, picks, augment, rng,
        xy_bounds=xy_bounds, floor_z=floor_z, floor_percentile=floor_percentile,
    )


def train(
    models: ModelSet,
    table: AnchorTable,
    encoder: SparseEncoder,
    bank: PrototypeBank | None,
    config: TrainConfig,
    augment: AugmentConfig | None = None,
    *,
    backgrounds=None,
    xy_bounds=None,
    floor_z: float | None = None,
    floor_percentile: float = 1.0,
    log_file=None,
) -> list:
    """Optimize encoder, prototype bank and anchor projection end to end.

    One freshly simulated scene per step, with the step rng derived from
    (seed, epoch, step) so a fixed seed replays exactly. Returns per-epoch
    mean losses; writes "epoch loss wall_seconds" lines to log_file if given.
    """
    if augment is None:
        augment = AugmentConfig()
    if len(models.clouds) < 2:
        raise ValueError("need at least two model classes")
    if max(models.clouds) >= table.num_classes or min(models.clouds) < 0:
        raise ValueError("anchor table does not cover all model classes")
    if config.use_dcr and bank is None:
        raise ValueError("use_dcr requires a prototype bank")
    if bank is not None and bank.feature_dim != encoder.feature_dim:
        raise ValueError("bank feature dim does not match encoder output")
    if table.feature_dim != encoder.feature_dim:
        raise ValueError("anchor projection does not match encoder output")

    params = {}
    for k, v in encoder.parameters().items():
        params[f"encoder.{k}"] = v
    if config.use_dcr:
        for k, v in bank.parameters().items():
            params[f"bank.{k}"] = v
    params["anchors.w_proj"] = table.w_proj
    opt = Adam(params, lr=config.lr, beta1=config.beta1, beta2=config.beta2, eps=config.eps)

    epoch_losses = []
    for epoch in range(config.epochs):
        tic = time.perf_counter()
        step_losses = []
        for step in range(config.steps_per_epoch):
            rng = np.random.default_rng(np.random.SeedSequence([config.seed, epoch, step]))
            scene = compose_step_scene(
                models, augment, rng,
                backgrounds=backgrounds, xy_bounds=xy_bounds,
                floor_z=floor_z, floor_percentile=floor_percentile,
            )
            feats = encoder.forward(scene.cloud)
            projected = bank.project(feats, cache=True) if config.use_dcr else feats

            labeled = scene.cloud.labels >= 0
            if not labeled.any():
                raise RuntimeError("scene contains no labeled points")
            loss, d_proj_labeled, d_w_proj = contrastive_loss(
                projected[labeled], scene.cloud.labels[labeled], table
            )
            if not np.isfinite(loss):
                raise TrainingDiverged(f"loss became {loss} at epoch {epoch} step {step}")
            step_losses.append(loss)

            d_projected = np.zeros_like(projected)
            d_projected[labeled] = d_proj_labeled
            grads = {"anchors.w_proj": d_w_proj}
            if config.use_dcr:
                d_feats, d_protos, d_w_key, d_w_query = bank.backward(d_projected)
                grads["bank.prototypes"] = d_protos
                grads["bank.w_key"] = d_w_key
                grads["bank.w_query"] = d_w_query
            else:
                d_feats = d_projected
            for k, v in encoder.backward(d_feats).items():
                grads[f"encoder.{k}"] = v
            opt.step(grads)
            for name in sorted(params):
                if not np.isfinite(params[name]).all():
                    raise TrainingDiverged(
                        f"parameter {name} became non-finite at epoch {epoch} step {step}")

        epoch_loss = float(np.mean(step_losses))
        epoch_losses.append(epoch_loss)
        if log_file is not None:
            wall = time.perf_counter() - tic
            log_file.write(f"{epoch} {epoch_loss:.17g} {wall:.3f}\n")
            log_file.flush()
    return epoch_losses


def infer_voxels(
    cloud,
    encoder: SparseEncoder,
    bank: PrototypeBank | None,
    table: AnchorTable,
    temperature: float = 1.0,
) -> tuple:
    """Per-voxel class distributions for an unlabeled scene: a (V, C) array
    and the (N,) index of each point's voxel row. Points in a voxel share
    its feature, so each point's distribution is its voxel's row.

    The encoder keeps no training cache, and the hull and the anchors read
    blocks of BLOCK_ROWS voxel rows into one (V, C) array, so no (V, K)
    hull temporary is ever built. Every step works row by row, so the rows
    equal one unblocked pass bit for bit. The exception is a one-row
    product, which takes numpy's gemv path (see encoder.py), so a one-row
    tail joins the block before it.
    """
    if bank is not None and bank.feature_dim != encoder.feature_dim:
        raise ValueError("bank feature dim does not match encoder output")
    if table.feature_dim != encoder.feature_dim:
        raise ValueError("anchor projection does not match encoder output")
    grid = encoder.voxelize(cloud)
    feats = encoder.forward_grid(grid)
    v = len(feats)
    edges = list(range(0, v, BLOCK_ROWS)) + [v]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    blocks = []
    for lo, hi in zip(edges, edges[1:]):
        block = feats[lo:hi]
        # centered readout: the prototype centroid is a constant that
        # training uses as a class bias; see hull.py
        projected = bank.project(block, centered=True) if bank is not None else block
        blocks.append(class_probs(projected, table, temperature=temperature))
    return np.concatenate(blocks), grid.point_to_voxel


def infer_scene(cloud, encoder: SparseEncoder, bank: PrototypeBank | None, table: AnchorTable,
                temperature: float = 1.0) -> np.ndarray:
    """Per-point class distributions for an unlabeled scene, (N, C): each
    point's row of infer_voxels."""
    probs, point_to_voxel = infer_voxels(cloud, encoder, bank, table, temperature)
    return probs[point_to_voxel]
