"""Contrastive alignment of point features with class anchors.

Training pulls each labeled point's (hull-projected) feature toward its
class anchor and pushes it from the others via per-point cross-entropy over
anchor similarities. Inference turns the same similarities into a class
distribution per point. Background-labeled points never enter the loss.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .anchors import AnchorTable
from .encoder import BLOCK_ROWS, SparseEncoder
from .geometry import PointCloud
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

    Returns (loss, d_feats, table_grads) with exact gradients, table_grads
    keyed like table.parameters(). Every label must have an anchor; callers
    drop background points beforehand.
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
    n = len(feats)
    idx = np.arange(n)
    # one shifted exp serves the softmax and the stable log-softmax
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    z = e.sum(axis=1, keepdims=True)
    loss = float(np.mean(np.log(z[:, 0]) - shifted[idx, labels]))

    d_logits = e / z
    d_logits[idx, labels] -= 1.0
    d_logits /= n
    return loss, d_logits @ anchors, table.backward(d_logits.T @ feats)


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
    # finite scores further apart than the float range shift to -inf: exp gives 0
    with np.errstate(over="ignore", invalid="ignore"):
        scores = (feats @ table.matrix().T) / temperature
        if not np.isfinite(scores).all():
            raise ValueError(f"class scores are not finite at temperature {temperature}")
        return softmax(scores)


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
        """One update; grads needs every name of params (KeyError if not)."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name in sorted(self.params):
            g = grads[name]
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


def _prefixed(**groups) -> dict:
    """{"<group>.<name>": array} from each group's dict keyed like its
    parameters(), in argument order; a None group is left out. The one
    place that builds the full array names of training and checkpoints."""
    return {f"{group}.{name}": arr for group, arrs in groups.items() if arrs is not None
            for name, arr in arrs.items()}


@dataclass
class ModelSet:
    """Training library: presampled clouds per class, which classes are
    negatives (trained against, never evaluated), and the background scans
    a scene may be mixed over (none by default)."""

    clouds: dict            # class_id -> list of PointCloud
    negative_classes: frozenset = frozenset()
    backgrounds: list = field(default_factory=list)  # of PointCloud

    def __post_init__(self):
        self.clouds = {int(c): list(v) for c, v in self.clouds.items()}
        self.negative_classes = frozenset(int(c) for c in self.negative_classes)
        self.backgrounds = list(self.backgrounds)
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
    xy_bounds=None,
    floor_z: float | None = None,
    floor_percentile: float = 1.0,
) -> PointCloud:
    """One training scene as one labeled cloud: one model per foreground
    class plus one negative, mixed over one of the library's background
    scans when it has any. Models stand on floor_z, or on the background's
    floor_percentile z when it is None (0 with no background)."""

    def pick(options):
        return options[int(rng.integers(len(options)))]

    picks = [(pick(models.clouds[c]), c) for c in models.foreground_classes]
    negatives = sorted(models.negative_classes)
    if negatives:
        c = pick(negatives)
        picks.append((pick(models.clouds[c]), c))
    background = pick(models.backgrounds) if models.backgrounds else None
    return simulate_scene(
        background, picks, augment, rng,
        xy_bounds=xy_bounds, floor_z=floor_z, floor_percentile=floor_percentile,
    )


@dataclass
class SceneModel:
    """The network that training optimizes and a checkpoint holds: the
    sparse encoder, the prototype bank whose hull the features are
    projected onto (None: no hull) and the anchor table. ValueError unless
    the bank, if any, and the anchors read the encoder's width."""

    encoder: SparseEncoder
    bank: PrototypeBank | None
    table: AnchorTable

    def __post_init__(self):
        if self.bank is not None and self.bank.feature_dim != self.encoder.feature_dim:
            raise ValueError("bank feature dim does not match encoder output")
        if self.table.feature_dim != self.encoder.feature_dim:
            raise ValueError("anchor projection does not match encoder output")

    def arrays(self) -> dict:
        """Every array a checkpoint holds, by "<group>.<name>", in payload
        order; the frozen embeddings go ahead of the trained projection."""
        return _prefixed(encoder=self.encoder.parameters(),
                         bank=None if self.bank is None else self.bank.parameters(),
                         anchors={"embeddings": self.table.embeddings,
                                  **self.table.parameters()})

    def parameters(self) -> dict:
        """The trained arrays, every one but the embeddings; the keys of
        gradients()."""
        return {k: v for k, v in self.arrays().items() if k != "anchors.embeddings"}

    def gradients(self, scene: PointCloud) -> tuple:
        """The training step on one labeled scene: (loss, grads), grads keyed
        like parameters(). A bank that is not None projects the features
        onto its hull. Only points labeled >= 0 are scored (ValueError when
        there are none); background points get zero gradient rows. The
        caller checks that the loss is finite."""
        bank = self.bank
        feats = self.encoder.forward(scene)
        projected = feats if bank is None else bank.project(feats)
        labeled = scene.labels >= 0
        loss, d_labeled, table_grads = contrastive_loss(projected[labeled],
                                                        scene.labels[labeled], self.table)
        d_feats = np.zeros_like(projected)
        d_feats[labeled] = d_labeled
        d_feats, bank_grads = (d_feats, None) if bank is None else bank.backward(d_feats)
        return loss, _prefixed(encoder=self.encoder.backward(d_feats), bank=bank_grads,
                               anchors=table_grads)

    def infer_voxels(self, cloud, temperature: float = 1.0) -> tuple:
        """Per-voxel class distributions for an unlabeled scene: a (V, C)
        array and the (N,) index of each point's voxel row. Points in a
        voxel share its feature, so each point's distribution is its voxel's
        row.

        The hull and the anchors read each block of the encoder's last layer
        as the block pipeline makes it (see encoder.py), so neither a whole
        layer nor a (V, K) hull temporary is ever built. A block shorter
        than BLOCK_ROWS is read padded to BLOCK_ROWS with zero rows, because
        a matrix product with few rows may sum in another order. So no row
        depends on where the blocks are cut.
        """
        bank, table = self.bank, self.table

        def readout(block):
            n = len(block)
            if n < BLOCK_ROWS:
                block = np.concatenate([block, np.zeros((BLOCK_ROWS - n, block.shape[1]),
                                                        dtype=block.dtype)])
            # centered readout: the prototype centroid is a constant that
            # training uses as a class bias; see hull.py
            projected = bank.project(block, centered=True) if bank is not None else block
            return class_probs(projected, table, temperature=temperature)[:n]

        grid = self.encoder.voxelize(cloud)
        return self.encoder.forward_grid(grid, readout=readout), grid.point_to_voxel


def train(
    models: ModelSet,
    table: AnchorTable,
    encoder: SparseEncoder,
    bank: PrototypeBank | None,
    config: TrainConfig,
    augment: AugmentConfig | None = None,
    *,
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
    # the widths are checked before use_dcr leaves the bank out
    model = SceneModel(encoder, bank, table)
    if not config.use_dcr:
        model.bank = None
    elif bank is None:
        raise ValueError("use_dcr requires a prototype bank")

    params = model.parameters()
    opt = Adam(params, lr=config.lr, beta1=config.beta1, beta2=config.beta2, eps=config.eps)

    epoch_losses = []
    for epoch in range(config.epochs):
        tic = time.perf_counter()
        step_losses = []
        for step in range(config.steps_per_epoch):
            rng = np.random.default_rng(np.random.SeedSequence([config.seed, epoch, step]))
            scene = compose_step_scene(models, augment, rng, xy_bounds=xy_bounds,
                                       floor_z=floor_z, floor_percentile=floor_percentile)
            loss, grads = model.gradients(scene)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"loss became {loss} at epoch {epoch} step {step}")
            step_losses.append(loss)
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
