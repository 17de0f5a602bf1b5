"""Crowded-scene composition from augmented CAD point clouds.

Each placed model is rotated, scaled, anchor-cropped and dropped onto the
floor; overlaps against already-placed content are filtered at random.
Background points (real scans mixed in) carry the reserved label and
instance id -1 and never contribute to any loss; model points carry their
placement index as instance id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .encoder import pack_keys
from .geometry import PointCloud, rotate_z, scale, translate

BACKGROUND_LABEL = -1


@dataclass
class AugmentConfig:
    """Augmentation knobs for scene composition."""

    scale_min: float = 0.9
    scale_max: float = 1.1
    rotation_max: float = 2.0 * math.pi
    crop_anchor_min: int = 2
    crop_anchor_max: int = 5
    crop_prob: float = 1.0
    overlap_voxel: float = 0.05
    overlap_keep_prob: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.scale_min <= self.scale_max):
            raise ValueError("need 0 < scale_min <= scale_max")
        if not (1 <= self.crop_anchor_min <= self.crop_anchor_max):
            raise ValueError("need 1 <= crop_anchor_min <= crop_anchor_max")
        if not (0.0 <= self.crop_prob <= 1.0):
            raise ValueError("crop_prob must be in [0, 1]")
        if not (0.0 <= self.overlap_keep_prob <= 1.0):
            raise ValueError("overlap_keep_prob must be in [0, 1]")
        if self.overlap_voxel <= 0.0:
            raise ValueError("overlap_voxel must be positive")


@dataclass
class SimulatedScene:
    """Composed labeled cloud plus the model classes it actually contains."""

    cloud: PointCloud
    class_set: list = field(default_factory=list)


def anchor_crop(pc: PointCloud, config: AugmentConfig, rng: np.random.Generator) -> PointCloud:
    """Drop one nearest-anchor cluster to mimic partial scans.

    Samples k anchors (k uniform in [crop_anchor_min, crop_anchor_max]),
    assigns every point to its nearest anchor (ties to the lowest anchor
    index), and removes one cluster chosen uniformly. Surviving points keep
    their original order. With probability 1 - crop_prob the cloud passes
    through untouched.
    """
    n = len(pc)
    if n < config.crop_anchor_max:
        raise ValueError(
            f"anchor crop needs at least {config.crop_anchor_max} points, got {n}"
        )
    if rng.random() >= config.crop_prob:
        return pc.copy()
    k = int(rng.integers(config.crop_anchor_min, config.crop_anchor_max + 1))
    anchor_idx = rng.choice(n, size=k, replace=False)
    anchors = pc.positions[anchor_idx]
    d2 = ((pc.positions[:, None, :] - anchors[None, :, :]) ** 2).sum(axis=2)
    nearest = d2.argmin(axis=1)  # argmin takes the first minimum: lowest anchor wins ties
    dropped = int(rng.integers(k))
    return pc.select(nearest != dropped)


def place_on_floor(model: PointCloud, floor_z: float, xy_bounds, rng: np.random.Generator) -> PointCloud:
    """Translate so min-z sits on the floor and the xy-centroid lands
    uniformly inside the rectangle ((xmin, ymin), (xmax, ymax))."""
    if len(model) == 0:
        raise ValueError("cannot place an empty model")
    (xmin, ymin), (xmax, ymax) = xy_bounds
    if xmax < xmin or ymax < ymin:
        raise ValueError("degenerate xy bounds")
    target_x = rng.uniform(xmin, xmax)
    target_y = rng.uniform(ymin, ymax)
    centroid = model.positions.mean(axis=0)
    offset = np.array([
        target_x - centroid[0],
        target_y - centroid[1],
        floor_z - model.positions[:, 2].min(),
    ])
    return translate(model, offset)


def estimate_floor(scene: PointCloud, percentile: float = 1.0) -> float:
    """Floor height as a low z-percentile, robust to below-floor outliers."""
    if len(scene) == 0:
        raise ValueError("cannot estimate the floor of an empty scene")
    return float(np.percentile(scene.positions[:, 2], percentile))


def _overlap_masks(a: np.ndarray, b: np.ndarray, voxel: float):
    """Boolean masks of points of a (resp. b) sharing a voxel cell with the
    other cloud."""
    cells_a = np.floor(a / voxel).astype(np.int64)
    cells_b = np.floor(b / voxel).astype(np.int64)
    lo = np.minimum(cells_a.min(axis=0), cells_b.min(axis=0))
    dims = np.maximum(cells_a.max(axis=0), cells_b.max(axis=0)) - lo + 1
    keys_a = pack_keys(cells_a, lo, dims)
    keys_b = pack_keys(cells_b, lo, dims)
    return np.isin(keys_a, keys_b), np.isin(keys_b, keys_a)


def resolve_overlap(
    scene_pts: PointCloud,
    model_pts: PointCloud,
    config: AugmentConfig,
    rng: np.random.Generator,
) -> tuple[PointCloud, PointCloud]:
    """Randomly thin points that fall in voxel cells occupied by both clouds.

    Each overlapped point is kept independently with overlap_keep_prob;
    non-overlapped points always survive. Keep decisions are drawn for the
    scene cloud first, then the model cloud.
    """
    if len(scene_pts) == 0 or len(model_pts) == 0:
        return scene_pts.copy(), model_pts.copy()
    over_a, over_b = _overlap_masks(scene_pts.positions, model_pts.positions, config.overlap_voxel)

    keep_a = np.ones(len(scene_pts), dtype=bool)
    if over_a.any():
        keep_a[over_a] = rng.random(int(over_a.sum())) < config.overlap_keep_prob
    keep_b = np.ones(len(model_pts), dtype=bool)
    if over_b.any():
        keep_b[over_b] = rng.random(int(over_b.sum())) < config.overlap_keep_prob
    return scene_pts.select(keep_a), model_pts.select(keep_b)


def concat_clouds(clouds) -> PointCloud:
    """Concatenate clouds that all carry labels and instance ids."""
    clouds = [c for c in clouds if len(c)]
    if not clouds:
        raise ValueError("nothing to concatenate")
    for c in clouds:
        if c.labels is None or c.instance_ids is None:
            raise ValueError("concat requires fully annotated clouds")
    return PointCloud(
        np.concatenate([c.positions for c in clouds]),
        np.concatenate([c.labels for c in clouds]),
        np.concatenate([c.instance_ids for c in clouds]),
    )


def _annotate(pc: PointCloud, label: int, instance: int) -> PointCloud:
    n = len(pc)
    return PointCloud(
        pc.positions,
        np.full(n, label, dtype=np.int64),
        np.full(n, instance, dtype=np.int64),
    )


def simulate_scene(
    background: PointCloud | None,
    models,
    config: AugmentConfig,
    rng: np.random.Generator,
    *,
    xy_bounds=None,
    floor_z: float | None = None,
    floor_percentile: float = 1.0,
) -> SimulatedScene:
    """Compose one labeled training scene.

    ``models`` is a list of (cloud, class_id). Each model is z-rotated,
    scaled, anchor-cropped and floor-placed, then overlap-filtered against
    everything already placed. Background points get the reserved label.
    """
    models = list(models)
    if not models:
        raise ValueError("need at least one model")
    if xy_bounds is None:
        if background is not None and len(background):
            pos = background.positions
            xy_bounds = ((pos[:, 0].min(), pos[:, 1].min()), (pos[:, 0].max(), pos[:, 1].max()))
        else:
            xy_bounds = ((0.0, 0.0), (4.0, 4.0))
    if floor_z is None:
        floor_z = estimate_floor(background, floor_percentile) if background is not None else 0.0

    composite = None
    if background is not None and len(background):
        composite = _annotate(background, BACKGROUND_LABEL, -1)

    for instance, (cloud, class_id) in enumerate(models):
        placed = rotate_z(cloud, rng.uniform(0.0, config.rotation_max))
        placed = scale(placed, rng.uniform(config.scale_min, config.scale_max))
        placed = anchor_crop(placed, config, rng)
        placed = place_on_floor(placed, floor_z, xy_bounds, rng)
        placed = _annotate(placed, int(class_id), instance)
        if composite is not None and len(composite):
            composite, placed = resolve_overlap(composite, placed, config, rng)
        composite = placed if composite is None else concat_clouds([composite, placed])

    model_mask = composite.instance_ids >= 0
    class_set = sorted(int(c) for c in np.unique(composite.labels[model_mask]))
    return SimulatedScene(cloud=composite, class_set=class_set)
