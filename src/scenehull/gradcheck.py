"""Finite-difference verification of every analytic gradient path.

Each check builds a tiny random instance, reduces the output to a scalar
through a fixed random projection where needed, and compares the analytic
gradient of every tensor against central differences. Everything runs in
double precision; agreement is asserted elementwise at rtol=1e-4, atol=1e-8
(the central-difference noise floor is around 1e-10 here).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .anchors import AnchorTable
from .encoder import (OFFSETS, ConvLayer, SparseEncoder, SparseFeatureGrid,
                      sparse_conv_forward, voxelize)
from .geometry import PointCloud
from .hull import PrototypeBank
from .objective import contrastive_loss

RTOL = 1e-4
ATOL = 1e-8


@dataclass
class CheckResult:
    name: str
    max_abs_err: float
    max_rel_err: float
    passed: bool

    def __str__(self):
        status = "ok" if self.passed else "FAIL"
        return f"{self.name:<40} abs={self.max_abs_err:.3e} rel={self.max_rel_err:.3e} {status}"


def numeric_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function w.r.t. a live array.

    The array is perturbed in place and restored, so f may close over it.
    """
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(len(flat)):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = f()
        flat[i] = orig - h
        f_minus = f()
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def compare(name: str, analytic: np.ndarray, numeric: np.ndarray) -> CheckResult:
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    abs_err = np.abs(analytic - numeric)
    denom = np.maximum(np.abs(numeric), 1e-12)
    ok = bool(np.all(abs_err <= ATOL + RTOL * np.abs(numeric)))
    return CheckResult(name, float(abs_err.max(initial=0.0)),
                       float((abs_err / denom).max(initial=0.0)), ok)


def _random_cloud(rng, n_points: int, extent: float = 0.4) -> PointCloud:
    return PointCloud(rng.uniform(-extent, extent, size=(n_points, 3)))


def check_dcr(seed: int) -> list:
    """All four gradient blocks of the hull projection (x, P, W_key, W_query),
    for the plain and the centered projection."""
    rng = np.random.default_rng(seed)
    bank = PrototypeBank.create(
        num_prototypes=5, feature_dim=4, attention_dim=3,
        inv_temperature=0.7, seed=seed,
    )
    x = rng.standard_normal((3, 4))
    probe = rng.standard_normal((3, 4))

    results = []
    for centered, prefix in ((False, "dcr"), (True, "dcr.centered")):
        def scalar():
            return float((bank.project(x, centered=centered) * probe).sum())

        bank.project(x, cache=True, centered=centered)
        d_x, d_p, d_wk, d_wq = bank.backward(probe)
        for name, tensor, analytic in [
            ("features", x, d_x),
            ("prototypes", bank.prototypes, d_p),
            ("w_key", bank.w_key, d_wk),
            ("w_query", bank.w_query, d_wq),
        ]:
            results.append(compare(f"{prefix}.{name}", analytic, numeric_gradient(scalar, tensor)))
    return results


def check_encoder(seed: int) -> list:
    """Kernel and bias gradients of every conv layer on a tiny voxel set."""
    rng = np.random.default_rng(seed)
    encoder = SparseEncoder.create(widths=(2, 3), voxel_size=0.1, seed=seed)
    cloud = _random_cloud(rng, 8, extent=0.15)  # <= 10 voxels
    probe = rng.standard_normal((len(cloud), encoder.feature_dim))
    # parameter perturbations leave the voxel grid untouched; build it once
    grid = voxelize(cloud, encoder.voxel_size)

    def scalar():
        return float((encoder.forward_grid(grid)[grid.point_to_voxel] * probe).sum())

    encoder.forward(cloud)
    grads = encoder.backward(probe)
    results = []
    for name in sorted(grads):
        tensor = encoder.parameters()[name]
        results.append(compare(f"encoder.{name}", grads[name], numeric_gradient(scalar, tensor)))
    return results


def check_loss(seed: int) -> list:
    """Cross-entropy gradients w.r.t. features and the anchor projection."""
    rng = np.random.default_rng(seed)
    n, d, c, e = 4, 5, 3, 4
    embeddings = rng.standard_normal((c, e))
    w_proj = rng.standard_normal((e, d)) * 0.5
    table = AnchorTable([f"class{i}" for i in range(c)], embeddings, w_proj)
    feats = rng.standard_normal((n, d))
    labels = rng.integers(0, c, size=n)

    def scalar():
        return contrastive_loss(feats, labels, table)[0]

    _, d_feats, d_w_proj = contrastive_loss(feats, labels, table)
    return [
        compare("loss.features", d_feats, numeric_gradient(scalar, feats)),
        compare("loss.w_proj", d_w_proj, numeric_gradient(scalar, table.w_proj)),
    ]


def check_end_to_end(seed: int) -> list:
    """Total loss gradients through encoder, hull projection and anchors;
    then the centered readout's loss w.r.t. the encoder output and the bank
    and anchor tensors (the encoder chain below the features is shared)."""
    rng = np.random.default_rng(seed)
    encoder = SparseEncoder.create(widths=(2, 3), voxel_size=0.1, seed=seed)
    bank = PrototypeBank.create(
        num_prototypes=5, feature_dim=3, attention_dim=2,
        inv_temperature=0.6, seed=seed + 1,
    )
    c, e = 2, 4
    table = AnchorTable(
        ["a", "b"], rng.standard_normal((c, e)), rng.standard_normal((e, 3)) * 0.5
    )
    cloud = _random_cloud(rng, 12, extent=0.2)  # <= 20 points
    labels = rng.integers(0, c, size=len(cloud))
    grid = voxelize(cloud, encoder.voxel_size)

    def scalar():
        feats = encoder.forward_grid(grid)[grid.point_to_voxel]
        projected = bank.project(feats)
        return contrastive_loss(projected, labels, table)[0]

    feats = encoder.forward(cloud)
    projected = bank.project(feats, cache=True)
    _, d_proj, d_w_proj = contrastive_loss(projected, labels, table)
    d_feats, d_p, d_wk, d_wq = bank.backward(d_proj)
    enc_grads = encoder.backward(d_feats)

    named = [("e2e.anchors.w_proj", table.w_proj, d_w_proj),
             ("e2e.bank.prototypes", bank.prototypes, d_p),
             ("e2e.bank.w_key", bank.w_key, d_wk),
             ("e2e.bank.w_query", bank.w_query, d_wq)]
    for name in sorted(enc_grads):
        named.append((f"e2e.encoder.{name}", encoder.parameters()[name], enc_grads[name]))
    results = [compare(name, analytic, numeric_gradient(scalar, tensor))
               for name, tensor, analytic in named]

    def centered_scalar():
        return contrastive_loss(bank.project(feats, centered=True), labels, table)[0]

    projected = bank.project(feats, cache=True, centered=True)
    _, d_proj, d_w_proj = contrastive_loss(projected, labels, table)
    d_feats, d_p, d_wk, d_wq = bank.backward(d_proj)
    for name, tensor, analytic in [("features", feats, d_feats),
                                   ("anchors.w_proj", table.w_proj, d_w_proj),
                                   ("bank.prototypes", bank.prototypes, d_p),
                                   ("bank.w_key", bank.w_key, d_wk),
                                   ("bank.w_query", bank.w_query, d_wq)]:
        results.append(compare(f"e2e.centered.{name}", analytic,
                               numeric_gradient(centered_scalar, tensor)))
    return results


def dense_conv_reference(coords: np.ndarray, feats: np.ndarray, layer: ConvLayer) -> np.ndarray:
    """Independent oracle for sparse_conv_forward, which returns the
    pre-activation: put the features in a zero-padded dense grid and
    convolve by explicit offset loops (cross-correlation, weight[o] for
    OFFSETS[o])."""
    cells = coords - coords.min(axis=0) + 1
    dense = np.zeros((*(cells.max(axis=0) + 2), feats.shape[1]))
    dense[tuple(cells.T)] = feats
    out = np.zeros((len(coords), layer.bias.shape[0]))
    for row, (x, y, z) in enumerate(cells):
        acc = layer.bias.astype(np.float64).copy()
        for o, (dx, dy, dz) in enumerate(OFFSETS):
            acc = acc + dense[x + dx, y + dy, z + dz] @ layer.weight[o]
        out[row] = acc
    return out


def check_dense_oracle(seed: int) -> CheckResult:
    """Sparse conv forward against the dense reference on a small random
    grid of up to 8^3 cells, placed anywhere (negative coordinates too)."""
    rng = np.random.default_rng(seed)
    c_in = int(rng.integers(1, 4))
    c_out = int(rng.integers(1, 4))
    extent = int(rng.integers(2, 9))  # up to 8^3
    n_active = int(rng.integers(1, extent ** 3 + 1))
    flat = rng.choice(extent ** 3, size=n_active, replace=False)
    coords = np.stack(np.unravel_index(flat, (extent, extent, extent)), axis=1).astype(np.int64)
    feats = rng.standard_normal((n_active, c_in))
    layer = ConvLayer(rng.standard_normal((27, c_in, c_out)), rng.standard_normal(c_out))
    coords += rng.integers(-10, 10, size=3)
    grid = SparseFeatureGrid(coords, feats, np.arange(n_active))
    sparse = sparse_conv_forward(grid, layer)
    err = float(np.abs(sparse - dense_conv_reference(coords, feats, layer)).max())
    return CheckResult("encoder.dense_oracle", err, err, err < 1e-9)


def run_all(seeds) -> list:
    results = []
    for seed in seeds:
        results += check_dcr(seed)
        results += check_encoder(seed)
        results += check_loss(seed)
        results += check_end_to_end(seed)
        results.append(check_dense_oracle(seed))
    return results
