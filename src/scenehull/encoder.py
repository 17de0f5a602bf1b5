"""Sparse voxel features through a minimal 3x3x3 convolution stack.

Only occupied voxels are stored; every layer convolves over the same voxel
set (stride 1, no resampling), so neighbor maps are built once per scene.
Gradients for all kernel weights and biases are accumulated by hand in
reverse mode, which lets them be checked against central finite differences
in double precision.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import PointCloud

# Kernel offsets in lexicographic order; weight[o] belongs to OFFSETS[o].
OFFSETS = np.array(list(itertools.product((-1, 0, 1), repeat=3)), dtype=np.int64)
NUM_OFFSETS = len(OFFSETS)  # 27


class SparseFeatureGrid:
    """Active voxel coordinates with per-voxel features and a point lookup."""

    def __init__(self, coords: np.ndarray, feats: np.ndarray, point_to_voxel: np.ndarray):
        self.coords = np.asarray(coords, dtype=np.int64)
        self.feats = np.asarray(feats)
        self.point_to_voxel = np.asarray(point_to_voxel, dtype=np.int64)
        if self.coords.ndim != 2 or self.coords.shape[1] != 3:
            raise ValueError("coords must be (V, 3)")
        if len(self.feats) != len(self.coords):
            raise ValueError("feats must have one row per voxel")
        self._neighbor_maps = None

    @property
    def num_voxels(self) -> int:
        return len(self.coords)

    @property
    def neighbor_maps(self):
        """Per kernel offset, (rows_out, rows_in) with coords[rows_in] ==
        coords[rows_out] + offset. Rows are unique on both sides for a fixed
        offset, so scatter-adds below never collide."""
        if self._neighbor_maps is None:
            self._neighbor_maps = _build_neighbor_maps(self.coords)
        return self._neighbor_maps


def pack_keys(cells: np.ndarray, lo: np.ndarray, dims: np.ndarray) -> np.ndarray:
    """One int64 key per (x, y, z) cell in the box lo + [0, dims), ordered
    like the cells. Raises ValueError when the box has more cells than int64
    can number: keys would wrap and merge distinct cells."""
    if math.prod(int(d) for d in dims) > np.iinfo(np.int64).max:
        raise ValueError(f"voxel extent {dims} does not fit an int64 key")
    return ((cells[:, 0] - lo[0]) * dims[1] + (cells[:, 1] - lo[1])) * dims[2] + (
        cells[:, 2] - lo[2]
    )


def _build_neighbor_maps(coords: np.ndarray):
    lo = coords.min(axis=0) - 1
    dims = coords.max(axis=0) - lo + 2  # covers coords +/- 1 without key collisions
    keys = pack_keys(coords, lo, dims)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    maps = []
    for off in OFFSETS:
        target = pack_keys(coords + off, lo, dims)
        pos = np.searchsorted(sorted_keys, target)
        pos = np.minimum(pos, len(sorted_keys) - 1)
        hit = sorted_keys[pos] == target
        rows_out = np.flatnonzero(hit)
        rows_in = order[pos[hit]]
        maps.append((rows_out, rows_in))
    return maps


def voxelize(pc: PointCloud, voxel_size: float, dtype=np.float64) -> SparseFeatureGrid:
    """Quantize points to voxel coordinates floor(p / voxel_size).

    Voxel rows are ordered by coordinate (lexicographic), so the grid is
    independent of the input point order. The initial feature is a constant
    1 per occupied voxel (channel width 1).
    """
    if voxel_size <= 0:
        raise ValueError("voxel_size must be positive")
    if len(pc) == 0:
        raise ValueError("cannot voxelize an empty cloud")
    cells = np.floor(pc.positions / voxel_size).astype(np.int64)
    lo = cells.min(axis=0)
    dims = cells.max(axis=0) - lo + 1
    keys = pack_keys(cells, lo, dims)
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    coords = np.empty((len(unique_keys), 3), dtype=np.int64)
    coords[inverse] = cells
    feats = np.ones((len(unique_keys), 1), dtype=dtype)
    return SparseFeatureGrid(coords, feats, inverse)


@dataclass
class ConvLayer:
    """One 3x3x3 sparse convolution: weight (27, c_in, c_out), bias (c_out,)."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weight = np.asarray(self.weight)
        self.bias = np.asarray(self.bias)
        if self.weight.ndim != 3 or self.weight.shape[0] != NUM_OFFSETS:
            raise ValueError("weight must be (27, c_in, c_out)")
        if self.bias.shape != (self.weight.shape[2],):
            raise ValueError("bias must be (c_out,)")

    @property
    def in_width(self) -> int:
        return self.weight.shape[1]

    @property
    def out_width(self) -> int:
        return self.weight.shape[2]


def sparse_conv_forward(grid: SparseFeatureGrid, layer: ConvLayer, relu: bool = True) -> np.ndarray:
    """out[v] = bias + sum over offsets o of feat[v + o] @ W[o], active
    neighbors only, optionally followed by ReLU."""
    if grid.feats.shape[1] != layer.in_width:
        raise ValueError(
            f"layer expects width {layer.in_width}, grid has {grid.feats.shape[1]}"
        )
    out = np.tile(layer.bias.astype(grid.feats.dtype), (grid.num_voxels, 1))
    for o, (rows_out, rows_in) in enumerate(grid.neighbor_maps):
        if len(rows_out):
            out[rows_out] += grid.feats[rows_in] @ layer.weight[o]
    return np.maximum(out, 0.0) if relu else out


class SparseEncoder:
    """Conv stack over a sparse voxel grid; points read out their voxel row.

    ReLU follows every layer except the last. forward() caches everything
    backward() needs; calling backward() without a cached forward raises.
    """

    def __init__(self, layers, voxel_size: float = 0.05):
        self.layers = list(layers)
        if not self.layers:
            raise ValueError("need at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.out_width != nxt.in_width:
                raise ValueError("layer widths do not chain")
        self.voxel_size = float(voxel_size)
        self._cache = None

    @classmethod
    def create(
        cls,
        widths=(32, 64, 96),
        in_width: int = 1,
        voxel_size: float = 0.05,
        seed: int = 0,
        dtype=np.float64,
    ) -> "SparseEncoder":
        """Fresh parameters, uniform in +-sqrt(1 / (27 * c_in))."""
        rng = np.random.default_rng(seed)
        layers = []
        c_in = in_width
        for c_out in widths:
            bound = np.sqrt(1.0 / (NUM_OFFSETS * c_in))
            weight = rng.uniform(-bound, bound, size=(NUM_OFFSETS, c_in, c_out)).astype(dtype)
            bias = np.zeros(c_out, dtype=dtype)
            layers.append(ConvLayer(weight, bias))
            c_in = c_out
        return cls(layers, voxel_size=voxel_size)

    @property
    def feature_dim(self) -> int:
        return self.layers[-1].out_width

    def parameters(self) -> dict:
        params = {}
        for i, layer in enumerate(self.layers):
            params[f"layers.{i}.weight"] = layer.weight
            params[f"layers.{i}.bias"] = layer.bias
        return params

    def forward_grid(self, grid: SparseFeatureGrid) -> np.ndarray:
        """Run the stack on a prepared grid; returns (V, D) voxel features."""
        inputs = []
        preacts = []
        feats = grid.feats
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            inputs.append(feats)
            work = SparseFeatureGrid(grid.coords, feats, grid.point_to_voxel)
            work._neighbor_maps = grid.neighbor_maps
            pre = sparse_conv_forward(work, layer, relu=False)
            preacts.append(pre)
            feats = np.maximum(pre, 0.0) if i < last else pre
        self._cache = {"grid": grid, "inputs": inputs, "preacts": preacts}
        return feats

    def voxelize(self, pc: PointCloud) -> SparseFeatureGrid:
        """The grid this encoder reads: its voxel size, its parameter dtype."""
        return voxelize(pc, self.voxel_size, dtype=self.layers[0].weight.dtype)

    def forward(self, pc: PointCloud) -> np.ndarray:
        """Voxelize, convolve, and give each point its voxel's feature."""
        grid = self.voxelize(pc)
        return self.forward_grid(grid)[grid.point_to_voxel]

    def backward(self, upstream: np.ndarray) -> dict:
        """Exact parameter gradients for upstream per-point feature gradients.

        Accumulates through the point->voxel lookup, the ReLUs and every
        sparse convolution; returns a dict keyed like parameters().
        """
        if self._cache is None:
            raise RuntimeError("backward called without a cached forward pass")
        grid = self._cache["grid"]
        inputs = self._cache["inputs"]
        preacts = self._cache["preacts"]
        upstream = np.asarray(upstream)
        if upstream.shape != (len(grid.point_to_voxel), self.feature_dim):
            raise ValueError("upstream gradient shape mismatch")

        grad = np.zeros((grid.num_voxels, self.feature_dim), dtype=upstream.dtype)
        np.add.at(grad, grid.point_to_voxel, upstream)

        grads = {}
        last = len(self.layers) - 1
        for i in range(last, -1, -1):
            layer = self.layers[i]
            if i < last:
                grad = grad * (preacts[i] > 0.0)
            d_weight = np.zeros_like(layer.weight)
            d_input = np.zeros_like(inputs[i])
            for o, (rows_out, rows_in) in enumerate(grid.neighbor_maps):
                if len(rows_out) == 0:
                    continue
                d_weight[o] = inputs[i][rows_in].T @ grad[rows_out]
                if i > 0:  # nothing reads layer 0's input gradient
                    d_input[rows_in] += grad[rows_out] @ layer.weight[o].T
            grads[f"layers.{i}.weight"] = d_weight
            grads[f"layers.{i}.bias"] = grad.sum(axis=0)
            grad = d_input
        return grads
