"""Sparse voxel features through a minimal 3x3x3 convolution stack.

Only occupied voxels are stored; every layer convolves over the same voxel
set (stride 1, no resampling), so the kernel map is built once per grid and
read by every layer, forward and backward.

The kernel map holds, per kernel offset, the (rows_out, rows_in) neighbour
pairs, sorted by rows_out, and where each block of BLOCK_ROWS output rows
starts in them. Offset 26 - o is offset o with its two sides swapped and the
centre offset is the identity, so 13 key searches build all 27 maps.

The forward pass runs block by block: inside a block each offset gathers its
input rows, multiplies by its weight and adds into the block's output rows,
in offset order 0..26, so the output rows stay in cache. Every output row
adds the same terms in the same order as an unblocked per-offset pass, and
the result is bit-identical to it, given two facts about numpy's matrix
product that tests/test_encoder.py checks: a row of a GEMM does not depend on
how many rows are multiplied with it, but a single-row product takes the
gemv path, which sums in another order. So a block that holds one pair of an
offset with more pairs multiplies that row twice and keeps one; an offset
with one pair in the whole grid keeps gemv. When a layer's input is the
constant 1 that voxelize gives, each term is exactly a weight row, which is
added with no gather and no GEMM.

Gradients for all kernel weights and biases are accumulated by hand in
reverse mode, which lets them be checked against central finite differences
in double precision. The backward pass is unblocked: the weight gradient is
one GEMM per offset over all its pairs, and splitting that sum would change
it. The cache it reads, every layer's input, exists for training only:
forward() keeps it, forward_grid() only when asked, so inference holds one
layer's output at a time. The ReLU runs in place; backward() reads its
output, which is positive exactly where its pre-activation is.
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
CENTRE = NUM_OFFSETS // 2  # offset (0, 0, 0)
# Output rows per block of the forward pass: 1024 rows of 96 float64
# features (768 KB) stay in cache while the 27 offsets add into them.
BLOCK_ROWS = 1024


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
        self._block_starts = None

    @property
    def num_voxels(self) -> int:
        return len(self.coords)

    @property
    def neighbor_maps(self):
        """Per kernel offset, (rows_out, rows_in) with coords[rows_in] ==
        coords[rows_out] + offset, sorted by rows_out. Rows are unique on
        both sides for a fixed offset, so scatter-adds below never collide."""
        if self._neighbor_maps is None:
            self._neighbor_maps = _build_neighbor_maps(self.coords)
            self._block_starts = _block_starts(self._neighbor_maps, self.num_voxels)
        return self._neighbor_maps

    def _with_feats(self, feats: np.ndarray) -> "SparseFeatureGrid":
        """The same voxels with other features, sharing this kernel map."""
        grid = SparseFeatureGrid(self.coords, feats, self.point_to_voxel)
        grid._neighbor_maps = self.neighbor_maps
        grid._block_starts = self._block_starts
        return grid


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
    if np.any(sorted_keys[1:] == sorted_keys[:-1]):
        raise ValueError("voxel coordinates must be distinct")
    rows = np.arange(len(coords))
    maps = [None] * NUM_OFFSETS
    maps[CENTRE] = (rows, rows)
    for o in range(CENTRE):
        target = pack_keys(coords + OFFSETS[o], lo, dims)
        pos = np.searchsorted(sorted_keys, target)
        pos = np.minimum(pos, len(sorted_keys) - 1)
        hit = sorted_keys[pos] == target
        rows_out = np.flatnonzero(hit)
        rows_in = order[pos[hit]]
        maps[o] = (rows_out, rows_in)
        # OFFSETS[26 - o] == -OFFSETS[o]: the same pairs, sides swapped. On
        # coordinate-ordered rows, as voxelize makes them, rows_in already
        # increases and the sort costs one pass.
        by_in = np.argsort(rows_in, kind="stable")
        maps[NUM_OFFSETS - 1 - o] = (rows_in[by_in], rows_out[by_in])
    return maps


def _block_starts(maps, num_voxels: int) -> list:
    """Per offset, where each block of BLOCK_ROWS output rows starts in its
    pairs, plus the pair count: block b holds pairs starts[o][b]:starts[o][b+1]."""
    edges = np.arange(0, num_voxels + BLOCK_ROWS, BLOCK_ROWS).clip(max=num_voxels)
    return [np.searchsorted(rows_out, edges).tolist() for rows_out, _ in maps]


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


def sparse_conv_forward(grid: SparseFeatureGrid, layer: ConvLayer) -> np.ndarray:
    """out[v] = bias + sum over offsets o of feat[v + o] @ W[o], active
    neighbors only: the pre-activation, which forward_grid rectifies in place.

    Runs over blocks of BLOCK_ROWS output rows; each row adds its terms in
    offset order, bit-identical to one unblocked pass per offset (see the
    module docstring for the single-pair rule).
    """
    feats = grid.feats
    if feats.shape[1] != layer.in_width:
        raise ValueError(
            f"layer expects width {layer.in_width}, grid has {feats.shape[1]}"
        )
    maps = grid.neighbor_maps
    starts = grid._block_starts
    # 1 @ W[o] is exactly the row W[o, 0]
    unit = feats.shape[1] == 1 and bool(np.all(feats == 1))
    out = np.tile(layer.bias.astype(feats.dtype), (grid.num_voxels, 1))
    for b in range(len(starts[0]) - 1):
        for o, (rows_out, rows_in) in enumerate(maps):
            lo, hi = starts[o][b], starts[o][b + 1]
            if lo == hi:
                continue
            if unit:
                out[rows_out[lo:hi]] += layer.weight[o, 0]
            elif hi - lo == 1 and len(rows_out) > 1:
                # the GEMM path the whole offset takes, not gemv
                out[rows_out[lo:hi]] += (feats[rows_in[[lo, lo]]] @ layer.weight[o])[:1]
            else:
                out[rows_out[lo:hi]] += feats[rows_in[lo:hi]] @ layer.weight[o]
    return out


class SparseEncoder:
    """Conv stack over a sparse voxel grid; points read out their voxel row.

    ReLU follows every layer except the last. forward() caches everything
    backward() needs; calling backward() after forward_grid() without
    cache=True, or with no forward at all, raises.
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
        voxel_size: float = 0.05,
        seed: int = 0,
        dtype=np.float64,
    ) -> "SparseEncoder":
        """Fresh parameters, uniform in +-sqrt(1 / (27 * c_in)); the first
        layer reads voxelize's width-1 feature."""
        rng = np.random.default_rng(seed)
        layers = []
        c_in = 1
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

    def forward_grid(self, grid: SparseFeatureGrid, cache: bool = False) -> np.ndarray:
        """Run the stack on a prepared grid; returns (V, D) voxel features.

        cache=True keeps every layer's input for backward(). Without it only
        one layer's output lives at a time, and a later backward() raises.
        """
        inputs = []
        feats = grid.feats
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            if cache:
                inputs.append(feats)
            feats = sparse_conv_forward(grid._with_feats(feats), layer)
            if i < last:
                np.maximum(feats, 0.0, out=feats)
        self._cache = {"grid": grid, "inputs": inputs} if cache else None
        return feats

    def voxelize(self, pc: PointCloud) -> SparseFeatureGrid:
        """The grid this encoder reads: its voxel size, its parameter dtype."""
        return voxelize(pc, self.voxel_size, dtype=self.layers[0].weight.dtype)

    def forward(self, pc: PointCloud) -> np.ndarray:
        """Voxelize, convolve, and give each point its voxel's feature."""
        grid = self.voxelize(pc)
        return self.forward_grid(grid, cache=True)[grid.point_to_voxel]

    def backward(self, upstream: np.ndarray) -> dict:
        """Exact parameter gradients for upstream per-point feature gradients.

        Accumulates through the point->voxel lookup, the ReLUs and every
        sparse convolution; returns a dict keyed like parameters().
        """
        if self._cache is None:
            raise RuntimeError("backward called without a cached forward pass")
        grid = self._cache["grid"]
        inputs = self._cache["inputs"]
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
                # the next layer's input is this ReLU's output, positive
                # exactly where its pre-activation is
                grad = grad * (inputs[i + 1] > 0.0)
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
