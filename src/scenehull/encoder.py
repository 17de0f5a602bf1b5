"""Sparse voxel features through a minimal 3x3x3 convolution stack.

Only occupied voxels are stored; every layer convolves over the same voxel
set (stride 1, no resampling), so the kernel map is built once per grid and
read by every layer, forward and backward.

The kernel map holds, per kernel offset, the (rows_out, rows_in) neighbour
pairs as int32 rows, sorted by rows_out; a grid of 2**31 voxels would not fit
in memory anyway. Offset 26 - o is offset o with its two sides
swapped and the centre offset is the identity, so 13 key searches build all
27 maps. Its block plan splits the output rows into blocks of BLOCK_ROWS.

The forward pass is one block pipeline through the stack: a layer computes
its next block as soon as the layer below has produced the input rows that
block reads, then drops the rows that no later block reads. Inference feeds
the last layer's blocks straight into the readout, so each layer holds a
window of its input, about two x-slices of the scan plus a block, and no
whole layer exists. Inside a block each offset gathers its input rows,
multiplies by its weight and adds into the block's output rows, in offset
order 0..26. Every output row adds the same terms in the same order as an
unblocked per-offset pass, and the result is bit-identical to it, given two
facts about numpy's matrix product that tests/test_encoder.py checks: a row
of a GEMM does not depend on how many rows are multiplied with it, but a
single-row product takes the gemv path, which sums in another order. So a
block that holds one pair of an offset with more pairs multiplies that row
twice and keeps one; an offset with one pair in the whole grid keeps gemv.
When a layer's input is the constant 1 that voxelize gives, each term is
exactly a weight row, which is added with no gather and no GEMM.

Gradients for all kernel weights and biases are accumulated by hand in
reverse mode, which lets them be checked against central finite differences
in double precision. The backward pass is unblocked: the weight gradient is
one GEMM per offset over all its pairs, and splitting that sum would change
it. It reads every layer's input, which a pass with no readout keeps by
draining each layer into a whole array. The ReLU runs in place; backward()
reads its output, which is positive exactly where its pre-activation is.
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
        self._plan = None

    @property
    def num_voxels(self) -> int:
        return len(self.coords)

    @property
    def neighbor_maps(self):
        """Per kernel offset, int32 (rows_out, rows_in) with coords[rows_in] ==
        coords[rows_out] + offset, sorted by rows_out. Rows are unique on
        both sides for a fixed offset, so scatter-adds below never collide."""
        if self._neighbor_maps is None:
            self._neighbor_maps = _build_neighbor_maps(self.coords)
            self._plan = _block_plan(self._neighbor_maps, self.num_voxels)
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


def _voxel_cells(points: np.ndarray, voxel_size: float) -> np.ndarray:
    """The int64 cells floor(points / voxel_size). Raises ValueError naming
    the voxel size when a cell reaches 2**61 in magnitude: the cast would
    merge distinct cells, and the key box around them could wrap."""
    with np.errstate(over="ignore"):  # an infinite cell fails the test below
        cells = np.floor(points / voxel_size)
    if not -2.0 ** 61 < cells.min() <= cells.max() < 2.0 ** 61:
        raise ValueError(f"voxel size {voxel_size} puts voxel cells beyond 2**61")
    return cells.astype(np.int64)


def _build_neighbor_maps(coords: np.ndarray):
    lo = coords.min(axis=0) - 1
    dims = coords.max(axis=0) - lo + 2  # covers coords +/- 1 without key collisions
    keys = pack_keys(coords, lo, dims)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    if np.any(sorted_keys[1:] == sorted_keys[:-1]):
        raise ValueError("voxel coordinates must be distinct")
    rows = np.arange(len(coords), dtype=np.int32)
    maps = [None] * NUM_OFFSETS
    maps[CENTRE] = (rows, rows)
    for o in range(CENTRE):
        target = pack_keys(coords + OFFSETS[o], lo, dims)
        pos = np.searchsorted(sorted_keys, target)
        pos = np.minimum(pos, len(sorted_keys) - 1)
        hit = sorted_keys[pos] == target
        rows_out = np.flatnonzero(hit).astype(np.int32)
        rows_in = order[pos[hit]].astype(np.int32)
        maps[o] = (rows_out, rows_in)
        # OFFSETS[26 - o] == -OFFSETS[o]: the same pairs, sides swapped. On
        # coordinate-ordered rows, as voxelize makes them, rows_in already
        # increases and the sort costs one pass.
        by_in = np.argsort(rows_in, kind="stable")
        maps[NUM_OFFSETS - 1 - o] = (rows_in[by_in], rows_out[by_in])
    return maps


def _block_plan(maps, num_voxels: int):
    """Block b: output rows edges[b]:edges[b+1] (BLOCK_ROWS, a one-row tail
    joins the block before), pairs starts[o][b]:starts[o][b+1] of offset o.
    Blocks 0..b read input rows below need[b], blocks b.. none below
    keep[b]; a later block may read lower rows than an earlier one."""
    edges = [*range(0, max(num_voxels - 1, 1), BLOCK_ROWS), num_voxels]
    starts, need, keep = [], 0, num_voxels
    for rows_out, rows_in in maps:
        s = np.searchsorted(rows_out, edges)
        starts.append(s.tolist())
        # 1 + max of rows_in[:k], and min of rows_in[k:], at every k
        high = np.concatenate([[0], np.maximum.accumulate(rows_in) + 1])
        low = np.concatenate([np.minimum.accumulate(rows_in[::-1])[::-1], [num_voxels]])
        need = np.maximum(need, high[s[1:]])
        keep = np.minimum(keep, low[s[:-1]])
    return edges, starts, need.tolist(), keep.tolist()


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
    cells = _voxel_cells(pc.positions, voxel_size)
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


def sparse_conv_forward(grid: SparseFeatureGrid, layer: ConvLayer, below=None):
    """An iterator over the blocks of out[v] = bias + sum over offsets o of
    feat[v + o] @ W[o], active neighbors only: the pre-activation, which
    forward_grid rectifies in place. below yields the input rows in
    consecutive blocks; by default they are grid.feats. The kernel map is
    built before this returns."""
    maps, feats = grid.neighbor_maps, grid.feats
    if below is None and feats.shape[1] != layer.in_width:
        raise ValueError(f"layer expects width {layer.in_width}, grid has {feats.shape[1]}")
    # 1 @ W[o] is exactly the row W[o, 0]
    unit = below is None and feats.shape[1] == 1 and bool(np.all(feats == 1))
    below = iter([feats] if below is None else below)
    return _conv_blocks(maps, grid._plan, below, layer, unit, feats.dtype)


def _conv_blocks(maps, plan, below, layer, unit, dtype):
    edges, starts, need, keep = plan
    window, base, top = None, 0, 0  # the input rows base:top
    for b in range(len(edges) - 1):
        if not unit and top < need[b]:
            pieces = [window[keep[b] - base:]] if top > keep[b] else []
            while top < need[b]:
                pieces.append(next(below))
                top += len(pieces[-1])
            window = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
            base = top - len(window)
            del pieces  # the old window goes with it
        out = np.tile(layer.bias.astype(dtype), (edges[b + 1] - edges[b], 1))
        for o, (rows_out, rows_in) in enumerate(maps):
            lo, hi = starts[o][b], starts[o][b + 1]
            if lo == hi:
                continue
            rows = rows_out[lo:hi] - edges[b]
            if unit:
                out[rows] += layer.weight[o, 0]
            elif hi - lo == 1 and len(rows_out) > 1:
                # the GEMM path the whole offset takes, not gemv
                out[rows] += (window[rows_in[[lo, lo]] - base] @ layer.weight[o])[:1]
            else:
                out[rows] += window[rows_in[lo:hi] - base] @ layer.weight[o]
        yield out


class SparseEncoder:
    """Conv stack over a sparse voxel grid; points read out their voxel row.

    ReLU follows every layer except the last. A pass with no readout keeps
    what backward() needs; a readout pass keeps nothing and drops what an
    earlier pass kept, so backward() after it, or with no pass, raises.
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

    def forward_grid(self, grid: SparseFeatureGrid, readout=None) -> np.ndarray:
        """Run the stack on a prepared grid. With no readout: the (V, D) voxel
        features, each layer drained whole and kept for backward(). With one:
        the stacked readout(block) of each block, one pipeline that keeps nothing.
        """
        inputs, blocks = [grid.feats], None  # the first layer reads grid.feats
        for i, layer in enumerate(self.layers):
            if readout is None and i:
                inputs.append(np.concatenate(list(blocks)))
                blocks = inputs[-1:]
            blocks = sparse_conv_forward(grid, layer, blocks)
            if i < len(self.layers) - 1:
                blocks = (np.maximum(block, 0.0, out=block) for block in blocks)
        out = np.concatenate([block if readout is None else readout(block) for block in blocks])
        self._cache = {"grid": grid, "inputs": inputs} if readout is None else None
        return out

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
        sparse convolution of the last pass; returns a dict keyed like
        parameters(). RuntimeError unless that pass had no readout.
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
