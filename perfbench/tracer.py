"""In-place tracing of the scenehull modules, installed from the benchmark.

Every public function, method and property of the traced modules is
replaced by a wrapper that records a span (name, start, end, parent span,
request id, error flag). Names that other modules imported by value, such as
``objective.simulate_scene``, are patched where they are used too, so spans
nest inside the real command. ``uninstall`` restores the originals.

A few wrappers also count work from argument and result shapes (points,
voxels, neighbour pairs, hull rows, bytes of text). Counts derived from
them (GFLOP, MB moved) are computed, not read from hardware counters.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("geometry", "scene", "encoder", "hull", "anchors", "objective",
          "checkpoint", "metrics", "cli")
ROOT = "bench.request"  # the harness's span around each timed program call
SETUP = "setup"  # request id of the traced set-up
# derived from shapes, not measured
COMPUTED = ("encoder.conv_gflop", "encoder.gather_scatter_mb", "hull.gflop")
MB = 1e6


class Tracer:
    def __init__(self, modules, conv_widths):
        """modules: layer name -> imported scenehull module.
        conv_widths: encoder widths, which name the conv layers by input width."""
        self.modules = modules
        self.conv_index = {w: i for i, w in enumerate([1, *conv_widths[:-1]])}
        self.spans = []  # [name, start, end, parent, request, error]
        self.stack = []
        self.request = None
        self.counts = {"setup": defaultdict(float), "request": defaultdict(float)}
        self.last_voxels = 0
        self._patches = []

    # -- installation -------------------------------------------------------

    def _targets(self):
        """(owner, attribute, original, replacement) for every public callable
        defined in a traced module."""
        for layer, mod in self.modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield mod, name, obj, self._wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    for attr, val in list(vars(obj).items()):
                        if attr.startswith("_"):
                            continue
                        span = f"{layer}.{name}.{attr}"
                        if inspect.isfunction(val):
                            new = self._wrap(span, val)
                        elif isinstance(val, (classmethod, staticmethod)):
                            new = type(val)(self._wrap(span, val.__func__))
                        elif isinstance(val, property) and val.fget is not None:
                            new = property(self._wrap(span, val.fget), val.fset, val.fdel, val.__doc__)
                        else:
                            continue
                        yield obj, attr, val, new

    def install(self):
        if self._patches:
            return
        users = [m for name, m in sys.modules.items()
                 if name.startswith("scenehull.") and m is not None]
        for owner, attr, old, new in list(self._targets()):
            setattr(owner, attr, new)
            self._patches.append((owner, attr, old))
            if inspect.isfunction(old):
                # the same function imported by value into another module
                for mod in users:
                    if mod is not owner and vars(mod).get(attr) is old:
                        setattr(mod, attr, new)
                        self._patches.append((mod, attr, old))

    def uninstall(self):
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- spans ----------------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        hook = getattr(self, "_count_" + name.replace(".", "_"), None)
        namer = self._conv_span if name == "encoder.sparse_conv_forward" else None

        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [namer(args) if namer else name, 0.0, 0.0, parent, tracer.request, False]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _conv_span(self, args):
        """One span name per conv layer, told apart by the layer's input width."""
        return f"encoder.sparse_conv_forward[conv{self.conv_index.get(args[1].weight.shape[1], '?')}]"

    @contextlib.contextmanager
    def root(self, request):
        """One request's root span; the spans opened inside carry its id."""
        span = [ROOT, time.perf_counter(), 0.0, -1, request, False]
        self.request = request
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        except BaseException:
            span[5] = True
            raise
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
            self.request = None

    # -- work counters (argument and result shapes only) ----------------------
    # Hooks read plain attributes, never traced properties, so they add no spans.

    @property
    def _count(self):
        return self.counts["setup" if self.request == SETUP else "request"]

    def _count_geometry_poisson_disk_sample(self, args, kwargs, result):
        self._count["geometry.sampled_points"] += len(result)

    def _count_geometry_load_points(self, args, kwargs, result):
        self._count["geometry.text_bytes_read"] += os.path.getsize(args[0])

    def _count_geometry_save_points(self, args, kwargs, result):
        self._count["geometry.text_bytes_written"] += os.path.getsize(args[0])

    def _count_scene_resolve_overlap(self, args, kwargs, result):
        self._count["scene.overlap_in"] += len(args[0]) + len(args[1])
        self._count["scene.overlap_kept"] += len(result[0]) + len(result[1])

    def _count_encoder_voxelize(self, args, kwargs, result):
        self._count["encoder.grids"] += 1
        self._count["encoder.voxels"] += len(result.coords)
        self._count["encoder.points"] += len(result.point_to_voxel)
        self.last_voxels = len(result.coords)

    def _count_encoder_sparse_conv_forward(self, args, kwargs, result):
        grid, layer = args[0], args[1]
        per_offset = np.array([len(rows_out) for rows_out, _ in grid._neighbor_maps])
        _, c_in, c_out = layer.weight.shape
        key = f"encoder.pairs[conv{self.conv_index.get(c_in, '?')}]"
        self._count[key] = self._count[key] + per_offset
        pairs = int(per_offset.sum())
        itemsize = grid.feats.dtype.itemsize
        self._count["encoder.conv_flop"] += 2.0 * pairs * c_in * c_out
        # gather the input rows, then read and write the output rows
        self._count["encoder.gather_scatter_bytes"] += pairs * (c_in + 2 * c_out) * itemsize
        self._count["encoder.neighbor_pairs"] += pairs
        self._count["encoder.conv_voxels"] += len(grid.coords)

    def _count_hull_PrototypeBank_project(self, args, kwargs, result):
        bank = args[0]
        n = 1 if np.ndim(args[1]) == 1 else len(args[1])
        (k, d), a = bank.prototypes.shape, bank.w_key.shape[1]
        # keys, queries, logits and the convex combination, 2 flop per MAC
        self._count["hull.flop"] += 2.0 * (n * d * a + k * d * a + n * a * k + n * k * d)
        self._count["hull.rows"] += n
        self._count["hull.distinct_rows"] += min(self.last_voxels, n) if self.last_voxels else n

    def _count_checkpoint_load_checkpoint(self, args, kwargs, result):
        self._count["checkpoint.bytes"] += os.path.getsize(args[0])

    def _count_objective_train(self, args, kwargs, result):
        config = args[4] if len(args) > 4 else kwargs["config"]
        self._count["objective.train_steps"] += config.epochs * config.steps_per_epoch


def self_times(spans):
    """Per-span self time: duration minus the time its direct children cover."""
    child = np.zeros(len(spans))
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, *_) in enumerate(spans)]


def summarize(tracer, requests, conv_widths, setup_in_layers):
    """Per-layer metrics as name -> (value, unit), the per-function tables of
    each phase, the per-layer rollups and the neighbour pairs per offset.

    requests: ids of the traced requests to count. Function times are mean
    self time per call, 0 when never called. Work counts are per call of the
    function that produced them. A function's metrics come from the traced
    requests; with ``setup_in_layers`` a function that ran only in the traced
    set-up is reported from there instead. Layer rollups (``<layer>.self_s``,
    ``.calls``, ``.errors``) cover request spans only and are per traced
    request.
    """
    spans = tracer.spans
    tables = {phase: defaultdict(lambda: {"calls": 0, "errors": 0, "self_s": 0.0})
              for phase in ("setup", "request")}
    layer = defaultdict(lambda: {"calls": 0, "errors": 0, "self_s": 0.0})
    for (name, _, _, _, req, err), own in zip(spans, self_times(spans)):
        if req in requests:
            rows = [tables["request"][name], layer[name.split(".")[0]]]
        elif req == SETUP:
            rows = [tables["setup"][name]]
        else:
            continue
        for row in rows:
            row["calls"] += name != ROOT
            row["errors"] += int(err)
            row["self_s"] += own

    def phase(name):
        return "setup" if setup_in_layers and name not in tables["request"] else "request"

    def row(name):
        return tables[phase(name)].get(name, {"calls": 0, "errors": 0, "self_s": 0.0})

    def ratio(num, den):
        return num / den if den else 0.0

    def calls(name):
        return row(name)["calls"]

    def per_call(name, scale=1.0):
        return ratio(row(name)["self_s"] * scale, calls(name))

    def count(key, name):
        """A work counter, from the phase that the producing function ran in."""
        return tracer.counts[phase(name)][key]

    def per(key, name, scale=1.0):
        """A work counter per call of the function that produced it."""
        return ratio(count(key, name) * scale, calls(name))

    ms = 1e3
    grid, fwd, proj = "encoder.voxelize", "encoder.SparseEncoder.forward_grid", "hull.PrototypeBank.project"
    m = {
        "geometry.poisson_disk_sample_s": (per_call("geometry.poisson_disk_sample"), "s"),
        "geometry.sampled_points": (per("geometry.sampled_points", "geometry.poisson_disk_sample"), "count"),
        "geometry.load_points_s": (per_call("geometry.load_points"), "s"),
        "geometry.text_mb_read": (per("geometry.text_bytes_read", "geometry.load_points", 1 / MB), "MB"),
        "geometry.save_points_s": (per_call("geometry.save_points"), "s"),
        "geometry.text_mb_written": (per("geometry.text_bytes_written", "geometry.save_points", 1 / MB), "MB"),
        "geometry.load_mesh_s": (per_call("geometry.load_mesh"), "s"),
        "scene.simulate_scene_ms": (per_call("scene.simulate_scene", ms), "ms"),
        "scene.anchor_crop_ms": (per_call("scene.anchor_crop", ms), "ms"),
        "scene.resolve_overlap_ms": (per_call("scene.resolve_overlap", ms), "ms"),
        "scene.overlap_keep_ratio": (ratio(count("scene.overlap_kept", "scene.resolve_overlap"),
                                           count("scene.overlap_in", "scene.resolve_overlap")), "ratio"),
        "encoder.voxelize_ms": (per_call(grid, ms), "ms"),
        # the property builds the maps on its first use per grid: time per grid
        "encoder.neighbor_maps_ms": (ratio(row("encoder.SparseFeatureGrid.neighbor_maps")["self_s"] * ms,
                                           calls(grid)), "ms"),
        **{f"encoder.conv{i}_fwd_ms": (per_call(f"encoder.sparse_conv_forward[conv{i}]", ms), "ms")
           for i in range(len(conv_widths))},
        "encoder.forward_grid_ms": (per_call(fwd, ms), "ms"),
        "encoder.backward_ms": (per_call("encoder.SparseEncoder.backward", ms), "ms"),
        "encoder.voxels": (per("encoder.voxels", grid), "count"),
        "encoder.points_per_voxel": (ratio(count("encoder.points", grid), count("encoder.voxels", grid)), "ratio"),
        "encoder.neighbors_per_voxel": (ratio(count("encoder.neighbor_pairs", fwd),
                                              count("encoder.conv_voxels", fwd)), "ratio"),
        "encoder.conv_gflop": (per("encoder.conv_flop", fwd, 1e-9), "GFLOP"),
        "encoder.gather_scatter_mb": (per("encoder.gather_scatter_bytes", fwd, 1 / MB), "MB"),
        "hull.project_ms": (per_call(proj, ms), "ms"),
        "hull.rows": (per("hull.rows", proj), "count"),
        "hull.gflop": (per("hull.flop", proj, 1e-9), "GFLOP"),
        "hull.distinct_row_ratio": (ratio(count("hull.distinct_rows", proj), count("hull.rows", proj)), "ratio"),
        "hull.backward_ms": (per_call("hull.PrototypeBank.backward", ms), "ms"),
        "anchors.load_embeddings_ms": (per_call("anchors.load_embeddings", ms), "ms"),
        "anchors.read_embedding_file_ms": (per_call("anchors.read_embedding_file", ms), "ms"),
        "objective.compose_step_scene_ms": (per_call("objective.compose_step_scene", ms), "ms"),
        "objective.contrastive_loss_ms": (per_call("objective.contrastive_loss", ms), "ms"),
        "objective.adam_step_ms": (per_call("objective.Adam.step", ms), "ms"),
        "objective.train_self_ms_per_step": (ratio(row("objective.train")["self_s"] * ms,
                                                   count("objective.train_steps", "objective.train")), "ms"),
        "objective.infer_scene_s": (per_call("objective.infer_scene"), "s"),
        "objective.class_probs_ms": (per_call("objective.class_probs", ms), "ms"),
        "checkpoint.load_ms": (per_call("checkpoint.load_checkpoint", ms), "ms"),
        "checkpoint.mb": (per("checkpoint.bytes", "checkpoint.load_checkpoint", 1 / MB), "MB"),
        "metrics.evaluate_salient_ms": (per_call("metrics.evaluate_salient", ms), "ms"),
        "metrics.mean_iou_ms": (per_call("metrics.mean_iou", ms), "ms"),
        "cli.infer_self_s": (per_call("cli.cmd_infer"), "s"),
        "cli.eval_self_s": (per_call("cli.cmd_eval"), "s"),
        "cli.simulate_self_s": (per_call("cli.cmd_simulate"), "s"),
    }
    n_req = max(len(requests), 1)
    for name in LAYERS:
        agg = layer.get(name, {"calls": 0, "errors": 0, "self_s": 0.0})
        m[f"{name}.self_s"] = (agg["self_s"] / n_req, "s")
        m[f"{name}.calls"] = (agg["calls"] / n_req, "count")
        m[f"{name}.errors"] = (agg["errors"], "count")
    pairs = {f"conv{i}": per(f"encoder.pairs[conv{i}]", f"encoder.sparse_conv_forward[conv{i}]")
             for i in range(len(conv_widths))}
    return {"metrics": m, "tables": tables, "layers": dict(layer), "pairs": pairs}
