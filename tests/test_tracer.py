"""The contract between the program and perfbench/tracer.py.

The tracer wraps encoder.sparse_conv_forward and, as soon as each call
returns, counts its work from grid._neighbor_maps, grid.coords,
grid.feats.dtype and the layer's weight. Its scene rows time
scene.simulate_scene, objective.compose_step_scene and scene.resolve_overlap
by name, its training rows time SparseEncoder.backward,
PrototypeBank.backward and Adam.step inside objective.train, and its
checkpoint rows time checkpoint.load_checkpoint and size the file its first
argument names. A change that moves any of these zeroes the traced rows
without failing a traced run; these tests fail instead.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import test_objective

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_modules(tracing):
    return {layer: importlib.import_module(f"scenehull.{layer}") for layer in tracing.LAYERS}


def test_traced_conv_counts_match_the_kernel_map():
    tracing = load_tracer()
    modules = traced_modules(tracing)
    widths = (32, 64, 96)
    model = test_objective.TestBlockedInferScene.model(widths=widths)
    encoder = model.encoder
    block_rows = modules["encoder"].BLOCK_ROWS
    num_voxels = 3 * block_rows + 5
    cloud = test_objective.distinct_voxel_cloud(num_voxels, encoder.voxel_size, seed=6)
    tracer = tracing.Tracer(modules, widths)
    tracer.install()
    try:
        with tracer.root(0):
            model.infer_voxels(cloud)
    finally:
        tracer.uninstall()
    metrics = tracing.summarize(tracer, {0}, widths, False)["metrics"]

    grid = encoder.voxelize(cloud)
    pairs = sum(len(rows_out) for rows_out, _ in grid.neighbor_maps)
    assert pairs > grid.num_voxels  # voxels with neighbours, not only the centre
    flop = sum(2.0 * pairs * layer.in_width * layer.out_width for layer in encoder.layers)
    assert metrics["encoder.conv_gflop"][0] == pytest.approx(flop * 1e-9, rel=1e-12)
    assert metrics["encoder.neighbors_per_voxel"][0] == pytest.approx(pairs / grid.num_voxels,
                                                                      rel=1e-12)
    assert metrics["encoder.voxels"][0] == grid.num_voxels
    # three blocks of BLOCK_ROWS and a 5-row tail, one hull call each; the
    # tail is read padded to BLOCK_ROWS rows, which the hull computes too
    assert metrics["hull.rows"][0] == block_rows


def test_traced_scene_rows_are_read():
    tracing = load_tracer()
    modules = traced_modules(tracing)
    widths = (32, 64, 96)
    models = test_objective.toy_models()
    tracer = tracing.Tracer(modules, widths)
    tracer.install()
    try:
        with tracer.root(0):
            # a 1 m square: the three models overlap
            modules["objective"].compose_step_scene(
                models, modules["scene"].AugmentConfig(), np.random.default_rng(0),
                xy_bounds=((0.0, 0.0), (1.0, 1.0)))
    finally:
        tracer.uninstall()
    metrics = tracing.summarize(tracer, {0}, widths, False)["metrics"]

    # a function the tracer no longer finds reads 0
    for key in ("scene.simulate_scene_ms", "objective.compose_step_scene_ms",
                "scene.resolve_overlap_ms"):
        assert 0.0 < metrics[key][0] < math.inf, key
    assert 0.0 < metrics["scene.overlap_keep_ratio"][0] <= 1.0


def test_traced_training_rows_are_read():
    tracing = load_tracer()
    modules = traced_modules(tracing)
    models, table, encoder, bank = test_objective.TestTrain().small_setup()
    widths = tuple(layer.out_width for layer in encoder.layers)
    objective = modules["objective"]
    tracer = tracing.Tracer(modules, widths)
    tracer.install()
    try:
        with tracer.root(0):
            objective.train(models, table, encoder, bank,
                            objective.TrainConfig(epochs=1, steps_per_epoch=2),
                            xy_bounds=((0, 0), (2, 2)))
    finally:
        tracer.uninstall()
    metrics = tracing.summarize(tracer, {0}, widths, False)["metrics"]

    for key in ("encoder.backward_ms", "hull.backward_ms", "objective.adam_step_ms",
                "objective.train_self_ms_per_step"):
        assert 0.0 < metrics[key][0] < math.inf, key


def test_traced_checkpoint_rows_are_read(tmp_path):
    tracing = load_tracer()
    modules = traced_modules(tracing)
    path = tmp_path / "ck.bin"
    modules["checkpoint"].save_checkpoint(path, test_objective.TestBlockedInferScene.model())
    tracer = tracing.Tracer(modules, (32, 64, 96))
    tracer.install()
    try:
        with tracer.root(0):
            modules["checkpoint"].load_checkpoint(path)
    finally:
        tracer.uninstall()
    metrics = tracing.summarize(tracer, {0}, (32, 64, 96), False)["metrics"]

    assert 0.0 < metrics["checkpoint.load_ms"][0] < math.inf
    assert metrics["checkpoint.mb"][0] == pytest.approx(path.stat().st_size / 1e6, rel=1e-12)
