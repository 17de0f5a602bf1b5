"""Acceptance criteria for the full pipeline, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one [PASS]/[FAIL]
line per criterion. Budget is a single CPU core and roughly ten minutes;
everything is seeded, so reruns reproduce the same numbers exactly.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from test_metrics import ap_naive_tie_groups, iou_confusion_oracle

from scenehull import geometry, toydata
from scenehull.anchors import AnchorTable, read_embedding_file
from scenehull.checkpoint import load_checkpoint
from scenehull.cli import main as cli_main
from scenehull.encoder import SparseEncoder
from scenehull.gradcheck import (
    check_dcr,
    check_dense_oracle,
    check_encoder,
    check_end_to_end,
    check_loss,
)
from scenehull.hull import PrototypeBank, coefficient_entropy
from scenehull.metrics import average_precision, evaluate_salient, mean_iou
from scenehull.objective import (
    ModelSet,
    TrainConfig,
    compose_step_scene,
    infer_scene,
    train,
)
from scenehull.scene import AugmentConfig

TOY_POINTS = 512
XY_BOUNDS = ((0.0, 0.0), (3.0, 3.0))


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


def run_cli(args):
    return cli_main([str(a) for a in args])


# ---------------------------------------------------------------------------
# Shared toy artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def toy_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("toy")
    toydata.build_toy_dataset(path, points_per_model=TOY_POINTS, seed=7, num_scenes=4)
    return path


@pytest.fixture(scope="module")
def toy_models():
    clouds = {}
    for i, name in enumerate(toydata.TOY_CLASSES):
        mesh = toydata.toy_mesh(name)
        rng = np.random.default_rng(np.random.SeedSequence([7, 104729, i]))
        clouds[i] = [geometry.poisson_disk_sample(mesh, TOY_POINTS, rng)]
    return ModelSet(clouds, negative_classes=frozenset(toydata.TOY_NEGATIVE))


@pytest.fixture(scope="module")
def e2e(toy_dir, tmp_path_factory):
    """Criterion 6 pipeline: simulate -> train -> infer -> eval via the CLI."""
    work = tmp_path_factory.mktemp("e2e")
    tic = time.perf_counter()

    scenes = work / "scenes"
    assert run_cli(["simulate", "--manifest", toy_dir / "manifest.json",
                    "--seed", 101, "-o", scenes]) == 0

    run = work / "train"
    assert run_cli(["train", "--config", toy_dir / "train_config.json",
                    "-o", run]) == 0

    probs_files = []
    for i in range(4):
        out = work / f"probs_{i}.txt"
        assert run_cli(["infer", "--checkpoint", run / "checkpoint.bin",
                        "--scene", scenes / f"scene_{i:03d}.txt", "-o", out]) == 0
        probs_files.append(out)

    report = work / "report.txt"
    assert run_cli(["eval", "--probs", probs_files[0],
                    "--gt", scenes / "scene_000.txt",
                    "--foreground", "0,1,2", "-o", report]) == 0

    probs, gts = [], []
    for i, pf in enumerate(probs_files):
        probs.append(np.loadtxt(pf, ndmin=2))
        gts.append(geometry.load_points(scenes / f"scene_{i:03d}.txt").labels)
    pooled = evaluate_salient(np.concatenate(probs), np.concatenate(gts),
                              toydata.TOY_FOREGROUND)

    losses = [float(line.split()[1])
              for line in (run / "loss.log").read_text().splitlines()]
    return {
        "elapsed": time.perf_counter() - tic,
        "losses": losses,
        "amap": pooled.amap,
        "checkpoint": run / "checkpoint.bin",
        "config": json.loads((toy_dir / "train_config.json").read_text()),
    }


# ---------------------------------------------------------------------------
# 1. Convex-hull invariant
# ---------------------------------------------------------------------------

def test_criterion_1_convex_hull_invariant():
    tic = time.perf_counter()
    draws_per_k = {64: 334, 128: 333, 256: 333}
    dims = {64: 32, 128: 96, 256: 96}
    worst_sum = 0.0
    worst_recon = 0.0
    for k, n in draws_per_k.items():
        d = dims[k]
        bank = PrototypeBank.create(num_prototypes=k, feature_dim=d,
                                    attention_dim=16, seed=k)
        rng = np.random.default_rng(k + 1)
        x = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=(n, 1))
        coeffs = bank.coefficients(x)
        assert coeffs.min() >= 0.0
        worst_sum = max(worst_sum, float(np.abs(coeffs.sum(axis=1) - 1.0).max()))
        recon = coeffs @ bank.prototypes
        worst_recon = max(worst_recon, float(np.abs(bank.project(x) - recon).max()))
    elapsed = time.perf_counter() - tic
    ok = worst_sum <= 1e-6 and worst_recon <= 1e-12 and elapsed < 10.0
    _report(1, ok, f"1000 draws over K in {{64,128,256}}: |sum(a)-1| <= {worst_sum:.2e}, "
                   f"reconstruction error <= {worst_recon:.2e}, {elapsed:.1f}s")
    assert coeffs.min() >= 0.0
    assert worst_sum <= 1e-6
    assert worst_recon <= 1e-12
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. Gradient suite, 100 seeds, < 2 min
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_2_gradient_suite():
    tic = time.perf_counter()
    failures = []
    total = 0
    for seed in range(100):
        for check in (check_dcr, check_encoder, check_loss, check_end_to_end):
            for res in check(seed):
                total += 1
                if not res.passed:
                    failures.append(str(res))
    elapsed = time.perf_counter() - tic
    ok = not failures and elapsed < 120.0
    _report(2, ok, f"{total} finite-difference comparisons over 100 seeds, "
                   f"{len(failures)} failures, {elapsed:.1f}s")
    assert not failures, failures[:5]
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 3. Sparse-conv dense oracle, 100 grids
# ---------------------------------------------------------------------------

def test_criterion_3_sparse_conv_oracle():
    worst = max(check_dense_oracle(seed).max_abs_err for seed in range(100))
    ok = worst < 1e-9
    _report(3, ok, f"100 random grids <= 8^3: max |sparse - dense| = {worst:.2e}")
    assert worst < 1e-9


# ---------------------------------------------------------------------------
# 4. Poisson-disk spacing on the icosphere
# ---------------------------------------------------------------------------

def test_criterion_4_poisson_disk_property():
    mesh = toydata.icosphere(3, radius=1.0)
    n = 512
    pc = geometry.poisson_disk_sample(mesh, n, np.random.default_rng(4))
    r_max = geometry.poisson_radius(geometry.surface_area(mesh), n)
    diff = pc.positions[:, None, :] - pc.positions[None, :, :]
    dist = np.sqrt((diff ** 2).sum(-1))
    np.fill_diagonal(dist, np.inf)
    dmin = float(dist.min())
    ok = len(pc) == n and dmin >= 0.5 * r_max
    _report(4, ok, f"n={len(pc)} (want {n}), min pairwise distance "
                   f"{dmin:.4f} >= 0.5*r_max = {0.5 * r_max:.4f}")
    assert len(pc) == n
    assert dmin >= 0.5 * r_max


# ---------------------------------------------------------------------------
# 5. Metric oracles
# ---------------------------------------------------------------------------

def test_criterion_5_metric_oracle():
    ap = average_precision([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
    exact = abs(ap - (1.0 + 2.0 / 3.0) / 2.0) <= 1e-9

    rng = np.random.default_rng(55)
    invariant = True
    for _ in range(100):
        n = int(rng.integers(5, 50))
        scores = rng.normal(size=n)
        labels = rng.integers(0, 2, n)
        if labels.sum() == 0:
            labels[0] = 1
        base = average_precision(scores, labels)
        for f in (lambda s: 2.0 * s + 5.0, np.tanh, lambda s: np.exp(0.3 * s)):
            if abs(average_precision(f(scores), labels) - base) > 1e-12:
                invariant = False

    tie_ok = True
    for _ in range(50):
        n = int(rng.integers(3, 10))
        scores = rng.integers(0, 3, n).astype(float)
        labels = rng.integers(0, 2, n)
        if labels.sum() == 0:
            labels[0] = 1
        if abs(average_precision(scores, labels)
               - ap_naive_tie_groups(list(scores), list(labels))) > 1e-12:
            tie_ok = False

    iou_ok = True
    for _ in range(50):
        n = int(rng.integers(5, 60))
        k = int(rng.integers(2, 6))
        pred = rng.integers(0, k, n)
        gt = rng.integers(0, k, n)
        per, _ = mean_iou(pred, gt, range(k))
        want = iou_confusion_oracle(pred, gt, range(k))
        if set(per) != set(want) or any(abs(per[c] - want[c]) > 1e-12 for c in per):
            iou_ok = False

    ok = exact and invariant and tie_ok and iou_ok
    _report(5, ok, f"worked AP example {ap:.6f} (exact={exact}), monotone "
                   f"invariance={invariant}, tie oracle={tie_ok}, mIoU oracle={iou_ok}")
    assert exact and invariant and tie_ok and iou_ok


# ---------------------------------------------------------------------------
# 6. Toy end-to-end through the CLI
# ---------------------------------------------------------------------------

def test_criterion_6_toy_end_to_end(e2e):
    losses = e2e["losses"]
    ratio = losses[-1] / losses[0]
    ok = (e2e["config"]["epochs"] <= 30 and ratio < 0.2 and e2e["amap"] >= 0.85
          and e2e["elapsed"] < 600.0)
    _report(6, ok, f"{len(losses)} epochs in {e2e['elapsed']:.0f}s: loss "
                   f"{losses[0]:.3f} -> {losses[-1]:.3f} (ratio {ratio:.3f} < 0.2), "
                   f"held-out AmAP {e2e['amap']:.3f} >= 0.85")
    assert e2e["config"]["epochs"] <= 30
    assert ratio < 0.2
    assert e2e["amap"] >= 0.85
    assert e2e["elapsed"] < 600.0


# ---------------------------------------------------------------------------
# 7. Hull regularization helps under test-time shift (directional)
# ---------------------------------------------------------------------------

def _shifted_amap(models, table, encoder, bank, seed, n_scenes=8):
    probs, gts = [], []
    for k in range(n_scenes):
        rng = np.random.default_rng(np.random.SeedSequence([7777, seed, k]))
        scene = compose_step_scene(models, AugmentConfig(crop_prob=1.0), rng,
                                   xy_bounds=XY_BOUNDS)
        jittered = scene.with_positions(
            scene.positions + rng.normal(0.0, 0.01, scene.positions.shape))
        probs.append(infer_scene(jittered, encoder, bank, table))
        gts.append(scene.labels)
    rep = evaluate_salient(np.concatenate(probs), np.concatenate(gts),
                           toydata.TOY_FOREGROUND)
    return rep.amap


def _train_arm(models, seed, use_dcr, cfg_json):
    emb = toydata.toy_embeddings()
    table = AnchorTable(
        toydata.TOY_CLASSES,
        np.stack([emb[n] for n in toydata.TOY_CLASSES]),
        np.random.default_rng(seed + 2).uniform(-0.18, 0.18, size=(toydata.TOY_EMBEDDING_DIM, 96)),
    )
    encoder = SparseEncoder.create(seed=seed)
    bank = None
    if use_dcr:
        bank = PrototypeBank.create(num_prototypes=cfg_json["prototypes"],
                                    feature_dim=96,
                                    attention_dim=cfg_json["attention_dim"],
                                    inv_temperature=cfg_json["inv_temperature"],
                                    seed=seed + 1)
    cfg = TrainConfig(epochs=cfg_json["epochs"], steps_per_epoch=cfg_json["steps_per_epoch"],
                      lr=cfg_json["lr"], seed=seed, use_dcr=use_dcr)
    # the shift: no anchor-crop during training, crop + jitter only at test
    train(models, table, encoder, bank, cfg,
          augment=AugmentConfig(crop_prob=0.0), xy_bounds=XY_BOUNDS)
    return table, encoder, bank


@pytest.mark.slow
def test_criterion_7_dcr_ablation_direction(toy_dir, toy_models):
    cfg_json = json.loads((toy_dir / "train_config.json").read_text())
    with_dcr, without_dcr = [], []
    for seed in range(5):
        table, encoder, bank = _train_arm(toy_models, seed, True, cfg_json)
        with_dcr.append(_shifted_amap(toy_models, table, encoder, bank, seed))
        table, encoder, bank = _train_arm(toy_models, seed, False, cfg_json)
        without_dcr.append(_shifted_amap(toy_models, table, encoder, bank, seed))
    med_with = float(np.median(with_dcr))
    med_without = float(np.median(without_dcr))
    ok = med_with >= med_without
    _report(7, ok, f"median AmAP under shift: with hull {med_with:.4f} "
                   f"(runs {np.round(with_dcr, 3)}), without {med_without:.4f} "
                   f"(runs {np.round(without_dcr, 3)})")
    assert med_with >= med_without


# ---------------------------------------------------------------------------
# 8. Coefficient entropy non-increasing in the inverse temperature
# ---------------------------------------------------------------------------

def test_criterion_8_entropy_monotonicity():
    base = PrototypeBank.create(num_prototypes=128, feature_dim=96,
                                attention_dim=16, seed=88)
    rng = np.random.default_rng(89)
    xs = rng.normal(size=(100, 96))
    sweep = [0.1, 0.5, 4.0]
    entropies = np.stack([
        coefficient_entropy(
            PrototypeBank(base.prototypes, base.w_key, base.w_query, lam).coefficients(xs))
        for lam in sweep
    ])
    diffs = np.diff(entropies, axis=0)
    worst = float(diffs.max())
    ok = bool((diffs <= 1e-12).all())
    _report(8, ok, f"entropy over lambda {sweep} non-increasing for 100 inputs "
                   f"(max increase {worst:.2e})")
    assert ok


# ---------------------------------------------------------------------------
# 9. Byte-identical replay of every subcommand
# ---------------------------------------------------------------------------

def test_criterion_9_determinism(toy_dir, tmp_path):
    quick_cfg = json.loads((toy_dir / "train_config.json").read_text())
    quick_cfg.update({"epochs": 2, "steps_per_epoch": 2, "points_per_model": 128})
    for key in ("manifest", "classes", "embeddings"):
        quick_cfg[key] = str(toy_dir / quick_cfg[key])
    cfg_path = tmp_path / "quick.json"
    cfg_path.write_text(json.dumps(quick_cfg))

    artifacts = {}
    for run in ("a", "b"):
        base = tmp_path / run
        scenes = base / "scenes"
        assert run_cli(["simulate", "--manifest", toy_dir / "manifest.json",
                        "--seed", 17, "-o", scenes]) == 0
        model = base / "model"
        assert run_cli(["train", "--config", cfg_path, "--seed", 5, "-o", model]) == 0
        probs = base / "probs.txt"
        assert run_cli(["infer", "--checkpoint", model / "checkpoint.bin",
                        "--scene", scenes / "scene_000.txt", "-o", probs]) == 0
        report = base / "report.txt"
        assert run_cli(["eval", "--probs", probs, "--gt", scenes / "scene_000.txt",
                        "--foreground", "0,1,2", "--miou", "-o", report]) == 0
        artifacts[run] = {
            "scene": (scenes / "scene_000.txt").read_bytes(),
            "scene_meta": (scenes / "scene_000.json").read_bytes(),
            "checkpoint": (model / "checkpoint.bin").read_bytes(),
            # wall-time column excluded: epoch index and loss must replay
            "loss": [line.split()[:2] for line
                     in (model / "loss.log").read_text().splitlines()],
            "probs": probs.read_bytes(),
            "report": report.read_bytes(),
            "kv": (base / "report.kv").read_bytes(),
        }
    mismatched = [k for k in artifacts["a"] if artifacts["a"][k] != artifacts["b"][k]]
    ok = not mismatched
    _report(9, ok, "simulate/train/infer/eval replay byte-identically"
            if ok else f"mismatched artifacts: {mismatched}")
    assert not mismatched


# ---------------------------------------------------------------------------
# 10. Zero-shot class extension
# ---------------------------------------------------------------------------

def test_criterion_10_zero_shot(toy_dir, e2e):
    ck = load_checkpoint(e2e["checkpoint"])
    table = ck.table
    vectors = read_embedding_file(toy_dir / "embeddings.txt", {"ovoid"})
    new_id = table.add_class("ovoid", vectors["ovoid"])

    ovoid_mesh = geometry.load_mesh(toy_dir / "ovoid.off")
    rng = np.random.default_rng(1010)
    ovoid_cloud = geometry.poisson_disk_sample(ovoid_mesh, TOY_POINTS, rng)
    sphere_cloud = geometry.poisson_disk_sample(
        geometry.load_mesh(toy_dir / "sphere.off"), TOY_POINTS, rng)
    box_cloud = geometry.poisson_disk_sample(
        geometry.load_mesh(toy_dir / "box.off"), TOY_POINTS, rng)
    from scenehull.scene import simulate_scene
    scene = simulate_scene(None, [(ovoid_cloud, new_id), (sphere_cloud, 0),
                                  (box_cloud, 1)], AugmentConfig(), rng,
                           xy_bounds=XY_BOUNDS)

    probs = infer_scene(scene, ck.encoder, ck.bank, table)
    rows_ok = probs.shape == (len(scene), table.num_classes) and \
        np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-9
    pred = probs.argmax(axis=1)
    unseen_mask = scene.labels == new_id
    recall = float((pred[unseen_mask] == new_id).mean())
    ok = rows_ok and recall > 0.0
    _report(10, ok, f"extended table to {table.num_classes} classes; rows "
                    f"normalized={rows_ok}; unseen-class argmax recall {recall:.3f} > 0")
    assert rows_ok
    assert recall > 0.0
