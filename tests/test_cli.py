"""CLI subcommands: wiring, exit codes, replay determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from scenehull import geometry
from scenehull.cli import _NON_NEGATIVE_INT, _POSITIVE, _THREAD_VARS, build_parser, main
from scenehull.toydata import build_toy_dataset

# pytest's pythonpath setting does not reach a subprocess
SRC = str(Path(__file__).resolve().parents[1] / "src")
RUN_ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def run_cli(args):
    """In-process invocation; returns exit code."""
    return main([str(a) for a in args])


def assert_flag_rejected(args, flag, capsys):
    """argparse exits 2 naming the flag before the command runs."""
    with pytest.raises(SystemExit) as exc:
        run_cli(args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"error: argument {flag}:" in captured.err
    assert captured.out == ""


@pytest.fixture(scope="module")
def toy_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("toy")
    build_toy_dataset(path, points_per_model=128, seed=7, num_scenes=2)
    return path


def write_manifest(toy_dir, path, **changes):
    """The toy manifest with changes, written to path; its model paths are
    made absolute so that it may live anywhere."""
    data = json.loads((toy_dir / "manifest.json").read_text())
    data.update(changes)
    for entry in data["models"]:
        entry["path"] = str(toy_dir / entry["path"])
    path.write_text(json.dumps(data))
    return path


def write_train_config(toy_dir, path, manifest, **changes):
    """A one-step toy train config on manifest, with changes, written to path."""
    cfg = json.loads((toy_dir / "train_config.json").read_text())
    cfg.update({"manifest": str(manifest), "classes": str(toy_dir / "classes.txt"),
                "embeddings": str(toy_dir / "embeddings.txt"), "epochs": 1,
                "steps_per_epoch": 1, "points_per_model": 128, **changes})
    path.write_text(json.dumps(cfg))
    return path


def scan_with_floor(path, floor=0.3, n=2000, seed=11):
    """A background scan: a noisy floor plane at z = floor over the toy
    xy_bounds, plus a few points below it; returns its z column."""
    rng = np.random.default_rng(seed)
    z = np.concatenate([floor + rng.normal(0.0, 0.005, n), floor - rng.uniform(0.1, 0.5, 10)])
    xy = rng.uniform(0.0, 3.0, size=(len(z), 2))
    np.savetxt(path, np.column_stack([xy, z]), fmt="%.17g")
    return z


class TestSample:
    def test_writes_requested_count(self, toy_dir, tmp_path):
        out = tmp_path / "pts.txt"
        code = run_cli(["sample", toy_dir / "sphere.off", "-n", 100, "--seed", 3, "-o", out])
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 100

    def test_missing_mesh_io_exit(self, tmp_path, capsys):
        code = run_cli(["sample", tmp_path / "absent.off", "-n", 10,
                        "-o", tmp_path / "o.txt"])
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_same_seed_identical_files(self, toy_dir, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run_cli(["sample", toy_dir / "box.off", "-n", 64, "--seed", 5, "-o", a]) == 0
        assert run_cli(["sample", toy_dir / "box.off", "-n", 64, "--seed", 5, "-o", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("counts", ["-1 1 0", "3 -2 0"])
    def test_negative_counts_config_error(self, tmp_path, capsys, counts):
        mesh = tmp_path / "neg.off"
        mesh.write_text(f"OFF\n{counts}\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        out = tmp_path / "pts.txt"
        assert run_cli(["sample", mesh, "-n", 10, "-o", out]) == 2
        assert f"config error: {mesh} line 2: negative counts '{counts}'" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["1 0 nan", "inf 0 0", "0 1e400 0"])
    def test_non_finite_vertex_config_error(self, tmp_path, capsys, bad):
        # it used to exit 2 with "vertices must be finite", naming no file
        mesh = tmp_path / "bad.off"
        mesh.write_text(f"OFF\n3 1 0\n0 0 0\n{bad}\n0 1 0\n3 0 1 2\n")
        out = tmp_path / "pts.txt"
        assert run_cli(["sample", mesh, "-n", 10, "-o", out]) == 2
        assert capsys.readouterr().err.splitlines()[1:] == [
            f"config error: {mesh} line 4: vertex not finite: {bad!r}"]
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("-n", 0), ("-n", "x"), ("--seed", -1)])
    def test_out_of_range_flag_exit_2(self, toy_dir, tmp_path, capsys, flag, value):
        out = tmp_path / "pts.txt"
        assert_flag_rejected(["sample", toy_dir / "box.off", flag, value, "-o", out], flag, capsys)
        assert not out.exists()

    def test_count_beyond_the_ceiling_exit_2_before_sampling(self, toy_dir, tmp_path, capsys,
                                                             monkeypatch):
        # it used to allocate 29.1 TiB of candidates, fail, and print a traceback
        calls = []
        monkeypatch.setattr(geometry, "poisson_disk_sample", lambda *a: calls.append(a))
        out = tmp_path / "pts.txt"
        with pytest.raises(SystemExit) as exc:
            run_cli(["sample", toy_dir / "box.off", "-n", 10**12, "-o", out])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument -n: must be a positive integer at most " \
            f"{geometry.MAX_SAMPLE_POINTS}, got '1000000000000'" in err
        assert calls == [] and not out.exists()

    def test_out_of_memory_exit_3_in_one_line(self, toy_dir, tmp_path, capsys, monkeypatch):
        def sample(*args):
            raise MemoryError("Unable to allocate 29.1 TiB for an array")

        monkeypatch.setattr(geometry, "poisson_disk_sample", sample)
        assert run_cli(["sample", toy_dir / "box.off", "-n", 64, "-o", tmp_path / "o.txt"]) == 3
        err = capsys.readouterr().err
        assert err.endswith("out of memory: Unable to allocate 29.1 TiB for an array\n")
        assert "Traceback" not in err


class TestNotUtf8:
    """A byte that is not UTF-8 in a text input exits 2 naming the file; it
    used to name only the byte's position."""

    @pytest.mark.parametrize("name", ["sphere.off", "manifest.json", "cfg.json", "classes.txt",
                                      "embeddings.txt"])
    def test_exit_2_naming_the_file(self, toy_dir, tmp_path, capsys, name):
        for copied in ("sphere.off", "classes.txt", "embeddings.txt"):
            (tmp_path / copied).write_bytes((toy_dir / copied).read_bytes())
        manifest = write_manifest(toy_dir, tmp_path / "manifest.json")
        cfg = write_train_config(toy_dir, tmp_path / "cfg.json", manifest,
                                 classes=str(tmp_path / "classes.txt"),
                                 embeddings=str(tmp_path / "embeddings.txt"))
        bad, out = tmp_path / name, tmp_path / "out"
        text = bad.read_bytes()
        bad.write_bytes(text[:40] + b"\xff" + text[40:])
        args = {"sphere.off": ["sample", bad, "-n", 10, "-o", out],
                "manifest.json": ["simulate", "--manifest", bad, "-o", out]}.get(
                    name, ["train", "--config", cfg, "-o", out])
        assert run_cli(args) == 2
        err = capsys.readouterr().err.splitlines()  # the config line, when it comes first
        assert len(err) <= 2 and err[-1].startswith(f"config error: {bad}: not UTF-8 text (")
        assert not out.exists()


class TestSimulate:
    def test_one_crop_anchor_rejected_before_sampling(self, toy_dir, tmp_path, capsys):
        # one anchor drops the whole model: simulate once exited 2 with
        # "cannot place an empty model", naming no key
        manifest = write_manifest(toy_dir, tmp_path / "m.json",
                                  augment={"crop_anchor_min": 1, "crop_anchor_max": 1})
        out = tmp_path / "run"
        assert run_cli(["simulate", "--manifest", manifest, "-o", out]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: manifest.augment: need 2 <= crop_anchor_min <= crop_anchor_max"]
        assert not out.exists()

    def test_writes_scenes_and_sidecars(self, toy_dir, tmp_path):
        out = tmp_path / "run"
        code = run_cli(["simulate", "--manifest", toy_dir / "manifest.json",
                        "--seed", 1, "-o", out])
        assert code == 0
        assert (out / "scene_000.txt").exists()
        assert (out / "scene_001.txt").exists()
        assert (out / "resolved_config.json").exists()
        meta = json.loads((out / "scene_000.json").read_text())
        assert {inst["class_id"] for inst in meta["instances"]} >= {0, 1, 2}

    def test_unknown_manifest_key_rejected(self, toy_dir, tmp_path):
        bad = tmp_path / "bad_manifest.json"
        data = json.loads((toy_dir / "manifest.json").read_text())
        data["typo_key"] = 1
        bad.write_text(json.dumps(data))
        code = run_cli(["simulate", "--manifest", bad, "-o", tmp_path / "run"])
        assert code == 2

    @pytest.mark.parametrize("field, value", [
        ("seed", "1"), ("num_scenes", "2"), ("points_per_model", "64"),
        ("points_per_model", 64.0), ("floor_percentile", "1"), ("floor_z", "0"),
        ("xy_bounds", [[0.0, 0.0], [3.0, "3"]]), ("xy_bounds", [[0.0, 0.0]]),
        ("augment.scale_min", "0.9"), ("augment.scale_max", None),
        ("augment.rotation_max", True), ("augment.crop_anchor_min", 2.5),
        ("augment.crop_anchor_max", "5"), ("augment.crop_prob", [1.0]),
        ("augment.overlap_voxel", "0.05"), ("augment.overlap_keep_prob", {}),
        ("augment.scale_max", float("inf")), ("augment.rotation_max", float("nan")),
        ("models", {"path": "sphere.off"}), ("backgrounds", "scan.txt"), ("augment", [1]),
        ("models[0].path", 3), ("models[0].class_id", "0"), ("models[0].name", 1),
        ("models[0].negative", "no"), ("models[0].height", "1.5")])
    def test_wrong_json_type_config_error(self, toy_dir, tmp_path, capsys, field, value):
        data = json.loads((toy_dir / "manifest.json").read_text())
        section, _, key = field.rpartition(".")
        target = data["models"][0] if section == "models[0]" else data[section] if section else data
        target[key] = value
        bad = tmp_path / "bad_manifest.json"
        bad.write_text(json.dumps(data))
        code = run_cli(["simulate", "--manifest", bad, "-o", tmp_path / "run"])
        assert code == 2
        where = f"manifest.{section}" if section else "manifest"
        assert f"config error: {where}: {key} must be" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("field, value, message", [
        ("num_scenes", -1, "manifest: num_scenes must be a non-negative integer"),
        ("points_per_model", 0, "manifest: points_per_model must be a positive integer"),
        ("points_per_model", geometry.MAX_SAMPLE_POINTS + 1,
         "manifest: points_per_model must be a positive integer at most "
         f"{geometry.MAX_SAMPLE_POINTS}, got {geometry.MAX_SAMPLE_POINTS + 1}"),
        ("xy_bounds", [[0.0, 3.0], [3.0, 0.0]], "manifest: xy_bounds must be"),
        ("augment.scale_min", 1.2, "manifest.augment: need 0 < scale_min <= scale_max"),
        ("seed", -1, "manifest: seed must be a non-negative integer"),
        # -1 is the background label
        ("models[2].class_id", -1,
         "manifest.models[2]: class_id must be a non-negative integer"),
        ("models", [], "manifest: models must be a non-empty list of objects, got []"),
    ], ids=["num_scenes", "points_per_model", "points_per_model_ceiling", "xy_bounds",
            "augment.scale_min", "seed", "models.class_id", "models"])
    def test_negative_num_scenes_config_error(self, toy_dir, tmp_path, capsys, field, value,
                                              message):
        data = json.loads((toy_dir / "manifest.json").read_text())
        section, _, key = field.rpartition(".")
        target = data["models"][2] if section == "models[2]" else data[section] if section else data
        target[key] = value
        bad = tmp_path / "bad_manifest.json"
        bad.write_text(json.dumps(data))
        code = run_cli(["simulate", "--manifest", bad, "-o", tmp_path / "run"])
        assert code == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag, value", [("--seed", -1), ("--points", 0),
                                             ("--points", geometry.MAX_SAMPLE_POINTS + 1)])
    def test_out_of_range_flag_exit_2(self, toy_dir, tmp_path, capsys, flag, value):
        assert_flag_rejected(["simulate", "--manifest", toy_dir / "manifest.json",
                              flag, value, "-o", tmp_path / "run"], flag, capsys)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("existed", [False, True])
    def test_late_config_error_leaves_no_run_files(self, toy_dir, tmp_path, capsys, existed):
        # the overlap voxel is checked against the scene only while composing
        data = json.loads((toy_dir / "manifest.json").read_text())
        data["augment"]["overlap_voxel"] = 1e-300
        manifest = write_manifest(toy_dir, tmp_path / "manifest.json", augment=data["augment"])
        out = tmp_path / "runs" / "run"
        if existed:
            out.mkdir(parents=True)
            (out / "notes.txt").write_text("kept")
        assert run_cli(["simulate", "--manifest", manifest, "--points", 64, "-o", out]) == 2
        assert "config error: voxel size 1e-300 " in capsys.readouterr().err
        if existed:
            assert [p.name for p in out.iterdir()] == ["notes.txt"]
        else:
            assert not (tmp_path / "runs").exists()

    def test_floor_z_sets_every_model_floor(self, toy_dir, tmp_path):
        data = json.loads((toy_dir / "manifest.json").read_text())
        # keep every overlapping point, so no model loses its lowest one
        data["augment"]["overlap_keep_prob"] = 1.0
        data["floor_z"] = 5.0
        manifest = toy_dir / "floor_manifest.json"
        manifest.write_text(json.dumps(data))
        assert run_cli(["simulate", "--manifest", manifest, "--seed", 1, "-o", tmp_path]) == 0
        for scene in ("scene_000", "scene_001"):
            rows = np.loadtxt(tmp_path / f"{scene}.txt", ndmin=2)
            meta = json.loads((tmp_path / f"{scene}.json").read_text())
            # scene files carry no instance ids; in the toy manifest every
            # model of a scene has its own class
            classes = [inst["class_id"] for inst in meta["instances"]]
            assert len(set(classes)) == len(classes)
            for class_id in classes:
                z = rows[rows[:, 3] == class_id, 2]
                assert z.min() == pytest.approx(5.0, abs=1e-12)

    def test_replay_byte_identical(self, toy_dir, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run_cli(["simulate", "--manifest", toy_dir / "manifest.json",
                            "--seed", 9, "-o", out]) == 0
            outs.append(out)
        for fname in ("scene_000.txt", "scene_000.json", "scene_001.txt"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_background_scan_joins_the_scene(self, toy_dir, tmp_path):
        z = scan_with_floor(tmp_path / "scan.txt")
        # keep every overlapping point, so each model keeps its lowest one
        augment = {"overlap_keep_prob": 1.0}
        manifest = write_manifest(toy_dir, tmp_path / "bg.json", backgrounds=["scan.txt"],
                                  floor_z=None, floor_percentile=2.0, augment=augment)
        out = tmp_path / "run"
        assert run_cli(["simulate", "--manifest", manifest, "--seed", 1, "-o", out]) == 0
        floor = np.percentile(z, 2.0)
        for scene in ("scene_000", "scene_001"):
            rows = np.loadtxt(out / f"{scene}.txt", ndmin=2)
            meta = json.loads((out / f"{scene}.json").read_text())
            by_id = {inst["instance_id"]: inst for inst in meta["instances"]}
            assert by_id[-1]["class_id"] == -1 and by_id[-1]["class_name"] is None
            # the whole scan survives, every point labelled -1
            assert by_id[-1]["n_points"] == len(z) == int((rows[:, 3] == -1).sum())
            classes = sorted(inst["class_id"] for i, inst in by_id.items() if i >= 0)
            assert meta["class_set"] == classes and -1 not in meta["class_set"]
            for class_id in classes:
                model_z = rows[rows[:, 3] == class_id, 2]
                assert model_z.min() == pytest.approx(floor, abs=1e-12)

        config = write_train_config(toy_dir, tmp_path / "train.json", manifest)
        assert run_cli(["train", "--config", config, "-o", tmp_path / "trained"]) == 0
        assert len((tmp_path / "trained" / "loss.log").read_text().splitlines()) == 1

    def test_height_scales_model_to_that_extent(self, toy_dir, tmp_path):
        from scenehull.cli import _manifest_models, load_manifest

        data = json.loads((toy_dir / "manifest.json").read_text())
        data["models"][0]["height"] = 1.5
        data["models"][1]["height"] = 0.25
        manifest = tmp_path / "height.json"
        write_manifest(toy_dir, manifest, models=data["models"])
        library, names = _manifest_models(load_manifest(manifest), 64, 0)
        assert names == {0: "sphere", 1: "box", 2: "tube", 3: "cone"}
        for class_id, height in ((0, 1.5), (1, 0.25)):
            z = library.clouds[class_id][0].positions[:, 2]
            assert z.max() - z.min() == pytest.approx(height, rel=1e-12)
        plain, _ = _manifest_models(load_manifest(toy_dir / "manifest.json"), 64, 0)
        np.testing.assert_array_equal(library.clouds[2][0].positions,
                                      plain.clouds[2][0].positions)

    def test_flat_model_with_height_config_error(self, toy_dir, tmp_path, capsys):
        flat = tmp_path / "flat.off"
        flat.write_text("OFF\n4 2 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n3 0 1 2\n3 0 2 3\n")
        data = json.loads((toy_dir / "manifest.json").read_text())
        data["models"][1].update({"path": str(flat), "height": 1.0})
        manifest = write_manifest(toy_dir, tmp_path / "flat.json", models=data["models"])
        assert run_cli(["simulate", "--manifest", manifest, "-o", tmp_path / "run"]) == 2
        assert f"model {flat}: flat model cannot be height-normalized" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["simulate", "train"])
    @pytest.mark.parametrize("scan", ["", "# no points\n\n"], ids=["empty", "comments"])
    def test_background_without_points_config_error(self, toy_dir, tmp_path, capsys, command,
                                                    scan):
        (tmp_path / "scan.txt").write_text(scan)
        manifest = write_manifest(toy_dir, tmp_path / "bg.json", backgrounds=["scan.txt"])
        if command == "simulate":
            argv = ["simulate", "--manifest", manifest]
        else:
            argv = ["train", "--config", write_train_config(toy_dir, tmp_path / "t.json", manifest)]
        assert run_cli([*argv, "-o", tmp_path / "run"]) == 2
        assert f"config error: background {tmp_path / 'scan.txt'}: no points" in \
            capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["simulate", "train"])
    @pytest.mark.parametrize("percentile", [150, -0.5])
    def test_floor_percentile_out_of_range_config_error(self, toy_dir, tmp_path, capsys,
                                                        command, percentile):
        # the floor comes from the scan's percentile; the manifest check names the key
        scan_with_floor(tmp_path / "scan.txt")
        manifest = write_manifest(toy_dir, tmp_path / "bg.json", backgrounds=["scan.txt"],
                                  floor_z=None, floor_percentile=percentile)
        if command == "simulate":
            argv = ["simulate", "--manifest", manifest]
        else:
            argv = ["train", "--config", write_train_config(toy_dir, tmp_path / "t.json", manifest)]
        assert run_cli([*argv, "-o", tmp_path / "run"]) == 2
        assert ("config error: manifest: floor_percentile must be a number in [0, 100], "
                f"got {percentile}") in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("how", ["manifest", "--points", "train config"])
    def test_too_few_points_to_crop_config_error(self, toy_dir, tmp_path, capsys, how):
        # the toy augment has crop_anchor_max 5
        manifest = write_manifest(toy_dir, tmp_path / "m.json",
                                  points_per_model=4 if how == "manifest" else 128)
        if how == "train config":
            config = write_train_config(toy_dir, tmp_path / "t.json", manifest,
                                        points_per_model=4)
            argv = ["train", "--config", config]
        else:
            argv = ["simulate", "--manifest", manifest] + (["--points", 4] if how == "--points"
                                                           else [])
        assert run_cli([*argv, "-o", tmp_path / "run"]) == 2
        assert ("config error: points_per_model 4 is below manifest.augment.crop_anchor_max 5"
                in capsys.readouterr().err)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("text, message", [
        ("{not json", "invalid JSON in"), ("[1, 2]", "must hold a JSON object")])
    def test_unreadable_manifest_names_the_file(self, tmp_path, capsys, text, message):
        manifest = tmp_path / "m.json"
        manifest.write_text(text)
        assert run_cli(["simulate", "--manifest", manifest, "-o", tmp_path / "run"]) == 2
        err = capsys.readouterr().err
        assert "config error: manifest:" in err and message in err and str(manifest) in err
        assert not (tmp_path / "run").exists()


@pytest.fixture(scope="module")
def trained_run(toy_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trainrun")
    cfg = json.loads((toy_dir / "train_config.json").read_text())
    cfg.update({"epochs": 2, "steps_per_epoch": 2, "points_per_model": 128,
                "prototypes": 128})
    cfg_path = toy_dir / "quick_train.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run_cli(["train", "--config", cfg_path, "-o", out])
    assert code == 0
    return out


class TestTrain:
    def test_outputs_exist(self, trained_run):
        assert (trained_run / "checkpoint.bin").exists()
        assert (trained_run / "loss.log").exists()
        assert (trained_run / "resolved_config.json").exists()
        lines = (trained_run / "loss.log").read_text().strip().splitlines()
        assert len(lines) == 2

    def test_epochs_zero_equals_initialization(self, toy_dir, tmp_path):
        from scenehull.checkpoint import load_checkpoint

        cfg_path = toy_dir / "quick_train.json"
        out0 = tmp_path / "zero"
        assert run_cli(["train", "--config", cfg_path, "--epochs", 0, "-o", out0]) == 0
        ck, _ = load_checkpoint(out0 / "checkpoint.bin")

        from scenehull.encoder import SparseEncoder
        cfg = json.loads(cfg_path.read_text())
        fresh = SparseEncoder.create(widths=tuple(cfg["encoder_widths"]),
                                     voxel_size=cfg["voxel_size"], seed=cfg["seed"])
        for a, b in zip(fresh.layers, ck.encoder.layers):
            np.testing.assert_array_equal(a.weight, b.weight)
            np.testing.assert_array_equal(a.bias, b.bias)

    def test_missing_class_token_config_error(self, toy_dir, trained_run, tmp_path, capsys):
        classes = tmp_path / "classes.txt"
        classes.write_text((toy_dir / "classes.txt").read_text() + "bookshelf\n")
        cfg = json.loads((toy_dir / "quick_train.json").read_text())
        cfg.update({"manifest": str(toy_dir / "manifest.json"), "classes": str(classes),
                    "embeddings": str(toy_dir / "embeddings.txt")})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["train", "--config", path, "-o", tmp_path / "run"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "'bookshelf'" in err

    def test_repeated_class_name_names_the_file(self, toy_dir, tmp_path, capsys):
        classes = tmp_path / "classes.txt"
        classes.write_text((toy_dir / "classes.txt").read_text() + "box\n")
        path = write_train_config(toy_dir, tmp_path / "cfg.json", toy_dir / "manifest.json",
                                  classes=str(classes))
        assert run_cli(["train", "--config", path, "-o", tmp_path / "run"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[1:] == [f"config error: {classes}: class box is listed twice"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("field, value", [
        ("lr", float("inf")), ("beta1", 1.0), ("beta2", 1.0), ("eps", 0.0), ("lr", -1),
        ("precision", "float16"), ("encoder_widths", []), ("encoder_widths", [32, 0]),
        ("prototypes", 0), ("attention_dim", 0), ("voxel_size", 0), ("voxel_size", -0.05),
        ("points_per_model", 0), ("points_per_model", geometry.MAX_SAMPLE_POINTS + 1),
        ("seed", -1)])
    def test_bad_optimizer_setting_config_error(self, toy_dir, trained_run, tmp_path, capsys,
                                                field, value):
        # one step: the bad setting would write a non-finite checkpoint
        cfg = json.loads((toy_dir / "quick_train.json").read_text())
        cfg.update({field: value, "epochs": 1, "steps_per_epoch": 1})
        path = toy_dir / f"bad_{field}.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["train", "--config", path, "-o", tmp_path / "run"]) == 2
        assert f"config error: train config: {field}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("field, value", [
        ("lr", "abc"), ("epochs", "2"), ("steps_per_epoch", True),
        ("encoder_widths", [32, "64"]), ("use_dcr", "false"), ("manifest", 5),
        ("classes", ["a"])])
    def test_wrong_json_type_config_error(self, toy_dir, trained_run, tmp_path, capsys,
                                          field, value):
        cfg = json.loads((toy_dir / "quick_train.json").read_text())
        cfg[field] = value
        path = toy_dir / f"type_{field}.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["train", "--config", path, "-o", tmp_path / "run"]) == 2
        assert f"config error: train config: {field} must be" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_out_of_range_flag_exit_2(self, toy_dir, trained_run, tmp_path, capsys):
        assert_flag_rejected(["train", "--config", toy_dir / "quick_train.json",
                              "--seed", -1, "-o", tmp_path / "run"], "--seed", capsys)
        assert not (tmp_path / "run").exists()

    def test_negative_epochs_flag_exit_2(self, toy_dir, trained_run, tmp_path, capsys):
        assert_flag_rejected(["train", "--config", toy_dir / "quick_train.json",
                              "--epochs", -1, "-o", tmp_path / "run"], "--epochs", capsys)
        assert not (tmp_path / "run").exists()

    def test_non_finite_parameters_diverged(self, toy_dir, trained_run, tmp_path, capsys):
        # one step: the loss is finite, the update is not; 1e39 is a finite
        # float64 but overflows the float32 parameters
        cfg = json.loads((toy_dir / "quick_train.json").read_text())
        cfg.update({"lr": 1e39, "precision": "float32", "epochs": 1, "steps_per_epoch": 1})
        path = toy_dir / "huge_lr.json"
        path.write_text(json.dumps(cfg))
        with np.errstate(over="ignore", invalid="ignore"):
            assert run_cli(["train", "--config", path, "-o", tmp_path / "run"]) == 4
        assert "numerical divergence: parameter" in capsys.readouterr().err
        assert not (tmp_path / "run" / "checkpoint.bin").exists()
        assert (tmp_path / "run" / "loss.log").exists()

    def test_voxel_cells_beyond_int64_exit_2(self, toy_dir, trained_run, tmp_path, capsys):
        # at 1e-300 m the int64 cast used to merge every point of a scene
        # into one voxel, and train exited 0
        cfg = json.loads((toy_dir / "quick_train.json").read_text())
        cfg.update({"voxel_size": 1e-300, "epochs": 1, "steps_per_epoch": 1})
        path = toy_dir / "tiny_voxels.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["train", "--config", path, "-o", tmp_path / "run"]) == 2
        assert "config error: voxel size 1e-300 " in capsys.readouterr().err
        assert not (tmp_path / "run" / "checkpoint.bin").exists()

    def test_scene_without_labeled_points_exit_2(self, toy_dir, trained_run, tmp_path, capsys):
        # a background in every 5 cm cell that a model can reach, and overlap
        # thinning that keeps no overlapped point: no model point survives.
        # It used to end in a RuntimeError traceback, keeping loss.log
        cells = np.stack(np.meshgrid(np.arange(64), np.arange(64), np.arange(-4, 32),
                                     indexing="ij"), axis=-1).reshape(-1, 3)
        scan = tmp_path / "dense.txt"
        geometry.save_points(scan, geometry.PointCloud((cells + 0.5) * 0.05))
        augment = json.loads((toy_dir / "manifest.json").read_text())["augment"]
        manifest = write_manifest(toy_dir, tmp_path / "manifest.json", backgrounds=[str(scan)],
                                  floor_z=0.0, augment={**augment, "overlap_keep_prob": 0.0})
        cfg = write_train_config(toy_dir, tmp_path / "cfg.json", manifest,
                                 encoder_widths=[4], prototypes=8)  # narrow: 147k voxels
        out = tmp_path / "run"
        assert run_cli(["train", "--config", cfg, "-o", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[1:] == ["config error: no labeled points to score"]
        assert not out.exists()

    @pytest.mark.parametrize("existed", [False, True])
    def test_late_config_error_leaves_no_run_files(self, toy_dir, trained_run, tmp_path, capsys,
                                                   existed):
        # the voxel size is checked against the scene only while training
        cfg = json.loads((toy_dir / "quick_train.json").read_text())
        cfg.update({"voxel_size": 1e-300, "epochs": 1, "steps_per_epoch": 1})
        path = toy_dir / "tiny_voxels.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        if existed:
            out.mkdir()
            (out / "notes.txt").write_text("kept")
        assert run_cli(["train", "--config", path, "-o", out]) == 2
        assert "config error: voxel size 1e-300 " in capsys.readouterr().err
        if existed:
            assert [p.name for p in out.iterdir()] == ["notes.txt"]
        else:
            assert not out.exists()

    def test_manifest_floor_z_reaches_training_scenes(self, toy_dir, trained_run, tmp_path,
                                                     monkeypatch):
        from scenehull import objective

        data = json.loads((toy_dir / "manifest.json").read_text())
        data["floor_z"] = 5.0
        (toy_dir / "floor_train_manifest.json").write_text(json.dumps(data))
        cfg = json.loads((toy_dir / "quick_train.json").read_text())
        cfg.update({"manifest": "floor_train_manifest.json", "epochs": 1, "steps_per_epoch": 1})
        path = toy_dir / "floor_train.json"
        path.write_text(json.dumps(cfg))
        floors = []
        compose = objective.compose_step_scene

        def recording(*args, **kwargs):
            floors.append(kwargs["floor_z"])
            return compose(*args, **kwargs)

        monkeypatch.setattr(objective, "compose_step_scene", recording)
        assert run_cli(["train", "--config", path, "-o", tmp_path / "run"]) == 0
        assert floors == [5.0]

    def test_unknown_config_key_rejected(self, toy_dir, tmp_path):
        cfg = json.loads((toy_dir / "train_config.json").read_text())
        cfg["mystery"] = True
        bad = tmp_path / "bad_cfg.json"
        bad.write_text(json.dumps(cfg))
        assert run_cli(["train", "--config", bad, "-o", tmp_path / "run"]) == 2


class TestConfigLoaders:
    """The resolved dicts that resolved_config.json and the checkpoint's
    meta are written from; json.dumps also tells 1 from 1.0."""

    TOY_MANIFEST = {
        "augment": {"crop_anchor_max": 5, "crop_anchor_min": 2, "crop_prob": 1.0,
                    "overlap_keep_prob": 0.5, "overlap_voxel": 0.05, "scale_max": 1.1,
                    "scale_min": 0.9},
        "backgrounds": [], "floor_percentile": 1.0, "floor_z": None,
        "models": [
            {"class_id": 0, "name": "sphere", "negative": False, "path": "sphere.off"},
            {"class_id": 1, "name": "box", "negative": False, "path": "box.off"},
            {"class_id": 2, "name": "tube", "negative": False, "path": "tube.off"},
            {"class_id": 3, "name": "cone", "negative": True, "path": "cone.off"}],
        "num_scenes": 2, "points_per_model": 128, "seed": 7,
        "xy_bounds": [[0.0, 0.0], [3.0, 3.0]],
    }
    TOY_TRAIN = {
        "attention_dim": 16, "beta1": 0.9, "beta2": 0.999, "classes": "classes.txt",
        "embeddings": "embeddings.txt", "encoder_widths": [32, 64, 96], "epochs": 30,
        "eps": 1e-08, "inference_temperature": 1.0, "inv_temperature": 4.0, "lr": 0.003,
        "manifest": "manifest.json", "normalize_anchors": False, "precision": "float64",
        "prototypes": 128, "seed": 0, "steps_per_epoch": 20, "use_dcr": True,
        "voxel_size": 0.05,
    }
    DEFAULT_MANIFEST = {
        "augment": {}, "backgrounds": [], "floor_percentile": 1.0, "floor_z": None,
        "models": [{"class_id": 0, "path": "a.off"}], "num_scenes": 1,
        "points_per_model": 8196, "seed": 0, "xy_bounds": [[0.0, 0.0], [4.0, 4.0]],
    }
    DEFAULT_TRAIN = {
        "attention_dim": 16, "beta1": 0.9, "beta2": 0.999, "classes": "c.txt",
        "embeddings": "e.txt", "encoder_widths": [32, 64, 96], "epochs": 200, "eps": 1e-08,
        "inference_temperature": 1.0, "inv_temperature": 0.5, "lr": 0.001,
        "manifest": "m.json", "normalize_anchors": False, "precision": "float64",
        "prototypes": 128, "seed": 0, "steps_per_epoch": 4, "use_dcr": True,
        "voxel_size": 0.05,
    }

    @staticmethod
    def resolved(loaded, directory):
        assert loaded["_base"] == str(directory.resolve())
        return json.dumps({k: v for k, v in loaded.items() if not k.startswith("_")},
                          sort_keys=True)

    def test_toy_files(self, toy_dir):
        from scenehull.cli import load_manifest, load_train_config

        manifest = load_manifest(toy_dir / "manifest.json")
        assert self.resolved(manifest, toy_dir) == json.dumps(self.TOY_MANIFEST, sort_keys=True)
        cfg = load_train_config(toy_dir / "train_config.json")
        assert self.resolved(cfg, toy_dir) == json.dumps(self.TOY_TRAIN, sort_keys=True)

    def test_defaults(self, tmp_path):
        from scenehull.cli import load_manifest, load_train_config

        (tmp_path / "m.json").write_text(json.dumps({"models": [{"path": "a.off",
                                                                 "class_id": 0}]}))
        (tmp_path / "c.json").write_text(json.dumps(
            {"manifest": "m.json", "classes": "c.txt", "embeddings": "e.txt"}))
        manifest = load_manifest(tmp_path / "m.json")
        assert self.resolved(manifest, tmp_path) == json.dumps(self.DEFAULT_MANIFEST,
                                                               sort_keys=True)
        cfg = load_train_config(tmp_path / "c.json")
        assert self.resolved(cfg, tmp_path) == json.dumps(self.DEFAULT_TRAIN, sort_keys=True)


class TestInferEval:
    def test_infer_then_eval(self, toy_dir, trained_run, tmp_path):
        scenes = tmp_path / "scenes"
        assert run_cli(["simulate", "--manifest", toy_dir / "manifest.json",
                        "--seed", 2, "-o", scenes]) == 0
        probs = tmp_path / "probs.txt"
        assert run_cli(["infer", "--checkpoint", trained_run / "checkpoint.bin",
                        "--scene", scenes / "scene_000.txt", "-o", probs]) == 0
        rows = np.loadtxt(probs)
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9)
        assert (tmp_path / "probs.classes.txt").exists()

        report = tmp_path / "report.txt"
        code = run_cli(["eval", "--probs", probs, "--gt", scenes / "scene_000.txt",
                        "--foreground", "0,1,2", "--miou", "-o", report])
        assert code == 0
        kv = (tmp_path / "report.kv").read_text()
        assert "amap" in kv and "miou" in kv

    def test_eval_one_hot_amap_is_one(self, tmp_path):
        gt_path = tmp_path / "gt.txt"
        labels = np.array([0, 1, 2, 1, 0])
        with open(gt_path, "w") as fh:
            for i, lab in enumerate(labels):
                fh.write(f"{i * 0.1} 0 0 {lab}\n")
        probs_path = tmp_path / "p.txt"
        np.savetxt(probs_path, np.eye(3)[labels])
        report = tmp_path / "rep.txt"
        assert run_cli(["eval", "--probs", probs_path, "--gt", gt_path,
                        "-o", report]) == 0
        assert "amap 1" in (tmp_path / "rep.kv").read_text()

    @staticmethod
    def one_hot_eval(tmp_path, class_lines):
        """eval of a 3-column one-hot probability file whose .classes.txt
        holds class_lines, writing a report; returns the exit code."""
        gt_path = tmp_path / "gt.txt"
        gt_path.write_text("".join(f"{i * 0.1} 0 0 {lab}\n" for i, lab in enumerate([0, 1, 2])))
        probs_path = tmp_path / "p.txt"
        np.savetxt(probs_path, np.eye(3))
        (tmp_path / "p.classes.txt").write_text("".join(f"{n}\n" for n in class_lines))
        return run_cli(["eval", "--probs", probs_path, "--gt", gt_path,
                        "-o", tmp_path / "rep.txt"])

    @pytest.mark.parametrize("class_lines", [["a", "b"], ["a", "b", "c", "d"]],
                             ids=["one_short", "one_long"])
    def test_class_list_not_fitting_the_columns_exit_2(self, tmp_path, capsys, class_lines):
        assert self.one_hot_eval(tmp_path, class_lines) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines()[1:] == [
            f"config error: {tmp_path / 'p.classes.txt'}: {len(class_lines)} class names "
            "for 3 probability columns"]
        assert captured.out == ""
        assert not (tmp_path / "rep.txt").exists() and not (tmp_path / "rep.kv").exists()

    def test_class_list_naming_a_class_twice_exit_2(self, tmp_path, capsys):
        assert self.one_hot_eval(tmp_path, ["a", "b", "a"]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines()[1:] == [
            f"config error: {tmp_path / 'p.classes.txt'}: class a is listed twice"]
        assert not (tmp_path / "rep.txt").exists()

    def test_length_mismatch_config_error(self, tmp_path):
        gt_path = tmp_path / "gt.txt"
        gt_path.write_text("0 0 0 0\n1 1 1 1\n")
        probs_path = tmp_path / "p.txt"
        np.savetxt(probs_path, np.eye(2)[[0]])
        assert run_cli(["eval", "--probs", probs_path, "--gt", gt_path]) == 2

    def test_label_wider_than_int64_config_error(self, tmp_path, capsys):
        gt_path = tmp_path / "gt.txt"
        gt_path.write_text("0 0 0 1\n0 0 0 99999999999999999999\n")
        probs_path = tmp_path / "p.txt"
        np.savetxt(probs_path, np.eye(2))
        assert run_cli(["eval", "--probs", probs_path, "--gt", gt_path]) == 2
        assert f"config error: {gt_path} line 2: bad point" in capsys.readouterr().err

    @pytest.mark.parametrize("reader", ["infer --scene", "eval --gt", "background"])
    def test_non_finite_point_names_the_file_and_line(self, toy_dir, trained_run, tmp_path,
                                                      capsys, reader):
        points = tmp_path / "points.txt"
        points.write_text("0 0 0 1\n\n1 0 0 1\nnan 1 0 1\n")
        out = tmp_path / "out"
        if reader == "infer --scene":
            argv = ["infer", "--checkpoint", trained_run / "checkpoint.bin", "--scene", points]
        elif reader == "eval --gt":
            probs = tmp_path / "p.txt"
            np.savetxt(probs, np.eye(2)[[0, 1, 1]])
            argv = ["eval", "--probs", probs, "--gt", points]
        else:
            manifest = write_manifest(toy_dir, tmp_path / "bg.json", backgrounds=["points.txt"])
            argv = ["simulate", "--manifest", manifest]
        assert run_cli([*argv, "-o", out]) == 2
        assert f"config error: {points} line 4: coordinate not finite: 'nan 1 0 1'" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", "# a comment\n\n  \n"])
    def test_scene_without_points_names_the_file(self, trained_run, tmp_path, capsys, text):
        # it exited 2 as "cannot voxelize an empty cloud", which names no file
        scene = tmp_path / "scene.txt"
        scene.write_text(text)
        out = tmp_path / "probs.txt"
        assert run_cli(["infer", "--checkpoint", trained_run / "checkpoint.bin",
                        "--scene", scene, "-o", out]) == 2
        assert f"config error: scene {scene}: no points" in capsys.readouterr().err
        assert not out.exists()
        assert not out.with_suffix(".classes.txt").exists()

    @pytest.mark.parametrize("bad, line", [("nan 0.5", 2), ("0.5 inf", 2), ("-inf 0.5", 3)])
    def test_non_finite_probability_exit_2(self, tmp_path, capsys, bad, line):
        # a nan row once scored AmAP 0.9167 and mIoU 1.0 with exit 0
        gt_path = tmp_path / "gt.txt"
        gt_path.write_text("0 0 0 0\n1 0 0 1\n2 0 0 1\n")
        rows = ["0.9 0.1", "0.1 0.9", "0.2 0.8"]
        rows[line - 1] = bad
        probs_path = tmp_path / "p.txt"
        probs_path.write_text("\n".join(rows) + "\n")
        assert run_cli(["eval", "--probs", probs_path, "--gt", gt_path, "--miou"]) == 2
        err = capsys.readouterr().err
        assert f"config error: {probs_path} line {line}: probability not finite" in err

    def test_ragged_probabilities_name_the_file(self, tmp_path, capsys):
        gt_path = tmp_path / "gt.txt"
        gt_path.write_text("0 0 0 0\n1 0 0 1\n2 0 0 1\n")
        probs_path = tmp_path / "p.txt"
        probs_path.write_text("0.9 0.1\n0.1\n0.2 0.8\n")
        assert run_cli(["eval", "--probs", probs_path, "--gt", gt_path]) == 2
        err = capsys.readouterr().err
        assert f"config error: {probs_path} line 2: expected 2 fields, as on line 1" in err

    def test_trailing_comment_in_probabilities_names_the_line(self, tmp_path, capsys):
        # np.loadtxt once read this row as 0.5 0.5, where a point file exits 2
        gt_path = tmp_path / "gt.txt"
        gt_path.write_text("0 0 0 0\n1 0 0 1\n")
        probs_path = tmp_path / "p.txt"
        probs_path.write_text("0.9 0.1\n0.5 0.5 # note\n")
        report = tmp_path / "rep.txt"
        assert run_cli(["eval", "--probs", probs_path, "--gt", gt_path, "-o", report]) == 2
        assert f"config error: {probs_path} line 2: bad probability row '0.5 0.5 # note'" in \
            capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("foreground", ["x,1", "0,,1", "-1"])
    def test_bad_foreground_exit_2(self, tmp_path, capsys, foreground):
        # argparse rejects it before either (absent) input file is read
        assert_flag_rejected(["eval", "--probs", tmp_path / "absent.txt",
                              "--gt", tmp_path / "absent_gt.txt", "--foreground", foreground],
                             "--foreground", capsys)

    def test_zero_shot_extension(self, toy_dir, trained_run, tmp_path):
        scenes = tmp_path / "scenes"
        assert run_cli(["simulate", "--manifest", toy_dir / "manifest.json",
                        "--seed", 4, "-o", scenes]) == 0
        probs = tmp_path / "ext.txt"
        code = run_cli(["infer", "--checkpoint", trained_run / "checkpoint.bin",
                        "--scene", scenes / "scene_000.txt",
                        "--extend-classes", "ovoid",
                        "--embeddings", toy_dir / "embeddings.txt", "-o", probs])
        assert code == 0
        rows = np.loadtxt(probs)
        assert rows.shape[1] == 5  # 4 trained classes + 1 unseen
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9)
        names = (tmp_path / "ext.classes.txt").read_text().split()
        assert names[-1] == "ovoid"


    def test_non_finite_embedding_config_error(self, toy_dir, trained_run, tmp_path, capsys):
        # a nan vector once gave an all-nan probability file and exit 0
        embeddings = tmp_path / "emb.txt"
        embeddings.write_text("ovoid nan 0 0 0\n")
        scene = tmp_path / "scene.txt"
        scene.write_text("0 0 0\n0.1 0 0\n")
        out = tmp_path / "p.txt"
        assert run_cli(["infer", "--checkpoint", trained_run / "checkpoint.bin",
                        "--scene", scene, "--extend-classes", "ovoid",
                        "--embeddings", embeddings, "-o", out]) == 2
        assert f"config error: {embeddings} line 1: embedding not finite" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_missing_array_config_error(self, toy_dir, trained_run, tmp_path, capsys):
        with open(trained_run / "checkpoint.bin", "rb") as fh:
            magic = fh.readline()
            header = json.loads(fh.readline())
            payload = fh.read()
        last = header["arrays"].pop()  # anchors.w_proj, the last payload block
        size = int(np.prod(last["shape"])) * np.dtype(last["dtype"]).itemsize
        bad = tmp_path / "bad.bin"
        bad.write_bytes(magic + json.dumps(header).encode() + b"\n" + payload[:-size])
        scene = tmp_path / "scene.txt"
        scene.write_text("0 0 0\n0.1 0 0\n")
        code = run_cli(["infer", "--checkpoint", bad, "--scene", scene, "-o", tmp_path / "p.txt"])
        assert code == 2
        assert f"missing array {last['name']}" in capsys.readouterr().err


    def test_checkpoint_missing_header_key_config_error(self, trained_run, tmp_path, capsys):
        with open(trained_run / "checkpoint.bin", "rb") as fh:
            magic = fh.readline()
            header = json.loads(fh.readline())
            payload = fh.read()
        del header["encoder"]
        bad = tmp_path / "bad.bin"
        bad.write_bytes(magic + json.dumps(header).encode() + b"\n" + payload)
        scene = tmp_path / "scene.txt"
        scene.write_text("0 0 0\n0.1 0 0\n")
        code = run_cli(["infer", "--checkpoint", bad, "--scene", scene, "-o", tmp_path / "p.txt"])
        assert code == 2
        assert "checkpoint header: missing keys ['encoder']" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["", "encoder", "bank", "anchors", "arrays[0]"])
    def test_checkpoint_unknown_header_key_config_error(self, trained_run, tmp_path, capsys,
                                                        section):
        with open(trained_run / "checkpoint.bin", "rb") as fh:
            magic = fh.readline()
            header = json.loads(fh.readline())
            payload = fh.read()
        target = (header["arrays"][0] if section == "arrays[0]"
                  else header[section] if section else header)
        target["extra"] = 1
        bad = tmp_path / "bad.bin"
        bad.write_bytes(magic + json.dumps(header).encode() + b"\n" + payload)
        scene = tmp_path / "scene.txt"
        scene.write_text("0 0 0\n0.1 0 0\n")
        code = run_cli(["infer", "--checkpoint", bad, "--scene", scene, "-o", tmp_path / "p.txt"])
        assert code == 2
        where = f"checkpoint header {section}" if section else "checkpoint header"
        assert f"{where}: unknown keys ['extra']" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("num_layers", "3"), ("dtype", "zz")])
    def test_checkpoint_wrong_header_type_config_error(self, trained_run, tmp_path, capsys,
                                                       key, value):
        with open(trained_run / "checkpoint.bin", "rb") as fh:
            magic = fh.readline()
            header = json.loads(fh.readline())
            payload = fh.read()
        section = header["encoder"] if key == "num_layers" else header["arrays"][0]
        section[key] = value
        bad = tmp_path / "bad.bin"
        bad.write_bytes(magic + json.dumps(header).encode() + b"\n" + payload)
        scene = tmp_path / "scene.txt"
        scene.write_text("0 0 0\n0.1 0 0\n")
        code = run_cli(["infer", "--checkpoint", bad, "--scene", scene, "-o", tmp_path / "p.txt"])
        assert code == 2
        assert f"{key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("header", [b"\xff\xfe not utf-8", b"{not json"])
    def test_corrupt_checkpoint_header_io_error(self, trained_run, tmp_path, capsys, header):
        with open(trained_run / "checkpoint.bin", "rb") as fh:
            magic = fh.readline()
            fh.readline()
            payload = fh.read()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(magic + header + b"\n" + payload)
        scene = tmp_path / "scene.txt"
        scene.write_text("0 0 0\n0.1 0 0\n")
        code = run_cli(["infer", "--checkpoint", bad, "--scene", scene, "-o", tmp_path / "p.txt"])
        assert code == 3
        assert f"i/o error: {bad}: corrupt checkpoint header" in capsys.readouterr().err

    @pytest.mark.parametrize("temperature", ["nan", "inf", "0", "-1"])
    def test_non_finite_temperature_config_error(self, trained_run, tmp_path, capsys,
                                                 temperature):
        # argparse rejects it before the checkpoint or the (absent) scene is read
        probs = tmp_path / "probs.txt"
        assert_flag_rejected(["infer", "--checkpoint", trained_run / "checkpoint.bin",
                              "--scene", tmp_path / "absent.txt", "--temperature", temperature,
                              "-o", probs], "--temperature", capsys)
        assert not probs.exists()
        assert not (tmp_path / "probs.classes.txt").exists()

    def test_overflowing_class_scores_exit_2(self, trained_run, tmp_path, capsys):
        # a positive finite temperature whose scaled scores overflow; every
        # row used to be written as nan
        scene, probs = tmp_path / "scene.txt", tmp_path / "probs.txt"
        scene.write_text("0 0 0\n0.1 0 0\n")
        code = run_cli(["infer", "--checkpoint", trained_run / "checkpoint.bin",
                        "--scene", scene, "--temperature", "5e-324", "-o", probs])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[1:] == ["config error: class scores are not finite at temperature 5e-324"]
        assert not probs.exists()
        assert not (tmp_path / "probs.classes.txt").exists()

    def test_bad_temperature_with_missing_checkpoint_exit_2(self, tmp_path, capsys):
        assert_flag_rejected(["infer", "--checkpoint", tmp_path / "absent.bin",
                              "--scene", tmp_path / "absent.txt", "--temperature", "0",
                              "-o", tmp_path / "probs.txt"], "--temperature", capsys)

    def test_extend_classes_without_embeddings_before_any_read(self, tmp_path, capsys):
        # the checkpoint is absent: reading it first would exit 3
        probs = tmp_path / "probs.txt"
        code = run_cli(["infer", "--checkpoint", tmp_path / "absent.bin",
                        "--scene", tmp_path / "absent.txt", "--extend-classes", "ovoid",
                        "-o", probs])
        assert code == 2
        assert "config error: --extend-classes requires --embeddings" in capsys.readouterr().err
        assert not probs.exists()

    @pytest.mark.parametrize("header, message", [
        (b"[1, 2]", "checkpoint header is not a JSON object"),
        (b'{"format": 99}', "unsupported checkpoint format 99")])
    def test_checkpoint_header_shape_config_error(self, trained_run, tmp_path, capsys, header,
                                                  message):
        with open(trained_run / "checkpoint.bin", "rb") as fh:
            magic = fh.readline()
            fh.readline()
            payload = fh.read()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(magic + header + b"\n" + payload)
        scene = tmp_path / "scene.txt"
        scene.write_text("0 0 0\n0.1 0 0\n")
        code = run_cli(["infer", "--checkpoint", bad, "--scene", scene, "-o", tmp_path / "p.txt"])
        assert code == 2
        assert f"config error: {bad}: {message}" in capsys.readouterr().err

    def test_ground_truth_without_labels_config_error(self, tmp_path, capsys):
        gt_path = tmp_path / "gt.txt"
        gt_path.write_text("0 0 0\n1 0 0\n")
        probs_path = tmp_path / "p.txt"
        np.savetxt(probs_path, np.eye(2))
        assert run_cli(["eval", "--probs", probs_path, "--gt", gt_path]) == 2
        assert f"config error: {gt_path}: ground-truth file has no labels" in \
            capsys.readouterr().err

    def test_class_absent_from_ground_truth_reported_skipped(self, tmp_path):
        gt_path = tmp_path / "gt.txt"
        gt_path.write_text("0 0 0 0\n1 0 0 1\n2 0 0 0\n")
        probs_path = tmp_path / "p.txt"
        np.savetxt(probs_path, np.full((3, 3), 1.0 / 3.0))
        (tmp_path / "p.classes.txt").write_text("sphere\nbox\ntube\n")
        report = tmp_path / "rep.txt"
        assert run_cli(["eval", "--probs", probs_path, "--gt", gt_path, "-o", report]) == 0
        assert "skipped.tube absent_from_ground_truth\n" in (tmp_path / "rep.kv").read_text()
        rows = report.read_text().splitlines()
        assert f"{'tube':<16} {'skipped':>10}" in rows
        assert not any(row.startswith("tube") and row != f"{'tube':<16} {'skipped':>10}"
                       for row in rows)

    def test_truncated_checkpoint_io_error(self, trained_run, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes((trained_run / "checkpoint.bin").read_bytes()[:-16])
        scene = tmp_path / "scene.txt"
        scene.write_text("0 0 0\n0.1 0 0\n")
        code = run_cli(["infer", "--checkpoint", bad, "--scene", scene, "-o", tmp_path / "p.txt"])
        assert code == 3
        assert f"i/o error: {bad}: truncated array" in capsys.readouterr().err
        assert not (tmp_path / "p.txt").exists()

    def test_probability_file_bytes_match_per_row_formatting(self, toy_dir, trained_run,
                                                            tmp_path):
        from scenehull.checkpoint import load_checkpoint
        from scenehull.geometry import load_points
        from test_objective import infer_points

        scenes = tmp_path / "scenes"
        assert run_cli(["simulate", "--manifest", toy_dir / "manifest.json",
                        "--seed", 3, "-o", scenes]) == 0
        probs_path = tmp_path / "probs.txt"
        assert run_cli(["infer", "--checkpoint", trained_run / "checkpoint.bin",
                        "--scene", scenes / "scene_000.txt", "--temperature", 0.01,
                        "-o", probs_path]) == 0
        model, _ = load_checkpoint(trained_run / "checkpoint.bin")
        probs = infer_points(model, load_points(scenes / "scene_000.txt"), temperature=0.01)
        expected = "".join(" ".join(f"{v:.17g}" for v in row) + "\n" for row in probs)
        assert probs_path.read_text() == expected

    def test_point_file_bytes_match_per_row_formatting(self, toy_dir, tmp_path):
        from scenehull.geometry import load_mesh, load_points, poisson_disk_sample

        # sample writes no labels, here over more than one part of rows
        out = tmp_path / "pts.txt"
        assert run_cli(["sample", toy_dir / "sphere.off", "-n", 5000, "--seed", 2,
                        "-o", out]) == 0
        cloud = poisson_disk_sample(load_mesh(toy_dir / "sphere.off"), 5000,
                                    np.random.default_rng(2))
        assert out.read_text() == "".join(f"{x:.17g} {y:.17g} {z:.17g}\n"
                                          for x, y, z in cloud.positions)
        # simulate writes a label column
        scenes = tmp_path / "scenes"
        assert run_cli(["simulate", "--manifest", toy_dir / "manifest.json",
                        "--seed", 3, "-o", scenes]) == 0
        scene = load_points(scenes / "scene_000.txt")
        assert (scenes / "scene_000.txt").read_text() == "".join(
            f"{x:.17g} {y:.17g} {z:.17g} {label}\n"
            for (x, y, z), label in zip(scene.positions, scene.labels))

    def test_mesh_file_bytes_match_per_row_formatting(self, tmp_path):
        from scenehull.toydata import TOY_CLASSES, toy_mesh

        assert run_cli(["toy", "-o", tmp_path / "toy", "--points", 16, "--scenes", 0]) == 0
        for name in TOY_CLASSES:
            mesh = toy_mesh(name)
            expected = "".join(
                ["OFF\n", f"{mesh.num_vertices} {mesh.num_faces} 0\n"]
                + [f"{x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in mesh.vertices]
                + [f"3 {a} {b} {c}\n" for a, b, c in mesh.faces])
            assert (tmp_path / "toy" / f"{name}.off").read_text() == expected


class TestGradcheckCommand:
    def test_passes_and_exit_zero(self, capsys):
        assert run_cli(["gradcheck", "--seed", 0, "--repeat", 1]) == 0
        out = capsys.readouterr().out
        assert "gradient checks passed" in out

    @pytest.mark.parametrize("flag, value", [("--seed", -1), ("--repeat", 0)])
    def test_out_of_range_flag_exit_2(self, capsys, flag, value):
        assert_flag_rejected(["gradcheck", flag, value], flag, capsys)


class TestToyCommand:
    @pytest.mark.parametrize("flag, value", [("--points", 0), ("--scenes", -1), ("--seed", -1),
                                             ("--points", geometry.MAX_SAMPLE_POINTS + 1)])
    def test_out_of_range_flag_exit_2(self, tmp_path, capsys, flag, value):
        assert_flag_rejected(["toy", "-o", tmp_path / "toy", flag, value], flag, capsys)
        assert not (tmp_path / "toy").exists()

    def test_zero_scenes_allowed(self, tmp_path):
        assert run_cli(["toy", "-o", tmp_path / "toy", "--points", 64, "--scenes", 0]) == 0
        manifest = json.loads((tmp_path / "toy" / "manifest.json").read_text())
        assert manifest["num_scenes"] == 0


class TestThreadsFlag:
    def test_flag_overrides_environment(self, tmp_path, monkeypatch):
        for var in _THREAD_VARS:
            monkeypatch.setenv(var, "4")
        assert run_cli(["--threads", 1, "toy", "-o", tmp_path / "toy", "--points", 64,
                        "--scenes", 0]) == 0
        assert {os.environ[var] for var in _THREAD_VARS} == {"1"}

    @pytest.mark.parametrize("value", [0, -3])
    def test_below_one_exit_2(self, tmp_path, capsys, value):
        assert_flag_rejected(["--threads", value, "toy", "-o", tmp_path / "toy"],
                             "--threads", capsys)
        assert not (tmp_path / "toy").exists()


class TestFlagTypes:
    @pytest.mark.parametrize("value", [-1, 0, float("nan"), float("inf")])
    @pytest.mark.parametrize("argv, flag, kind", [
        (["gradcheck"], "--seed", _NON_NEGATIVE_INT),
        (["infer", "--checkpoint", "c.bin", "--scene", "s.txt", "-o", "p.txt"],
         "--temperature", _POSITIVE),
    ], ids=["--seed", "--temperature"])
    def test_flag_rejects_what_its_schema_type_rejects(self, capsys, argv, flag, kind, value):
        # parse only: an accepted value must not run the command
        args = [*argv, flag, str(value)]
        if kind[0](value):
            build_parser().parse_args(args)
        else:
            assert_flag_rejected(args, flag, capsys)


class TestSubprocessEntry:
    def test_module_invocation(self, toy_dir, tmp_path):
        out = tmp_path / "pts.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "scenehull.cli", "sample",
             str(toy_dir / "tube.off"), "-n", "32", "--seed", "1", "-o", str(out)],
            capture_output=True, text=True, env=RUN_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
