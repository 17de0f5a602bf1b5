"""CLI subcommands: wiring, exit codes, replay determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from scenehull.cli import main
from scenehull.toydata import build_toy_dataset

RUN_ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1")


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

    @pytest.mark.parametrize("flag, value", [("-n", 0), ("-n", "x"), ("--seed", -1)])
    def test_out_of_range_flag_exit_2(self, toy_dir, tmp_path, capsys, flag, value):
        out = tmp_path / "pts.txt"
        assert_flag_rejected(["sample", toy_dir / "box.off", flag, value, "-o", out], flag, capsys)
        assert not out.exists()


class TestSimulate:
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
        ("num_scenes", -1, "manifest.num_scenes must be >= 0"),
        ("points_per_model", 0, "manifest: points_per_model must be a positive integer"),
        ("xy_bounds", [[0.0, 3.0], [3.0, 0.0]], "manifest: xy_bounds minimum"),
        ("augment.scale_min", 1.2, "manifest.augment: need 0 < scale_min <= scale_max"),
        ("seed", -1, "manifest: seed must be a non-negative integer"),
        # -1 is the background label
        ("models[2].class_id", -1,
         "manifest.models[2]: class_id must be a non-negative integer"),
    ], ids=["num_scenes", "points_per_model", "xy_bounds", "augment.scale_min", "seed",
            "models.class_id"])
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

    @pytest.mark.parametrize("flag, value", [("--seed", -1), ("--points", 0)])
    def test_out_of_range_flag_exit_2(self, toy_dir, tmp_path, capsys, flag, value):
        assert_flag_rejected(["simulate", "--manifest", toy_dir / "manifest.json",
                              flag, value, "-o", tmp_path / "run"], flag, capsys)
        assert not (tmp_path / "run").exists()

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
        ck = load_checkpoint(out0 / "checkpoint.bin")

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

    @pytest.mark.parametrize("field, value", [
        ("lr", float("inf")), ("beta1", 1.0), ("beta2", 1.0), ("eps", 0.0), ("lr", -1),
        ("precision", "float16"), ("encoder_widths", []), ("encoder_widths", [32, 0]),
        ("prototypes", 0), ("attention_dim", 0), ("voxel_size", 0), ("voxel_size", -0.05),
        ("points_per_model", 0), ("seed", -1)])
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
        assert "checkpoint header lacks encoder" in capsys.readouterr().err

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

    @pytest.mark.parametrize("temperature", ["nan", "inf"])
    def test_non_finite_temperature_config_error(self, toy_dir, trained_run, tmp_path, capsys,
                                                 temperature):
        scenes = tmp_path / "scenes"
        assert run_cli(["simulate", "--manifest", toy_dir / "manifest.json",
                        "--seed", 2, "-o", scenes]) == 0
        probs = tmp_path / "probs.txt"
        code = run_cli(["infer", "--checkpoint", trained_run / "checkpoint.bin",
                        "--scene", scenes / "scene_000.txt", "--temperature", temperature,
                        "-o", probs])
        assert code == 2
        assert "config error: temperature must be positive and finite" in capsys.readouterr().err
        assert not probs.exists()
        assert not (tmp_path / "probs.classes.txt").exists()

    def test_probability_file_bytes_match_per_row_formatting(self, toy_dir, trained_run,
                                                            tmp_path):
        from scenehull.checkpoint import load_checkpoint
        from scenehull.geometry import load_points
        from scenehull.objective import infer_scene

        scenes = tmp_path / "scenes"
        assert run_cli(["simulate", "--manifest", toy_dir / "manifest.json",
                        "--seed", 3, "-o", scenes]) == 0
        probs_path = tmp_path / "probs.txt"
        assert run_cli(["infer", "--checkpoint", trained_run / "checkpoint.bin",
                        "--scene", scenes / "scene_000.txt", "--temperature", 0.01,
                        "-o", probs_path]) == 0
        ckpt = load_checkpoint(trained_run / "checkpoint.bin")
        probs = infer_scene(load_points(scenes / "scene_000.txt"), ckpt.encoder,
                            ckpt.bank, ckpt.table, temperature=0.01)
        expected = "".join(" ".join(f"{v:.17g}" for v in row) + "\n" for row in probs)
        assert probs_path.read_text() == expected


class TestGradcheckCommand:
    def test_passes_and_exit_zero(self, capsys):
        assert run_cli(["gradcheck", "--seed", 0, "--repeat", 1]) == 0
        out = capsys.readouterr().out
        assert "gradient checks passed" in out

    @pytest.mark.parametrize("flag, value", [("--seed", -1), ("--repeat", 0)])
    def test_out_of_range_flag_exit_2(self, capsys, flag, value):
        assert_flag_rejected(["gradcheck", flag, value], flag, capsys)


class TestToyCommand:
    @pytest.mark.parametrize("flag, value", [("--points", 0), ("--scenes", -1), ("--seed", -1)])
    def test_out_of_range_flag_exit_2(self, tmp_path, capsys, flag, value):
        assert_flag_rejected(["toy", "-o", tmp_path / "toy", flag, value], flag, capsys)
        assert not (tmp_path / "toy").exists()

    def test_zero_scenes_allowed(self, tmp_path):
        assert run_cli(["toy", "-o", tmp_path / "toy", "--points", 64, "--scenes", 0]) == 0
        manifest = json.loads((tmp_path / "toy" / "manifest.json").read_text())
        assert manifest["num_scenes"] == 0


class TestThreadsFlag:
    @pytest.mark.parametrize("value", [0, -3])
    def test_below_one_exit_2(self, tmp_path, capsys, value):
        assert_flag_rejected(["--threads", value, "toy", "-o", tmp_path / "toy"],
                             "--threads", capsys)
        assert not (tmp_path / "toy").exists()


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
