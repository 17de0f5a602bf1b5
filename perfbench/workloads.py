"""The three benchmark workloads.

Each workload is a closed loop with one client: the next request starts when
the previous one has returned. ``setup`` is the program's one-off work
before the first request; with ``--trace 0`` the run repeats it
``setups_per_request`` times before each request and reports the median as
``setup_s``.
``request`` times each program call through ``timed`` and checks its output
after the clock has stopped. A check that fails raises ``CheckFailed``,
which the harness counts against the request. ``setup_in_layers`` says
whether the set-up is work that per-layer metrics should report when the
requests never run it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import inputs

ENCODER_WIDTHS = (32, 64, 96)
ROW_SUM_TOLERANCE = 1e-9
# infer_room's AmAP must reach this multiple of the AmAP of a ranking with no
# signal; uniform or shuffled probabilities fail it.
AMAP_OVER_CHANCE = 1.5


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def check(ok, message):
    if not ok:
        raise CheckFailed(message)


def median(values):
    """The median, NaN when no request succeeded."""
    return float(np.median(values)) if len(values) else float("nan")


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_cli(cli, argv):
    """scenehull's command-line entry point, in process, output captured."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main([str(a) for a in argv])
    check(code == 0, f"scenehull {argv[0]} exited {code}: {err.getvalue().strip()[-300:]}")


class TrainToy:
    """objective.train through the Python API on the four-class toy set."""

    name = "train_toy"
    setups_per_request = 1
    setup_in_layers = True  # mesh loads, sampling and embeddings map to setup_s
    min_requests = 2
    epochs = 4
    setup_covers = ("scenehull imports, 4 OFF loads, Poisson-disk sampling at 512 points, "
                    "load_embeddings, encoder and prototype bank creation")

    def __init__(self, inputs_dir, work_dir):
        self.dir = Path(inputs_dir)
        self.work = Path(work_dir)
        self.losses = None

    def generate(self, seed):
        return inputs.generate(self.dir, seed)

    def setup(self, mods):
        geometry, objective = mods["geometry"], mods["objective"]
        clouds = {}
        for i, name in enumerate(inputs.CLASSES):
            mesh = geometry.load_mesh(self.dir / f"{name}.off")
            rng = np.random.default_rng(np.random.SeedSequence([0, 104729, i]))
            clouds[i] = [geometry.poisson_disk_sample(mesh, inputs.TOY_POINTS, rng)]
        self.models = objective.ModelSet(clouds, frozenset([inputs.NEGATIVE]))
        cfg = inputs.TRAIN_CONFIG
        self.encoder = mods["encoder"].SparseEncoder.create(
            widths=ENCODER_WIDTHS, voxel_size=cfg["voxel_size"], seed=cfg["seed"])
        self.bank = mods["hull"].PrototypeBank.create(
            num_prototypes=cfg["prototypes"], feature_dim=ENCODER_WIDTHS[-1],
            attention_dim=cfg["attention_dim"], inv_temperature=cfg["inv_temperature"],
            seed=cfg["seed"] + 1)
        self.table = mods["anchors"].load_embeddings(
            self.dir / "embeddings.txt", inputs.CLASSES, feature_dim=ENCODER_WIDTHS[-1],
            seed=cfg["seed"] + 2)
        self.config = objective.TrainConfig(
            epochs=self.epochs, steps_per_epoch=cfg["steps_per_epoch"], lr=cfg["lr"],
            seed=cfg["seed"], use_dcr=cfg["use_dcr"])
        self.augment = mods["scene"].AugmentConfig(**inputs.AUGMENT)
        self.objective = objective  # looked up per call, so tracing can come and go
        params = [self.table.w_proj, *self.bank.parameters().values()]
        params += list(self.encoder.parameters().values())
        self.initial = [(p, p.copy()) for p in params]

    def request(self, timed):
        for param, value in self.initial:  # every request trains from the same start
            param[...] = value
        bounds = tuple(map(tuple, inputs.XY_BOUNDS))
        losses = timed("train", lambda: self.objective.train(
            self.models, self.table, self.encoder, self.bank, self.config,
            self.augment, xy_bounds=bounds))
        check(len(losses) == self.epochs and all(math.isfinite(x) for x in losses),
              f"epoch losses not finite: {losses}")
        check(losses[-1] < losses[0], f"loss did not fall: {losses[0]} -> {losses[-1]}")
        if self.losses is None:
            self.losses = losses
        check(losses == self.losses, "training did not replay bit for bit")

    def report(self, times):
        steps = self.epochs * self.config.steps_per_epoch
        train = times["train"]
        return [
            ("train_steps_per_s", steps / median(train), "1/s",
             f"{steps} steps per objective.train call, median over {len(train)} calls"),
            ("train_loss_final", self.losses[-1] if self.losses else float("nan"), "nats",
             f"last-epoch mean loss after {steps} steps"),
        ]


class InferRoom:
    """`scenehull infer` on a labeled room scan, each followed by `scenehull eval`."""

    name = "infer_room"
    setups_per_request = 1
    setup_in_layers = False  # checkpoint training is kept out of the layers
    min_requests = 2
    checkpoint_epochs = 4
    setup_covers = ("scenehull imports and `scenehull train` of the checkpoint "
                    "(40 toy steps, 512 points per model)")

    def __init__(self, inputs_dir, work_dir):
        self.dir = Path(inputs_dir)
        self.work = Path(work_dir)
        self.probs_sha = None
        self.report_kv = None
        self.foreground = [*inputs.FOREGROUND, inputs.UNSEEN_ID]
        self.chance_amap = None

    def generate(self, seed):
        digest = inputs.generate(self.dir, seed, room=True, train_epochs=self.checkpoint_epochs)
        labels = np.loadtxt(self.dir / "room.txt", usecols=3, dtype=np.int64)
        # The AP of a ranking that carries no signal is the positive share.
        self.chance_amap = float(np.mean([np.mean(labels == c) for c in self.foreground]))
        return digest

    def setup(self, mods):
        self.cli = mods["cli"]
        run_cli(self.cli, ["train", "--config", self.dir / "train_config.json",
                           "-o", self.work / "model"])

    def request(self, timed):
        probs = self.work / "probs.txt"
        room = self.dir / "room.txt"
        timed("infer", lambda: run_cli(self.cli, [
            "infer", "--checkpoint", self.work / "model" / "checkpoint.bin",
            "--scene", room, "--extend-classes", inputs.UNSEEN,
            "--embeddings", self.dir / "embeddings.txt", "-o", probs]))
        digest = sha256(probs)
        if self.probs_sha is None:
            self._check_probs(probs, room)
            self.probs_sha = digest
        check(digest == self.probs_sha, "repeated infer wrote different probabilities")

        report = self.work / "report.txt"
        foreground = ",".join(map(str, self.foreground))
        timed("eval", lambda: run_cli(self.cli, [
            "eval", "--probs", probs, "--gt", room, "--foreground", foreground,
            "--miou", "-o", report]))
        kv = dict(line.split(" ", 1) for line in report.with_suffix(".kv").read_text().splitlines())
        for key in ("amap", "miou"):
            check(key in kv and math.isfinite(float(kv[key])), f"eval report lacks a finite {key}")
        floor = AMAP_OVER_CHANCE * self.chance_amap
        check(float(kv["amap"]) >= floor,
              f"AmAP {float(kv['amap']):.4f} below {floor:.4f}, {AMAP_OVER_CHANCE}x the chance level")
        if self.report_kv is None:
            self.report_kv = kv
        check(kv == self.report_kv, "repeated eval wrote a different report")

    def _check_probs(self, probs_path, room_path):
        with open(room_path, encoding="utf-8") as fh:
            n_points = sum(1 for _ in fh)
        probs = np.loadtxt(probs_path, ndmin=2)
        classes = len(inputs.CLASSES) + 1
        check(probs.shape == (n_points, classes),
              f"probabilities are {probs.shape}, expected ({n_points}, {classes})")
        check(np.isfinite(probs).all(), "non-finite probabilities")
        worst = float(np.abs(probs.sum(axis=1) - 1.0).max())
        check(worst <= ROW_SUM_TOLERANCE, f"a probability row sums to 1 +- {worst}")

    def report(self, times):
        kv = self.report_kv or {}
        return [
            ("infer_s", median(times["infer"]), "s",
             f"median over {len(times['infer'])} infer requests"),
            ("eval_s", median(times["eval"]), "s",
             f"median over {len(times['eval'])} eval requests"),
            ("infer_amap", float(kv.get("amap", "nan")), "AP",
             "foreground classes incl. the zero-shot ovoid"),
            ("infer_miou", float(kv.get("miou", "nan")), "IoU", "argmax mIoU, same classes"),
        ]


class SimulateFull:
    """`scenehull simulate` on the toy manifest at its default 8196 points per model."""

    name = "simulate_full"
    setups_per_request = 10
    setup_in_layers = False
    min_requests = 2
    num_scenes = 4
    setup_covers = "scenehull imports"

    def __init__(self, inputs_dir, work_dir):
        self.dir = Path(inputs_dir)
        self.work = Path(work_dir)
        self.scene_sha = None

    def generate(self, seed):
        return inputs.generate(self.dir, seed, simulate_scenes=self.num_scenes)

    def setup(self, mods):
        self.cli = mods["cli"]

    def request(self, timed):
        out = self.work / "scenes"
        timed("simulate", lambda: run_cli(self.cli, [
            "simulate", "--manifest", self.dir / "manifest_simulate.json", "-o", out]))
        names = [f"scene_{i:03d}.{ext}" for i in range(self.num_scenes) for ext in ("txt", "json")]
        missing = [n for n in names if not (out / n).is_file()]
        check(not missing, f"simulate did not write {missing}")
        digests = [sha256(out / n) for n in names]
        if self.scene_sha is None:
            for i in range(self.num_scenes):
                self._check_scene(out / f"scene_{i:03d}.txt", out / f"scene_{i:03d}.json")
            self.scene_sha = digests
        check(digests == self.scene_sha, "repeated simulate wrote different scenes")

    def _check_scene(self, txt, sidecar):
        rows = np.loadtxt(txt, ndmin=2)
        check(rows.shape[1] == 4, f"{txt.name}: scene rows lack labels")
        labels = rows[:, 3].astype(int)
        check(set(labels.tolist()) <= set(range(len(inputs.CLASSES))),
              f"{txt.name}: unexpected labels {sorted(set(labels.tolist()))}")
        meta = json.loads(sidecar.read_text())
        counted = sum(inst["n_points"] for inst in meta["instances"])
        check(counted == len(rows), f"{sidecar.name}: {counted} instance points, {len(rows)} rows")
        check(set(meta["class_set"]) == set(labels.tolist()),
              f"{sidecar.name}: class_set does not match the labels")

    def report(self, times):
        return [("simulate_s", median(times["simulate"]), "s",
                 f"{self.num_scenes} scenes per command, median over {len(times['simulate'])} commands")]


WORKLOADS = {w.name: w for w in (TrainToy, InferRoom, SimulateFull)}
