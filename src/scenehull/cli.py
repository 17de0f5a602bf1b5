"""Command-line entry point: sample, simulate, train, infer, eval, gradcheck, toy.

Heavy imports happen inside the command handlers so --threads can pin the
BLAS thread count through environment variables, over any value the caller
set, before numpy loads. With the default --threads 1 every subcommand is a
deterministic function of its inputs and --seed and replays byte-identically.

Exit codes: 0 success, 1 check failure, 2 config error, 3 I/O error or out of
memory, 4 numerical divergence.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
from collections import Counter
from pathlib import Path

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")


def _load_json(path, where: str) -> dict:
    from .geometry import _open_text

    try:
        with _open_text(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: invalid JSON in {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{where}: {path} must hold a JSON object")
    return data


def _log_config(label: str, resolved: dict) -> None:
    print(f"[{label}] config {json.dumps(resolved, sort_keys=True)}", file=sys.stderr)


@contextlib.contextmanager
def _run_directory(out_dir: Path):
    """Make out_dir and yield path(name), which gives out_dir / name and
    notes it as written. On a ValueError the noted files go, and so do
    out_dir and its parents that this made, each only when empty; a
    directory that was there before stays."""
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    def path(name):
        written.append(out_dir / name)
        return written[-1]

    try:
        yield path
    except ValueError:
        for file in written:
            file.unlink(missing_ok=True)
        for directory in made:
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise


def _write_json(path, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Manifest / config loading
# ---------------------------------------------------------------------------

def load_manifest(path):
    """Parse and validate a scene manifest; paths resolve relative to it.

    Besides the manifest's keys, with defaults filled in, the dict holds
    "_augment" (a scene.AugmentConfig), "_bounds" (xy_bounds as float
    pairs) and "_base" (the manifest's directory).
    """
    from .scene import AugmentConfig

    manifest = _parse(_load_json(path, "manifest"), _MANIFEST_SCHEMA, "manifest")
    for i, entry in enumerate(manifest["models"]):
        _parse(entry, _MODEL_SCHEMA, f"manifest.models[{i}]")
    augment = _parse(manifest["augment"], _dataclass_schema(AugmentConfig), "manifest.augment")
    try:
        manifest["_augment"] = AugmentConfig(**augment)
    except ValueError as exc:
        raise ValueError(f"manifest.augment: {exc}") from None
    manifest["_bounds"] = tuple(tuple(map(float, pair)) for pair in manifest["xy_bounds"])
    manifest["_base"] = str(Path(path).resolve().parent)
    return manifest


def _manifest_models(manifest, points_per_model, seed):
    """The manifest's training library and its class names: each mesh
    presampled at points_per_model and scaled to its optional canonical
    height, plus the background scans. ValueError when points_per_model is
    too few to anchor-crop, for a flat model with a height, and for a
    background with no points; callers make the run directory after."""
    import numpy as np

    from . import geometry
    from .objective import ModelSet

    crop_anchor_max = manifest["_augment"].crop_anchor_max
    if points_per_model < crop_anchor_max:
        raise ValueError(
            f"points_per_model {points_per_model} is below manifest.augment.crop_anchor_max "
            f"{crop_anchor_max}: the anchor crop needs that many points per model")
    base = Path(manifest["_base"])
    clouds: dict = {}
    negatives = set()
    names = {}
    for i, entry in enumerate(manifest["models"]):
        mesh = geometry.load_mesh(base / entry["path"])
        rng = np.random.default_rng(np.random.SeedSequence([seed, 104729, i]))
        cloud = geometry.poisson_disk_sample(mesh, points_per_model, rng)
        height = entry.get("height")
        if height is not None:
            z = cloud.positions[:, 2]
            extent = float(z.max() - z.min())
            if extent <= 0:
                raise ValueError(f"model {entry['path']}: flat model cannot be height-normalized")
            cloud = geometry.scale(cloud, float(height) / extent)
        class_id = int(entry["class_id"])
        clouds.setdefault(class_id, []).append(cloud)
        if entry.get("negative", False):
            negatives.add(class_id)
        if "name" in entry:
            names[class_id] = entry["name"]
    backgrounds = []
    for path in manifest["backgrounds"]:
        scan = geometry.load_points(base / path)
        if len(scan) == 0:
            raise ValueError(f"background {base / path}: no points")
        backgrounds.append(scan)
    return ModelSet(clouds, frozenset(negatives), backgrounds), names


def _is_int(value) -> bool:
    # JSON true/false load as bool, which Python counts as int
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    # Python's json reads NaN and Infinity, which no setting here accepts
    return _is_int(value) or (isinstance(value, float) and math.isfinite(value))


def _is_xy_pair(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(_is_number(v) for v in value)


# (test, description) per JSON value type
_INT = (_is_int, "an integer")
_NON_NEGATIVE_INT = (lambda v: _is_int(v) and v >= 0, "a non-negative integer")
_POSITIVE_INT = (lambda v: _is_int(v) and v >= 1, "a positive integer")
# geometry.MAX_SAMPLE_POINTS, which geometry cannot give here: it loads numpy,
# and --threads is read first
_MAX_SAMPLE_POINTS = (2**31 - 1) // 4
_SAMPLE_COUNT = (lambda v: _is_int(v) and 1 <= v <= _MAX_SAMPLE_POINTS,
                 f"a positive integer at most {_MAX_SAMPLE_POINTS}")
_NUMBER = (_is_number, "a finite number")
_POSITIVE = (lambda v: _is_number(v) and v > 0, "a positive finite number")
_PERCENT = (lambda v: _is_number(v) and 0 <= v <= 100, "a number in [0, 100]")
_BOOL = (lambda v: isinstance(v, bool), "true or false")
_NUMBER_OR_NULL = (lambda v: v is None or _is_number(v), "a finite number or null")
_STRING = (lambda v: isinstance(v, str), "a string")
_PRECISION = (lambda v: v in ("float64", "float32"), '"float64" or "float32"')
_OBJECT = (lambda v: isinstance(v, dict), "an object")
_WIDTHS = (lambda v: isinstance(v, list) and len(v) > 0 and all(_is_int(w) and w >= 1 for w in v),
           "a non-empty list of positive integers")
_STRING_LIST = (lambda v: isinstance(v, list) and all(isinstance(w, str) for w in v),
                "a list of strings")
_OBJECT_LIST = (lambda v: isinstance(v, list) and all(isinstance(w, dict) for w in v),
                "a list of objects")
_NON_EMPTY_OBJECT_LIST = (lambda v: _OBJECT_LIST[0](v) and len(v) > 0,
                          "a non-empty list of objects")
_XY_BOUNDS = (lambda v: isinstance(v, list) and len(v) == 2 and all(_is_xy_pair(p) for p in v)
              and all(low <= high for low, high in zip(*v)),
              "[[xmin, ymin], [xmax, ymax]] of finite numbers, min <= max")

# A schema maps each key of a JSON object to (type, default). A key whose
# default is _REQUIRED must be given; one whose default is _UNSET stays
# absent when it is not given.
_REQUIRED = object()
_UNSET = object()

_MANIFEST_SCHEMA = {
    "models": (_NON_EMPTY_OBJECT_LIST, _REQUIRED),
    "seed": (_NON_NEGATIVE_INT, 0),
    "num_scenes": (_NON_NEGATIVE_INT, 1),
    "points_per_model": (_SAMPLE_COUNT, 8196),
    "xy_bounds": (_XY_BOUNDS, [[0.0, 0.0], [4.0, 4.0]]),
    "floor_percentile": (_PERCENT, 1.0),
    "floor_z": (_NUMBER_OR_NULL, None),
    "backgrounds": (_STRING_LIST, []),
    "augment": (_OBJECT, {}),  # keys, types and defaults: scene.AugmentConfig
}
_MODEL_SCHEMA = {
    "path": (_STRING, _REQUIRED),
    "class_id": (_NON_NEGATIVE_INT, _REQUIRED),
    "name": (_STRING, _UNSET),
    "negative": (_BOOL, _UNSET),
    "height": (_NUMBER_OR_NULL, _UNSET),
}
# Plus the optimizer keys, typed and defaulted by objective.TrainConfig.
# inference_temperature is accepted and unread: infer --temperature sets it.
_TRAIN_SCHEMA = {
    "manifest": (_STRING, _REQUIRED),
    "classes": (_STRING, _REQUIRED),
    "embeddings": (_STRING, _REQUIRED),
    "precision": (_PRECISION, "float64"),
    "voxel_size": (_POSITIVE, 0.05),
    "encoder_widths": (_WIDTHS, [32, 64, 96]),
    "prototypes": (_POSITIVE_INT, 128),
    "attention_dim": (_POSITIVE_INT, 16),
    "inv_temperature": (_NUMBER, 0.5),
    "normalize_anchors": (_BOOL, False),
    "inference_temperature": (_NUMBER, 1.0),
    "points_per_model": (_SAMPLE_COUNT, _UNSET),  # unset: the manifest's
}


def _dataclass_schema(cls) -> dict:
    """Schema entries for the fields of a dataclass, each typed and
    defaulted by the field's default value."""
    kinds = {int: _INT, float: _NUMBER, bool: _BOOL}
    return {f.name: (kinds[type(f.default)], f.default) for f in dataclasses.fields(cls)}


def _parse(data: dict, schema: dict, where: str) -> dict:
    """A new dict of data with the defaults of schema filled in; ValueError
    for an unknown key, a missing required key or a value of the wrong type."""
    unknown = set(data) - set(schema)
    if unknown:
        raise ValueError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [key for key, (_, default) in schema.items()
               if default is _REQUIRED and key not in data]
    if missing:
        raise ValueError(f"{where}: missing keys {sorted(missing)}")
    for key, ((valid, kind), _) in schema.items():
        if key in data and not valid(data[key]):
            raise ValueError(f"{where}: {key} must be {kind}, got {data[key]!r}")
    resolved = {key: default for key, (_, default) in schema.items()
                if default is not _REQUIRED and default is not _UNSET}
    resolved.update(data)
    return resolved


def load_train_config(path):
    """Parse and validate a train config; "_base" is its directory."""
    from .objective import TrainConfig

    schema = {**_TRAIN_SCHEMA, **_dataclass_schema(TrainConfig)}
    cfg = _parse(_load_json(path, "train config"), schema, "train config")
    cfg["_base"] = str(Path(path).resolve().parent)
    return cfg


def _read_class_list(path):
    from .geometry import _open_text

    with _open_text(path) as fh:
        names = [line.strip() for line in fh if line.strip()]
    if not names:
        raise ValueError(f"{path}: empty class list")
    repeated = [name for name, count in Counter(names).items() if count > 1]
    if repeated:
        raise ValueError(f"{path}: class {repeated[0]} is listed twice")
    return names


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_sample(args) -> int:
    import numpy as np

    from . import geometry

    resolved = {"mesh": str(args.mesh), "n": args.n, "seed": args.seed,
                "out": str(args.out)}
    _log_config("sample", resolved)
    mesh = geometry.load_mesh(args.mesh)
    rng = np.random.default_rng(args.seed)
    cloud = geometry.poisson_disk_sample(mesh, args.n, rng)
    geometry.save_points(args.out, cloud)
    print(f"wrote {len(cloud)} points to {args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    import numpy as np

    from . import geometry
    from .objective import compose_step_scene

    manifest = load_manifest(args.manifest)
    seed = manifest["seed"] if args.seed is None else args.seed
    points = manifest["points_per_model"] if args.points is None else args.points
    out_dir = Path(args.out)
    resolved = {k: v for k, v in manifest.items() if not k.startswith("_")}
    resolved.update({"seed": seed, "points_per_model": points, "out": str(out_dir)})
    _log_config("simulate", resolved)
    models, names = _manifest_models(manifest, points, seed)

    # a rejected config leaves no run directory behind
    with _run_directory(out_dir) as path:
        _write_json(path("resolved_config.json"), resolved)
        for i in range(manifest["num_scenes"]):
            rng = np.random.default_rng(np.random.SeedSequence([seed, 15485863, i]))
            scene = compose_step_scene(
                models, manifest["_augment"], rng, xy_bounds=manifest["_bounds"],
                floor_z=manifest["floor_z"], floor_percentile=manifest["floor_percentile"],
            )
            geometry.save_points(path(f"scene_{i:03d}.txt"), scene)
            # every point of an instance carries its class: read it at the first
            ids, first, counts = np.unique(scene.instance_ids, return_index=True,
                                           return_counts=True)
            classes = scene.labels[first]
            instances = [{"instance_id": inst, "class_id": label,
                          "class_name": names.get(label), "n_points": n}
                         for inst, label, n in zip(ids.tolist(), classes.tolist(),
                                                   counts.tolist())]
            class_set = np.unique(classes[ids >= 0]).tolist()  # sorted, background left out
            _write_json(path(f"scene_{i:03d}.json"),
                        {"scene": i, "seed": seed, "class_set": class_set,
                         "instances": instances})
    print(f"wrote {manifest['num_scenes']} scenes to {out_dir}")
    return EXIT_OK


def _build_components(cfg, num_classes_embedding_path, class_names):
    import numpy as np

    from .anchors import load_embeddings
    from .encoder import SparseEncoder
    from .hull import PrototypeBank
    from .objective import SceneModel

    dtype = np.float64 if cfg["precision"] == "float64" else np.float32
    encoder = SparseEncoder.create(
        widths=tuple(cfg["encoder_widths"]), voxel_size=cfg["voxel_size"],
        seed=cfg["seed"], dtype=dtype,
    )
    bank = None
    if cfg["use_dcr"]:
        bank = PrototypeBank.create(
            num_prototypes=cfg["prototypes"], feature_dim=encoder.feature_dim,
            attention_dim=cfg["attention_dim"],
            inv_temperature=cfg["inv_temperature"], seed=cfg["seed"] + 1,
            dtype=dtype,
        )
    table = load_embeddings(
        num_classes_embedding_path, class_names, feature_dim=encoder.feature_dim,
        seed=cfg["seed"] + 2, dtype=dtype, normalize=cfg["normalize_anchors"],
    )
    return SceneModel(encoder, bank, table)


def cmd_train(args) -> int:
    from .checkpoint import save_checkpoint
    from .objective import TrainConfig, train

    cfg = load_train_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.epochs is not None:
        cfg["epochs"] = args.epochs
    base = Path(cfg["_base"])
    out_dir = Path(args.out)
    resolved = {k: v for k, v in cfg.items() if not k.startswith("_")}
    resolved["out"] = str(out_dir)
    _log_config("train", resolved)

    try:
        train_cfg = TrainConfig(**{f.name: cfg[f.name] for f in dataclasses.fields(TrainConfig)})
    except ValueError as exc:
        raise ValueError(f"train config: {exc}") from None
    manifest = load_manifest(base / cfg["manifest"])
    points = cfg.get("points_per_model", manifest["points_per_model"])
    class_names = _read_class_list(base / cfg["classes"])
    model = _build_components(cfg, base / cfg["embeddings"], class_names)
    models, _ = _manifest_models(manifest, points, cfg["seed"])

    # a rejected config leaves no run directory behind; a divergence keeps
    # the loss log
    with _run_directory(out_dir) as path:
        _write_json(path("resolved_config.json"), resolved)
        with open(path("loss.log"), "w", encoding="utf-8") as log:
            losses = train(
                models, model.table, model.encoder, model.bank, train_cfg,
                augment=manifest["_augment"], xy_bounds=manifest["_bounds"],
                floor_z=manifest["floor_z"], floor_percentile=manifest["floor_percentile"],
                log_file=log,
            )
        save_checkpoint(path("checkpoint.bin"), model,
                        meta={"train_config": {k: v for k, v in resolved.items()
                                               if k != "out"}})
    if losses:
        print(f"trained {len(losses)} epochs, loss {losses[0]:.4f} -> {losses[-1]:.4f}")
    else:
        print("trained 0 epochs, checkpoint equals initialization")
    print(f"checkpoint: {out_dir / 'checkpoint.bin'}")
    return EXIT_OK


def cmd_infer(args) -> int:
    from . import geometry
    from .anchors import class_vectors
    from .checkpoint import load_checkpoint

    resolved = {"checkpoint": str(args.checkpoint), "scene": str(args.scene),
                "out": str(args.out), "temperature": args.temperature,
                "extend_classes": args.extend_classes,
                "embeddings": str(args.embeddings) if args.embeddings else None}
    _log_config("infer", resolved)
    if args.extend_classes and not args.embeddings:
        raise ValueError("--extend-classes requires --embeddings")

    model, _ = load_checkpoint(args.checkpoint)
    if args.extend_classes:
        new_names = [n for n in args.extend_classes.split(",") if n]
        # add_class rejects a vector whose dimension differs from the table's
        for name, vector in zip(new_names, class_vectors(args.embeddings, new_names)):
            model.table.add_class(name, vector)

    cloud = geometry.load_points(args.scene)
    if len(cloud) == 0:
        raise ValueError(f"scene {args.scene}: no points")
    probs, point_to_voxel = model.infer_voxels(cloud, temperature=args.temperature)
    geometry.save_probabilities(args.out, probs, order=point_to_voxel)
    classes_path = Path(args.out).with_suffix(".classes.txt")
    with open(classes_path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{name}\n" for name in model.table.class_names))
    print(f"wrote {len(point_to_voxel)}x{probs.shape[1]} probabilities to {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    from . import geometry
    from .metrics import evaluate_salient, mean_iou

    resolved = {"probs": str(args.probs), "gt": str(args.gt),
                "foreground": args.foreground, "miou": args.miou,
                "out": str(args.out) if args.out else None}
    _log_config("eval", resolved)

    probs = geometry.load_probabilities(args.probs)
    gt = geometry.load_points(args.gt)
    if gt.labels is None:
        raise ValueError(f"{args.gt}: ground-truth file has no labels")
    if len(gt) != len(probs):
        raise ValueError(
            f"{len(probs)} probability rows vs {len(gt)} ground-truth points")

    class_names = None
    classes_path = Path(args.probs).with_suffix(".classes.txt")
    if classes_path.exists():
        class_names = dict(enumerate(_read_class_list(classes_path)))
        if len(class_names) != probs.shape[1]:
            raise ValueError(f"{classes_path}: {len(class_names)} class names for "
                             f"{probs.shape[1]} probability columns")

    foreground = args.foreground or list(range(probs.shape[1]))
    report = evaluate_salient(probs, gt.labels, foreground, class_names=class_names)
    if args.miou:
        pred = probs.argmax(axis=1)
        report.per_class_iou, report.miou = mean_iou(pred, gt.labels, foreground)

    text = report.as_text()
    print(text, end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        kv_path = Path(args.out).with_suffix(".kv")
        with open(kv_path, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in report.as_kv_lines()))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    from .gradcheck import run_all

    resolved = {"seed": args.seed, "repeat": args.repeat}
    _log_config("gradcheck", resolved)
    results = run_all(range(args.seed, args.seed + args.repeat))
    failures = 0
    for res in results:
        print(res)
        failures += 0 if res.passed else 1
    print(f"{len(results) - failures}/{len(results)} gradient checks passed")
    return EXIT_OK if failures == 0 else EXIT_CHECK


def cmd_toy(args) -> int:
    from .toydata import build_toy_dataset

    resolved = {"out": str(args.out), "points_per_model": args.points,
                "seed": args.seed, "num_scenes": args.scenes}
    _log_config("toy", resolved)
    build_toy_dataset(args.out, points_per_model=args.points, seed=args.seed,
                      num_scenes=args.scenes)
    print(f"toy dataset written to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing / dispatch
# ---------------------------------------------------------------------------

def _flag(convert, kind):
    """argparse type: the text read by convert (int or float), then tested
    by kind, the schema type a JSON key of the same range uses; argparse
    exits 2 naming the flag."""
    valid, description = kind

    def parse(text):
        try:
            value = convert(text)
            if valid(value):
                return value
        except ValueError:  # not a number
            pass
        raise argparse.ArgumentTypeError(f"must be {description}, got {text!r}")

    return parse


def _class_ids(text):
    """argparse type for eval --foreground: comma-separated class ids; the
    empty string, like the absent flag, selects every column."""
    class_id = _flag(int, _NON_NEGATIVE_INT)
    return [class_id(part) for part in text.split(",")] if text else []


def build_parser() -> argparse.ArgumentParser:
    non_negative, positive = _flag(int, _NON_NEGATIVE_INT), _flag(int, _POSITIVE_INT)
    sample_count = _flag(int, _SAMPLE_COUNT)
    parser = argparse.ArgumentParser(
        prog="scenehull",
        description="Simulate crowded point-cloud scenes, train hull-regularized "
                    "features against language anchors, and evaluate salient detection.",
    )
    parser.add_argument("--threads", type=positive, default=1,
                        help="BLAS thread cap (default 1 for determinism)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="Poisson-disk sample a mesh surface")
    p.add_argument("mesh")
    p.add_argument("-n", type=sample_count, default=8196, help="number of points (default 8196)")
    p.add_argument("--seed", type=non_negative, default=0)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("simulate", help="compose labeled scenes from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--seed", type=non_negative, default=None, help="override manifest seed")
    p.add_argument("--points", type=sample_count, default=None,
                   help="override points per model")
    p.add_argument("-o", "--out", required=True, help="output run directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train encoder, prototype bank and anchors")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=non_negative, default=None, help="override config seed")
    p.add_argument("--epochs", type=non_negative, default=None, help="override config epochs")
    p.add_argument("-o", "--out", required=True, help="output run directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="per-point class probabilities for a scene")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--temperature", type=_flag(float, _POSITIVE), default=1.0)
    p.add_argument("--extend-classes", default="",
                   help="comma-separated unseen class names to add before inference")
    p.add_argument("--embeddings", default=None,
                   help="embedding file for --extend-classes")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="AP/AmAP (and optional mIoU) from probabilities")
    p.add_argument("--probs", required=True)
    p.add_argument("--gt", required=True, help="labeled scene file")
    p.add_argument("--foreground", type=_class_ids, default=None,
                   help="comma-separated foreground class ids (default: all columns)")
    p.add_argument("--miou", action="store_true", help="also report argmax mIoU")
    p.add_argument("-o", "--out", default=None, help="report file (.kv written alongside)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--seed", type=non_negative, default=0)
    p.add_argument("--repeat", type=positive, default=5, help="number of seeds")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("toy", help="write the procedural toy dataset")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--points", type=sample_count, default=512)
    p.add_argument("--seed", type=non_negative, default=7)
    p.add_argument("--scenes", type=non_negative, default=6)
    p.set_defaults(func=cmd_toy)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for var in _THREAD_VARS:  # --threads wins over the caller's environment
        os.environ[var] = str(args.threads)
    from .objective import TrainingDiverged  # loads numpy, so after --threads

    try:
        return args.func(args)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_IO
    except TrainingDiverged as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
