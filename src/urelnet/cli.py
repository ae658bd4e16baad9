"""Command-line workflow: synth, generate-pairs, build-stats, train,
evaluate, predict, gradcheck.

All commands exit 0 on success; failures print a machine-readable
``{"error": {"category": ..., "message": ...}}`` object to stderr and exit
nonzero.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import fields, is_dataclass, replace
from inspect import signature
from pathlib import Path

import numpy as np

from .checkpoint import load_model, save_checkpoint
from .dataset import load_dataset, save_dataset
from .errors import OutOfMemoryError, OutputError, UrelnetError, UsageError
from .evaluation import TASKS, ModelScorer, predict_scene
from .features import FeatureExtractor, build_triplet_statistics
from .model import (
    DC_FEEDS,
    FUSION_MODES,
    ModelConfig,
    make_gradient_check_problem,
    model_shapes,
    required_streams,
)
from .nn import MAX_ARRAY_VALUES, gradient_check
from .pairs import generate_for_scene
from .scene import SPLITS
from .synthetic import NOISE_FIELDS, SyntheticConfig, generate_synthetic
from .training import (
    SCHEDULE_PRESETS,
    RunConfig,
    Schedule,
    build_extractor,
    check_model_compatibility,
    make_run_config,
    run_evaluation,
    run_training,
    write_log,
)


@contextmanager
def _writing(path):
    """Report a failure to write ``path`` as an ``OutputError``."""
    try:
        yield
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from None


def _write_json(data, path: str | None) -> None:
    text = json.dumps(data, sort_keys=True, indent=1)
    if path is None or path == "-":
        print(text)
    else:
        with _writing(path):
            Path(path).write_text(text + "\n", encoding="utf-8")


def _names(text: str) -> tuple:
    """A comma list flag's names; an empty name stays, for the config to reject."""
    return tuple(text.split(","))


def _given(args, target) -> dict:
    """The flags given on the command line that set a field of the dataclass
    ``target``, or a defaulted parameter of the function ``target``, by
    ``dest``; ``target``'s own defaults stand for the rest."""
    if is_dataclass(target):
        names = {f.name for f in fields(target)}
    else:
        names = {p.name for p in signature(target).parameters.values() if p.default is not p.empty}
    return {name: value for name, value in vars(args).items() if name in names}


def cmd_synth(args) -> int:
    settings = _given(args, SyntheticConfig)
    if args.no_noise:
        settings.update(dict.fromkeys(NOISE_FIELDS, 0.0))
    dataset = generate_synthetic(SyntheticConfig(**settings))
    with _writing(args.out):
        save_dataset(dataset, args.out)
    counts = {split: len(dataset.split(split)) for split in SPLITS}
    print(json.dumps({"out": str(args.out), "scenes": counts, "features": len(dataset.features)}))
    return 0


def cmd_generate_pairs(args) -> int:
    dataset = load_dataset(args.dataset)
    m = dataset.vocabulary.predicate_count
    scenes = dataset.split(args.split) if args.split else dataset.scenes
    out_scenes = []
    totals = {"determinate": 0, "undetermined": 0}
    for scene in scenes:
        pairs = generate_for_scene(scene, m)
        determinate = int(pairs.determinate.sum())
        totals["determinate"] += determinate
        totals["undetermined"] += len(pairs) - determinate
        out_scenes.append(
            {
                "image_id": scene.image_id,
                "determinate": determinate,
                "undetermined": len(pairs) - determinate,
                "pairs": [
                    {"subject_index": i, "object_index": j,
                     "status": "determinate" if matched else "undetermined",
                     "predicates": np.flatnonzero(labels).tolist()}
                    for i, j, matched, labels in zip(
                        pairs.subject_indices.tolist(), pairs.object_indices.tolist(),
                        pairs.determinate.tolist(), pairs.labels,
                    )
                ],
            }
        )
    _write_json({"schema_version": 1, "totals": totals, "scenes": out_scenes}, args.out)
    return 0


def cmd_build_stats(args) -> int:
    dataset = load_dataset(args.dataset)
    stats = build_triplet_statistics(dataset.split("train"), dataset.vocabulary)
    _write_json(stats.to_json_dict(), args.out)
    return 0


def cmd_train(args) -> int:
    dataset = load_dataset(args.dataset)
    model_config = ModelConfig(
        predicate_count=dataset.vocabulary.predicate_count,
        object_count=dataset.vocabulary.object_count,
        visual_dim=dataset.features.dim,
        embedding_dim=dataset.embeddings.dim if dataset.embeddings is not None else 1,
        **_given(args, ModelConfig),
    )
    # A preset replaces RunConfig's default schedule; rate flags override either.
    schedule = SCHEDULE_PRESETS[args.preset] if args.preset else RunConfig.schedule
    run_config = make_run_config(
        model_config, schedule=replace(schedule, **_given(args, Schedule)), **_given(args, RunConfig)
    )
    FeatureExtractor.check_embeddings(required_streams(run_config.model), dataset.embeddings)
    parameters = sum(math.prod(shape) for shape in model_shapes(run_config.model).values())
    if parameters > MAX_ARRAY_VALUES:
        raise OutOfMemoryError(f"the model's {parameters} parameters do not fit in one array")
    out_dir = Path(args.out_dir)
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    result = run_training(dataset, run_config)
    checkpoint_path = out_dir / "checkpoint.bin"
    with _writing(out_dir):
        save_checkpoint(checkpoint_path, result.model.config, result.model.parameters())
        write_log(result.log_records, out_dir / "log.jsonl")
    final_loss = next(
        (r["loss"] for r in reversed(result.log_records) if "loss" in r), None
    )
    summary = {
        "checkpoint": str(checkpoint_path),
        "log": str(out_dir / "log.jsonl"),
        "steps": result.total_steps,
        "final_loss": final_loss,
        "best_validation_recall": result.best_validation_recall,
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_evaluate(args) -> int:
    options = _given(args, run_evaluation)
    if "n_values" in options:
        try:
            options["n_values"] = tuple(int(n) for n in args.n_values.split(","))
        except ValueError:
            raise UsageError(f"--n takes comma-separated integers, got {args.n_values!r}") from None
    dataset = load_dataset(args.dataset)
    model = load_model(args.checkpoint)
    _write_json(run_evaluation(dataset, model, **options), args.out)
    return 0


def cmd_predict(args) -> int:
    if args.top < 1:
        raise UsageError(f"--top must be >= 1, got {args.top}")
    dataset = load_dataset(args.dataset)
    model = load_model(args.checkpoint)
    check_model_compatibility(model.config, dataset)
    scenes = {s.image_id: s for s in dataset.scenes}
    if args.image_id not in scenes:
        raise UsageError(f"image id {args.image_id!r} not in dataset")
    scene = scenes[args.image_id]
    scorer = ModelScorer(model, build_extractor(dataset))
    result = predict_scene(
        scene, scorer, predicate_count=dataset.vocabulary.predicate_count,
        **_given(args, predict_scene),
    )
    vocab, top = dataset.vocabulary, result.top(args.top)
    columns = (top.subject_boxes, top.subject_categories, top.predicates, top.object_boxes,
               top.object_categories, top.scores)
    triplets = [
        {
            "subject_box": s,
            "subject": vocab.object_names[sc],
            "predicate": vocab.predicate_names[p],
            "object_box": o,
            "object": vocab.object_names[oc],
            "score": score,
        }
        for s, sc, p, o, oc, score in zip(*(column.tolist() for column in columns))
    ]
    _write_json({"image_id": scene.image_id, "predictions": triplets}, args.out)
    return 0


def cmd_gradcheck(args) -> int:
    if args.instances < 1:
        raise UsageError(f"--instances must be >= 1, got {args.instances}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    for flag, value in (("--step", args.step), ("--tolerance", args.tolerance)):
        if not 0 < value < math.inf:
            raise UsageError(f"{flag} must be positive and finite, got {value!r}")
    failures = 0
    worst = 0.0
    for instance in range(args.instances):
        rng = np.random.default_rng(args.seed + instance)
        config = ModelConfig(
            predicate_count=4,
            object_count=5,
            visual_dim=12,
            embedding_dim=6,
            transform_dim=7,
            dc_hidden_dim=5,
            rel_hidden_dim=9,
            im_mode=args.im,
        )
        model, features, labels, mask = make_gradient_check_problem(config, rng)
        _, _, grads = model.loss_and_gradients(features, labels, mask)
        report = gradient_check(
            lambda: model.loss(features, labels, mask),
            model.parameters(),
            grads,
            tolerance=args.tolerance,
            step=args.step,
        )
        worst = max(worst, report.max_error)
        status = "pass" if report.passed else "FAIL"
        print(f"instance {instance}: max relative error {report.max_error:.3e} [{status}]")
        if not report.passed:
            failures += 1
            print(f"  worst block: {report.worst_block}")
    print(
        f"gradcheck: {args.instances - failures}/{args.instances} instances passed "
        f"(worst {worst:.3e}, tolerance {args.tolerance:.1e})"
    )
    return 0 if failures == 0 else 1


class _Parser(argparse.ArgumentParser):
    """Reports a command line it cannot parse as a ``UsageError``, so it
    reaches the user as the JSON error object, not as argparse's exit 2."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="urelnet",
        description="Visual relationship detection with undetermined-relationship learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Where a flag sets a setting, its dest is the setting's name and it has
    # no default: the command passes on only the flags given (``_given``).
    unset = dict(argument_default=argparse.SUPPRESS)

    p = sub.add_parser("synth", help="generate a seeded synthetic dataset", **unset)
    p.add_argument("--out", required=True)
    p.add_argument("--objects", type=int, dest="object_count")
    p.add_argument("--predicates", type=int, dest="predicate_count")
    p.add_argument("--train", type=int, dest="train_scenes")
    p.add_argument("--val", type=int, dest="validation_scenes")
    p.add_argument("--test", type=int, dest="test_scenes")
    p.add_argument("--min-relations", type=int)
    p.add_argument("--max-relations", type=int)
    p.add_argument("--visual-dim", type=int)
    p.add_argument("--embedding-dim", type=int)
    p.add_argument("--box-jitter", type=float)
    p.add_argument("--label-flip-rate", type=float)
    p.add_argument("--miss-rate", type=float)
    p.add_argument("--spurious-rate", type=float)
    p.add_argument("--zero-shot-types", type=int)
    p.add_argument("--no-noise", action="store_true", default=False,
                   help="disable all detection noise")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("generate-pairs", help="classify detection pairs against annotations")
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", default=None, choices=SPLITS)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_generate_pairs)

    p = sub.add_parser("build-stats", help="count training triplet frequencies")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_build_stats)

    p = sub.add_parser("train", help="train a model", **unset)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--task", choices=TASKS)
    p.add_argument("--schedule", dest="preset", default=None, choices=tuple(SCHEDULE_PRESETS))
    p.add_argument("--base-lr", type=float)
    p.add_argument("--decay-rate", type=float)
    p.add_argument("--decay-interval", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--undetermined-ratio", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--transform-dim", type=int)
    p.add_argument("--dc-hidden-dim", type=int)
    p.add_argument("--rel-hidden-dim", type=int)
    p.add_argument("--modals", type=_names, dest="enabled_modals",
                   help="comma list, e.g. visual,spatial")
    p.add_argument("--fusion", dest="fusion_mode", choices=FUSION_MODES)
    p.add_argument("--dc-feed", choices=DC_FEEDS)
    p.add_argument("--dc-undetermined-weight", type=float)
    p.add_argument("--rel-undetermined-weight", type=float)
    p.add_argument("--dc-loss-weight", type=float)
    p.add_argument("--im", action="store_true", dest="im_mode", help="three-network inferring model")
    p.add_argument("--validation-interval", type=int)
    p.add_argument("--undetermined-cap", type=int, dest="per_scene_undetermined_cap",
                   help="max undetermined pairs kept per training scene")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="recall@N metrics report", **unset)
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--tasks", type=_names)
    p.add_argument("--n", dest="n_values", help="comma list of N")
    p.add_argument("--k", type=int)
    p.add_argument("--zero-shot", action="store_true")
    p.add_argument("--macro", action="store_true", dest="macro_average")
    p.add_argument("--split", choices=SPLITS)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="ranked triplets for one image", **unset)
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image-id", required=True)
    p.add_argument("--task", choices=TASKS)
    p.add_argument("--k", type=int)
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--step", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=100)
    p.add_argument("--im", action="store_true")
    p.set_defaults(func=cmd_gradcheck)
    return parser


# The starts of numpy's messages for a requested size beyond any array's.
_UNADDRESSABLE = ("Maximum allowed dimension exceeded", "Maximum allowed size exceeded",
                  "array is too big")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UrelnetError as exc:
        error = exc
    except MemoryError as exc:  # numpy's message names the size it could not allocate
        error = OutOfMemoryError(str(exc) or "memory allocation failed")
    except ValueError as exc:
        # numpy refuses a size that no array can have with a ValueError.
        if not str(exc).startswith(_UNADDRESSABLE):
            raise
        error = OutOfMemoryError(str(exc))
    print(
        json.dumps({"error": {"category": error.category, "message": str(error)}}),
        file=sys.stderr,
    )
    return 1


if __name__ == "__main__":
    sys.exit(main())
