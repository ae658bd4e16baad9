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
from pathlib import Path

import numpy as np

from .checkpoint import load_model, save_checkpoint
from .dataset import load_dataset, save_dataset
from .errors import OutOfMemoryError, OutputError, UrelnetError, UsageError
from .evaluation import ModelScorer, predict_scene
from .features import FeatureExtractor, build_triplet_statistics
from .model import ALL_MODALS, ModelConfig, make_gradient_check_problem, required_streams
from .nn import gradient_check
from .pairs import generate_for_scene
from .synthetic import SyntheticConfig, generate_synthetic
from .training import (
    SCHEDULE_PRESETS,
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


def cmd_synth(args) -> int:
    config = SyntheticConfig(
        object_count=args.objects,
        predicate_count=args.predicates,
        train_scenes=args.train,
        validation_scenes=args.val,
        test_scenes=args.test,
        min_relations=args.min_relations,
        max_relations=args.max_relations,
        visual_dim=args.visual_dim,
        embedding_dim=args.embedding_dim,
        box_jitter=0.0 if args.no_noise else args.box_jitter,
        label_flip_rate=0.0 if args.no_noise else args.label_flip_rate,
        miss_rate=0.0 if args.no_noise else args.miss_rate,
        spurious_rate=0.0 if args.no_noise else args.spurious_rate,
        zero_shot_types=args.zero_shot_types,
        seed=args.seed,
    )
    dataset = generate_synthetic(config)
    with _writing(args.out):
        save_dataset(dataset, args.out)
    counts = {split: len(dataset.split(split)) for split in ("train", "validation", "test")}
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


def _model_config_from_args(args, dataset) -> ModelConfig:
    modals = tuple(args.modals.split(",")) if args.modals is not None else ALL_MODALS
    return ModelConfig(
        predicate_count=dataset.vocabulary.predicate_count,
        object_count=dataset.vocabulary.object_count,
        visual_dim=dataset.features.dim,
        embedding_dim=dataset.embeddings.dim if dataset.embeddings is not None else 1,
        transform_dim=args.transform_dim,
        dc_hidden_dim=args.dc_hidden_dim,
        rel_hidden_dim=args.rel_hidden_dim,
        enabled_modals=modals,
        fusion_mode=args.fusion,
        dc_feed=args.dc_feed,
        dc_undetermined_weight=args.dc_undetermined_weight,
        rel_undetermined_weight=args.rel_undetermined_weight,
        dc_loss_weight=args.dc_loss_weight,
        im_mode=args.im,
    )


def cmd_train(args) -> int:
    dataset = load_dataset(args.dataset)
    model_config = _model_config_from_args(args, dataset)
    if args.schedule:
        schedule = SCHEDULE_PRESETS[args.schedule]
    else:
        schedule = Schedule(args.base_lr, args.decay_rate, args.decay_interval)
    overrides = dict(
        batch_size=args.batch_size,
        schedule=schedule,
        epochs=args.epochs,
        steps=args.steps,
        seed=args.seed,
        validation_interval=args.validation_interval,
        per_scene_undetermined_cap=args.undetermined_cap,
    )
    if args.undetermined_ratio is not None:
        overrides["undetermined_ratio"] = args.undetermined_ratio
    run_config = make_run_config(model_config, task=args.task, **overrides)
    FeatureExtractor.check_embeddings(required_streams(run_config.model), dataset.embeddings)
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
    try:
        n_values = tuple(int(n) for n in args.n.split(","))
    except ValueError:
        raise UsageError(f"--n takes comma-separated integers, got {args.n!r}") from None
    dataset = load_dataset(args.dataset)
    model = load_model(args.checkpoint)
    report = run_evaluation(
        dataset,
        model,
        tasks=tuple(args.tasks.split(",")),
        n_values=n_values,
        k=args.k,
        zero_shot=args.zero_shot,
        macro_average=args.macro,
        split=args.split,
    )
    _write_json(report, args.out)
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
        scene,
        scorer,
        task=args.task,
        k=args.k,
        predicate_count=dataset.vocabulary.predicate_count,
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urelnet",
        description="Visual relationship detection with undetermined-relationship learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a seeded synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--objects", type=int, default=20)
    p.add_argument("--predicates", type=int, default=8)
    p.add_argument("--train", type=int, default=400)
    p.add_argument("--val", type=int, default=0)
    p.add_argument("--test", type=int, default=100)
    p.add_argument("--min-relations", type=int, default=4)
    p.add_argument("--max-relations", type=int, default=6)
    p.add_argument("--visual-dim", type=int, default=24)
    p.add_argument("--embedding-dim", type=int, default=16)
    p.add_argument("--box-jitter", type=float, default=0.08)
    p.add_argument("--label-flip-rate", type=float, default=0.05)
    p.add_argument("--miss-rate", type=float, default=0.03)
    p.add_argument("--spurious-rate", type=float, default=2.0)
    p.add_argument("--zero-shot-types", type=int, default=5)
    p.add_argument("--no-noise", action="store_true", help="disable all detection noise")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("generate-pairs", help="classify detection pairs against annotations")
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", default=None, choices=("train", "validation", "test"))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_generate_pairs)

    p = sub.add_parser("build-stats", help="count training triplet frequencies")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_build_stats)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--task", default="relation", choices=("predicate", "phrase", "relation"))
    p.add_argument("--schedule", default=None, choices=tuple(SCHEDULE_PRESETS))
    p.add_argument("--base-lr", type=float, default=3e-4)
    p.add_argument("--decay-rate", type=float, default=0.5)
    p.add_argument("--decay-interval", type=int, default=4000)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--undetermined-ratio", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--transform-dim", type=int, default=500)
    p.add_argument("--dc-hidden-dim", type=int, default=100)
    p.add_argument("--rel-hidden-dim", type=int, default=500)
    p.add_argument("--modals", default=None, help="comma list, e.g. visual,spatial")
    p.add_argument("--fusion", default="transforming", choices=("transforming", "concatenating"))
    p.add_argument("--dc-feed", default="probability", choices=("probability", "hidden"))
    p.add_argument("--dc-undetermined-weight", type=float, default=1.0)
    p.add_argument("--rel-undetermined-weight", type=float, default=0.5)
    p.add_argument("--dc-loss-weight", type=float, default=1.0)
    p.add_argument("--im", action="store_true", help="three-network inferring model")
    p.add_argument("--validation-interval", type=int, default=None)
    p.add_argument("--undetermined-cap", type=int, default=None,
                   help="max undetermined pairs kept per training scene")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="recall@N metrics report")
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--tasks", default="relation")
    p.add_argument("--n", default="50,100")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--zero-shot", action="store_true")
    p.add_argument("--macro", action="store_true")
    p.add_argument("--split", default="test", choices=("train", "validation", "test"))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="ranked triplets for one image")
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image-id", required=True)
    p.add_argument("--task", default="relation", choices=("predicate", "phrase", "relation"))
    p.add_argument("--k", type=int, default=1)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UrelnetError as exc:
        error = exc
    except MemoryError as exc:  # numpy's message names the size it could not allocate
        error = OutOfMemoryError(str(exc) or "memory allocation failed")
    print(
        json.dumps({"error": {"category": error.category, "message": str(error)}}),
        file=sys.stderr,
    )
    return 1


if __name__ == "__main__":
    sys.exit(main())
