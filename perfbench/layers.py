"""Per-layer metrics of a traced run: what each module did, its self time,
the wasted-work counts with their bases, and identities the code fixes.

Layers are urelnet's modules. Counts are taken by observers that run after
each traced call (see tracing.Tracer.install).
"""

from __future__ import annotations

import os
from pathlib import Path

from tracing import FINITE_DIFFERENCES, RUN_EVALUATION, RUN_TRAINING, TIMED

MAX_N = 100  # the largest N the workloads evaluate

# Timed functions that every workload reaches. The rest (InferringModel,
# gt_pairs_for_scene) are reached on some workloads only and are reported
# in the detail record.
EVERY_WORKLOAD = tuple(
    f"{module}.{name}"
    for module, names in TIMED.items()
    for name in names
    if not name.startswith("InferringModel.") and name != "gt_pairs_for_scene"
)

NAMED = (
    # name, unit, better
    ("synthetic.scenes", "count", "lower"),
    ("synthetic.feature_vectors", "count", "lower"),
    ("dataset.feature_rows_loaded", "count", "lower"),
    ("dataset.bytes_read", "bytes", "lower"),
    ("checkpoint.bytes_written", "bytes", "lower"),
    ("checkpoint.blocks_written", "count", "lower"),
    ("scene.calls_per_pair", "ratio", "lower"),
    ("pairs.pairs_produced", "count", "lower"),
    ("pairs.determinate_share", "fraction", "higher"),
    ("pairs.generate_for_scene.calls_per_scene", "ratio", "lower"),
    ("features.rows_per_matrix_call", "count", "higher"),
    ("features.bytes_gathered_per_step", "bytes", "lower"),
    ("nn.adam_blocks_per_step", "count", "lower"),
    ("nn.adam_params_per_step", "count", "lower"),
    ("nn.gemm_flops_per_call", "flop", "higher"),
    ("model.backward.calls_per_loss_eval", "ratio", "lower"),
    ("training.steps", "count", "higher"),
    ("evaluation.predict_scene.calls_per_scene", "ratio", "lower"),
    ("evaluation.triplets_ranked_per_read", "ratio", "lower"),
    ("evaluation.relation_r50", "fraction", "higher"),
    ("trace.overhead_pass_wall", "ratio", "lower"),
)


def per_layer_spec() -> list:
    """Names, units and directions of the per-layer metrics, in report order."""
    spec = []
    for span in EVERY_WORKLOAD:
        spec.append((f"{span}.calls", "count", "lower"))
        spec.append((f"{span}.self_s", "s", "lower"))
    spec.append(("scene.union_box.calls", "count", "lower"))
    spec.append(("scene.iou.calls", "count", "lower"))
    for module in TIMED:
        spec.append((f"{module}.self_s", "s", "lower"))
    spec.extend(NAMED)
    return spec


def _dir_bytes(path) -> int:
    path = Path(path)
    root = path if path.is_dir() else path.parent
    return sum(f.stat().st_size for f in root.iterdir() if f.is_file())


def observers() -> dict:
    """Callbacks(tracer, args, kwargs, result, self_s) keyed by span name."""

    def synth(t, args, kwargs, result, own):
        t.counts["synthetic.scenes"] += len(result.scenes)
        t.counts["synthetic.feature_vectors"] += len(result.features)

    def load_dataset(t, args, kwargs, result, own):
        t.counts["dataset.feature_rows_loaded"] += len(result.features)
        t.counts["dataset.bytes_read"] += _dir_bytes(args[0])

    def save_checkpoint(t, args, kwargs, result, own):
        t.counts["checkpoint.bytes_written"] += os.path.getsize(args[0])
        t.counts["checkpoint.blocks_written"] += len(args[2])

    def generate_for_scene(t, args, kwargs, result, own):
        t.counts["pairs.pairs_produced"] += len(result)
        t.counts["pairs.determinate"] += sum(p.determinate for p in result)
        if t.active[RUN_EVALUATION]:
            t.counts["pairs.generate_for_scene.calls_in_evaluation"] += 1

    def gt_pairs(t, args, kwargs, result, own):
        t.counts["pairs.gt_pairs_produced"] += len(result)

    def matrix(t, args, kwargs, result, own):
        t.counts["features.matrix_rows"] += result.count

    def rows(t, args, kwargs, result, own):
        if t.active[RUN_TRAINING]:
            t.counts["features.bytes_gathered_in_training"] += sum(
                v.nbytes for v in result.streams.values()
            )

    def dense(direction):
        def observe(t, args, kwargs, result, own):
            layer, array = args[0], args[1]
            batch = array.shape[0]
            t.counts["nn.gemm_calls"] += 1
            # Forward is one GEMM; backward is two (weight and input gradients).
            gemms = 1 if direction == "forward" else 2
            t.counts["nn.gemm_flops"] += 2 * gemms * batch * layer.in_dim * layer.out_dim
            if t.active[RUN_TRAINING]:
                name = t.layer_names.get(layer, "?")
                key = (direction, name, batch, layer.in_dim, layer.out_dim, layer.activation)
                t.keyed_calls[key] += 1
                t.keyed_s[key] += own
                if name.startswith("union."):
                    t.counts[f"nn.DenseLayer.{direction}.union_calls_in_training"] += 1

        return observe

    def adam(t, args, kwargs, result, own):
        t.counts["nn.adam_blocks"] += len(args[0])
        t.counts["nn.adam_params"] += sum(p.size for p in args[0].values())

    def finite_differences(t, args, kwargs, result, own):
        params = args[1]
        size = sum(p.size for p in params.values())
        networks = 3 if any(name.startswith("subject.") for name in params) else 1
        t.counts["nn.finite_difference_params"] += size
        t.counts["nn.finite_difference_loss_evals"] += 2 * size
        t.counts["nn.finite_difference_network_evals"] += 2 * size * networks

    def network(direction):
        def observe(t, args, kwargs, result, own):
            if t.active[FINITE_DIFFERENCES]:
                t.counts[f"model.RelationNetwork.{direction}.calls_in_finite_differences"] += 1

        return observe

    def run_training(t, args, kwargs, result, own):
        t.counts["training.steps"] += result.total_steps
        t.counts["training.model_layers"] += len(result.model.layers)
        t.counts["training.runs"] += 1

    def predict(t, args, kwargs, result, own):
        if t.active[RUN_EVALUATION]:
            ranked = len(result.triplets)
            t.counts["evaluation.predict_scene.calls_in_evaluation"] += 1
            t.counts["evaluation.triplets_ranked_in_evaluation"] += ranked
            t.counts["evaluation.triplets_read_in_evaluation"] += min(ranked, MAX_N)

    def run_evaluation(t, args, kwargs, result, own):
        t.counts["evaluation.scenes_evaluated"] += len(args[0].split(kwargs.get("split", "test")))

    return {
        "synthetic.generate_synthetic": synth,
        "dataset.load_dataset": load_dataset,
        "checkpoint.save_checkpoint": save_checkpoint,
        "pairs.generate_for_scene": generate_for_scene,
        "pairs.gt_pairs_for_scene": gt_pairs,
        "features.FeatureExtractor.matrix": matrix,
        "features.FeatureMatrix.rows": rows,
        "nn.DenseLayer.forward": dense("forward"),
        "nn.DenseLayer.backward": dense("backward"),
        "nn.adam_step": adam,
        "nn.finite_difference_gradients": finite_differences,
        "model.RelationNetwork.forward": network("forward"),
        "model.RelationNetwork.backward": network("backward"),
        "training.run_training": run_training,
        "training.run_evaluation": run_evaluation,
        "evaluation.predict_scene": predict,
    }


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def summarize(tracer, overhead: float, relation_r50: float) -> tuple:
    """(per-layer metric values, named counts with their bases)."""
    c = tracer.counts
    calls = tracer.calls
    steps = c["training.steps"]
    scenes = c["evaluation.scenes_evaluated"]
    pairs_classified = c["pairs.pairs_produced"] + c["pairs.gt_pairs_produced"]
    scene_calls = calls["scene.union_box"] + calls["scene.iou"]
    named = {
        "synthetic.scenes": (c["synthetic.scenes"], "scenes generated"),
        "synthetic.feature_vectors": (c["synthetic.feature_vectors"], "feature vectors written"),
        "dataset.feature_rows_loaded": (c["dataset.feature_rows_loaded"], f"{calls['dataset.load_dataset']} load_dataset calls"),
        "dataset.bytes_read": (c["dataset.bytes_read"], f"{calls['dataset.load_dataset']} load_dataset calls"),
        "checkpoint.bytes_written": (c["checkpoint.bytes_written"], f"{calls['checkpoint.save_checkpoint']} save_checkpoint calls"),
        "checkpoint.blocks_written": (c["checkpoint.blocks_written"], f"{calls['checkpoint.save_checkpoint']} save_checkpoint calls"),
        "scene.calls_per_pair": (
            _ratio(scene_calls, pairs_classified + c["features.matrix_rows"]),
            f"{scene_calls} union_box+iou calls over {pairs_classified} pairs classified + {c['features.matrix_rows']} rows featurized",
        ),
        "pairs.pairs_produced": (pairs_classified, "detection and ground-truth pairs built"),
        "pairs.determinate_share": (
            _ratio(c["pairs.determinate"], c["pairs.pairs_produced"]),
            f"{c['pairs.determinate']} determinate of {c['pairs.pairs_produced']} detection pairs",
        ),
        "pairs.generate_for_scene.calls_per_scene": (
            _ratio(c["pairs.generate_for_scene.calls_in_evaluation"], scenes),
            f"{c['pairs.generate_for_scene.calls_in_evaluation']} calls inside run_evaluation over {scenes} scenes (1 needed)",
        ),
        "features.rows_per_matrix_call": (
            _ratio(c["features.matrix_rows"], calls["features.FeatureExtractor.matrix"]),
            f"{c['features.matrix_rows']} rows over {calls['features.FeatureExtractor.matrix']} matrix calls",
        ),
        "features.bytes_gathered_per_step": (
            _ratio(c["features.bytes_gathered_in_training"], steps),
            f"{c['features.bytes_gathered_in_training']} bytes over {steps} steps",
        ),
        "nn.adam_blocks_per_step": (
            _ratio(c["nn.adam_blocks"], calls["nn.adam_step"]),
            f"{c['nn.adam_blocks']} blocks over {calls['nn.adam_step']} adam_step calls",
        ),
        "nn.adam_params_per_step": (
            _ratio(c["nn.adam_params"], calls["nn.adam_step"]),
            f"{c['nn.adam_params']} params over {calls['nn.adam_step']} adam_step calls",
        ),
        "nn.gemm_flops_per_call": (
            _ratio(c["nn.gemm_flops"], c["nn.gemm_calls"]),
            f"{c['nn.gemm_flops']} flops over {c['nn.gemm_calls']} DenseLayer forward+backward calls",
        ),
        "model.backward.calls_per_loss_eval": (
            _ratio(
                c["model.RelationNetwork.backward.calls_in_finite_differences"],
                c["nn.finite_difference_network_evals"],
            ),
            f"{c['model.RelationNetwork.backward.calls_in_finite_differences']} network backward calls over "
            f"{c['nn.finite_difference_network_evals']} network loss evaluations in finite differences (0 needed)",
        ),
        "training.steps": (steps, f"{c['training.runs']} run_training calls"),
        "evaluation.predict_scene.calls_per_scene": (
            _ratio(c["evaluation.predict_scene.calls_in_evaluation"], scenes),
            f"{c['evaluation.predict_scene.calls_in_evaluation']} calls inside run_evaluation over {scenes} scenes (2 needed with all tasks)",
        ),
        "evaluation.triplets_ranked_per_read": (
            _ratio(c["evaluation.triplets_ranked_in_evaluation"], c["evaluation.triplets_read_in_evaluation"]),
            f"{c['evaluation.triplets_ranked_in_evaluation']} triplets ranked, "
            f"{c['evaluation.triplets_read_in_evaluation']} read at max N = {MAX_N}",
        ),
        "evaluation.relation_r50": (relation_r50, "relation R@50 of the traced pass's report"),
        "trace.overhead_pass_wall": (overhead, "traced pass wall time over the untraced pass's"),
    }
    values = {}
    for span in EVERY_WORKLOAD:
        values[f"{span}.calls"] = calls[span]
        values[f"{span}.self_s"] = tracer.self_s[span]
    values["scene.union_box.calls"] = calls["scene.union_box"]
    values["scene.iou.calls"] = calls["scene.iou"]
    totals = tracer.module_totals()
    for module in TIMED:
        values[f"{module}.self_s"] = totals.get(module, {}).get("self_s", 0.0)
    for name, (value, _) in named.items():
        values[name] = value
    return values, {name: {"value": v, "base": base} for name, (v, base) in named.items()}


def identities(tracer, layers_per_model: int, expected_fd_params: int) -> dict:
    """Identities the code fixes, each as (observed, expected)."""
    c = tracer.counts
    calls = tracer.calls
    steps = c["training.steps"]
    return {
        "union DenseLayer.forward calls in run_training = layers x steps": (
            c["nn.DenseLayer.forward.union_calls_in_training"], layers_per_model * steps),
        "union DenseLayer.backward calls in run_training = layers x steps": (
            c["nn.DenseLayer.backward.union_calls_in_training"], layers_per_model * steps),
        "adam_step calls = steps": (calls["nn.adam_step"], steps),
        "Adam blocks = 2 x layers x steps": (c["nn.adam_blocks"], 2 * layers_per_model * steps),
        "FeatureMatrix.rows calls = steps": (calls["features.FeatureMatrix.rows"], steps),
        "save_checkpoint calls = training runs": (calls["checkpoint.save_checkpoint"], c["training.runs"]),
        "parameters finite-differenced = gradcheck parameters": (
            c["nn.finite_difference_params"], expected_fd_params),
        "network forward calls in finite differences = 2 x params x networks": (
            c["model.RelationNetwork.forward.calls_in_finite_differences"],
            c["nn.finite_difference_network_evals"]),
    }


def training_shapes(tracer) -> list:
    """Distinct GEMM shapes of the training step, with traced µs per call."""
    shapes = {}
    for key, count in tracer.keyed_calls.items():
        direction, name, batch, in_dim, out_dim, activation = key
        entry = shapes.setdefault(
            key[1:],
            {"layer": name, "batch": batch, "in": in_dim, "out": out_dim, "activation": activation},
        )
        entry[f"traced_{direction}_us"] = 1e6 * tracer.keyed_s[key] / count
        entry[f"{direction}_calls"] = count
    return sorted(shapes.values(), key=lambda e: e["layer"])
