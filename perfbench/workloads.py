"""Benchmark workloads: seeded inputs, the user's workflow over them, and
the checks on its outputs.

Every workload runs the same workflow, the one the ``urelnet`` commands
make up: synthesize and save a dataset, train and save a checkpoint and log,
evaluate, predict one image at a time, and verify gradients. The workloads
differ in the regime that workflow runs in (see README.md for why each was
chosen), so each end-to-end metric exists on every workload and is compared
with itself only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from urelnet import checkpoint, cli, dataset, evaluation, synthetic, training
from urelnet.experiment import EXPERIMENT_SCHEDULE
from urelnet.model import ModelConfig, build_model

N_VALUES = (50, 100)
TRAINING_SEED = 0
GRADCHECK_SEED_BASE = 100
GRADCHECK_TOLERANCE = 1e-4
ALL_TASKS = ("predicate", "phrase", "relation")

# The round-trip check is the benchmark's own work, not the workflow's: it
# calls these, taken before a traced run wraps the module's functions, so
# the checkpoint layer counts only the calls ``urelnet train`` makes.
_load_checkpoint = checkpoint.load_checkpoint
_save_checkpoint = checkpoint.save_checkpoint


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: Dict[str, object]  # SyntheticConfig fields besides the seed
    dims: Tuple[int, int, int]  # transform, dc hidden, rel hidden
    experiment_schedule: bool  # experiment learning-rate schedule, else the "vrd" preset
    train_steps: int
    tasks: Tuple[str, ...]
    zero_shot: bool
    # Costly phases, one entry per round in turn, on top of train, evaluate
    # and predict: "synth", and gradcheck instances "union" and "im".
    rotation: Tuple[Tuple[str, ...], ...]
    max_rounds: Optional[int] = None

    @property
    def gradcheck_im(self) -> Tuple[bool, ...]:
        """The gradcheck instance kinds the rotation runs (True for IM)."""
        extras = {phase for entry in self.rotation for phase in entry}
        return tuple(im for im, name in ((False, "union"), (True, "im")) if name in extras)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk",
            why="SyntheticConfig defaults at experiment dims: per-call overhead in training, 3-task zero-shot eval, union gradcheck",
            synth={},
            dims=(48, 24, 48),
            experiment_schedule=True,
            train_steps=600,
            tasks=ALL_TASKS,
            zero_shot=True,
            rotation=(("synth", "union"), ("union",)),
        ),
        Workload(
            name="full_dims",
            why="4096-d visual, 300-d embeddings, default dims (~9M params): the same nn code GEMM- and bandwidth-bound; union+IM gradcheck",
            # Five relations in every scene, not 4-6: with 32 scenes, the range
            # moved the seed's feature-vector count, and with it memory and
            # per-image time, by 0.07 IQR/median over 20 seeds; at five it is
            # 0.04.
            synth={
                "visual_dim": 4096, "embedding_dim": 300, "train_scenes": 8, "test_scenes": 24,
                "min_relations": 5, "max_relations": 5,
            },
            dims=(500, 100, 500),
            experiment_schedule=False,
            train_steps=8,
            tasks=("relation",),
            zero_shot=False,
            rotation=(("synth", "union"), ("synth", "im")),
        ),
    )
}


def tiny(workload: Workload) -> Workload:
    """The same workflow at smoke-test size: a few scenes, a few steps, one
    round with one union gradcheck instance."""
    synth = dict(workload.synth)
    synth.update(train_scenes=6, test_scenes=3)
    if synth.get("visual_dim", 24) > 64:
        synth.update(visual_dim=64, embedding_dim=16)
    dims = tuple(min(d, 16) for d in workload.dims)
    return replace(
        workload, synth=synth, dims=dims, train_steps=5, rotation=(("synth", "union"),), max_rounds=1,
    )


def warmup(workload: Workload) -> Workload:
    """A few scenes and steps at the workload's own dims, no gradcheck: runs
    every code path and GEMM shape once before measuring."""
    synth = dict(workload.synth, train_scenes=4, test_scenes=2)
    return replace(workload, synth=synth, train_steps=2, rotation=(("synth",),))


def synthetic_config(workload: Workload, seed: int) -> synthetic.SyntheticConfig:
    return synthetic.SyntheticConfig(seed=seed, **workload.synth)


def toy_param_count(im: bool) -> int:
    """Parameters verified by one ``urelnet gradcheck`` instance (its TOY dims)."""
    config = ModelConfig(
        predicate_count=4,
        object_count=5,
        visual_dim=12,
        embedding_dim=6,
        transform_dim=7,
        dc_hidden_dim=5,
        rel_hidden_dim=9,
        im_mode=im,
    )
    return sum(p.size for p in build_model(config, np.random.default_rng(0)).parameters().values())


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile: at 100 samples, q=90 leaves 10 beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Ledger:
    """Attempted and failed operations and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.by_kind: Dict[str, List[int]] = {}

    def record(self, kind: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        counts = self.by_kind.setdefault(kind, [0, 0])
        counts[0] += 1
        if not ok:
            self.failed += 1
            counts[1] += 1
            if len(self.failures) < 50:
                self.failures.append(f"{kind}: {detail}" if detail else kind)


class PoolBoundary:
    """Records when ``training.build_training_pool`` returns, which splits a
    ``run_training`` call into set-up and optimizer steps. This is the only
    wrapper in an untraced run."""

    def __init__(self):
        self.returned_at: Optional[float] = None
        self._original = None

    def install(self) -> None:
        original = self._original = training.build_training_pool

        def build_training_pool(*args, **kwargs):
            result = original(*args, **kwargs)
            self.returned_at = time.perf_counter()
            return result

        training.build_training_pool = build_training_pool

    def uninstall(self) -> None:
        training.build_training_pool = self._original


def _run_config(workload: Workload, data) -> training.RunConfig:
    transform, dc_hidden, rel_hidden = workload.dims
    model = ModelConfig(
        predicate_count=data.vocabulary.predicate_count,
        object_count=data.vocabulary.object_count,
        visual_dim=data.features.dim,
        embedding_dim=data.embeddings.dim,
        transform_dim=transform,
        dc_hidden_dim=dc_hidden,
        rel_hidden_dim=rel_hidden,
    )
    schedule = EXPERIMENT_SCHEDULE if workload.experiment_schedule else training.SCHEDULE_PRESETS["vrd"]
    return training.RunConfig(model=model, schedule=schedule, steps=workload.train_steps, seed=TRAINING_SEED)


def _check_checkpoint_round_trip(ledger: Ledger, path: Path, config, params, scratch: Path) -> None:
    loaded_config, loaded = _load_checkpoint(path)
    same = loaded_config == config and sorted(loaded) == sorted(params)
    same = same and all(
        loaded[name].shape == params[name].shape
        and loaded[name].tobytes() == np.ascontiguousarray(params[name]).tobytes()
        for name in params
    )
    _save_checkpoint(scratch, loaded_config, loaded)
    same = same and scratch.read_bytes() == path.read_bytes()
    ledger.record("check.checkpoint_round_trip", same, str(path))


def _check_report(ledger: Ledger, report: dict, workload: Workload) -> None:
    problems = []
    if report.get("schema_version") != 1:
        problems.append(f"schema_version {report.get('schema_version')!r}")
    for task in workload.tasks:
        block = report.get("tasks", {}).get(task)
        if block is None:
            problems.append(f"task {task} missing")
            continue
        recalls = [block.get("recall", {})]
        if workload.zero_shot:
            zero_shot = block.get("zero_shot", {})
            if "error" not in zero_shot:
                recalls.append(zero_shot)
        for recall in recalls:
            for n in N_VALUES:
                value = recall.get(str(n))
                if not isinstance(value, float) or not 0.0 <= value <= 1.0:
                    problems.append(f"{task} R@{n} = {value!r}")
    ledger.record("check.report_schema", not problems, "; ".join(problems))


class Run:
    """One benchmark run of a workload: its directories, its outputs, and
    one method per phase of the workflow. Each method call is one sample."""

    def __init__(self, workload: Workload, seed: int, run_dir: Path, ledger: Ledger, boundary: PoolBoundary, tracer=None):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.data_dir = run_dir / "data"
        self.ledger = ledger
        self.boundary = boundary
        self.tracer = tracer
        self.checkpoint: Optional[Path] = None
        self._loaded = None  # what the last evaluate loaded, for predict
        self.digests: Dict[str, set] = {"checkpoint": set(), "log": set(), "report": set()}
        self.relation_r50: Optional[float] = None
        self.synth_sizes: dict = {}
        self._count = 0

    def _op(self) -> None:
        if self.tracer is not None:
            self.tracer.next_op()

    def _out_dir(self, kind: str) -> Path:
        self._count += 1
        out = self.run_dir / f"{kind}{self._count}"
        out.mkdir(parents=True, exist_ok=True)
        return out

    def synth(self) -> float:
        """``urelnet synth``: seconds to generate and save the dataset."""
        self._op()
        start = time.perf_counter()
        data = synthetic.generate_synthetic(synthetic_config(self.workload, self.seed))
        dataset.save_dataset(data, self.data_dir)
        elapsed = time.perf_counter() - start
        self.synth_sizes = {"scenes": len(data.scenes), "feature_vectors": len(data.features)}
        return elapsed

    def train(self) -> Optional[Tuple[float, float]]:
        """``urelnet train``: (set-up seconds, optimizer steps per second).
        Set-up is loading the dataset and everything up to the return of
        build_training_pool; None, and a failed operation, if that return
        was not seen."""
        self._op()
        self.boundary.returned_at = None
        start = time.perf_counter()
        data = dataset.load_dataset(self.data_dir)
        result = training.run_training(data, _run_config(self.workload, data))
        end = time.perf_counter()
        boundary = self.boundary.returned_at
        ledger = self.ledger
        ledger.record("op.training_run", boundary is not None, "build_training_pool did not return inside run_training")
        timing = None if boundary is None else (boundary - start, result.total_steps / (end - boundary))
        values = [v for r in result.log_records for k, v in r.items() if k != "step"]
        ledger.record("check.losses_finite", all(math.isfinite(v) for v in values))
        out = self._out_dir("train")
        ckpt, log = out / "checkpoint.bin", out / "log.jsonl"
        model = result.model
        checkpoint.save_checkpoint(ckpt, model.config, model.parameters())
        training.write_log(result.log_records, log)
        _check_checkpoint_round_trip(ledger, ckpt, model.config, model.parameters(), out / "resaved.bin")
        self.digests["checkpoint"].add(sha256_file(ckpt))
        self.digests["log"].add(sha256_file(log))
        if self.checkpoint is None:
            self.checkpoint = ckpt
        return timing

    def _load_for_inference(self):
        data = dataset.load_dataset(self.data_dir)
        model = checkpoint.load_model(self.checkpoint)
        return data, model, training.build_extractor(data)

    def evaluate(self) -> Tuple[float, float]:
        """``urelnet evaluate``: (set-up seconds, test scenes per second).
        Set-up is load_dataset + load_model + build_extractor."""
        w = self.workload
        self._op()
        start = time.perf_counter()
        data, model, extractor = self._loaded = self._load_for_inference()
        eval_start = time.perf_counter()
        report = training.run_evaluation(data, model, tasks=w.tasks, n_values=N_VALUES, k=1, zero_shot=w.zero_shot)
        scenes_per_s = len(data.split("test")) / (time.perf_counter() - eval_start)
        for _ in range(len(w.tasks) * (2 if w.zero_shot else 1)):
            self.ledger.record("op.evaluation_task_block", True)
        _check_report(self.ledger, report, w)
        path = self._out_dir("eval") / "report.json"
        path.write_text(json.dumps(report, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        self.digests["report"].add(sha256_file(path))
        self.relation_r50 = report["tasks"].get("relation", {}).get("recall", {}).get("50")
        return eval_start - start, scenes_per_s

    def predict(self) -> List[float]:
        """``urelnet predict`` once its data is loaded (by the last
        evaluate): milliseconds per image, one caller in a closed loop over
        every test image in turn."""
        data, model, extractor = self._loaded
        self._loaded = None
        scorer = evaluation.ModelScorer(model, extractor)
        scenes, predicate_count = data.split("test"), data.vocabulary.predicate_count
        samples: List[float] = []
        for scene in scenes:
            self._op()
            start = time.perf_counter()
            prediction = evaluation.predict_scene(scene, scorer, task="relation", k=1, predicate_count=predicate_count)
            samples.append(1e3 * (time.perf_counter() - start))
            scores = [t.score for t in prediction.triplets]
            self.ledger.record("op.predict", True)
            self.ledger.record("check.predict_sorted", all(a >= b for a, b in zip(scores, scores[1:])), scene.image_id)
        return samples

    def gradcheck(self, im: bool) -> float:
        """One ``urelnet gradcheck`` instance at the CLI's TOY dims, union or
        IM (the seed differs by kind): seconds."""
        argv = ["gradcheck", "--instances", "1", "--seed", str(GRADCHECK_SEED_BASE + self.seed + int(im))]
        argv += ["--step", "1e-6", "--tolerance", str(GRADCHECK_TOLERANCE)] + (["--im"] if im else [])
        out = io.StringIO()
        self._op()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        seconds = time.perf_counter() - start
        summary = out.getvalue().strip().splitlines()[-1]
        passed = re.match(r"gradcheck: 1/1 instances passed .*tolerance 1\.0e-04\)$", summary)
        self.ledger.record("op.gradcheck_instance", code == 0 and passed is not None, summary)
        return seconds

    def check_digests(self) -> None:
        """Outputs of one seed are bit-identical however often they are made."""
        ok = all(len(found) == 1 for found in self.digests.values())
        self.ledger.record("check.digests_identical", ok, json.dumps({k: sorted(v) for k, v in self.digests.items()}))


def _new_samples() -> dict:
    return {"synth_s": [], "train": [], "eval": [], "predict_ms": [], "gradcheck": {False: [], True: []}}


def _round(run: Run, samples: dict, extras: Tuple[str, ...]) -> None:
    """One round of the workflow: the given costly phases (synth first),
    then train, evaluate and a predict block."""
    if "synth" in extras:
        samples["synth_s"].append(run.synth())
    timing = run.train()
    if timing is not None:
        samples["train"].append(timing)
    samples["eval"].append(run.evaluate())
    samples["predict_ms"].append(run.predict())
    for im, name in ((False, "union"), (True, "im")):
        if name in extras:
            samples["gradcheck"][im].append(run.gradcheck(im))


def measure(run: Run, deadline: float) -> dict:
    """Rounds until the next one would end after ``deadline`` (a
    ``time.perf_counter`` value), going by the last round with the same
    costly phases; at least one round per rotation entry. Each round adds
    one entry of the rotation to the cheap phases, so the costly ones (desk
    synthesis, the IM gradcheck instance) do not crowd out samples of the
    others. When the next entry no longer fits, the time left goes to the
    cheap phases alone."""
    w = run.workload
    samples = _new_samples()
    rounds, took = 0, {}
    while w.max_rounds is None or rounds < w.max_rounds:
        extras = w.rotation[rounds % len(w.rotation)]
        start = time.perf_counter()
        if rounds >= len(w.rotation) and start + took[extras] > deadline:
            extras = ()
            if start + took.get(extras, min(took.values())) > deadline:
                break
        _round(run, samples, extras)
        took[extras] = time.perf_counter() - start
        rounds += 1
    samples["rounds"] = rounds
    return samples


def single_pass(run: Run) -> dict:
    """One round with every costly phase of the rotation (the traced pass
    and its untraced twin)."""
    samples = _new_samples()
    _round(run, samples, tuple(phase for entry in run.workload.rotation for phase in entry))
    samples["rounds"] = 1
    return samples


def end_to_end(import_s: float, samples: dict) -> dict:
    """End-to-end values, each a median over the run's samples: setup_s is
    the median import plus the median set-up of ``urelnet train``; rates
    are the median sample; the gradcheck rate is one instance of each kind
    the workload runs, each at its median time. Each test image's latency
    is the median of its calls (one per round), and the predict percentiles
    are nearest-rank over the images. So p90 is the tail of the seed's
    images, not of the host: a slow spell on the shared host moves the
    calls it hits, and an image's median only if it hits most of them."""
    if not samples["train"]:
        raise RuntimeError("no training run was timed")
    median = statistics.median
    gradcheck = {im: s for im, s in samples["gradcheck"].items() if s}
    image_ms = [median(calls) for calls in zip(*samples["predict_ms"])]
    return {
        "setup_s": import_s + median([s for s, _ in samples["train"]]),
        "synth_s": median(samples["synth_s"]),
        "train_steps_per_s": median([r for _, r in samples["train"]]),
        "eval_scenes_per_s": median([r for _, r in samples["eval"]]),
        "predict_ms_p50": percentile(image_ms, 50),
        "predict_ms_p90": percentile(image_ms, 90),
        "gradcheck_params_per_s": sum(map(toy_param_count, gradcheck)) / sum(median(s) for s in gradcheck.values()),
    }
