"""Span tracing around urelnet's public functions, installed from outside.

The tracer replaces each listed function with a wrapper everywhere the name
is looked up: in the defining module, in every urelnet module that imported
it by name, and on the class for methods. Spans (name, start, end, parent
span, operation id) are kept in memory and written out when the run ends.
A span's self time is its duration minus the time its child spans cover.
Nothing in the package itself changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import weakref
from collections import Counter, defaultdict

# Functions timed per module, as the module's own names.
TIMED = {
    "synthetic": ("generate_synthetic",),
    "dataset": ("load_dataset", "save_dataset"),
    "checkpoint": ("save_checkpoint", "load_checkpoint", "load_model"),
    "pairs": ("generate_for_scene", "gt_pairs_for_scene", "PairSampler.sample_batch"),
    "features": (
        "build_triplet_statistics",
        "FeatureExtractor.matrix",
        "FeatureMatrix.rows",
        "FeatureMatrix.concatenate",
    ),
    "nn": (
        "DenseLayer.forward",
        "DenseLayer.backward",
        "adam_step",
        "finite_difference_gradients",
        "gradient_check",
    ),
    "model": (
        "RelationNetwork.forward",
        "RelationNetwork.backward",
        "RelationNetwork.loss_and_gradients",
        "RelationNetwork.relation_scores",
        "InferringModel.forward",
        "InferringModel.loss_and_gradients",
        "InferringModel.relation_scores",
        "joint_loss",
        "joint_loss_gradients",
    ),
    "training": ("build_extractor", "build_training_pool", "run_training", "run_evaluation"),
    "evaluation": (
        "evaluate_scenes",
        "predict_scene",
        "ModelScorer.__call__",
        "candidate_pairs",
        "match_predictions",
        "recall_at_n",
    ),
    "cli": ("main",),
}

# Functions too small and frequent to time: calls are counted only.
COUNTED = {"scene": ("union_box", "iou")}

# Enclosing spans that some counts are attributed to.
RUN_EVALUATION = "training.run_evaluation"
RUN_TRAINING = "training.run_training"
FINITE_DIFFERENCES = "nn.finite_difference_gradients"


def _owner_and_attr(module, qualname):
    parts = qualname.split(".")
    owner = module
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Records spans and counts; install() patches, uninstall() restores."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.spans: list = []
        self._stack: list = []
        self.active: Counter = Counter()
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.keyed_calls: Counter = Counter()
        self.keyed_s: defaultdict = defaultdict(float)
        self.op = 0
        self.layer_names = weakref.WeakKeyDictionary()
        self._patches: list = []

    # -- operations ---------------------------------------------------------

    def next_op(self) -> int:
        """Start a new top-level operation; later spans carry its id."""
        self.op += 1
        return self.op

    # -- wrappers -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def timed(self, name, fn, observe=None):
        nid = self._name_id(name)
        stack, spans, active = self._stack, self.spans, self.active
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                duration = end - start
                own = duration - frame[1]
                spans[index] = (nid, start, end, parent, self.op)
                self.calls[name] += 1
                self.self_s[name] += own
                if stack:
                    stack[-1][1] += duration
            if observe is not None:
                observe(self, args, kwargs, result, own)
            return result

        return wrapper

    def counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _install_function(self, module_name, qualname, make):
        module = importlib.import_module(f"urelnet.{module_name}")
        owner, attr = _owner_and_attr(module, qualname)
        if isinstance(owner, type):
            raw = vars(owner)[attr]  # a KeyError here means the package renamed it
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(make(raw.__func__)))
            else:
                self._patch(owner, attr, make(raw))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        # Patch every urelnet namespace that bound the name at import time.
        for name, mod in list(sys.modules.items()):
            if name == "urelnet" or name.startswith("urelnet."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _register_layers(self, model) -> None:
        networks = getattr(model, "networks", None) or {"union": model}
        for role, net in networks.items():
            for name, layer in net.layers.items():
                self.layer_names[layer] = f"{role}.{name}"

    def install(self, observers=None) -> None:
        """Wrap every function in TIMED and COUNTED. ``observers`` maps a span
        name to a callback(tracer, args, kwargs, result, self_s) that adds
        counts after each call."""
        observers = observers or {}

        def registering(build):
            def wrapper(*args, **kwargs):
                model = build(*args, **kwargs)
                self._register_layers(model)
                return model

            return wrapper

        # Layer names for the per-layer GEMM table; registration, not timing.
        self._install_function("model", "build_model", registering)
        for module_name, names in TIMED.items():
            for qualname in names:
                span = f"{module_name}.{qualname}"
                self._install_function(
                    module_name,
                    qualname,
                    lambda fn, span=span: self.timed(span, fn, observers.get(span)),
                )
        for module_name, names in COUNTED.items():
            for qualname in names:
                span = f"{module_name}.{qualname}"
                self._install_function(
                    module_name, qualname, lambda fn, span=span: self.counted(span, fn)
                )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def module_totals(self) -> dict:
        totals: dict = {}
        for name, calls in self.calls.items():
            module = name.split(".", 1)[0]
            entry = totals.setdefault(module, {"calls": 0, "self_s": 0.0})
            entry["calls"] += calls
            entry["self_s"] += self.self_s.get(name, 0.0)
        return totals

    def write_spans(self, path) -> None:
        """One JSON header line with the name table, then one line per span:
        [name id, start s, end s, parent span index or -1, operation id]."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "fields": ["name", "start", "end", "parent", "op"]}) + "\n")
            for span in self.spans:
                if span is not None:
                    fh.write("[%d,%.9f,%.9f,%d,%d]\n" % span)
