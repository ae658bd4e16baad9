"""The benchmark tracer wraps urelnet functions by their names.

``perfbench/tracing.py`` patches every name in its ``TIMED`` and ``COUNTED``
tables, plus ``model.build_model``, and raises ``KeyError`` or
``AttributeError`` on one the package no longer defines. This test resolves
each of them the way ``Tracer._install_function`` does, so a rename fails
here rather than in a traced benchmark run. The tracer module is loaded
from its file and left unchanged. A second test covers the views perfbench
reads outside those tables.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from urelnet import evaluation, nn, pairs
from urelnet.scene import AnnotatedTriplet, BoundingBox, DetectedObject, SceneRecord

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _load_tracing()
    names = [("model", "build_model")] + [
        (module_name, qualname)
        for table in (tracing.TIMED, tracing.COUNTED)
        for module_name, qualnames in table.items()
        for qualname in qualnames
    ]
    unresolved = []
    for module_name, qualname in names:
        module = importlib.import_module(f"urelnet.{module_name}")
        try:
            owner, attr = tracing._owner_and_attr(module, qualname)
            function = vars(owner)[attr] if isinstance(owner, type) else getattr(module, attr)
        except (AttributeError, KeyError):
            unresolved.append(f"{module_name}.{qualname}")
            continue
        if not callable(getattr(function, "__func__", function)):
            unresolved.append(f"{module_name}.{qualname}")
    assert len(names) > 30
    assert unresolved == []


def test_views_perfbench_reads_outside_the_tables_exist():
    # layers.py sums each ScenePairs row's ``determinate``; workloads.py and
    # layers.py read ``PredictionSet.triplets`` and each triplet's ``score``;
    # gemm_probe.py builds layers with ``DenseLayer.create`` and layers.py
    # reads their dims and activation.
    subject, obj = BoundingBox(0, 0, 10, 10), BoundingBox(20, 0, 30, 10)
    detections = (DetectedObject(subject, 0, 0.9), DetectedObject(obj, 1, 0.8))
    annotation = AnnotatedTriplet(subject, 0, 1, obj, 1)
    scene = SceneRecord("img", 100.0, 100.0, detections, (annotation,), "test")
    scene_pairs = pairs.generate_for_scene(scene, 2)
    assert [p.determinate for p in scene_pairs] == [True, False]
    ranked = evaluation.predict_scene(scene, evaluation.UniformRandomScorer(2), predicate_count=2)
    assert [t.score for t in ranked.triplets] == ranked.scores.tolist()
    assert len(ranked.triplets) == 2
    layer = nn.DenseLayer.create(3, 2, "relu", np.random.default_rng(0))
    assert (layer.in_dim, layer.out_dim, layer.activation) == (3, 2, "relu")
    assert layer.forward(np.ones((4, 3))).shape == (4, 2)
    assert layer.backward(np.ones((4, 2))).shape == (4, 3)
