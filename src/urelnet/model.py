"""Two-subnetwork relation model with multi-modal feature fusion.

The network transforms each enabled feature stream, fuses within and then
across modalities, and feeds the fused vector to (a) a determinate
confidence head producing P(pair is human-labeled) and (b) a relation head
producing M independent sigmoid predicate probabilities, which also sees
the confidence signal. Losses on determinate and undetermined pairs are
averaged per status and combined with configurable weights. Backward
passes are explicit; gradients from the relation loss flow through the
confidence subnetwork.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, List, Tuple

import numpy as np

from .errors import DimensionError, ModeError, StateError, UsageError
from .features import SPATIAL_DIM, FeatureMatrix
from .nn import MAX_ARRAY_VALUES, Arena, DenseLayer, glorot_uniform, relu, sigmoid, sigmoid_ce

MODAL_VISUAL = "visual"
MODAL_SPATIAL = "spatial"
MODAL_LINGUISTIC_EXTERNAL = "linguistic_external"
MODAL_LINGUISTIC_INTERNAL = "linguistic_internal"
ALL_MODALS = (
    MODAL_VISUAL,
    MODAL_SPATIAL,
    MODAL_LINGUISTIC_EXTERNAL,
    MODAL_LINGUISTIC_INTERNAL,
)

FUSION_MODES = ("transforming", "concatenating")
DC_FEEDS = ("probability", "hidden")
NETWORK_ROLES = ("union", "subject", "object")

LOSS_TERMS = ("rel_determinate", "rel_undetermined", "dc_determinate", "dc_undetermined")

# No outputs kept: a plain forward runs every layer.
_NOTHING_KEPT: Mapping[str, np.ndarray] = MappingProxyType({})


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and loss weights.

    ``dc_undetermined_weight`` balances the undetermined term inside the
    confidence loss, ``rel_undetermined_weight`` scales the undetermined
    relation term, and ``dc_loss_weight`` trades off the confidence loss
    against the relation loss in the joint objective.
    """

    predicate_count: int
    object_count: int
    visual_dim: int = 4096
    embedding_dim: int = 300
    transform_dim: int = 500
    dc_hidden_dim: int = 100
    rel_hidden_dim: int = 500
    enabled_modals: Tuple[str, ...] = ALL_MODALS
    fusion_mode: str = "transforming"
    dc_feed: str = "probability"
    dc_undetermined_weight: float = 1.0
    rel_undetermined_weight: float = 0.5
    dc_loss_weight: float = 1.0
    im_mode: bool = False

    def __post_init__(self):
        if not self.enabled_modals:
            raise UsageError("at least one modal must be enabled")
        unknown = set(self.enabled_modals) - set(ALL_MODALS)
        if unknown:
            raise UsageError(f"unknown modals {sorted(unknown)}")
        if self.fusion_mode not in FUSION_MODES:
            raise UsageError(f"fusion_mode must be one of {FUSION_MODES}")
        if self.dc_feed not in DC_FEEDS:
            raise UsageError(f"dc_feed must be one of {DC_FEEDS}")
        for name in (
            "predicate_count",
            "object_count",
            "visual_dim",
            "embedding_dim",
            "transform_dim",
            "dc_hidden_dim",
            "rel_hidden_dim",
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value <= 0:
                raise UsageError(f"{name} must be a positive integer")
            if value > MAX_ARRAY_VALUES:
                raise UsageError(f"{name} must be <= {MAX_ARRAY_VALUES}, got {value}")
            object.__setattr__(self, name, int(value))
        for name in ("dc_undetermined_weight", "rel_undetermined_weight", "dc_loss_weight"):
            if not 0 <= getattr(self, name) < math.inf:
                raise UsageError(f"{name} must be finite and >= 0")
            object.__setattr__(self, name, float(getattr(self, name)))
        if not isinstance(self.im_mode, (bool, np.bool_)):
            raise UsageError(f"im_mode must be true or false, got {self.im_mode!r}")
        # Python scalars and one modal order: configs compare and serialize stably.
        object.__setattr__(self, "im_mode", bool(self.im_mode))
        object.__setattr__(
            self,
            "enabled_modals",
            tuple(m for m in ALL_MODALS if m in self.enabled_modals),
        )

    def stream_dims(self) -> Dict[str, int]:
        return {
            "visual_subject": self.visual_dim,
            "visual_object": self.visual_dim,
            "visual_union": self.visual_dim,
            "spatial": SPATIAL_DIM,
            "external_subject": self.embedding_dim,
            "external_object": self.embedding_dim,
            "internal": self.predicate_count,
        }

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json_dict(cls, data: dict) -> "ModelConfig":
        data = dict(data)
        data["enabled_modals"] = tuple(data["enabled_modals"])
        return cls(**data)


def stream_spec(config: ModelConfig, role: str = "union") -> List[Tuple[str, List[str]]]:
    """Ordered (modality, streams) wiring for one network role.

    The auxiliary subject/object networks use only their own box's visual
    and external-linguistic streams plus the shared spatial stream; union
    visual and internal linguistic streams carry information about both
    boxes and are excluded from them.
    """
    if role not in NETWORK_ROLES:
        raise ValueError(f"role must be one of {NETWORK_ROLES}")
    enabled = set(config.enabled_modals)
    spec: List[Tuple[str, List[str]]] = []
    if MODAL_VISUAL in enabled:
        if role == "union":
            spec.append((MODAL_VISUAL, ["visual_subject", "visual_object", "visual_union"]))
        elif role == "subject":
            spec.append((MODAL_VISUAL, ["visual_subject"]))
        else:
            spec.append((MODAL_VISUAL, ["visual_object"]))
    if MODAL_SPATIAL in enabled:
        spec.append((MODAL_SPATIAL, ["spatial"]))
    linguistic: List[str] = []
    if MODAL_LINGUISTIC_EXTERNAL in enabled:
        if role == "union":
            linguistic.extend(["external_subject", "external_object"])
        elif role == "subject":
            linguistic.append("external_subject")
        else:
            linguistic.append("external_object")
    if MODAL_LINGUISTIC_INTERNAL in enabled and role == "union":
        linguistic.append("internal")
    if linguistic:
        spec.append(("linguistic", linguistic))
    if not spec:
        raise ModeError(f"no feature streams available for the {role!r} network")
    return spec


def network_prefixes(config: ModelConfig) -> Dict[str, str]:
    """Role -> block-name prefix of each network of the model: the union
    network alone, unprefixed, or in IM mode all three as ``<role>.``."""
    if not config.im_mode:
        return {"union": ""}
    return {role: f"{role}." for role in NETWORK_ROLES}


def required_streams(config: ModelConfig) -> Tuple[str, ...]:
    """Feature streams the model consumes (all three networks in IM mode)."""
    seen = []
    for role in network_prefixes(config):
        for _, streams in stream_spec(config, role):
            for s in streams:
                if s not in seen:
                    seen.append(s)
    return tuple(seen)


def layer_plan(config: ModelConfig, role: str = "union") -> List[Tuple[str, int, int, str]]:
    """(name, in_dim, out_dim, activation) of every layer of one network,
    in the order its weights are drawn."""
    spec = stream_spec(config, role)
    dims = config.stream_dims()
    t = config.transform_dim
    streams = [s for _, names in spec for s in names]
    fused_dim = len(spec) * t
    plan = []
    if config.fusion_mode == "transforming":
        plan += [(f"transform.{s}", dims[s], t, "relu") for s in streams]
        plan += [(f"fuse.{m}", len(names) * t, t, "relu") for m, names in spec]
    else:
        raw_dim = sum(dims[s] for s in streams)
        plan.append(("concat.stage1", raw_dim, len(streams) * t, "relu"))
        plan.append(("concat.stage2", len(streams) * t, fused_dim, "relu"))
    signal_dim = 1 if config.dc_feed == "probability" else config.dc_hidden_dim
    plan += [
        ("dc.hidden", fused_dim, config.dc_hidden_dim, "relu"),
        ("dc.out", config.dc_hidden_dim, 1, "identity"),
        ("rel.hidden", fused_dim + signal_dim, config.rel_hidden_dim, "relu"),
        ("rel.out", config.rel_hidden_dim, config.predicate_count, "identity"),
    ]
    return plan


def layer_feeds(config: ModelConfig, role: str = "union") -> Dict[str, Tuple[str, ...]]:
    """What each output of one network feeds, listed in the order forward
    computes them.

    The outputs are the layers of ``layer_plan`` and three that forward
    forms from them: ``fused``, the fusion stage's output, and ``dc_probs``
    and ``rel_probs``, the two heads' sigmoids. The relation head reads the
    confidence signal ``dc_feed`` names: ``dc_probs`` or ``dc.hidden``.
    """
    feeds: Dict[str, Tuple[str, ...]] = {}
    if config.fusion_mode == "transforming":
        for modality, streams in stream_spec(config, role):
            feeds.update((f"transform.{s}", (f"fuse.{modality}",)) for s in streams)
            feeds[f"fuse.{modality}"] = ("fused",)
    else:
        feeds["concat.stage1"] = ("concat.stage2",)
        feeds["concat.stage2"] = ("fused",)
    hidden_feed = config.dc_feed == "hidden"
    feeds["fused"] = ("dc.hidden", "rel.hidden")
    feeds["dc.hidden"] = ("dc.out", "rel.hidden") if hidden_feed else ("dc.out",)
    feeds["dc.out"] = ("dc_probs",)
    feeds["dc_probs"] = () if hidden_feed else ("rel.hidden",)
    feeds["rel.hidden"] = ("rel.out",)
    feeds["rel.out"] = ("rel_probs",)
    feeds["rel_probs"] = ()
    return feeds


def model_shapes(config: ModelConfig) -> Dict[str, Tuple[int, ...]]:
    """Block name -> shape of every parameter of the model ``config``
    describes: the union network's blocks, or in IM mode each network's
    blocks under its role's prefix (``network_prefixes``)."""
    shapes: Dict[str, Tuple[int, ...]] = {}
    for role, prefix in network_prefixes(config).items():
        for name, in_dim, out_dim, _ in layer_plan(config, role):
            shapes[f"{prefix}{name}.weight"] = (out_dim, in_dim)
            shapes[f"{prefix}{name}.bias"] = (out_dim,)
    return shapes


def score_relations(
    rel_probs: np.ndarray,
    dc_probs: np.ndarray,
    subject_confs: np.ndarray,
    object_confs: np.ndarray,
) -> np.ndarray:
    """Relation scores (B, M): predicate probabilities scaled by pair
    confidence and the two detector confidences."""
    scale = dc_probs * subject_confs * object_confs
    return rel_probs * scale[:, None]


class RelationNetwork:
    """One fused-feature network with confidence and relation heads.

    Its layers are wired onto the views of the parameter and gradient arenas
    it is given (a ``Model`` hands each network its role's sections); the
    constructor draws nothing.
    """

    def __init__(self, config: ModelConfig, params: Arena, grads: Arena, role: str = "union"):
        self.config = config
        self.role = role
        self.spec = stream_spec(config, role)
        dims = config.stream_dims()
        self.streams = [s for _, streams in self.spec for s in streams]
        self.stream_dims = {s: dims[s] for s in self.streams}
        self.fused_dim = len(self.spec) * config.transform_dim
        self.params, self.grads = params, grads
        self.layers = {
            name: DenseLayer(
                params[f"{name}.weight"],
                params[f"{name}.bias"],
                activation,
                grads[f"{name}.weight"],
                grads[f"{name}.bias"],
            )
            for name, _, _, activation in layer_plan(config, role)
        }
        # Each output with every output computed from it (``layer_feeds``):
        # what a forward from a reference runs when that layer changed.
        feeds = layer_feeds(config, role)
        self.downstream: Dict[str, frozenset] = {}
        for name in reversed(feeds):
            self.downstream[name] = frozenset([name]).union(
                *(self.downstream[fed] for fed in feeds[name])
            )
        self._cache: dict = {}

    # -- forward -----------------------------------------------------------

    def fuse_features(
        self, features: FeatureMatrix, kept: Mapping[str, np.ndarray] = _NOTHING_KEPT
    ) -> np.ndarray:
        """Fused feature vector of dimension (#modalities * transform_dim).

        Transforming mode transforms each stream, concatenates within each
        modality, transforms again, and concatenates the modality outputs.
        A stream held per object (``FeatureMatrix.objects``) is transformed
        once per object (``_transform``). A modality with such a stream
        runs its fuse layer block by block (``DenseLayer.forward_blocks``):
        the pre-activation is the sum, in ``spec`` order, of each stream's
        product with its column block of the fuse weight, a per-object
        stream's taken on its object rows and gathered to the pairs; then
        the bias and relu. Such a forward cannot be backpropagated.
        Concatenating mode concatenates raw streams first and applies two
        dense layers with the same stage widths. A layer whose output is in
        ``kept`` is not run: its output is read.
        """
        self._cache["per_object"] = []
        if self.config.fusion_mode == "transforming":
            parts = []
            for modality, streams in self.spec:
                part = kept.get(f"fuse.{modality}")
                if part is None:
                    transformed = [self._transform(s, features, kept) for s in streams]
                    fuse = self.layers[f"fuse.{modality}"]
                    if any(at is not None for _, at in transformed):
                        part = fuse.forward_blocks(transformed)
                        # Such a forward is never backpropagated: the transform
                        # layers' batches are freed now, not when it ends.
                        for s in streams:
                            self.layers[f"transform.{s}"].release()
                    else:
                        part = fuse.forward(np.concatenate([t for t, _ in transformed], axis=1))
                parts.append(part)
            return np.concatenate(parts, axis=1)
        stage1 = kept.get("concat.stage1")
        if stage1 is None:
            raw = np.concatenate([features[s] for s in self.streams], axis=1)
            stage1 = self.layers["concat.stage1"].forward(raw)
        return self.layers["concat.stage2"].forward(stage1)

    def _transform(
        self, name: str, features: FeatureMatrix, kept: Mapping[str, np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray | None]:
        """``transform.<name>`` of the stream's rows, with the row numbers
        that gather them to the pairs. A stream held per object is
        transformed once per object, its table rows ``objects[name]``; every
        other stream once per pair, with None. A kept output is read, with
        None."""
        kept_output = kept.get(f"transform.{name}")
        if kept_output is not None:
            return kept_output, None
        layer = self.layers[f"transform.{name}"]
        objects = features.objects.get(name)
        if objects is None:
            return layer.forward(features[name]), None
        self._cache["per_object"].append(name)
        transformed = layer.forward(features.streams[name][objects])
        # Never backpropagated: the gathered object rows are freed now.
        layer.release()
        return transformed, features.index[name]

    def dc_forward(
        self, fused: np.ndarray, kept: Mapping[str, np.ndarray] = _NOTHING_KEPT
    ) -> np.ndarray:
        """Determinate confidence in (0, 1), shape (B,). Kept outputs are read."""
        hidden = kept.get("dc.hidden")
        if hidden is None:
            hidden = self.layers["dc.hidden"].forward(fused)
        probs = kept.get("dc_probs")
        if probs is None:
            probs = sigmoid(self.layers["dc.out"].forward(hidden)[:, 0])
        self._cache["dc_hidden"] = hidden
        self._cache["dc_probs"] = probs
        return probs

    def rel_forward(
        self, fused: np.ndarray, dc_signal: np.ndarray,
        kept: Mapping[str, np.ndarray] = _NOTHING_KEPT,
    ) -> np.ndarray:
        """Predicate probabilities (B, M); independent sigmoids, no softmax.
        Kept outputs are read."""
        probs = kept.get("rel_probs")
        if probs is not None:
            return probs
        hidden = kept.get("rel.hidden")
        if hidden is None:
            rel_in = np.concatenate([fused, dc_signal], axis=1)
            hidden = self.layers["rel.hidden"].forward(rel_in)
        return sigmoid(self.layers["rel.out"].forward(hidden))

    def forward(
        self, features: FeatureMatrix, reference: Mapping[str, np.ndarray] | None = None,
        changed: str | None = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Returns (dc_probs (B,), rel_probs (B, M)); caches for backward.

        Stream shapes are checked here, once per call; the layers do not
        check their inputs.

        Given a ``reference`` taken on the same features (``reference``),
        only layer ``changed`` and the layers downstream of it
        (``downstream``) run, and every other output is read from the
        reference; with ``changed`` None, no layer runs. Each layer that
        runs gets the bits of input a plain forward would give it, so the
        result is that of a plain forward on parameters that differ from
        the reference's in layer ``changed`` alone. Such a forward keeps
        nothing for backward, and does not check the streams again: the
        reference's forward did.
        """
        if reference is None:
            count = features.count
            for s, dim in self.stream_dims.items():
                shape = features.shape(s)
                if shape != (count, dim):
                    raise DimensionError(
                        f"feature stream {s!r} has shape {shape}, expected ({count}, {dim})"
                    )
            kept = _NOTHING_KEPT
        else:
            self._cache.clear()
            stale = self.downstream[changed] if changed is not None else frozenset()
            if not stale:
                return reference["dc_probs"], reference["rel_probs"]
            kept = {name: output for name, output in reference.items() if name not in stale}
        fused = kept.get("fused")
        if fused is None:
            fused = self.fuse_features(features, kept)
        dc_probs = self.dc_forward(fused, kept)
        if self.config.dc_feed == "probability":
            signal = dc_probs[:, None]
        else:
            signal = self._cache["dc_hidden"]
        rel_probs = self.rel_forward(fused, signal, kept)
        if reference is None:
            self._cache["fused"] = fused
            self._cache["rel_probs"] = rel_probs
        else:
            self._cache.clear()
        return dc_probs, rel_probs

    def reference(self, features: FeatureMatrix) -> Dict[str, np.ndarray]:
        """Every output of one plain forward on ``features``, by its
        ``layer_feeds`` name, read-only: what ``forward(features, reference,
        changed)`` reads for the layers it does not run. The forward's state
        is then dropped."""
        dc_probs, rel_probs = self.forward(features)
        self._check_per_pair("a reference")
        outputs = {
            name: relu(layer._pre) if layer.activation == "relu" else layer._pre
            for name, layer in self.layers.items()
        }
        outputs.update(fused=self._cache["fused"], dc_probs=dc_probs, rel_probs=rel_probs)
        self.release()
        for output in outputs.values():
            output.flags.writeable = False
        return outputs

    def _check_per_pair(self, use: str) -> None:
        """Raise unless the last forward ran every layer on one row per pair."""
        if self._cache["per_object"]:
            raise StateError(
                f"{use} needs a forward with one row per pair; the last one "
                f"transformed {self._cache['per_object']} once per object"
            )

    # -- backward ----------------------------------------------------------

    def backward(self, d_rel_logits: np.ndarray, d_dc_logits: np.ndarray) -> Dict[str, np.ndarray]:
        """Backpropagate loss gradients w.r.t. the two heads' pre-sigmoid outputs.

        The confidence signal fed to the relation head is part of the graph,
        so its gradient is routed back into the confidence subnetwork.
        """
        if "fused" not in self._cache:
            raise StateError("backward called before a plain forward")
        self._check_per_pair("backward")
        fused = self._cache["fused"]
        dc_probs = self._cache["dc_probs"]
        expected = (fused.shape[0], self.config.predicate_count)
        if d_rel_logits.shape != expected or d_dc_logits.shape != expected[:1]:
            raise DimensionError(
                f"head gradients {d_rel_logits.shape} and {d_dc_logits.shape} do not "
                f"match the forward batch {expected}"
            )
        d_rel_hidden = self.layers["rel.out"].backward(d_rel_logits)
        d_rel_in = self.layers["rel.hidden"].backward(d_rel_hidden)
        d_fused = d_rel_in[:, : self.fused_dim].copy()
        d_signal = d_rel_in[:, self.fused_dim :]
        if self.config.dc_feed == "probability":
            d_dc_total = d_dc_logits + d_signal[:, 0] * dc_probs * (1.0 - dc_probs)
            d_dc_hidden_extra = 0.0
        else:
            d_dc_total = d_dc_logits
            d_dc_hidden_extra = d_signal
        d_dc_hidden = self.layers["dc.out"].backward(d_dc_total[:, None]) + d_dc_hidden_extra
        d_fused += self.layers["dc.hidden"].backward(d_dc_hidden)

        t = self.config.transform_dim
        if self.config.fusion_mode == "transforming":
            for idx, (modality, streams) in enumerate(self.spec):
                d_mod = self.layers[f"fuse.{modality}"].backward(
                    d_fused[:, idx * t : (idx + 1) * t]
                )
                for sidx, s in enumerate(streams):
                    self.layers[f"transform.{s}"].backward(
                        d_mod[:, sidx * t : (sidx + 1) * t], input_grad=False
                    )
        else:
            self.layers["concat.stage1"].backward(
                self.layers["concat.stage2"].backward(d_fused), input_grad=False
            )
        return self.grads

    # -- training ------------------------------------------------------------

    def loss_and_gradients(
        self, features: FeatureMatrix, labels: np.ndarray, determinate_mask
    ) -> Tuple[float, Dict[str, float], Arena]:
        """Joint loss, its four terms, and the gradient arena (overwritten
        by the next backward pass). The batch's status masks are built once
        and shared by the loss and its gradients."""
        status = BatchStatus.of(determinate_mask)
        dc_probs, rel_probs = self.forward(features)
        loss, breakdown = joint_loss(dc_probs, rel_probs, labels, status, self.config)
        d_rel, d_dc = joint_loss_gradients(dc_probs, rel_probs, labels, status, self.config)
        grads = self.backward(d_rel, d_dc)
        return loss, breakdown, grads

    def relation_scores(
        self, features: FeatureMatrix, subject_confs: np.ndarray, object_confs: np.ndarray
    ) -> np.ndarray:
        """Scores of a forward whose state is then dropped: scores are not
        backpropagated, and a kept batch would live until the next one."""
        dc_probs, rel_probs = self.forward(features)
        self.release()
        return score_relations(rel_probs, dc_probs, subject_confs, object_confs)

    def release(self) -> None:
        """Drop what the last forward kept for backward."""
        self._cache.clear()
        for layer in self.layers.values():
            layer.release()


@dataclass(frozen=True)
class BatchStatus:
    """Determinate and undetermined row masks of a batch, with their counts."""

    det: np.ndarray
    und: np.ndarray
    n_det: int
    n_und: int

    @classmethod
    def of(cls, determinate_mask) -> "BatchStatus":
        """The status of a (B,) determinate mask; a BatchStatus passes through."""
        if isinstance(determinate_mask, cls):
            return determinate_mask
        det = np.asarray(determinate_mask, dtype=bool)
        und = ~det
        return cls(det, und, int(det.sum()), int(und.sum()))


def joint_loss(
    dc_probs: np.ndarray,
    rel_probs: np.ndarray,
    labels: np.ndarray,
    determinate_mask,
    config: ModelConfig,
) -> Tuple[float, Dict[str, float]]:
    """Weighted joint objective and its four unweighted terms.

    Determinate pairs contribute CE(confidence, 1) and per-predicate CE
    against their multi-hot labels; undetermined pairs contribute
    CE(confidence, 0) and all-negative predicate CE. Each term is the mean
    over the pairs of its status, so the weights act on balanced magnitudes
    regardless of the batch ratio. ``determinate_mask`` is a (B,) bool
    array or its BatchStatus; each CE is evaluated on its status's rows only.
    """
    status = BatchStatus.of(determinate_mask)
    det, und, n_det, n_und = status.det, status.und, status.n_det, status.n_und
    labels = np.asarray(labels, dtype=np.float64)
    # Each mean is a sum over the status's rows divided by their count, the
    # operations numpy's mean makes.
    breakdown = {
        "rel_determinate": (
            float(sigmoid_ce(rel_probs[det], labels[det]).sum(axis=1).sum() / n_det) if n_det else 0.0
        ),
        "rel_undetermined": (
            float(sigmoid_ce(rel_probs[und], 0.0).sum(axis=1).sum() / n_und) if n_und else 0.0
        ),
        "dc_determinate": float(sigmoid_ce(dc_probs[det], 1.0).sum() / n_det) if n_det else 0.0,
        "dc_undetermined": float(sigmoid_ce(dc_probs[und], 0.0).sum() / n_und) if n_und else 0.0,
    }
    total = (
        breakdown["rel_determinate"]
        + config.rel_undetermined_weight * breakdown["rel_undetermined"]
        + config.dc_loss_weight * breakdown["dc_determinate"]
        + config.dc_loss_weight * config.dc_undetermined_weight * breakdown["dc_undetermined"]
    )
    return total, breakdown


def joint_loss_gradients(
    dc_probs: np.ndarray,
    rel_probs: np.ndarray,
    labels: np.ndarray,
    determinate_mask,
    config: ModelConfig,
) -> Tuple[np.ndarray, np.ndarray]:
    """Gradients of the joint loss w.r.t. the heads' pre-sigmoid logits.

    Uses the fused sigmoid cross-entropy form (p - y), so the clamp inside
    the loss value never distorts derivatives. ``determinate_mask`` is a
    (B,) bool array or its BatchStatus.
    """
    status = BatchStatus.of(determinate_mask)
    det = status.det
    n_det = max(status.n_det, 1)
    n_und = max(status.n_und, 1)
    labels = np.asarray(labels, dtype=np.float64)
    d_rel = np.where(
        det[:, None],
        (rel_probs - labels) / n_det,
        config.rel_undetermined_weight * rel_probs / n_und,
    )
    d_dc = np.where(
        det,
        config.dc_loss_weight * (dc_probs - 1.0) / n_det,
        config.dc_loss_weight * config.dc_undetermined_weight * dc_probs / n_und,
    )
    return d_rel, d_dc


class Model:
    """The union network, and in IM mode the subject-only and object-only
    networks beside it, each under its role's prefix (``network_prefixes``).

    All networks share the architecture and hyperparameters but consume
    different feature subsets. They are trained jointly on the sum of their
    losses, in role order, and inference multiplies each auxiliary network's
    predictions onto the union scores elementwise (the detector confidences
    enter the combined score exactly once). Each network is wired onto its
    role's section of one parameter and one gradient arena; ``layers`` holds
    every layer by its block name, network by network in role order.
    """

    def __init__(self, config: ModelConfig, params: Arena, grads: Arena):
        self.config = config
        self.params, self.grads = params, grads
        self.prefixes = network_prefixes(config)
        self.networks = {
            role: RelationNetwork(config, params.section(prefix), grads.section(prefix), role)
            for role, prefix in self.prefixes.items()
        }
        self.layers = {
            self.prefixes[role] + name: layer
            for role, net in self.networks.items()
            for name, layer in net.layers.items()
        }

    def forward(self, features: FeatureMatrix) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
        """Each network's (dc_probs, rel_probs), by role."""
        return {role: net.forward(features) for role, net in self.networks.items()}

    def loss_and_gradients(
        self, features: FeatureMatrix, labels: np.ndarray, determinate_mask
    ) -> Tuple[float, Dict[str, float], Arena]:
        """Summed joint loss, each network's terms under its prefix (with
        its ``<role>.loss`` in IM mode), and the gradient arena, each
        network's section overwritten by its backward pass."""
        status = BatchStatus.of(determinate_mask)
        total = 0.0
        breakdown: Dict[str, float] = {}
        for role, net in self.networks.items():
            loss, terms, _ = net.loss_and_gradients(features, labels, status)
            total += loss
            prefix = self.prefixes[role]
            if prefix:
                breakdown[f"{prefix}loss"] = loss
            breakdown.update((prefix + term, value) for term, value in terms.items())
        return total, breakdown, self.grads

    def reference(self, features: FeatureMatrix) -> Dict[str, Dict[str, np.ndarray]]:
        """Each network's ``RelationNetwork.reference``, by role."""
        return {role: net.reference(features) for role, net in self.networks.items()}

    def loss(
        self, features: FeatureMatrix, labels: np.ndarray, determinate_mask,
        reference: Mapping[str, Mapping[str, np.ndarray]] | None = None,
        changed: str | None = None,
        reference_losses: Mapping[str, float] | None = None,
    ) -> float:
        """The summed joint loss alone, in the order of ``loss_and_gradients``.

        With a ``reference`` (``reference``), each network runs forward from
        its own (``RelationNetwork.forward``); ``changed`` names a layer by
        its key in ``layers``, which only the network holding it reruns.
        ``reference_losses`` holds each network's joint loss on its
        reference outputs, on this batch: a network whose forward returns
        those very outputs adds its stored loss instead of computing it.
        """
        status = BatchStatus.of(determinate_mask)
        total = 0.0
        for role, net in self.networks.items():
            prefix = self.prefixes[role]
            own = reference[role] if reference is not None else None
            layer = changed[len(prefix) :] if changed and changed.startswith(prefix) else None
            dc_probs, rel_probs = net.forward(features, own, layer)
            if (
                reference_losses is not None
                and dc_probs is own["dc_probs"]
                and rel_probs is own["rel_probs"]
            ):
                total += reference_losses[role]
            else:
                total += joint_loss(dc_probs, rel_probs, labels, status, self.config)[0]
        return total

    def relation_scores(
        self, features: FeatureMatrix, subject_confs: np.ndarray, object_confs: np.ndarray
    ) -> np.ndarray:
        """The union network's scores multiplied by each auxiliary network's
        ``rel_probs`` and then its ``dc_probs``, in role order; no forward
        state is kept."""
        union, *auxiliaries = self.networks.values()
        scores = union.relation_scores(features, subject_confs, object_confs)
        for net in auxiliaries:
            dc_probs, rel_probs = net.forward(features)
            net.release()
            scores = scores * rel_probs * dc_probs[:, None]
        return scores

    def parameters(self) -> Arena:
        return self.params

    def gradients(self) -> Arena:
        """The gradient arena; each backward pass overwrites its network's section."""
        return self.grads


# perfbench's tracer (``TIMED``) patches the model's methods under this name.
InferringModel = Model


def wire_model(config: ModelConfig, params: Arena) -> Model:
    """The model of ``config``, wired onto ``params`` as they stand, with a
    zeroed gradient arena of the same layout. ``params`` must have the
    layout of ``model_shapes(config)``."""
    shapes = model_shapes(config)
    if {name: block.shape for name, block in params.items()} != shapes:
        raise DimensionError("the parameter arena's layout does not fit the configuration")
    return Model(config, params, Arena(shapes))


def build_model(config: ModelConfig, rng: np.random.Generator) -> Model:
    """A fresh model: Glorot-uniform weights drawn layer by layer, network
    by network in role order, and zero biases."""
    model = wire_model(config, Arena(model_shapes(config)))
    for layer in model.layers.values():
        glorot_uniform(rng, layer.weight)
    return model


def sliced_loss(
    model: Model, features: FeatureMatrix, labels: np.ndarray, determinate_mask
) -> Callable[[str], float]:
    """``model.loss`` on one batch as the ``loss_fn(name)`` that
    ``nn.gradient_check`` calls, where ``name`` is the one parameter block
    that may differ from the parameters the model holds now.

    One plain forward takes the reference first, and each network's joint
    loss on its reference outputs is computed once. Each call then runs
    only the block's layer and the layers downstream of it (``forward``);
    a network holding no perturbed block adds its reference loss. The call
    returns the bits that ``model.loss`` returns with the block changed in
    place. The batch's status is built once, for every call.
    """
    status = BatchStatus.of(determinate_mask)
    reference = model.reference(features)
    reference_losses = {
        role: joint_loss(own["dc_probs"], own["rel_probs"], labels, status, model.config)[0]
        for role, own in reference.items()
    }

    def loss(block: str) -> float:
        return model.loss(
            features, labels, status, reference, block.rpartition(".")[0], reference_losses
        )

    return loss


def _relu_margin(model: Model) -> float:
    """Smallest |pre-activation| over all relu layers after a forward pass.

    Finite differencing is only meaningful away from relu kinks; a zero
    margin occurs with real probability at zero-initialized biases (an
    all-dead upstream row leaves the pre-activation exactly at the bias).
    """
    margin = np.inf
    for layer in model.layers.values():
        if layer.activation == "relu" and layer._pre is not None and layer._pre.size:
            margin = min(margin, float(np.abs(layer._pre).min()))
    return margin


def make_gradient_check_problem(
    config: ModelConfig, rng: np.random.Generator, batch: int = 6, margin: float = 1e-4
):
    """Random model and batch suitable for finite-difference verification.

    Biases are randomized (general position: the zero-bias initialization
    puts dead rows exactly on a relu kink) and inputs are redrawn until all
    relu pre-activations clear the kink by ``margin``.

    Returns (model, features, labels, determinate_mask).
    """
    model = build_model(config, rng)
    for layer in model.layers.values():
        layer.bias[...] = rng.uniform(-0.2, 0.2, size=layer.bias.shape)
    for _ in range(50):
        internal = rng.uniform(0.1, 1.0, size=(batch, config.predicate_count))
        internal /= internal.sum(axis=1, keepdims=True)
        features = FeatureMatrix(
            {
                "visual_subject": rng.standard_normal((batch, config.visual_dim)),
                "visual_object": rng.standard_normal((batch, config.visual_dim)),
                "visual_union": rng.standard_normal((batch, config.visual_dim)),
                "spatial": rng.uniform(-1, 1, size=(batch, 8)),
                "external_subject": rng.standard_normal((batch, config.embedding_dim)),
                "external_object": rng.standard_normal((batch, config.embedding_dim)),
                "internal": internal,
            }
        )
        labels = np.zeros((batch, config.predicate_count))
        mask = np.zeros(batch, dtype=bool)
        mask[: batch // 2] = True
        for b in range(batch // 2):
            labels[b, rng.integers(config.predicate_count)] = 1.0
        model.forward(features)
        if _relu_margin(model) > margin:
            return model, features, labels, mask
    return model, features, labels, mask
