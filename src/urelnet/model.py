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
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .errors import DimensionError, ModeError, StateError, UsageError
from .features import SPATIAL_DIM, FeatureMatrix
from .nn import Arena, DenseLayer, glorot_uniform, sigmoid, sigmoid_ce

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
        for name in ("dc_undetermined_weight", "rel_undetermined_weight", "dc_loss_weight"):
            if not 0 <= getattr(self, name) < math.inf:
                raise UsageError(f"{name} must be finite and >= 0")
        if not isinstance(self.im_mode, (bool, np.bool_)):
            raise UsageError(f"im_mode must be true or false, got {self.im_mode!r}")
        # Normalize modal order so configurations compare and serialize stably.
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


def required_streams(config: ModelConfig) -> Tuple[str, ...]:
    """Feature streams the model consumes (all three networks in IM mode)."""
    roles = NETWORK_ROLES if config.im_mode else ("union",)
    seen = []
    for role in roles:
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


def model_shapes(config: ModelConfig) -> Dict[str, Tuple[int, ...]]:
    """Block name -> shape of every parameter of the model ``config``
    describes: the union network's blocks, or in IM mode each network's
    blocks under its role's prefix."""
    roles = NETWORK_ROLES if config.im_mode else ("union",)
    shapes: Dict[str, Tuple[int, ...]] = {}
    for role in roles:
        prefix = f"{role}." if config.im_mode else ""
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
    it is given (an InferringModel hands each network its sections); the
    constructor draws nothing. ``build_model`` and ``load_model`` make them.
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
        self._cache: dict = {}

    # -- forward -----------------------------------------------------------

    def fuse_features(self, features: FeatureMatrix) -> np.ndarray:
        """Fused feature vector of dimension (#modalities * transform_dim).

        Transforming mode transforms each stream, concatenates within each
        modality, transforms again, and concatenates the modality outputs.
        A stream held as one row per object is transformed once per object
        and the result gathered to the pairs; such a forward cannot be
        backpropagated. Concatenating mode concatenates raw streams first
        and applies two dense layers with the same stage widths.
        """
        self._cache["per_object"] = []
        if self.config.fusion_mode == "transforming":
            parts = []
            for modality, streams in self.spec:
                transformed = [self._transform(s, features) for s in streams]
                parts.append(self.layers[f"fuse.{modality}"].forward(np.concatenate(transformed, axis=1)))
            return np.concatenate(parts, axis=1)
        raw = np.concatenate([features[s] for s in self.streams], axis=1)
        return self.layers["concat.stage2"].forward(self.layers["concat.stage1"].forward(raw))

    def _transform(self, name: str, features: FeatureMatrix) -> np.ndarray:
        """``transform.<name>`` on the stream's per-pair rows, computed once per
        object row when the stream is held per object."""
        layer = self.layers[f"transform.{name}"]
        if name not in features.index:
            return layer.forward(features[name])
        self._cache["per_object"].append(name)
        return layer.forward(features.streams[name])[features.index[name]]

    def dc_forward(self, fused: np.ndarray) -> np.ndarray:
        """Determinate confidence in (0, 1), shape (B,)."""
        hidden = self.layers["dc.hidden"].forward(fused)
        logits = self.layers["dc.out"].forward(hidden)[:, 0]
        probs = sigmoid(logits)
        self._cache["dc_hidden"] = hidden
        self._cache["dc_probs"] = probs
        return probs

    def rel_forward(self, fused: np.ndarray, dc_signal: np.ndarray) -> np.ndarray:
        """Predicate probabilities (B, M); independent sigmoids, no softmax."""
        rel_in = np.concatenate([fused, dc_signal], axis=1)
        logits = self.layers["rel.out"].forward(self.layers["rel.hidden"].forward(rel_in))
        return sigmoid(logits)

    def forward(self, features: FeatureMatrix) -> Tuple[np.ndarray, np.ndarray]:
        """Returns (dc_probs (B,), rel_probs (B, M)); caches for backward.

        Stream shapes are checked here, once per call; the layers do not
        check their inputs.
        """
        count = features.count
        for s, dim in self.stream_dims.items():
            shape = features.shape(s)
            if shape != (count, dim):
                raise DimensionError(
                    f"feature stream {s!r} has shape {shape}, expected ({count}, {dim})"
                )
        fused = self.fuse_features(features)
        dc_probs = self.dc_forward(fused)
        if self.config.dc_feed == "probability":
            signal = dc_probs[:, None]
        else:
            signal = self._cache["dc_hidden"]
        rel_probs = self.rel_forward(fused, signal)
        self._cache["fused"] = fused
        self._cache["rel_probs"] = rel_probs
        return dc_probs, rel_probs

    # -- backward ----------------------------------------------------------

    def backward(self, d_rel_logits: np.ndarray, d_dc_logits: np.ndarray) -> Dict[str, np.ndarray]:
        """Backpropagate loss gradients w.r.t. the two heads' pre-sigmoid outputs.

        The confidence signal fed to the relation head is part of the graph,
        so its gradient is routed back into the confidence subnetwork.
        """
        if "fused" not in self._cache:
            raise StateError("backward called before forward")
        if self._cache["per_object"]:
            raise StateError(
                f"backward after a forward that transformed {self._cache['per_object']} "
                "once per object; backward needs one row per pair"
            )
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
        return self.gradients()

    # -- parameter access ----------------------------------------------------

    def parameters(self) -> Arena:
        return self.params

    def gradients(self) -> Arena:
        """The gradient arena; each backward pass overwrites it."""
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

    def loss(
        self, features: FeatureMatrix, labels: np.ndarray, determinate_mask: np.ndarray
    ) -> float:
        """The joint loss alone: forward, no backward."""
        dc_probs, rel_probs = self.forward(features)
        return joint_loss(dc_probs, rel_probs, labels, determinate_mask, self.config)[0]

    def relation_scores(
        self, features: FeatureMatrix, subject_confs: np.ndarray, object_confs: np.ndarray
    ) -> np.ndarray:
        dc_probs, rel_probs = self.forward(features)
        return score_relations(rel_probs, dc_probs, subject_confs, object_confs)


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
    breakdown = {
        "rel_determinate": (
            float(sigmoid_ce(rel_probs[det], labels[det]).sum(axis=1).mean()) if n_det else 0.0
        ),
        "rel_undetermined": (
            float(sigmoid_ce(rel_probs[und], 0.0).sum(axis=1).mean()) if n_und else 0.0
        ),
        "dc_determinate": float(sigmoid_ce(dc_probs[det], 1.0).mean()) if n_det else 0.0,
        "dc_undetermined": float(sigmoid_ce(dc_probs[und], 0.0).mean()) if n_und else 0.0,
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


class InferringModel:
    """Three-network variant: union, subject-only, and object-only networks.

    All networks share the architecture and hyperparameters but consume
    different feature subsets; they are trained jointly on the sum of their
    losses, and inference multiplies their predictions elementwise (the
    detector confidences enter the combined score exactly once).
    """

    def __init__(self, config: ModelConfig, params: Arena, grads: Arena):
        if not config.im_mode:
            raise ModeError("InferringModel requires im_mode=True in the configuration")
        self.config = config
        # One arena pair for all three networks; each network is wired onto
        # its role's section.
        self.params, self.grads = params, grads
        self.networks = {
            role: RelationNetwork(
                config, params.section(f"{role}."), grads.section(f"{role}."), role
            )
            for role in NETWORK_ROLES
        }

    def forward(self, features: FeatureMatrix) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
        return {role: net.forward(features) for role, net in self.networks.items()}

    def loss_and_gradients(
        self, features: FeatureMatrix, labels: np.ndarray, determinate_mask
    ) -> Tuple[float, Dict[str, float], Arena]:
        status = BatchStatus.of(determinate_mask)
        total = 0.0
        breakdown: Dict[str, float] = {}
        for role, net in self.networks.items():
            loss, terms, _ = net.loss_and_gradients(features, labels, status)
            total += loss
            breakdown[f"{role}.loss"] = loss
            for term, value in terms.items():
                breakdown[f"{role}.{term}"] = value
        return total, breakdown, self.grads

    def loss(
        self, features: FeatureMatrix, labels: np.ndarray, determinate_mask: np.ndarray
    ) -> float:
        """The summed joint loss alone, in the order of ``loss_and_gradients``."""
        status = BatchStatus.of(determinate_mask)
        total = 0.0
        for net in self.networks.values():
            total += net.loss(features, labels, status)
        return total

    def relation_scores(
        self, features: FeatureMatrix, subject_confs: np.ndarray, object_confs: np.ndarray
    ) -> np.ndarray:
        outputs = self.forward(features)
        dc_u, rel_u = outputs["union"]
        combined = score_relations(rel_u, dc_u, subject_confs, object_confs)
        for role in ("subject", "object"):
            dc, rel = outputs[role]
            combined = combined * rel * dc[:, None]
        return combined

    def parameters(self) -> Arena:
        return self.params

    def gradients(self) -> Arena:
        """The gradient arena of all three networks; each backward pass
        overwrites its network's section."""
        return self.grads


def wire_model(config: ModelConfig, params: Arena):
    """RelationNetwork, or the three-network InferringModel in IM mode,
    wired onto ``params`` as they stand, with a zeroed gradient arena of the
    same layout. ``params`` must have the layout of ``model_shapes(config)``."""
    shapes = model_shapes(config)
    if {name: block.shape for name, block in params.items()} != shapes:
        raise DimensionError("the parameter arena's layout does not fit the configuration")
    model_class = InferringModel if config.im_mode else RelationNetwork
    return model_class(config, params, Arena(shapes))


def build_model(config: ModelConfig, rng: np.random.Generator):
    """A fresh model: Glorot-uniform weights drawn layer by layer, network
    by network in role order, and zero biases."""
    model = wire_model(config, Arena(model_shapes(config)))
    for layer in _layers(model):
        glorot_uniform(rng, layer.weight)
    return model


def _layers(model) -> List[DenseLayer]:
    """Every layer, network by network in role order, each in creation order."""
    networks = model.networks.values() if isinstance(model, InferringModel) else [model]
    return [layer for net in networks for layer in net.layers.values()]


def _relu_margin(model) -> float:
    """Smallest |pre-activation| over all relu layers after a forward pass.

    Finite differencing is only meaningful away from relu kinks; a zero
    margin occurs with real probability at zero-initialized biases (an
    all-dead upstream row leaves the pre-activation exactly at the bias).
    """
    margin = np.inf
    for layer in _layers(model):
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
    for layer in _layers(model):
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
