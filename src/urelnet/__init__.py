"""Visual relationship detection with undetermined-relationship learning."""

from .scene import BoundingBox, SceneRecord, Vocabulary, iou, union_box
from .pairs import BatchSpec, ObjectPair, PairSampler, PairStatus, generate_for_scene
from .features import (
    EmbeddingTable,
    FeatureExtractor,
    FeatureStore,
    TripletStatistics,
    build_triplet_statistics,
    external_linguistic,
)
from .model import InferringModel, Model, ModelConfig, RelationNetwork, build_model, joint_loss
from .evaluation import EvalConfig, PredictionSet, match_predictions, predict_scene, recall_at_n
from .dataset import Dataset, load_dataset, save_dataset
from .synthetic import SyntheticConfig, generate_synthetic
from .training import RunConfig, Schedule, run_evaluation, run_training
from .checkpoint import load_checkpoint, load_model, save_checkpoint

__all__ = [
    "BatchSpec",
    "BoundingBox",
    "Dataset",
    "EmbeddingTable",
    "EvalConfig",
    "FeatureExtractor",
    "FeatureStore",
    "InferringModel",
    "Model",
    "ModelConfig",
    "ObjectPair",
    "PairSampler",
    "PairStatus",
    "PredictionSet",
    "RelationNetwork",
    "RunConfig",
    "SceneRecord",
    "Schedule",
    "SyntheticConfig",
    "TripletStatistics",
    "Vocabulary",
    "build_model",
    "build_triplet_statistics",
    "external_linguistic",
    "generate_for_scene",
    "generate_synthetic",
    "iou",
    "joint_loss",
    "load_checkpoint",
    "load_dataset",
    "load_model",
    "match_predictions",
    "predict_scene",
    "recall_at_n",
    "run_evaluation",
    "run_training",
    "save_checkpoint",
    "save_dataset",
    "union_box",
]

__version__ = "0.1.0"
