"""Training-free temporal action segmentation via temporally-weighted
1-NN graph clustering, with baselines and a matched-label metric suite."""

from .baselines import equal_split, finch, kmeans
from .evaluate import EvalReport, aggregate, evaluate_pair, filter_background
from .hierarchy import build_hierarchy
from .refine import SegmentationResult, refine_to_k, segment, select_level
from .synth import SynthSpec, generate
from .types import (
    FeatureSequence,
    GroundTruth,
    Partition,
    PartitionHierarchy,
    relabel_dense,
)

__version__ = "0.1.0"

__all__ = [
    "EvalReport",
    "FeatureSequence",
    "GroundTruth",
    "Partition",
    "PartitionHierarchy",
    "SegmentationResult",
    "SynthSpec",
    "aggregate",
    "build_hierarchy",
    "equal_split",
    "evaluate_pair",
    "filter_background",
    "finch",
    "generate",
    "kmeans",
    "refine_to_k",
    "relabel_dense",
    "segment",
    "select_level",
]
