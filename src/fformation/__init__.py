"""Detection and characterization of conversational groups (F-formations).

The pipeline: deconstruct each frame into person-pairs, describe every
pair with two features (distance and effort angle), classify pairs as
same-group or not, then greedily reconstruct whole groups from the
pairwise relation matrix. Evaluation uses tolerant group matching;
characterization reports group symmetry and tightness.
"""

from .characterization import (
    GroupShape,
    SizeStats,
    characterize_corpus,
    format_size_table,
    group_center,
    perfect_gap,
    shape_of,
    symmetry,
    symmetry_from_angles,
    tightness,
)
from .classifiers import (
    DECISION_THRESHOLD,
    KINDS,
    TrainedModel,
    TrainingError,
    build_relation_matrix,
    load_model,
    pairwise_accuracy,
    predict,
    predict_batch,
    save_model,
    train,
)
from .core import (
    AgentPose,
    Frame,
    GroupSet,
    PairSample,
    PairTable,
    RelationMatrix,
    ValidationError,
    normalize_angle,
    validate_frame,
)
from .datasets import (
    CanonicalDataset,
    DatasetFormatError,
    load_babble,
    load_canonical,
    load_salsa,
    save_canonical,
    split_frames,
)
from .evaluation import (
    EvalReport,
    FrameScore,
    as_tolerance,
    evaluate,
    format_report,
    group_match,
    majority_baseline,
)
from .features import distance, effort_angle, pair_features, pairwise_deconstruct
from .reconstruction import belief_set, detect, greedy_reconstruct
from .render import render_frame_svg, render_size_chart_svg
from .synthetic import PlacementError, SynthConfig, generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "AgentPose",
    "CanonicalDataset",
    "DECISION_THRESHOLD",
    "DatasetFormatError",
    "EvalReport",
    "Frame",
    "FrameScore",
    "GroupSet",
    "GroupShape",
    "KINDS",
    "PairSample",
    "PairTable",
    "PlacementError",
    "RelationMatrix",
    "SizeStats",
    "SynthConfig",
    "TrainedModel",
    "TrainingError",
    "ValidationError",
    "as_tolerance",
    "belief_set",
    "build_relation_matrix",
    "characterize_corpus",
    "detect",
    "distance",
    "effort_angle",
    "evaluate",
    "format_report",
    "format_size_table",
    "generate_synthetic",
    "greedy_reconstruct",
    "group_center",
    "group_match",
    "load_babble",
    "load_canonical",
    "load_model",
    "load_salsa",
    "majority_baseline",
    "normalize_angle",
    "pair_features",
    "pairwise_accuracy",
    "pairwise_deconstruct",
    "perfect_gap",
    "predict",
    "predict_batch",
    "render_frame_svg",
    "render_size_chart_svg",
    "save_canonical",
    "save_model",
    "shape_of",
    "split_frames",
    "symmetry",
    "symmetry_from_angles",
    "tightness",
    "train",
    "validate_frame",
]
