"""Contrastive point-cloud pre-training at desk scale.

Point-level, asymmetric-granularity (point vs superpoint-segment), and
channel-orthogonality contrastive losses with exact analytic gradients and
brute-force reference oracles; a synthetic-scene pre-training and
linear-probe pipeline; and a benchmark harness for the pair-count and
accounted-memory scaling of each loss.
"""

from .bench import BenchReport, BenchRow, bench_loss, fit_exponent
from .encoder import (
    MlpParams,
    encoder_backward,
    encoder_forward,
    encoder_init,
    load_checkpoint,
    save_checkpoint,
)
from .losses import (
    EvalCounter,
    LossConfig,
    LossOutput,
    ag_contrast,
    brute_force_loss,
    channel_abs_cosine_mean,
    channel_contrast,
    contrast,
    count_pairs,
    ep_contrast,
    point_infonce,
    segment_pool_backward,
)
from .pointcloud import (
    AugmentParams,
    PointCloud,
    augment,
    load_ascii,
    load_binary,
    make_view_pair,
    save_ascii,
    save_binary,
)
from .superpoint import (
    KMeansConfig,
    SegmentAssignment,
    kmeans_segments,
    kmeans_segments_with_history,
    segment_features,
)
from .trainer import (
    OptimState,
    ProbeConfig,
    SyntheticSceneConfig,
    TrainConfig,
    adam_step,
    generate_scene,
    linear_probe,
    pretrain,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentParams",
    "BenchReport",
    "BenchRow",
    "EvalCounter",
    "KMeansConfig",
    "LossConfig",
    "LossOutput",
    "MlpParams",
    "OptimState",
    "PointCloud",
    "ProbeConfig",
    "SegmentAssignment",
    "SyntheticSceneConfig",
    "TrainConfig",
    "adam_step",
    "ag_contrast",
    "augment",
    "bench_loss",
    "brute_force_loss",
    "channel_abs_cosine_mean",
    "channel_contrast",
    "contrast",
    "count_pairs",
    "encoder_backward",
    "encoder_forward",
    "encoder_init",
    "ep_contrast",
    "fit_exponent",
    "generate_scene",
    "kmeans_segments",
    "kmeans_segments_with_history",
    "linear_probe",
    "load_ascii",
    "load_binary",
    "load_checkpoint",
    "make_view_pair",
    "point_infonce",
    "pretrain",
    "save_ascii",
    "save_binary",
    "save_checkpoint",
    "segment_features",
    "segment_pool_backward",
]
