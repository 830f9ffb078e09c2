"""Low-rank compression toolkit for a small skeleton-sequence classifier.

Pipeline: generate synthetic skeleton data, train an attention classifier,
replace chosen weight matrices with truncated-SVD factor pairs, account for
parameters and FLOPs, and fine-tune to recover accuracy.
"""

from .compress import (
    CompressionPlan,
    CompressionReport,
    PlanParseError,
    compress_model,
    parse_plan,
    rank_sweep,
)
from .data import DatasetSpec, SkeletonSample, generate_dataset, load_dataset, save_dataset
from .finetune import TrainConfig, TrainHistory, evaluate, lr_at_epoch, train
from .layers import (
    AttentionHead,
    DenseLinear,
    GradTape,
    LowRankLinear,
    MhsaBlock,
    attention_forward,
    backward,
    softmax_rows,
)
from .linalg import (
    SvdConvergenceError,
    SvdResult,
    TruncatedFactors,
    reconstruction_error,
    svd,
    truncate_to_factors,
)
from .model import (
    ModelConfig,
    SkeletonModel,
    build_model,
    count_flops,
    count_params,
    cross_entropy,
    forward,
    load_model,
    save_model,
)

__version__ = "0.1.0"
