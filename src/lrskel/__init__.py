"""Low-rank compression toolkit for a small skeleton-sequence classifier.

Pipeline: generate synthetic skeleton data, train an attention classifier,
replace chosen weight matrices with truncated-SVD factor pairs, account for
parameters and FLOPs, and fine-tune to recover accuracy.
"""

from .compress import compress_model, parse_plan
from .data import DatasetSpec, generate_dataset, load_dataset, save_dataset
from .finetune import TrainConfig, evaluate, train
from .model import ModelConfig, build_model, count_params, load_model, save_model

__version__ = "0.1.0"
