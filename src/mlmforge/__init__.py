"""mlmforge: desk-scale masked-language-model pipeline.

Sentence corpus preparation, WordPiece vocabulary training, a from-scratch
transformer encoder with explicit backward passes, MLM pretraining with
static or dynamic masking, domain-adaptive continued pretraining, [CLS]
classification fine-tuning, and recall/F1 comparison reporting.
"""

__version__ = "0.1.0"

from .corpus import RawPost, SentenceCorpus, ingest, segment
from .encoder import EncodedBatch, ModelConfig, count_params, init_classifier, init_params
from .evaluation import ConfusionTable, EvalReport, compute_metrics, evaluate_model, render_report
from .masking import MaskedBatch, build_epoch_batches, mask_sequence
from .numerics import ParameterStore, adam_step, grad_check
from .tokenizer import Vocab, encode, train_vocab
from .training import TrainConfig, finetune, pretrain
from .checkpoint import load_checkpoint, save_checkpoint
from .benchmarks import LabeledDataset, SplitSpec, holdout_split, registry

__all__ = [
    "ConfusionTable",
    "EncodedBatch",
    "EvalReport",
    "LabeledDataset",
    "MaskedBatch",
    "ModelConfig",
    "ParameterStore",
    "RawPost",
    "SentenceCorpus",
    "SplitSpec",
    "TrainConfig",
    "Vocab",
    "adam_step",
    "build_epoch_batches",
    "compute_metrics",
    "count_params",
    "encode",
    "evaluate_model",
    "finetune",
    "grad_check",
    "holdout_split",
    "ingest",
    "init_classifier",
    "init_params",
    "load_checkpoint",
    "mask_sequence",
    "pretrain",
    "registry",
    "render_report",
    "save_checkpoint",
    "segment",
    "train_vocab",
]
