"""Wavelet-domain thermal/visual image fusion with eigenface + MLP recognition."""

from .eigen import AUTO, EigenspaceModel, fit_eigenspace, project, reconstruct_from_features
from .errors import DataError, NumericError, PgmError
from .fusion import FusionPolicy, FusionRule, fuse_coeffs, fuse_images, fuse_trees
from .imgio import crop, load_image, pad_to_block, save_image
from .mlp import MlpConfig, MlpModel, forward, loss_and_gradients, predict, train
from .pipeline import (
    Dataset,
    EvaluationReport,
    PipelineConfig,
    PipelineModel,
    evaluate,
    format_report,
    generate_synthetic_dataset,
    ingest_dataset,
    load_model,
    save_model,
    save_report,
    train_pipeline,
)
from .wavelet import (
    DecompositionTree,
    FilterBank,
    WaveletKind,
    decompose,
    export_tree,
    filter_bank,
    reconstruct,
)

__all__ = [
    "AUTO",
    "DataError",
    "Dataset",
    "DecompositionTree",
    "EigenspaceModel",
    "EvaluationReport",
    "FilterBank",
    "FusionPolicy",
    "FusionRule",
    "MlpConfig",
    "MlpModel",
    "NumericError",
    "PgmError",
    "PipelineConfig",
    "PipelineModel",
    "WaveletKind",
    "crop",
    "decompose",
    "evaluate",
    "filter_bank",
    "fit_eigenspace",
    "format_report",
    "forward",
    "fuse_coeffs",
    "fuse_images",
    "fuse_trees",
    "generate_synthetic_dataset",
    "ingest_dataset",
    "load_image",
    "load_model",
    "loss_and_gradients",
    "pad_to_block",
    "predict",
    "project",
    "reconstruct",
    "reconstruct_from_features",
    "save_image",
    "save_model",
    "save_report",
    "train",
    "train_pipeline",
]
