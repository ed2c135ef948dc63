"""Space-aware socioeconomic indicator inference over heterogeneous
region graphs, with classical interpolation baselines, a masked-ratio
evaluation harness, and a seeded synthetic-world generator."""

from .geodata import (GeoDataError, GridSpec, LabelSet, LandCoverGrid,
                      PoiTable, Region, load_categories, load_gridspec,
                      load_labels, load_landcover, load_pois, region_of,
                      save_gridspec, save_labels, save_landcover, save_pois)
from .features import (FeatureTable, assign_pois, featurize_all,
                       load_features, save_features)
from .hetgraph import (EdgeFamily, HeteroGraph, build_elr, build_graph,
                       build_rnr, build_slr, rnr_edge_count, save_graph)
from .tensor import NumericError, Tensor, adam_step, glorot_uniform
from .model import (HeadState, HgnnConfig, LabelTransform, ModelState,
                    SslConfig, TrainConfig, backbone_checksum, embed_regions,
                    finetune_head, hgnn_forward, infonce_loss, load_checkpoint,
                    load_embeddings, positive_sets, predict_all,
                    predict_from_embeddings, pretrain_contrastive,
                    save_checkpoint, save_training_log, train_end_to_end,
                    write_embeddings)
from .baselines import (Sample, VariogramModel, empirical_variogram,
                        fit_variogram, idw_predict, idw_predict_batch,
                        uk_predict, uk_predict_batch, uk_weights)
from .evaluation import (EvalSplit, ExperimentInputs, ExperimentResult,
                         MetricReport, RunSettings, mae, make_split, r2,
                         rmse, run_experiment, score, similarity_map,
                         write_predictions, write_report, write_similarity)
from .synth import SynthConfig, generate

__version__ = "0.1.0"

__all__ = [
    "EdgeFamily", "EvalSplit", "ExperimentInputs",
    "ExperimentResult", "FeatureTable", "GeoDataError", "GridSpec",
    "HeadState", "HeteroGraph", "HgnnConfig", "LabelSet", "LabelTransform",
    "LandCoverGrid", "MetricReport", "ModelState", "NumericError", "PoiTable",
    "Region", "RunSettings", "Sample", "SslConfig", "SynthConfig", "Tensor",
    "TrainConfig",
    "VariogramModel", "adam_step", "assign_pois",
    "backbone_checksum", "build_elr", "build_graph", "build_rnr",
    "build_slr", "embed_regions", "empirical_variogram",
    "featurize_all", "finetune_head", "fit_variogram", "generate",
    "glorot_uniform", "hgnn_forward", "idw_predict", "idw_predict_batch",
    "infonce_loss",
    "load_categories", "load_checkpoint", "load_embeddings",
    "load_features", "load_gridspec", "load_labels",
    "load_landcover", "load_pois", "mae", "make_split",
    "positive_sets", "predict_all",
    "predict_from_embeddings", "pretrain_contrastive", "r2", "region_of",
    "rmse", "rnr_edge_count", "run_experiment", "save_checkpoint",
    "save_features", "save_graph", "save_gridspec", "save_labels",
    "save_landcover", "save_pois", "save_training_log", "score",
    "similarity_map", "train_end_to_end", "uk_predict", "uk_predict_batch",
    "uk_weights",
    "write_embeddings", "write_predictions", "write_report",
    "write_similarity",
]
