"""Space-aware socioeconomic indicator inference over heterogeneous
region graphs, with classical interpolation baselines, a masked-ratio
evaluation harness, and a seeded synthetic-world generator."""

from .geodata import (GeoDataError, GridSpec, LabelSet, LandCoverGrid,
                      PoiRecord, Region, load_categories, load_gridspec,
                      load_labels, load_landcover, load_pois, region_of,
                      save_gridspec, save_labels, save_landcover, save_pois)
from .features import (RegionFeatures, assign_pois, compute_env, compute_pos,
                       compute_soc, feature_matrix, featurize_all,
                       load_features, save_features)
from .hetgraph import (EdgeFamily, HeteroGraph, build_elr, build_graph,
                       build_rnr, build_slr, load_graph, rnr_edge_count,
                       save_graph)
from .tensor import (AdamState, NumericError, Tensor, adam_init, adam_step,
                     glorot_uniform, lu_solve)
from .model import (HeadState, HgnnConfig, ModelState, SslConfig,
                    backbone_checksum, embed_regions, finetune_head,
                    hgnn_forward, infonce_loss, load_checkpoint,
                    load_embeddings, positive_sets, predict, predict_all,
                    predict_from_embeddings, pretrain_contrastive,
                    save_checkpoint, save_training_log, train_end_to_end,
                    write_embeddings)
from .baselines import (Sample, VariogramModel, empirical_variogram,
                        fit_variogram, idw_predict, uk_predict, uk_weights)
from .evaluation import (EvalSplit, ExperimentInputs, ExperimentResult,
                         MetricReport, RunSettings, mae, make_split,
                         masked_ratio_sweep, r2, rmse, run_experiment, score,
                         similarity_map, write_predictions, write_report,
                         write_similarity)
from .synth import SynthConfig, generate

__version__ = "0.1.0"

__all__ = [
    "AdamState", "EdgeFamily", "EvalSplit", "ExperimentInputs",
    "ExperimentResult", "GeoDataError", "GridSpec", "HeadState",
    "HeteroGraph", "HgnnConfig", "LabelSet", "LandCoverGrid",
    "MetricReport", "ModelState", "NumericError", "PoiRecord", "Region",
    "RegionFeatures", "RunSettings", "Sample", "SslConfig", "SynthConfig",
    "Tensor", "VariogramModel", "adam_init", "adam_step", "assign_pois",
    "backbone_checksum", "build_elr", "build_graph", "build_rnr",
    "build_slr", "compute_env", "compute_pos", "compute_soc",
    "embed_regions", "empirical_variogram", "feature_matrix",
    "featurize_all", "finetune_head", "fit_variogram", "generate",
    "glorot_uniform", "hgnn_forward", "idw_predict", "infonce_loss",
    "load_categories", "load_checkpoint", "load_embeddings",
    "load_features", "load_graph", "load_gridspec", "load_labels",
    "load_landcover", "load_pois", "lu_solve", "mae", "make_split",
    "masked_ratio_sweep", "positive_sets", "predict", "predict_all",
    "predict_from_embeddings", "pretrain_contrastive", "r2", "region_of",
    "rmse", "rnr_edge_count", "run_experiment", "save_checkpoint",
    "save_features", "save_graph", "save_gridspec", "save_labels",
    "save_landcover", "save_pois", "save_training_log", "score",
    "similarity_map", "train_end_to_end", "uk_predict", "uk_weights",
    "write_embeddings", "write_predictions", "write_report",
    "write_similarity",
]
