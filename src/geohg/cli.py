"""Command-line pipeline: synthetic worlds, featurization, graphs, training,
baselines, evaluation, and hyperparameter sweeps.

Every subcommand reads declared inputs, writes declared outputs, and echoes
its fully resolved configuration as '#' comment lines into each output file.
Exit status 0 on success; 2 with a stage-tagged stderr message otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Sequence

from .geodata import (GeoDataError, GridSpec, load_categories, load_gridspec,
                      load_labels, load_landcover, load_pois, save_gridspec,
                      save_labels, save_landcover, save_pois)
from .features import featurize_all, load_features, save_features
from .hetgraph import build_graph, save_graph
from .model import (HgnnConfig, SslConfig, finetune_head, load_checkpoint,
                    load_embeddings, predict_all, pretrain_contrastive,
                    save_checkpoint, save_training_log,
                    train_end_to_end, write_embeddings)
from .evaluation import (ExperimentInputs, RunSettings, make_split,
                         run_experiment, similarity_map, write_predictions,
                         write_report, write_similarity)
from .synth import SynthConfig, generate
from .tensor import NumericError

# Per-task presets: graph thresholds from the published per-dataset settings
# (3 layers / hidden 64 everywhere); heavy-tailed indicators get log1p labels.
TASK_PRESETS: dict[str, dict[str, object]] = {
    "carbon": {"theta_env": 0.6, "theta_soc": 0.9,
               "label_transform": "log1p+zscore"},
    "population": {"theta_env": 0.2, "theta_soc": 0.9,
                   "label_transform": "log1p+zscore"},
    "gdp": {"theta_env": 0.4, "theta_soc": 1.2, "label_transform": "zscore"},
    "light": {"theta_env": 0.2, "theta_soc": 0.9, "label_transform": "zscore"},
    "pm25": {"theta_env": 0.8, "theta_soc": 0.6, "label_transform": "zscore"},
}

DEFAULT_THETA_ENV = 0.6
DEFAULT_THETA_SOC = 0.9


def _float_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc


def _out_path(args: argparse.Namespace, name: str) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def _echo(command: str, resolved: dict[str, object]) -> list[str]:
    lines = [f"command = {command}"]
    for key in sorted(resolved):
        value = resolved[key]
        if isinstance(value, (list, tuple)):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    return lines


def _resolve_model_args(args: argparse.Namespace) -> tuple[float, float,
                                                           HgnnConfig]:
    """Merge explicit flags over task presets over package defaults."""
    preset = TASK_PRESETS[args.task] if getattr(args, "task", None) else {}
    theta_env = getattr(args, "theta_env", None)
    if theta_env is None:
        theta_env = float(preset.get("theta_env", DEFAULT_THETA_ENV))
    theta_soc = getattr(args, "theta_soc", None)
    if theta_soc is None:
        theta_soc = float(preset.get("theta_soc", DEFAULT_THETA_SOC))
    transform = getattr(args, "label_transform", None)
    if transform is None:
        transform = str(preset.get("label_transform", "zscore"))
    kwargs: dict[str, object] = {"label_transform": transform,
                                 "seed": args.seed}
    for flag, name in (("layers", "n_layers"), ("hidden_dim", "hidden_dim"),
                       ("lr", "lr"), ("max_epochs", "max_epochs"),
                       ("patience", "patience")):
        value = getattr(args, flag, None)
        if value is not None:
            kwargs[name] = value
    return theta_env, theta_soc, HgnnConfig(**kwargs)


def _resolve_ssl(args: argparse.Namespace) -> SslConfig:
    kwargs: dict[str, object] = {"seed": args.seed}
    for flag, name in (("temperature", "temperature"), ("top_k", "top_k"),
                       ("batch_size", "batch_size"), ("ssl_epochs", "epochs"),
                       ("ssl_lr", "lr")):
        value = getattr(args, flag, None)
        if value is not None:
            kwargs[name] = value
    return SslConfig(**kwargs)


def _load_world(args: argparse.Namespace):
    grid = load_gridspec(args.grid)
    lc = load_landcover(args.landcover, grid)
    categories = load_categories(args.categories) if args.categories else None
    n_categories = args.n_categories
    if n_categories is None and categories is not None:
        n_categories = len(categories)
    pois = load_pois(args.pois, categories=categories,
                     n_categories=n_categories)
    return grid, lc, pois, n_categories


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_synth(args: argparse.Namespace) -> int:
    config = SynthConfig(
        n_cols=args.n_cols, n_rows=args.n_rows,
        pixels_per_cell=args.pixels_per_cell, n_classes=args.n_classes,
        n_categories=args.n_categories, n_archetypes=args.n_archetypes,
        n_patches=args.n_patches, smooth_amplitude=args.smooth_amplitude,
        jump=args.jump, noise_sigma=args.noise_sigma,
        origin_lon=args.origin_lon, origin_lat=args.origin_lat,
        cell_km=args.cell_km, indicator_name=args.indicator_name,
        seed=args.seed)
    lc, pois, labels, ledger = generate(config)
    echo = _echo("synth", {k: getattr(args, k) for k in (
        "n_cols", "n_rows", "pixels_per_cell", "n_classes", "n_categories",
        "n_archetypes", "n_patches", "smooth_amplitude", "jump",
        "noise_sigma", "origin_lon", "origin_lat", "cell_km",
        "indicator_name", "seed")})
    save_gridspec(lc.grid, _out_path(args, "grid.cfg"), echo)
    save_landcover(lc, _out_path(args, "landcover.txt"), echo)
    save_pois(pois, _out_path(args, "pois.csv"), echo)
    save_labels(labels, _out_path(args, "labels.csv"), echo)
    ledger["echo"] = echo
    with open(_out_path(args, "ledger.json"), "w", encoding="utf-8") as fh:
        json.dump(ledger, fh)
    print(f"synth: {lc.grid.n_regions} regions, {len(pois)} POIs, "
          f"{len(labels)} labels -> {args.out_dir}")
    return 0


def cmd_featurize(args: argparse.Namespace) -> int:
    grid, lc, pois, n_categories = _load_world(args)
    feats = featurize_all(grid, lc, pois, n_categories=n_categories)
    echo = _echo("featurize", {"grid": args.grid, "landcover": args.landcover,
                               "pois": args.pois,
                               "categories": args.categories,
                               "n_categories": n_categories})
    save_features(feats, args.out, echo)
    print(f"featurize: wrote {len(feats)} region rows -> {args.out}")
    return 0


def cmd_build_graph(args: argparse.Namespace) -> int:
    grid = load_gridspec(args.grid)
    feats = load_features(args.features)
    theta_env = args.theta_env if args.theta_env is not None else DEFAULT_THETA_ENV
    theta_soc = args.theta_soc if args.theta_soc is not None else DEFAULT_THETA_SOC
    graph = build_graph(grid, feats, theta_env, theta_soc)
    echo = _echo("build-graph", {"grid": args.grid, "features": args.features,
                                 "theta_env": theta_env,
                                 "theta_soc": theta_soc})
    save_graph(graph, args.out, echo)
    print(f"build-graph: {len(graph.edges_rnr)} RNR, {len(graph.edges_elr)} "
          f"ELR, {len(graph.edges_slr)} SLR edges -> {args.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    grid, lc, pois, n_categories = _load_world(args)
    labels = load_labels(args.labels, grid)
    theta_env, theta_soc, config = _resolve_model_args(args)
    feats = featurize_all(grid, lc, pois, n_categories=n_categories)
    graph = build_graph(grid, feats, theta_env, theta_soc)
    split = make_split(labels, args.masked_ratio, args.seed)
    state, log = train_end_to_end(graph, feats, labels, split, config)
    echo = _echo("train", {"grid": args.grid, "labels": args.labels,
                           "theta_env": theta_env, "theta_soc": theta_soc,
                           "masked_ratio": args.masked_ratio,
                           "seed": args.seed,
                           "n_layers": config.n_layers,
                           "hidden_dim": config.hidden_dim,
                           "lr": config.lr,
                           "label_transform": config.label_transform})
    save_checkpoint(state, _out_path(args, "checkpoint.json"))
    save_training_log(log, _out_path(args, "train_log.csv"), echo)
    best = min(row[2] for row in log)
    print(f"train: {len(log)} epochs, best validation MSE {best:.6f} "
          f"-> {args.out_dir}")
    return 0


def cmd_pretrain(args: argparse.Namespace) -> int:
    grid, lc, pois, n_categories = _load_world(args)
    theta_env, theta_soc, config = _resolve_model_args(args)
    ssl = _resolve_ssl(args)
    feats = featurize_all(grid, lc, pois, n_categories=n_categories)
    graph = build_graph(grid, feats, theta_env, theta_soc)
    state, embeddings, log = pretrain_contrastive(graph, feats, ssl, config)
    echo = _echo("pretrain", {"grid": args.grid, "theta_env": theta_env,
                              "theta_soc": theta_soc, "seed": args.seed,
                              "temperature": ssl.temperature,
                              "top_k": ssl.top_k,
                              "batch_size": ssl.batch_size,
                              "epochs": ssl.epochs, "lr": ssl.lr})
    save_checkpoint(state, _out_path(args, "pretrain_checkpoint.json"))
    write_embeddings([f.region for f in feats], embeddings,
                     _out_path(args, "embeddings.csv"), echo)
    with open(_out_path(args, "pretrain_log.csv"), "w", encoding="utf-8") as fh:
        for line in echo:
            fh.write(f"# {line}\n")
        fh.write("epoch,loss\n")
        for epoch, loss in log:
            fh.write(f"{epoch},{loss!r}\n")
    print(f"pretrain: {ssl.epochs} epochs, final loss {log[-1][1]:.4f} "
          f"-> {args.out_dir}")
    return 0


def cmd_finetune(args: argparse.Namespace) -> int:
    grid = load_gridspec(args.grid)
    labels = load_labels(args.labels, grid)
    regions, embeddings = load_embeddings(args.embeddings)
    _, _, config = _resolve_model_args(args)
    split = make_split(labels, args.masked_ratio, args.seed)
    head, log = finetune_head(embeddings, labels, split, config, regions)
    echo = _echo("finetune", {"embeddings": args.embeddings,
                              "labels": args.labels,
                              "masked_ratio": args.masked_ratio,
                              "seed": args.seed,
                              "label_transform": config.label_transform})
    save_checkpoint(head, _out_path(args, "head.json"))
    save_training_log(log, _out_path(args, "finetune_log.csv"), echo)
    best = min(row[2] for row in log)
    print(f"finetune: {len(log)} epochs, best validation MSE {best:.6f} "
          f"-> {args.out_dir}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    grid, lc, pois, n_categories = _load_world(args)
    state = load_checkpoint(args.checkpoint)
    theta_env = args.theta_env if args.theta_env is not None else DEFAULT_THETA_ENV
    theta_soc = args.theta_soc if args.theta_soc is not None else DEFAULT_THETA_SOC
    feats = featurize_all(grid, lc, pois, n_categories=n_categories)
    graph = build_graph(grid, feats, theta_env, theta_soc)
    values = predict_all(state, graph, feats)
    echo = _echo("predict", {"checkpoint": args.checkpoint,
                             "grid": args.grid, "theta_env": theta_env,
                             "theta_soc": theta_soc})
    with open(args.out, "w", encoding="utf-8") as fh:
        for line in echo:
            fh.write(f"# {line}\n")
        fh.write("x_r,y_r,y_pred\n")
        for feat, value in zip(feats, values):
            x, y = feat.region
            fh.write(f"{x},{y},{float(value)!r}\n")
    print(f"predict: {len(values)} regions -> {args.out}")
    return 0


def _run_and_write(args: argparse.Namespace, method: str,
                   inputs: ExperimentInputs, settings: RunSettings,
                   masked_ratio: float, seed: int,
                   report_path: str, predictions_path: str,
                   echo: list[str]):
    result = run_experiment(inputs, method, masked_ratio, seed, settings)
    write_report(result.report, report_path, echo)
    write_predictions(result.predictions, predictions_path, echo)
    return result


def cmd_baseline(args: argparse.Namespace) -> int:
    grid = load_gridspec(args.grid)
    labels = load_labels(args.labels, grid)
    inputs = ExperimentInputs(grid=grid, lc=None, pois=(), labels=labels)
    settings = RunSettings(idw_power=args.power, idw_k=args.idw_k,
                           uk_k=args.uk_k)
    echo = _echo("baseline", {"method": args.method, "grid": args.grid,
                              "labels": args.labels,
                              "masked_ratio": args.masked_ratio,
                              "seed": args.seed, "power": args.power,
                              "idw_k": args.idw_k, "uk_k": args.uk_k})
    result = _run_and_write(args, args.method, inputs, settings,
                            args.masked_ratio, args.seed,
                            _out_path(args, f"report_{args.method}.txt"),
                            _out_path(args, f"predictions_{args.method}.csv"),
                            echo)
    print(f"baseline {args.method}: r2={result.report.r2:.4f} "
          f"mae={result.report.mae:.4f} rmse={result.report.rmse:.4f}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    grid, lc, pois, n_categories = _load_world(args)
    labels = load_labels(args.labels, grid)
    theta_env, theta_soc, config = _resolve_model_args(args)
    ssl = _resolve_ssl(args)
    inputs = ExperimentInputs(grid=grid, lc=lc, pois=pois, labels=labels,
                              n_categories=n_categories)
    settings = RunSettings(theta_env=theta_env, theta_soc=theta_soc,
                           hgnn=config, ssl=ssl)
    echo = _echo("eval", {"method": args.method, "grid": args.grid,
                          "labels": args.labels, "theta_env": theta_env,
                          "theta_soc": theta_soc,
                          "masked_ratio": args.masked_ratio,
                          "seed": args.seed,
                          "n_layers": config.n_layers,
                          "hidden_dim": config.hidden_dim,
                          "lr": config.lr,
                          "label_transform": config.label_transform,
                          "task": args.task})
    result = _run_and_write(args, args.method, inputs, settings,
                            args.masked_ratio, args.seed,
                            _out_path(args, "report.txt"),
                            _out_path(args, "predictions.csv"), echo)
    if result.log:
        save_training_log(list(result.log), _out_path(args, "train_log.csv"),
                          echo)
    print(f"eval {args.method}: r2={result.report.r2:.4f} "
          f"mae={result.report.mae:.4f} rmse={result.report.rmse:.4f} "
          f"n_eval={result.report.n_eval}")
    return 0


def cmd_similarity(args: argparse.Namespace) -> int:
    regions, embeddings = load_embeddings(args.embeddings)
    anchor = (args.anchor_x, args.anchor_y)
    try:
        row = regions.index(anchor)
    except ValueError:
        raise GeoDataError(f"anchor region {anchor} not in embeddings") from None
    sims = similarity_map(embeddings, row)
    echo = _echo("similarity", {"embeddings": args.embeddings,
                                "anchor_x": args.anchor_x,
                                "anchor_y": args.anchor_y})
    write_similarity(regions, sims, args.out, echo)
    print(f"similarity: anchor {anchor} -> {args.out}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    grid, lc, pois, n_categories = _load_world(args)
    labels = load_labels(args.labels, grid)
    _, _, config = _resolve_model_args(args)
    ssl = _resolve_ssl(args)
    inputs = ExperimentInputs(grid=grid, lc=lc, pois=pois, labels=labels,
                              n_categories=n_categories)
    combos = [(te, ts, m)
              for te in args.theta_env_list
              for ts in args.theta_soc_list
              for m in args.masked_ratio_list]

    def job(combo: tuple[float, float, float]):
        te, ts, m = combo
        settings = RunSettings(theta_env=te, theta_soc=ts, hgnn=config,
                               ssl=ssl)
        tag = f"env{te:g}_soc{ts:g}_mask{m:g}"
        echo = _echo("sweep", {"method": args.method, "theta_env": te,
                               "theta_soc": ts, "masked_ratio": m,
                               "seed": args.seed,
                               "n_layers": config.n_layers,
                               "hidden_dim": config.hidden_dim})
        return _run_and_write(args, args.method, inputs, settings, m,
                              args.seed,
                              _out_path(args, f"report_{tag}.txt"),
                              _out_path(args, f"predictions_{tag}.csv"), echo)

    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(job, combos))
    else:
        results = [job(c) for c in combos]
    summary = _out_path(args, "sweep_summary.csv")
    with open(summary, "w", encoding="utf-8") as fh:
        fh.write("theta_env,theta_soc,masked_ratio,seed,mae,rmse,r2,n_eval\n")
        for (te, ts, m), result in zip(combos, results):
            r = result.report
            fh.write(f"{te!r},{ts!r},{m!r},{args.seed},"
                     f"{r.mae!r},{r.rmse!r},{r.r2!r},{r.n_eval}\n")
    print(f"sweep: {len(combos)} runs -> {summary}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def _add_world_inputs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid", required=True, help="grid spec file")
    p.add_argument("--landcover", required=True, help="land-cover grid file")
    p.add_argument("--pois", required=True, help="POI CSV")
    p.add_argument("--categories", help="optional category manifest")
    p.add_argument("--n-categories", type=int, help="POI category count")


def _add_model_flags(p: argparse.ArgumentParser,
                     thresholds: bool = True) -> None:
    p.add_argument("--task", choices=sorted(TASK_PRESETS),
                   help="named preset supplying thresholds and label transform")
    if thresholds:
        p.add_argument("--theta-env", type=float, help="ELR weight threshold")
        p.add_argument("--theta-soc", type=float, help="SLR weight threshold")
    p.add_argument("--layers", type=int, help="graph layers (1..3)")
    p.add_argument("--hidden-dim", type=int, help="hidden width")
    p.add_argument("--lr", type=float, help="Adam learning rate")
    p.add_argument("--max-epochs", type=int)
    p.add_argument("--patience", type=int, help="early-stopping patience")
    p.add_argument("--label-transform", choices=("zscore", "log1p+zscore"))


def _add_ssl_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--temperature", type=float)
    p.add_argument("--top-k", type=int, help="feature-similar positives per anchor")
    p.add_argument("--batch-size", type=int)
    p.add_argument("--ssl-epochs", type=int)
    p.add_argument("--ssl-lr", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geohg",
        description="Socioeconomic indicator inference over heterogeneous "
                    "region graphs, with IDW/kriging baselines and a "
                    "synthetic-world generator.")
    parser.add_argument("--out-dir", default=os.environ.get("GEOHG_OUT_DIR", "."),
                        help="output directory (env GEOHG_OUT_DIR)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic world")
    p.add_argument("--n-cols", type=int, default=16)
    p.add_argument("--n-rows", type=int, default=16)
    p.add_argument("--pixels-per-cell", type=int, default=4)
    p.add_argument("--n-classes", type=int, default=11)
    p.add_argument("--n-categories", type=int, default=6)
    p.add_argument("--n-archetypes", type=int, default=4)
    p.add_argument("--n-patches", type=int, default=24)
    p.add_argument("--smooth-amplitude", type=float, default=0.5)
    p.add_argument("--jump", type=float, default=2.0)
    p.add_argument("--noise-sigma", type=float, default=0.1)
    p.add_argument("--origin-lon", type=float, default=0.0)
    p.add_argument("--origin-lat", type=float, default=0.0)
    p.add_argument("--cell-km", type=float, default=1.0)
    p.add_argument("--indicator-name", default="indicator")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("featurize", help="compute per-region feature rows")
    _add_world_inputs(p)
    p.add_argument("--out", required=True, help="features CSV path")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("build-graph", help="assemble the heterogeneous graph")
    p.add_argument("--grid", required=True)
    p.add_argument("--features", required=True, help="features CSV")
    p.add_argument("--theta-env", type=float)
    p.add_argument("--theta-soc", type=float)
    p.add_argument("--out", required=True, help="edge-list path")
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("train", help="end-to-end supervised training")
    _add_world_inputs(p)
    p.add_argument("--labels", required=True)
    p.add_argument("--masked-ratio", type=float, default=0.75)
    p.add_argument("--seed", type=int, default=0)
    _add_model_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("pretrain", help="contrastive backbone pretraining")
    _add_world_inputs(p)
    p.add_argument("--seed", type=int, default=0)
    _add_model_flags(p)
    _add_ssl_flags(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="train the head on frozen embeddings")
    p.add_argument("--grid", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--masked-ratio", type=float, default=0.75)
    p.add_argument("--seed", type=int, default=0)
    _add_model_flags(p)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("predict", help="predict every region from a checkpoint")
    _add_world_inputs(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--theta-env", type=float)
    p.add_argument("--theta-soc", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("baseline", help="IDW or kriging on the label set")
    p.add_argument("--method", required=True, choices=("idw", "uk"))
    p.add_argument("--grid", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--masked-ratio", type=float, default=0.75)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--power", type=float, default=2.0, help="IDW exponent")
    p.add_argument("--idw-k", type=int, default=16)
    p.add_argument("--uk-k", type=int, default=64)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("eval", help="run the masked-ratio protocol end to end")
    _add_world_inputs(p)
    p.add_argument("--labels", required=True)
    p.add_argument("--method", default="geohg",
                   choices=("geohg", "geohg-ssl", "idw", "uk"))
    p.add_argument("--masked-ratio", type=float, default=0.75)
    p.add_argument("--seed", type=int, default=0)
    _add_model_flags(p)
    _add_ssl_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("similarity", help="cosine similarity map for an anchor")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--anchor-x", type=int, required=True)
    p.add_argument("--anchor-y", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_similarity)

    p = sub.add_parser("sweep", help="grid of thresholds / masked ratios")
    _add_world_inputs(p)
    p.add_argument("--labels", required=True)
    p.add_argument("--method", default="geohg",
                   choices=("geohg", "geohg-ssl", "idw", "uk"))
    p.add_argument("--theta-env", dest="theta_env_list", type=_float_list,
                   default=[DEFAULT_THETA_ENV], help="comma-separated values")
    p.add_argument("--theta-soc", dest="theta_soc_list", type=_float_list,
                   default=[DEFAULT_THETA_SOC], help="comma-separated values")
    p.add_argument("--masked-ratio", dest="masked_ratio_list",
                   type=_float_list, default=[0.75],
                   help="comma-separated values")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1, help="parallel runs")
    _add_model_flags(p, thresholds=False)
    _add_ssl_flags(p)
    p.set_defaults(func=cmd_sweep)
    return parser


def dispatch(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GeoDataError, NumericError, ValueError, OSError) as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":   # pragma: no cover
    main()
