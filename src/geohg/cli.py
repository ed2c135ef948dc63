"""Command-line pipeline: synthetic worlds, featurization, graphs, training,
baselines, evaluation, and hyperparameter sweeps.

Every subcommand reads declared inputs, writes declared outputs, and echoes
its fully resolved configuration as '#' comment lines into each text output:
the command, then every flag it took, as resolved. The output locations
(--out-dir, --out) are left out, so the same run writes the same bytes
wherever it writes them. Exit status 0 on success; 2 with a stage-tagged
stderr message otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from . import baselines
from .geodata import (GeoDataError, cell_rows, load_categories, load_gridspec,
                      load_labels, load_landcover, load_pois, open_commented,
                      save_gridspec, save_labels, save_landcover, save_pois)
from .features import featurize_all, load_features, save_features
from .hetgraph import build_graph, check_thresholds, save_graph
from .model import (LABEL_TRANSFORMS, HgnnConfig, SslConfig, TrainConfig,
                    finetune_head, load_checkpoint, load_embeddings,
                    predict_all, pretrain_contrastive, save_checkpoint,
                    save_training_log, train_end_to_end, write_embeddings)
from .evaluation import (METHODS, ExperimentInputs, RunSettings, make_split,
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
BASELINES = ("idw", "uk")


# ---------------------------------------------------------------------------
# flag tables: each setting is declared once, with its config field
# ---------------------------------------------------------------------------

class Flag(NamedTuple):
    dest: str                 # the flag is --dest, with '-' for '_'
    field: str                # the config field it sets
    help: Optional[str] = None
    choices: Optional[Sequence[str]] = None


@dataclass(frozen=True)
class FlagGroup:
    """Flags that set fields of a config class. A flag's type and default
    are those of its field in ``defaults``, an instance built with no
    arguments, so neither is restated here."""

    defaults: object
    flags: tuple[Flag, ...]

    def default(self, flag: Flag) -> object:
        return getattr(self.defaults, flag.field)

    def fields(self, resolved: dict[str, object]) -> dict[str, object]:
        """The config fields set by those of this group's flags in
        ``resolved``, keyed by field name."""
        return {f.field: resolved[f.dest] for f in self.flags
                if f.dest in resolved}


SYNTH = FlagGroup(SynthConfig(), tuple(Flag(name, name) for name in (
    "n_cols", "n_rows", "pixels_per_cell", "n_classes", "n_categories",
    "n_archetypes", "n_patches", "smooth_amplitude", "jump", "noise_sigma",
    "origin_lon", "origin_lat", "cell_km", "seed")))
THRESHOLDS = FlagGroup(RunSettings(), (
    Flag("theta_env", "theta_env", "ELR weight threshold"),
    Flag("theta_soc", "theta_soc", "SLR weight threshold")))
ARCHITECTURE = FlagGroup(HgnnConfig(), (
    Flag("layers", "n_layers", "graph layers (1..3)"),
    Flag("hidden_dim", "hidden_dim", "hidden width")))
TRAINING = FlagGroup(TrainConfig(), (
    Flag("lr", "lr", "Adam learning rate"),
    Flag("max_epochs", "max_epochs"),
    Flag("patience", "patience", "early-stopping patience"),
    Flag("label_transform", "label_transform", choices=LABEL_TRANSFORMS)))
SSL = FlagGroup(SslConfig(), (
    Flag("temperature", "temperature"),
    Flag("top_k", "top_k", "feature-similar positives per anchor"),
    Flag("batch_size", "batch_size"),
    Flag("ssl_epochs", "epochs"),
    Flag("ssl_lr", "lr")))
MODEL_GROUPS = (THRESHOLDS, ARCHITECTURE, TRAINING, SSL)
# Flags whose default a --task preset may supply; they parse to None when
# not given, and _resolve fills them in.
PRESET_FLAGS = frozenset(k for preset in TASK_PRESETS.values() for k in preset)


def _float_list(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError(f"empty float list {text!r}")
    return values


def _out_path(args: argparse.Namespace, name: str) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def _echo(args: argparse.Namespace, **resolved: object) -> list[str]:
    """'key = value' lines: the command, then each flag it took, with the
    values in ``resolved`` in place of the parsed ones."""
    values = {k: v for k, v in vars(args).items()
              if k not in ("command", "func", "out_dir", "out")}
    values.update(resolved)
    lines = [f"command = {args.command}"]
    for key in sorted(values):
        value = values[key]
        if isinstance(value, (list, tuple)):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    return lines


def _resolve(args: argparse.Namespace) -> dict[str, object]:
    """The command's model flags, each as given, else as its --task preset
    sets it, else as its config field's default."""
    preset = TASK_PRESETS.get(getattr(args, "task", None), {})
    resolved = {}
    for group in MODEL_GROUPS:
        for flag in group.flags:
            if flag.dest in args:
                value = getattr(args, flag.dest)
                if value is None:
                    value = preset.get(flag.dest, group.default(flag))
                resolved[flag.dest] = value
    return resolved


def _settings(resolved: dict[str, object]) -> RunSettings:
    """RunSettings from resolved model flags; a setting the command takes no
    flag for keeps its default."""
    return RunSettings(**THRESHOLDS.fields(resolved),
                       hgnn=HgnnConfig(**ARCHITECTURE.fields(resolved)),
                       train=TrainConfig(**TRAINING.fields(resolved)),
                       ssl=SslConfig(**SSL.fields(resolved)))


def _forget(args: argparse.Namespace, *groups: FlagGroup) -> None:
    """Drop the flags of ``groups``: _resolve and _echo then skip them."""
    for flag in (f for group in groups for f in group.flags):
        delattr(args, flag.dest)


def _load_world(args: argparse.Namespace):
    grid = load_gridspec(args.grid)
    if getattr(args, "method", None) in BASELINES:   # no raster or POI read
        return grid, None, None, args.n_categories
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
    config = SynthConfig(**SYNTH.fields(vars(args)))
    lc, pois, labels, ledger = generate(config)
    echo = _echo(args)
    save_gridspec(lc.grid, _out_path(args, "grid.cfg"), echo)
    save_landcover(lc, _out_path(args, "landcover.txt"), echo)
    save_pois(pois, _out_path(args, "pois.csv"), echo)
    save_labels(labels, _out_path(args, "labels.csv"), echo)
    ledger["echo"] = echo
    with open(_out_path(args, "ledger.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(ledger))    # the C encoder; json.dump has none
    print(f"synth: {lc.grid.n_regions} regions, {len(pois)} POIs, "
          f"{len(labels)} labels -> {args.out_dir}")
    return 0


def cmd_featurize(args: argparse.Namespace) -> int:
    grid, lc, pois, n_categories = _load_world(args)
    feats = featurize_all(grid, lc, pois, n_categories=n_categories)
    save_features(feats, args.out, _echo(args, n_categories=n_categories))
    print(f"featurize: wrote {len(feats.cells)} region rows -> {args.out}")
    return 0


def cmd_build_graph(args: argparse.Namespace) -> int:
    grid = load_gridspec(args.grid)
    feats = load_features(args.features)
    resolved = _resolve(args)
    graph = build_graph(grid, feats, resolved["theta_env"],
                        resolved["theta_soc"])
    save_graph(graph, args.out, _echo(args, **resolved))
    print(f"build-graph: {len(graph.edges_rnr)} RNR, {len(graph.edges_elr)} "
          f"ELR, {len(graph.edges_slr)} SLR edges -> {args.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    grid, lc, pois, n_categories = _load_world(args)
    labels = load_labels(args.labels, grid)
    resolved = _resolve(args)
    settings = _settings(resolved)
    feats = featurize_all(grid, lc, pois, n_categories=n_categories)
    graph = build_graph(grid, feats, settings.theta_env, settings.theta_soc)
    split = make_split(labels, args.masked_ratio, args.seed)
    state, log = train_end_to_end(graph, feats, labels, split, settings.hgnn,
                                  settings.train, args.seed)
    save_checkpoint(state, _out_path(args, "checkpoint.json"))
    save_training_log(log, _out_path(args, "train_log.csv"),
                      _echo(args, n_categories=n_categories, **resolved))
    best = min(row[2] for row in log)
    print(f"train: {len(log)} epochs, best validation MSE {best:.6f} "
          f"-> {args.out_dir}")
    return 0


def cmd_pretrain(args: argparse.Namespace) -> int:
    grid, lc, pois, n_categories = _load_world(args)
    resolved = _resolve(args)
    settings = _settings(resolved)
    feats = featurize_all(grid, lc, pois, n_categories=n_categories)
    graph = build_graph(grid, feats, settings.theta_env, settings.theta_soc)
    state, embeddings, log = pretrain_contrastive(graph, feats, settings.ssl,
                                                  settings.hgnn, args.seed)
    echo = _echo(args, n_categories=n_categories, **resolved)
    save_checkpoint(state, _out_path(args, "pretrain_checkpoint.json"))
    write_embeddings(feats.cells, embeddings,
                     _out_path(args, "embeddings.csv"), echo)
    with open_commented(_out_path(args, "pretrain_log.csv"), echo) as fh:
        fh.write("epoch,loss\n")
        for epoch, loss in log:
            fh.write(f"{epoch},{loss!r}\n")
    print(f"pretrain: {settings.ssl.epochs} epochs, final loss "
          f"{log[-1][1]:.4f} -> {args.out_dir}")
    return 0


def cmd_finetune(args: argparse.Namespace) -> int:
    grid = load_gridspec(args.grid)
    labels = load_labels(args.labels, grid)
    cells, embeddings = load_embeddings(args.embeddings)
    resolved = _resolve(args)
    split = make_split(labels, args.masked_ratio, args.seed)
    head, log = finetune_head(embeddings, labels, split,
                              _settings(resolved).train, cells, args.seed)
    save_checkpoint(head, _out_path(args, "head.json"))
    save_training_log(log, _out_path(args, "finetune_log.csv"),
                      _echo(args, **resolved))
    best = min(row[2] for row in log)
    print(f"finetune: {len(log)} epochs, best validation MSE {best:.6f} "
          f"-> {args.out_dir}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    grid, lc, pois, n_categories = _load_world(args)
    state = load_checkpoint(args.checkpoint)
    theta_env, theta_soc = state.thresholds
    feats = featurize_all(grid, lc, pois, n_categories=n_categories)
    graph = build_graph(grid, feats, theta_env, theta_soc)
    values = predict_all(state, graph, feats)
    echo = _echo(args, n_categories=n_categories, theta_env=theta_env,
                 theta_soc=theta_soc)
    with open_commented(args.out, echo) as fh:
        fh.write("x_r,y_r,y_pred\n")
        for (x, y), value in zip(feats.cells.tolist(), values):
            fh.write(f"{x},{y},{float(value)!r}\n")
    print(f"predict: {len(values)} regions -> {args.out}")
    return 0


def _run_and_write(method: str, inputs: ExperimentInputs,
                   settings: RunSettings, masked_ratio: float, seed: int,
                   report_path: str, predictions_path: str,
                   echo: list[str]):
    result = run_experiment(inputs, method, masked_ratio, seed, settings)
    write_report(result.report, report_path, echo)
    write_predictions(inputs.labels, result, predictions_path, echo)
    return result


def cmd_baseline(args: argparse.Namespace) -> int:
    grid = load_gridspec(args.grid)
    labels = load_labels(args.labels, grid)
    inputs = ExperimentInputs(grid=grid, lc=None, pois=None, labels=labels)
    settings = RunSettings(idw_power=args.power, idw_k=args.idw_k,
                           uk_k=args.uk_k)
    result = _run_and_write(args.method, inputs, settings,
                            args.masked_ratio, args.seed,
                            _out_path(args, f"report_{args.method}.txt"),
                            _out_path(args, f"predictions_{args.method}.csv"),
                            _echo(args))
    print(f"baseline {args.method}: r2={result.report.r2:.4f} "
          f"mae={result.report.mae:.4f} rmse={result.report.rmse:.4f}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    if args.method in BASELINES:    # they read no model setting
        del args.task
        _forget(args, *MODEL_GROUPS)
    grid, lc, pois, n_categories = _load_world(args)
    labels = load_labels(args.labels, grid)
    resolved = _resolve(args)
    inputs = ExperimentInputs(grid=grid, lc=lc, pois=pois, labels=labels,
                              n_categories=n_categories)
    echo = _echo(args, n_categories=n_categories, **resolved)
    result = _run_and_write(args.method, inputs, _settings(resolved),
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
    cells, embeddings = load_embeddings(args.embeddings)
    anchor = (args.anchor_x, args.anchor_y)
    row = cell_rows(cells, anchor, "anchor region {} not in embeddings")[0]
    sims = similarity_map(embeddings, row)
    write_similarity(cells, sims, args.out, _echo(args))
    print(f"similarity: anchor {anchor} -> {args.out}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.method in BASELINES:    # only the thresholds, which name files
        _forget(args, ARCHITECTURE, TRAINING, SSL)
    resolved = _resolve(args)
    for key in ("theta_env", "theta_soc"):   # a preset or default is one value
        if not isinstance(resolved[key], list):
            resolved[key] = [resolved[key]]
    envs, socs = resolved["theta_env"], resolved["theta_soc"]
    combos = [(te, ts, m) for te in envs for ts in socs
              for m in args.masked_ratio]
    tags = [f"env{te:g}_soc{ts:g}_mask{m:g}" for te, ts, m in combos]
    repeated = sorted({tag for tag in tags if tags.count(tag) > 1})
    if repeated:
        raise ValueError(f"sweep values repeat output tags: {repeated}")
    if args.method in BASELINES and len(envs) * len(socs) > 1:
        raise ValueError(f"{args.method} uses no graph thresholds; give at "
                         "most one --theta-env and one --theta-soc value")
    for te, ts, _ in combos:
        check_thresholds(te, ts)
    grid, lc, pois, n_categories = _load_world(args)
    labels = load_labels(args.labels, grid)
    for m in args.masked_ratio:   # make_split's rules, before any run writes
        make_split(labels, m, args.seed)
    inputs = ExperimentInputs(grid=grid, lc=lc, pois=pois, labels=labels,
                              n_categories=n_categories)

    results = []
    for (te, ts, m), tag in zip(combos, tags):
        run = {**resolved, "theta_env": te, "theta_soc": ts}
        echo = _echo(args, n_categories=n_categories, masked_ratio=m, **run)
        results.append(_run_and_write(
            args.method, inputs, _settings(run), m, args.seed,
            _out_path(args, f"report_{tag}.txt"),
            _out_path(args, f"predictions_{tag}.csv"), echo))
    summary = _out_path(args, "sweep_summary.csv")
    with open_commented(summary, _echo(args, n_categories=n_categories,
                                       **resolved)) as fh:
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

def _add_groups(p: argparse.ArgumentParser, *groups: FlagGroup,
                many: bool = False) -> None:
    """Add each group's flags; with ``many``, each takes a comma-separated
    list of values."""
    for group in groups:
        for flag in group.flags:
            default = group.default(flag)
            p.add_argument("--" + flag.dest.replace("_", "-"),
                           type=_float_list if many else type(default),
                           default=None if many or flag.dest in PRESET_FLAGS
                           else default,
                           choices=flag.choices,
                           help="comma-separated values" if many else flag.help)


def _add_task(p: argparse.ArgumentParser) -> None:
    p.add_argument("--task", choices=sorted(TASK_PRESETS),
                   help="named preset supplying thresholds and label transform")


def _add_world_inputs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid", required=True, help="grid spec file")
    p.add_argument("--landcover", required=True, help="land-cover grid file")
    p.add_argument("--pois", required=True, help="POI CSV")
    p.add_argument("--categories", help="optional category manifest")
    p.add_argument("--n-categories", type=int, help="POI category count")


def _add_split(p: argparse.ArgumentParser, many: bool = False) -> None:
    """--labels, --masked-ratio (a comma-separated list with ``many``) and
    --seed, which also seeds the model."""
    p.add_argument("--labels", required=True, help="labels CSV")
    p.add_argument("--masked-ratio", type=_float_list if many else float,
                   default=[0.75] if many else 0.75,
                   help="comma-separated values" if many else None)
    p.add_argument("--seed", type=int, default=0)


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
    _add_groups(p, SYNTH)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("featurize", help="compute per-region feature rows")
    _add_world_inputs(p)
    p.add_argument("--out", required=True, help="features CSV path")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("build-graph", help="assemble the heterogeneous graph")
    p.add_argument("--grid", required=True)
    p.add_argument("--features", required=True, help="features CSV")
    _add_groups(p, THRESHOLDS)
    p.add_argument("--out", required=True, help="edge-list path")
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("train", help="end-to-end supervised training")
    _add_world_inputs(p)
    _add_split(p)
    _add_task(p)
    _add_groups(p, THRESHOLDS, ARCHITECTURE, TRAINING)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("pretrain", help="contrastive backbone pretraining")
    _add_world_inputs(p)
    p.add_argument("--seed", type=int, default=0)
    _add_task(p)
    _add_groups(p, THRESHOLDS, ARCHITECTURE, SSL)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="train the head on frozen embeddings")
    p.add_argument("--grid", required=True)
    p.add_argument("--embeddings", required=True)
    _add_split(p)
    _add_task(p)
    _add_groups(p, TRAINING)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("predict", help="predict every region from a checkpoint")
    _add_world_inputs(p)
    p.add_argument("--checkpoint", required=True,
                   help="model checkpoint; its graph thresholds are reused")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("baseline", help="IDW or kriging on the label set")
    p.add_argument("--method", required=True, choices=BASELINES)
    p.add_argument("--grid", required=True)
    _add_split(p)
    p.add_argument("--power", type=float, default=baselines.IDW_POWER,
                   help="IDW exponent")
    p.add_argument("--idw-k", type=int, default=baselines.IDW_K)
    p.add_argument("--uk-k", type=int, default=baselines.UK_K)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("eval", help="run the masked-ratio protocol end to end")
    _add_world_inputs(p)
    _add_split(p)
    p.add_argument("--method", default="geohg", choices=METHODS)
    _add_task(p)
    _add_groups(p, THRESHOLDS, ARCHITECTURE, TRAINING, SSL)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("similarity", help="cosine similarity map for an anchor")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--anchor-x", type=int, required=True)
    p.add_argument("--anchor-y", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_similarity)

    p = sub.add_parser("sweep", help="grid of thresholds / masked ratios")
    _add_world_inputs(p)
    _add_split(p, many=True)
    p.add_argument("--method", default="geohg", choices=METHODS)
    _add_task(p)
    _add_groups(p, THRESHOLDS, many=True)
    _add_groups(p, ARCHITECTURE, TRAINING, SSL)
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
