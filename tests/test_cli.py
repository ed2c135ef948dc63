import argparse
import json
from dataclasses import fields

import numpy as np
import pytest

from geohg import baselines
from geohg.cli import (BASELINES, MODEL_GROUPS, _resolve, _settings,
                       build_parser, dispatch)
from geohg.geodata import (LabelSet, load_gridspec, load_labels,
                           load_landcover, load_pois, save_labels)
from geohg.evaluation import RunSettings, load_report
from geohg.features import featurize_all, load_features
from geohg.hetgraph import build_graph, rnr_edge_count
from geohg.model import load_checkpoint, load_embeddings, predict_all
from geohg.synth import SynthConfig

from _worlds import parse_graph_export


SYNTH_FLAGS = ["synth", "--n-cols", "10", "--n-rows", "10",
               "--pixels-per-cell", "3", "--n-patches", "12",
               "--seed", "7"]
FAST_ARCH = ["--layers", "1", "--hidden-dim", "8"]
FAST_TRAINING = ["--max-epochs", "30", "--patience", "30"]
FAST_MODEL = FAST_ARCH + FAST_TRAINING
FAST_SSL = ["--ssl-epochs", "2", "--batch-size", "16"]


def run(out_dir, *argv):
    return dispatch(["--out-dir", str(out_dir), *argv])


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("world")
    assert run(d, *SYNTH_FLAGS) == 0
    return d


def world_flags(d):
    return ["--grid", str(d / "grid.cfg"),
            "--landcover", str(d / "landcover.txt"),
            "--pois", str(d / "pois.csv")]


class TestSynth:
    def test_writes_all_artifacts(self, world_dir):
        for name in ("grid.cfg", "landcover.txt", "pois.csv", "labels.csv",
                     "ledger.json"):
            assert (world_dir / name).exists()
        grid = load_gridspec(str(world_dir / "grid.cfg"))
        assert grid.n_cols == 10 and grid.n_rows == 10
        labels = load_labels(str(world_dir / "labels.csv"), grid)
        assert len(labels) == 100
        ledger = json.loads((world_dir / "ledger.json").read_text())
        assert ledger["seed"] == 7

    def test_same_seed_byte_identical(self, world_dir, tmp_path):
        assert run(tmp_path, *SYNTH_FLAGS) == 0
        for name in ("grid.cfg", "landcover.txt", "pois.csv", "labels.csv",
                     "ledger.json"):
            assert (tmp_path / name).read_bytes() \
                == (world_dir / name).read_bytes()

    def test_flag_echo_in_headers(self, world_dir):
        head = (world_dir / "labels.csv").read_text().splitlines()[:20]
        comments = [l for l in head if l.startswith("#")]
        assert any("seed = 7" in l for l in comments)
        assert any("command = synth" in l for l in comments)

    def test_defaults_are_the_config_defaults(self):
        # Every synth flag takes its type and default from SynthConfig, so
        # the CLI and the API cannot drift apart.
        args = vars(build_parser().parse_args(["synth"]))
        given = {k: v for k, v in args.items()
                 if k not in ("command", "func", "out_dir")}
        config = SynthConfig()
        assert len(given) == 14
        for name, value in given.items():
            assert value == getattr(config, name), name
            assert type(value) is type(getattr(config, name)), name
        assert SynthConfig(**given) == config


class TestFeaturizeAndGraph:
    def test_featurize_then_build_graph(self, world_dir, tmp_path):
        feats_path = tmp_path / "features.csv"
        assert run(tmp_path, "featurize", *world_flags(world_dir),
                   "--out", str(feats_path)) == 0
        feats = load_features(str(feats_path))
        assert len(feats.cells) == 100

        paths = [tmp_path / "graph.txt", tmp_path / "again.txt"]
        for graph_path in paths:
            assert run(tmp_path, "build-graph",
                       "--grid", str(world_dir / "grid.cfg"),
                       "--features", str(feats_path),
                       "--theta-env", "0.6", "--theta-soc", "0.9",
                       "--out", str(graph_path)) == 0
        text = paths[0].read_text()
        assert paths[1].read_text() == text
        head, edges = parse_graph_export(text)
        assert head[0] == "100"
        _, weights = edges["RNR"]
        assert len(weights) == rnr_edge_count(10, 10)
        assert set(weights) == {"1.0"}


class TestTrainPredict:
    def test_train_then_predict(self, world_dir, tmp_path):
        assert run(tmp_path, "train", *world_flags(world_dir),
                   "--labels", str(world_dir / "labels.csv"),
                   "--masked-ratio", "0.5", "--seed", "1",
                   *FAST_MODEL) == 0
        assert (tmp_path / "checkpoint.json").exists()
        log_lines = (tmp_path / "train_log.csv").read_text().splitlines()
        data = [l for l in log_lines if l and not l.startswith("#")]
        assert data[0] == "epoch,train_loss,val_loss"
        assert len(data) >= 2

        out = tmp_path / "pred.csv"
        assert run(tmp_path, "predict", *world_flags(world_dir),
                   "--checkpoint", str(tmp_path / "checkpoint.json"),
                   "--out", str(out)) == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#")]
        assert rows[0] == "x_r,y_r,y_pred"
        assert len(rows) == 1 + 100

    def test_predict_uses_the_checkpoint_thresholds(self, world_dir, tmp_path):
        # gdp preset: theta_env 0.4, theta_soc 1.2, not the 0.6/0.9 default.
        assert run(tmp_path, "train", *world_flags(world_dir),
                   "--labels", str(world_dir / "labels.csv"),
                   "--masked-ratio", "0.5", "--seed", "1", "--task", "gdp",
                   *FAST_MODEL) == 0
        ckpt = tmp_path / "checkpoint.json"
        out = tmp_path / "pred.csv"
        assert run(tmp_path, "predict", *world_flags(world_dir),
                   "--checkpoint", str(ckpt), "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert "# theta_env = 0.4" in lines and "# theta_soc = 1.2" in lines
        got = np.array([float(l.split(",")[2]) for l in lines
                        if l and not l.startswith(("#", "x_r"))])

        state = load_checkpoint(str(ckpt))
        assert state.thresholds == (0.4, 1.2)
        grid = load_gridspec(str(world_dir / "grid.cfg"))
        feats = featurize_all(grid,
                              load_landcover(str(world_dir / "landcover.txt"),
                                             grid),
                              load_pois(str(world_dir / "pois.csv")))
        want = predict_all(state, build_graph(grid, feats, 0.4, 1.2), feats)
        assert np.array_equal(got, want)
        default = predict_all(state, build_graph(grid, feats, 0.6, 0.9), feats)
        assert not np.array_equal(got, default)

        with pytest.raises(SystemExit):
            run(tmp_path, "predict", *world_flags(world_dir),
                "--checkpoint", str(ckpt), "--theta-env", "0.6",
                "--out", str(out))


class TestPretrainFinetuneSimilarity:
    def test_full_self_supervised_pipeline(self, world_dir, tmp_path):
        assert run(tmp_path, "pretrain", *world_flags(world_dir),
                   "--seed", "2", *FAST_ARCH, *FAST_SSL) == 0
        emb_path = tmp_path / "embeddings.csv"
        cells, emb = load_embeddings(str(emb_path))
        assert emb.shape == (100, 8)
        assert (tmp_path / "pretrain_checkpoint.json").exists()
        assert (tmp_path / "pretrain_log.csv").exists()

        assert run(tmp_path, "finetune",
                   "--grid", str(world_dir / "grid.cfg"),
                   "--embeddings", str(emb_path),
                   "--labels", str(world_dir / "labels.csv"),
                   "--masked-ratio", "0.5", "--seed", "2",
                   *FAST_TRAINING) == 0
        assert (tmp_path / "head.json").exists()
        assert (tmp_path / "finetune_log.csv").exists()

        sim_path = tmp_path / "sim.csv"
        assert run(tmp_path, "similarity", "--embeddings", str(emb_path),
                   "--anchor-x", "3", "--anchor-y", "4",
                   "--out", str(sim_path)) == 0
        rows = [l.split(",") for l in sim_path.read_text().splitlines()
                if l and not l.startswith("#")][1:]
        by_region = {(int(x), int(y)): float(s) for x, y, s in rows}
        assert by_region[(3, 4)] == 1.0
        assert len(by_region) == 100


class TestEval:
    def test_eval_writes_report_and_predictions(self, world_dir, tmp_path):
        assert run(tmp_path, "eval", *world_flags(world_dir),
                   "--labels", str(world_dir / "labels.csv"),
                   "--method", "geohg", "--masked-ratio", "0.5",
                   "--seed", "3", *FAST_MODEL) == 0
        report = load_report(str(tmp_path / "report.txt"))
        assert {"mae", "rmse", "r2", "n_eval"} <= set(report)
        assert int(report["n_eval"]) == 50
        assert (tmp_path / "predictions.csv").exists()
        assert (tmp_path / "train_log.csv").exists()

    def test_rerun_byte_identical(self, world_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            d.mkdir()
            assert run(d, "eval", *world_flags(world_dir),
                       "--labels", str(world_dir / "labels.csv"),
                       "--method", "geohg", "--masked-ratio", "0.5",
                       "--seed", "3", *FAST_MODEL) == 0
        assert (a / "report.txt").read_bytes() \
            == (b / "report.txt").read_bytes()
        assert (a / "predictions.csv").read_bytes() \
            == (b / "predictions.csv").read_bytes()

    def test_task_preset_echoed(self, world_dir, tmp_path):
        # gdp preset: theta_env 0.4, theta_soc 1.2, zscore labels.
        assert run(tmp_path, "eval", *world_flags(world_dir),
                   "--labels", str(world_dir / "labels.csv"),
                   "--method", "geohg", "--masked-ratio", "0.5",
                   "--task", "gdp", *FAST_MODEL) == 0
        text = (tmp_path / "report.txt").read_text()
        assert "# theta_env = 0.4" in text
        assert "# theta_soc = 1.2" in text

    def test_explicit_flag_overrides_preset(self, world_dir, tmp_path):
        assert run(tmp_path, "eval", *world_flags(world_dir),
                   "--labels", str(world_dir / "labels.csv"),
                   "--method", "geohg", "--masked-ratio", "0.5",
                   "--task", "gdp", "--theta-env", "0.55", *FAST_MODEL) == 0
        text = (tmp_path / "report.txt").read_text()
        assert "# theta_env = 0.55" in text
        assert "# theta_soc = 1.2" in text


class TestResolvedConfigs:
    def test_every_config_field_is_set_by_a_flag(self):
        # A field that keeps its default here has no flag that reaches it.
        args = build_parser().parse_args([
            "eval", "--grid", "g", "--landcover", "l", "--pois", "p",
            "--labels", "y", "--seed", "5", "--layers", "2",
            "--hidden-dim", "16", "--lr", "0.01", "--max-epochs", "7",
            "--patience", "3", "--label-transform", "log1p+zscore",
            "--temperature", "0.5", "--top-k", "2", "--batch-size", "8",
            "--ssl-epochs", "3", "--ssl-lr", "0.05"])
        settings = _settings(_resolve(args))
        for config in (settings.hgnn, settings.train, settings.ssl):
            for field in fields(config):
                assert getattr(config, field.name) != field.default, \
                    (type(config).__name__, field.name)


class TestBaseline:
    def test_idw_and_uk(self, world_dir, tmp_path):
        for method in ("idw", "uk"):
            assert run(tmp_path, "baseline", "--method", method,
                       "--grid", str(world_dir / "grid.cfg"),
                       "--labels", str(world_dir / "labels.csv"),
                       "--masked-ratio", "0.5", "--seed", "4") == 0
            report = load_report(str(tmp_path / f"report_{method}.txt"))
            assert int(report["n_eval"]) == 50
            assert (tmp_path / f"predictions_{method}.csv").exists()

    @pytest.mark.parametrize("method", BASELINES)
    def test_eval_of_a_baseline_reads_no_raster_or_pois(self, world_dir,
                                                        tmp_path, method):
        # A baseline reads neither file, so eval must not parse them; its
        # files then equal baseline's below the '#' header.
        broken = tmp_path / "landcover.txt"
        broken.write_text("not a land-cover file\n")
        split = ["--labels", str(world_dir / "labels.csv"),
                 "--masked-ratio", "0.5", "--seed", "4"]
        assert run(tmp_path / "eval", "eval", "--method", method,
                   "--grid", str(world_dir / "grid.cfg"),
                   "--landcover", str(broken),
                   "--pois", str(tmp_path / "no-such-pois.csv"), *split) == 0
        assert run(tmp_path / "baseline", "baseline", "--method", method,
                   "--grid", str(world_dir / "grid.cfg"), *split) == 0

        def body(path):
            return [l for l in path.read_text().splitlines()
                    if not l.startswith("#")]

        for got, want in (("report.txt", f"report_{method}.txt"),
                          ("predictions.csv", f"predictions_{method}.csv")):
            assert body(tmp_path / "eval" / got) \
                == body(tmp_path / "baseline" / want)
        header = (tmp_path / "eval" / "report.txt").read_text()
        assert f"# landcover = {broken}\n" in header
        assert "# n_categories = None\n" in header

    def test_defaults_are_the_library_defaults(self, monkeypatch):
        # The flags take their defaults from geohg.baselines, as RunSettings
        # does, so the CLI and the API cannot drift apart.
        argv = ["baseline", "--method", "idw", "--grid", "g", "--labels", "y"]
        args = build_parser().parse_args(argv)
        settings = RunSettings()
        assert (args.power, args.idw_k, args.uk_k) == (
            settings.idw_power, settings.idw_k, settings.uk_k) == (2.0, 16, 64)
        for name, value in (("IDW_POWER", 3.5), ("IDW_K", 7), ("UK_K", 9)):
            monkeypatch.setattr(baselines, name, value)
        args = build_parser().parse_args(argv)
        assert (args.power, args.idw_k, args.uk_k) == (3.5, 7, 9)


class TestSweep:
    def test_grid_of_runs_and_summary(self, world_dir, tmp_path):
        assert run(tmp_path, "sweep", *world_flags(world_dir),
                   "--labels", str(world_dir / "labels.csv"),
                   "--method", "idw",
                   "--theta-env", "0.6", "--theta-soc", "0.9",
                   "--masked-ratio", "0.5,0.8", "--seed", "5") == 0
        for tag in ("env0.6_soc0.9_mask0.5", "env0.6_soc0.9_mask0.8"):
            assert (tmp_path / f"report_{tag}.txt").exists()
            assert (tmp_path / f"predictions_{tag}.csv").exists()
        summary = [l for l in
                   (tmp_path / "sweep_summary.csv").read_text().splitlines()
                   if l and not l.startswith("#")]
        assert summary[0].startswith("theta_env,")
        assert len(summary) == 3


    @pytest.mark.parametrize("flag,values", [
        ("--theta-env", ""), ("--theta-soc", " , "), ("--masked-ratio", ",")])
    def test_empty_value_list_exits_2(self, world_dir, tmp_path, capsys,
                                      flag, values):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "sweep", *world_flags(world_dir),
                "--labels", str(world_dir / "labels.csv"), "--method", "idw",
                flag, values)
        assert exc.value.code == 2
        assert "empty float list" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,tag", [
        (["--theta-env", "0.6,0.6"], "env0.6_soc0.9_mask0.75"),
        (["--masked-ratio", "0.5,0.5000001"], "env0.6_soc0.9_mask0.5")])
    def test_values_sharing_an_output_tag_exit_2(self, world_dir, tmp_path,
                                                 capsys, flags, tag):
        # 0.5 and 0.5000001 agree to 6 significant digits, so ":g" names
        # both runs' files alike.
        code = run(tmp_path, "sweep", *world_flags(world_dir),
                   "--labels", str(world_dir / "labels.csv"),
                   "--method", "idw", *flags)
        assert code == 2
        err = capsys.readouterr().err
        assert "error [sweep]:" in err and tag in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flags,message", [
        (["--masked-ratio", "0.5,1.5"], "masked ratio must be in (0, 1)"),
        (["--masked-ratio", "0.5,0.999"], "too few labels"),
        (["--theta-env", "0.5,2"], "theta_env must be in [0, 1]"),
        (["--theta-soc", "0.9,-1"], "theta_soc must be finite and non-negative"),
        (["--theta-soc", "0.9,inf"], "theta_soc must be finite and non-negative")])
    def test_a_bad_later_value_exits_2_before_any_run(self, world_dir, tmp_path,
                                                      capsys, flags, message):
        # The first value of each list is good, so a check made only when
        # its run starts would leave that run's files behind.
        code = run(tmp_path, "sweep", *world_flags(world_dir),
                   "--labels", str(world_dir / "labels.csv"),
                   "--method", "geohg", *FAST_MODEL, *flags)
        assert code == 2
        err = capsys.readouterr().err
        assert "error [sweep]:" in err and message in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flags,tag,row", [
        ([], "env0.4_soc1.2_mask0.5", "0.4,1.2,0.5,"),
        (["--theta-soc", "0.7"], "env0.4_soc0.7_mask0.5", "0.4,0.7,0.5,")])
    def test_task_preset_sets_the_default_thresholds(self, world_dir, tmp_path,
                                                     flags, tag, row):
        # gdp preset: theta_env 0.4, theta_soc 1.2, as eval --task gdp uses;
        # an explicit list still wins over the preset.
        assert run(tmp_path, "sweep", *world_flags(world_dir),
                   "--labels", str(world_dir / "labels.csv"),
                   "--method", "idw", "--task", "gdp",
                   "--masked-ratio", "0.5", *flags) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"predictions_{tag}.csv", f"report_{tag}.txt", "sweep_summary.csv"]
        summary = [l for l in
                   (tmp_path / "sweep_summary.csv").read_text().splitlines()
                   if l and not l.startswith("#")]
        assert len(summary) == 2 and summary[1].startswith(row)

    @pytest.mark.parametrize("method", ["idw", "uk"])
    @pytest.mark.parametrize("flags", [
        ["--theta-env", "0.5,0.6"], ["--theta-soc", "0.9,1.0"],
        ["--task", "gdp", "--theta-env", "0.4,0.5"]])
    def test_a_baseline_with_several_thresholds_exits_2_before_any_run(
            self, world_dir, tmp_path, capsys, method, flags):
        # A baseline uses no thresholds, so each extra value would only
        # rerun the same baseline.
        code = run(tmp_path, "sweep", *world_flags(world_dir),
                   "--labels", str(world_dir / "labels.csv"),
                   "--method", method, *flags)
        assert code == 2
        err = capsys.readouterr().err
        assert "error [sweep]:" in err and "uses no graph thresholds" in err
        assert not list(tmp_path.iterdir())


def _subcommands():
    """Each subcommand's parser, by name."""
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _flags_taken(command):
    """Each flag `command` takes, as written on the command line, with the
    value it parses to when left out."""
    return {a.option_strings[-1]: a.default
            for a in _subcommands()[command]._actions
            if a.option_strings and a.dest != "help"}


EVERY_ARCH = ["--layers", "1", "--hidden-dim", "4"]
EVERY_TRAINING = ["--lr", "0.01", "--max-epochs", "3", "--patience", "2",
                  "--label-transform", "log1p+zscore"]
EVERY_SSL = ["--temperature", "0.5", "--top-k", "2", "--batch-size", "8",
             "--ssl-epochs", "1", "--ssl-lr", "0.01"]
EVERY_TASK = ["--task", "gdp", "--theta-env", "0.5", "--theta-soc", "1.0"]


def every_command_argv(world, d):
    """A non-default value for every flag of every subcommand, in an order
    where each command's inputs come before it."""
    inputs = ["--grid", str(world / "grid.cfg"),
              "--landcover", str(world / "landcover.txt"),
              "--pois", str(world / "pois.csv"),
              "--categories", str(d / "categories.txt"), "--n-categories", "7"]
    split = ["--labels", str(d / "labels.csv"), "--masked-ratio", "0.5",
             "--seed", "1"]
    return {
        "synth": ["--n-cols", "9", "--n-rows", "8", "--pixels-per-cell", "3",
                  "--n-classes", "5", "--n-categories", "4",
                  "--n-archetypes", "3", "--n-patches", "10",
                  "--smooth-amplitude", "0.25", "--jump", "1.5",
                  "--noise-sigma", "0.05", "--origin-lon", "10.5",
                  "--origin-lat", "20.5", "--cell-km", "2.0",
                  "--seed", "7"],
        "featurize": [*inputs, "--out", str(d / "featurize" / "f.csv")],
        "build-graph": ["--grid", str(world / "grid.cfg"),
                        "--features", str(d / "featurize" / "f.csv"),
                        "--theta-env", "0.5", "--theta-soc", "1.0",
                        "--out", str(d / "build-graph" / "g.txt")],
        "train": [*inputs, *split, *EVERY_TASK, *EVERY_ARCH,
                  *EVERY_TRAINING],
        "predict": [*inputs,
                    "--checkpoint", str(d / "train" / "checkpoint.json"),
                    "--out", str(d / "predict" / "p.csv")],
        "pretrain": [*inputs, "--seed", "1", *EVERY_TASK, *EVERY_ARCH,
                     *EVERY_SSL],
        "finetune": ["--grid", str(world / "grid.cfg"),
                     "--embeddings", str(d / "pretrain" / "embeddings.csv"),
                     *split, "--task", "gdp", *EVERY_TRAINING],
        "similarity": ["--embeddings", str(d / "pretrain" / "embeddings.csv"),
                       "--anchor-x", "3", "--anchor-y", "4",
                       "--out", str(d / "similarity" / "s.csv")],
        "baseline": ["--method", "uk", "--grid", str(world / "grid.cfg"),
                     *split, "--power", "3.0", "--idw-k", "8", "--uk-k", "16"],
        "eval": [*inputs, *split, "--method", "geohg-ssl", *EVERY_TASK,
                 *EVERY_ARCH, *EVERY_TRAINING, *EVERY_SSL],
        "sweep": [*inputs, *split, "--method", "geohg-ssl", *EVERY_TASK,
                  *EVERY_ARCH, *EVERY_TRAINING, *EVERY_SSL],
    }


@pytest.fixture(scope="module")
def every_command(world_dir, tmp_path_factory):
    """Each subcommand run once into its own directory with the flags of
    every_command_argv; labels are shifted positive for log1p+zscore."""
    d = tmp_path_factory.mktemp("every")
    labels = load_labels(str(world_dir / "labels.csv"),
                         load_gridspec(str(world_dir / "grid.cfg")))
    save_labels(LabelSet(labels.cells, labels.values + 10.0),
                str(d / "labels.csv"))
    (d / "categories.txt").write_text("".join(f"c{i}\n" for i in range(7)))
    argvs = every_command_argv(world_dir, d)
    for command, argv in argvs.items():
        (d / command).mkdir()
        assert run(d / command, command, *argv) == 0, command
    return d, argvs


def text_outputs(d):
    return sorted(p for p in d.iterdir() if p.suffix != ".json")


class TestEcho:
    def test_the_table_gives_every_flag_a_non_default_value(self, tmp_path):
        argvs = every_command_argv(tmp_path, tmp_path)
        assert set(argvs) == set(_subcommands())
        for command, argv in argvs.items():
            given = dict(zip(argv[::2], argv[1::2]))
            taken = _flags_taken(command)
            assert set(given) == set(taken), command
            for flag, value in given.items():
                assert str(taken[flag]) != value, (command, flag)

    @pytest.mark.parametrize("command", sorted(_subcommands()))
    def test_each_text_output_echoes_every_flag_as_given(self, every_command,
                                                         command):
        d, argvs = every_command
        argv = argvs[command]
        want = [f"# {flag[2:].replace('-', '_')} = {value}"
                for flag, value in zip(argv[::2], argv[1::2])
                if flag != "--out"]
        outputs = text_outputs(d / command)
        assert outputs, command
        for path in outputs:
            lines = path.read_text(encoding="utf-8").splitlines()
            assert lines[0] == f"# command = {command}", path.name
            header = [l for l in lines if l.startswith("#")]
            assert [l for l in want if l not in header] == [], path.name
            # output locations stay out, so reruns elsewhere match bytes
            assert not [l for l in header
                        if l.startswith(("# out ", "# out_dir "))], path.name

    @pytest.mark.parametrize("command,flags,want", [
        ("build-graph", [], ["theta_env = 0.6", "theta_soc = 0.9"]),
        ("train", ["--task", "gdp", *EVERY_ARCH, "--max-epochs", "3"],
         ["theta_env = 0.4", "theta_soc = 1.2", "label_transform = zscore",
          "lr = 0.002", "patience = 50"]),
        ("pretrain", ["--task", "gdp", *EVERY_ARCH, "--ssl-epochs", "1"],
         ["theta_env = 0.4", "theta_soc = 1.2", "temperature = 0.1",
          "top_k = 4", "batch_size = 64", "ssl_lr = 0.002"]),
        ("finetune", ["--task", "carbon", "--max-epochs", "3"],
         ["label_transform = log1p+zscore", "lr = 0.002", "task = carbon"]),
        ("sweep", ["--task", "pm25", "--method", "geohg-ssl"],
         ["theta_env = 0.8", "theta_soc = 0.6", "layers = 3",
          "hidden_dim = 64", "max_epochs = 1000", "ssl_epochs = 60"])])
    def test_flags_left_out_are_echoed_as_resolved(self, every_command,
                                                   tmp_path, command, flags,
                                                   want):
        # Each flag not given reads as its preset or default value, never
        # as the None it parses to.
        d, argvs = every_command
        inputs = {"--grid", "--landcover", "--pois", "--categories",
                  "--n-categories", "--features", "--embeddings", "--labels",
                  "--masked-ratio", "--seed"}
        argv = [a for flag, value in zip(argvs[command][::2],
                                         argvs[command][1::2])
                if flag in inputs for a in (flag, value)]
        if command == "build-graph":
            argv += ["--out", str(tmp_path / "g.txt")]
        argv += flags
        assert run(tmp_path, command, *argv) == 0
        for path in text_outputs(tmp_path):
            header = [l[2:] for l in path.read_text().splitlines()
                      if l.startswith("#")]
            assert [l for l in want if l not in header] == [], path.name
            assert not [l for l in header if l.endswith(" = None")
                        and not l.startswith(("categories", "n_categories",
                                              "task"))], path.name

    @pytest.mark.parametrize("method", BASELINES)
    def test_a_baseline_echoes_no_model_flag(self, world_dir, tmp_path,
                                             method):
        # The baselines read no model setting: eval echoes none, nor
        # --task; sweep keeps --task and the thresholds, which name its
        # files.
        argv = [*world_flags(world_dir),
                "--labels", str(world_dir / "labels.csv"),
                "--masked-ratio", "0.5", "--method", method, *EVERY_TASK,
                *EVERY_ARCH, *EVERY_TRAINING, *EVERY_SSL]
        model = {"task"} | {f.dest for group in MODEL_GROUPS
                            for f in group.flags}
        for command, kept in (("eval", set()),
                              ("sweep", {"task", "theta_env", "theta_soc"})):
            assert run(tmp_path / command, command, *argv) == 0, command
            outputs = text_outputs(tmp_path / command)
            assert outputs, command
            for path in outputs:
                header = {l[2:].split(" = ")[0]
                          for l in path.read_text().splitlines()
                          if l.startswith("#")}
                assert header & model == kept, (command, path.name)
                assert "seed" in header and "method" in header, path.name

    @pytest.mark.parametrize("command,flag", [
        ("pretrain", "--lr"), ("pretrain", "--max-epochs"),
        ("pretrain", "--patience"), ("pretrain", "--label-transform"),
        ("finetune", "--layers"), ("finetune", "--hidden-dim"),
        ("finetune", "--theta-env"), ("finetune", "--theta-soc")])
    def test_a_flag_the_command_does_not_read_exits_2(self, capsys, command,
                                                       flag):
        required = {"pretrain": ["--grid", "g", "--landcover", "l",
                                 "--pois", "p"],
                    "finetune": ["--grid", "g", "--embeddings", "e",
                                 "--labels", "y"]}[command]
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, *required, flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestErrors:
    def test_missing_input_exits_2_with_stage_tag(self, tmp_path, capsys):
        code = run(tmp_path, "featurize", "--grid", str(tmp_path / "no.cfg"),
                   "--landcover", str(tmp_path / "no.txt"),
                   "--pois", str(tmp_path / "no.csv"),
                   "--out", str(tmp_path / "f.csv"))
        assert code == 2
        assert "error [featurize]:" in capsys.readouterr().err

    def test_shuffled_features_rejected_by_build_graph(self, world_dir,
                                                       tmp_path, capsys):
        # A features CSV in any but row-major region order would attach the
        # ELR/SLR edges of one region to another's node id.
        feats_path = tmp_path / "features.csv"
        assert run(tmp_path, "featurize", *world_flags(world_dir),
                   "--out", str(feats_path)) == 0
        lines = feats_path.read_text(encoding="utf-8").splitlines()
        start = next(i for i, l in enumerate(lines)
                     if not l.startswith("#")) + 1
        rows = lines[start:]
        order = np.random.default_rng(3).permutation(len(rows))
        feats_path.write_text("\n".join(lines[:start]
                                        + [rows[i] for i in order]) + "\n",
                              encoding="utf-8")
        capsys.readouterr()
        code = run(tmp_path, "build-graph",
                   "--grid", str(world_dir / "grid.cfg"),
                   "--features", str(feats_path),
                   "--out", str(tmp_path / "graph.txt"))
        assert code == 2
        err = capsys.readouterr().err
        assert "error [build-graph]:" in err and "row-major" in err
        assert not (tmp_path / "graph.txt").exists()

    def test_non_finite_idw_power_exits_2(self, world_dir, tmp_path, capsys):
        code = run(tmp_path, "baseline", "--method", "idw",
                   "--grid", str(world_dir / "grid.cfg"),
                   "--labels", str(world_dir / "labels.csv"),
                   "--masked-ratio", "0.5", "--power", "nan")
        assert code == 2
        assert "finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "report_idw.txt").exists()

    def test_nan_checkpoint_threshold_exits_2(self, world_dir, tmp_path,
                                              capsys):
        assert run(tmp_path, "train", *world_flags(world_dir),
                   "--labels", str(world_dir / "labels.csv"),
                   "--masked-ratio", "0.5", "--seed", "1",
                   *FAST_MODEL) == 0
        ckpt = tmp_path / "checkpoint.json"
        payload = json.loads(ckpt.read_text())
        payload["thresholds"][1] = float("nan")
        ckpt.write_text(json.dumps(payload))
        capsys.readouterr()
        code = run(tmp_path, "predict", *world_flags(world_dir),
                   "--checkpoint", str(ckpt),
                   "--out", str(tmp_path / "pred.csv"))
        assert code == 2
        err = capsys.readouterr().err
        assert "error [predict]:" in err and "theta_soc" in err
        assert not (tmp_path / "pred.csv").exists()

    def test_predict_from_a_pretrained_backbone_exits_2(self, world_dir,
                                                        tmp_path, capsys):
        # Pretraining fits no head, so its checkpoint has nothing to
        # predict with.
        assert run(tmp_path, "pretrain", *world_flags(world_dir),
                   *FAST_ARCH, *FAST_SSL) == 0
        capsys.readouterr()
        code = run(tmp_path, "predict", *world_flags(world_dir),
                   "--checkpoint", str(tmp_path / "pretrain_checkpoint.json"),
                   "--out", str(tmp_path / "pred.csv"))
        assert code == 2
        err = capsys.readouterr().err
        assert "error [predict]:" in err and "pretrained backbone" in err
        assert not (tmp_path / "pred.csv").exists()

    def test_bad_ssl_settings_exit_2(self, world_dir, tmp_path, capsys):
        for flags in (["--ssl-epochs", "0"], ["--ssl-lr", "-1"],
                      ["--ssl-lr", "0"], ["--temperature", "nan"]):
            capsys.readouterr()
            code = run(tmp_path, "pretrain", *world_flags(world_dir),
                       *FAST_ARCH, *FAST_SSL, *flags)
            assert code == 2, flags
            assert "error [pretrain]:" in capsys.readouterr().err, flags
            assert not (tmp_path / "pretrain_checkpoint.json").exists()

    @pytest.mark.parametrize("flag, value, reason", [
        ("--n-classes", "0", "land-cover class"),
        ("--pixels-per-cell", "0", "pixel per cell"),
        ("--n-categories", "-1", "category count"),
        ("--noise-sigma", "nan", "must be finite"),
        ("--jump", "inf", "must be finite"),
        ("--smooth-amplitude", "nan", "must be finite")])
    def test_bad_synth_settings_exit_2(self, tmp_path, capsys, flag, value,
                                       reason):
        code = run(tmp_path, *SYNTH_FLAGS, flag, value)
        assert code == 2
        err = capsys.readouterr().err
        assert "error [synth]:" in err and reason in err
        assert not (tmp_path / "ledger.json").exists()

    def test_labels_csv_as_embeddings_exits_2(self, world_dir, tmp_path,
                                              capsys):
        code = run(tmp_path, "finetune",
                   "--grid", str(world_dir / "grid.cfg"),
                   "--embeddings", str(world_dir / "labels.csv"),
                   "--labels", str(world_dir / "labels.csv"),
                   "--masked-ratio", "0.5", *FAST_TRAINING)
        assert code == 2
        assert "not an embeddings CSV" in capsys.readouterr().err
        assert not (tmp_path / "head.json").exists()

    def test_bad_ratio_exits_2(self, world_dir, tmp_path, capsys):
        code = run(tmp_path, "eval", *world_flags(world_dir),
                   "--labels", str(world_dir / "labels.csv"),
                   "--method", "idw", "--masked-ratio", "1.5")
        assert code == 2
        assert "error [eval]:" in capsys.readouterr().err

    def test_out_dir_env_var(self, world_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("GEOHG_OUT_DIR", str(tmp_path))
        assert dispatch(["baseline", "--method", "idw",
                         "--grid", str(world_dir / "grid.cfg"),
                         "--labels", str(world_dir / "labels.csv"),
                         "--masked-ratio", "0.5"]) == 0
        assert (tmp_path / "report_idw.txt").exists()
