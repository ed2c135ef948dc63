#!/usr/bin/env python3
"""Benchmark of the geohg pipeline on synthetic worlds.

Run from the repository root:

    python3 bench/run.py --workload train-48 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all      # every workload, untraced and traced

A run synthesises its world with `geohg synth` (set-up, timed on its own),
then repeats whole rounds of the workload's operations, each an in-process
`geohg` CLI call, until the next round would end after --seconds. Set-up
runs SETUPS_BEFORE times before the first round and once after each round.
It checks every output against checks.py and prints one JSON object as its
last line: end-to-end metrics with --trace 0,
per-layer metrics from spans.py with --trace 1.
"""

import os

# One BLAS thread. On 2 cores, OpenBLAS's default of two threads doubles the
# CPU time of a training run with no gain in wall time. This must be set
# before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SETUPS_BEFORE = 3

END_TO_END = (("run_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"), ("r2", "r2"))


def parse_args(argv):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0,
                   help="split seed (also the model and batch seed)")
    p.add_argument("--world-seed", type=int,
                   help="world seed (default: the workload's, see README)")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cpu_time() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def call_cli(cli, argv: list[str]) -> str:
    """One in-process CLI call; returns '' on success, else the error."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.dispatch(argv)
    except Exception:   # an op that raises counts as failed, the run goes on
        return traceback.format_exc()
    return "" if code == 0 else f"exit {code}: {err.getvalue().strip()}"


def run_workload(args) -> tuple[dict, list[str]]:
    from geohg import cli
    import checks
    from spans import PER_LAYER, Tracer
    from workloads import WORKLOADS

    spec = WORKLOADS[args.workload]
    world_seed = spec.world.seed if args.world_seed is None else args.world_seed
    out = RUNS / spec.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    world = out / "world"
    notes: list[str] = []
    run_fails: list[str] = []
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()

    # -- set-up: synthesise the world; repeated between rounds below so the
    # set-up samples spread over the run, whose speed drifts on a shared host
    setup_times, world_digests = [], set()
    world_files = [world / f for f in ("grid.cfg", "landcover.txt",
                                       "pois.csv", "labels.csv")]

    def set_up() -> None:
        if tracer:
            tracer.phase = "setup"
        t0 = time.perf_counter()
        error = call_cli(cli, spec.world.synth_argv(world, world_seed))
        setup_times.append(time.perf_counter() - t0)
        if error:
            raise SystemExit(f"set-up failed: {error}")
        world_digests.add(digest(world_files))

    for _ in range(SETUPS_BEFORE):
        set_up()

    # -- timed rounds ------------------------------------------------------
    walls, cpus, errors = [], [], []
    begin = time.perf_counter()
    while True:
        i = len(walls)
        if tracer:
            tracer.phase = f"round{i}"
        rdir = out / f"round{i}"
        c0, t0 = cpu_time(), time.perf_counter()
        errors.append([call_cli(cli, op.argv(world, rdir, args.seed))
                       for op in spec.ops])
        walls.append(time.perf_counter() - t0)
        cpus.append(cpu_time() - c0)
        set_up()
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / len(walls) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
        tracer.write(out / "trace.jsonl")

    # -- checks ------------------------------------------------------------
    if len(world_digests) != 1:
        run_fails.append("set-up: repeated synthesis wrote different files")
    labels = checks.read_labels(str(world / "labels.csv"))
    failed = 0
    check_failed = False
    tie_mismatch: dict[str, int] = {}
    r2_rounds: list[list[float]] = [[] for _ in walls]
    reference: dict[str, tuple] = {}
    for i, round_errors in enumerate(errors):
        for op, error in zip(spec.ops, round_errors):
            files = op.files(out / f"round{i}")
            fails = [f"{op.method} round {i}: {error}"] if error else []
            if not fails:
                try:
                    fails = check_op(op, files, labels, spec.r2_floor,
                                     reference, tie_mismatch, r2_rounds[i])
                except (OSError, ValueError) as exc:
                    fails = [f"unreadable output: {exc}"]
                if i > 0 and not fails:
                    same = digest(files.values()) == \
                        digest(op.files(out / "round0").values())
                    if not same:
                        fails = ["rerun with the same seed wrote other bytes"]
                check_failed = check_failed or bool(fails)
            if fails:
                failed += 1
                notes += [f"FAILED {op.method} round {i}: {f}" for f in fails]

    attempted = len(walls) * len(spec.ops)
    if tracer:
        values = tracer.layer_metrics(len(walls), tie_mismatch)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER}
        notes.append(f"traced run_s = {statistics.median(walls)!r} s "
                     f"({len(walls)} rounds; compare untraced run_s)")
    else:
        round_r2 = [sum(r) / len(r) for r in r2_rounds if r]
        values = {"run_s": statistics.median(walls),
                  "cpu_s": statistics.median(cpus),
                  "peak_rss_mb": peak_rss_mb,
                  "setup_s": statistics.median(setup_times),
                  "r2": statistics.median(round_r2) if round_r2 else 0.0}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    notes += [f"{name} = {m['value']:.6g} {m['unit']}"
              for name, m in metrics.items()]
    notes.append("set-up times: " + ", ".join(f"{t:.3f}" for t in setup_times))
    notes.append("round wall times: " + ", ".join(f"{w:.3f}" for w in walls))
    notes.append(f"{spec.name}: {len(walls)} rounds, {attempted} operations, "
                 f"{failed} failed, seed {args.seed}, world seed {world_seed}")
    notes += run_fails
    result = {"correct": not check_failed and not run_fails,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, notes


def check_op(op, files, labels, r2_floor, reference, tie_mismatch,
             r2_out) -> list[str]:
    """Every check that applies to one operation's output files.

    `reference` caches the reference predictions of the run's split;
    `tie_mismatch` and `r2_out` collect figures for the metrics.
    """
    import checks
    from geohg.baselines import fit_variogram
    from workloads import MASKED_RATIO

    pred = checks.read_predictions(str(files["predictions"]))
    report = checks.read_report(str(files["report"]))
    fails = checks.check_table(pred, labels, MASKED_RATIO)
    if fails:
        return fails
    fails += checks.check_report(report, pred)
    r2 = checks.masked_metrics(pred)["r2"]
    r2_out.append(r2)
    split = checks.split_of(labels, pred)
    if "idw" not in reference:
        reference["idw"] = checks.reference_idw(split.sample_xy,
                                                split.sample_values,
                                                split.target_xy)
    program = pred.y_pred[pred.masked]
    if op.is_model:
        idw_r2 = checks.r2_of(split.target_values, reference["idw"][0])
        fails += checks.check_r2(r2, r2_floor, idw_r2)
        log = checks.read_log(str(files["log"]))
        fails += checks.check_early_stopping(log, op.patience, op.max_epochs)
        if op.method == "geohg-ssl":
            fails += checks.check_finetune_improves(log)
        return fails
    fails += checks.check_exact_at_samples(pred)
    if op.method == "idw":
        ref, tie = reference["idw"]
        bad, mismatch = checks.compare_reference(program, ref, tie,
                                                 checks.IDW_ATOL, "idw")
    else:
        if "uk" not in reference:
            samples = [((int(x), int(y)), float(v)) for (x, y), v
                       in zip(split.sample_xy, split.sample_values)]
            model = fit_variogram(samples)
            reference["uk"] = checks.reference_uk(
                split.sample_xy, split.sample_values, split.target_xy,
                (model.nugget, model.sill, model.effective_range))
        ref, tie = reference["uk"]
        fallbacks = int(report.get("uk_idw_fallbacks", "0"))
        bad, mismatch = checks.compare_reference(
            program, ref, tie, checks.UK_ATOL, "uk",
            allowed_other=fallbacks, other=reference["idw"][0])
    tie_mismatch[op.method] = mismatch
    return fails + bad


def run_all(args) -> int:
    """Each workload in a fresh process, untraced then traced."""
    from workloads import WORKLOADS
    combined, ok = {}, True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.world_seed is not None:
                cmd += ["--world-seed", str(args.world_seed)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}\n"
                      f"{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"] and result["failed"] == 0
            entry = combined.setdefault(name, {"correct": True,
                                               "attempted": 0, "failed": 0,
                                               "metrics": {}})
            entry["correct"] = entry["correct"] and result["correct"]
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry["metrics"].update(result["metrics"])
            for metric, m in result["metrics"].items():
                print(f"{name:10s} {metric:28s} {m['value']:14.6g} {m['unit']}")
            for line in lines[:-1]:
                if line.startswith(("FAILED", "traced", "set-up")):
                    print(f"{name:10s} {line}")
    print(json.dumps(combined))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "geohg" / "__init__.py").is_file():
        print(f"error: no geohg sources at {SRC}; run from a checkout of "
              f"the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import geohg
    if not Path(geohg.__file__).resolve().is_relative_to(SRC):
        print(f"error: geohg imported from {geohg.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result, notes = run_workload(args)
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
