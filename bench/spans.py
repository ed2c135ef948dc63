"""Span tracing around geohg's public functions, from outside the program.

`Tracer.install()` replaces each function in TARGETS, in every loaded geohg
module that holds it, by a wrapper that records a span: layer key, function
name, start, end, parent span and the current phase. Spans stay in memory
until `write()`; `uninstall()` puts the original functions back. No source
file changes. Backward closures of the tape run inside `Tensor.backward`,
so its span is the whole backward pass; per-op backward time is not split.

A span's self time is its duration minus the time of the spans directly
inside it, so a layer's self time excludes the traced layers it calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

# (module, attribute, layer key). "Tensor.backward" is a method. A target
# the program no longer has is skipped, and its figures read 0.
TARGETS = (
    ("geohg.synth", "generate", "synth.generate"),
    ("geohg.geodata", "load_gridspec", "geodata.load"),
    ("geohg.geodata", "load_landcover", "geodata.load"),
    ("geohg.geodata", "load_pois", "geodata.load"),
    ("geohg.geodata", "load_labels", "geodata.load"),
    ("geohg.geodata", "load_categories", "geodata.load"),
    ("geohg.features", "featurize_all", "features.featurize"),
    ("geohg.hetgraph", "build_graph", "hetgraph.build"),
    ("geohg.model", "prepare_graph", "model.prepare"),
    ("geohg.model", "train_end_to_end", "model.train"),
    ("geohg.model", "mse_training_loss", "model.train"),
    ("geohg.model", "positive_sets", "model.positive_sets"),
    ("geohg.model", "pretrain_contrastive", "model.pretrain"),
    ("geohg.model", "infonce_loss", "model.pretrain"),
    ("geohg.model", "finetune_head", "model.finetune"),
    ("geohg.model", "predict_all", "model.predict"),
    ("geohg.model", "predict_from_embeddings", "model.predict"),
    ("geohg.tensor", "segment_mean", "tensor.segment_mean"),
    ("geohg.tensor", "matmul", "tensor.matmul"),
    ("geohg.tensor", "matmul_t", "tensor.matmul"),
    ("geohg.tensor", "Tensor.backward", "tensor.backward"),
    ("geohg.tensor", "adam_step", "tensor.adam_step"),
    ("geohg.tensor", "build_plan", "tensor.build_plan"),
    ("geohg.tensor", "lu_solve", "tensor.lu_solve"),
    *(("geohg.tensor", op, "tensor.other") for op in (
        "add", "sub", "mul", "scale", "relu", "square", "mean_all", "sum_all",
        "row_softmax", "log_sum_exp", "diag", "gather_rows", "concat_rows")),
    ("geohg.baselines", "fit_variogram", "baselines.variogram"),
    ("geohg.baselines", "idw_predict", "baselines.idw"),
    ("geohg.baselines", "uk_predict", "baselines.uk"),
    ("geohg.evaluation", "run_experiment", "evaluation.run"),
    ("geohg.evaluation", "write_report", "evaluation.write"),
    ("geohg.evaluation", "write_predictions", "evaluation.write"),
    ("geohg.cli", "dispatch", "cli.dispatch"),
)

# Per-layer metrics: (name, unit). Times are self times per round unless the
# README says otherwise; counts are per round.
PER_LAYER = (
    ("synth.generate_s", "s"),
    ("geodata.load_s", "s"),
    ("features.featurize_s", "s"),
    ("hetgraph.build_s", "s"),
    ("hetgraph.edges_rnr", "count"),
    ("hetgraph.edges_elr", "count"),
    ("hetgraph.edges_slr", "count"),
    ("model.prepare_s", "s"),
    ("model.train_s", "s"),
    ("model.epochs", "count"),
    ("model.epoch_ms", "ms"),
    ("model.predict_s", "s"),
    ("model.positive_sets_s", "s"),
    ("model.pretrain_s", "s"),
    ("model.ssl_steps", "count"),
    ("model.ssl_step_ms", "ms"),
    ("model.finetune_s", "s"),
    ("model.finetune_epochs", "count"),
    ("tensor.segment_mean_s", "s"),
    ("tensor.segment_mean_calls", "count"),
    ("tensor.matmul_s", "s"),
    ("tensor.matmul_calls", "count"),
    ("tensor.backward_s", "s"),
    ("tensor.backward_calls", "count"),
    ("tensor.adam_step_s", "s"),
    ("tensor.adam_step_calls", "count"),
    ("tensor.build_plan_s", "s"),
    ("tensor.build_plan_calls", "count"),
    ("tensor.lu_solve_s", "s"),
    ("tensor.lu_solve_calls", "count"),
    ("tensor.other_s", "s"),
    ("tensor.other_calls", "count"),
    ("baselines.variogram_s", "s"),
    ("baselines.idw_s", "s"),
    ("baselines.uk_s", "s"),
    ("baselines.idw_targets", "count"),
    ("baselines.uk_targets", "count"),
    ("baselines.uk_fallbacks", "count"),
    ("baselines.idw_tie_mismatch", "count"),
    ("baselines.uk_tie_mismatch", "count"),
    ("evaluation.write_s", "s"),
    ("cli.self_s", "s"),
)


class Span:
    __slots__ = ("key", "fn", "start", "end", "parent", "phase")

    def __init__(self, key: str, fn: str, start: float, parent: int,
                 phase: str):
        self.key, self.fn, self.start, self.end = key, fn, start, start
        self.parent, self.phase = parent, phase


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = ""
        self.edges: dict[str, int] = {}
        self.finetune_epochs = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, key: str, fn: str, func: Callable,
              on_result: Optional[Callable[[object], None]]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = Span(key, fn, clock(), stack[-1] if stack else -1,
                        self.phase)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _hook(self, fn: str) -> Optional[Callable[[object], None]]:
        if fn == "build_graph":
            def edges(graph) -> None:
                for rel in ("rnr", "elr", "slr"):
                    self.edges[rel] = len(getattr(graph, f"edges_{rel}"))
            return edges
        if fn == "finetune_head":
            def epochs(result) -> None:
                self.finetune_epochs += len(result[1])
            return epochs
        return None

    def install(self) -> None:
        loaded = [m for name, m in sys.modules.items()
                  if name == "geohg" or name.startswith("geohg.")]
        for module_name, attr, key in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(key, meth, orig, None))
                continue
            orig = getattr(module, attr, None)
            if orig is None:
                continue
            wrapper = self._wrap(key, attr, orig, self._hook(attr))
            for mod in loaded:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, name, orig))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    # -- output -----------------------------------------------------------

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.fn, "layer": s.key,
                                     "start": s.start, "end": s.end,
                                     "parent": s.parent,
                                     "phase": s.phase}) + "\n")

    def layer_metrics(self, n_rounds: int,
                      tie_mismatch: dict[str, int]) -> dict[str, float]:
        """Per-layer figures over the spans recorded in 'round' phases."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        # Inclusive time of a training span minus its set-up children.
        loop = {"train_end_to_end": 0.0, "pretrain_contrastive": 0.0}
        setup_children = ("prepare_graph", "positive_sets")
        idw_top = idw_fallback = 0
        generate = []
        for i, s in enumerate(spans):
            if s.phase == "setup":
                if s.fn == "generate":
                    generate.append(s.end - s.start)
                continue
            self_s[s.key] += s.end - s.start - child_time[i]
            calls[s.fn] += 1
            parent = spans[s.parent] if s.parent >= 0 else None
            if s.fn in loop:
                loop[s.fn] += s.end - s.start
            elif parent is not None and parent.fn in loop \
                    and s.fn in setup_children:
                loop[parent.fn] -= s.end - s.start
            if s.fn == "idw_predict":
                if parent is not None and parent.fn == "uk_predict":
                    idw_fallback += 1
                else:
                    idw_top += 1
        r = float(n_rounds)
        epochs = calls["mse_training_loss"]
        steps = calls["infonce_loss"]
        out = {
            "synth.generate_s": statistics.median(generate) if generate else 0.0,
            "hetgraph.edges_rnr": float(self.edges.get("rnr", 0)),
            "hetgraph.edges_elr": float(self.edges.get("elr", 0)),
            "hetgraph.edges_slr": float(self.edges.get("slr", 0)),
            "model.epochs": epochs / r,
            "model.epoch_ms": (1e3 * loop["train_end_to_end"] / epochs
                               if epochs else 0.0),
            "model.ssl_steps": steps / r,
            "model.ssl_step_ms": (1e3 * loop["pretrain_contrastive"] / steps
                                  if steps else 0.0),
            "model.finetune_epochs": self.finetune_epochs / r,
            "tensor.segment_mean_calls": calls["segment_mean"] / r,
            "tensor.matmul_calls": (calls["matmul"] + calls["matmul_t"]) / r,
            "tensor.backward_calls": calls["backward"] / r,
            "tensor.adam_step_calls": calls["adam_step"] / r,
            "tensor.build_plan_calls": calls["build_plan"] / r,
            "tensor.lu_solve_calls": calls["lu_solve"] / r,
            "tensor.other_calls": sum(calls[fn] for _, fn, key in TARGETS
                                      if key == "tensor.other") / r,
            "baselines.idw_targets": idw_top / r,
            "baselines.uk_targets": calls["uk_predict"] / r,
            "baselines.uk_fallbacks": idw_fallback / r,
            "baselines.idw_tie_mismatch": float(tie_mismatch.get("idw", 0)),
            "baselines.uk_tie_mismatch": float(tie_mismatch.get("uk", 0)),
            "cli.self_s": self_s["cli.dispatch"] / r,
        }
        for name, _ in PER_LAYER:
            if name not in out:
                out[name] = self_s[name[:-2]] / r
        return out
