"""Benchmark workloads: the synthetic worlds and the CLI calls timed on them.

A workload synthesises one world with `geohg synth` during set-up, then
repeats rounds of the same operations, each one in-process `geohg` CLI call.
`--seed` sets the split seed (which is also the model and batch seed, as in
the CLI); the world seed has a fixed default per workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

MASKED_RATIO = 0.75


@dataclass(frozen=True)
class World:
    size: int                 # n_cols = n_rows
    n_patches: int
    seed: int

    def synth_argv(self, out_dir: Path, seed: int) -> list[str]:
        return ["--out-dir", str(out_dir), "synth",
                "--n-cols", str(self.size), "--n-rows", str(self.size),
                "--n-patches", str(self.n_patches), "--seed", str(seed)]


@dataclass(frozen=True)
class Op:
    """One CLI call and what the checks need to know about it."""

    method: str               # geohg, geohg-ssl, idw or uk
    flags: tuple[str, ...] = ()
    max_epochs: int = 1000    # the CLI defaults, for the stopping-rule check
    patience: int = 50

    @property
    def is_model(self) -> bool:
        return self.method in ("geohg", "geohg-ssl")

    def files(self, out_dir: Path) -> dict[str, Path]:
        if self.is_model:
            return {"report": out_dir / "report.txt",
                    "predictions": out_dir / "predictions.csv",
                    "log": out_dir / "train_log.csv"}
        return {"report": out_dir / f"report_{self.method}.txt",
                "predictions": out_dir / f"predictions_{self.method}.csv"}

    def argv(self, world_dir: Path, out_dir: Path, seed: int) -> list[str]:
        common = ["--grid", str(world_dir / "grid.cfg"),
                  "--labels", str(world_dir / "labels.csv"),
                  "--masked-ratio", str(MASKED_RATIO), "--seed", str(seed)]
        if self.is_model:
            return (["--out-dir", str(out_dir), "eval", "--method",
                     self.method,
                     "--landcover", str(world_dir / "landcover.txt"),
                     "--pois", str(world_dir / "pois.csv")]
                    + common + list(self.flags))
        return (["--out-dir", str(out_dir), "baseline", "--method",
                 self.method] + common + list(self.flags))


@dataclass(frozen=True)
class Workload:
    name: str
    world: World
    ops: tuple[Op, ...]
    r2_floor: float = 0.0     # masked R^2 floor for the model methods


# The criterion-2 world of the acceptance suite: 48x48, 200 Voronoi patches.
WORLD_48 = World(size=48, n_patches=200, seed=11)
# Same patch density (200 / 48^2 cells) on 64x64.
WORLD_64 = World(size=64, n_patches=356, seed=11)

MODEL_FLAGS = ("--layers", "2", "--hidden-dim", "48")
# A fixed epoch budget: with patience equal to max_epochs early stopping
# cannot end training first, so every split does the same work. Under
# patience 50 the stopping epoch ranges from 98 to 347 over split seeds 0-9,
# which would make run_s track the numerics instead of the speed.
TRAIN_EPOCHS = 100
SSL_EPOCHS = 3

WORKLOADS = {
    w.name: w for w in (
        Workload("train-48", WORLD_48,
                 (Op("geohg",
                     MODEL_FLAGS + ("--max-epochs", str(TRAIN_EPOCHS),
                                    "--patience", str(TRAIN_EPOCHS)),
                     max_epochs=TRAIN_EPOCHS, patience=TRAIN_EPOCHS),),
                 r2_floor=0.75),
        Workload("ssl-48", WORLD_48,
                 (Op("geohg-ssl",
                     MODEL_FLAGS + ("--ssl-epochs", str(SSL_EPOCHS))),),
                 r2_floor=0.70),
        Workload("interp-64", WORLD_64, (Op("idw"), Op("uk"))),
    )
}
