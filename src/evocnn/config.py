"""Run configuration: one flat key=value text file, env overrides for paths."""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from pathlib import Path

# Env overrides apply to paths only.
_ENV_PATHS = {
    "EVOCNN_POPULATION_ROOT": "population_root",
    "EVOCNN_REPORT_DIR": "report_dir",
    "EVOCNN_DATASET_DIR": "dataset_dir",
    "EVOCNN_EVOD_PREFIX": "evod_prefix",
}


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    # paths
    population_root: str = "population"
    report_dir: str = "reports"
    dataset_dir: str = ""          # CIFAR-10 binary batch dir
    evod_prefix: str = ""          # prefix of encoded {train,val,test}.evod caches

    # data source: synth | cifar10 | evod
    data_source: str = "synth"
    synth_classes: int = 4
    synth_count: int = 1600
    synth_size: int = 16
    synth_channels: int = 3
    synth_seed: int = 7

    # run scale
    workers: int = 1
    seeds_per_worker: int = 2
    round_budget: int = 0          # completed rounds per worker; 0 = wall budget
    wall_budget: float = 0.0       # seconds per worker

    # training protocol
    epochs: int = 25
    batch_size: int = 50
    learning_rate: float = 0.01
    momentum: float = 0.9

    # selection / mcdm
    w_compression: float = 0.5
    w_accuracy: float = 0.5
    isolation_mode: str = "mean"   # mean | nearest

    # evolution knobs
    mutation_max_tries: int = 25
    master_seed: int = 0
    n_classes: int = 10

    def check(self):
        if self.workers < 1 or self.seeds_per_worker < 1:
            raise ConfigError("workers and seeds_per_worker must be positive")
        if self.workers * self.seeds_per_worker < 2:
            # a tournament needs two live individuals; with one, rounds never start
            raise ConfigError("workers * seeds_per_worker must be at least 2")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if self.round_budget < 0 or self.wall_budget < 0:
            raise ConfigError("budgets must be non-negative")
        if self.round_budget == 0 and self.wall_budget == 0:
            raise ConfigError("either round_budget or wall_budget must be set")
        if self.momentum < 0 or self.momentum >= 1:
            raise ConfigError("momentum must be in [0,1)")
        if self.w_compression < 0 or self.w_accuracy < 0 or (
            self.w_compression + self.w_accuracy
        ) <= 0:
            raise ConfigError("TOPSIS weights must be non-negative with positive sum")
        if self.isolation_mode not in ("mean", "nearest"):
            raise ConfigError(f"unknown isolation_mode {self.isolation_mode!r}")
        if self.data_source not in ("synth", "cifar10", "evod"):
            raise ConfigError(f"unknown data_source {self.data_source!r}")
        return self


def load_config(path) -> RunConfig:
    cfg = RunConfig()
    casts = {"int": int, "float": float, "str": str}
    known = {f.name: casts[f.type] for f in fields(RunConfig)}
    for n, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{n}: expected key=value, got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in known:
            raise ConfigError(f"{path}:{n}: unknown key {key!r}")
        try:
            setattr(cfg, key, known[key](value))
        except ValueError as exc:
            raise ConfigError(f"{path}:{n}: bad value for {key}: {exc}") from exc
    for env, attr in _ENV_PATHS.items():
        if env in os.environ:
            setattr(cfg, attr, os.environ[env])
    return cfg.check()


def save_config(cfg: RunConfig, path):
    lines = [f"{f.name} = {getattr(cfg, f.name)}" for f in fields(RunConfig)]
    Path(path).write_text("\n".join(lines) + "\n")
