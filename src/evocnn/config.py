"""Run configuration: one flat key=value text file, the only source of a
run's settings; no environment variable overrides it, paths included."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .fileio import replacing


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
    n_classes: int = 10            # label count of every source
    synth_count: int = 1600
    synth_size: int = 16
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

    # evolution knobs
    master_seed: int = 0

    def check(self):
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                # a nan budget never expires and a nan rate never trains
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
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
        if self.learning_rate <= 0:
            # every seed would fail Genome.check on read-back, so no round completes
            raise ConfigError("learning_rate must be positive")
        if self.momentum < 0 or self.momentum >= 1:
            raise ConfigError("momentum must be in [0,1)")
        if self.w_compression < 0 or self.w_accuracy < 0 or (
            self.w_compression + self.w_accuracy
        ) <= 0:
            raise ConfigError("TOPSIS weights must be non-negative with positive sum")
        if self.n_classes < 2:
            # with one class every classifier scores 1.0; with none the synth source divides by 0
            raise ConfigError(f"n_classes must be at least 2, got {self.n_classes}")
        if self.synth_count < 1 or self.synth_size < 2:
            # the seed encoder's 2x2 pool needs at least 2x2 pixels
            raise ConfigError(
                f"synth_count must be positive and synth_size at least 2, "
                f"got {self.synth_count} and {self.synth_size}"
            )
        if self.data_source not in ("synth", "cifar10", "evod"):
            raise ConfigError(f"unknown data_source {self.data_source!r}")
        return self


def _parse(text, path) -> dict:
    """key -> typed value of each key=value line; `#` starts a comment. A key
    set on two lines raises ConfigError naming both."""
    casts = {"int": int, "float": float, "str": str}
    known = {f.name: casts[f.type] for f in fields(RunConfig)}
    values, lines = {}, {}
    for n, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{n}: expected key=value, got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in known:
            raise ConfigError(f"{path}:{n}: unknown key {key!r}")
        if key in lines:
            raise ConfigError(f"{path}:{n}: {key} is set again, first on line {lines[key]}")
        lines[key] = n
        try:
            values[key] = known[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{n}: bad value for {key}: {exc}") from exc
    return values


def load_config(path) -> RunConfig:
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    return RunConfig(**_parse(text, path)).check()


def save_config(cfg: RunConfig, path):
    """Write cfg as key=value lines; a value that would not read back
    (a `#`, a line break, surrounding whitespace) raises ConfigError."""
    text = "".join(f"{f.name} = {getattr(cfg, f.name)}\n" for f in fields(RunConfig))
    try:
        back = _parse(text, path)
        data = text.encode("utf-8")
    except (ConfigError, UnicodeEncodeError) as exc:
        raise ConfigError(f"{path}: a value would not read back ({exc})") from exc
    for key, value in back.items():
        if value != getattr(cfg, key):
            raise ConfigError(f"{path}: {key} value {getattr(cfg, key)!r} would not read back")
    with replacing(path, "wb") as fh:
        fh.write(data)
