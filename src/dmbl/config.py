"""Engine configuration: base language, measure, schedule, resource caps."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .formula import _IDENT_RE, parse
from .model import ModelState
from .probability import BaseMeasure, MeasureError
from .worlds import mask_of


class ConfigError(Exception):
    pass


@dataclass
class EngineConfig:
    atoms: Optional[list[str]] = None
    worlds: Optional[list[str]] = None
    measure: Optional[dict[str, str]] = None
    schedule: str = "demand"
    max_levels: int = 32
    max_worlds: int = 200_000
    task_list: Optional[list] = None
    output: str = "text"

    def __post_init__(self):
        for key in ("atoms", "worlds"):
            names = getattr(self, key)
            if names is not None and not (
                    isinstance(names, list)
                    and all(isinstance(x, str) for x in names)):
                raise ConfigError(f"{key} must be a list of strings")
        for name in self.atoms or ():
            if not _IDENT_RE.match(name) or name in ("T", "F"):
                raise ConfigError(f"atom name {name!r} is not a formula identifier")
        for key in ("max_levels", "max_worlds"):
            if type(getattr(self, key)) is not int:  # a bool is no cap
                raise ConfigError(f"{key} must be an integer")
        for key in ("schedule", "output"):
            if not isinstance(getattr(self, key), str):
                raise ConfigError(f"{key} must be a string")
        if self.measure is not None and not isinstance(self.measure, dict):
            raise ConfigError("measure must be an object")
        if self.task_list is not None and not isinstance(self.task_list, list):
            raise ConfigError("task_list must be a list")
        if self.atoms is None and self.worlds is None:
            self.atoms = ["p", "q"]
        if self.schedule not in ("demand", "canonical"):
            raise ConfigError(f"unknown schedule {self.schedule!r}")
        if self.output not in ("text", "json"):
            raise ConfigError(f"unknown output {self.output!r}")
        if self.max_levels <= 0 or self.max_worlds <= 0:
            raise ConfigError("resource caps must be positive")


def load_config(path: str) -> EngineConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # also malformed JSON or encoding
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    allowed = {"atoms", "worlds", "measure", "schedule", "max_levels",
               "max_worlds", "task_list", "output"}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return EngineConfig(**data)


def _task_entry_mask(state: ModelState, entry) -> int:
    # an entry is a list of base-world labels, or a formula over the atoms
    if isinstance(entry, list):
        return mask_of(state.world_index(str(w)) for w in entry)
    from .evaluator import assign

    return assign(state, parse(str(entry), state.atoms or None)).value.mask


def build_state(cfg: EngineConfig) -> ModelState:
    kwargs = dict(schedule=cfg.schedule, max_levels=cfg.max_levels,
                  max_worlds=cfg.max_worlds)
    task_masks = None
    if cfg.task_list is not None:
        probe = (ModelState.from_worlds(cfg.worlds, schedule="demand")
                 if cfg.worlds is not None
                 else ModelState.from_atoms(cfg.atoms, schedule="demand"))
        task_masks = [_task_entry_mask(probe, entry) for entry in cfg.task_list]
    if cfg.worlds is not None:
        return ModelState.from_worlds(cfg.worlds, task_list=task_masks, **kwargs)
    return ModelState.from_atoms(cfg.atoms, task_list=task_masks, **kwargs)


def build_measure(cfg: EngineConfig, state: ModelState) -> BaseMeasure:
    """The configured base measure; uniform when none is given.

    In atom mode the keys are formulas denoting single worlds (minterms);
    in explicit-world mode they are world labels.  Values are exact
    rationals like ``"3/10"``.
    """
    if cfg.measure is None:
        return BaseMeasure.uniform(state)
    weights = [Fraction(0)] * state.width(0)
    seen = [False] * state.width(0)
    from .evaluator import assign

    for key, value in cfg.measure.items():
        try:
            frac = Fraction(value)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad rational {value!r} for {key!r}: {exc}") from None
        if cfg.worlds is not None:
            idx = state.world_index(key)
        else:
            val = assign(state, parse(key, state.atoms)).value
            if val.cardinality() != 1:
                raise ConfigError(f"measure key {key!r} does not denote one world")
            idx = val.indices()[0]
        if seen[idx]:
            raise ConfigError(f"measure key {key!r} repeats a world")
        seen[idx] = True
        weights[idx] = frac
    if not all(seen):
        missing = [state.base_labels[i] for i, s in enumerate(seen) if not s]
        raise ConfigError(f"measure misses worlds: {missing}")
    try:
        return BaseMeasure(tuple(weights))
    except MeasureError as exc:
        raise ConfigError(str(exc)) from None
