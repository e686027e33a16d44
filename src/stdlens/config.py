"""Configuration schema and validation.

An experiment is described by a YAML file with four sections
(federation, task, attack, defense). Unknown keys are a hard error so a
typo can never silently fall back to a default.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional

import yaml

__all__ = [
    "ConfigError",
    "FederationConfig",
    "TaskConfig",
    "AttackSpec",
    "DefenseConfig",
    "ExperimentConfig",
    "validate_config",
    "load_config",
]

POISON_TYPES = ("class", "bbox", "objn")
DEFENSE_NAMES = ("stdlens", "spatial", "spectral", "none")
CONFIDENCE_TO_Z = {0.68: 1.0, 0.95: 2.0, 0.99: 3.0}


class ConfigError(ValueError):
    """Raised when a configuration violates an invariant."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class FederationConfig:
    num_clients: int = 100
    rounds: int = 200
    participation_fraction: float = 0.10
    malicious_fraction: float = 0.20
    forensic_window: int = 10
    confidence_level: float = 0.99
    temporal_window: int = 1
    watchlist_threshold: int = 2
    master_seed: int = 0
    local_epochs: int = 1
    learning_rate: float = 0.05

    def violations(self) -> list[str]:
        v = []
        if self.num_clients < 1:
            v.append("num_clients must be positive")
        if self.rounds < 1:
            v.append("rounds must be positive")
        if not (0.0 < self.participation_fraction <= 1.0):
            v.append("participation_fraction k must be in (0,1]")
        if not (0.0 <= self.malicious_fraction < 0.5):
            v.append("m must be < 0.5")
        if self.num_clients * self.participation_fraction < 2.0 - 1e-12:
            v.append("N*k < 2")
        frac = self.malicious_fraction * self.num_clients
        if abs(frac - round(frac)) > 1e-9:
            v.append("m*N must be an integer count of clients")
        if self.forensic_window < 2:
            v.append("forensic_window W must be >= 2")
        if self.confidence_level not in CONFIDENCE_TO_Z:
            v.append("confidence_level must be one of 0.68, 0.95, 0.99")
        if self.temporal_window < 1:
            v.append("temporal_window must be >= 1")
        if self.watchlist_threshold < 1:
            v.append("watchlist_threshold must be positive")
        if self.local_epochs < 1:
            v.append("local_epochs must be positive")
        if self.learning_rate <= 0:
            v.append("learning_rate must be positive")
        return v

    @property
    def num_malicious(self) -> int:
        return int(round(self.malicious_fraction * self.num_clients))


@dataclass(frozen=True)
class TaskConfig:
    num_classes: int = 4            # foreground classes; background is index num_classes
    feature_dim: int = 16
    num_anchors: int = 3
    samples_per_client: int = 40
    test_samples: int = 400
    feature_noise: float = 0.6

    def violations(self) -> list[str]:
        v = []
        if self.num_classes < 2:
            v.append("num_classes C must be >= 2")
        if self.feature_dim < 4:
            v.append("feature_dim d must be >= 4")
        if self.num_anchors < 1:
            v.append("num_anchors A must be >= 1")
        if self.samples_per_client < 1:
            v.append("samples_per_client must be positive")
        if self.test_samples < 1:
            v.append("test_samples must be positive")
        return v


@dataclass(frozen=True)
class AttackSpec:
    poison_type: str = "class"
    source_class: int = 0
    target_class: int = 1
    beta: float = 0.0
    gamma: float = 1.0
    onset_round: int = 0

    def violations(self) -> list[str]:
        v = []
        if self.poison_type not in POISON_TYPES:
            v.append(f"poison_type must be one of {POISON_TYPES}")
        if self.poison_type == "class" and self.target_class == self.source_class:
            v.append("target_class must differ from source_class")
        if not (0.0 <= self.beta < 1.0):
            v.append("beta must be in [0,1)")
        if not (0.0 < self.gamma <= 1.0):
            v.append("gamma must be in (0,1]")
        if self.onset_round < 0:
            v.append("onset_round must be >= 0")
        return v

    def poisoned_sample_count(self, n: int) -> int:
        """Samples of an n-sample payload that carry the poison: round(gamma*n)."""
        return math.floor(self.gamma * n + 0.5)


@dataclass(frozen=True)
class DefenseConfig:
    name: str = "stdlens"

    def violations(self) -> list[str]:
        if self.name not in DEFENSE_NAMES:
            return [f"defense name must be one of {DEFENSE_NAMES}"]
        return []


@dataclass(frozen=True)
class ExperimentConfig:
    federation: FederationConfig = field(default_factory=FederationConfig)
    task: TaskConfig = field(default_factory=TaskConfig)
    attack: Optional[AttackSpec] = None
    defense: DefenseConfig = field(default_factory=DefenseConfig)

    def violations(self) -> list[str]:
        v = []
        v += self.federation.violations()
        v += self.task.violations()
        if self.attack is not None:
            v += self.attack.violations()
            C = self.task.num_classes
            if not (0 <= self.attack.source_class < C):
                v.append("source_class out of range")
            if self.attack.poison_type == "class" and not (0 <= self.attack.target_class < C):
                v.append("target_class out of range")
            n = self.task.samples_per_client
            if (n >= 1 and 0.0 < self.attack.gamma <= 1.0
                    and self.attack.poisoned_sample_count(n) < 1):
                v.append("round(gamma*samples_per_client) must be >= 1")
        v += self.defense.violations()
        return v


def validate_config(config):
    """Return the config unchanged if valid, else raise ConfigError listing
    every violated invariant (no partial acceptance)."""
    v = config.violations()
    if v:
        raise ConfigError(v)
    return config


_SECTIONS = {"federation": FederationConfig, "task": TaskConfig,
             "attack": AttackSpec, "defense": DefenseConfig}
_FIELD_TYPES = {"int": int, "float": (int, float), "str": str}   # a bool is none of them


def _build_section(cls, data, section: str):
    data = {} if data is None else data
    if not isinstance(data, dict):
        raise ConfigError([f"[{section}] must be a mapping, got {data!r}"])
    fields = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError([f"unknown key(s) in [{section}]: {sorted(unknown, key=str)}"])
    wrong = [f"[{section}] {key} must be {fields[key]}, got {value!r}"
             for key, value in data.items()
             if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[fields[key]])]
    if wrong:
        raise ConfigError(wrong)
    return cls(**data)


def load_config(path) -> ExperimentConfig:
    """Parse and validate a YAML experiment config."""
    with open(path) as fh:
        try:
            raw = yaml.safe_load(fh) or {}
        except yaml.YAMLError as exc:
            raise ConfigError([f"malformed YAML: {' '.join(str(exc).split())}"]) from None
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be a mapping"])
    unknown = set(raw) - set(_SECTIONS)
    if unknown:
        raise ConfigError([f"unknown top-level section(s): {sorted(unknown, key=str)}"])
    sections = {name: _build_section(cls, raw.get(name), name)
                for name, cls in _SECTIONS.items()}
    if raw.get("attack") in (None, {}):     # an empty section means no attack
        sections["attack"] = None
    return validate_config(ExperimentConfig(**sections))
