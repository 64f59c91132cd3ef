"""Engine configuration: validated hyperparameters with environment profiles.

The field defaults are the published ``text-game`` values (discount 0.5, 10
neighbors, similarity threshold 0.95, exploration rate 0.65, bonus 5, step
limit 60). A profile is only its overrides of those defaults: ``text-game``
has none, and ``web`` sets discount 0.1, threshold 0.8, exploration rate
0.05, step limit 10 and the cross-task gate 0.27. The logit-update strength
``beta`` has no published default and must always be given explicitly.

Config files are JSON objects with exactly these field names; command-line
flags override file values.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from dataclasses import dataclass, field

# each profile's values that differ from the field defaults
PROFILES = {
    "text-game": {},
    "web": dict(gamma=0.1, similarity_threshold=0.8, exploration_rate=0.05, step_limit=10,
                task_similarity_threshold=0.27),
}


class ConfigError(ValueError):
    """A configuration value is missing, unknown, or out of range."""


@dataclass
class EngineConfig:
    beta: float                          # logit-update strength (no default; see module doc)
    gamma: float = 0.5                   # return discount
    k_neighbors: int = 10                # retrieval neighborhood size
    similarity_threshold: float = 0.95   # minimum retrieval similarity
    exploration_rate: float = 0.65       # chance an unseen action gets the optimistic value
    exploration_bonus: float = 5.0       # optimistic bonus scale (divided by |neighborhood|)
    epsilon: float = 1e-8                # advantage normalization stabilizer
    n_candidates: int = 3                # proposer candidate count
    step_limit: int = 60                 # per-episode step cap
    episodes: int = 50                   # sequential episodes per experiment
    seed: int = 0                        # root seed for all generator streams
    history_length: int = 3              # actions kept in the history text
    terminal_bonus: float = 0.0          # extra final reward on success
    memory_scope: str = "global"         # "global" or "per-task"
    memory_capacity: int | None = None   # None = unbounded, else FIFO cap
    state_weight: float = 0.75           # state share of retrieval similarity
    history_weight: float = 0.25         # history share of retrieval similarity
    task_similarity_threshold: float | None = None   # cross-task gate (web profile)
    cross_task_history_weight: float = 0.7
    cross_task_task_weight: float = 0.3
    action_rules: list = field(default_factory=list)  # [[pattern, replacement], ...]

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        self._check_types()
        if self.beta < 0.0:
            raise ConfigError(f"beta must be >= 0, got {self.beta}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must lie in [0, 1], got {self.gamma}")
        if self.k_neighbors < 1:
            raise ConfigError(f"k_neighbors must be >= 1, got {self.k_neighbors}")
        if not 0.0 <= self.similarity_threshold <= 1.0:
            raise ConfigError(f"similarity_threshold must lie in [0, 1], "
                              f"got {self.similarity_threshold}")
        if not 0.0 <= self.exploration_rate <= 1.0:
            raise ConfigError(f"exploration_rate must lie in [0, 1], "
                              f"got {self.exploration_rate}")
        if self.exploration_bonus < 0.0:
            raise ConfigError(f"exploration_bonus must be >= 0, got {self.exploration_bonus}")
        if self.epsilon <= 0.0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")
        if self.n_candidates < 1:
            raise ConfigError(f"n_candidates must be >= 1, got {self.n_candidates}")
        if self.step_limit < 1:
            raise ConfigError(f"step_limit must be >= 1, got {self.step_limit}")
        if self.episodes < 1:
            raise ConfigError(f"episodes must be >= 1, got {self.episodes}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.history_length < 0:
            raise ConfigError(f"history_length must be >= 0, got {self.history_length}")
        if self.memory_scope not in ("global", "per-task"):
            raise ConfigError(f"memory_scope must be 'global' or 'per-task', "
                              f"got {self.memory_scope!r}")
        if self.memory_capacity is not None and self.memory_capacity < 1:
            raise ConfigError(f"memory_capacity must be None or >= 1, "
                              f"got {self.memory_capacity}")
        for name in ("state_weight", "history_weight",
                     "cross_task_history_weight", "cross_task_task_weight"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {value}")
        for first, second in (("state_weight", "history_weight"),
                              ("cross_task_history_weight", "cross_task_task_weight")):
            total = getattr(self, first) + getattr(self, second)
            if abs(total - 1.0) > 1e-9:
                raise ConfigError(f"{first} + {second} must equal 1, got {total}")
        if self.task_similarity_threshold is not None \
                and not 0.0 <= self.task_similarity_threshold <= 1.0:
            raise ConfigError(f"task_similarity_threshold must lie in [0, 1], "
                              f"got {self.task_similarity_threshold}")
        if not isinstance(self.action_rules, list):
            raise ConfigError(f"action_rules must be a list of [pattern, replacement], "
                              f"got {self.action_rules!r}")
        for rule in self.action_rules:
            if (not isinstance(rule, (list, tuple)) or len(rule) != 2
                    or not all(isinstance(p, str) for p in rule)):
                raise ConfigError(f"action rule must be [pattern, replacement], got {rule!r}")
            try:  # compiles the pattern, then parses the template against it
                re.compile(rule[0]).sub(rule[1], "")
            except (re.error, IndexError) as exc:
                raise ConfigError(f"action rule {rule!r} does not compile: {exc}") from exc

    def _check_types(self) -> None:
        """Integer fields hold an ``int`` and float fields a finite number,
        never a ``bool``; an optional field may also hold None."""
        for f in dataclasses.fields(self):
            kind, _, optional = f.type.partition(" | ")  # annotations are strings
            value = getattr(self, f.name)
            if kind not in ("int", "float") or (value is None and optional):
                continue
            allowed = int if kind == "int" else (int, float)
            if (isinstance(value, bool) or not isinstance(value, allowed)
                    or not math.isfinite(value)):
                noun = "an integer" if kind == "int" else "a finite number"
                raise ConfigError(f"{f.name} must be {noun}, got {value!r}")

    # -- profiles -----------------------------------------------------------

    @classmethod
    def profile(cls, name: str, beta: float, **overrides) -> "EngineConfig":
        """The named profile's values, then ``overrides``, over the field defaults."""
        if name not in PROFILES:
            raise ConfigError(f"unknown profile {name!r}; choose from {tuple(PROFILES)}")
        return cls(beta=beta, **{**PROFILES[name], **overrides})

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "EngineConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "beta" not in raw:
            raise ConfigError("config must set beta explicitly (it has no default)")
        return cls(**raw)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path, **overrides) -> "EngineConfig":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        raw.update(overrides)
        return cls.from_dict(raw)
