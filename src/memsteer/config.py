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
import sys
from dataclasses import dataclass, field

from memsteer.memory import json_of, read_json

# each profile's values that differ from the field defaults
PROFILES = {
    "text-game": {},
    "web": dict(gamma=0.1, similarity_threshold=0.8, exploration_rate=0.05, step_limit=10,
                task_similarity_threshold=0.27),
}
# how a run picks its actions: the full engine, the base policy alone, or the
# greedy ablation (memsteer.runner)
MODES = ("memsteer", "static", "greedy-memory")

# the bounds validate checks first, in order: (field, the bound its value must
# meet); an optional field set to None meets its bound
_BOUNDS = (("beta", "be >= 0"), ("gamma", "lie in [0, 1]"), ("k_neighbors", "be >= 1"),
           ("similarity_threshold", "lie in [0, 1]"), ("exploration_rate", "lie in [0, 1]"),
           ("exploration_bonus", "be >= 0"), ("epsilon", "be > 0"), ("n_candidates", "be >= 1"),
           ("step_limit", "be >= 1"), ("episodes", "be >= 1"), ("seed", "be >= 0"),
           ("history_length", "be >= 0"), ("memory_capacity", "be >= 1"),
           ("state_weight", "lie in [0, 1]"), ("history_weight", "lie in [0, 1]"),
           ("task_similarity_threshold", "lie in [0, 1]"),
           ("cross_task_history_weight", "lie in [0, 1]"),
           ("cross_task_task_weight", "lie in [0, 1]"))
_MEETS = {"be >= 0": lambda v: v >= 0, "be >= 1": lambda v: v >= 1, "be > 0": lambda v: v > 0,
          "lie in [0, 1]": lambda v: 0 <= v <= 1, "lie in (0, 1]": lambda v: 0 < v <= 1}


def meets(value: int | float, bound: str) -> bool:
    """Whether ``value`` is finite and meets ``bound``, a bound of the table
    above (``"be >= 1"``, ``"lie in (0, 1]"``, ...); every bound is false for NaN."""
    return _MEETS[bound](value) and (not isinstance(value, float) or math.isfinite(value))


def _finite(value: int | float) -> bool:
    """Whether a float is finite, or an int lies in float range; ``math.isfinite``
    raises OverflowError for an int past it."""
    if isinstance(value, float):
        return math.isfinite(value)
    return -sys.float_info.max <= value <= sys.float_info.max


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
        for name, bound in _BOUNDS:
            value = getattr(self, name)  # _check_types let None through for optional fields only
            if value is not None and not meets(value, bound):
                raise ConfigError(f"{name} must {bound}, got {value}")
        if self.memory_scope not in ("global", "per-task"):
            raise ConfigError(f"memory_scope must be 'global' or 'per-task', "
                              f"got {self.memory_scope!r}")
        for first, second in (("state_weight", "history_weight"),
                              ("cross_task_history_weight", "cross_task_task_weight")):
            total = getattr(self, first) + getattr(self, second)
            if abs(total - 1.0) > 1e-9:
                raise ConfigError(f"{first} + {second} must equal 1, got {total}")
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
        """Integer fields hold an ``int`` and float fields a finite number (a
        finite float, or an int a float can hold), never a ``bool``; an
        optional field may also hold None."""
        for f in dataclasses.fields(self):
            kind, _, optional = f.type.partition(" | ")  # annotations are strings
            value = getattr(self, f.name)
            if kind not in ("int", "float") or (value is None and optional):
                continue
            allowed = int if kind == "int" else (int, float)
            if (isinstance(value, bool) or not isinstance(value, allowed)
                    or kind == "float" and not _finite(value)):
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
        """The config of a dict of field values; anything else raises ConfigError."""
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {raw!r}")
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
        """The config of a JSON object file (``memory.read_json``), ``overrides`` on top."""
        [(_, raw)] = read_json(path, json_of(dict), per_line=False)
        return cls.from_dict({**raw, **overrides})
