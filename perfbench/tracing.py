"""Per-layer spans recorded from outside the program.

The tracer wraps public functions and methods of the memsteer modules for the
length of one traced pass and restores them afterwards. Each wrapped call is a
span; a span's self time is its duration minus the time its child spans
cover, so a normalizer call inside estimation is counted once, under the
normalizer. A target that no longer exists (a later refactor renamed or
merged it) is recorded as missing instead of failing the run.

Module-level functions are replaced in every loaded ``memsteer`` module that
holds a reference to them, because callers bind them with ``from x import f``.
Methods are replaced on their class.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

MEMORY_ONLY = "memory_only"  # memsteer.policy.MEMORY_ONLY, the origin tag


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0


def _observe_retrieve(tracer: "Tracer", duration: float, args, before, result) -> None:
    tracer.retrieve_us.append(duration * 1e6)
    tracer.counts["retrieve.store_rows"] += before
    if result:
        tracer.counts["retrieve.hits"] += 1
        tracer.counts["retrieve.neighbors"] += len(result)


def _observe_add(tracer: "Tracer", duration: float, args, before, result) -> None:
    store, state = args[0], args[1]
    if len(store) <= before:
        tracer.counts["memory.evictions"] += 1
    tracer.state_sets.add(state.tokens)
    tracer.history_sets.add(state.history_tokens)


def _observe_augment(tracer: "Tracer", duration: float, args, before, result) -> None:
    tracer.counts["candidates"] += len(result)
    tracer.counts["candidates.memory_only"] += sum(
        1 for c in result if getattr(c, "origin", None) == MEMORY_ONLY)


def _observe_estimate(tracer: "Tracer", duration: float, args, before, result) -> None:
    for value in result.per_action.values():
        tracer.counts["values"] += 1
        tracer.counts[f"values.{value.source}"] += 1


def _len_of_self(args, kwargs) -> int:
    return len(args[0])


# (layer, "module:qualified.name", before-hook, observer). Several targets may
# feed one layer; the layer's calls then count calls to any of them.
TARGETS = (
    ("memory.retrieve", "memsteer.memory:MemoryStore.retrieve", _len_of_self, _observe_retrieve),
    ("memory.add", "memsteer.memory:MemoryStore.add", _len_of_self, _observe_add),
    ("memory.ActionNormalizer", "memsteer.memory:ActionNormalizer.__call__", None, None),
    ("policy.augment_candidates", "memsteer.policy:augment_candidates", None, _observe_augment),
    ("policy.sample", "memsteer.policy:logit_update", None, None),
    ("policy.sample", "memsteer.policy:softmax_sample", None, None),
    ("estimator.estimate", "memsteer.estimator:estimate_candidates", None, _observe_estimate),
    ("estimator.estimate", "memsteer.estimator:advantage_vector", None, None),
    ("envs.abstraction", "memsteer.envs.abstraction:abstract_state", None, None),
    ("returns.evaluate", "memsteer.returns:EnvironmentTruthEvaluator.evaluate", None, None),
    ("returns.evaluate", "memsteer.returns:discounted_returns", None, None),
    ("runner.persistence", "memsteer.memory:append_records", None, None),
    ("runner.persistence", "memsteer.runner:write_outputs", None, None),
    ("oracle.rollout", "memsteer.oracle:rollout", None, None),
    ("oracle.exact_values", "memsteer.oracle:exact_policy_values", None, None),
)


class Tracer:
    """Spans and counters of a run's traced passes, kept in memory."""

    def __init__(self):
        self.layers: dict[str, LayerStats] = defaultdict(LayerStats)
        self.counts: dict[str, int] = defaultdict(int)
        self.retrieve_us: list[float] = []
        self.state_sets: set = set()
        self.history_sets: set = set()
        self.root_s = 0.0
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, layer: str, fn, before=None, observe=None):
        """``fn`` with a span around each call, attributed to ``layer``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pre = before(args, kwargs) if before is not None else None
            frame = [0.0]
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                tracer._stack.pop()
                stats = tracer.layers[layer]
                stats.calls += 1
                stats.self_s += duration - frame[0]
                if tracer._stack:
                    tracer._stack[-1][0] += duration
                else:
                    tracer.root_s += duration
            if observe is not None:
                started = perf_counter()
                observe(tracer, duration, args, pre, result)
                # bookkeeping is not the caller's own work
                if tracer._stack:
                    tracer._stack[-1][0] += perf_counter() - started
            return result

        return traced

    def wrap_method(self, obj, name: str, layer: str) -> None:
        """Trace ``obj.name`` on one instance (no restore needed: the
        instance belongs to a single pass)."""
        try:
            setattr(obj, name, self.wrap(layer, getattr(obj, name)))
        except AttributeError:
            self.missing.append(f"{type(obj).__name__}.{name}")

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        for layer, target, before, observe in TARGETS:
            owner, attr, original = _resolve(target)
            if original is None:
                self.missing.append(target)
                continue
            traced = self.wrap(layer, original, before, observe)
            if isinstance(owner, type):
                self._patch(owner, attr, traced)
                continue
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] != "memsteer" or module is None:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)


def _resolve(target: str):
    """(owner, attribute, current value) of a target, or Nones if it is gone."""
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None, None
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    # look in the class dict so an inherited slot is not mistaken for the target
    if isinstance(owner, type):
        value = owner.__dict__.get(parts[-1])
    else:
        value = getattr(owner, parts[-1], None)
    if not callable(value):
        return None, None, None
    return owner, parts[-1], value
