"""Retrieval-based value and advantage estimation.

Given a neighborhood of similar past experiences, the state value is the mean
stored return, and a candidate action's value is the mean over the subset
sharing its normalized action. ``estimate_candidates`` is the one entry point:
the caller groups the neighborhood by normalized action once per decision
(``memory.group_by_action``, in neighborhood order) and passes the groups in,
so each candidate reads its subset without a rescan, by the form the
session's normalizer gives its action (the normalizer's memo is the only
cache of those forms). Actions with no historical evidence get an optimistic
value (state value plus a bonus that shrinks as the neighborhood grows) with
probability ``exploration_rate``, else a neutral zero: one draw per unseen
action, in candidate order. Each value is an ``ActionValue`` named tuple
built by position. Advantages center the action values on the state value
and are rescaled into [-1, 1] before they touch any logits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from memsteer.memory import ActionGroups, ActionNormalizer, Neighborhood

KNOWN = "known"
EXPLORED = "explored"
NEUTRAL = "neutral"


class EmptyNeighborhoodError(ValueError):
    """No retrieved evidence: there is no estimate, fall back to the base policy."""


class ActionValue(NamedTuple):
    q: float
    count: int
    source: str  # known | explored | neutral


@dataclass(slots=True)
class ValueEstimate:
    v: float
    per_action: dict[str, ActionValue]
    neighborhood_size: int


def state_value(neighborhood: Neighborhood) -> float:
    """Mean return across the neighborhood."""
    if not neighborhood.entries:
        raise EmptyNeighborhoodError("cannot estimate a state value from an empty neighborhood")
    returns = neighborhood.returns()
    return sum(returns) / len(returns)


def estimate_candidates(neighborhood: Neighborhood, actions: Iterable[str],
                        exploration_rate: float, exploration_bonus: float,
                        rng: np.random.Generator, normalizer: ActionNormalizer,
                        groups: ActionGroups) -> ValueEstimate:
    """Per-candidate action values around the neighborhood's state value.

    ``groups`` is ``group_by_action(neighborhood, normalizer)``, and each
    action reads the group of ``normalizer(action)``. One independent
    exploration draw is taken per unseen action, in candidate order, so
    results are reproducible given the generator state.
    """
    v = state_value(neighborhood)
    if not 0.0 <= exploration_rate <= 1.0:
        raise ValueError("exploration_rate must lie in [0, 1]")
    if exploration_bonus < 0.0:
        raise ValueError("exploration_bonus must be >= 0")
    size = len(neighborhood.entries)
    optimistic = v + exploration_bonus / size
    per_action: dict[str, ActionValue] = {}
    for action in actions:
        if action in per_action:
            continue
        group = groups.get(normalizer(action))
        if group is not None:
            returns = group[1]
            per_action[action] = ActionValue(sum(returns) / len(returns), len(returns), KNOWN)
        elif rng.random() < exploration_rate:
            per_action[action] = ActionValue(optimistic, 0, EXPLORED)
        else:
            per_action[action] = ActionValue(0.0, 0, NEUTRAL)
    if not per_action:
        raise ValueError("no candidate actions to estimate")
    return ValueEstimate(v, per_action, size)


def advantages(estimate: ValueEstimate) -> dict[str, float]:
    """Center each action value against the state baseline."""
    v = estimate.v
    return {action: av.q - v for action, av in estimate.per_action.items()}


def normalize_advantages(raw: Mapping[str, float], epsilon: float = 1e-8) -> dict[str, float]:
    """Rescale by the largest magnitude (plus epsilon) so values lie in [-1, 1].

    All-zero input stays all zero; the scaling is positive, so argmax order
    is preserved.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be > 0")
    if not raw:
        return {}
    denom = max(map(abs, raw.values())) + epsilon
    return {action: value / denom for action, value in raw.items()}


def advantage_vector(estimate: ValueEstimate, epsilon: float = 1e-8) -> dict[str, float]:
    """The normalized advantage of each candidate, the logits' shift per unit beta."""
    return normalize_advantages(advantages(estimate), epsilon)
