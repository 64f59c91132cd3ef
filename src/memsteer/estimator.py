"""Retrieval-based value and advantage estimation.

Given a neighborhood of similar past experiences, the state value is the mean
stored return, and a candidate action's value is the mean over the subset
sharing its normalized action. ``estimate_candidates`` is the one entry point:
the caller groups the neighborhood by normalized action once per decision
(``memory.group_by_action``, in neighborhood order) and passes the groups in,
so each candidate reads its subset without a rescan. Actions with no
historical evidence get an optimistic value (state value plus a bonus that
shrinks as the neighborhood grows) with probability ``exploration_rate``, else
a neutral zero. Advantages center the action values on the state value and are
rescaled into [-1, 1] before they touch any logits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from memsteer.memory import ActionGroups, ActionNormalizer, Neighborhood

KNOWN = "known"
EXPLORED = "explored"
NEUTRAL = "neutral"


class EmptyNeighborhoodError(ValueError):
    """No retrieved evidence: there is no estimate, fall back to the base policy."""


@dataclass(frozen=True)
class ActionValue:
    q: float
    count: int
    source: str  # known | explored | neutral


@dataclass
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


def _value(group: tuple[str, list[float]] | None, v: float, neighborhood_size: int,
           exploration_rate: float, exploration_bonus: float,
           rng: np.random.Generator) -> ActionValue:
    if group is not None:
        returns = group[1]
        return ActionValue(q=sum(returns) / len(returns), count=len(returns), source=KNOWN)
    if rng.random() < exploration_rate:
        return ActionValue(q=v + exploration_bonus / neighborhood_size, count=0,
                           source=EXPLORED)
    return ActionValue(q=0.0, count=0, source=NEUTRAL)


def estimate_candidates(neighborhood: Neighborhood, actions: Iterable[str],
                        exploration_rate: float, exploration_bonus: float,
                        rng: np.random.Generator, normalizer: ActionNormalizer,
                        groups: ActionGroups) -> ValueEstimate:
    """Per-candidate action values around the neighborhood's state value.

    ``groups`` is ``group_by_action(neighborhood, normalizer)``. One
    independent exploration draw is taken per unseen action, in candidate
    order, so results are reproducible given the generator state.
    """
    v = state_value(neighborhood)
    if not 0.0 <= exploration_rate <= 1.0:
        raise ValueError("exploration_rate must lie in [0, 1]")
    if exploration_bonus < 0.0:
        raise ValueError("exploration_bonus must be >= 0")
    size = len(neighborhood)
    per_action: dict[str, ActionValue] = {}
    for action in actions:
        if action in per_action:
            continue
        per_action[action] = _value(groups.get(normalizer(action)), v, size,
                                    exploration_rate, exploration_bonus, rng)
    if not per_action:
        raise ValueError("no candidate actions to estimate")
    return ValueEstimate(v=v, per_action=per_action, neighborhood_size=size)


def advantages(estimate: ValueEstimate) -> dict[str, float]:
    """Center each action value against the state baseline."""
    return {action: av.q - estimate.v for action, av in estimate.per_action.items()}


def normalize_advantages(raw: Mapping[str, float], epsilon: float = 1e-8) -> dict[str, float]:
    """Rescale by the largest magnitude (plus epsilon) so values lie in [-1, 1].

    All-zero input stays all zero; the scaling is positive, so argmax order
    is preserved.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be > 0")
    if not raw:
        return {}
    peak = max(abs(value) for value in raw.values())
    denom = peak + epsilon
    return {action: value / denom for action, value in raw.items()}


def advantage_vector(estimate: ValueEstimate, epsilon: float = 1e-8) -> dict[str, float]:
    """The normalized advantage of each candidate, the logits' shift per unit beta."""
    return normalize_advantages(advantages(estimate), epsilon)
