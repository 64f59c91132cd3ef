"""Per-step rewards and discounted returns for completed trajectories.

A trajectory is the list of its steps, in order; an evaluator takes that list
and turns it into step rewards. :class:`EnvironmentTruthEvaluator` reads the
simulator's per-step score deltas directly (exact, used at desk scale); the
remote evaluator, which sends the transcript to a chat-completion endpoint,
lives in :mod:`memsteer.wire`. Returns are then the standard discounted tail
sums, computed by backward recursion into a plain tuple, one per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from memsteer.memory import StateKey


@dataclass(frozen=True, slots=True)
class TrajectoryStep:
    state: StateKey
    action: str
    observation: str = ""
    score_delta: float | None = None


def discounted_returns(rewards: Sequence[float], gamma: float) -> tuple[float, ...]:
    """Discounted tail sums, one per step: G[t] = r[t] + gamma * G[t+1]."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    if len(rewards) == 0:
        raise ValueError("cannot compute returns of an empty reward list")
    values = [0.0] * len(rewards)
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        r = rewards[t]
        if not math.isfinite(r):
            raise ValueError(f"non-finite reward at step {t}: {r!r}")
        acc = r + gamma * acc
        values[t] = acc
    return tuple(values)


@dataclass
class EvaluationOutcome:
    rewards: list[float]
    used_fallback: bool = False


class EvaluatorError(RuntimeError):
    """Evaluator response missing, malformed, or inconsistent with the episode."""

    def __init__(self, message: str, payload: object = None):
        super().__init__(message)
        self.payload = payload


class EnvironmentTruthEvaluator:
    """Uses the simulator's per-step score deltas as rewards, unclamped.

    An optional terminal bonus is added to the last step's reward when the
    episode ended in success.
    """

    def __init__(self, terminal_bonus: float = 0.0):
        self.terminal_bonus = terminal_bonus

    def evaluate(self, trajectory: list[TrajectoryStep],
                 success: bool = False) -> EvaluationOutcome:
        if not trajectory:
            raise ValueError("cannot evaluate an empty trajectory")
        rewards = []
        for i, step in enumerate(trajectory):
            if step.score_delta is None:
                raise EvaluatorError(f"step {i} has no score delta")
            rewards.append(float(step.score_delta))
        if success and self.terminal_bonus:
            rewards[-1] += self.terminal_bonus
        return EvaluationOutcome(rewards=rewards, used_fallback=False)
