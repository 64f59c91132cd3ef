"""Per-step rewards and discounted returns for completed trajectories.

A trajectory is the list of its steps, in order; the evaluators and the
scoring request take that list. Two evaluator implementations turn it into
step rewards: one reads the simulator's per-step score deltas directly
(exact, used at desk scale), the other sends the transcript to a
chat-completion endpoint and parses a structured per-step score list
(integers clamped to [-3, 3]). Returns are then the standard discounted tail
sums, computed by backward recursion into a plain tuple, one per step.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

from memsteer.memory import StateKey
from memsteer.proposer import ProposerError, reply_object

log = logging.getLogger(__name__)

SCORE_MIN, SCORE_MAX = -3, 3

STEP_SCORING_INSTRUCTION = (
    "You are scoring each step of a completed agent episode. For every step, "
    "judge whether the action helped or hurt progress toward the task and how "
    "certain you are, then assign an integer score from -3 (clearly harmful, "
    "certain) through 0 (no effect or unclear) to +3 (clearly helpful, certain). "
    'Respond with JSON only: {"steps": [{"step": <index from 0>, '
    '"action": <the action>, "score": <integer>}]} with exactly one item per step.'
)


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


def build_scoring_request(trajectory: list[TrajectoryStep], model: str,
                          temperature: float = 0.0) -> dict:
    """Chat-completion request carrying the transcript and the scoring guide."""
    lines = []
    for i, step in enumerate(trajectory):
        lines.append(f"Step {i}: state: {step.state.text}")
        lines.append(f"Step {i}: action: {step.action}")
        if step.observation:
            lines.append(f"Step {i}: result: {step.observation}")
    transcript = "\n".join(lines)
    return {
        "model": model,
        "temperature": temperature,
        "messages": [
            {"role": "system", "content": STEP_SCORING_INSTRUCTION},
            {"role": "user", "content": f"Episode transcript:\n{transcript}"},
        ],
    }


def parse_step_scores(payload: dict, n_steps: int) -> list[float]:
    """Extract per-step scores from a chat response; clamp into [-3, 3].

    The message content must be JSON of the shape
    ``{"steps": [{"step": i, "action": ..., "score": s}, ...]}`` with exactly
    one item per step.
    """
    items = reply_object(payload, EvaluatorError).get("steps")
    if not isinstance(items, list) or len(items) != n_steps:
        got = len(items) if isinstance(items, list) else type(items).__name__
        raise EvaluatorError(f"expected {n_steps} step scores, got {got}",
                             payload=payload)
    scores = [None] * n_steps
    for item in items:
        try:
            step = item["step"]
            score = item["score"]
        except (KeyError, TypeError) as exc:
            raise EvaluatorError(f"malformed step item {item!r}", payload=payload) from exc
        # int() would also read true, "0" or 0.9 as an index
        if isinstance(step, bool) or not (isinstance(step, int)
                                          or isinstance(step, float) and step.is_integer()):
            raise EvaluatorError(f"step index must be an integer, got {step!r}",
                                 payload=payload)
        idx = int(step)
        if not isinstance(score, (int, float)) or isinstance(score, bool) or not math.isfinite(score):
            raise EvaluatorError(f"non-numeric score in {item!r}", payload=payload)
        if isinstance(score, float) and not score.is_integer():
            raise EvaluatorError(f"score must be an integer, got {score!r}", payload=payload)
        if not 0 <= idx < n_steps or scores[idx] is not None:
            raise EvaluatorError(f"bad or duplicate step index {idx}", payload=payload)
        scores[idx] = float(min(SCORE_MAX, max(SCORE_MIN, score)))
    return scores


class RemoteEvaluator:
    """Scores a transcript over the chat-completion wire protocol.

    The client retries its own transport, so a client failure is final. A
    reply that does not parse is asked for again, up to ``max_retries`` more
    times. Every failure ends in zero rewards flagged as a fallback: a run
    never aborts on evaluator failure.
    """

    def __init__(self, client, model: str, max_retries: int = 2, temperature: float = 0.0):
        self.client = client
        self.model = model
        self.max_retries = max_retries
        self.temperature = temperature

    def evaluate(self, trajectory: list[TrajectoryStep],
                 success: bool = False) -> EvaluationOutcome:
        if not trajectory:
            raise ValueError("cannot evaluate an empty trajectory")
        request = build_scoring_request(trajectory, self.model, self.temperature)
        for attempt in range(1 + self.max_retries):
            try:
                payload = self.client.complete(request)
            except (ProposerError, OSError, ValueError) as exc:
                log.warning("evaluator client failed: %s", exc)
                break
            try:
                return EvaluationOutcome(rewards=parse_step_scores(payload, len(trajectory)))
            except EvaluatorError as exc:
                log.warning("evaluator reply %d/%d did not parse: %s",
                            attempt + 1, 1 + self.max_retries, exc)
        log.warning("evaluator failed; storing zero rewards")
        return EvaluationOutcome(rewards=[0.0] * len(trajectory), used_fallback=True)
