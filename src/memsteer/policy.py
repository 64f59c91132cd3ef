"""Candidate construction and the KL-constrained logit update.

The decision distribution is softmax(z + beta * normalized advantage), which
is the exact maximizer of expected advantage minus (1/beta) times the KL
divergence from the base policy — verified numerically against the grid
oracle in memsteer.oracle. Memory can inject actions the proposer missed;
those start from a neutral zero logit.

A decision is one pass over a few candidates: each stage normalizes the
actions it reads by calling the session's normalizer, whose memo is the only
cache of normalized forms; the logit update writes each candidate in place;
the draw takes one uniform from the policy stream. ``Candidate`` and
``Decision`` are slotted records built by position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from memsteer.memory import ActionGroups, ActionNormalizer, IDENTITY_NORMALIZER

PROPOSER = "proposer"
MEMORY_ONLY = "memory_only"


@dataclass(slots=True)
class Candidate:
    """One action offered to the draw; estimation matches it to memory by the
    normalized form of ``action``, so a candidate built by hand is estimated
    as one the merge built."""

    action: str
    base_logit: float
    origin: str = PROPOSER  # proposer | memory_only
    normalized_advantage: float | None = None
    updated_logit: float | None = None


@dataclass(slots=True)
class Decision:
    """Everything needed to replay one sampled choice."""

    candidates: list[Candidate]
    distribution: np.ndarray
    chosen: int

    @property
    def action(self) -> str:
        return self.candidates[self.chosen].action


def valid_memory_actions(groups: ActionGroups, valid_actions: Iterable[str] | None,
                         normalizer: ActionNormalizer = IDENTITY_NORMALIZER) -> list[str]:
    """The groups of a neighborhood that match a valid action by normalized
    form, in neighborhood order, each spelled as the first valid action of its
    form (every group in its remembered spelling when ``valid_actions`` is None)."""
    if valid_actions is None:
        return [action for action, _ in groups.values()]
    spelling: dict[str, str] = {}  # group key -> its first valid spelling
    for action in valid_actions:
        key = normalizer(action)
        if key in groups and key not in spelling:
            spelling[key] = action
            if len(spelling) == len(groups):
                break  # later valid actions can only repeat a form already spelled
    return [spelling[key] for key in groups if key in spelling]


def augment_candidates(proposed: Sequence[tuple[str, float]], memory_actions: Sequence[str],
                       normalizer: ActionNormalizer = IDENTITY_NORMALIZER) -> list[Candidate]:
    """Union of proposer candidates and remembered actions.

    ``memory_actions`` are the raw spellings to offer from memory, such as
    :func:`valid_memory_actions` gives (empty when nothing was retrieved).
    Keyed by normalized action text, each spelling normalized by a call to
    ``normalizer``. Proposer duplicates are merged keeping the maximum base
    logit; actions found only in memory are appended with a neutral zero
    logit and never override a proposer logit.
    """
    if not proposed and not memory_actions:
        raise ValueError("no candidates: proposer and memory are both empty")

    out: list[Candidate] = []
    index: dict[str, Candidate] = {}  # normalized form -> its candidate
    for action, logit in proposed:
        key = normalizer(action)
        cand = index.get(key)
        if cand is None:
            cand = index[key] = Candidate(action, float(logit), PROPOSER)
            out.append(cand)
        else:
            cand.base_logit = max(cand.base_logit, float(logit))
    for action in memory_actions:
        key = normalizer(action)
        if key not in index:
            cand = index[key] = Candidate(action, 0.0, MEMORY_ONLY)
            out.append(cand)
    return out


def logit_update(candidates: Sequence[Candidate], beta: float) -> Sequence[Candidate]:
    """Additive update z' = z + beta * normalized advantage, in place."""
    for cand in candidates:
        if cand.normalized_advantage is None:
            raise ValueError(f"candidate {cand.action!r} has no advantage")
        cand.updated_logit = cand.base_logit + beta * cand.normalized_advantage
    return candidates


def _softmax_floats(logits: list[float]) -> list[float]:
    """Softmax of Python floats: ``math.exp`` of ``z - max``, a sequential sum,
    then a division. ``math.exp`` is the C library's, so the bits do not
    depend on which SIMD kernel numpy dispatches its ``exp`` to on this CPU."""
    top = max(logits)
    e = [math.exp(z - top) for z in logits]
    total = 0.0
    for x in e:
        total += x
    return [x / total for x in e]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax (max subtraction, no clipping) over every
    element, as an array of the input's shape."""
    z = np.asarray(logits, dtype=np.float64)
    return np.array(_softmax_floats(z.ravel().tolist())).reshape(z.shape)


def softmax_sample(candidates: Sequence[Candidate], rng: np.random.Generator) -> Decision:
    """Sample one candidate from the softmax of the updated logits (the base
    logit where no update was made)."""
    if not candidates:
        raise ValueError("cannot sample from an empty candidate list")
    logits = [float(c.base_logit if c.updated_logit is None else c.updated_logit)
              for c in candidates]
    if not all(map(math.isfinite, logits)):
        raise ValueError(f"non-finite logit among {logits}")
    probabilities = _softmax_floats(logits)
    # the first index whose running sum exceeds the draw, clamped to the last:
    # bisect_right on np.cumsum, which also adds in sequence
    draw = rng.random()
    chosen = len(logits) - 1
    total = 0.0
    for i, p in enumerate(probabilities):
        total += p
        if total > draw:
            chosen = i
            break
    return Decision(list(candidates), np.array(probabilities), chosen)


def kl_objective(pi_prime: np.ndarray, pi_theta: np.ndarray,
                 advantages: np.ndarray, beta: float) -> float:
    """Expected advantage under pi_prime minus (1/beta) * KL(pi_prime || pi_theta).

    Terms with pi_prime = 0 contribute nothing (0 * log 0 == 0); a positive
    pi_prime mass where pi_theta is zero makes the divergence undefined and
    raises.
    """
    p = np.asarray(pi_prime, dtype=np.float64)
    q = np.asarray(pi_theta, dtype=np.float64)
    a = np.asarray(advantages, dtype=np.float64)
    if p.shape != q.shape or p.shape != a.shape:
        raise ValueError("distribution/advantage shapes disagree")
    if beta <= 0.0:
        raise ValueError("beta must be > 0")
    if np.any((q == 0.0) & (p > 0.0)):
        raise ValueError("KL divergence undefined: pi_prime puts mass where pi_theta is zero")
    support = p > 0.0
    gain = float(np.dot(p, a))
    kl = float(np.sum(p[support] * np.log(p[support] / q[support])))
    return gain - kl / beta


def base_distribution(candidates: Sequence[Candidate]) -> np.ndarray:
    """Softmax of the base logits (the unmodified proposer policy)."""
    return softmax(np.array([c.base_logit for c in candidates], dtype=np.float64))

