"""Base-policy proposers: the request and response types and the scripted
policies.

A proposer turns (state, history, valid actions) into candidate actions with
logits. Scripted proposers make experiments exactly reproducible. Every
proposer keeps the candidates that match a valid action, spelled as that valid
action (:func:`_ask_for_valid`). The remote proposers, which ask a
chat-completion endpoint, live in :mod:`memsteer.wire`, so a scripted run
never compiles the wire path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Callable, Mapping, Protocol, Sequence

from memsteer.memory import IDENTITY_NORMALIZER


@dataclass(frozen=True, slots=True)
class ProposerRequest:
    state_text: str
    history_text: str = ""
    valid_actions: list[str] | None = None
    n_candidates: int = 3

    def __post_init__(self):
        if self.n_candidates < 1:
            raise ValueError("n_candidates must be >= 1")
        if self.valid_actions is not None and not self.valid_actions:
            raise ValueError("valid_actions, when given, must be non-empty")


@dataclass
class ProposerResponse:
    candidates: list[tuple[str, float]]

    def __post_init__(self):
        if not self.candidates:
            raise ProposerError("proposer returned no candidates")
        for action, logit in self.candidates:
            if not math.isfinite(logit):
                raise ProposerError(f"non-finite logit for {action!r}")


class ProposerError(RuntimeError):
    """Proposal failed or violated its contract; carries the raw payload."""

    def __init__(self, message: str, payload: object = None):
        super().__init__(message)
        self.payload = payload


class Proposer(Protocol):
    def propose(self, request: ProposerRequest) -> ProposerResponse: ...


def _first_valid(options: Sequence[tuple], spelling: dict[str, str] | None,
                 n: int) -> list[tuple]:
    """Up to ``n`` options, the first per normalized action, each spelled as
    ``spelling[form]`` and dropped when its form has no spelling (all kept as
    spelled when ``spelling`` is None). Each option is normalized by a call to
    ``IDENTITY_NORMALIZER``, whose memo is the only cache of its forms."""
    kept: list[tuple] = []
    seen: set[str] = set()
    for option in options:
        key = IDENTITY_NORMALIZER(option[0])
        if key in seen:
            continue
        seen.add(key)
        action = option[0] if spelling is None else spelling.get(key)
        if action is None:
            continue
        kept.append(option if action == option[0] else (action, *option[1:]))
        if len(kept) == n:
            break
    return kept


def _ask_for_valid(ask: Callable[[ProposerRequest], tuple[list[tuple], Mapping]],
                   request: ProposerRequest) -> list[tuple]:
    """``ask(request)`` for (action, ...) options, best first, and the reply
    payload; in one pass keep the first option per action up to case and
    whitespace that matches a valid action, spelled as that valid action,
    until ``n_candidates`` are kept, so each valid action takes at most one
    slot. Options match valid actions by case and whitespace only: a
    session's action rules could match ``click('99')`` to ``click('12')``, a
    different element. When none is valid, ask once more, then give up.
    Valid actions and proposals alike are normalized by calls to
    ``IDENTITY_NORMALIZER``, whose memo is the only cache of their forms."""
    spelling: dict[str, str] | None = None  # normalized form -> first valid spelling
    if request.valid_actions is not None:
        spelling = {}
        for action in request.valid_actions:
            spelling.setdefault(IDENTITY_NORMALIZER(action), action)
    options, payload = ask(request)
    kept = _first_valid(options, spelling, request.n_candidates)
    if not kept and spelling is not None:
        options, payload = ask(request)
        kept = _first_valid(options, spelling, request.n_candidates)
        if not kept:
            raise ProposerError("no valid action proposed after retry", payload=payload)
    return kept


def top_candidates(distribution: Mapping[str, float]) -> list[tuple[str, float]]:
    """(action, log prob) pairs, highest probability first.

    Ties keep mapping insertion order (the sort is stable, reversed too);
    zero-probability actions are never proposed (their logit would be -inf).
    """
    items = [(a, p) for a, p in distribution.items() if p > 0.0]
    items.sort(key=itemgetter(1), reverse=True)
    return [(a, math.log(p)) for a, p in items]


class CallablePolicyProposer:
    """Scripted policy: a function mapping the request to an action distribution."""

    def __init__(self, policy_fn: Callable[[ProposerRequest], Mapping[str, float]]):
        self.policy_fn = policy_fn

    def _ask(self, request: ProposerRequest) -> tuple[list[tuple[str, float]], Mapping]:
        distribution = self.policy_fn(request)
        return top_candidates(distribution), distribution

    def propose(self, request: ProposerRequest) -> ProposerResponse:
        return ProposerResponse(candidates=_ask_for_valid(self._ask, request))


class TabularProposer(CallablePolicyProposer):
    """Deterministic stand-in for the frozen policy: a state -> distribution
    table. Its policy function holds the table, not the proposer, so a
    proposer is in no reference cycle and is freed as soon as it is dropped."""

    def __init__(self, table: Mapping[str, Mapping[str, float]]):
        super().__init__(partial(_table_row, table))
        self.table = table


def _table_row(table: Mapping[str, Mapping[str, float]],
               request: ProposerRequest) -> Mapping[str, float]:
    row = table.get(request.state_text)
    if row is None:
        raise ProposerError(f"state {request.state_text!r} not in the policy table")
    return row


def uniform_policy(request: ProposerRequest) -> dict[str, float]:
    """Uniform over the valid actions (cold-start baseline policy)."""
    if not request.valid_actions:
        raise ProposerError("uniform policy needs valid_actions on the request")
    p = 1.0 / len(request.valid_actions)
    return {action: p for action in request.valid_actions}
