"""Base-policy proposers: scripted tables and remote chat endpoints.

A proposer turns (state, history, valid actions) into candidate actions with
logits. Scripted proposers make experiments exactly reproducible; the two
remote variants cover endpoints that expose token log-probabilities and
endpoints that only verbalize a 0-100 confidence per candidate. All of them
keep the candidates that match a valid action, spelled as that valid action.

Wire protocol (chat completion): requests are JSON objects
``{"model", "messages", "temperature", "logprobs"?, "top_logprobs"?}``;
responses must carry the assistant text at ``choices[0].message.content`` and
— for the token-logit path — per-token alternatives at
``choices[0].logprobs.content[0].top_logprobs`` as ``{"token", "logprob"}``
pairs. Recorded request/response fixtures replay offline via
``FixtureChatClient``; deterministic tests never touch the network.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Callable, Mapping, Protocol, Sequence

from memsteer.memory import IDENTITY_NORMALIZER, json_of, read_json

log = logging.getLogger(__name__)

FLOOR_PROB = 1e-6        # token-logit probability of an index the reply omits
TOP_LOGPROBS = 8         # fewest token alternatives the index request asks for
CONFIDENCE_FLOOR = 1.0   # least verbalized confidence, so every logit is finite


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


# -- chat clients -------------------------------------------------------------


class ChatClient(Protocol):
    def complete(self, payload: dict) -> dict:
        """One chat-completion exchange. Retries its own transport and raises
        :class:`ProposerError` when it gives up."""


class HttpChatClient:
    """Blocking chat-completion client with timeout and bounded retry; the one
    layer of the package that retries a failed transport.

    Transport errors, unreadable replies, 5xx and 429 are sent again, up to
    ``max_attempts`` sends; any other HTTP error raises after one send.
    """

    def __init__(self, url: str, api_key: str | None = None, timeout: float = 30.0,
                 max_attempts: int = 3, retry_delay: float = 0.5):
        self.url = url
        self.api_key = api_key
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.retry_delay = retry_delay

    def complete(self, payload: dict) -> dict:
        import requests  # deferred: only remote endpoints need it, and it is slow to import

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last: Exception | None = None
        for attempt in range(self.max_attempts):
            try:
                response = requests.post(self.url, json=payload, headers=headers,
                                         timeout=self.timeout)
                response.raise_for_status()
                return response.json()
            except (requests.RequestException, ValueError) as exc:
                # a resend cannot fix a client error (4xx) other than 429
                if (isinstance(exc, requests.HTTPError) and exc.response.status_code < 500
                        and exc.response.status_code != 429):
                    raise ProposerError(f"chat endpoint rejected the request: {exc}") from exc
                last = exc
                log.warning("chat request attempt %d/%d failed: %s",
                            attempt + 1, self.max_attempts, exc)
                if attempt + 1 < self.max_attempts:
                    time.sleep(self.retry_delay)
        raise ProposerError(f"chat endpoint failed after {self.max_attempts} attempts: {last}")


class FixtureChatClient:
    """Replays recorded request -> response exchanges, in order.

    Fixture files are JSON lists of ``{"request": {...}, "response": {...}}``.
    When a recorded request carries "model" or "messages" they must match the
    live payload, which catches prompt drift in tests.
    """

    def __init__(self, exchanges: Sequence[dict] | str):
        if isinstance(exchanges, str):
            [(_, exchanges)] = read_json(exchanges, json_of(list), per_line=False)
        self.exchanges = list(exchanges)
        self.cursor = 0

    @property
    def remaining(self) -> int:
        return len(self.exchanges) - self.cursor

    def complete(self, payload: dict) -> dict:
        if self.cursor >= len(self.exchanges):
            raise ProposerError("fixture exhausted: no recorded response left")
        exchange = self.exchanges[self.cursor]
        self.cursor += 1
        recorded = exchange.get("request", {})
        for key in ("model", "messages"):
            if key in recorded and recorded[key] != payload.get(key):
                raise ProposerError(
                    f"fixture request mismatch on {key!r} at exchange {self.cursor - 1}",
                    payload=payload)
        return exchange["response"]


# -- remote proposers ----------------------------------------------------------


def reply_object(payload: dict, error: Callable[..., Exception]) -> dict:
    """The JSON object at ``choices[0].message.content`` of a chat reply; raises
    ``error(message, payload=payload)`` when there is none."""
    try:
        body = json.loads(payload["choices"][0]["message"]["content"])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise error(f"reply has no JSON content: {exc!r}", payload=payload) from exc
    if not isinstance(body, dict):
        raise error("reply content is not a JSON object", payload=payload)
    return body


def _request_lines(request: ProposerRequest) -> list[str]:
    """The state, recent-action and valid-action lines of both proposal prompts."""
    lines = [f"State: {request.state_text}"]
    if request.history_text:
        lines.append(f"Recent actions: {request.history_text}")
    if request.valid_actions is not None:
        lines.append("Valid actions (choose only from these): "
                     + "; ".join(request.valid_actions))
    return lines


def generation_messages(request: ProposerRequest) -> list[dict]:
    lines = _request_lines(request)
    lines.append(f"Propose up to {request.n_candidates} distinct promising actions.")
    return [
        {"role": "system", "content":
            "You control an agent in an interactive environment. Respond with "
            'JSON only: {"options": ["<action>", ...]} listing your candidate '
            "actions, best first."},
        {"role": "user", "content": "\n".join(lines)},
    ]


def index_messages(actions: Sequence[str]) -> list[dict]:
    numbered = "\n".join(f"{i + 1}. {a}" for i, a in enumerate(actions))
    return [
        {"role": "system", "content":
            "Pick the best action. Answer with the index digit only."},
        {"role": "user", "content": f"Candidate actions:\n{numbered}\nBest index:"},
    ]


def verbalized_messages(request: ProposerRequest) -> list[dict]:
    lines = _request_lines(request)
    lines.append(f"Propose up to {request.n_candidates} distinct actions with an "
                 "integer confidence 0-100 each; confidences must sum to 100.")
    return [
        {"role": "system", "content":
            "You control an agent in an interactive environment. Respond with "
            'JSON only: {"options": [{"action": "<action>", "confidence": '
            "<integer 0-100>}, ...]}."},
        {"role": "user", "content": "\n".join(lines)},
    ]


class TokenLogitProposer:
    """Derives logits from the endpoint's token log-probabilities.

    One call generates candidate actions; a second call asks the model to
    answer with the best candidate's index while requesting log-probabilities,
    and the logit of candidate i is the log-probability of the token "i+1" at
    the answer position. Index tokens absent from the returned alternatives
    fall back to ``log(FLOOR_PROB)``.
    """

    def __init__(self, client: ChatClient, model: str, temperature: float = 0.8):
        self.client = client
        self.model = model
        self.temperature = temperature

    def _generate_actions(self, request: ProposerRequest) -> tuple[list[tuple[str]], dict]:
        """Proposed actions as 1-tuples (the option shape of
        :func:`_ask_for_valid`), and the reply payload."""
        payload = self.client.complete({
            "model": self.model,
            "temperature": self.temperature,
            "messages": generation_messages(request),
        })
        options = reply_object(payload, ProposerError).get("options")
        if not isinstance(options, list) or not all(isinstance(o, str) and o for o in options):
            raise ProposerError('expected {"options": [<non-empty action strings>]}',
                                payload=payload)
        return [(a,) for a in options], payload

    def propose(self, request: ProposerRequest) -> ProposerResponse:
        actions = [action for (action,) in _ask_for_valid(self._generate_actions, request)]
        logit_payload = self.client.complete({
            "model": self.model,
            "temperature": 0.0,
            "messages": index_messages(actions),
            "logprobs": True,
            "top_logprobs": max(TOP_LOGPROBS, len(actions)),
        })
        try:
            alternatives = logit_payload["choices"][0]["logprobs"]["content"][0]["top_logprobs"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProposerError(f"response carries no token log-probabilities: {exc!r}",
                                payload=logit_payload) from exc
        by_token = {}
        for alt in alternatives:
            try:
                by_token.setdefault(alt["token"], float(alt["logprob"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise ProposerError(f"malformed logprob entry {alt!r}",
                                    payload=logit_payload) from exc
        floor = math.log(FLOOR_PROB)
        candidates = [(action, by_token.get(str(i + 1), floor))
                      for i, action in enumerate(actions)]
        return ProposerResponse(candidates=candidates)


def confidence_logits(confidences: Sequence[int]) -> list[float]:
    """log of the confidences floored at :data:`CONFIDENCE_FLOOR`, renormalized.

    The minimal map whose softmax recovers the verbalized distribution; the
    floor keeps zero confidences finite.
    """
    floored = [max(float(c), CONFIDENCE_FLOOR) for c in confidences]
    total = sum(floored)
    return [math.log(c / total) for c in floored]


class VerbalizedProposer:
    """Derives logits from verbalized 0-100 confidences (for endpoints
    that hide log-probabilities)."""

    def __init__(self, client: ChatClient, model: str, temperature: float = 0.8):
        self.client = client
        self.model = model
        self.temperature = temperature

    def _ask(self, request: ProposerRequest) -> tuple[list[tuple[str, int]], dict]:
        payload = self.client.complete({
            "model": self.model,
            "temperature": self.temperature,
            "messages": verbalized_messages(request),
        })
        options = reply_object(payload, ProposerError).get("options")
        if not isinstance(options, list) or not options:
            raise ProposerError('expected {"options": [{"action", "confidence"}]}',
                                payload=payload)
        parsed: list[tuple[str, int]] = []
        for item in options:
            try:
                action = item["action"]
                confidence = item["confidence"]
            except (KeyError, TypeError) as exc:
                raise ProposerError(f"malformed option {item!r}", payload=payload) from exc
            if not isinstance(action, str) or not action:
                raise ProposerError(f"action must be a non-empty string, got {action!r}",
                                    payload=payload)
            if isinstance(confidence, bool) or not isinstance(confidence, int):
                raise ProposerError(f"confidence must be an integer, got {confidence!r}",
                                    payload=payload)
            if not 0 <= confidence <= 100:
                raise ProposerError(f"confidence {confidence} outside [0, 100]",
                                    payload=payload)
            parsed.append((action, confidence))
        return parsed, payload

    def propose(self, request: ProposerRequest) -> ProposerResponse:
        parsed = _ask_for_valid(self._ask, request)
        logits = confidence_logits([c for _, c in parsed])
        candidates = [(action, z) for (action, _), z in zip(parsed, logits)]
        return ProposerResponse(candidates=candidates)
