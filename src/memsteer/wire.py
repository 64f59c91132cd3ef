"""The LLM wire path: chat clients, the two remote proposers and the remote
step evaluator.

The proposers cover endpoints that expose token log-probabilities and
endpoints that only verbalize a 0-100 confidence per candidate; like the
scripted proposers of :mod:`memsteer.proposer` they keep the candidates that
match a valid action, spelled as that valid action. The evaluator sends a
completed trajectory's transcript and parses a structured per-step score list
(integers clamped to [-3, 3]). Nothing on the scripted run path imports this
module, so a run that never talks to an endpoint never compiles it.

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
from typing import Callable, Protocol, Sequence

from memsteer.memory import json_of, read_json
from memsteer.proposer import ProposerError, ProposerRequest, ProposerResponse, _ask_for_valid
from memsteer.returns import EvaluationOutcome, EvaluatorError, TrajectoryStep

log = logging.getLogger(__name__)

FLOOR_PROB = 1e-6        # token-logit probability of an index the reply omits
TOP_LOGPROBS = 8         # fewest token alternatives the index request asks for
CONFIDENCE_FLOOR = 1.0   # least verbalized confidence, so every logit is finite


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


# -- remote evaluator ----------------------------------------------------------


SCORE_MIN, SCORE_MAX = -3, 3

STEP_SCORING_INSTRUCTION = (
    "You are scoring each step of a completed agent episode. For every step, "
    "judge whether the action helped or hurt progress toward the task and how "
    "certain you are, then assign an integer score from -3 (clearly harmful, "
    "certain) through 0 (no effect or unclear) to +3 (clearly helpful, certain). "
    'Respond with JSON only: {"steps": [{"step": <index from 0>, '
    '"action": <the action>, "score": <integer>}]} with exactly one item per step.'
)


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
