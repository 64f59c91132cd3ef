"""Observation-to-state abstraction and URL regularization.

Functionally equivalent observations must map to the same state key, so
abstraction is a deterministic stopword filter (no NLP): boilerplate and
flavor vocabulary is dropped, and the remaining tokens (location, salient
nouns, inventory, door states) are sorted into the state text. The history
half of the key is the last few actions taken.

A key is memoised per (observation text, history text, stopwords) with
``tokenize``'s fixed bound of 4,096, so a revisited state builds its key once;
decisions and memory rows may share it, as a ``StateKey`` is frozen.
"""

from __future__ import annotations

import logging
from functools import lru_cache
from typing import Sequence
from urllib.parse import urlsplit, urlunsplit

from memsteer.envs import Observation
from memsteer.memory import StateKey
from memsteer.tokens import tokenize

log = logging.getLogger(__name__)

# Boilerplate emitted by the observation renderer plus the flavor vocabulary
# of the shipped fixtures. Anything here never reaches a state key.
DEFAULT_STOPWORDS = frozenset({
    # rendering boilerplate
    "location", "you", "see", "exits", "the", "to", "is", "a", "an", "and",
    "of", "in", "on", "at", "it", "are", "there", "here",
    # flavor vocabulary
    "rather", "quiet", "faint", "echo", "follows", "your", "steps", "dust",
    "drifts", "pale", "light", "air", "cold", "still", "somewhere", "far",
    "off", "water", "drips",
})


def abstract_state(observation: Observation, history_actions: Sequence[str] = (),
                   history_length: int = 3,
                   stopwords: frozenset[str] = DEFAULT_STOPWORDS) -> StateKey:
    """Token-set state key: kept observation tokens plus recent-action history."""
    history = " ".join(history_actions[-history_length:]) if history_length > 0 else ""
    return _state_key(observation.text, history, frozenset(stopwords))


@lru_cache(maxsize=4096)
def _state_key(text: str, history: str, stopwords: frozenset[str]) -> StateKey:
    return StateKey(text=" ".join(sorted(tokenize(text) - stopwords)), history=history)


def regularize_url(url: str) -> str:
    """Mask volatile URL parts so page *types* compare equal.

    Fully numeric path segments become ``{id}`` and every query value becomes
    ``{v}``; anything else is preserved. Idempotent. URLs that cannot be
    split are returned unchanged with a logged warning.
    """
    try:
        parts = urlsplit(url)
    except ValueError:
        log.warning("unparseable URL left unchanged: %r", url)
        return url
    path = "/".join("{id}" if seg.isdigit() else seg for seg in parts.path.split("/"))
    if parts.query:
        masked = []
        for pair in parts.query.split("&"):
            key, eq, _ = pair.partition("=")
            masked.append(f"{key}={{v}}" if eq else pair)
        query = "&".join(masked)
    else:
        query = parts.query
    return urlunsplit((parts.scheme, parts.netloc, path, query, parts.fragment))
