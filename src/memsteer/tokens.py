"""Tokenization and set similarity for state retrieval.

States are compared as sets of lowercase tokens; the similarity metric is
plain Jaccard overlap. Keeping the tokenizer tiny and deterministic is what
makes retrieval results reproducible byte-for-byte across runs.

``tokenize`` is memoised with a fixed bound of 4,096 texts (least recently
used first out), so an agent that revisits a state tokenizes its text once,
and every key built from that text holds the same set object, whose hash is
then computed once. Sharing is safe: a ``frozenset`` cannot be changed, and
no caller depends on the iteration order of a token set.
"""

from __future__ import annotations

import re
from functools import lru_cache

# Runs of word characters, underscores excluded: splits on whitespace and
# punctuation, keeps digits attached to letters ("s3" stays one token).
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


@lru_cache(maxsize=4096)
def tokenize(text: str) -> frozenset[str]:
    """Lowercase, split on whitespace/punctuation, drop empties, dedupe."""
    return frozenset(_TOKEN_RE.findall(text.lower()))


def jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    """|a ∩ b| / |a ∪ b|. Two empty sets count as identical (1.0)."""
    if not a and not b:
        return 1.0
    inter = len(a & b)
    union = len(a) + len(b) - inter
    return inter / union
