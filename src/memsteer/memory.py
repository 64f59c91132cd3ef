"""Episodic memory: experience triplets, similarity retrieval, persistence.

The store keeps (state, action, return) triplets in insertion order and
retrieves the top-k most similar entries above a similarity threshold.
Similarity is a weighted sum of state-token and history-token Jaccard overlap
(default 0.75 state / 0.25 history). Ties are broken most-recent-first so a
slowly drifting policy is represented by its freshest experience.

Retrieval runs on an exact inverted index. Each distinct state token set and
each distinct history token set is interned once, with its size and a
token -> set-id posting list; each distinct (state set, history set) pair is
interned too, with the position of its newest row, each state set keeps its
pairs and its newest row, and each row links to the previous row of its pair.

A query first bounds its state overlap. A state set that shares i of the
query's nq state tokens has Jaccard at most i / nq, and at most nq / s for a
set of s > nq tokens, and every rounding in the score is monotone; so from
the threshold and the weights follows ``need``, the fewest shared tokens with
which a pair can pass even with a perfect history; it depends on the
weights, the threshold and nq alone, so it is memoised on those four.
When ``need`` is at least 1, any passing set shares one of the query's
``nq - need + 1`` rarest tokens (pigeonhole), so the postings of those tokens
hold every candidate; a token the index has never seen costs nothing. One
Python scorer takes the candidates, each with its pairs: it skips sets whose
rows are all evicted or whose size is out of bounds, scores the rest, a set
intersection per state set and a history Jaccard memoised per history set,
and gates each passing pair on that Jaccard and the task tokens' Jaccard with
its state set, once per set. When ``need`` is 0, a pair could pass on its
history alone, so every distinct set is a candidate and the query scans with
numpy instead (on 20k distinct keys the Python scorer took 30 to 70 times as
long): one ``np.bincount`` over the postings of its tokens per index (one
more for a gate), each set's Jaccard and each pair's weighted sum once, then
the threshold and the gate as vectors over the pairs, and a partition on the
k-th best similarity before the sort when more than k pass. Either way a
query that no pair passes returns at once; otherwise the row chains of the k
best passing pairs are followed in rank order until k rows are read, and the
rows are sorted only when two of those pairs tie. So a query costs about the
candidates that share enough tokens with it, or, when it scans, the number of
distinct sets and pairs; plus at most k row links when no two of its best
pairs tie, and those are the only rows it reads. Both
paths do the arithmetic of :meth:`StateKey.similarity` and
:meth:`TaskFilter.admits`, bit for bit.

A store without a capacity never evicts a row, so a pair that passes a query
once passes it for good, and an agent asks about the same states again and
again. There a probe's result is memoised per (query state set, query history
set, threshold, gate): the number of pairs interned when it was scored, the
number of pairs the probe scored, and every passing (similarity, pair id),
not only the top k, since the ranking of ties follows each pair's newest row,
which moves as rows are added. A repeat query passes only the pairs interned
since to the scorer, grouped by state set, and ranks the pairs by their
newest rows of now; when more pairs were interned since than its probe
scored, it probes afresh, so a hit never costs more than a miss. The memo
holds at most one key per distinct pair and is cleared whole past that. A
scan is not memoised, nor is any query on a capped store: a full FIFO store
evicts on every insert.

FIFO eviction moves the start of a live window; once the evicted prefix
passes half of the rows, the rows and tables are rebuilt from the live
entries.

Concurrency: retrieval returns a pure function of a snapshot of the store,
but on a store without a capacity it writes a private memo. Its entries are
replaced whole, never mutated in place, so many readers may share one store
and never see a half-updated entry; two readers may drop each other's entry,
which costs only a later probe. Writes require exclusive access (the engine
runs episodes sequentially, which provides that discipline).

Persistence is line-delimited JSON, one record per line::

    {"state_text": ..., "history_text": ..., "action": ..., "return": ...,
     "episode": ..., "step": ..., "time": ...}

Time indices strictly increase down a bank, so row position is time order.
A row is written from a template, byte for byte as ``json.dumps(...,
ensure_ascii=False)`` writes its dict. :mod:`memsteer.rundir` says when a run
appends its bank.
"""

from __future__ import annotations

import json
import math
import re
from array import array
from dataclasses import dataclass, field, fields
from functools import lru_cache
from json.encoder import encode_basestring
from typing import Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from memsteer.tokens import jaccard, tokenize

__all__ = [
    "ActionNormalizer",
    "MemoryEntry",
    "MemoryFormatError",
    "MemoryStore",
    "Neighborhood",
    "StateKey",
    "TaskFilter",
    "group_by_action",
]

# each bank record field with the JSON type it must hold; a bool is none of them
_TEXT, _NUMBER, _INTEGER = (str, "a string"), ((int, float), "a number"), (int, "an integer")
RECORD_FIELDS = {"state_text": _TEXT, "history_text": _TEXT, "action": _TEXT, "return": _NUMBER,
                 "episode": _INTEGER, "step": _INTEGER, "time": _INTEGER}


@dataclass(frozen=True)
class StateKey:
    """Abstracted state summary plus recent-action history, as text and tokens."""

    text: str
    history: str = ""
    tokens: frozenset[str] = field(init=False, repr=False, compare=False)
    history_tokens: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "tokens", tokenize(self.text))
        object.__setattr__(self, "history_tokens", tokenize(self.history))

    def similarity(self, other: "StateKey", state_weight: float = 0.75,
                   history_weight: float = 0.25) -> float:
        js = jaccard(self.tokens, other.tokens)
        jh = jaccard(self.history_tokens, other.history_tokens)
        return state_weight * js + history_weight * jh


@dataclass(frozen=True, slots=True, init=False)
class MemoryEntry:
    """One stored triplet with provenance.

    Slotted, so an entry has no ``__dict__``; fields, ``replace``, equality,
    hash, repr and pickling are those of a plain frozen dataclass.

    ``__init__`` is written by hand. The one dataclasses generates for a
    frozen class makes an ``object.__setattr__`` call per field, about half
    the cost of a ``MemoryStore.add``; setting each slot through its member
    descriptor costs about half as much. It takes the fields' names, order
    and defaults (a test holds it to ``dataclasses.fields``), so callers,
    ``decode_record`` and ``dataclasses.replace`` build an entry through it.
    Pickle and copy do not call it: they restore the slots through the
    dataclass's own ``__getstate__``/``__setstate__``. The dataclass still
    freezes the entry and gives it equality, hash and repr.
    """

    state: StateKey
    action: str
    return_value: float
    episode: int = 0
    step: int = 0
    time_index: int = 0

    def __init__(self, state: StateKey, action: str, return_value: float,
                 episode: int = 0, step: int = 0, time_index: int = 0):
        _set_state(self, state)
        _set_action(self, action)
        _set_return_value(self, return_value)
        _set_episode(self, episode)
        _set_step(self, step)
        _set_time_index(self, time_index)

    def validate(self) -> None:
        if not self.action:
            raise ValueError("memory entry action must be non-empty")
        if not math.isfinite(self.return_value):
            raise ValueError(f"memory entry return must be finite, got {self.return_value!r}")


# each slot's member-descriptor setter, which a frozen entry's __setattr__ does not reach
(_set_state, _set_action, _set_return_value, _set_episode, _set_step,
 _set_time_index) = (MemoryEntry.__dict__[f.name].__set__ for f in fields(MemoryEntry))


@dataclass
class Neighborhood:
    """Top-k retrieval result: the retrieved entries paired with their
    similarity scores, most similar first (ties most recent first). Falsy
    when nothing passed the threshold."""

    entries: list[tuple[MemoryEntry, float]]

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def returns(self) -> list[float]:
        return [entry.return_value for entry, _ in self.entries]


_NORMALIZER_MEMO_BOUND = 4096  # forms a normalizer keeps, as tokenize keeps texts


class ActionNormalizer(dict):
    """Rewrite table mapping action text to a canonical comparison form.

    Rules are (regex, replacement) pairs applied in order, followed by
    whitespace collapsing and casefolding. A session's normalizer groups a
    neighborhood by action, matches it to the valid actions and merges it with
    the proposals, so e.g. ``click('1240')`` and ``click('88')`` can be
    configured to match. Proposals match valid actions by case and whitespace.

    A normalizer is its own memo, a dict from action text to normalized form:
    a run meets the same few strings step after step, about twenty times
    a decision, and the rules never change after init. Calling it is a plain
    lookup (``__call__`` is ``dict.__getitem__``, with no Python frame), and a
    miss computes the form in ``__missing__``. The memo is bounded: past 4,096
    forms it is emptied whole, so volatile actions (``click('<id>')`` over
    fresh element ids) cannot grow it without end. It is the only cache of
    normalized forms: each stage of a decision calls it for every action it
    reads and keeps no map of its own. Equality and hash are by identity, as
    for any object, not by what the memo holds.
    """

    __call__ = dict.__getitem__
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def __init__(self, rules: Iterable[tuple[str, str]] = ()):
        super().__init__()
        self.rules = [(re.compile(pat), repl) for pat, repl in rules]

    def __missing__(self, action: str) -> str:
        normalized = action
        for pattern, repl in self.rules:
            normalized = pattern.sub(repl, normalized)
        normalized = " ".join(normalized.split()).casefold()
        if len(self) >= _NORMALIZER_MEMO_BOUND:
            self.clear()
        self[action] = normalized
        return normalized


IDENTITY_NORMALIZER = ActionNormalizer()

# normalized action -> (first raw spelling, returns in neighborhood order)
ActionGroups = dict[str, tuple[str, list[float]]]


def group_by_action(neighborhood: Neighborhood,
                    normalizer: ActionNormalizer = IDENTITY_NORMALIZER) -> ActionGroups:
    """Normalized action -> (its first raw spelling, its returns), one pass
    that normalizes each entry's action by a call to ``normalizer``.

    Groups and their returns keep neighborhood order, so a group's mean is
    the same float sum as over the per-action subset of the neighborhood.
    """
    groups: ActionGroups = {}
    for entry, _ in neighborhood.entries:
        group = groups.get(key := normalizer(entry.action))
        if group is None:
            group = groups[key] = (entry.action, [])
        group[1].append(entry.return_value)
    return groups


@dataclass(frozen=True)
class TaskFilter:
    """Cross-task retrieval gate.

    When a query carries a task description, a stored pair is kept only if
    ``history_weight * J(query history, entry history) + task_weight *
    J(task tokens, entry state tokens) >= threshold``. The bank schema has no
    task field, so an entry's task identity is proxied by its state tokens;
    this composition is an interpretation. Both Jaccards are of token sets the
    index interns, so the store gates each pair that passes the similarity
    threshold once, before the top-k cut, and reads no row for it.
    """

    task_text: str
    threshold: float
    history_weight: float
    task_weight: float
    task_tokens: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "task_tokens", tokenize(self.task_text))

    def admits(self, jh, jt):
        """Gate on a pair's history and task Jaccards; on arrays elementwise, same rounding."""
        return self.history_weight * jh + self.task_weight * jt >= self.threshold


class MemoryFormatError(ValueError):
    """A JSON input could not be read; carries its path and 1-based line (None: whole file)."""

    def __init__(self, path, line_number: int | None, reason: str):
        super().__init__(f"{path}: {reason}" if line_number is None
                         else f"{path}: line {line_number}: {reason}")
        self.path, self.line_number = path, line_number


def _is_count(value) -> bool:
    """An ``int`` of at least 1, never a ``bool`` (``EngineConfig``'s rule)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


@lru_cache(maxsize=4096)
def _need(state_weight: float, history_weight: float, threshold: float, nq: int) -> int:
    """The fewest of a query's ``nq`` state tokens that a passing pair's
    state set must share; memoised, as it depends on these four alone.

    A set of size s sharing i tokens has Jaccard i / (nq + s - i) <= i / nq,
    and every rounding in the score is monotone; so a pair sharing i tokens
    fails when even ``state_weight * (i / nq) + history_weight * 1.0``, its
    score with a perfect history in the scorer's own floats, is below the
    threshold (both weights lie in [0, 1]). 0 when nothing is bounded (an
    empty query, or a threshold the history alone reaches); nq + 1, which
    probes no token, when nothing can pass.
    """
    if nq == 0:
        return 0
    return next((i for i in range(nq + 1)
                 if state_weight * (i / nq) + history_weight * 1.0 >= threshold), nq + 1)


class _TokenSetIndex:
    """Distinct token sets, each interned once, with token -> set-id postings."""

    def __init__(self):
        self._ids: dict[frozenset[str], int] = {}
        self.sets: list[frozenset[str]] = []  # each set by its id
        self.sizes = array("q")
        self.postings: dict[str, array] = {}

    def intern(self, tokens: frozenset[str]) -> int:
        sid = self._ids.get(tokens)
        if sid is None:
            sid = self._ids[tokens] = len(self.sets)
            self.sets.append(tokens)
            self.sizes.append(len(tokens))
            for tok in tokens:
                posting = self.postings.get(tok)
                if posting is None:
                    self.postings[tok] = array("q", (sid,))
                else:
                    posting.append(sid)
        return sid

    def jaccard(self, tokens: frozenset[str]) -> np.ndarray:
        """Jaccard of ``tokens`` with every interned set, indexed by set id.

        The arithmetic of :func:`memsteer.tokens.jaccard`: an exact integer
        intersection count, one double division, 1.0 for two empty sets.
        """
        # a view, released on return: a live export would make the next
        # intern's append raise BufferError
        sizes = np.frombuffer(self.sizes, dtype=np.int64)
        nq = len(tokens)
        if nq == 0:
            return (sizes == 0).astype(np.float64)
        hits = array("q")
        for tok in tokens:
            posting = self.postings.get(tok)
            if posting is not None:
                hits += posting
        inter = np.bincount(np.frombuffer(hits, dtype=np.int64), minlength=len(sizes))
        return inter / (nq + sizes - inter)


class MemoryStore:
    """Append-ordered triplet store with similarity retrieval.

    Unbounded by default; an optional ``capacity`` turns on FIFO eviction.
    ``capacity`` and the weights are read-only, as the memo holds scores of
    them. ``retrieval_count`` / ``insert_count`` exist so tests can assert
    that non-learning modes never touch the store.
    """

    def __init__(self, capacity: int | None = None, state_weight: float = 0.75,
                 history_weight: float = 0.25):
        if capacity is not None and not _is_count(capacity):
            raise ValueError(f"capacity must be None or an integer >= 1, got {capacity!r}")
        for name, weight in (("state_weight", state_weight), ("history_weight", history_weight)):
            if not 0.0 <= weight <= 1.0:  # NaN too; the retrieval bounds need it
                raise ValueError(f"{name} must lie in [0, 1], got {weight}")
        self._capacity = capacity
        self._state_weight = state_weight
        self._history_weight = history_weight
        self._rebuild([])
        self._clock = 0
        self.retrieval_count = 0
        self.insert_count = 0

    capacity = property(lambda self: self._capacity)
    state_weight = property(lambda self: self._state_weight)
    history_weight = property(lambda self: self._history_weight)

    def __len__(self) -> int:
        return len(self._entries) - self._start

    @property
    def entries(self) -> tuple[MemoryEntry, ...]:
        return tuple(self._entries[self._start:])

    def add(self, state: StateKey, action: str, return_value: float,
            episode: int = 0, step: int = 0) -> MemoryEntry:
        """Insert one triplet; the store assigns the time index."""
        # by position: a keyword call costs about half as much again
        entry = MemoryEntry(state, action, float(return_value), episode, step, self._clock)
        entry.validate()  # load's rows were validated by decode_record, rebuilt rows when added
        self._insert(entry)
        self.insert_count += 1
        return entry

    def _insert(self, entry: MemoryEntry) -> None:
        """Append the validated ``entry``, then evict the oldest past capacity."""
        pos = len(self._entries)
        self._entries.append(entry)
        state = entry.state
        key = (state.tokens, state.history_tokens)
        pid = self._pairs.get(key)
        if pid is None:
            pid = self._pairs[key] = len(self._pair_states)
            sid = self._states.intern(state.tokens)
            hid = self._histories.intern(state.history_tokens)
            if sid == len(self._state_pairs):
                self._state_pairs.append([])
                self._state_last.append(pos)
            self._state_pairs[sid].append((hid, pid))
            self._pair_states.append(sid)
            self._pair_histories.append(hid)
            self._pair_last.append(pos)
            self._prev.append(-1)
        else:
            sid = self._pair_states[pid]
            self._prev.append(self._pair_last[pid])
            self._pair_last[pid] = pos
        self._state_last[sid] = pos
        self._clock = entry.time_index + 1
        if self._capacity is not None and len(self._entries) - self._start > self._capacity:
            self._start += 1
            if 2 * self._start > len(self._entries):
                self._rebuild(self._entries[self._start:])

    def _rebuild(self, live: list[MemoryEntry]) -> None:
        """Index ``live`` afresh, so the tables hold only its distinct keys."""
        self._entries: list[MemoryEntry] = []
        self._start = 0
        self._states = _TokenSetIndex()
        self._histories = _TokenSetIndex()
        # each distinct (state set, history set) pair -> its two set ids
        self._pairs: dict[tuple[frozenset[str], frozenset[str]], int] = {}
        self._pair_states = array("q")
        self._pair_histories = array("q")
        self._pair_last = array("q")  # newest row position of each pair
        self._prev = array("q")  # previous row of the same pair, or -1
        # (history set id, pair id) of each state set's pairs
        self._state_pairs: list[list[tuple[int, int]]] = []
        self._state_last = array("q")  # newest row position of each state set
        # (state set, history set, threshold, gate) of a probed query ->
        # (pairs interned when it was scored, pairs its probe scored, its
        # need, every passing (similarity, pair id)); used only without a capacity
        self._memo: dict[tuple, tuple[int, int, int, tuple[tuple[float, int], ...]]] = {}
        for entry in live:  # at most capacity entries, so none is evicted
            self._insert(entry)

    def retrieve(self, query: StateKey, k: int, threshold: float,
                 task_filter: TaskFilter | None = None) -> Neighborhood:
        """Top-k entries with similarity >= threshold, most similar first.

        Ties are broken by time index descending (most recent first). A
        deterministic function of (store contents, query, k, threshold, gate).

        A pair can pass only if its state set shares at least ``need`` of the
        query's nq state tokens (:func:`_need`). When ``need`` is at least
        1, the query reads the postings of its ``nq - need + 1`` rarest state
        tokens, which hold every such set (:meth:`_probe`), and scores those
        candidates in Python (:meth:`_score`); its cost follows the candidates
        that share enough tokens, not the distinct sets. When ``need`` is 0, a
        pair could pass on its history alone, so the query scans every
        distinct set and pair with numpy (:meth:`_scan`). Either way it
        returns at once when no pair passes, and otherwise keeps the k best
        passing pairs by (similarity, newest row): a row of any other pair has
        k pairs ranked above it, each with a newest row that ranks above that
        row. It follows their row chains newest first, in that order, each
        only as far as k minus the rows of the pairs with a higher similarity;
        so it follows at most k row links when no two of those pairs tie, and
        sorts the rows only when some do.

        A store without a capacity never evicts, so a pair that passes once
        passes for good. There every passing pair of a probed query is
        memoised (:meth:`_recall`); asked again with the same threshold and
        gate, the query skips the bound and the probe, scores only the pairs
        interned since, and ranks the passing pairs by their newest rows of
        now. A scan and a capped store keep no memo.
        """
        if not _is_count(k):
            raise ValueError(f"k must be an integer >= 1, got {k!r}")
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        self.retrieval_count += 1
        if len(self) == 0:
            return Neighborhood([])
        memo_key = chosen = None
        if self._capacity is None:
            memo_key = (query.tokens, query.history_tokens, threshold, task_filter)
            chosen = self._recall(memo_key, query)
        if chosen is None:
            need = _need(self._state_weight, self._history_weight, threshold, len(query.tokens))
            if need > 0:
                chosen, scored = self._probe(query, threshold, need, task_filter)
                if memo_key is not None:
                    # at most one key per distinct pair; cleared whole past that
                    n_pairs = len(self._pair_states)
                    if len(self._memo) >= n_pairs:
                        self._memo.clear()
                    self._memo[memo_key] = (n_pairs, scored, need,
                                            tuple((sim, pid) for sim, _, pid in chosen))
            else:
                chosen = self._scan(query, k, threshold, task_filter)
        if not chosen:
            return Neighborhood([])
        # similarity descending, then newest row descending
        chosen.sort(reverse=True)
        del chosen[k:]
        # rows rank by similarity, then position (recency), both descending;
        # above counts the rows of the pairs with a higher similarity
        rows = []
        lo, prev = self._start, self._prev
        above, last, tied = 0, None, False
        for sim, pos, _ in chosen:
            if sim == last:
                tied = True
            else:
                above, last = len(rows), sim
                if above >= k:
                    break
            for _ in range(k - above):
                if pos < lo:  # the rest of the chain is evicted (or -1)
                    break
                rows.append((sim, pos))
                pos = prev[pos]
        if tied:
            rows.sort(reverse=True)
        return Neighborhood([(self._entries[pos], sim) for sim, pos in rows[:k]])

    def _recall(self, memo_key: tuple, query: StateKey) -> list[tuple[float, int, int]] | None:
        """(similarity, newest row, pair id) of every passing pair of a
        memoised query, or None when it must probe.

        Only the pairs interned since the entry was scored go through
        :meth:`_score`, grouped by state set. When they outnumber the pairs
        its probe scored, the query probes afresh instead, so a recall is
        never dearer than a probe. A changed entry is replaced whole, never
        mutated, so a reader sharing the store never sees half of one.
        """
        entry = self._memo.get(memo_key)
        n_pairs = len(self._pair_states)
        if entry is None or n_pairs - entry[0] > entry[1]:
            return None
        interned, cost, need, hits = entry
        if n_pairs > interned:
            groups: dict[int, list[tuple[int, int]]] = {}
            for pid in range(interned, n_pairs):
                groups.setdefault(self._pair_states[pid], []).append(
                    (self._pair_histories[pid], pid))
            _, _, threshold, task_filter = memo_key
            fresh, _ = self._score(query, threshold, need, task_filter, groups, groups)
            hits += tuple((sim, pid) for sim, _, pid in fresh)
            self._memo[memo_key] = (n_pairs, cost, need, hits)
        pair_last = self._pair_last
        return [(sim, pair_last[pid], pid) for sim, pid in hits]

    def _probe(self, query: StateKey, threshold: float, need: int, task_filter: TaskFilter | None
               ) -> tuple[list[tuple[float, int, int]], int]:
        """:meth:`_score` of each state set in the postings of the query's
        ``nq - need + 1`` rarest state tokens, with all of its pairs."""
        qs = query.tokens
        # a token the index has never seen has an empty posting, probed for free
        probe = sorted([self._states.postings.get(tok, ()) for tok in qs], key=len)
        candidates = set().union(*probe[:len(qs) - need + 1])
        return self._score(query, threshold, need, task_filter, candidates, self._state_pairs)

    def _score(self, query: StateKey, threshold: float, need: int,
               task_filter: TaskFilter | None, sids: Iterable[int], pairs_of
               ) -> tuple[list[tuple[float, int, int]], int]:
        """(similarity, newest row, pair id) of every live pair that passes
        the threshold and the gate, and the number of pairs it scored. The
        pairs are ``pairs_of[sid]``, each a (history set id, pair id), for
        each state set id ``sid`` in ``sids``.

        A set that is all evicted, or whose size or state Jaccard fails even
        with a perfect history, is skipped whole. A score is the arithmetic of
        :meth:`StateKey.similarity`, an exact intersection count, one division
        and the weighted sum, so it is bit-identical to it.
        """
        qs, qh = query.tokens, query.history_tokens
        nq = len(qs)
        state_sets, sizes = self._states.sets, self._states.sizes
        history_sets = self._histories.sets
        ws, wh, lo = self._state_weight, self._history_weight, self._start
        perfect_history = wh * 1.0
        state_last, pair_last = self._state_last, self._pair_last
        history_parts: dict[int, float] = {}  # history set id -> weighted Jaccard
        history_jaccards: dict[int, float] = {}  # history set id -> Jaccard, for the gate
        hits = []
        scored = 0
        for sid in sids:
            if state_last[sid] < lo:  # every row of the set is evicted
                continue
            # a set of s tokens shares at most s of the query's and, when
            # s > nq, has Jaccard at most nq / s
            size = sizes[sid]
            if size < need or size > nq and ws * (nq / size) + perfect_history < threshold:
                continue
            inter = len(qs & state_sets[sid])
            state_part = ws * (inter / (nq + size - inter))
            if state_part + perfect_history < threshold:
                continue
            pairs = pairs_of[sid]
            scored += len(pairs)
            jt = None if task_filter is None else jaccard(task_filter.task_tokens, state_sets[sid])
            for hid, pid in pairs:
                history_part = history_parts.get(hid)
                if history_part is None:
                    jh = history_jaccards[hid] = jaccard(qh, history_sets[hid])
                    history_part = history_parts[hid] = wh * jh
                sim = state_part + history_part
                if sim >= threshold:
                    pos = pair_last[pid]
                    if pos >= lo and (task_filter is None or task_filter.admits(
                            history_jaccards[hid], jt)):
                        hits.append((sim, pos, pid))
        return hits, scored

    def _scan(self, query: StateKey, k: int, threshold: float,
              task_filter: TaskFilter | None) -> list[tuple[float, int, int]]:
        """(similarity, newest row, pair id) of the passing pairs, scored over
        every distinct set and pair with numpy; only the k best live ones when
        more than k pass."""
        # weighted once per distinct set and summed once per distinct pair in the
        # operand order of StateKey.similarity, so bit-identical. The buffer views
        # are locals, released on return: a live one would make an append raise BufferError
        pair_states = np.frombuffer(self._pair_states, dtype=np.int64)
        pair_histories = np.frombuffer(self._pair_histories, dtype=np.int64)
        history_jaccard = self._histories.jaccard(query.history_tokens)
        pair_sims = ((self._state_weight * self._states.jaccard(query.tokens))[pair_states]
                     + (self._history_weight * history_jaccard)[pair_histories])
        top = np.flatnonzero(pair_sims >= threshold)
        if task_filter is not None:
            task_jaccard = self._states.jaccard(task_filter.task_tokens)
            top = top[task_filter.admits(history_jaccard[pair_histories[top]],
                                         task_jaccard[pair_states[top]])]
        last = np.frombuffer(self._pair_last, dtype=np.int64)[top]
        sims = pair_sims[top]
        if top.size > k:
            alive = last >= self._start
            top, last, sims = top[alive], last[alive], sims[alive]
            if top.size > k:
                # only pairs at or above the k-th best similarity can rank in
                # the top k; ties with it stay in, so the sort below decides.
                # Selecting the k-th smallest negated value stays fast when
                # most similarities are equal, selecting from the top does not
                kth = -np.partition(-sims, k - 1)[k - 1]
                cut = sims >= kth
                top, last, sims = top[cut], last[cut], sims[cut]
            # similarity descending, then newest row descending
            order = np.lexsort((-last, -sims))[:k]
            top, last, sims = top[order], last[order], sims[order]
        return list(zip(sims.tolist(), last.tolist(), top.tolist()))

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            append_records(fh, self._entries[self._start:])

    @classmethod
    def load(cls, path, capacity: int | None = None, state_weight: float = 0.75,
             history_weight: float = 0.25) -> "MemoryStore":
        """Read a bank through :func:`read_bank`, keeping its time indices;
        ``capacity`` evicts as inserts do."""
        store = cls(capacity=capacity, state_weight=state_weight,
                    history_weight=history_weight)
        for entry in read_bank(path):
            store._insert(entry)
        return store


def read_json(path, decode: Callable, per_line: bool = True) -> Iterator[tuple]:
    """Yield ``(line, decode(value))`` per non-blank JSON line of a file as it is
    reached, or ``(None, decode(value))`` for the whole file: every JSON input is
    read here. Text that is not UTF-8 or not JSON, or decode's ValueError or
    OverflowError, raises MemoryFormatError naming the file."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, text in enumerate(fh, start=1) if per_line else [(None, fh.read())]:
            if per_line and not text.strip():
                continue
            try:
                text.encode("utf-8")  # an undecodable byte reads as a lone surrogate
                value = decode(json.loads(text))
            except UnicodeEncodeError:
                raise MemoryFormatError(path, lineno, "not UTF-8 text") from None
            except json.JSONDecodeError as exc:
                raise MemoryFormatError(path, lineno, f"invalid JSON ({exc.msg})") from None
            except (ValueError, OverflowError) as exc:  # decode's reason, or a huge number
                raise MemoryFormatError(path, lineno, str(exc)) from None
            yield lineno, value


def json_of(kind: type) -> Callable:
    """A :func:`read_json` decode that refuses any value but a ``kind``, dict or list."""
    def decode(value):
        if isinstance(value, kind):
            return value
        raise ValueError(f"not a JSON {'object' if kind is dict else 'array'}")
    return decode


def read_bank(path) -> Iterator[MemoryEntry]:
    """Yield a bank's entries in file order through :func:`read_json`; a time
    index that does not exceed the previous one also raises MemoryFormatError."""
    previous: int | None = None
    for lineno, entry in read_json(path, decode_record):
        if previous is not None and entry.time_index <= previous:
            raise MemoryFormatError(path, lineno, f"time {entry.time_index} does not exceed "
                                                  f"the previous record's time {previous}")
        previous = entry.time_index
        yield entry


# json's text of None, the bools, and float.__repr__'s NaN and infinities
_JSON_CONSTANTS = {None: "null", True: "true", False: "false",
                   "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def json_value(value) -> str:
    """The text json.dumps writes for None, a bool, an int or a float."""
    cls = value.__class__
    if cls is float and value - value == 0.0 or cls is int:  # neither NaN, inf nor a subclass
        return repr(value)
    if value is None or value is True or value is False:
        return _JSON_CONSTANTS[value]
    text = float.__repr__(value) if isinstance(value, float) else int.__repr__(value)
    return _JSON_CONSTANTS.get(text, text)


def encode_record(entry: MemoryEntry) -> str:
    """The entry's bank line, as json.dumps(..., ensure_ascii=False) writes its dict."""
    state = entry.state
    return (f'{{"state_text": {encode_basestring(state.text)}, '
            f'"history_text": {encode_basestring(state.history)}, '
            f'"action": {encode_basestring(entry.action)}, '
            f'"return": {json_value(entry.return_value)}, "episode": {json_value(entry.episode)}, '
            f'"step": {json_value(entry.step)}, "time": {json_value(entry.time_index)}}}')


def decode_record(raw) -> MemoryEntry:
    """The entry of one parsed bank line; a ValueError says what is wrong."""
    if not isinstance(raw, dict):
        raise ValueError("record is not an object")
    missing = [name for name in RECORD_FIELDS if name not in raw]
    if missing:
        raise ValueError(f"missing fields {missing}")
    for name, (allowed, noun) in RECORD_FIELDS.items():
        value = raw[name]
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise ValueError(f"{name} must be {noun}, got {value!r}")
    # by position, as MemoryStore.add builds its entries
    entry = MemoryEntry(StateKey(raw["state_text"], raw["history_text"]), raw["action"],
                        float(raw["return"]), raw["episode"], raw["step"], raw["time"])
    entry.validate()
    return entry


def append_records(bank: TextIO, entries: Sequence[MemoryEntry]) -> None:
    """Append entries to the open bank file ``bank`` in one write, then flush it."""
    bank.write("".join([f"{encode_record(entry)}\n" for entry in entries]))
    bank.flush()
