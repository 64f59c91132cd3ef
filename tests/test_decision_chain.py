"""The decision chain against a reference copy of its plain, rebuild-everything form.

The reference below is the merge (group, valid match, augment) and ``_decide``
chain (estimate, advantages, logit update, draw) written the straightforward
way: every function normalizes what it reads and builds its own dicts and
records. The package's chain must give the same ``Decision`` bit for bit and
leave both generators in the same state, for random neighborhoods (empty
included), proposals with case and whitespace duplicates, action rules, every
mode and exploration rates 0, 0.65 and 1.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from memsteer.config import EngineConfig
from memsteer.estimator import KNOWN, estimate_candidates
from memsteer.memory import (IDENTITY_NORMALIZER, ActionNormalizer, MemoryEntry, MemoryStore,
                             Neighborhood, StateKey, group_by_action)
from memsteer.policy import Candidate, augment_candidates, valid_memory_actions
from memsteer.proposer import ProposerError, ProposerRequest, _ask_for_valid, top_candidates
from memsteer.runner import _decide

# -- reference chain ----------------------------------------------------------------


@dataclass
class RefCandidate:
    action: str
    base_logit: float
    origin: str
    normalized_advantage: float | None = None
    updated_logit: float | None = None


def ref_groups(entries, normalize):
    groups = {}
    for entry, _ in entries:
        key = normalize(entry.action)
        if key not in groups:
            groups[key] = (entry.action, [])
        groups[key][1].append(entry.return_value)
    return groups


def ref_memory_actions(groups, valid, normalize):
    if valid is None:
        return [action for action, _ in groups.values()]
    spelling = {}
    for action in valid:
        spelling.setdefault(normalize(action), action)
    return [spelling[key] for key in groups if key in spelling]


def ref_augment(proposed, memory_actions, normalize):
    out, index = [], {}
    for action, logit in proposed:
        key = normalize(action)
        if key in index:
            out[index[key]].base_logit = max(out[index[key]].base_logit, float(logit))
        else:
            index[key] = len(out)
            out.append(RefCandidate(action, float(logit), "proposer"))
    for action in memory_actions:
        key = normalize(action)
        if key not in index:
            index[key] = len(out)
            out.append(RefCandidate(action, 0.0, "memory_only"))
    return out


def ref_estimate(entries, groups, actions, rate, bonus, rng, normalize):
    returns = [entry.return_value for entry, _ in entries]
    v = sum(returns) / len(returns)
    per_action = {}
    for action in actions:
        if action in per_action:
            continue
        group = groups.get(normalize(action))
        if group is not None:
            per_action[action] = (sum(group[1]) / len(group[1]), len(group[1]), "known")
        elif rng.random() < rate:
            per_action[action] = (v + bonus / len(entries), 0, "explored")
        else:
            per_action[action] = (0.0, 0, "neutral")
    return v, per_action


def ref_shift(v, per_action, epsilon):
    raw = {action: q - v for action, (q, _, _) in per_action.items()}
    denom = max(abs(x) for x in raw.values()) + epsilon
    return {action: x / denom for action, x in raw.items()}


def ref_draw(candidates, rng):
    logits = [float(c.base_logit if c.updated_logit is None else c.updated_logit)
              for c in candidates]
    top = max(logits)
    e = [math.exp(z - top) for z in logits]
    total = 0.0
    for x in e:
        total += x
    probabilities = [x / total for x in e]
    draw = rng.random()
    chosen, running = len(logits) - 1, 0.0
    for i, p in enumerate(probabilities):
        running += p
        if running > draw:
            chosen = i
            break
    return np.array(probabilities), chosen


def ref_decision(entries, proposed, valid, config, streams, mode, normalize):
    """(candidates, distribution, chosen, per-action values or None)."""
    groups = ref_groups(entries, normalize) if entries else None
    memory_actions = ref_memory_actions(groups, valid, normalize) if entries else []
    candidates = ref_augment(proposed, memory_actions, normalize)
    per_action = None
    if entries:
        rate = 0.0 if mode == "greedy-memory" else config.exploration_rate
        v, per_action = ref_estimate(entries, groups, [c.action for c in candidates], rate,
                                     config.exploration_bonus, streams["estimator"], normalize)
    if mode == "greedy-memory" and per_action is not None:
        known = [(i, per_action[c.action]) for i, c in enumerate(candidates)
                 if per_action[c.action][2] == "known"]
        if known:
            chosen = max(known, key=lambda iv: iv[1][0])[0]
            distribution = np.zeros(len(candidates))
            distribution[chosen] = 1.0
            return candidates, distribution, chosen, per_action
    shift = None
    if mode == "memsteer" and per_action is not None:
        shift = ref_shift(v, per_action, config.epsilon)
    for c in candidates:
        c.normalized_advantage = 0.0 if shift is None else shift[c.action]
    if mode == "memsteer":
        for c in candidates:
            c.updated_logit = c.base_logit + config.beta * c.normalized_advantage
    distribution, chosen = ref_draw(candidates, streams["policy"])
    return candidates, distribution, chosen, per_action


def engine_decision(entries, proposed, valid, config, streams, mode, normalizer):
    """The merge and ``_decide`` as ``run_episode`` runs them."""
    neighborhood = None if mode == "static" else Neighborhood(entries=entries)
    groups, memory_actions = None, []
    if neighborhood:
        groups = group_by_action(neighborhood, normalizer)
        memory_actions = valid_memory_actions(groups, valid, normalizer)
    candidates = augment_candidates(proposed, memory_actions, normalizer)
    return _decide(candidates, neighborhood, groups, config, streams, mode, normalizer)


# -- strategies -------------------------------------------------------------------

SPELLINGS = ["go north", "Go  North", "GO NORTH ", "north", "take key", "TAKE key",
             "click 12", "click('7')", "click 99", "look", " look", "open door"]
RULES = [[], [(r"\d+", "{id}")], [(r"^go ", "")],
         [(r"\(\s*'?\d+'?\s*\)", " {id}"), (r"\d+", "{id}")]]
RETURNS = st.one_of(st.sampled_from([0.0, 1.0, -2.5, 7.0]),
                    st.floats(min_value=-1e6, max_value=1e6))


def memory_entries(rows):
    return [(MemoryEntry(StateKey(f"room {i % 3}"), action, value, 0, i, i), sim)
            for i, (action, value, sim) in enumerate(rows)]


def streams_of(seed):
    children = np.random.SeedSequence(seed).spawn(2)
    return {"policy": np.random.default_rng(children[0]),
            "estimator": np.random.default_rng(children[1])}


@seed(20261019)
@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(st.sampled_from(SPELLINGS), RETURNS,
                               st.floats(min_value=0.0, max_value=1.0)), max_size=10),
       proposed=st.lists(st.tuples(st.sampled_from(SPELLINGS + ["jump"]),
                                   st.floats(min_value=-8.0, max_value=8.0)), max_size=6),
       valid=st.one_of(st.none(), st.lists(st.sampled_from(SPELLINGS), min_size=1,
                                           max_size=6)),
       rules=st.sampled_from(RULES),
       mode=st.sampled_from(["memsteer", "greedy-memory", "static"]),
       rate=st.sampled_from([0.0, 0.65, 1.0]),
       beta=st.sampled_from([0.0, 0.5, 2.0, 30.0]),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_decision_matches_the_reference_chain(rows, proposed, valid, rules, mode, rate, beta,
                                              seed):
    entries = memory_entries(rows)
    if not proposed and not (entries and mode != "static"):
        proposed = [("wait", 0.0)]  # a decision needs a candidate
    config = EngineConfig(beta=beta, exploration_rate=rate, action_rules=rules)
    normalizer = ActionNormalizer(rules)
    oracle_normalizer = ActionNormalizer(rules)
    ref_streams, streams = streams_of(seed), streams_of(seed)
    ref_entries = [] if mode == "static" else entries

    ref_candidates, distribution, chosen, _ = ref_decision(
        ref_entries, proposed, valid, config, ref_streams, mode, oracle_normalizer)
    if not ref_candidates:  # nothing proposed and nothing valid remembered
        with pytest.raises(ValueError, match="no candidates"):
            engine_decision(entries, proposed, valid, config, streams, mode, normalizer)
        return
    decision = engine_decision(entries, proposed, valid, config, streams, mode, normalizer)

    assert ([(c.action, c.origin, c.base_logit, c.normalized_advantage, c.updated_logit)
             for c in decision.candidates]
            == [(c.action, c.origin, c.base_logit, c.normalized_advantage, c.updated_logit)
                for c in ref_candidates])
    assert decision.distribution.dtype == distribution.dtype
    assert decision.distribution.tobytes() == distribution.tobytes()
    assert decision.chosen == chosen
    assert decision.action == ref_candidates[chosen].action
    for name in ("policy", "estimator"):
        assert streams[name].bit_generator.state == ref_streams[name].bit_generator.state


def test_hand_built_candidates_are_estimated_by_their_action(monkeypatch):
    store = MemoryStore()
    store.add(StateKey("hall"), "look", 4.0)
    store.add(StateKey("hall"), "go north", 0.0)
    neighborhood = store.retrieve(StateKey("hall"), 5, 0.5)
    normalizer = ActionNormalizer()
    groups = group_by_action(neighborhood, normalizer)
    estimates = []

    def recording(*args, **kwargs):
        estimates.append(estimate_candidates(*args, **kwargs))
        return estimates[-1]

    monkeypatch.setattr("memsteer.runner.estimate_candidates", recording)
    decision = _decide([Candidate("look", 0.0), Candidate("go north", 0.0)], neighborhood,
                       groups, EngineConfig(beta=2.0, exploration_rate=0.0), streams_of(0),
                       "memsteer", normalizer)

    assert estimates[0].per_action == {"look": (4.0, 1, KNOWN), "go north": (0.0, 1, KNOWN)}
    assert [c.normalized_advantage for c in decision.candidates] \
        == [pytest.approx(1.0), pytest.approx(-1.0)]


# -- the proposer's cut and top_candidates ----------------------------------------------


def ref_top_candidates(distribution):
    items = [(a, p) for a, p in distribution.items() if p > 0.0]
    items.sort(key=lambda ap: -ap[1])
    return [(a, math.log(p)) for a, p in items]


def ref_ask_for_valid(options, valid, n):
    first = {}
    for option in options:
        first.setdefault(IDENTITY_NORMALIZER(option[0]), option)
    options = list(first.values())
    if valid is not None:
        spelling = {}
        for action in valid:
            spelling.setdefault(IDENTITY_NORMALIZER(action), action)
        options = [(spelling[IDENTITY_NORMALIZER(o[0])], *o[1:]) for o in options
                   if IDENTITY_NORMALIZER(o[0]) in spelling]
    return options[:n]


@seed(20261019)
@settings(max_examples=200, deadline=None)
@given(distribution=st.dictionaries(st.sampled_from(SPELLINGS + ["jump", "swim"]),
                                    st.sampled_from([0.0, 0.1, 0.25, 0.5, 1e-300]),
                                    max_size=8))
def test_top_candidates_keep_insertion_order_on_ties(distribution):
    assert top_candidates(distribution) == ref_top_candidates(distribution)


def test_top_candidates_tie_order_is_the_mapping_order():
    assert [a for a, _ in top_candidates({"b": 0.25, "a": 0.5, "c": 0.25, "d": 0.0})] \
        == ["a", "b", "c"]


@seed(20261019)
@settings(max_examples=300, deadline=None)
@given(first=st.lists(st.tuples(st.sampled_from(SPELLINGS + ["jump"]),
                                st.integers(min_value=0, max_value=100)), max_size=8),
       second=st.lists(st.tuples(st.sampled_from(SPELLINGS + ["jump"]),
                                 st.integers(min_value=0, max_value=100)), max_size=8),
       valid=st.one_of(st.none(), st.lists(st.sampled_from(SPELLINGS), min_size=1,
                                           max_size=6)),
       n=st.integers(min_value=1, max_value=4))
def test_ask_for_valid_matches_dedupe_filter_then_cut(first, second, valid, n):
    replies = [first, second]
    asked = []

    def ask(request):
        asked.append(request)
        return replies[len(asked) - 1], {"reply": len(asked)}

    request = ProposerRequest(state_text="s", valid_actions=valid, n_candidates=n)
    expected = ref_ask_for_valid(first, valid, n)
    if valid is not None and not expected:
        expected = ref_ask_for_valid(second, valid, n)
    if valid is not None and not expected:
        with pytest.raises(ProposerError, match="no valid action"):
            _ask_for_valid(ask, request)
        assert len(asked) == 2
        return
    kept = _ask_for_valid(ask, request)
    assert kept == expected
    assert len(asked) == (2 if valid is not None and not ref_ask_for_valid(first, valid, n)
                          else 1)
