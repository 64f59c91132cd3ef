import copy
import dataclasses
import inspect
import json
import math
import pickle
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memsteer.memory import (IDENTITY_NORMALIZER, ActionNormalizer, MemoryEntry,
                             MemoryFormatError, MemoryStore, StateKey, TaskFilter, _need,
                             append_records, decode_record, encode_record, group_by_action)
from memsteer.proposer import CallablePolicyProposer, ProposerRequest
from memsteer.tokens import jaccard, tokenize

from conftest import populated_store, random_entries

token_sets = st.frozensets(st.sampled_from("abcdefgh"), max_size=6)

# web-like keys, after perfbench's web traffic: one of a few overlapping page
# templates plus 0-3 volatile ids, and a history from a small pool. Queries
# then probe postings that return candidates which fail, and sets that pass
# sharing exactly the fewest query tokens that the bound lets through.
_TEMPLATES = [frozenset("abcde"), frozenset("bcdef"), frozenset("aefgh")]
web_states = st.builds(frozenset.union, st.sampled_from(_TEMPLATES),
                       st.frozensets(st.sampled_from(["v1", "v2", "v3", "v4", "v5"]),
                                     max_size=3))
web_histories = st.sampled_from([frozenset(), frozenset({"go"}), frozenset({"go", "north"}),
                                 frozenset({"click", "x1"})])
web_keys = st.tuples(web_states, web_histories)
any_keys = st.one_of(st.tuples(token_sets, token_sets), web_keys)
# each threshold of the profiles, a float just above one, and values between
THRESHOLDS = [0.0, 0.2, 0.5, 0.8, math.nextafter(0.8, 1.0), 0.95, 1.0]
thresholds = st.sampled_from(THRESHOLDS)
WEIGHTS = [(0.75, 0.25), (1.0, 0.0), (0.5, 0.5), (0.1, 0.7)]


# -- tokenizer and similarity ---------------------------------------------------


def test_tokenize_lowercases_and_splits():
    assert tokenize("Open the DOOR") == {"open", "the", "door"}


def test_tokenize_empty():
    assert tokenize("") == frozenset()


def test_tokenize_punctuation_and_dedup():
    assert tokenize("a,a b") == {"a", "b"}


def test_tokenize_keeps_alphanumerics_together():
    assert tokenize("s3 s12") == {"s3", "s12"}


# letters of several scripts and cases (dotted I, sharp s, Greek sigma, CJK),
# digits of two systems, underscores, punctuation and whitespace
_TEXT_ALPHABET = "aZ09_ -.,:\t\nİßΣσé漢字٣"


@given(st.one_of(st.text(alphabet=_TEXT_ALPHABET, max_size=24), st.text(max_size=24)))
def test_memoised_tokenize_equals_the_reference(text):
    reference = frozenset(re.findall(r"[^\W_]+", text.lower()))
    assert tokenize(text) == reference
    assert tokenize(text) == reference  # the memoised answer too


def test_tokenize_returns_one_shared_set_per_text():
    first = tokenize("Rope, coin and a KEY")
    assert tokenize("Rope, coin and a KEY") is first
    a, b = StateKey("hall key", "go north"), StateKey("hall key", "go north")
    assert a.tokens is b.tokens and a.history_tokens is b.history_tokens


def test_tokenize_memo_stays_within_its_bound():
    bound = tokenize.cache_info().maxsize
    for i in range(bound + 100):
        tokenize(f"distinct text {i}")
    assert tokenize.cache_info().currsize <= bound
    assert tokenize("distinct text 0") == {"distinct", "text", "0"}


def test_jaccard_identical_sets():
    s = frozenset({"a", "b", "c"})
    assert jaccard(s, s) == 1.0


def test_jaccard_disjoint():
    assert jaccard(frozenset("ab"), frozenset("cd")) == 0.0


def test_jaccard_half_overlap():
    assert jaccard(frozenset("abc"), frozenset("bcd")) == 0.5


def test_jaccard_both_empty_is_one():
    assert jaccard(frozenset(), frozenset()) == 1.0


def test_jaccard_one_empty_is_zero():
    assert jaccard(frozenset(), frozenset("ab")) == 0.0


@given(a=token_sets, b=token_sets)
def test_jaccard_symmetric_and_bounded(a, b):
    assert jaccard(a, b) == jaccard(b, a)
    assert 0.0 <= jaccard(a, b) <= 1.0


def test_statekey_derives_tokens():
    key = StateKey(text="Hall, door", history="go north")
    assert key.tokens == {"hall", "door"}
    assert key.history_tokens == {"go", "north"}


# -- insertion ----------------------------------------------------------------


def test_insert_grows_store():
    store = MemoryStore()
    store.add(StateKey("hall"), "look", 1.0)
    assert len(store) == 1


def test_insert_assigns_increasing_time():
    store = MemoryStore()
    first = store.add(StateKey("hall"), "look", 1.0)
    second = store.add(StateKey("hall"), "look", 2.0)
    assert (first.time_index, second.time_index) == (0, 1)


def test_fifo_eviction_drops_oldest():
    store = MemoryStore(capacity=4)
    for i in range(5):
        store.add(StateKey(f"s{i}"), "a", float(i))
    assert len(store) == 4
    assert [e.time_index for e in store.entries] == [1, 2, 3, 4]


def test_insert_rejects_nan_return():
    store = MemoryStore()
    with pytest.raises(ValueError, match="finite"):
        store.add(StateKey("hall"), "look", float("nan"))


def test_insert_rejects_empty_action():
    store = MemoryStore()
    with pytest.raises(ValueError, match="non-empty"):
        store.add(StateKey("hall"), "", 1.0)


# -- the MemoryEntry dataclass contract ---------------------------------------------


def _entry(**changes):
    fields = dict(state=StateKey("hall door", history="go north"), action="take key",
                  return_value=1.5, episode=2, step=3, time_index=4)
    return MemoryEntry(**{**fields, **changes})


def test_memory_entry_is_frozen():
    entry = _entry()
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.action = "look"
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.return_value = 0.0
    assert entry.action == "take key" and entry.return_value == 1.5


def test_memory_entry_keeps_its_field_order_and_replace():
    assert [f.name for f in dataclasses.fields(MemoryEntry)] == \
        ["state", "action", "return_value", "episode", "step", "time_index"]
    entry = _entry()
    moved = dataclasses.replace(entry, action="look", time_index=9)
    assert moved == _entry(action="look", time_index=9)
    assert moved.state is entry.state
    assert entry == _entry()  # the original is untouched


def test_memory_entry_eq_hash_and_repr():
    entry = _entry()
    assert entry == _entry() and hash(entry) == hash(_entry())
    assert entry != _entry(return_value=2.5) and entry != _entry(time_index=5)
    assert len({entry, _entry(), _entry(step=7)}) == 2
    assert repr(entry) == ("MemoryEntry(state=StateKey(text='hall door', history='go north'), "
                           "action='take key', return_value=1.5, episode=2, step=3, "
                           "time_index=4)")


def test_memory_entry_round_trips_through_pickle_and_copy():
    entry = _entry()
    clones = [pickle.loads(pickle.dumps(entry, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    clones += [copy.copy(entry), copy.deepcopy(entry)]
    for clone in clones:
        assert type(clone) is MemoryEntry and clone == entry
        assert clone.state.tokens == entry.state.tokens
        assert clone.state.history_tokens == entry.state.history_tokens


def test_memory_entry_is_slotted():
    # the one visible difference from a plain frozen dataclass
    assert not hasattr(_entry(), "__dict__")


def test_the_hand_written_init_takes_the_fields_in_order_with_their_defaults():
    # a field added to the class without its __init__ parameter fails here
    params = list(inspect.signature(MemoryEntry).parameters.values())
    assert [(p.name, p.default) for p in params] == [
        (f.name, inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default)
        for f in dataclasses.fields(MemoryEntry)]
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)
    state = StateKey("lamp")
    assert MemoryEntry(state, "look", 0.5) == MemoryEntry(state, "look", 0.5, 0, 0, 0)


def test_every_construction_path_builds_the_same_entry(tmp_path):
    entry = _entry()
    built = [MemoryEntry(StateKey("hall door", "go north"), "take key", 1.5, 2, 3, 4),
             dataclasses.replace(MemoryEntry(StateKey("lamp"), "look", 0.0),
                                 state=entry.state, action="take key", return_value=1.5,
                                 episode=2, step=3, time_index=4),
             decode_record(encode_record(entry), 1)]
    with open(tmp_path / "bank.jsonl", "w", encoding="utf-8") as bank:
        append_records(bank, [entry])
    built += MemoryStore.load(tmp_path / "bank.jsonl").entries
    for other in built:
        assert type(other) is MemoryEntry and other == entry and hash(other) == hash(entry)
        assert not hasattr(other, "__dict__")
        for f in dataclasses.fields(MemoryEntry):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(other, f.name, getattr(other, f.name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(other, f.name)


def test_add_returns_the_entry_built_by_keyword():
    store = MemoryStore()
    store.add(StateKey("lamp"), "look", 0.0)
    entry = store.add(StateKey("hall door", history="go north"), "take key", 3,
                      episode=2, step=3)
    assert entry == _entry(return_value=3.0, time_index=1)
    assert type(entry.return_value) is float
    assert store.entries[-1] is entry


# -- retrieval ------------------------------------------------------------------


def test_retrieve_from_empty_store():
    store = MemoryStore()
    neighborhood = store.retrieve(StateKey("hall"), k=3, threshold=0.5)
    assert len(neighborhood) == 0 and not neighborhood


def test_retrieve_recency_tiebreak():
    store = MemoryStore()
    for i in range(3):
        store.add(StateKey("hall door"), f"act{i}", float(i))
    neighborhood = store.retrieve(StateKey("hall door"), k=2, threshold=0.0)
    assert [sim for _, sim in neighborhood.entries] == [1.0, 1.0]
    assert [e.action for e, _ in neighborhood.entries] == ["act2", "act1"]


def test_retrieve_threshold_filter():
    store = MemoryStore(state_weight=1.0, history_weight=0.0)
    store.add(StateKey("a b"), "hit", 1.0)        # similarity 1.0
    store.add(StateKey("a b c d"), "mid", 1.0)    # similarity 0.5
    store.add(StateKey("a c d e"), "low", 1.0)    # similarity 0.2
    neighborhood = store.retrieve(StateKey("a b"), k=10, threshold=0.8)
    assert [e.action for e, _ in neighborhood.entries] == ["hit"]


@pytest.mark.parametrize("name", ["state_weight", "history_weight"])
@pytest.mark.parametrize("weight", [-0.1, math.nan, 1.5])
def test_store_rejects_a_weight_outside_the_unit_interval(tmp_path, name, weight):
    # the retrieval bounds assume non-negative weights; NaN fails every comparison
    path = tmp_path / "bank.jsonl"
    MemoryStore().save(path)
    with pytest.raises(ValueError, match=f"{name} must lie in \\[0, 1\\]"):
        MemoryStore(**{name: weight})
    with pytest.raises(ValueError, match=f"{name} must lie in \\[0, 1\\]"):
        MemoryStore.load(path, **{name: weight})


@pytest.mark.parametrize("weights", [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0)])
def test_store_accepts_the_ends_of_the_unit_interval(weights):
    store = MemoryStore(state_weight=weights[0], history_weight=weights[1])
    assert (store.state_weight, store.history_weight) == weights


def test_retrieve_caps_at_k_and_respects_threshold(rng):
    store = populated_store(rng, 300)
    query = StateKey("door key hall", "go north")
    for k, threshold in [(1, 0.0), (7, 0.3), (50, 0.6)]:
        neighborhood = store.retrieve(query, k=k, threshold=threshold)
        assert len(neighborhood) <= k
        assert all(sim >= threshold for _, sim in neighborhood.entries)
        sims = [sim for _, sim in neighborhood.entries]
        assert sims == sorted(sims, reverse=True)


def test_retrieve_is_deterministic_and_pure(rng):
    store = populated_store(rng, 120)
    query = StateKey("door key", "look")
    first = store.retrieve(query, k=9, threshold=0.1)
    second = store.retrieve(query, k=9, threshold=0.1)
    assert [(e.time_index, sim) for e, sim in first.entries] == \
           [(e.time_index, sim) for e, sim in second.entries]
    assert len(store) == 120


def test_retrieve_validates_arguments():
    store = MemoryStore()
    with pytest.raises(ValueError):
        store.retrieve(StateKey("x"), k=0, threshold=0.5)
    with pytest.raises(ValueError):
        store.retrieve(StateKey("x"), k=1, threshold=1.5)


@pytest.mark.parametrize("k", [2.5, True, 2.0, "2", None])
def test_retrieve_rejects_a_k_that_is_not_an_integer_before_any_work(k):
    store = MemoryStore()
    store.add(StateKey("a b c d"), "act", 0.0)
    with pytest.raises(ValueError, match="k must be an integer >= 1"):
        store.retrieve(StateKey("a b c d"), k, 0.5)
    assert store.retrieval_count == 0 and not store._memo


@pytest.mark.parametrize("capacity", [2.5, True, 2.0, "2", 0, -1])
def test_store_rejects_a_capacity_that_is_not_a_positive_integer(tmp_path, capacity):
    path = tmp_path / "bank.jsonl"
    MemoryStore().save(path)
    with pytest.raises(ValueError, match="capacity must be None or an integer >= 1"):
        MemoryStore(capacity=capacity)
    with pytest.raises(ValueError, match="capacity must be None or an integer >= 1"):
        MemoryStore.load(path, capacity=capacity)


@pytest.mark.parametrize("name,value", [("capacity", 1), ("capacity", None),
                                        ("state_weight", 0.5), ("history_weight", 0.5)])
def test_store_parameters_are_fixed_at_construction(name, value):
    # the memo and the overlap bound were computed with the weights of
    # construction; a changed weight would answer from them with stale scores
    store = MemoryStore(capacity=None if name != "capacity" else 5)
    x = store.add(StateKey("a b c d", history="p q r"), "x", 0.0)
    y = store.add(StateKey("a b c e", history="g h"), "y", 1.0)
    query = StateKey("a b c d", history="g h")
    want = [(x, 0.75 + 0.0), (y, 0.75 * (3 / 5) + 0.25)]
    assert store.retrieve(query, 5, 0.5).entries == want
    with pytest.raises(AttributeError):
        setattr(store, name, value)
    assert store.retrieve(query, 5, 0.5).entries == want


def test_weighted_state_history_similarity():
    store = MemoryStore()  # default 0.75 state / 0.25 history
    store.add(StateKey("hall door", history="go north"), "a", 1.0)
    neighborhood = store.retrieve(StateKey("hall door", history="go south"),
                                  k=1, threshold=0.0)
    (_, sim), = neighborhood.entries
    # state jaccard 1.0, history jaccard 1/3
    assert sim == pytest.approx(0.75 + 0.25 / 3, abs=1e-12)


def test_statekey_similarity_helper_matches_retrieval():
    a = StateKey("hall door", history="go north")
    b = StateKey("hall door", history="go south")
    store = MemoryStore()
    store.add(b, "x", 0.0)
    (_, sim), = store.retrieve(a, k=1, threshold=0.0).entries
    assert a.similarity(b) == sim


# -- action grouping --------------------------------------------------------------


def _neighborhood_of(actions):
    store = MemoryStore()
    for i, action in enumerate(actions):
        store.add(StateKey("same state"), action, float(i))
    return store.retrieve(StateKey("same state"), k=len(actions), threshold=0.0)


def test_filter_by_action_definitional():
    neighborhood = _neighborhood_of(["x", "y", "x"])
    assert len(group_by_action(neighborhood)["x"][1]) == 2


def test_filter_by_action_absent():
    neighborhood = _neighborhood_of(["x", "y"])
    assert "z" not in group_by_action(neighborhood)


def test_filter_by_action_with_normalization():
    normalizer = ActionNormalizer([(r"\(\s*'?\d+'?\s*\)", "({id})")])
    neighborhood = _neighborhood_of(["click('1240')", "click('88')", "hover('3')"])
    groups = group_by_action(neighborhood, normalizer)
    raw, returns = groups[normalizer("click('7')")]
    assert sorted(returns) == [0.0, 1.0]
    assert raw in ("click('1240')", "click('88')")
    assert sum(len(r) for _, r in groups.values()) == 3


def test_action_partition_sums_to_neighborhood(rng):
    store = populated_store(rng, 200)
    neighborhood = store.retrieve(StateKey("door hall key"), k=40, threshold=0.0)
    groups = group_by_action(neighborhood)
    assert sorted(groups) == sorted({entry.action for entry, _ in neighborhood.entries})
    assert sum(len(returns) for _, returns in groups.values()) == len(neighborhood)


def test_normalizer_collapses_whitespace_and_case():
    normalizer = ActionNormalizer()
    assert normalizer("  Take   KEY ") == "take key"


def unmemoised_normalization(action, rules):
    for pattern, repl in rules:
        action = re.sub(pattern, repl, action)
    return " ".join(action.split()).casefold()


def test_normalizer_memo_stays_within_its_bound():
    rules = [(r"\(\s*'?\d+'?\s*\)", "({id})")]
    normalizer = ActionNormalizer(rules)
    for i in range(3 * 4096):
        action = f"Click('{i}')  " if i % 2 else f"type {i}"
        assert normalizer(action) == unmemoised_normalization(action, rules)
        assert len(normalizer) <= 4096
    assert normalizer("Click('0')") == "click({id})"


def test_identity_normalizer_memo_stays_bounded_under_volatile_proposals():
    # web-style element ids make every proposal a new string
    for i in range(20_000):
        action = f"click('{i}')"
        proposer = CallablePolicyProposer(lambda request, a=action: {a: 1.0})
        proposer.propose(ProposerRequest(state_text="page", valid_actions=[action]))
    assert len(IDENTITY_NORMALIZER) <= 4096
    assert IDENTITY_NORMALIZER(" CLICK('7') ") == "click('7')"


# -- persistence ------------------------------------------------------------------


def test_roundtrip_empty_store(tmp_path):
    store = MemoryStore()
    path = tmp_path / "bank.jsonl"
    store.save(path)
    assert MemoryStore.load(path).entries == ()


def test_roundtrip_is_field_exact(tmp_path, rng):
    store = populated_store(rng, 1000)
    path = tmp_path / "bank.jsonl"
    store.save(path)
    loaded = MemoryStore.load(path)
    assert loaded.entries == store.entries


@settings(max_examples=20, deadline=None)
@given(returns=st.lists(st.floats(allow_nan=False, allow_infinity=False,
                                  width=64), min_size=1, max_size=20))
def test_roundtrip_preserves_floats_bit_exact(returns):
    store = MemoryStore()
    for i, value in enumerate(returns):
        store.add(StateKey(f"s{i}"), "act", value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bank.jsonl"
        store.save(path)
        loaded = MemoryStore.load(path)
    for original, read in zip(store.entries, loaded.entries):
        assert math.copysign(1.0, original.return_value) == \
               math.copysign(1.0, read.return_value)
        assert original.return_value == read.return_value


def test_truncated_final_line_names_line(tmp_path, rng):
    store = populated_store(rng, 5)
    path = tmp_path / "bank.jsonl"
    store.save(path)
    text = path.read_text(encoding="utf-8")
    path.write_text(text[:-20], encoding="utf-8")  # corrupt the last record
    with pytest.raises(MemoryFormatError) as err:
        MemoryStore.load(path)
    assert err.value.line_number == 5
    assert "line 5" in str(err.value)


def test_missing_field_raises_with_line(tmp_path):
    path = tmp_path / "bank.jsonl"
    path.write_text('{"state_text": "x", "action": "a"}\n', encoding="utf-8")
    with pytest.raises(MemoryFormatError, match="line 1"):
        MemoryStore.load(path)


def test_append_records_matches_save(tmp_path, rng):
    entries = random_entries(rng, 40)
    store = MemoryStore()
    for entry in entries:
        store.add(entry.state, entry.action, entry.return_value,
                  episode=entry.episode, step=entry.step)
    saved = tmp_path / "saved.jsonl"
    appended = tmp_path / "appended.jsonl"
    store.save(saved)
    with open(appended, "w", encoding="utf-8") as bank:
        append_records(bank, store.entries[:17])
        append_records(bank, store.entries[17:])
    assert appended.read_bytes() == saved.read_bytes()


@settings(max_examples=200)
@given(text=st.text(), history=st.text(), action=st.text(),
       value=st.floats(allow_nan=True, allow_infinity=True),
       episode=st.integers(0, 2**40), step=st.integers(0, 10**6),
       time=st.integers(0, 2**40))
def test_encode_record_writes_what_json_dumps_writes(text, history, action, value, episode,
                                                     step, time):
    # the shared encoder against a fresh json.dumps: non-ASCII text, escapes,
    # surrogates and non-finite returns included
    entry = MemoryEntry(state=StateKey(text=text, history=history), action=action,
                        return_value=value, episode=episode, step=step, time_index=time)
    assert encode_record(entry) == json.dumps(
        {"state_text": text, "history_text": history, "action": action, "return": value,
         "episode": episode, "step": step, "time": time}, ensure_ascii=False)


def test_load_preserves_clock(tmp_path, rng):
    store = populated_store(rng, 10)
    path = tmp_path / "bank.jsonl"
    store.save(path)
    loaded = MemoryStore.load(path)
    entry = loaded.add(StateKey("new"), "act", 0.0)
    assert entry.time_index == 10


def test_load_applies_capacity_and_keeps_time(tmp_path, rng):
    store = populated_store(rng, 10)
    path = tmp_path / "bank.jsonl"
    store.save(path)
    loaded = MemoryStore.load(path, capacity=3)
    assert loaded.entries == store.entries[-3:]
    assert loaded.add(StateKey("new"), "act", 0.0).time_index == 10
    assert [e.time_index for e in loaded.entries] == [8, 9, 10]


capacities = st.one_of(st.none(), st.integers(min_value=1, max_value=10))


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(st.sampled_from(["hall", "hall door", "cellar"]),
                               st.sampled_from(["", "go north"]),
                               st.sampled_from(["look", "take key"]),
                               st.floats(min_value=-5, max_value=5)),
                     max_size=25),
       capacity=capacities, load_capacity=capacities)
def test_save_then_load_under_capacity_keeps_the_newest_rows(rows, capacity, load_capacity):
    store = MemoryStore(capacity=capacity)
    for episode, (state, history, action, value) in enumerate(rows):
        store.add(StateKey(state, history=history), action, value, episode=episode)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bank.jsonl"
        store.save(path)
        loaded = MemoryStore.load(path, capacity=load_capacity)
    kept = len(store) if load_capacity is None else min(len(store), load_capacity)
    assert len(loaded) == kept
    assert loaded.entries == store.entries[len(store) - kept:]  # time indices included
    assert loaded.add(StateKey("new"), "look", 0.0).time_index == len(rows)


@pytest.mark.parametrize("swap", [True, False])
def test_load_rejects_time_that_does_not_increase(tmp_path, rng, swap):
    store = populated_store(rng, 4)
    path = tmp_path / "bank.jsonl"
    store.save(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if swap:
        lines[1], lines[2] = lines[2], lines[1]
    else:
        lines[2] = lines[1]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(MemoryFormatError, match="line 3: time"):
        MemoryStore.load(path)


# -- task filtering ---------------------------------------------------------------


def test_task_filter_gates_retrieval():
    store = MemoryStore()
    store.add(StateKey("orders page", history="open orders"), "click orders", 1.0)
    store.add(StateKey("reviews page", history="open reviews"), "click reviews", 2.0)
    query = StateKey("orders page", history="open orders")
    gate = TaskFilter(task_text="orders page", threshold=0.5,
                      history_weight=0.7, task_weight=0.3)
    kept = store.retrieve(query, k=10, threshold=0.0, task_filter=gate)
    assert [e.action for e, _ in kept.entries] == ["click orders"]


def test_task_filter_admits_arithmetic():
    gate = TaskFilter(task_text="a b", threshold=0.5,
                      history_weight=0.7, task_weight=0.3)
    entry = StateKey("a b", history="h1 h2")
    jt = jaccard(gate.task_tokens, entry.tokens)
    # history jaccard 1/3, task jaccard 1.0 -> 0.7/3 + 0.3 = 0.5333
    assert gate.admits(jaccard(frozenset({"h1", "zz"}), entry.history_tokens), jt)
    # history jaccard 0 -> 0.3 < 0.5
    assert not gate.admits(jaccard(frozenset({"qq", "zz"}), entry.history_tokens), jt)


@given(pairs=st.lists(st.tuples(token_sets, token_sets), min_size=1, max_size=30),
       task=token_sets, threshold=st.sampled_from([0.0, 0.27, 0.3, 0.5, 0.7, 1.0]),
       weights=st.sampled_from([(0.7, 0.3), (0.5, 0.5), (0.0, 1.0), (1.0, 0.0), (0.3, 0.1)]))
def test_task_filter_admits_arrays_as_it_admits_floats(pairs, task, threshold, weights):
    gate = TaskFilter(" ".join(sorted(task)), threshold, *weights)
    jh = [jaccard(a, frozenset("abc")) for a, _ in pairs]
    jt = [jaccard(gate.task_tokens, b) for _, b in pairs]
    assert gate.admits(np.array(jh), np.array(jt)).tolist() == \
        [gate.admits(h, t) for h, t in zip(jh, jt)]


class _CountingRows(list):
    """A list that counts the items read from it by index: rows, or row links."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


@pytest.mark.parametrize("threshold", [0.8, 0.0])  # need 2 (a probe), need 0 (a scan)
def test_gated_query_reads_only_the_rows_it_returns(threshold):
    store = MemoryStore()
    for i in range(40):  # four pairs, ten rows each
        store.add(StateKey("orders page" if i % 2 else "reviews page",
                           history="open orders" if i % 4 < 2 else "open reviews"),
                  f"act{i}", float(i))
    store._entries = _CountingRows(store._entries)
    gate = TaskFilter(task_text="orders", threshold=0.8, history_weight=0.7, task_weight=0.3)
    kept = store.retrieve(StateKey("orders page", history="open orders"), k=5,
                          threshold=threshold, task_filter=gate)
    assert {e.state for e, _ in kept.entries} == {StateKey("orders page", "open orders")}
    assert store._entries.reads == len(kept) == 5


# -- index against the brute-force oracle -------------------------------------------


def _key(state: frozenset[str], history: frozenset[str]) -> StateKey:
    return StateKey(" ".join(sorted(state)), history=" ".join(sorted(history)))


def _brute_force(live, q, k, threshold, ws, wh, gate=None):
    """The top-k ranking by definition: score every live row, keep those at
    or above the threshold (and admitted by ``gate``), order by similarity
    descending then row position descending."""
    ranked = sorted(((entry, q.similarity(entry.state, ws, wh), pos)
                     for pos, entry in enumerate(live)),
                    key=lambda item: (-item[1], -item[2]))
    return [(entry, sim) for entry, sim, _ in ranked
            if sim >= threshold and (gate is None or gate.admits(
                jaccard(q.history_tokens, entry.state.history_tokens),
                jaccard(gate.task_tokens, entry.state.tokens)))][:k]


@settings(max_examples=60, deadline=None)
@given(keys=st.one_of(st.lists(st.tuples(token_sets, token_sets), min_size=25, max_size=60),
                      st.lists(web_keys, min_size=25, max_size=60)),
       capacity=st.one_of(st.none(), st.integers(1, 10)),
       query=any_keys,
       k=st.integers(1, 12),
       threshold=thresholds,
       weights=st.sampled_from(WEIGHTS))
def test_retrieve_matches_brute_force_ranking(keys, capacity, query, k, threshold, weights):
    # at least 25 inserts into at most 10 rows evicts past the point where
    # the store compacts and rebuilds its set tables
    ws, wh = weights
    store = MemoryStore(capacity=capacity, state_weight=ws, history_weight=wh)
    q = _key(*query)
    for i, (state, history) in enumerate(keys):
        store.add(_key(state, history), f"act{i % 3}", float(i))
        want = _brute_force(store.entries, q, k, threshold, ws, wh)
        assert store.retrieve(q, k=k, threshold=threshold).entries == want
    assert len(store) == min(len(keys), capacity or len(keys))


# a small pool of keys makes pairs repeat: a pair often holds more rows than
# k, more than k pairs pass, pairs tie on similarity, and under a capacity
# whole pairs die
pooled_keys = st.one_of(st.lists(st.tuples(token_sets, token_sets), min_size=1, max_size=15),
                        st.lists(web_keys, min_size=1, max_size=15))
pooled_inserts = st.lists(st.integers(0, 14), min_size=20, max_size=120)
pooled_thresholds = st.sampled_from([0.0, 0.0, 0.25, 0.5, 0.75, 0.8, math.nextafter(0.8, 1.0),
                                     0.9, 0.95, 1.0])
pooled_weights = st.sampled_from(WEIGHTS)


@settings(max_examples=60, deadline=None)
@given(pool=pooled_keys, picks=pooled_inserts, capacity=capacities,
       query=st.one_of(st.integers(0, 14), any_keys),
       k=st.integers(1, 12), threshold=pooled_thresholds, weights=pooled_weights)
def test_retrieve_matches_brute_force_on_repeated_keys(pool, picks, capacity, query, k,
                                                      threshold, weights):
    ws, wh = weights
    store = MemoryStore(capacity=capacity, state_weight=ws, history_weight=wh)
    q = _key(*(pool[query % len(pool)] if isinstance(query, int) else query))
    for i, pick in enumerate(picks):
        want = _brute_force(store.entries, q, k, threshold, ws, wh)
        assert store.retrieve(q, k=k, threshold=threshold).entries == want
        # an add after every retrieve: a buffer view left alive by the
        # query would make this append raise BufferError
        store.add(_key(*pool[pick % len(pool)]), f"act{i % 4}", float(i))
    assert store.retrieve(q, k=k, threshold=threshold).entries == \
        _brute_force(store.entries, q, k, threshold, ws, wh)


@settings(max_examples=60, deadline=None)
@given(pool=pooled_keys, picks=pooled_inserts, capacity=capacities,
       query=st.one_of(st.integers(0, 14), any_keys),
       task=token_sets, k=st.integers(1, 12), threshold=pooled_thresholds,
       gate_threshold=st.sampled_from([0.0, 0.2, 0.3, 0.5, 0.7, 1.0]),
       gate_weights=st.sampled_from([(0.7, 0.3), (0.5, 0.5), (0.0, 1.0), (1.0, 0.0)]))
def test_retrieve_with_task_filter_matches_brute_force(pool, picks, capacity, query, task, k,
                                                       threshold, gate_threshold,
                                                       gate_weights):
    gate = TaskFilter(task_text=" ".join(sorted(task)), threshold=gate_threshold,
                      history_weight=gate_weights[0], task_weight=gate_weights[1])
    store = MemoryStore(capacity=capacity)
    q = _key(*(pool[query % len(pool)] if isinstance(query, int) else query))
    for i, pick in enumerate(picks):
        want = _brute_force(store.entries, q, k, threshold, 0.75, 0.25, gate)
        assert store.retrieve(q, k=k, threshold=threshold, task_filter=gate).entries == want
        store.add(_key(*pool[pick % len(pool)]), f"act{i % 4}", float(i))


def test_retrieve_skips_pairs_whose_rows_are_all_evicted():
    store = MemoryStore(capacity=2, state_weight=1.0, history_weight=0.0)
    query = StateKey("a b c d")
    store.add(query, "gone", 0.0)                  # similarity 1.0, evicted below
    store.add(StateKey("a b"), "half", 1.0)        # similarity 0.5
    store.add(StateKey("a"), "quarter", 2.0)       # similarity 0.25
    assert [e.action for e in store.entries] == ["half", "quarter"]
    # three pairs pass and the best of them is dead: k=1 must still find a row
    (entry, sim), = store.retrieve(query, k=1, threshold=0.0).entries
    assert (entry.action, sim) == ("half", 0.5)

def test_retrieve_at_the_bound_needs_a_perfect_history():
    # at this threshold a pair must share 4 of the query's 5 state tokens, and
    # with only 4 it passes on an identical history alone
    threshold = 0.75 * (4 / 5) + 0.25 * 1.0
    query = StateKey("a b c d e", history="go north")
    at_bound = StateKey("a b c d", history="go north")
    store = MemoryStore()  # default 0.75 state / 0.25 history
    store.add(at_bound, "four shared", 0.0)
    store.add(StateKey("a b c d", history="go south"), "history 1/3", 1.0)
    store.add(StateKey("a b c", history="go north"), "three shared", 2.0)
    store.add(StateKey("a b c x", history="go north"), "three of six", 3.0)
    assert query.similarity(at_bound) == threshold
    kept = store.retrieve(query, k=10, threshold=threshold).entries
    assert [(e.action, sim) for e, sim in kept] == [("four shared", threshold)]
    assert not store.retrieve(query, k=10, threshold=math.nextafter(threshold, 1.0))


def test_retrieve_never_returns_an_evicted_state_set_still_indexed():
    # five rows into a capacity of four evict the first, but the store
    # rebuilds its tables only once the evicted prefix passes half the rows,
    # so the first row's state set is still in the postings
    query = StateKey("a b c d", history="go north")
    store = MemoryStore(capacity=4)
    store.add(query, "evicted", 0.0)
    store.add(StateKey("a b c e", history="go north"), "other set", 1.0)
    for i in range(3):
        store.add(StateKey(f"x{i}"), "filler", 2.0)
    assert [e.action for e in store.entries] == ["other set", "filler", "filler", "filler"]
    assert not store.retrieve(query, k=10, threshold=0.95)
    # a live pair of the same state set comes back, its evicted sibling does not
    store.add(StateKey("a b c d", history="look"), "live sibling", 3.0)
    assert [e.action for e, _ in store.retrieve(query, k=10, threshold=0.75).entries] == \
        ["live sibling"]


def test_retrieve_keeps_a_similarity_equal_to_the_threshold():
    store = MemoryStore()  # default 0.75 state / 0.25 history
    query = StateKey("a b c d e", history="go north x y z")
    at = StateKey("a b c d e", history="go north x y")         # 0.75 + 0.25 * 4/5
    above = StateKey("a b c d e", history="go north x y z w")  # 0.75 + 0.25 * 5/6
    below = StateKey("a b c d e f", history="go north x y z")  # 0.75 * 5/6 + 0.25
    assert query.similarity(at) == 0.95
    assert query.similarity(above) > 0.95 > query.similarity(below)
    for i, key in enumerate([at, above, below, at]):
        store.add(key, f"act{i}", float(i))
    kept = store.retrieve(query, k=10, threshold=0.95).entries
    assert [(e.time_index, sim) for e, sim in kept] == \
        [(1, query.similarity(above)), (3, 0.95), (0, 0.95)]
    just_above = store.retrieve(query, k=10, threshold=math.nextafter(0.95, 1.0)).entries
    assert [e.time_index for e, _ in just_above] == [1]


# keys that tie one query: its own state set or two at Jaccard 3/5 to it, with
# its own history, one of three at Jaccard 1/3 to it, or the empty one
_TIE_QUERY = (frozenset("abcd"), frozenset({"h1", "h2"}))
_TIE_STATES = [frozenset("abcd"), frozenset("abce"), frozenset("abcf")]
_TIE_HISTORIES = [frozenset({"h1", "h2"}), frozenset({"h1", "x1"}), frozenset({"h1", "x2"}),
                  frozenset({"h2", "x3"}), frozenset()]


@settings(max_examples=80, deadline=None)
@given(picks=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4)), min_size=1, max_size=40),
       capacity=capacities, k=st.one_of(st.integers(1, 4), st.integers(1, 45)),
       threshold=st.sampled_from([0.0, 0.4, 0.5, 0.8]), weights=pooled_weights)
def test_tied_pairs_rank_their_rows_as_brute_force_does(picks, capacity, k, threshold, weights):
    # several passing pairs share one similarity, so their rows interleave by
    # position; eviction and rebuilds cut their row chains
    ws, wh = weights
    store = MemoryStore(capacity=capacity, state_weight=ws, history_weight=wh)
    q = _key(*_TIE_QUERY)
    for i, (state, history) in enumerate(picks):
        store.add(_key(_TIE_STATES[state], _TIE_HISTORIES[history]), f"act{i % 3}", float(i))
        assert store.retrieve(q, k, threshold).entries == \
            _brute_force(store.entries, q, k, threshold, ws, wh)


@pytest.mark.parametrize("threshold", [0.5, 0.0])  # a probe then a memo hit; a scan
def test_a_query_follows_at_most_k_row_links(threshold):
    # five pairs of ten rows each, each pair at its own similarity: 1.0, 0.85,
    # 0.8125, 0.625 and 0.4375
    store = MemoryStore()
    states = ["a b c d", "a b c d e", "a b c", "a b c e f", "a"]
    for i in range(50):
        store.add(StateKey(states[i % 5], history="go"), f"act{i}", float(i))
    store._prev = _CountingRows(store._prev)
    query = StateKey("a b c d", history="go")
    for k in (3, 3, 12):
        store._prev.reads = 0
        kept = store.retrieve(query, k, threshold).entries
        assert kept == _brute_force(store.entries, query, k, threshold, 0.75, 0.25)
        assert store._prev.reads <= k


def _need_by_definition(ws, wh, threshold, nq):
    """The overlap bound as a search: the fewest shared tokens i whose score
    with a perfect history reaches the threshold."""
    if nq == 0:
        return 0
    return next((i for i in range(nq + 1) if ws * (i / nq) + wh * 1.0 >= threshold), nq + 1)


def test_the_memoised_overlap_bound_equals_its_definition():
    cases = [(ws, wh, threshold, nq) for ws, wh in WEIGHTS for threshold in THRESHOLDS
             for nq in range(17)]
    _need.cache_clear()
    for _ in range(2):  # cold, then memoised
        assert [_need(*case) for case in cases] == [_need_by_definition(*case) for case in cases]
    assert _need.cache_info()[:2] == (len(cases), len(cases))  # hits, misses


# -- the repeat-query memo of a store without a capacity ------------------------------

# a schedule of inserts (an index into the pool) and asks (an index into the
# queries, k, an index into the thresholds, whether gated), so a few keys are
# asked again and again, between inserts and back to back, each time with any
# k, one of two thresholds, and with or without the gate
schedules = st.lists(st.one_of(st.integers(0, 39),
                               st.tuples(st.integers(0, 3), st.integers(1, 12),
                                         st.integers(0, 1), st.booleans())),
                     min_size=20, max_size=120)
query_picks = st.lists(st.integers(0, 39), min_size=1, max_size=4)
gates = st.builds(lambda task, threshold: TaskFilter(" ".join(sorted(task)), threshold,
                                                     0.7, 0.3),
                  token_sets, st.sampled_from([0.0, 0.2, 0.3, 0.5, 0.7]))
# few state sets, each with several histories: a probe then scores several
# pairs, so a repeated query scores the pairs interned since instead of probing
shared_keys = st.lists(st.tuples(st.builds(frozenset.union, st.sampled_from(_TEMPLATES),
                                           st.frozensets(st.sampled_from(["v1", "v2"]),
                                                         max_size=1)),
                                 web_histories),
                       min_size=1, max_size=40)


def _check_schedule(store, pool, queries, schedule, thresholds, gate):
    """Play ``schedule`` on ``store`` after half the pool, checking each ask
    against the brute-force ranking."""
    ws, wh = store.state_weight, store.history_weight
    keys = [_key(*pool[q % len(pool)]) for q in queries]
    for state, history in pool[:len(pool) // 2]:
        store.add(_key(state, history), "warm", 0.0)
    for i, step in enumerate(schedule):
        if isinstance(step, int):
            store.add(_key(*pool[step % len(pool)]), f"act{i % 4}", float(i))
            continue
        which, k, t, gated = step
        q, task_filter = keys[which % len(keys)], gate if gated else None
        want = _brute_force(store.entries, q, k, thresholds[t], ws, wh, task_filter)
        got = store.retrieve(q, k=k, threshold=thresholds[t], task_filter=task_filter)
        assert got.entries == want


@settings(max_examples=60, deadline=None)
@given(pool=st.one_of(pooled_keys, shared_keys), queries=query_picks, schedule=schedules,
       capacity=capacities, weights=pooled_weights,
       thresholds=st.lists(pooled_thresholds, min_size=2, max_size=2), gate=gates)
def test_repeated_queries_match_brute_force(pool, queries, schedule, capacity, weights,
                                            thresholds, gate):
    store = MemoryStore(capacity=capacity, state_weight=weights[0], history_weight=weights[1])
    _check_schedule(store, pool, queries, schedule, thresholds, gate)


@settings(max_examples=60, deadline=None)
@given(pool=shared_keys, queries=query_picks, schedule=schedules,
       thresholds=st.lists(st.sampled_from([0.5, 0.75, 0.8, math.nextafter(0.8, 1.0), 0.9]),
                           min_size=2, max_size=2),
       gate=gates)
def test_memo_hits_match_brute_force(pool, queries, schedule, thresholds, gate):
    # no capacity and thresholds that probe: most repeated asks are memo hits,
    # many of them after new pairs were interned
    _check_schedule(MemoryStore(), pool, queries, schedule, thresholds, gate)


def test_memo_reranks_tied_pairs_when_a_row_is_added():
    # both pairs score 0.75; adding a row to the older one makes it the newer
    query = StateKey("a b c d", history="go")
    store = MemoryStore()
    store.add(StateKey("a b c d", history="x"), "older", 0.0)
    store.add(StateKey("a b c d", history="y"), "newer", 1.0)
    assert [e.action for e, _ in store.retrieve(query, k=1, threshold=0.7).entries] == ["newer"]
    store.add(StateKey("a b c d", history="x"), "older again", 2.0)
    assert [e.action for e, _ in store.retrieve(query, k=1, threshold=0.7).entries] == \
        ["older again"]


def test_memo_scores_a_pair_interned_after_it():
    query = StateKey("a b c d", history="go")
    store = MemoryStore()
    store.add(StateKey("a b c d", history="x"), "first", 0.0)      # 0.75
    assert len(store.retrieve(query, k=5, threshold=0.7)) == 1
    store.add(StateKey("a b c d", history="go"), "exact", 1.0)     # 1.0, a new pair
    kept = store.retrieve(query, k=5, threshold=0.7).entries
    assert [(e.action, sim) for e, sim in kept] == [("exact", 1.0), ("first", 0.75)]
    # the same key at another threshold or behind a gate is another question
    assert [e.action for e, _ in store.retrieve(query, k=5, threshold=0.9).entries] == ["exact"]
    assert [e.action for e, _ in store.retrieve(query, k=5, threshold=0.7).entries] == \
        ["exact", "first"]
    # admits only a history Jaccard >= 5/7
    gate = TaskFilter(task_text="zz", threshold=0.5, history_weight=0.7, task_weight=0.3)
    assert [e.action for e, _ in store.retrieve(query, k=5, threshold=0.7,
                                                task_filter=gate).entries] == ["exact"]


def test_memo_reprobes_when_new_pairs_outnumber_its_probe():
    query = StateKey("a b c d", history="go")
    store = MemoryStore()
    store.add(StateKey("a b c d", history="x"), "first", 0.0)
    store.retrieve(query, k=5, threshold=0.7)   # its probe scores one pair
    for i in range(3):
        store.add(StateKey(f"q{i}"), "filler", 0.0)
    store.add(StateKey("a b c d", history="go"), "exact", 1.0)
    kept = store.retrieve(query, k=5, threshold=0.7).entries
    assert [e.action for e, _ in kept] == ["exact", "first"]
    # a fresh probe replaced the entry: it scored the state set's two pairs
    (entry,) = store._memo.values()
    assert entry[:2] == (len(store._pairs), 2)


def test_mutating_a_neighborhood_leaves_the_next_answer_alone():
    query = StateKey("a b c d", history="go")
    store = MemoryStore()
    for i in range(4):
        store.add(StateKey("a b c d", history=f"h{i % 2}"), f"act{i}", float(i))
    first = store.retrieve(query, k=3, threshold=0.7)
    want = list(first.entries)
    first.entries.clear()
    first.entries.append((store.entries[0], 1.0))
    assert store.retrieve(query, k=3, threshold=0.7).entries == want


def test_retrieval_count_counts_memo_hits():
    query = StateKey("a b c d")
    store = MemoryStore()
    store.add(query, "act", 0.0)
    for _ in range(3):
        assert store.retrieve(query, k=2, threshold=0.9)
    assert store.retrieval_count == 3


def test_memo_holds_no_more_keys_than_distinct_pairs():
    store = MemoryStore()
    store.add(StateKey("a b c d", history="go"), "one", 0.0)
    store.add(StateKey("a b c e", history="go"), "two", 0.0)
    for i in range(12):
        store.retrieve(StateKey(f"a b c d x{i}", history="go"), k=3, threshold=0.5)
        assert 1 <= len(store._memo) <= len(store._pairs) == 2
    store.add(StateKey("a b c f", history="go"), "three", 0.0)
    for i in range(12):
        store.retrieve(StateKey(f"a b c d y{i}", history="go"), k=3, threshold=0.5)
        assert 1 <= len(store._memo) <= len(store._pairs) == 3


def test_capped_store_keeps_no_memo():
    store = MemoryStore(capacity=5)
    store.add(StateKey("a b c d"), "act", 0.0)
    store.retrieve(StateKey("a b c d"), k=2, threshold=0.9)
    assert not store._memo


_GOOD_RECORD = {"state_text": "hall", "history_text": "", "action": "look",
                "return": 1.5, "episode": 0, "step": 0, "time": 0}


@pytest.mark.parametrize("field,value", [
    ("state_text", 5), ("state_text", None), ("history_text", ["go"]),
    ("action", 7), ("action", None),
    ("return", "1.5"), ("return", True), ("return", None),
    ("episode", True), ("episode", 1.0), ("step", "2"), ("step", 2.5),
    ("time", 3.9), ("time", "3"), ("time", True),
])
def test_decode_rejects_wrong_field_types(tmp_path, field, value):
    path = tmp_path / "bank.jsonl"
    good = json.dumps(_GOOD_RECORD)
    bad = json.dumps({**_GOOD_RECORD, field: value, "time": 1} if field != "time"
                     else {**_GOOD_RECORD, "time": value})
    path.write_text(good + "\n" + bad + "\n", encoding="utf-8")
    with pytest.raises(MemoryFormatError, match=f"line 2: .*{field}"):
        MemoryStore.load(path)


def test_decode_accepts_an_integer_return(tmp_path):
    path = tmp_path / "bank.jsonl"
    path.write_text(json.dumps({**_GOOD_RECORD, "return": 2}) + "\n", encoding="utf-8")
    (entry,) = MemoryStore.load(path).entries
    assert entry.return_value == 2.0 and isinstance(entry.return_value, float)


def test_decode_rejects_a_return_too_large_for_a_float(tmp_path):
    path = tmp_path / "bank.jsonl"
    path.write_text(json.dumps(_GOOD_RECORD).replace("1.5", "1" + "0" * 400) + "\n",
                    encoding="utf-8")
    with pytest.raises(MemoryFormatError, match="line 1"):
        MemoryStore.load(path)
