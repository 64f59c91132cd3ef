import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memsteer.estimator import (EXPLORED, KNOWN, NEUTRAL, EmptyNeighborhoodError,
                                advantage_vector, advantages, estimate_candidates,
                                normalize_advantages, state_value)
from memsteer.memory import (ActionNormalizer, IDENTITY_NORMALIZER, MemoryStore, Neighborhood,
                             StateKey, group_by_action)
from memsteer.policy import augment_candidates, valid_memory_actions
from memsteer.proposer import ProposerError, ProposerRequest, _ask_for_valid


def neighborhood_from(pairs):
    """pairs: (action, return) tuples stored under one shared state."""
    store = MemoryStore()
    for action, value in pairs:
        store.add(StateKey("same place"), action, value)
    return store.retrieve(StateKey("same place"), k=len(pairs), threshold=0.0)


def estimate_of(neighborhood, actions, rate, bonus, rng):
    """``estimate_candidates`` on the neighborhood's own action groups."""
    return estimate_candidates(neighborhood, actions, rate, bonus, rng, IDENTITY_NORMALIZER,
                               group_by_action(neighborhood))


def unseen_value(neighborhood, rate, bonus, rng):
    """The value of one action the neighborhood has never seen."""
    return estimate_of(neighborhood, ["new"], rate, bonus, rng).per_action["new"]


class FixedUniform:
    """Generator stand-in yielding scripted uniform draws."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


# -- state value -------------------------------------------------------------------


def test_state_value_mean():
    assert state_value(neighborhood_from([("a", 2.0), ("b", 4.0)])) == 3.0


def test_state_value_singleton():
    assert state_value(neighborhood_from([("a", 7.0)])) == 7.0


def test_state_value_symmetric_cancellation():
    assert state_value(neighborhood_from([("a", -1.0), ("b", 1.0)])) == 0.0


def test_state_value_empty_signals_no_estimate():
    empty = Neighborhood(entries=[])
    with pytest.raises(EmptyNeighborhoodError):
        state_value(empty)


# -- action value -------------------------------------------------------------------


def test_known_action_mean():
    neighborhood = neighborhood_from([("x", 1.0), ("x", 3.0), ("y", 10.0)])
    value = estimate_of(neighborhood, ["x"], 0.5, 5.0, FixedUniform([0.99])).per_action["x"]
    assert (value.q, value.count, value.source) == (2.0, 2, KNOWN)


def test_unseen_action_optimistic_branch():
    neighborhood = neighborhood_from([("seen", 3.0)] * 10)  # v = 3.0
    value = unseen_value(neighborhood, 0.65, 5.0, FixedUniform([0.1]))
    assert value.source == EXPLORED
    assert value.q == 3.0 + 5.0 / 10
    assert value.count == 0


def test_unseen_action_neutral_branch():
    neighborhood = neighborhood_from([("seen", 3.0)])
    value = unseen_value(neighborhood, 0.65, 5.0, FixedUniform([0.9]))
    assert (value.q, value.source) == (0.0, NEUTRAL)


def test_exploration_rate_zero_always_neutral(rng):
    neighborhood = neighborhood_from([("seen", 1.0)])
    for _ in range(50):
        value = unseen_value(neighborhood, 0.0, 5.0, rng)
        assert (value.q, value.count, value.source) == (0.0, 0, NEUTRAL)


def test_exploration_rate_one_always_optimistic(rng):
    neighborhood = neighborhood_from([("seen", 1.0)])
    for _ in range(50):
        value = unseen_value(neighborhood, 1.0, 5.0, rng)
        assert value.source == EXPLORED


def test_bonus_strictly_decreasing_in_neighborhood_size():
    previous = float("inf")
    for size in range(1, 101):
        neighborhood = neighborhood_from([("seen", 0.0)] * size)  # v = 0.0
        value = unseen_value(neighborhood, 1.0, 5.0, FixedUniform([0.0]))
        assert value.q == 5.0 / size
        assert value.q < previous
        previous = value.q


def test_one_draw_per_unseen_action():
    neighborhood = neighborhood_from([("seen", 1.0)])
    draws = FixedUniform([0.1, 0.9, 0.1])
    estimate = estimate_of(neighborhood, ["seen", "u1", "u2", "u3"], 0.5, 2.0, draws)
    sources = [estimate.per_action[a].source for a in ("u1", "u2", "u3")]
    assert sources == [EXPLORED, NEUTRAL, EXPLORED]
    assert not draws.draws  # exactly one draw per unseen action, none for seen


@pytest.mark.parametrize("rate,bonus", [(-0.1, 1.0), (1.1, 1.0), (0.5, -1.0)])
def test_estimate_rejects_out_of_range_rates(rate, bonus):
    neighborhood = neighborhood_from([("seen", 1.0)])
    with pytest.raises(ValueError, match="exploration_"):
        estimate_of(neighborhood, ["new"], rate, bonus, FixedUniform([0.5]))


# -- advantages ---------------------------------------------------------------------


def test_advantages_center_on_state_value():
    neighborhood = neighborhood_from([("x", 2.0), ("y", 4.0)])
    estimate = estimate_of(neighborhood, ["x", "y"], 0.0, 0.0, FixedUniform([]))
    assert advantages(estimate) == {"x": -1.0, "y": 1.0}


def test_advantages_all_equal_gives_zeros():
    neighborhood = neighborhood_from([("x", 3.0), ("y", 3.0)])
    estimate = estimate_of(neighborhood, ["x", "y"], 0.0, 0.0, FixedUniform([]))
    assert advantages(estimate) == {"x": 0.0, "y": 0.0}


def test_neutral_action_advantage_is_minus_v():
    neighborhood = neighborhood_from([("x", 3.0)])
    estimate = estimate_of(neighborhood, ["x", "new"], 0.0, 0.0, FixedUniform([0.5]))
    assert advantages(estimate)["new"] == -3.0


def test_count_weighted_advantages_center_to_zero(rng):
    for _ in range(50):
        size = int(rng.integers(2, 40))
        pairs = [(f"a{rng.integers(0, 4)}", float(rng.uniform(-10, 10)))
                 for _ in range(size)]
        neighborhood = neighborhood_from(pairs)
        actions = sorted({a for a, _ in pairs})
        estimate = estimate_of(neighborhood, actions, 0.0, 0.0, FixedUniform([]))
        adv = advantages(estimate)
        weighted = sum(estimate.per_action[a].count * adv[a] for a in actions)
        assert abs(weighted) < 1e-9


# -- normalization -------------------------------------------------------------------


def test_normalize_divides_by_peak_plus_epsilon():
    normalized = normalize_advantages({"x": 2.0, "y": -4.0}, epsilon=1e-8)
    assert normalized["x"] == pytest.approx(0.5, abs=1e-8)
    assert normalized["y"] == pytest.approx(-1.0, abs=1e-8)


def test_normalize_all_zero_stays_zero():
    assert normalize_advantages({"x": 0.0, "y": 0.0}) == {"x": 0.0, "y": 0.0}


def test_normalize_single_negative():
    normalized = normalize_advantages({"x": -7.0}, epsilon=1e-8)
    assert normalized["x"] == pytest.approx(-1.0, abs=1e-8)


def test_normalize_requires_positive_epsilon():
    with pytest.raises(ValueError):
        normalize_advantages({"x": 1.0}, epsilon=0.0)


def test_normalized_values_bounded_and_argmax_preserved(rng):
    for _ in range(100):
        raw = {f"a{i}": float(rng.uniform(-50, 50)) for i in range(int(rng.integers(1, 6)))}
        normalized = normalize_advantages(raw)
        assert all(-1.0 <= v <= 1.0 for v in normalized.values())
        assert max(raw, key=raw.get) == max(normalized, key=normalized.get)
        peak = max(raw, key=lambda a: abs(raw[a]))
        if raw[peak] != 0.0:
            assert abs(normalized[peak]) == pytest.approx(1.0, abs=1e-6)


def test_advantage_vector_combines_raw_and_normalized():
    neighborhood = neighborhood_from([("x", 2.0), ("y", 4.0)])
    estimate = estimate_of(neighborhood, ["x", "y"], 0.0, 0.0, FixedUniform([]))
    assert advantages(estimate) == {"x": -1.0, "y": 1.0}
    normalized = advantage_vector(estimate, epsilon=1e-8)
    assert normalized == normalize_advantages({"x": -1.0, "y": 1.0}, epsilon=1e-8)
    assert normalized["y"] == pytest.approx(1.0, abs=1e-7)


def test_exploration_frequency_matches_rate():
    rng = np.random.default_rng(7)
    neighborhood = neighborhood_from([("seen", 1.0)])
    hits = sum(unseen_value(neighborhood, 0.3, 1.0, rng).source == EXPLORED
               for _ in range(20000))
    assert hits / 20000 == pytest.approx(0.3, abs=0.01)


# -- grouped estimation against a per-action filter ---------------------------------


def reference_subset(neighborhood, action, normalizer):
    """Entries whose normalized action equals the normalized query action."""
    want = normalizer(action)
    return [entry for entry, _ in neighborhood.entries if normalizer(entry.action) == want]


def reference_estimate(neighborhood, actions, rate, bonus, rng, normalizer):
    """Estimation with one neighborhood rescan per distinct candidate."""
    returns = neighborhood.returns()
    v = sum(returns) / len(returns)
    per_action = {}
    for action in actions:
        if action in per_action:
            continue
        subset = reference_subset(neighborhood, action, normalizer)
        if subset:
            values = [entry.return_value for entry in subset]
            per_action[action] = (sum(values) / len(values), len(values), KNOWN)
        elif rng.random() < rate:
            per_action[action] = (v + bonus / len(neighborhood), 0, EXPLORED)
        else:
            per_action[action] = (0.0, 0, NEUTRAL)
    return v, per_action


def reference_memory_actions(neighborhood, valid_actions, normalizer):
    actions = [entry.action for entry, _ in neighborhood.entries]
    if valid_actions is not None:
        first_valid = {}
        for a in valid_actions:
            first_valid.setdefault(normalizer(a), a)
        actions = [first_valid[normalizer(a)] for a in actions if normalizer(a) in first_valid]
    return actions


SPELLINGS = ["go north", "north", "Go  North", "click 1", "click 22", "click('7')",
             "take key", "TAKE KEY", "look"]
MERGING_RULES = [[], [(r"\d+", "{id}")], [(r"^go ", "")],
                 [(r"\(\s*'?\d+'?\s*\)", " {id}"), (r"\d+", "{id}")]]


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(st.sampled_from(SPELLINGS),
                               st.floats(min_value=-1e15, max_value=1e15)),
                     min_size=1, max_size=16),
       proposed=st.lists(st.tuples(st.sampled_from(SPELLINGS + ["jump", "swim"]),
                                   st.floats(min_value=-5.0, max_value=5.0)),
                         min_size=1, max_size=6),
       valid=st.one_of(st.none(), st.lists(st.sampled_from(SPELLINGS), max_size=5)),
       rules=st.sampled_from(MERGING_RULES),
       rate=st.sampled_from([0.0, 0.5, 1.0]),
       bonus=st.sampled_from([0.0, 2.5]),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_grouped_estimate_matches_per_action_filter(rows, proposed, valid, rules, rate,
                                                    bonus, seed):
    normalizer = ActionNormalizer(rules)
    neighborhood = neighborhood_from(rows)
    groups = group_by_action(neighborhood, normalizer)
    assert sum(len(returns) for _, returns in groups.values()) == len(neighborhood)

    candidates = augment_candidates(
        proposed, valid_memory_actions(groups, valid, normalizer), normalizer)
    expected = augment_candidates(
        proposed, reference_memory_actions(neighborhood, valid, normalizer), normalizer)
    assert ([(c.action, c.base_logit, c.origin) for c in candidates]
            == [(c.action, c.base_logit, c.origin) for c in expected])

    # raw proposer spellings add duplicates and merged variants to the list
    actions = [c.action for c in candidates] + [a for a, _ in proposed]
    ref_rng = np.random.default_rng(seed)
    v, ref_values = reference_estimate(neighborhood, actions, rate, bonus, ref_rng, normalizer)
    rng = np.random.default_rng(seed)
    estimate = estimate_candidates(neighborhood, actions, rate, bonus, rng, normalizer, groups)
    assert estimate.v == v
    assert {a: (value.q, value.count, value.source)
            for a, value in estimate.per_action.items()} == ref_values
    assert list(estimate.per_action) == list(ref_values)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(remembered=st.lists(st.sampled_from(SPELLINGS), min_size=1, max_size=8),
       proposed=st.lists(st.sampled_from(SPELLINGS + ["jump"]), min_size=1, max_size=6),
       valid=st.lists(st.sampled_from(SPELLINGS), min_size=1, max_size=5),
       rules=st.sampled_from(MERGING_RULES))
def test_matched_actions_are_exact_valid_actions(remembered, proposed, valid, rules):
    normalizer = ActionNormalizer(rules)
    groups = group_by_action(neighborhood_from([(a, 0.0) for a in remembered]), normalizer)
    offered = valid_memory_actions(groups, valid, normalizer)
    assert all(action in valid for action in offered)
    allowed = {normalizer(a) for a in valid}
    assert [normalizer(a) for a in offered] == [key for key in groups if key in allowed]

    request = ProposerRequest(state_text="s", valid_actions=valid, n_candidates=len(proposed))
    valid_forms = {IDENTITY_NORMALIZER(v) for v in valid}
    matching = [IDENTITY_NORMALIZER(a) for a in proposed if IDENTITY_NORMALIZER(a) in valid_forms]
    if not matching:
        with pytest.raises(ProposerError):
            _ask_for_valid(lambda r: ([(a, 1.0) for a in proposed], {}), request)
        return
    kept = _ask_for_valid(lambda r: ([(a, 1.0) for a in proposed], {}), request)
    assert all(action in valid for action, _ in kept)
    assert [IDENTITY_NORMALIZER(a) for a, _ in kept] == list(dict.fromkeys(matching))
