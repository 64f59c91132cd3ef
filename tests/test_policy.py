import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memsteer.config import EngineConfig
from memsteer.envs.textgame import key_door_game, noisy_advisor_policy
from memsteer.memory import ActionNormalizer, MemoryStore, StateKey, group_by_action
from memsteer.policy import (Candidate, augment_candidates, base_distribution,
                             kl_objective, logit_update, softmax, softmax_sample,
                             valid_memory_actions)
from memsteer.proposer import CallablePolicyProposer
from memsteer.runner import run_experiment, seed_streams


def candidates_from(pairs, advantages=None):
    out = [Candidate(action=a, base_logit=z) for a, z in pairs]
    if advantages is not None:
        for cand, adv in zip(out, advantages):
            cand.normalized_advantage = adv
    return out


# -- candidate augmentation -----------------------------------------------------


def test_augment_union_with_memory():
    cands = augment_candidates([("x", 1.2)], ["x", "y"])
    by_action = {c.action: c for c in cands}
    assert by_action["x"].base_logit == 1.2 and by_action["x"].origin == "proposer"
    assert by_action["y"].base_logit == 0.0 and by_action["y"].origin == "memory_only"


def test_augment_memory_empty_keeps_proposed_verbatim():
    cands = augment_candidates([("x", 1.0), ("y", -2.0)], [])
    assert [(c.action, c.base_logit, c.origin) for c in cands] == \
           [("x", 1.0, "proposer"), ("y", -2.0, "proposer")]


def test_augment_proposer_empty_uses_memory_only():
    cands = augment_candidates([], ["y"])
    assert [(c.action, c.base_logit, c.origin) for c in cands] == \
           [("y", 0.0, "memory_only")]


def test_augment_both_empty_is_error():
    with pytest.raises(ValueError, match="no candidates"):
        augment_candidates([], [])


def test_augment_duplicate_proposer_actions_keep_max_logit():
    cands = augment_candidates([("x", 0.5), ("x", 1.5), ("x", -1.0)], [])
    assert [(c.action, c.base_logit) for c in cands] == [("x", 1.5)]


def test_augment_memory_duplicates_never_override_proposer():
    cands = augment_candidates([("x", 2.0)], ["x", "x", "x"])
    assert [(c.action, c.base_logit, c.origin) for c in cands] == \
           [("x", 2.0, "proposer")]


def test_augment_unions_by_normalized_action():
    normalizer = ActionNormalizer([(r"\d+", "{id}")])
    cands = augment_candidates([("click 12", 0.7)], ["click 99", "scroll"], normalizer)
    assert [(c.action, c.origin) for c in cands] == \
           [("click 12", "proposer"), ("scroll", "memory_only")]


def test_valid_memory_actions_take_the_valid_spelling():
    normalizer = ActionNormalizer([("go (east|west)", "go ew")])
    memory = MemoryStore()
    memory.add(StateKey("hall"), "go west", 1.0)
    groups = group_by_action(memory.retrieve(StateKey("hall"), k=5, threshold=0.0), normalizer)
    assert valid_memory_actions(groups, ["go east", "look"], normalizer) == ["go east"]
    assert valid_memory_actions(groups, None, normalizer) == ["go west"]


# -- logit update -----------------------------------------------------------------


def test_logit_update_arithmetic():
    cands = candidates_from([("a", 0.0), ("b", 0.0)], advantages=[1.0, -1.0])
    logit_update(cands, beta=1.0)
    assert [c.updated_logit for c in cands] == [1.0, -1.0]


def test_logit_update_beta_zero_is_identity():
    cands = candidates_from([("a", 0.37), ("b", -2.25)], advantages=[0.9, -0.4])
    logit_update(cands, beta=0.0)
    assert [c.updated_logit for c in cands] == [0.37, -2.25]


def test_logit_update_scales_with_beta():
    cands = candidates_from([("a", 0.5)], advantages=[-1.0])
    logit_update(cands, beta=2.0)
    assert cands[0].updated_logit == -1.5


def test_logit_update_requires_advantages():
    cands = candidates_from([("a", 0.0)])
    with pytest.raises(ValueError, match="no advantage"):
        logit_update(cands, beta=1.0)


# -- softmax sampling ---------------------------------------------------------------


def test_softmax_hand_example():
    dist = softmax(np.array([1.0, -1.0]))
    assert dist[0] == pytest.approx(0.8808, abs=5e-5)
    assert dist[1] == pytest.approx(0.1192, abs=5e-5)


def test_softmax_single_candidate(rng):
    cands = candidates_from([("only", 3.0)], advantages=[0.0])
    logit_update(cands, beta=1.0)
    decision = softmax_sample(cands, rng)
    assert decision.distribution.tolist() == [1.0]
    assert decision.chosen == 0


def test_softmax_uniform_over_equal_logits(rng):
    cands = candidates_from([(f"a{i}", 0.8) for i in range(4)], advantages=[0.0] * 4)
    logit_update(cands, beta=1.0)
    decision = softmax_sample(cands, rng)
    assert np.allclose(decision.distribution, 0.25, atol=1e-15)


def test_softmax_shift_invariance():
    logits = np.array([0.3, -1.2, 2.0])
    for shift in (-100.0, -5.0, 5.0, 100.0):
        assert np.all(np.abs(softmax(logits) - softmax(logits + shift)) < 1e-12)


def test_softmax_sample_rejects_non_finite(rng):
    cands = candidates_from([("a", float("nan"))], advantages=[0.0])
    with pytest.raises(ValueError, match="non-finite"):
        softmax_sample(cands, rng)
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="non-finite"):
            softmax_sample(candidates_from([("a", 0.5), ("b", bad)]), rng)


def test_decision_distribution_sums_to_one(rng):
    for _ in range(100):
        n = int(rng.integers(1, 7))
        cands = candidates_from([(f"a{i}", float(rng.normal(0, 3))) for i in range(n)],
                                advantages=list(rng.uniform(-1, 1, size=n)))
        logit_update(cands, beta=2.0)
        decision = softmax_sample(cands, rng)
        assert abs(decision.distribution.sum() - 1.0) <= 1e-12
        assert 0 <= decision.chosen < n


def test_decision_replay_from_episode_policy_stream():
    config = EngineConfig.profile("text-game", 2.0, episodes=4, seed=11)
    env_factory = lambda rng: key_door_game()
    proposer_factory = lambda env: CallablePolicyProposer(noisy_advisor_policy(env, 0.3))
    _, _, records = run_experiment(config, env_factory, proposer_factory, mode="memsteer")
    steered = 0
    for episode, record in enumerate(records):
        rng = seed_streams(config.seed, episode)["policy"]
        for decision in record.decisions:
            replayed = softmax_sample(decision.candidates, rng)
            assert replayed.chosen == decision.chosen
            assert replayed.distribution.tolist() == decision.distribution.tolist()
            steered += any(c.normalized_advantage for c in decision.candidates)
    assert steered > 0


class FixedDraws:
    """Generator stand-in yielding scripted uniform draws."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


@pytest.mark.parametrize("logits, clamps", [([0.0] * 4, False), ([0.0] * 10, True),
                                            ([0.3, -1.2, 2.0, 0.0, 0.7], False)])
def test_sample_matches_searchsorted_on_boundary_draws(logits, clamps):
    cands = candidates_from([(f"a{i}", z) for i, z in enumerate(logits)])
    cumsum = np.cumsum(softmax(np.array(logits)))
    # inner cumsum values tell side="right" from side="left"; 1 - 2**-53 is the
    # largest draw, and it fires the clamp where the cumsum ends at or below it
    draws = [0.0, *cumsum[:-1].tolist(), 1.0 - 2.0 ** -53]
    for u in draws:
        decision = softmax_sample(cands, FixedDraws([u]))
        expected = min(int(np.searchsorted(cumsum, u, side="right")), len(cands) - 1)
        assert decision.chosen == expected
    assert any(np.searchsorted(cumsum, u, side="left") != np.searchsorted(cumsum, u, side="right")
               for u in draws)
    assert (np.searchsorted(cumsum, draws[-1], side="right") == len(cands)) == clamps


# ties, values near the edge of exp's range after the max is subtracted, and
# logits of an ordinary spread; 40 logits run past the 8 terms beyond which
# numpy's pairwise sum and a sequential sum can differ in the last bit
_logit_values = st.one_of(st.floats(-8.0, 8.0), st.floats(-720.0, 720.0),
                          st.sampled_from([0.0, -0.0, 1.0, 699.5, 700.0, -700.0, -709.0]))


@settings(max_examples=300)
@given(logits=st.lists(_logit_values, min_size=1, max_size=40), data=st.data())
def test_sample_is_softmax_and_bisect_of_cumsum_bit_for_bit(logits, data):
    reference = softmax(np.array(logits))
    cumsum = np.cumsum(reference).tolist()
    # a uniform draw, or one landing exactly on a cumulative value
    draw = data.draw(st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                               st.sampled_from([u for u in cumsum if u < 1.0] or [0.0])))
    decision = softmax_sample(candidates_from([(f"a{i}", z) for i, z in enumerate(logits)]),
                              FixedDraws([draw]))
    assert decision.distribution.tobytes() == reference.tobytes()
    assert decision.chosen == min(bisect.bisect_right(cumsum, draw), len(logits) - 1)


def test_sampling_frequencies_match_distribution_chi_squared():
    rng = np.random.default_rng(42)
    cands = candidates_from([("a", 0.0), ("b", 1.0), ("c", -0.5), ("d", 0.3)],
                            advantages=[0.0] * 4)
    logit_update(cands, beta=1.0)
    expected = softmax(np.array([c.updated_logit for c in cands]))
    counts = np.zeros(4)
    draws = 100_000
    for _ in range(draws):
        counts[softmax_sample(cands, rng).chosen] += 1
    stat = float(((counts - draws * expected) ** 2 / (draws * expected)).sum())
    assert stat < 16.27  # chi-square 0.999 quantile, 3 degrees of freedom


# -- KL objective --------------------------------------------------------------------


def test_objective_at_base_policy_is_expected_advantage():
    pi = np.array([0.3, 0.7])
    adv = np.array([2.0, -1.0])
    assert kl_objective(pi, pi, adv, beta=1.0) == pytest.approx(float(pi @ adv), abs=1e-15)


def test_objective_zero_advantage_maximized_at_base(rng):
    pi = np.array([0.25, 0.5, 0.25])
    adv = np.zeros(3)
    at_base = kl_objective(pi, pi, adv, beta=1.0)
    assert at_base == 0.0
    for _ in range(50):
        other = rng.dirichlet(np.ones(3))
        assert kl_objective(other, pi, adv, beta=1.0) <= at_base + 1e-12


def test_objective_exact_value_of_uniform_two_action_instance():
    # optimum of the tilted objective has value log(sum pi_theta * exp(beta A))/beta,
    # which for uniform base and advantages (1, -1) at beta=1 is log(cosh(1))
    pi_theta = np.array([0.5, 0.5])
    adv = np.array([1.0, -1.0])
    pi_star = softmax(np.log(pi_theta) + adv)
    value = kl_objective(pi_star, pi_theta, adv, beta=1.0)
    assert value == pytest.approx(math.log(math.cosh(1.0)), abs=1e-12)
    assert pi_star[0] == pytest.approx(0.8808, abs=5e-5)


def test_objective_log_partition_identity(rng):
    # J(closed form) == log(sum pi_theta exp(beta A)) / beta on random instances
    for _ in range(50):
        n = int(rng.integers(2, 5))
        pi_theta = rng.dirichlet(np.ones(n))
        adv = rng.uniform(-1, 1, size=n)
        beta = float(rng.uniform(0.2, 5.0))
        pi_star = softmax(np.log(pi_theta) + beta * adv)
        lhs = kl_objective(pi_star, pi_theta, adv, beta)
        rhs = math.log(float(pi_theta @ np.exp(beta * adv))) / beta
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_objective_handles_zero_mass_terms():
    pi_prime = np.array([1.0, 0.0])
    pi_theta = np.array([0.5, 0.5])
    adv = np.array([1.0, -1.0])
    value = kl_objective(pi_prime, pi_theta, adv, beta=1.0)
    assert value == pytest.approx(1.0 - math.log(2.0), abs=1e-12)


def test_objective_undefined_off_support():
    with pytest.raises(ValueError, match="undefined"):
        kl_objective(np.array([0.5, 0.5]), np.array([1.0, 0.0]),
                     np.array([0.0, 0.0]), beta=1.0)


def test_objective_requires_positive_beta():
    pi = np.array([0.5, 0.5])
    with pytest.raises(ValueError, match="beta"):
        kl_objective(pi, pi, np.zeros(2), beta=0.0)


# -- engine-level identities -----------------------------------------------------------


def test_beta_zero_distribution_bit_identical_to_base(rng):
    for _ in range(200):
        n = int(rng.integers(1, 6))
        pairs = [(f"a{i}", float(rng.normal(0, 2))) for i in range(n)]
        adv = list(rng.uniform(-1, 1, size=n))
        cands = candidates_from(pairs, advantages=adv)
        logit_update(cands, beta=0.0)
        updated = softmax(np.array([c.updated_logit for c in cands]))
        base = base_distribution(cands)
        assert np.array_equal(updated, base)


def test_increasing_beta_raises_argmax_probability(rng):
    for _ in range(30):
        n = int(rng.integers(2, 5))
        pairs = [(f"a{i}", float(rng.normal(0, 1))) for i in range(n)]
        adv = rng.uniform(-1, 1, size=n)
        adv[int(rng.integers(0, n))] = 1.0  # unique argmax at normalized peak
        best = int(np.argmax(adv))
        previous = -1.0
        for beta in (0.0, 0.5, 1.0, 2.0, 5.0):
            cands = candidates_from(pairs, advantages=list(adv))
            logit_update(cands, beta=beta)
            dist = softmax(np.array([c.updated_logit for c in cands]))
            assert dist[best] > previous
            previous = dist[best]
