import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memsteer import oracle
from memsteer.envs.tabular import TabularMDP, deterministic_chain, random_mdp, six_state_fixture
from memsteer.memory import MemoryStore
from memsteer.oracle import (closed_form_kl_policy, episode_returns, exact_policy_values,
                             expected_advantage_identity_gap, grid_optimal_kl_policy,
                             kl_objective, monte_carlo_returns, optimality_margin,
                             rollout, simplex_grid)
from memsteer.policy import softmax
from memsteer.runner import fill_memory_from_rollouts


def single_absorbing_state():
    return TabularMDP(transitions=np.ones((1, 1, 1)), rewards=np.zeros((1, 1)),
                      terminal=np.array([True]), start=np.array([1.0]), gamma=0.9)


# -- exact policy evaluation -------------------------------------------------------


def test_absorbing_zero_reward_gives_zero_values():
    values = exact_policy_values(single_absorbing_state(), np.ones((1, 1)), gamma=0.9)
    assert np.all(values.v == 0.0) and np.all(values.q == 0.0)


def test_two_state_chain_hand_backup():
    mdp = deterministic_chain(n_states=3, end_reward=1.0, gamma=0.5)
    values = exact_policy_values(mdp, np.ones((3, 1)), gamma=0.5)
    assert values.v[1] == pytest.approx(1.0, abs=1e-9)
    assert values.v[0] == pytest.approx(0.5, abs=1e-9)
    assert values.v[2] == 0.0


def test_dp_residual_below_tolerance():
    mdp, policy = six_state_fixture()
    values = exact_policy_values(mdp, policy, gamma=0.9, tol=1e-10)
    assert values.residual < 1e-10


def test_dp_nonconvergence_raises():
    mdp, policy = six_state_fixture()
    with pytest.raises(RuntimeError, match="did not converge"):
        exact_policy_values(mdp, policy, gamma=0.9, tol=1e-12, max_iterations=3)


@pytest.mark.parametrize("gamma", [float("nan"), float("inf"), 1.5, -0.1])
def test_dp_rejects_gamma_outside_the_unit_interval(gamma):
    mdp, policy = six_state_fixture()
    with pytest.raises(ValueError, match="gamma"):
        exact_policy_values(mdp, policy, gamma=gamma)


def invalid_policy(kind):
    """The six-state fixture's policy with state 1's row broken one way."""
    policy = six_state_fixture()[1].copy()
    if kind == "sums-to-half":
        policy[1] *= 0.5
    elif kind == "negative":  # -0.1 and 0.8: the row still sums to 1
        policy[1, 0] -= 0.5
        policy[1, 1] += 0.5
    else:
        policy[1, 0] = float("nan")
    return policy


@pytest.mark.parametrize("kind", ["sums-to-half", "negative", "nan"])
def test_dp_rejects_invalid_policy_row(kind):
    mdp, _ = six_state_fixture()
    with pytest.raises(ValueError, match="policy row"):
        exact_policy_values(mdp, invalid_policy(kind), gamma=0.9)


def test_dp_ignores_terminal_policy_rows():
    mdp, policy = six_state_fixture()
    policy = policy.copy()
    policy[mdp.terminal] = 0.0
    values = exact_policy_values(mdp, policy, gamma=0.9)
    assert np.array_equal(values.v, exact_policy_values(mdp, six_state_fixture()[1],
                                                        gamma=0.9).v)


def test_expected_advantage_is_zero_under_policy():
    mdp, policy = six_state_fixture()
    values = exact_policy_values(mdp, policy, gamma=0.9)
    assert expected_advantage_identity_gap(values, policy) < 1e-9


def test_dp_matches_monte_carlo_on_random_mdp(rng):
    mdp = random_mdp(rng, n_states=6, n_actions=3)
    policy = np.full((6, 3), 1.0 / 3.0)
    values = exact_policy_values(mdp, policy, gamma=0.9)
    mean, stderr = monte_carlo_returns(mdp, policy, start_state=0, gamma=0.9,
                                       episodes=8000, rng=rng)
    assert abs(mean - values.v[0]) < 3.0 * max(stderr, 1e-12)


# -- Monte Carlo --------------------------------------------------------------------


def test_monte_carlo_deterministic_has_zero_stderr():
    mdp = deterministic_chain(n_states=3, end_reward=1.0, gamma=0.5)
    values = exact_policy_values(mdp, np.ones((3, 1)), gamma=0.5)
    mean, stderr = monte_carlo_returns(mdp, np.ones((3, 1)), start_state=0, gamma=0.5,
                                       episodes=50, rng=np.random.default_rng(0))
    assert stderr == 0.0
    assert mean == values.v[0]


def test_monte_carlo_single_episode_returns_that_return(rng):
    mdp, policy = six_state_fixture()
    mean, stderr = monte_carlo_returns(mdp, policy, start_state=2, gamma=0.9,
                                       episodes=1, rng=np.random.default_rng(5))
    check_rng = np.random.default_rng(5)
    states, actions, rewards = rollout(mdp, policy, check_rng, start_state=2)
    assert mean == episode_returns(rewards, 0.9)[0]
    assert stderr == 0.0


def test_rollout_terminates_and_reports_rewards(rng):
    mdp, policy = six_state_fixture()
    states, actions, rewards = rollout(mdp, policy, rng, start_state=0)
    assert len(states) == len(actions) == len(rewards) >= 1
    assert all(0 <= s < 5 for s in states)


# -- sampler bit-identity against numpy searchsorted -----------------------------------


def reference_index(cum, u):
    """Inverse-CDF draw on a numpy cumsum, clamped to the last index."""
    return min(int(np.searchsorted(cum, u, side="right")), len(cum) - 1)


def reference_rollout(mdp, policy, rng, start_state=None, step_cap=1000):
    cum_next = np.cumsum(mdp.transitions, axis=2)
    policy_cum = np.cumsum(np.asarray(policy, dtype=np.float64), axis=1)
    s = reference_index(np.cumsum(mdp.start), rng.random()) if start_state is None \
        else start_state
    states, actions, rewards = [], [], []
    for _ in range(step_cap):
        if mdp.terminal[s]:
            break
        a = reference_index(policy_cum[s], rng.random())
        states.append(s)
        actions.append(a)
        rewards.append(float(mdp.rewards[s, a]))
        s = reference_index(cum_next[s, a], rng.random())
    return states, actions, rewards


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(2, 7),
       n_actions=st.integers(1, 4), short_row=st.booleans())
def test_sampler_matches_searchsorted_reference(seed, n_states, n_actions, short_row):
    rng = np.random.default_rng(seed)
    mdp = random_mdp(rng, n_states=n_states, n_actions=n_actions)
    policy = rng.dirichlet(np.ones(n_actions), size=n_states)
    if short_row:  # state 0's policy cumsum ends at about 0.5, so the clamp fires
        policy[0] *= 0.5
    ours, ref = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
    cum_start = np.cumsum(mdp.start)
    for _ in range(20):
        assert mdp.sample_start(ours) == reference_index(cum_start, ref.random())
    cum_next = np.cumsum(mdp.transitions, axis=2)
    for s in range(n_states):
        for a in range(n_actions):
            for _ in range(5):
                assert mdp.sample_next(s, a, ours) == reference_index(cum_next[s, a],
                                                                      ref.random())
    for start_state in (None, 0, None):
        assert rollout(mdp, policy, ours, start_state=start_state) == \
            reference_rollout(mdp, policy, ref, start_state=start_state)
    assert ours.bit_generator.state == ref.bit_generator.state


class FixedDraws:
    """Stands in for a Generator: ``random()`` returns the given values in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def test_sampler_matches_reference_on_boundary_draws():
    # ten 0.1s sum to 1 - 2**-53 in floats, the largest draw random() can
    # return, so that draw would index one past the end without the clamp; a
    # draw equal to an inner cumsum value tells side="right" from side="left"
    n = 11
    P = np.zeros((n, 2, n))
    P[:, :, :10] = 0.1
    P[10, :] = np.eye(n)[10]
    start = np.zeros(n)
    start[:10] = 0.1
    mdp = TabularMDP(transitions=P, rewards=np.arange(2.0 * n).reshape(n, 2),
                     terminal=np.eye(n, dtype=bool)[10], start=start, gamma=0.9)
    cum = np.cumsum(start)
    top = np.nextafter(1.0, 0.0)
    assert cum[-1] == top
    for u in (0.0, cum[0], cum[1], cum[2], 0.5, top):
        assert mdp.sample_start(FixedDraws([u])) == reference_index(cum, u)
        assert mdp.sample_next(3, 1, FixedDraws([u])) == reference_index(np.cumsum(P[3, 1]), u)
    assert mdp.sample_next(3, 1, FixedDraws([top])) == n - 1
    policy = np.tile([0.5, 0.5], (n, 1))
    # start, then (action, next state) per step; the last next-state draw is
    # clamped onto the terminal state
    draws = [cum[1], 0.5, cum[2], 0.0, top]
    ours, ref = FixedDraws(draws), FixedDraws(draws)
    assert rollout(mdp, policy, ours) == reference_rollout(mdp, policy, ref) == \
        ([2, 3], [1, 0], [5.0, 6.0])
    assert ours.values == ref.values == []


def clamped_index(row, u):
    """The draw as it was before its search took a ``hi`` bound: an unbounded
    search clamped to the last index."""
    return min(bisect_right(row, u), len(row) - 1)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(weights=st.lists(st.just(0.0) | st.floats(0.0, 1.0, allow_subnormal=False),
                        min_size=1, max_size=7).filter(lambda w: sum(w) > 0.0),
       scale=st.just(1.0) | st.floats(0.05, 1.0))
@example(weights=[0.3, 0.7, 0.0], scale=1.0)  # the cumsum plateaus at its end
@example(weights=[0.0, 0.0, 1.0, 0.0, 0.0], scale=0.5)  # and a short policy row
@example(weights=[0.1] * 7, scale=1.0)
@example(weights=[1.0], scale=0.5)
def test_bounded_draws_equal_the_clamped_search(weights, scale):
    # n states and n actions, every transition row and the start distribution
    # the normalised weights, every policy row those scaled by ``scale``
    # (below 1 a short row, which the bound must still clamp)
    n = len(weights)
    row = np.asarray(weights) / sum(weights)
    mdp = TabularMDP(transitions=np.tile(row, (n, n, 1)),
                     rewards=np.arange(float(n * n)).reshape(n, n),
                     terminal=np.zeros(n, dtype=bool), start=row, gamma=0.9)
    policy = np.tile(row * scale, (n, 1))
    cum, policy_cum = np.cumsum(row).tolist(), np.cumsum(policy[0]).tolist()
    assert mdp._cum_start == mdp._cum_next[n - 1][0] == cum
    draws = {0.0, math.nextafter(1.0, 0.0)}
    for value in cum + policy_cum:
        draws |= {value, math.nextafter(value, 0.0)}
    for u in sorted(draws):
        s, a = clamped_index(cum, u), clamped_index(policy_cum, u)
        assert mdp.sample_start(FixedDraws([u])) == s
        assert mdp.sample_next(0, n - 1, FixedDraws([u])) == s
        assert mdp.sample_next(n - 1, 0, FixedDraws([u])) == s
        # start, then an action and a next state per step
        ours = FixedDraws([u] * 5)
        assert rollout(mdp, policy, ours, step_cap=2) == ([s, s], [a, a], [mdp.rewards[s, a]] * 2)
        assert ours.values == []


@pytest.mark.parametrize("value", [-0.1, math.nan, math.inf, -math.inf])
def test_rollout_rejects_a_policy_entry_that_is_negative_or_not_finite(value):
    mdp, policy = six_state_fixture()
    policy = policy.copy()
    policy[2, 1] = value
    policy[3, 0] = -1.0  # a later bad entry is not the one named
    with pytest.raises(ValueError, match=rf"policy entry \(2, 1\) is {value!r};"):
        rollout(mdp, policy, np.random.default_rng(0))
    policy[2, 1] = policy[3, 0] = 0.3  # the same array, repaired, is checked afresh
    rollout(mdp, policy, np.random.default_rng(0))


def test_fill_rejects_a_negative_policy_entry_from_its_schedule():
    mdp, policy = six_state_fixture()
    bad = policy.copy()
    bad[4] = [0.5, -0.1, 0.6]
    episodes = []

    def schedule(episode):
        episodes.append(episode)
        return policy if episode < 3 else bad

    store = MemoryStore()
    with pytest.raises(ValueError, match=r"policy entry \(4, 1\) is -0.1;"):
        fill_memory_from_rollouts(mdp, schedule, 0.9, 10_000, np.random.default_rng(0), store)
    assert episodes == [0, 1, 2, 3]
    assert {entry.episode for entry in store.entries} == {0, 1, 2}


# -- the policy cumsum memo and the MDP's list tables ----------------------------------


def test_rollout_draws_from_a_policy_changed_in_place():
    # the memo is keyed by the policy's content, so the same array object
    # with new rows is summed afresh
    mdp, policy = six_state_fixture()
    policy = policy.copy()
    ours, ref = np.random.default_rng(7), np.random.default_rng(7)
    for row in ([0.4, 0.3, 0.3], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.4, 0.3, 0.3]):
        policy[:] = row
        for _ in range(10):
            drawn = rollout(mdp, policy, ours)
            assert drawn == reference_rollout(mdp, policy, ref)
            if row[2] == 1.0:
                assert set(drawn[1]) == {2}
    assert ours.bit_generator.state == ref.bit_generator.state


def test_policy_memo_stays_within_its_bound_over_a_drifting_schedule():
    mdp, final = six_state_fixture()
    start = np.tile([0.1, 0.1, 0.8], (mdp.n_states, 1))
    bound = oracle._policy_cum.cache_info().maxsize
    episodes = 3 * bound
    schedule = [(1.0 - e / episodes) * start + (e / episodes) * final
                for e in range(episodes + 1)]
    ours, ref = np.random.default_rng(8), np.random.default_rng(8)
    for policy in schedule + schedule[::-1]:  # and back over the evicted ones
        assert rollout(mdp, policy, ours) == reference_rollout(mdp, policy, ref)
        assert oracle._policy_cum.cache_info().currsize <= bound
    assert ours.bit_generator.state == ref.bit_generator.state


def test_rollout_reads_any_array_like_policy_as_its_float64_array():
    rng = np.random.default_rng(9)
    mdp = random_mdp(rng, n_states=5, n_actions=3)
    policy = rng.dirichlet(np.ones(3), size=5)
    one_hot = np.eye(3, dtype=np.int64)[[0, 2, 1, 0, 2]]
    for base, forms in ((policy, [policy.tolist(), np.asfortranarray(policy)]),
                        (one_hot.astype(np.float64), [one_hot, one_hot.tolist(),
                                                      np.asfortranarray(one_hot)])):
        for form in forms:
            ours, ref = np.random.default_rng(10), np.random.default_rng(10)
            for _ in range(20):
                assert rollout(mdp, form, ours) == reference_rollout(mdp, base, ref)
            assert ours.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("mdp", [six_state_fixture()[0], deterministic_chain(),
                                 random_mdp(np.random.default_rng(3), n_states=7, n_actions=2)],
                         ids=["six-state", "chain", "random"])
def test_mdp_list_tables_equal_the_tensors(mdp):
    assert mdp._cum_next == np.cumsum(mdp.transitions, axis=2).tolist()
    assert mdp._cum_start == np.cumsum(mdp.start).tolist()
    assert mdp._terminal == mdp.terminal.tolist()
    assert all(type(flag) is bool for flag in mdp._terminal)
    assert mdp._reward_rows == mdp.rewards.tolist()
    assert all(type(r) is float for row in mdp._reward_rows for r in row)
    assert mdp._last_state == mdp.n_states - 1
    assert mdp._last_action == mdp.n_actions - 1


# -- simplex grid search --------------------------------------------------------------


def test_simplex_grid_shapes_and_sums():
    grid2 = simplex_grid(2, 0.01)
    grid3 = simplex_grid(3, 0.01)
    assert grid2.shape == (101, 2)
    assert grid3.shape == (5151, 3)
    assert np.allclose(grid2.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(grid3.sum(axis=1), 1.0, atol=1e-12)


def test_grid_zero_advantage_recovers_base_policy():
    pi_theta = np.array([0.3, 0.45, 0.25])
    best, objective = grid_optimal_kl_policy(pi_theta, np.zeros(3), beta=1.0, step=0.01)
    assert np.max(np.abs(best - pi_theta)) <= 0.01 + 1e-12
    assert objective <= 0.0 and objective > -1e-3


def test_grid_two_action_closed_form_example():
    best, _ = grid_optimal_kl_policy(np.array([0.5, 0.5]), np.array([1.0, -1.0]),
                                     beta=1.0, step=0.01)
    assert abs(best[0] - 0.8808) <= 0.01


def test_grid_large_beta_concentrates_on_argmax():
    best, _ = grid_optimal_kl_policy(np.array([0.25, 0.25, 0.5]),
                                     np.array([1.0, -0.2, -1.0]), beta=50.0, step=0.01)
    assert best[0] >= 0.99


def test_grid_rejects_too_many_actions():
    with pytest.raises(ValueError, match="at most 4"):
        grid_optimal_kl_policy(np.ones(5) / 5, np.zeros(5), beta=1.0)


def test_grid_rejects_coarse_step():
    # too coarse, not positive, NaN, and in range but no divisor of 1
    for step in (0.1, 0.03, 0.0, -0.01, float("nan"), 0.015):
        with pytest.raises(ValueError, match="step"):
            grid_optimal_kl_policy(np.ones(2) / 2, np.zeros(2), beta=1.0, step=step)


def test_closed_form_never_below_grid_max(rng):
    for _ in range(30):
        n = int(rng.integers(2, 5))
        pi_theta = rng.dirichlet(np.ones(n))
        adv = rng.uniform(-1.0, 1.0, size=n)
        beta = float(rng.choice([0.5, 1.0, 2.0, 5.0]))
        pi_closed = closed_form_kl_policy(pi_theta, adv, beta)
        j_closed = kl_objective(pi_closed, pi_theta, adv, beta)
        _, j_grid = grid_optimal_kl_policy(pi_theta, adv, beta, step=0.02)
        margin = optimality_margin(pi_theta, adv, beta, 0.02)
        assert j_closed >= j_grid - 1e-12
        assert j_closed - j_grid <= margin


def test_closed_form_matches_softmax_of_shifted_logits(rng):
    for _ in range(30):
        n = int(rng.integers(2, 5))
        pi_theta = rng.dirichlet(np.ones(n))
        adv = rng.uniform(-1.0, 1.0, size=n)
        beta = float(rng.uniform(0.1, 4.0))
        via_tilt = closed_form_kl_policy(pi_theta, adv, beta)
        via_logits = softmax(np.log(pi_theta) + beta * adv)
        assert np.allclose(via_tilt, via_logits, atol=1e-13)


def test_optimality_margin_positive_and_shrinks_with_step():
    pi_theta = np.array([0.2, 0.3, 0.5])
    adv = np.array([0.5, -0.5, 0.1])
    wide = optimality_margin(pi_theta, adv, beta=1.0, step=0.02)
    narrow = optimality_margin(pi_theta, adv, beta=1.0, step=0.01)
    assert 0.0 < narrow < wide
