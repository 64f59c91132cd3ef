"""Acceptance suite: oracle- and property-based exit criteria.

Each test prints one pass/fail line (run with ``pytest tests/test_acceptance.py -s``
to see them all). Tolerances and runtime budgets are pinned here, not
calibrated elsewhere. The criteria:

1. closed-form KL update beats exhaustive grid search (120 random instances)
2. zero update strength reproduces the base policy bit for bit
3. kNN value estimates converge toward exact DP values as memory grows
4. the tilted policy built from estimates converges in total variation
5. exploration branch frequency matches its configured rate; bonus is exact
6. count-weighted advantages center to zero under full action coverage
7. the engine out-learns the static baseline on the key-door game
8. reruns are byte-identical; the memory bank round-trips field-exact
9. config profiles carry the published defaults and reject bad ranges
"""

import time

import numpy as np
import pytest

from memsteer.config import ConfigError, EngineConfig
from memsteer.envs.tabular import six_state_fixture
from memsteer.envs.textgame import key_door_game, noisy_advisor_policy
from memsteer.estimator import EXPLORED, advantages, estimate_candidates
from memsteer.memory import IDENTITY_NORMALIZER, MemoryStore, StateKey, group_by_action
from memsteer.oracle import (exact_policy_values, grid_optimal_kl_policy,
                             optimality_margin)
from memsteer.policy import (Candidate, base_distribution, kl_objective, logit_update,
                             softmax)
from memsteer.proposer import CallablePolicyProposer
from memsteer.runner import (run_consistency_experiment, run_experiment,
                             summarize_consistency, write_consistency_csv)

from conftest import random_entries


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {status} - {name}{suffix}")


def neighborhood_of_size(n: int):
    store = MemoryStore()
    for _ in range(n):
        store.add(StateKey("probe spot"), "seen", 0.0)
    return store.retrieve(StateKey("probe spot"), k=n, threshold=0.0)


def unseen_value(neighborhood, groups, rate: float, rng: np.random.Generator):
    """Value of an action the neighborhood has never seen, bonus 5."""
    estimate = estimate_candidates(neighborhood, ["unseen"], rate, 5.0, rng,
                                   IDENTITY_NORMALIZER, groups)
    return estimate.per_action["unseen"]


# -- criterion 1: closed-form optimality ------------------------------------------


def test_criterion_1_closed_form_optimality():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    betas = (0.5, 1.0, 2.0, 5.0)
    step = 0.01
    instances = 120
    worst = -np.inf
    ok = True
    for i in range(instances):
        n = 2 + i % 3
        beta = betas[i % len(betas)]
        pi_theta = rng.dirichlet(np.ones(n))
        adv = rng.uniform(-1.0, 1.0, size=n)
        pi_updated = softmax(np.log(pi_theta) + beta * adv)
        j_updated = kl_objective(pi_updated, pi_theta, adv, beta)
        _, j_grid = grid_optimal_kl_policy(pi_theta, adv, beta, step=step)
        allowed = optimality_margin(pi_theta, adv, beta, step)
        gap = j_grid - j_updated
        worst = max(worst, gap)
        ok = ok and (gap <= allowed)
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30.0
    report(1, "closed-form optimality vs grid search", ok,
           f"{instances} instances, worst grid-minus-update gap {worst:.2e}, "
           f"{elapsed:.1f}s")
    assert ok
    assert worst <= 0.0 + 1e-12  # the update is never beaten at all


# -- criterion 2: zero-strength identity --------------------------------------------


def test_criterion_2_beta_zero_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        cands = [Candidate(action=f"a{i}", base_logit=float(rng.normal(0, 3)))
                 for i in range(n)]
        for cand in cands:
            cand.normalized_advantage = float(rng.uniform(-1, 1))
        logit_update(cands, beta=0.0)
        updated = softmax(np.array([c.updated_logit for c in cands]))
        base = base_distribution(cands)
        ok = ok and updated.tobytes() == base.tobytes()
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    report(2, "zero update strength reproduces base policy bit-for-bit", ok,
           f"1000 candidate sets, {elapsed:.2f}s")
    assert ok


# -- criteria 3 and 4: estimation consistency -----------------------------------------


@pytest.fixture(scope="module")
def consistency_run():
    mdp, policy = six_state_fixture()
    values = exact_policy_values(mdp, policy, gamma=0.9)
    scale = float(np.max(np.abs(values.v[:5])))
    started = time.perf_counter()
    points = run_consistency_experiment(
        mdp, policy, gamma=0.9, memory_sizes=[200, 20000], seeds=range(20), beta=1.0)
    elapsed = time.perf_counter() - started
    return summarize_consistency(points), scale, elapsed, points


def test_criterion_3_value_estimate_consistency(consistency_run):
    summary, scale, elapsed, _ = consistency_run
    small, large = summary[200]["median_v_error"], summary[20000]["median_v_error"]
    ok = (large < small) and (large < 0.05 * scale) and elapsed < 120.0
    report(3, "value estimates converge toward exact DP values", ok,
           f"median |V^-V|: N=200 {small:.4f} -> N=20000 {large:.4f}, "
           f"bound {0.05 * scale:.4f}, {elapsed:.0f}s")
    assert ok


def test_criterion_4_policy_update_consistency(consistency_run):
    summary, _, elapsed, _ = consistency_run
    tv = summary[20000]["median_tv"]
    ok = tv < 0.02 and elapsed < 120.0
    report(4, "tilted policy converges in total variation", ok,
           f"median TV at N=20000: {tv:.4f} < 0.02, {elapsed:.0f}s")
    assert ok


# -- criterion 5: exploration mechanics ------------------------------------------------


def test_criterion_5_exploration_mechanics():
    started = time.perf_counter()
    draws = 100_000
    ok = True
    details = []
    neighborhood = neighborhood_of_size(1)  # every return is 0, so v = 0
    groups = group_by_action(neighborhood)
    for rate in (0.05, 0.65):
        rng = np.random.default_rng(int(rate * 1000))
        hits = sum(unseen_value(neighborhood, groups, rate, rng).source == EXPLORED
                   for _ in range(draws))
        freq = hits / draws
        details.append(f"rate {rate}: freq {freq:.4f}")
        ok = ok and abs(freq - rate) <= 0.005
    for size in range(1, 21):
        sized = neighborhood_of_size(size)
        value = unseen_value(sized, group_by_action(sized), 1.0, np.random.default_rng(0))
        ok = ok and value.q == 5.0 / size  # exact, not approximate
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 5.0
    report(5, "exploration branch frequency and exact bonus", ok,
           f"{'; '.join(details)}; bonus exact for sizes 1..20; {elapsed:.1f}s")
    assert ok


# -- criterion 6: centered advantages ---------------------------------------------------


def test_criterion_6_count_weighted_advantages_center():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(1000):
        n_actions = int(rng.integers(1, 6))
        n_entries = int(rng.integers(n_actions, 60))
        store = MemoryStore()
        actions = [f"a{j}" for j in range(n_actions)]
        for i in range(n_entries):
            action = actions[i] if i < n_actions else actions[int(rng.integers(0, n_actions))]
            store.add(StateKey("spot"), action, float(rng.uniform(-10, 10)))
        neighborhood = store.retrieve(StateKey("spot"), k=n_entries, threshold=0.0)
        estimate = estimate_candidates(neighborhood, actions, exploration_rate=0.0,
                                       exploration_bonus=0.0, rng=np.random.default_rng(1),
                                       normalizer=IDENTITY_NORMALIZER,
                                       groups=group_by_action(neighborhood))
        adv = advantages(estimate)
        weighted = sum(estimate.per_action[a].count * adv[a] for a in actions)
        worst = max(worst, abs(weighted))
    ok = worst <= 1e-9
    report(6, "count-weighted advantages center to zero", ok,
           f"1000 neighborhoods, worst |sum| {worst:.2e}")
    assert ok


# -- criterion 7: end-to-end learning ----------------------------------------------------


@pytest.fixture(scope="module")
def game_runs():
    env_factory = lambda rng: key_door_game()
    proposer_factory = lambda env: CallablePolicyProposer(noisy_advisor_policy(env, 0.3))
    started = time.perf_counter()
    outcomes = []
    for seed in range(5):
        config = EngineConfig.profile("text-game", beta=2.0, episodes=30, seed=seed)
        engine, _, _ = run_experiment(config, env_factory, proposer_factory,
                                      mode="memsteer")
        static, _, _ = run_experiment(config, env_factory, proposer_factory,
                                      mode="static")
        outcomes.append((engine, static))
    elapsed = time.perf_counter() - started
    return outcomes, elapsed


def test_criterion_7_end_to_end_learning(game_runs):
    outcomes, elapsed = game_runs
    beats_static = sum(e.final_score > s.final_score for e, s in outcomes)
    curve_rises = sum(e.final_score >= e.avg_score for e, _ in outcomes)
    ok = beats_static >= 4 and curve_rises >= 4 and elapsed < 60.0
    finals = [f"{e.final_score:.0f}/{s.final_score:.0f}" for e, s in outcomes]
    report(7, "engine out-learns the static baseline on the key-door game", ok,
           f"final engine/static per seed: {', '.join(finals)}; "
           f"beats static {beats_static}/5, final>=avg {curve_rises}/5, {elapsed:.0f}s")
    assert ok


# -- criterion 8: determinism and persistence ----------------------------------------------


def test_criterion_8_determinism_and_persistence(tmp_path):
    env_factory = lambda rng: key_door_game()
    proposer_factory = lambda env: CallablePolicyProposer(noisy_advisor_policy(env, 0.3))
    identical = True
    for pair in range(2):
        dirs = []
        for run in range(2):
            out = tmp_path / f"rerun{pair}_{run}"
            config = EngineConfig.profile("text-game", beta=2.0, episodes=6, seed=11)
            run_experiment(config, env_factory, proposer_factory,
                           mode=("memsteer", "static")[pair], out_dir=out)
            dirs.append(out)
        for name in ("metrics.csv", "memory.jsonl", "records.jsonl", "summary.json"):
            identical = identical and \
                (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    mdp, policy = six_state_fixture()
    csvs = []
    for run in range(2):
        points = run_consistency_experiment(mdp, policy, gamma=0.9,
                                            memory_sizes=[200, 1000],
                                            seeds=range(4), beta=1.0)
        path = tmp_path / f"consistency{run}.csv"
        write_consistency_csv(path, points)
        csvs.append(path.read_bytes())
    identical = identical and csvs[0] == csvs[1]

    rng = np.random.default_rng(808)
    store = MemoryStore()
    for entry in random_entries(rng, 10_000):
        store.add(entry.state, entry.action, entry.return_value,
                  episode=entry.episode, step=entry.step)
    bank = tmp_path / "bank.jsonl"
    store.save(bank)
    roundtrip = MemoryStore.load(bank).entries == store.entries

    ok = identical and roundtrip
    report(8, "byte-identical reruns and field-exact persistence", ok,
           f"reruns identical: {identical}; 10k-entry round-trip exact: {roundtrip}")
    assert ok


# -- criterion 9: configuration defaults -----------------------------------------------------


def test_criterion_9_config_defaults_and_validation():
    text_game = EngineConfig.profile("text-game", beta=1.0)
    web = EngineConfig.profile("web", beta=1.0)
    defaults_ok = all([
        text_game.gamma == 0.5, text_game.k_neighbors == 10,
        text_game.similarity_threshold == 0.95, text_game.exploration_rate == 0.65,
        text_game.exploration_bonus == 5.0,
        text_game.n_candidates == 3, text_game.step_limit == 60,
        text_game.episodes == 50,
        web.gamma == 0.1, web.k_neighbors == 10, web.similarity_threshold == 0.8,
        web.exploration_rate == 0.05, web.exploration_bonus == 5.0,
        web.step_limit == 10, web.episodes == 50, web.seed == 0,
        web.task_similarity_threshold == 0.27,
        web.cross_task_history_weight == 0.7, web.cross_task_task_weight == 0.3,
    ])
    rejected = 0
    for field, value in [("gamma", -0.1), ("gamma", 1.1), ("exploration_rate", -0.5),
                         ("exploration_rate", 2.0), ("k_neighbors", 0),
                         ("similarity_threshold", -1.0), ("similarity_threshold", 1.01)]:
        try:
            EngineConfig(beta=1.0, **{field: value})
        except ConfigError:
            rejected += 1
    ok = defaults_ok and rejected == 7
    report(9, "published config defaults and range validation", ok,
           f"defaults exact: {defaults_ok}; {rejected}/7 bad settings rejected")
    assert ok
