"""Independent ground truth: exact policy evaluation, Monte Carlo rollouts,
and exhaustive simplex grid search for the KL-constrained optimum.

These deliberately avoid the engine's own code paths. The grid search is a
complete enumeration rather than gradient ascent so it cannot silently
converge to the closed form's answer; its discretization error is bounded by
``optimality_margin``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from memsteer.policy import kl_objective

if TYPE_CHECKING:
    from memsteer.envs.tabular import TabularMDP


@dataclass
class ExactValues:
    """V, Q and centered advantages for a fixed policy, plus the final residual."""

    v: np.ndarray
    q: np.ndarray
    a: np.ndarray
    residual: float
    iterations: int


def exact_policy_values(mdp: TabularMDP, policy: np.ndarray, gamma: float | None = None,
                        tol: float = 1e-10, max_iterations: int = 100_000) -> ExactValues:
    """Iterative Bellman evaluation of a fixed stochastic policy.

    Terminal states are absorbing with zero value and zero action values.
    Every non-terminal policy row must be finite, non-negative and sum to 1
    within the MDP's row tolerance. Raises if the sup-norm residual is still
    above ``tol`` at the iteration cap.
    """
    from memsteer.envs.tabular import ROW_SUM_TOL

    if gamma is None:
        gamma = mdp.gamma
    if not 0.0 <= gamma <= 1.0:  # also false for NaN
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    if tol <= 0.0:
        raise ValueError("tol must be > 0")
    policy = np.asarray(policy, dtype=np.float64)
    if policy.shape != (mdp.n_states, mdp.n_actions):
        raise ValueError(f"policy shape {policy.shape} does not match the MDP")
    live = ~mdp.terminal
    rows = policy[live]
    if not (np.all(np.isfinite(rows)) and np.all(rows >= 0.0)
            and np.all(np.abs(rows.sum(axis=1) - 1.0) <= ROW_SUM_TOL)):
        raise ValueError("every non-terminal policy row must be finite, non-negative "
                         "and sum to 1")
    v = np.zeros(mdp.n_states)
    residual = math.inf
    for iteration in range(1, max_iterations + 1):
        q = mdp.rewards + gamma * mdp.transitions @ v
        q[mdp.terminal] = 0.0
        v_next = np.where(live, (policy * q).sum(axis=1), 0.0)
        residual = float(np.max(np.abs(v_next - v)))
        v = v_next
        if residual < tol:
            break
    else:
        raise RuntimeError(f"policy evaluation did not converge: residual {residual:g} "
                           f"after {max_iterations} iterations")
    q = mdp.rewards + gamma * mdp.transitions @ v
    q[mdp.terminal] = 0.0
    a = q - v[:, None]
    return ExactValues(v=v, q=q, a=a, residual=residual, iterations=iteration)


@lru_cache(maxsize=8)
def _policy_cum(shape: tuple[int, ...], data: bytes) -> tuple[tuple[float, ...], ...]:
    """Row cumsums of the float64 policy with this C-order content, as tuples
    because every caller shares them. ``np.add.accumulate`` is the ufunc
    ``np.cumsum`` calls, without its dispatch cost. Raises ValueError at the
    first entry that is negative or not finite, since a bounded draw needs
    non-decreasing rows; a memo hit skips that check."""
    policy = np.frombuffer(data).reshape(shape)
    bad = np.flatnonzero(~(np.isfinite(policy) & (policy >= 0.0)))
    if bad.size:
        row, column = divmod(int(bad[0]), shape[1])
        raise ValueError(f"policy entry ({row}, {column}) is {policy.item(bad[0])!r}; "
                         "every entry must be finite and non-negative")
    rows = np.add.accumulate(policy, axis=1)
    return tuple(map(tuple, rows.tolist()))


def rollout(mdp: TabularMDP, policy: np.ndarray, rng, start_state: int | None = None,
            step_cap: int = 1000):
    """One episode under the policy: (states, actions, rewards) lists.

    ``rng`` is read only through ``rng.random()``, one uniform float in
    [0, 1) a call: a ``np.random.Generator`` or any object with that method,
    such as the block source the consistency fill passes.

    Draws are inverse-CDF with ``bisect.bisect_right``, the index
    ``np.searchsorted(side="right")`` gives, bounded by the table's last index
    in place of a clamp to it: actions on the policy cumsum, next states on
    the MDP's list tables built at its construction, which also give the
    terminal flags and rewards. The bound needs non-decreasing rows, so a
    policy with a negative or non-finite entry raises ValueError; a row
    summing below 1 is legal. The policy cumsum comes from a memo of the last
    8 distinct policies, keyed by the shape and C-order bytes of the policy
    as a float64 array: a fixed or repeating policy is summed and checked
    once, and one changed in place is summed and checked afresh.
    """
    policy = np.asarray(policy, dtype=np.float64)
    policy_cum = _policy_cum(policy.shape, policy.tobytes())
    s = mdp.sample_start(rng) if start_state is None else start_state
    last_action = mdp._last_action
    terminal = mdp._terminal
    reward_rows = mdp._reward_rows
    sample_next = mdp.sample_next
    states, actions, rewards = [], [], []
    for _ in range(step_cap):
        if terminal[s]:
            break
        a = bisect_right(policy_cum[s], rng.random(), 0, last_action)
        states.append(s)
        actions.append(a)
        rewards.append(reward_rows[s][a])
        s = sample_next(s, a, rng)
    return states, actions, rewards


def episode_returns(rewards, gamma: float) -> list[float]:
    """Discounted tail sums of one reward sequence (backward recursion)."""
    out = [0.0] * len(rewards)
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        out[t] = acc
    return out


def monte_carlo_returns(mdp: TabularMDP, policy: np.ndarray, start_state: int,
                        gamma: float, episodes: int, rng: np.random.Generator,
                        step_cap: int = 1000) -> tuple[float, float]:
    """Sample mean and standard error of the discounted return from one state."""
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    samples = np.empty(episodes)
    for i in range(episodes):
        _, _, rewards = rollout(mdp, policy, rng, start_state=start_state, step_cap=step_cap)
        samples[i] = episode_returns(rewards, gamma)[0] if rewards else 0.0
    mean = float(samples.mean())
    stderr = float(samples.std(ddof=1) / math.sqrt(episodes)) if episodes > 1 else 0.0
    return mean, stderr


@lru_cache(maxsize=8)
def simplex_grid(n_actions: int, step: float) -> np.ndarray:
    """All probability vectors over ``n_actions`` with coordinates on a step grid."""
    units = round(1.0 / step)
    if abs(units * step - 1.0) > 1e-9:
        raise ValueError(f"step {step} must evenly divide 1")
    if n_actions < 1:
        raise ValueError("need at least one action")

    def compositions(parts: int, total: int):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for tail in compositions(parts - 1, total - head):
                yield (head, *tail)

    grid = np.array(list(compositions(n_actions, units)), dtype=np.float64)
    return grid / units


def check_grid_step(step: float) -> None:
    """Raise ValueError unless ``grid_optimal_kl_policy`` takes ``step``: it
    must lie in (0, 0.02] and evenly divide 1."""
    if not 0.0 < step <= 0.02:  # also false for NaN
        raise ValueError(f"grid step must lie in (0, 0.02] for a faithful oracle, got {step}")
    simplex_grid(1, step)  # a one-point grid: raises unless the step divides 1


def grid_optimal_kl_policy(pi_theta: np.ndarray, advantages: np.ndarray, beta: float,
                           step: float = 0.01) -> tuple[np.ndarray, float]:
    """Exhaustively maximize the KL-regularized objective on the simplex grid.

    Tractable for <= 4 actions at step 0.01 (~177k grid points). Grid points
    putting mass on zero-probability base actions evaluate to -inf and can
    never win.
    """
    pi_theta = np.asarray(pi_theta, dtype=np.float64)
    adv = np.asarray(advantages, dtype=np.float64)
    n = pi_theta.shape[0]
    if n > 4:
        raise ValueError("grid search supports at most 4 actions")
    check_grid_step(step)
    grid = simplex_grid(n, step)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(grid > 0.0, grid * np.log(np.where(grid > 0.0, grid, 1.0)), 0.0)
        log_theta = np.where(pi_theta > 0.0, np.log(np.where(pi_theta > 0.0, pi_theta, 1.0)),
                             -np.inf)
        cross = grid @ np.where(np.isfinite(log_theta), log_theta, 0.0)
        # -inf objective wherever the grid point uses a zero-probability base action
        invalid = (grid[:, log_theta == -np.inf] > 0.0).any(axis=1) if np.any(
            log_theta == -np.inf) else np.zeros(len(grid), dtype=bool)
    objective = grid @ adv - (plogp.sum(axis=1) - cross) / beta
    objective[invalid] = -np.inf
    best = int(np.argmax(objective))
    return grid[best].copy(), float(objective[best])


def optimality_margin(pi_theta: np.ndarray, advantages: np.ndarray, beta: float,
                      step: float) -> float:
    """Bound on how far the grid maximum can fall below the true maximum.

    Any simplex point has a grid point within L1 distance d = n * step.
    Between two distributions at L1 distance d the objective moves at most
    d * max|A| (advantage term) plus (1/beta) times d * max|log pi_theta|
    (cross-entropy term) plus the entropy modulus tv*log(n-1) + h(tv) with
    tv = d/2 (binary entropy h). The returned value is that total, i.e. an
    effective Lipschitz bound times the grid step.
    """
    pi_theta = np.asarray(pi_theta, dtype=np.float64)
    adv = np.asarray(advantages, dtype=np.float64)
    n = pi_theta.shape[0]
    d = min(n * step, 2.0)
    tv = min(d / 2.0, 0.5)
    adv_term = d * float(np.max(np.abs(adv))) if adv.size else 0.0
    support = pi_theta > 0.0
    cross_term = d * float(np.max(np.abs(np.log(pi_theta[support]))))
    if 0.0 < tv < 1.0:
        h = -tv * math.log(tv) - (1.0 - tv) * math.log(1.0 - tv)
    else:
        h = 0.0
    entropy_term = tv * math.log(max(n - 1, 1)) + h
    return adv_term + (cross_term + entropy_term) / beta


def closed_form_kl_policy(pi_theta: np.ndarray, advantages: np.ndarray,
                          beta: float) -> np.ndarray:
    """The exponential-tilt solution: pi_theta * exp(beta * A), renormalized.

    Each exp is ``math.exp``, so the bits do not depend on numpy's CPU dispatch.
    """
    pi_theta = np.asarray(pi_theta, dtype=np.float64)
    adv = np.asarray(advantages, dtype=np.float64)
    weights = pi_theta * np.array([math.exp(x) for x in (beta * (adv - adv.max())).tolist()])
    return weights / weights.sum()


def expected_advantage_identity_gap(values: ExactValues, policy: np.ndarray) -> float:
    """Max over states of |E_{a~pi}[A(s,a)]|; exactly zero in theory."""
    return float(np.max(np.abs((policy * values.a).sum(axis=1))))


__all__ = [
    "ExactValues",
    "check_grid_step",
    "closed_form_kl_policy",
    "episode_returns",
    "exact_policy_values",
    "expected_advantage_identity_gap",
    "grid_optimal_kl_policy",
    "monte_carlo_returns",
    "optimality_margin",
    "rollout",
    "simplex_grid",
    "kl_objective",
]
