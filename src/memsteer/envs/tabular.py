"""Finite MDPs with explicit transition/reward tensors.

States abstract to single-token keys ("s0", "s1", ...) so retrieval over a
memory filled from rollouts reduces to exact state matching. The six-state
fixture is tuned so that kNN value estimates at N=20000 samples sit well
inside the convergence tolerances checked by the acceptance suite.

Construction builds every table a draw or a rollout reads, as plain Python
values:

* the ``.tolist()`` of ``np.cumsum`` over each transition row and over the
  start distribution, searched with ``bisect.bisect_right``. That returns the
  index ``np.searchsorted(side="right")`` would, with one ``rng.random()``
  per draw and no numpy call;
* the terminal flags and the reward rows, the ``.tolist()`` of ``terminal``
  and ``rewards``;
* the last state and action indices, each draw's ``hi`` bound: on a
  non-decreasing row, such as a cumsum of the non-negative entries checked
  here, ``bisect_right(row, u, 0, last)`` is ``min(bisect_right(row, u), last)``;
* one ``StateKey`` per state and one name per action.

``mdp_step`` and ``TabularEnvAdapter`` read these tables too, so a step makes
no numpy call.

The tables are read from the tensors only then, so mutating the tensors
afterwards is not supported.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from memsteer.envs import Observation
from memsteer.memory import StateKey

ROW_SUM_TOL = 1e-12


@dataclass
class TabularMDP:
    transitions: np.ndarray          # (S, A, S) next-state probabilities
    rewards: np.ndarray              # (S, A)
    terminal: np.ndarray             # (S,) bool
    start: np.ndarray                # (S,) start-state distribution
    gamma: float = 0.99
    _cum_next: list[list[list[float]]] = field(init=False, repr=False)
    _cum_start: list[float] = field(init=False, repr=False)
    _terminal: list[bool] = field(init=False, repr=False)
    _reward_rows: list[list[float]] = field(init=False, repr=False)
    _last_state: int = field(init=False, repr=False)
    _last_action: int = field(init=False, repr=False)
    _state_keys: list[StateKey] = field(init=False, repr=False)
    _action_names: list[str] = field(init=False, repr=False)

    def __post_init__(self):
        self.transitions = np.asarray(self.transitions, dtype=np.float64)
        self.rewards = np.asarray(self.rewards, dtype=np.float64)
        self.terminal = np.asarray(self.terminal, dtype=bool)
        self.start = np.asarray(self.start, dtype=np.float64)
        s, a, s2 = self.transitions.shape
        if s != s2 or self.rewards.shape != (s, a):
            raise ValueError("transition/reward tensor shapes disagree")
        if self.terminal.shape != (s,) or self.start.shape != (s,):
            raise ValueError("terminal/start vector shapes disagree")
        row_sums = self.transitions.sum(axis=2)
        if np.max(np.abs(row_sums - 1.0)) > ROW_SUM_TOL:
            raise ValueError("every transition row must sum to 1")
        # also false for NaN, which the sum checks let through
        if not np.all(self.transitions >= 0.0):
            raise ValueError("transition probabilities must be non-negative")
        if not np.all(np.isfinite(self.rewards)):
            raise ValueError("rewards must be finite")
        if abs(self.start.sum() - 1.0) > ROW_SUM_TOL or not np.all(self.start >= 0.0):
            raise ValueError("start distribution must be a probability vector")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        self._cum_next = np.cumsum(self.transitions, axis=2).tolist()
        self._cum_start = np.cumsum(self.start).tolist()
        self._terminal = self.terminal.tolist()
        self._reward_rows = self.rewards.tolist()
        self._last_state = s - 1
        self._last_action = a - 1
        self._state_keys = [StateKey(text=f"s{i}") for i in range(s)]
        self._action_names = [f"a{i}" for i in range(a)]

    @property
    def n_states(self) -> int:
        return self.transitions.shape[0]

    @property
    def n_actions(self) -> int:
        return self.transitions.shape[1]

    def sample_start(self, rng: np.random.Generator) -> int:
        """A start state by inverse CDF, the search bounded by the last state."""
        return bisect_right(self._cum_start, rng.random(), 0, self._last_state)

    def sample_next(self, s: int, a: int, rng: np.random.Generator) -> int:
        """A next state by inverse CDF, the search bounded by the last state."""
        return bisect_right(self._cum_next[s][a], rng.random(), 0, self._last_state)

    def state_key(self, s: int) -> StateKey:
        """The key ``StateKey("s<s>")``, one shared instance per state."""
        return self._state_keys[s]

    def action_name(self, a: int) -> str:
        return self._action_names[a]


def mdp_step(mdp: TabularMDP, s: int, a: int,
             rng: np.random.Generator) -> tuple[int, float, bool]:
    """One transition: (next state, reward, done). A terminal state has none."""
    if not 0 <= s <= mdp._last_state or not 0 <= a < len(mdp._action_names):
        raise IndexError(f"state/action ({s}, {a}) out of range "
                         f"({mdp.n_states} states, {mdp.n_actions} actions)")
    terminal = mdp._terminal
    if terminal[s]:
        raise ValueError(f"cannot step from terminal state {s}")
    s2 = mdp.sample_next(s, a, rng)
    return s2, mdp._reward_rows[s][a], terminal[s2]


def six_state_fixture() -> tuple[TabularMDP, np.ndarray]:
    """The canonical 6-state, 3-action stochastic chain and its fixed policy.

    Action 0 advances one state with p=0.90, action 1 jumps two with p=0.75,
    action 2 advances with p=0.65 but can slip backward. Rewards are
    deterministic per (state, action), which keeps return noise small
    relative to the value scale.
    """
    n, term = 6, 5
    P = np.zeros((n, 3, n))
    R = np.zeros((n, 3))
    base = (0.10, 0.05, 0.14)
    for s in range(term):
        P[s, 0, min(s + 1, term)] += 0.90
        P[s, 0, s] += 0.10
        P[s, 1, min(s + 2, term)] += 0.75
        P[s, 1, s] += 0.25
        P[s, 2, min(s + 1, term)] += 0.65
        P[s, 2, s] += 0.21
        P[s, 2, max(s - 1, 0)] += 0.14
        for a in range(3):
            R[s, a] = base[a] + 0.02 * s
    for a in range(3):
        P[term, a, term] = 1.0
    terminal = np.zeros(n, dtype=bool)
    terminal[term] = True
    start = np.zeros(n)
    start[:term] = 1.0 / term
    mdp = TabularMDP(transitions=P, rewards=R, terminal=terminal, start=start, gamma=0.9)
    policy = np.tile(np.array([0.40, 0.30, 0.30]), (n, 1))
    return mdp, policy


def deterministic_chain(n_states: int = 3, end_reward: float = 1.0,
                        gamma: float = 0.5) -> TabularMDP:
    """Single-action chain 0 -> 1 -> ... with a reward on the final transition."""
    if n_states < 2:
        raise ValueError("need at least a start and a terminal state")
    P = np.zeros((n_states, 1, n_states))
    R = np.zeros((n_states, 1))
    for s in range(n_states - 1):
        P[s, 0, s + 1] = 1.0
    P[n_states - 1, 0, n_states - 1] = 1.0
    R[n_states - 2, 0] = end_reward
    terminal = np.zeros(n_states, dtype=bool)
    terminal[-1] = True
    start = np.zeros(n_states)
    start[0] = 1.0
    return TabularMDP(transitions=P, rewards=R, terminal=terminal, start=start, gamma=gamma)


class TabularEnvAdapter:
    """Episode interface over a TabularMDP for engine-level tests.

    Observations are the single-token state names; the score accumulates raw
    rewards, so the environment-truth evaluator sees per-step rewards as
    score deltas.
    """

    def __init__(self, mdp: TabularMDP, rng: np.random.Generator, step_cap: int = 1000):
        self.mdp = mdp
        self.rng = rng
        self.step_cap = step_cap

    def _observe(self) -> Observation:
        done = self.mdp._terminal[self.s] or self.steps >= self.step_cap
        actions = [] if done else list(self.mdp._action_names)  # a fresh list per observation
        return Observation(text=f"s{self.s}", score=self.score, done=done,
                           valid_actions=actions)

    def reset(self):
        self.s = self.mdp.sample_start(self.rng)
        self.score = 0.0
        self.steps = 0
        return self._observe()

    @property
    def success(self) -> bool:
        return self.mdp._terminal[self.s]

    def step(self, action: str):
        a = int(action.lstrip("a"))
        s2, r, _ = mdp_step(self.mdp, self.s, a, self.rng)
        self.s = s2
        self.score += r
        self.steps += 1
        return self._observe()


def random_mdp(rng: np.random.Generator, n_states: int = 6, n_actions: int = 3,
               escape_prob: float = 0.1, gamma: float = 0.9) -> TabularMDP:
    """Random episodic MDP: Dirichlet rows mixed with a jump to the terminal state.

    The terminal mixing guarantees every policy terminates, so Monte Carlo
    rollouts are well defined.
    """
    term = n_states - 1
    P = np.zeros((n_states, n_actions, n_states))
    for s in range(term):
        for a in range(n_actions):
            row = rng.dirichlet(np.ones(n_states))
            P[s, a] = (1.0 - escape_prob) * row
            P[s, a, term] += escape_prob
            P[s, a] /= P[s, a].sum()
    for a in range(n_actions):
        P[term, a, term] = 1.0
    R = rng.uniform(-1.0, 1.0, size=(n_states, n_actions))
    R[term] = 0.0
    terminal = np.zeros(n_states, dtype=bool)
    terminal[term] = True
    start = np.zeros(n_states)
    start[:term] = 1.0 / term
    return TabularMDP(transitions=P, rewards=R, terminal=terminal, start=start, gamma=gamma)
