"""End-to-end orchestration: episode loop, memory updates, experiments.

Per decision step the engine abstracts the observation, retrieves a
neighborhood, asks the frozen proposer for candidates, augments them with
remembered actions, estimates advantages, shifts the logits, and samples.
Memory is read-only during an episode and updated only from completed
episodes. Three modes: ``memsteer`` (the full engine), ``static`` (no
retrieval, base policy only), and ``greedy-memory`` (an ablation that picks
the argmax known action value when one exists).

Experiments, task suites and replay all play their episodes through
:meth:`Session.play`, and a :class:`Session` is the one place that builds a
memory store from a config; :mod:`memsteer.rundir` writes and reads its
files. The cyclic garbage collector is paused while an episode plays
(:func:`_collector_paused`), so the collections an episode's allocations
trigger run at its boundary, outside every decision; an episode makes no
reference cycle, so the pause defers work and frees nothing later. The
consistency fill (:func:`run_consistency_experiment` around
:func:`fill_memory_from_rollouts`) is the second paused phase: every row it
adds survives in the store, so a collection over the store frees nothing, and
the collections its allocations trigger run once, after it and before the
probes. On the consistency-sweep benchmark this took the p99 of a fill sample
from 0.0445 to 0.0361 ms. Cyclic garbage a caller's ``policy_schedule``
makes waits until the fill ends.

One root seed fans out into independent per-episode streams (policy sampling,
exploration draws, environment noise), so identical (config, seed, fixtures)
reproduce identical metrics and memory files byte for byte.
"""

from __future__ import annotations

import csv
import dataclasses
import gc
import json
import logging
import math
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Sequence

import numpy as np

from memsteer.config import MODES, EngineConfig
from memsteer.envs.abstraction import abstract_state
from memsteer.envs.tabular import TabularMDP
from memsteer.estimator import KNOWN, advantage_vector, estimate_candidates
from memsteer.memory import (ActionGroups, ActionNormalizer, IDENTITY_NORMALIZER, MemoryEntry,
                             MemoryStore, TaskFilter, _is_count, group_by_action)
from memsteer.oracle import closed_form_kl_policy, episode_returns, exact_policy_values, rollout
from memsteer.policy import (Candidate, Decision, augment_candidates, logit_update,
                             softmax_sample, valid_memory_actions)
from memsteer.proposer import Proposer, ProposerError, ProposerRequest
from memsteer.returns import (EnvironmentTruthEvaluator, EvaluationOutcome, TrajectoryStep,
                              discounted_returns)
from memsteer.rundir import (bank_before, encode_episode_record, open_run, read_record,
                             write_outputs, write_summary)

log = logging.getLogger(__name__)

# (config field, MemoryStore attribute) pairs a session's store must agree on
STORE_FIELDS = (("memory_capacity", "capacity"), ("state_weight", "state_weight"),
                ("history_weight", "history_weight"))


def seed_streams(root_seed: int, episode_index: int) -> dict[str, np.random.Generator]:
    """Independent generator streams for one episode of one experiment."""
    children = np.random.SeedSequence([root_seed, episode_index]).spawn(3)
    return {
        "policy": np.random.default_rng(children[0]),
        "estimator": np.random.default_rng(children[1]),
        "env": np.random.default_rng(children[2]),
    }


@dataclass
class EpisodeRecord:
    episode_index: int
    trajectory: list[TrajectoryStep]
    decisions: list[Decision]
    final_score: float
    success: bool
    truncated: bool = False
    aborted: bool = False
    abort_reason: str = ""
    evaluator_fallback: bool = False
    memory_size_at_start: int = 0
    memory_size: int = 0  # len(store) after the episode's update, set by Session.play
    rewards: list[float] | None = None

    @property
    def steps(self) -> int:
        return len(self.trajectory)


@dataclass
class MetricsReport:
    """Score-based metrics of one sequential experiment."""

    scores: list[float]
    successes: list[bool]

    @property
    def avg_score(self) -> float:
        return sum(self.scores) / len(self.scores)

    @property
    def final_score(self) -> float:
        return self.scores[-1]

    @property
    def avg_success(self) -> float:
        return sum(self.successes) / len(self.successes)

    @property
    def final_success(self) -> float:
        return float(self.successes[-1])

    def running_avg(self) -> list[float]:
        """Learning-curve series: mean score over episodes 1..i."""
        out, acc = [], 0.0
        for i, s in enumerate(self.scores, start=1):
            acc += s
            out.append(acc / i)
        return out

    @staticmethod
    def matrix_metrics(score_matrix: np.ndarray) -> tuple[float, float]:
        """(Avg, Final) of a tasks-by-episodes score matrix: Avg is the mean
        over every attempt, Final the mean of the last episode column."""
        matrix = np.asarray(score_matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.size == 0:
            raise ValueError("score matrix must be 2-D and non-empty")
        return float(matrix.mean()), float(matrix[:, -1].mean())


def run_episode(env, proposer: Proposer, memory: MemoryStore, config: EngineConfig,
                streams: dict[str, np.random.Generator], normalizer: ActionNormalizer,
                mode: str = "memsteer", episode_index: int = 0,
                task_filter=None) -> EpisodeRecord:
    """Play one episode; memory is read-only throughout. A ``ProposerError``
    ends the episode as aborted, keeping the steps taken before it."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    obs = env.reset()
    history: list[str] = []
    steps: list[TrajectoryStep] = []
    decisions: list[Decision] = []
    prev_score = obs.score
    truncated = aborted = False
    abort_reason = ""
    memory_size_at_start = len(memory)

    for _ in range(config.step_limit):
        if obs.done:
            break
        state = abstract_state(obs, history, config.history_length)
        neighborhood = None
        if mode != "static":
            neighborhood = memory.retrieve(state, config.k_neighbors,
                                           config.similarity_threshold,
                                           task_filter=task_filter)
        request = ProposerRequest(state.text, state.history, obs.valid_actions or None,
                                  config.n_candidates)
        try:
            response = proposer.propose(request)
        except ProposerError as exc:
            log.warning("episode %d aborted: %s", episode_index, exc)
            aborted, abort_reason = True, str(exc)
            break

        groups = None
        memory_actions: list[str] = []
        if neighborhood:
            groups = group_by_action(neighborhood, normalizer)
            memory_actions = valid_memory_actions(groups, request.valid_actions, normalizer)
        candidates = augment_candidates(response.candidates, memory_actions, normalizer)

        decision = _decide(candidates, neighborhood, groups, config, streams, mode, normalizer)
        decisions.append(decision)
        action = decision.action
        next_obs = env.step(action)
        steps.append(TrajectoryStep(state, action, next_obs.text,
                                    float(next_obs.score) - float(prev_score)))
        history.append(action)
        prev_score = next_obs.score
        obs = next_obs
    else:
        truncated = not obs.done

    # an abort leaves obs not done, so it is never a success
    success = bool(obs.done and not truncated and getattr(env, "success", False))
    return EpisodeRecord(
        episode_index=episode_index, trajectory=steps,
        decisions=decisions, final_score=float(obs.score), success=success,
        truncated=truncated, aborted=aborted, abort_reason=abort_reason,
        memory_size_at_start=memory_size_at_start)


def _decide(candidates: list[Candidate], neighborhood, groups: ActionGroups | None,
            config: EngineConfig, streams: dict[str, np.random.Generator], mode: str,
            normalizer: ActionNormalizer) -> Decision:
    estimate = None
    if neighborhood:  # always None in static mode
        estimate = estimate_candidates(
            neighborhood, [c.action for c in candidates],
            0.0 if mode == "greedy-memory" else config.exploration_rate,
            config.exploration_bonus, streams["estimator"], normalizer, groups)

    if mode == "greedy-memory" and estimate is not None:
        known = [(i, estimate.per_action[c.action])
                 for i, c in enumerate(candidates)
                 if estimate.per_action[c.action].source == KNOWN]
        if known:
            chosen = max(known, key=lambda iv: iv[1].q)[0]
            distribution = np.zeros(len(candidates))
            distribution[chosen] = 1.0
            return Decision(candidates, distribution, chosen)

    # the full engine shifts the logits by the advantages (zero when memory is
    # silent); static mode and the greedy fallback sample the base policy
    shift = None
    if mode == "memsteer" and estimate is not None:
        shift = advantage_vector(estimate, config.epsilon)
    for cand in candidates:
        cand.normalized_advantage = 0.0 if shift is None else shift[cand.action]
    if mode == "memsteer":
        logit_update(candidates, config.beta)
    return softmax_sample(candidates, streams["policy"])


def update_memory(record: EpisodeRecord, memory: MemoryStore, evaluator,
                  gamma: float) -> list[MemoryEntry]:
    """Evaluate a completed episode and store one triplet per step."""
    if record.aborted or not record.trajectory:
        return []
    outcome: EvaluationOutcome = evaluator.evaluate(record.trajectory,
                                                    success=record.success)
    record.rewards = list(outcome.rewards)
    record.evaluator_fallback = outcome.used_fallback
    returns = discounted_returns(outcome.rewards, gamma)
    return [memory.add(step.state, step.action, g, record.episode_index, t)
            for t, (step, g) in enumerate(zip(record.trajectory, returns))]


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector for the block. It is turned back on
    afterwards, also when the block raises, only if it was on before, so a
    caller that turned it off keeps it off."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_on:
            gc.enable()


class Session:
    """One frozen policy playing episodes against one evolving memory: the
    config, mode, store, action normalizer and evaluator. A supplied store
    must have the config's capacity and similarity weights, since the outputs
    report the config's."""

    def __init__(self, config: EngineConfig, mode: str = "memsteer", evaluator=None,
                 memory: MemoryStore | None = None):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.config = config
        self.mode = mode
        self.evaluator = evaluator or EnvironmentTruthEvaluator(
            terminal_bonus=config.terminal_bonus)
        if memory is None:
            memory = MemoryStore(capacity=config.memory_capacity,
                                 state_weight=config.state_weight,
                                 history_weight=config.history_weight)
        for field, attr in STORE_FIELDS:
            if getattr(memory, attr) != getattr(config, field):
                raise ValueError(f"supplied store has {attr}={getattr(memory, attr)!r} "
                                 f"but config {field} is {getattr(config, field)!r}")
        self.memory = memory
        self.normalizer = ActionNormalizer(config.action_rules)

    def play(self, env_factory, proposer_factory, episode: int, stream: int | None = None,
             task_filter: TaskFilter | None = None) -> tuple[EpisodeRecord, list[MemoryEntry]]:
        """Play episode ``episode`` on the seed streams of ``stream`` (default
        ``episode``), then, unless the mode is static, store its triplets.
        Returns the record, with the store's size afterwards, and the entries
        stored.

        The cyclic collector is paused while :func:`run_episode` runs and
        restored as it was found, so no decision waits on a collection: those
        the episode's allocations trigger run during the update that follows.
        """
        streams = seed_streams(self.config.seed, episode if stream is None else stream)
        env = env_factory(streams["env"])
        proposer = proposer_factory(env)
        with _collector_paused():
            record = run_episode(env, proposer, self.memory, self.config, streams,
                                 self.normalizer, mode=self.mode, episode_index=episode,
                                 task_filter=task_filter)
        stored = [] if self.mode == "static" else update_memory(
            record, self.memory, self.evaluator, self.config.gamma)
        record.memory_size = len(self.memory)
        return record, stored


def run_experiment(config: EngineConfig, env_factory, proposer_factory,
                   mode: str = "memsteer", evaluator=None, out_dir=None,
                   memory: MemoryStore | None = None, run: dict | None = None,
                   ) -> tuple[MetricsReport, MemoryStore, list[EpisodeRecord]]:
    """Sequential episodes sharing one evolving memory (static mode never
    touches it). With ``out_dir``, writes the run directory as
    :mod:`memsteer.rundir` lays it out, and ``run``, when given, as
    summary.json's ``"run"``. The session checks its arguments first.

    ``env_factory(rng)`` builds a fresh environment per episode;
    ``proposer_factory(env)`` binds the proposer to it.
    """
    session = Session(config, mode, evaluator=evaluator, memory=memory)
    records = []
    with nullcontext() if out_dir is None else open_run(out_dir) as files:
        for episode in range(config.episodes):
            record, stored = session.play(env_factory, proposer_factory, episode)
            if files is not None:
                write_outputs(files, record, stored)
            records.append(record)
        report = MetricsReport(scores=[r.final_score for r in records],
                               successes=[r.success for r in records])
        if files is not None:
            write_summary(out_dir, config, mode, report, len(session.memory), run)
    return report, session.memory, records


def run_task_suite(config: EngineConfig, tasks: dict, mode: str = "memsteer",
                   evaluator=None, task_texts: dict | None = None,
                   ) -> tuple[dict, np.ndarray, dict]:
    """Sequential multi-task protocol: every task runs ``config.episodes``
    episodes in turn.

    ``tasks`` maps task id -> (env_factory, proposer_factory). With
    ``memory_scope == "global"`` all tasks share one evolving store (and, when
    ``task_similarity_threshold`` is set and a task has an entry in
    ``task_texts``, retrieval is gated by the cross-task filter); with
    ``"per-task"`` each task owns an isolated store. One session plays each
    store's episodes, and all sessions share one evaluator. Returns per-task
    reports, the tasks-by-episodes score matrix, and the stores used.
    """
    task_texts = task_texts or {}
    sessions: dict[str, Session] = {}
    reports: dict[str, MetricsReport] = {}
    matrix = np.zeros((len(tasks), config.episodes))
    for row, (task_id, (env_factory, proposer_factory)) in enumerate(tasks.items()):
        scope = task_id if config.memory_scope == "per-task" else "global"
        if scope not in sessions:
            sessions[scope] = Session(config, mode, evaluator=evaluator)
            evaluator = sessions[scope].evaluator
        task_filter = None
        if scope == "global" and config.task_similarity_threshold is not None \
                and task_id in task_texts:
            task_filter = TaskFilter(task_text=task_texts[task_id],
                                     threshold=config.task_similarity_threshold,
                                     history_weight=config.cross_task_history_weight,
                                     task_weight=config.cross_task_task_weight)
        records = [sessions[scope].play(env_factory, proposer_factory, episode,
                                        stream=row * config.episodes + episode,
                                        task_filter=task_filter)[0]
                   for episode in range(config.episodes)]
        reports[task_id] = MetricsReport(scores=[r.final_score for r in records],
                                         successes=[r.success for r in records])
        matrix[row] = [r.final_score for r in records]
    return reports, matrix, {scope: s.memory for scope, s in sessions.items()}


def replay_episode(run_dir, summary: tuple, episode: int, env_factory,
                   proposer_factory) -> tuple[dict, bool] | None:
    """Re-run an episode of the run written to ``run_dir``, whose
    :func:`~memsteer.rundir.read_summary` is ``summary``; return the fresh
    record dict and whether it equals ``records.jsonl``'s, or None if absent.

    The store starts from the bank rows of earlier episodes (a static run's
    bank is empty), inserted in order so that a capacity evicts as it did. A
    run that started from a store of its own does not replay.
    """
    recorded = read_record(run_dir, episode)
    if recorded is None:
        return None
    config, mode, _ = summary
    session = Session(config, mode)
    for entry in bank_before(run_dir, episode):
        session.memory.add(entry.state, entry.action, entry.return_value, entry.episode, entry.step)
    record, _ = session.play(env_factory, proposer_factory, episode)
    fresh = json.loads(encode_episode_record(record))
    return fresh, fresh == recorded


# -- consistency experiments ----------------------------------------------------


@dataclass
class ConsistencyPoint:
    """Estimation error at one (memory size, seed, probe state)."""

    n_entries: int
    seed: int
    probe_state: int
    neighborhood_size: int
    v_error: float
    q_error: float
    a_error: float
    tv: float


def default_k(n: int) -> int:
    """Neighborhood schedule k = ceil(sqrt(N)): grows without bound, k/N -> 0."""
    return int(math.ceil(math.sqrt(n)))


_DRAW_BLOCK = 1024  # uniforms a block source draws per numpy call


class _BlockUniforms:
    """A generator's ``random()`` read from blocks of ``_DRAW_BLOCK`` draws.

    ``Generator.random(n)`` returns exactly the next n values that n scalar
    ``random()`` calls would, so this yields the generator's own sequence and
    pays numpy's call overhead once a block instead of once a draw. The
    generator runs up to one block ahead of the values handed out, so nothing
    else may draw from it.
    """

    __slots__ = ("random",)

    def __init__(self, rng: np.random.Generator):
        blocks = iter(lambda: rng.random(_DRAW_BLOCK).tolist(), None)
        self.random = chain.from_iterable(blocks).__next__


def fill_memory_from_rollouts(mdp: TabularMDP, policy_of_episode, gamma: float,
                              n_entries: int, rng, store: MemoryStore) -> None:
    """Roll episodes until the store holds ``n_entries`` triplets.

    ``rng`` is read only through ``rng.random()``, one uniform float in
    [0, 1) a call: a ``np.random.Generator`` or any object with that method.
    ``policy_of_episode(i)`` may drift across episodes; returns are realized
    discounted tails, i.e. unbiased but noisy action-value samples. A store
    whose capacity is below ``n_entries`` could never fill, nor could any
    store when every start state is terminal (each rollout is empty), so both
    are rejected before the first rollout.
    """
    if store.capacity is not None and store.capacity < n_entries:
        raise ValueError(f"store capacity {store.capacity} is below n_entries={n_entries}")
    if not np.any(mdp.start[~mdp.terminal] > 0.0):
        raise ValueError("every start state is terminal, so no rollout yields a triplet")
    room = n_entries - len(store)
    episode = 0
    # the MDP's own key and name tables, read as state_key and action_name do
    state_keys, action_names, add = mdp._state_keys, mdp._action_names, store.add
    while room > 0:
        policy = policy_of_episode(episode)
        states, actions, rewards = rollout(mdp, policy, rng)
        returns = episode_returns(rewards, gamma)
        taken = len(states) if len(states) < room else room  # min() would cost a call
        for t in range(taken):
            add(state_keys[states[t]], action_names[actions[t]], returns[t], episode, t)
        room -= taken
        episode += 1


def run_consistency_experiment(mdp: TabularMDP, policy, gamma: float,
                               memory_sizes: Sequence[int], seeds: Sequence[int],
                               beta: float, k_of: Callable[[int], int] = default_k,
                               threshold: float = 0.95,
                               policy_schedule: Callable[[int], np.ndarray] | None = None,
                               ) -> list[ConsistencyPoint]:
    """Error curves of the retrieval estimates against the exact oracle.

    Memory is filled with Monte Carlo returns (optionally under a drifting
    policy schedule), estimates are read back through the real retrieval
    path at every non-terminal state, and compared with dynamic-programming
    values of the query-time policy. ``tv`` is the total-variation gap
    between the KL-tilted policies built from estimated vs exact advantages.

    Every size's ``k_of(n)`` is checked before the first rollout: an integer
    >= 1 (as :meth:`MemoryStore.retrieve` requires) and at most ``n``. Each
    fill runs with the cyclic collector paused and restored as it was found,
    also when the fill raises. Every row a fill adds survives in the store,
    so a collection during it would free nothing; paused, the collections
    its allocations trigger run once when it ends, not inside a fill episode
    (consistency-sweep p99: 0.0445 -> 0.0361 ms). Cyclic garbage that
    ``policy_schedule`` makes waits until the fill ends.
    """
    for n in memory_sizes:
        if n < 1:
            raise ValueError(f"memory size {n} must be >= 1")
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"beta must be a finite number >= 0, got {beta}")
    if not 0.0 <= threshold <= 1.0:  # also false for NaN
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
    ks = [k_of(n) for n in memory_sizes]
    for n, k in zip(memory_sizes, ks):
        if not _is_count(k):  # retrieve's own rule, checked before any fill
            raise ValueError(f"k must be an integer >= 1, got {k!r}")
        if k > n:
            raise ValueError(f"k={k} exceeds memory size {n}")
    policy = np.asarray(policy, dtype=np.float64)
    exact = exact_policy_values(mdp, policy, gamma)
    probe_states = [s for s in range(mdp.n_states) if not mdp.terminal[s]]
    schedule = policy_schedule or (lambda episode: policy)
    points: list[ConsistencyPoint] = []
    for n, k in zip(memory_sizes, ks):
        for seed in seeds:
            rng = np.random.default_rng(np.random.SeedSequence([seed, n]))
            estimator_rng = np.random.default_rng(np.random.SeedSequence([seed, n, 1]))
            store = MemoryStore()
            with _collector_paused():
                fill_memory_from_rollouts(mdp, schedule, gamma, n, _BlockUniforms(rng), store)
            for s in probe_states:
                neighborhood = store.retrieve(mdp.state_key(s), k, threshold)
                if not neighborhood:
                    continue
                estimate = estimate_candidates(
                    neighborhood, [mdp.action_name(a) for a in range(mdp.n_actions)],
                    exploration_rate=0.0, exploration_bonus=0.0, rng=estimator_rng,
                    normalizer=IDENTITY_NORMALIZER, groups=group_by_action(neighborhood))
                q_hat = np.array([estimate.per_action[mdp.action_name(a)].q
                                  for a in range(mdp.n_actions)])
                known = np.array([estimate.per_action[mdp.action_name(a)].source == KNOWN
                                  for a in range(mdp.n_actions)])
                v_hat = estimate.v
                a_hat = q_hat - v_hat
                pi_star = closed_form_kl_policy(policy[s], exact.a[s], beta)
                pi_hat = closed_form_kl_policy(policy[s], a_hat, beta)
                points.append(ConsistencyPoint(
                    n_entries=n, seed=seed, probe_state=s,
                    neighborhood_size=len(neighborhood),
                    v_error=abs(v_hat - exact.v[s]),
                    q_error=float(np.max(np.abs(q_hat - exact.q[s])[known]))
                    if known.any() else float("nan"),
                    a_error=float(np.max(np.abs(a_hat - exact.a[s])[known]))
                    if known.any() else float("nan"),
                    tv=0.5 * float(np.abs(pi_hat - pi_star).sum()),
                ))
    return points


def summarize_consistency(points: Iterable[ConsistencyPoint]) -> dict[int, dict[str, float]]:
    """Median over seeds of the per-seed mean over probe states."""
    by_n_seed: dict[tuple[int, int], list[ConsistencyPoint]] = {}
    for p in points:
        by_n_seed.setdefault((p.n_entries, p.seed), []).append(p)
    per_seed: dict[int, dict[str, list[float]]] = {}
    for (n, _), group in sorted(by_n_seed.items()):
        buckets = per_seed.setdefault(n, {"v_error": [], "q_error": [], "a_error": [],
                                          "tv": []})
        buckets["v_error"].append(float(np.mean([p.v_error for p in group])))
        buckets["q_error"].append(float(np.nanmean([p.q_error for p in group])))
        buckets["a_error"].append(float(np.nanmean([p.a_error for p in group])))
        buckets["tv"].append(float(np.mean([p.tv for p in group])))
    return {n: {f"median_{name}": float(np.median(vals))
                for name, vals in buckets.items()}
            for n, buckets in per_seed.items()}


def write_consistency_csv(path, points: Sequence[ConsistencyPoint]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in dataclasses.fields(ConsistencyPoint)])
        for p in points:
            writer.writerow([getattr(p, f.name) for f in dataclasses.fields(ConsistencyPoint)])
