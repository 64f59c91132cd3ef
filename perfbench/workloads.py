"""The benchmark's workloads, run through memsteer's public API only.

Each workload turns the run's seed into its inputs once (``prepare``) and then
runs identical passes (``run_pass``). Every pass after the first is a repeat
run with the same seed, so its output digests must equal the first pass's.
A pass times only the program's work; hashing, file checks and oracle
comparisons happen outside the timed region. README.md says why each
workload exists and which layer it stresses.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from memsteer.cli import build_env_factory, build_proposer_factory
from memsteer.config import EngineConfig
from memsteer.envs.tabular import six_state_fixture
from memsteer.memory import MemoryStore, StateKey
from memsteer.runner import (run_consistency_experiment, run_experiment,
                             summarize_consistency, write_consistency_csv)

RUN_OUTPUTS = ("metrics.csv", "summary.json", "records.jsonl", "memory.jsonl")


@dataclass
class PassResult:
    """What one pass did, how long the program took, and what it produced."""

    wall_s: float
    ops: int
    latencies_s: list[float]
    digests: dict[str, str]
    units: int
    unit_failures: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)
    output_bytes: dict[str, int] = field(default_factory=dict)
    reference_s: float = 0.0  # machine speed around the pass (run.py)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def distinct_shares(entries) -> dict[str, float]:
    """Distinct state and history token sets per stored row."""
    rows = len(entries) or 1
    return {"bank_distinct_state_share": len({e.state.tokens for e in entries}) / rows,
            "bank_distinct_history_share":
                len({e.state.history_tokens for e in entries}) / rows}


class TimedEnv:
    """Environment wrapper that times the engine's decision from outside.

    A latency sample is the time from ``reset``/``step`` returning to the next
    ``step`` call: abstraction, retrieval, proposal, estimation and sampling
    of one decision. The gap after an episode's last step (evaluation, memory
    update, next reset) is not a decision and is not sampled.
    """

    def __init__(self, inner, latencies: list[float], tracer=None):
        self.inner = inner
        self._latencies = latencies
        self._ready: float | None = None
        self._step = inner.step if tracer is None else tracer.wrap("envs.step", inner.step)
        self._reset = inner.reset if tracer is None else tracer.wrap("envs.step", inner.reset)

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def reset(self):
        self._ready = None
        obs = self._reset()
        self._ready = perf_counter()
        return obs

    def step(self, action):
        if self._ready is not None:
            self._latencies.append(perf_counter() - self._ready)
        obs = self._step(action)
        self._ready = perf_counter()
        return obs


class KeyDoor:
    """``run_experiment`` on the key-door game with the noisy advisor.

    With ``warm_episodes`` set, ``prepare`` first grows a bank with a learning
    run of that many episodes, always from seed ``WARM_SEED``, and every pass
    resumes from that bank through ``MemoryStore.load`` and
    ``run_experiment(memory=...)``; the run's seed drives the episodes played
    on it. The cost of a decision grows with the rows scored and with the
    bank's quality (a poor bank makes long episodes that grow it further), so
    a bank grown from each seed made decisions/s vary by 15% between seeds,
    and a fixed bank by 2%.
    """

    beta = 2.0
    optimal_mass = 0.3
    op = "decisions"
    WARM_SEED = 0

    def __init__(self, name: str, mode: str, episodes: int, warm_episodes: int = 0):
        self.name = name
        self.mode = mode
        self.episodes = episodes
        self.warm_episodes = warm_episodes

    def prepare(self, seed: int, out_dir: Path) -> None:
        self.config = EngineConfig.profile("text-game", self.beta, episodes=self.episodes,
                                           seed=seed)
        self.env_factory = build_env_factory("keydoor")
        self.proposer_factory = build_proposer_factory("noisy-advisor", self.optimal_mass)
        self.out_dir = out_dir
        self.bank = None
        if self.warm_episodes:
            warm_dir = out_dir / "warm"
            warm = EngineConfig.profile("text-game", self.beta, episodes=self.warm_episodes,
                                        seed=self.WARM_SEED)
            run_experiment(warm, self.env_factory, self.proposer_factory,
                           mode=self.mode, out_dir=warm_dir)
            self.bank = warm_dir / "memory.jsonl"

    def run_pass(self, tracer=None, check: bool = False) -> PassResult:
        latencies: list[float] = []

        def env_factory(rng):
            return TimedEnv(self.env_factory(rng), latencies, tracer)

        def proposer_factory(env):
            proposer = self.proposer_factory(env.inner)
            if tracer is not None:
                tracer.wrap_method(proposer, "propose", "proposer.propose")
            return proposer

        cfg = self.config
        memory = warm = None
        if self.bank is not None:
            memory = MemoryStore.load(self.bank, capacity=cfg.memory_capacity,
                                      state_weight=cfg.state_weight,
                                      history_weight=cfg.history_weight)
            warm = len(memory)
        start = perf_counter()
        report, memory, records = run_experiment(cfg, env_factory, proposer_factory,
                                                 mode=self.mode, out_dir=self.out_dir,
                                                 memory=memory)
        wall = perf_counter() - start

        files = {name: self.out_dir / name for name in RUN_OUTPUTS}
        result = PassResult(
            wall_s=wall, ops=sum(r.steps for r in records), latencies_s=latencies,
            digests={name: sha256_file(path) for name, path in files.items()},
            units=len(records), unit_failures=sum(1 for r in records if r.aborted),
            quality={"avg_score": report.avg_score, "memory_rows": len(memory),
                     "warm_rows": warm or 0, **distinct_shares(memory.entries)},
            output_bytes={name: path.stat().st_size for name, path in files.items()})
        if check:
            # the run's bank file holds the rows this run appended
            loaded = MemoryStore.load(files["memory.jsonl"])
            result.checks["bank_round_trip"] = loaded.entries == memory.entries[warm or 0:]
            result.checks["avg_score_finite"] = math.isfinite(report.avg_score)
            if self.mode == "static":
                result.checks["static_leaves_memory_empty"] = len(memory) == 0
        return result


class ConsistencySweep:
    """``run_consistency_experiment`` on the six-state MDP, k = ceil(sqrt(N)).

    The latency sample is the time between successive fill episodes (one
    oracle rollout plus its ``MemoryStore.add`` calls), taken through the
    experiment's public ``policy_schedule`` hook, which is called once per
    episode and returns the unchanged policy.
    """

    op = "entries written"
    sizes = (200, 2000, 20000)
    gamma = 0.9
    beta = 1.0
    threshold = 0.95

    name = "consistency-sweep"

    def prepare(self, seed: int, out_dir: Path) -> None:
        self.mdp, self.policy = six_state_fixture()
        self.seeds = [seed]  # one experiment seed keeps a pass short
        self.probes = [s for s in range(self.mdp.n_states) if not self.mdp.terminal[s]]
        self.out_dir = out_dir

    def run_pass(self, tracer=None, check: bool = False) -> PassResult:
        latencies: list[float] = []
        last: list[float | None] = [None]
        policy = self.policy

        def schedule(episode):
            now = perf_counter()
            if last[0] is not None:
                latencies.append(now - last[0])
            last[0] = now
            return policy

        start = perf_counter()
        points = run_consistency_experiment(self.mdp, policy, self.gamma, self.sizes,
                                            self.seeds, beta=self.beta,
                                            threshold=self.threshold,
                                            policy_schedule=schedule)
        wall = perf_counter() - start

        summary = summarize_consistency(points)
        csv_path = self.out_dir / "consistency.csv"
        write_consistency_csv(csv_path, points)
        summary_text = json.dumps({str(n): row for n, row in summary.items()},
                                  sort_keys=True)
        tv = summary[max(self.sizes)]["median_tv"]
        expected = len(self.sizes) * len(self.seeds) * len(self.probes)
        result = PassResult(
            wall_s=wall, ops=len(self.seeds) * sum(self.sizes), latencies_s=latencies,
            digests={"consistency.csv": sha256_file(csv_path),
                     "summary": hashlib.sha256(summary_text.encode()).hexdigest()},
            units=expected, unit_failures=expected - len(points),
            quality={"tv_error": tv})
        if check:
            result.checks["tv_error_finite"] = math.isfinite(tv)
            result.checks["errors_finite"] = all(
                math.isfinite(p.v_error) and math.isfinite(p.tv) for p in points)
        return result


class WebTraffic:
    """Synthetic web-agent traffic: page templates plus volatile tokens.

    Each page type has five stable structure tokens; a visit adds zero to
    three volatile id tokens, so most state sets are distinct but a query can
    still meet a stored row of the same page and history above the web
    profile's 0.8 threshold. Episodes walk a fixed page graph with skewed
    action choices, which makes histories repeat far more than states.
    """

    n_pages = 48
    n_structure_tokens = 200
    n_volatile_tokens = 5000
    volatile_counts = (0.2, 0.5, 0.25, 0.05)  # P(0..3 volatile tokens)
    action_skew = 1.5
    steps_per_episode = 10
    history_length = 3

    def __init__(self, seed: int, episodes: int):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x57EB]))
        pages = [" ".join(f"w{t}" for t in rng.choice(self.n_structure_tokens, 5,
                                                      replace=False))
                 for _ in range(self.n_pages)]
        actions = [[f"click a{p}x{j}" for j in range(4)] for p in range(self.n_pages)]
        links = rng.integers(0, self.n_pages, size=(self.n_pages, 4))
        weights = 1.0 / np.arange(1, 5) ** self.action_skew
        weights /= weights.sum()
        starts = rng.choice(self.n_pages, size=8, replace=False)
        self.episodes: list[list[tuple[StateKey, str, float]]] = []
        for _ in range(episodes):
            page = int(rng.choice(starts))
            history: list[str] = []
            steps = []
            for _ in range(self.steps_per_episode):
                n_volatile = rng.choice(len(self.volatile_counts), p=self.volatile_counts)
                volatile = " ".join(f"id{v}" for v in
                                    rng.integers(0, self.n_volatile_tokens, size=n_volatile))
                key = StateKey(f"{pages[page]} {volatile}".strip(),
                               " ".join(history[-self.history_length:]))
                choice = int(rng.choice(4, p=weights))
                steps.append((key, actions[page][choice], float(rng.normal())))
                history.append(actions[page][choice])
                page = int(links[page, choice])
            self.episodes.append(steps)


def brute_force_retrieve(entries, query: StateKey, k: int, threshold: float,
                         state_weight: float, history_weight: float):
    """Reference top-k: rank every row by ``StateKey.similarity``, ties most
    recent (latest inserted) first."""
    scored = [(query.similarity(e.state, state_weight, history_weight), pos, e)
              for pos, e in enumerate(entries)]
    kept = sorted((t for t in scored if t[0] >= threshold), key=lambda t: (-t[0], -t[1]))
    return [(e, sim) for sim, _, e in kept[:k]]


class WebChurn:
    """``MemoryStore`` alone under web-profile retrieval and FIFO eviction.

    Each simulated episode makes ten ``retrieve`` calls, one per step, then
    appends its ten triplets. The capacity is a third of the writes, so the
    store is full, and evicting, for most of the pass.
    """

    op = "queries"
    name = "web-churn"
    episodes = 150
    capacity = 500
    oracle_every = 25

    def prepare(self, seed: int, out_dir: Path) -> None:
        self.config = EngineConfig.profile("web", 1.0, memory_capacity=self.capacity)
        self.traffic = WebTraffic(seed, self.episodes).episodes
        self.out_dir = out_dir

    def run_pass(self, tracer=None, check: bool = False) -> PassResult:
        cfg = self.config
        k, threshold = cfg.k_neighbors, cfg.similarity_threshold
        store = MemoryStore(capacity=cfg.memory_capacity, state_weight=cfg.state_weight,
                            history_weight=cfg.history_weight)
        latencies: list[float] = []
        found = []
        oracle_s = 0.0
        mismatches = 0
        queries = 0
        start = perf_counter()
        for episode, steps in enumerate(self.traffic):
            for key, _, _ in steps:
                began = perf_counter()
                neighborhood = store.retrieve(key, k, threshold)
                latencies.append(perf_counter() - began)
                found.append(neighborhood.entries)
                if check and queries % self.oracle_every == 0:
                    began = perf_counter()
                    want = brute_force_retrieve(store.entries, key, k, threshold,
                                                cfg.state_weight, cfg.history_weight)
                    mismatches += list(neighborhood.entries) != want
                    oracle_s += perf_counter() - began
                queries += 1
            for step, (key, action, ret) in enumerate(steps):
                store.add(key, action, ret, episode=episode, step=step)
        wall = perf_counter() - start - oracle_s

        bank = self.out_dir / "memory.jsonl"
        store.save(bank)
        digest = hashlib.sha256()
        hits = 0
        for entries in found:
            hits += bool(entries)
            digest.update(repr([(e.time_index, sim) for e, sim in entries]).encode())
            digest.update(b"\n")
        writes = self.episodes * WebTraffic.steps_per_episode
        result = PassResult(
            wall_s=wall, ops=queries, latencies_s=latencies,
            digests={"retrievals": digest.hexdigest(), "memory.jsonl": sha256_file(bank)},
            units=queries,
            quality={"hit_rate": hits / queries, **distinct_shares(store.entries)})
        if check:
            loaded = MemoryStore.load(bank, capacity=cfg.memory_capacity,
                                      state_weight=cfg.state_weight,
                                      history_weight=cfg.history_weight)
            result.checks["bank_round_trip"] = loaded.entries == store.entries
            result.checks["fifo_capacity"] = len(store) == min(writes, self.capacity)
            result.checks["retrieve_matches_brute_force"] = mismatches == 0
        return result


WORKLOADS = {
    "keydoor-learn": lambda: KeyDoor("keydoor-learn", "memsteer", episodes=50,
                                     warm_episodes=80),
    "keydoor-static": lambda: KeyDoor("keydoor-static", "static", episodes=50),
    "consistency-sweep": ConsistencySweep,
    "web-churn": WebChurn,
}
