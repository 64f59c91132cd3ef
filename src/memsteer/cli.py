"""Command-line interface.

Subcommands:

* ``run`` — sequential-episode experiment on a built-in fixture environment.
* ``consistency`` — estimation-error curves against the exact oracle.
* ``verify-optimality`` — closed-form update vs grid-search sweep.
* ``inspect-memory`` — summarize a memory bank file.
* ``replay`` — recompute one recorded episode and check it matches.

Config files are JSON (see memsteer.config); flags override file values. A
bad config value, a malformed bank record, a file that cannot be opened or a
config file that does not parse ends the command with one ``error:`` line.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from memsteer.config import ConfigError, EngineConfig, PROFILES
from memsteer.memory import MemoryFormatError, read_bank
from memsteer.oracle import check_grid_step
from memsteer.runner import (MODES, replay_episode, run_consistency_experiment,
                             run_experiment, summarize_consistency, write_consistency_csv)

log = logging.getLogger(__name__)

ENVIRONMENTS = ("keydoor", "six-mdp")
PROPOSERS = ("noisy-advisor", "uniform", "fixture-policy")


def build_env_factory(name: str):
    if name == "keydoor":
        from memsteer.envs.textgame import key_door_game

        game = key_door_game()  # read and checked once: a game never mutates its config

        def fresh_game(rng):
            episode = copy.copy(game)
            # new mutable tables, so no game aliases the template's; all else
            # is shared. run_episode's reset builds the one first observation
            # (and the tables once more)
            episode.reset_tables()
            return episode

        return fresh_game
    if name == "six-mdp":
        from memsteer.envs.tabular import TabularEnvAdapter, six_state_fixture

        mdp, _ = six_state_fixture()
        return lambda rng: TabularEnvAdapter(mdp, rng, step_cap=200)
    raise ValueError(f"unknown environment {name!r}; choose from {ENVIRONMENTS}")


def build_proposer_factory(name: str, optimal_mass: float):
    if name == "noisy-advisor":
        from memsteer.envs.textgame import noisy_advisor_policy
        from memsteer.proposer import CallablePolicyProposer

        return lambda env: CallablePolicyProposer(noisy_advisor_policy(env, optimal_mass))
    if name == "uniform":
        from memsteer.proposer import CallablePolicyProposer, uniform_policy

        return lambda env: CallablePolicyProposer(uniform_policy)
    if name == "fixture-policy":
        from memsteer.envs.tabular import six_state_fixture
        from memsteer.proposer import TabularProposer

        mdp, policy = six_state_fixture()
        table = {f"s{s}": {f"a{a}": float(policy[s, a]) for a in range(mdp.n_actions)}
                 for s in range(mdp.n_states)}
        return lambda env: TabularProposer(table)
    raise ValueError(f"unknown proposer {name!r}; choose from {PROPOSERS}")


def load_config(args) -> EngineConfig:
    """The config of ``--config`` or ``--profile``, with every config flag the
    parsed ``args`` carry (an EngineConfig field name set to a value) on top."""
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(EngineConfig)
                 if getattr(args, f.name, None) is not None}
    if args.config:
        return EngineConfig.load(args.config, **overrides)
    profile = args.profile or "text-game"
    if "beta" not in overrides:
        raise SystemExit("error: --beta is required (it has no published default)")
    beta = overrides.pop("beta")
    return EngineConfig.profile(profile, beta, **overrides)


def add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--profile", choices=PROFILES,
                        help="built-in defaults when no config file is given")
    parser.add_argument("--beta", type=float, help="logit-update strength")
    parser.add_argument("--gamma", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--episodes", type=int)
    parser.add_argument("--step-limit", dest="step_limit", type=int)
    parser.add_argument("--k-neighbors", dest="k_neighbors", type=int)
    parser.add_argument("--similarity-threshold", dest="similarity_threshold", type=float)
    parser.add_argument("--exploration-rate", dest="exploration_rate", type=float)
    parser.add_argument("--exploration-bonus", dest="exploration_bonus", type=float)
    parser.add_argument("--history-length", dest="history_length", type=int)
    parser.add_argument("--n-candidates", dest="n_candidates", type=int)
    parser.add_argument("--memory-capacity", dest="memory_capacity", type=int)


def int_at_least(text: str, low: int) -> int:
    """argparse type body: an integer of at least ``low``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"{value} is below {low}")
    return value


def positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    return int_at_least(text, 1)


def non_negative_int(text: str) -> int:
    """argparse type: an integer of at least 0."""
    return int_at_least(text, 0)


def unit_float(text: str) -> float:
    """argparse type: a number in [0, 1]."""
    value = float(text)
    if not 0.0 <= value <= 1.0:  # also false for NaN
        raise argparse.ArgumentTypeError(f"{value} is not in [0, 1]")
    return value


def mass_float(text: str) -> float:
    """argparse type: a number in (0, 1]."""
    value = float(text)
    if not 0.0 < value <= 1.0:  # also false for NaN
        raise argparse.ArgumentTypeError(f"{value} is not in (0, 1]")
    return value


def non_negative_float(text: str) -> float:
    """argparse type: a finite number of at least 0."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"{value} is not a finite number >= 0")
    return value


def positive_ints(text: str) -> list[int]:
    """argparse type: comma-separated integers of at least 1."""
    return [positive_int(part) for part in text.split(",")]


def positive_floats(text: str) -> list[float]:
    """argparse type: comma-separated finite numbers above 0."""
    values = [float(part) for part in text.split(",")]
    for value in values:
        if not (math.isfinite(value) and value > 0.0):
            raise argparse.ArgumentTypeError(f"{value} is not a finite number > 0")
    return values


def grid_step(text: str) -> float:
    """argparse type: a step the grid oracle takes (``oracle.check_grid_step``)."""
    value = float(text)
    try:
        check_grid_step(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def check_pairing(env: str, proposer: str) -> None:
    needs = {"noisy-advisor": "keydoor", "fixture-policy": "six-mdp"}
    if proposer in needs and env != needs[proposer]:
        raise SystemExit(f"error: proposer {proposer!r} only works with "
                         f"--env {needs[proposer]}")


def cmd_run(args) -> int:
    config = load_config(args)
    check_pairing(args.env, args.proposer)
    env_factory = build_env_factory(args.env)
    proposer_factory = build_proposer_factory(args.proposer, args.optimal_mass)
    report, memory, records = run_experiment(config, env_factory, proposer_factory,
                                             mode=args.mode, out_dir=args.out)
    aborted = sum(1 for r in records if r.aborted)
    print(f"mode={args.mode} env={args.env} episodes={config.episodes} "
          f"avg={report.avg_score:.3f} final={report.final_score:.3f} "
          f"avg_success={report.avg_success:.3f} final_success={report.final_success:.3f} "
          f"memory={len(memory)} aborted={aborted}")
    if args.out:
        print(f"wrote metrics.csv, summary.json, records.jsonl, memory.jsonl to {args.out}")
    return 0


def cmd_consistency(args) -> int:
    from memsteer.envs.tabular import six_state_fixture

    mdp, policy = six_state_fixture()
    points = run_consistency_experiment(
        mdp, policy, gamma=args.gamma, memory_sizes=args.sizes,
        seeds=range(args.seeds), beta=args.beta, threshold=args.similarity_threshold)
    summary = summarize_consistency(points)
    for n in args.sizes:
        row = summary.get(n)
        if row is None:
            print(f"N={n:>7d}  no probe retrieval found a neighbour")
            continue
        print(f"N={n:>7d}  median |V^-V|={row['median_v_error']:.5f}  "
              f"median |Q^-Q|={row['median_q_error']:.5f}  "
              f"median |A^-A|={row['median_a_error']:.5f}  "
              f"median TV={row['median_tv']:.5f}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_consistency_csv(out / "consistency.csv", points)
        (out / "consistency_summary.json").write_text(
            json.dumps({str(n): row for n, row in summary.items()},
                       indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote consistency.csv, consistency_summary.json to {args.out}")
    return 0


def cmd_verify_optimality(args) -> int:
    from memsteer.oracle import (grid_optimal_kl_policy, optimality_margin,
                                 closed_form_kl_policy)
    from memsteer.policy import kl_objective

    rng = np.random.default_rng(args.seed)
    betas = args.betas
    worst_gap = -np.inf
    failures = 0
    for i in range(args.instances):
        n = 2 + i % 3
        beta = betas[i % len(betas)]
        pi_theta = rng.dirichlet(np.ones(n))
        adv = rng.uniform(-1.0, 1.0, size=n)
        pi_closed = closed_form_kl_policy(pi_theta, adv, beta)
        j_closed = kl_objective(pi_closed, pi_theta, adv, beta)
        _, j_grid = grid_optimal_kl_policy(pi_theta, adv, beta, step=args.step)
        margin = optimality_margin(pi_theta, adv, beta, args.step)
        gap = j_grid - j_closed
        worst_gap = np.maximum(worst_gap, gap)  # unlike max, keeps a NaN
        if not (math.isfinite(gap) and gap <= margin):  # a NaN gap is no evidence
            failures += 1
            print(f"FAIL instance {i}: grid-minus-closed gap {gap:.3e} "
                  f"(allowed {margin:.3e})")
    status = "PASS" if failures == 0 else "FAIL"
    print(f"{status}: {args.instances} instances, worst grid-minus-closed gap "
          f"{worst_gap:.3e} (negative means the closed form won everywhere)")
    return 0 if failures == 0 else 1


def cmd_inspect_memory(args) -> int:
    entries = list(read_bank(args.bank))
    if not entries:
        print(f"{args.bank}: empty memory bank")
        return 0
    returns = [e.return_value for e in entries]
    actions: dict[str, int] = {}
    states: set[str] = set()
    for e in entries:
        actions[e.action] = actions.get(e.action, 0) + 1
        states.add(e.state.text)
    episodes = {e.episode for e in entries}
    print(f"{args.bank}: {len(entries)} entries, {len(states)} distinct states, "
          f"{len(episodes)} episodes, time range "
          f"[{entries[0].time_index}, {entries[-1].time_index}]")
    print(f"returns: min={min(returns):.4f} mean={sum(returns) / len(returns):.4f} "
          f"max={max(returns):.4f}")
    ranked = sorted(actions.items(), key=lambda kv: (-kv[1], kv[0]))
    for action, count in ranked[: args.top]:
        print(f"  {count:>6d}  {action}")
    return 0


def cmd_replay(args) -> int:
    config = EngineConfig.load(args.config)
    check_pairing(args.env, args.proposer)
    env_factory = build_env_factory(args.env)
    proposer_factory = build_proposer_factory(args.proposer, args.optimal_mass)
    with open(args.records, "r", encoding="utf-8") as fh:
        records = (json.loads(line) for line in fh if line.strip())
        recorded = next((r for r in records if r["episode"] == args.episode), None)
    if recorded is None:
        print(f"episode {args.episode} not found in {args.records}")
        return 1
    _, matches = replay_episode(config, env_factory, proposer_factory, args.mode,
                                recorded, bank_path=args.memory)
    print(f"episode {args.episode}: {'MATCH' if matches else 'MISMATCH'}")
    return 0 if matches else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="memsteer",
        description="Test-time policy improvement from episodic memory.")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a sequential-episode experiment")
    add_config_flags(p_run)
    p_run.add_argument("--env", choices=ENVIRONMENTS, default="keydoor")
    p_run.add_argument("--proposer", choices=PROPOSERS, default="noisy-advisor")
    p_run.add_argument("--optimal-mass", dest="optimal_mass", type=mass_float, default=0.3)
    p_run.add_argument("--mode", choices=MODES, default="memsteer")
    p_run.add_argument("--out", help="output directory for metrics/records/memory")
    p_run.set_defaults(func=cmd_run)

    p_cons = sub.add_parser("consistency", help="estimation-error curves vs the oracle")
    p_cons.add_argument("--sizes", type=positive_ints, default=[200, 2000, 20000],
                        help="comma-separated memory sizes")
    p_cons.add_argument("--seeds", type=positive_int, default=20)
    p_cons.add_argument("--beta", type=non_negative_float, default=1.0)
    p_cons.add_argument("--gamma", type=unit_float, default=0.9)
    p_cons.add_argument("--similarity-threshold", dest="similarity_threshold",
                        type=unit_float, default=0.95)
    p_cons.add_argument("--out")
    p_cons.set_defaults(func=cmd_consistency)

    p_opt = sub.add_parser("verify-optimality",
                           help="closed-form update vs exhaustive grid search")
    p_opt.add_argument("--instances", type=positive_int, default=120)
    p_opt.add_argument("--step", type=grid_step, default=0.01)
    p_opt.add_argument("--betas", type=positive_floats, default="0.5,1,2,5",
                       help="comma-separated betas")
    p_opt.add_argument("--seed", type=int, default=0)
    p_opt.set_defaults(func=cmd_verify_optimality)

    p_mem = sub.add_parser("inspect-memory", help="summarize a memory bank file")
    p_mem.add_argument("bank")
    p_mem.add_argument("--top", type=non_negative_int, default=10)
    p_mem.set_defaults(func=cmd_inspect_memory)

    p_rep = sub.add_parser("replay", help="recompute a recorded episode")
    p_rep.add_argument("--config", required=True)
    p_rep.add_argument("--records", required=True)
    p_rep.add_argument("--episode", type=int, required=True)
    p_rep.add_argument("--memory", help="memory bank file backing the snapshot")
    p_rep.add_argument("--env", choices=ENVIRONMENTS, default="keydoor")
    p_rep.add_argument("--proposer", choices=PROPOSERS, default="noisy-advisor")
    p_rep.add_argument("--optimal-mass", dest="optimal_mass", type=mass_float, default=0.3)
    p_rep.add_argument("--mode", choices=MODES, default="memsteer")
    p_rep.set_defaults(func=cmd_replay)

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    # both are raised only where a config or a bank is read, before any output
    try:
        return args.func(args)
    except (ConfigError, MemoryFormatError) as exc:
        raise SystemExit(f"error: {exc}") from None
    except OSError as exc:  # a file that cannot be opened, an input or an output
        if exc.filename is None:
            raise
        raise SystemExit(f"error: {exc.filename}: {exc.strerror}") from None


if __name__ == "__main__":
    sys.exit(main())
