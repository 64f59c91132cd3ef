"""Command-line interface.

Subcommands:

* ``run`` — sequential-episode experiment on a built-in fixture environment.
* ``consistency`` — estimation-error curves against the exact oracle.
* ``verify-optimality`` — closed-form update vs grid-search sweep.
* ``inspect-memory`` — summarize a memory bank file.
* ``replay`` — recompute one episode of a run directory and check it matches.

Config files are JSON (see memsteer.config); flags override file values. Exit
status 2: the input was refused and nothing ran, with one ``error:`` line on
stderr, worded by argparse or by :func:`main` alone; 1: the command ran and its
answer is negative (a FAIL, a MISMATCH, no such episode).

Each command imports what it runs inside the function that runs it, so
importing this module loads only ``memsteer.config``, ``memsteer.memory`` and
``memsteer.tokens``. Without a bytecode cache every module loaded is compiled
at start-up, and ``inspect-memory`` never compiles the runner.
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

from memsteer.config import MODES, PROFILES, ConfigError, EngineConfig, meets
from memsteer.memory import MemoryFormatError, read_bank

ENVIRONMENTS = ("keydoor", "six-mdp")
PROPOSERS = ("noisy-advisor", "uniform", "fixture-policy")


def build_env_factory(name: str):
    if name == "keydoor":
        from memsteer.envs.textgame import key_door_game

        # read and checked once; never reset, so it has no episode to share
        game = key_door_game()
        return lambda rng: copy.copy(game)
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
    if "beta" not in overrides:
        raise ConfigError("--beta is required (it has no published default)")
    return EngineConfig.profile(args.profile or "text-game", overrides.pop("beta"), **overrides)


def add_config_flags(parser: argparse.ArgumentParser) -> None:
    # a file's missing fields take the field defaults, never a profile's
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--config", help="JSON config file")
    source.add_argument("--profile", choices=PROFILES,
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


def bounded(kind: type, bound: str):
    """argparse type: a finite ``kind`` (int or float) that meets ``bound`` of
    EngineConfig's bounds table (``config.meets``)."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise argparse.ArgumentTypeError(f"{text!r} is not {noun}") from None
        if not meets(value, bound):
            raise argparse.ArgumentTypeError(f"must {bound}, got {value}")
        return value
    return parse


def comma_list(parse):
    """argparse type: comma-separated values, each read by the argparse type ``parse``."""
    return lambda text: [parse(part) for part in text.split(",")]


def grid_step(text: str) -> float:
    """argparse type: a step the grid oracle takes (``oracle.check_grid_step``)."""
    from memsteer.oracle import check_grid_step

    value = float(text)
    try:
        check_grid_step(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def check_run(run) -> dict:
    """``run`` if it is a ``{"env", "proposer", "optimal_mass"}`` object of a
    known, paired env and proposer and a mass in (0, 1], as ``memsteer run``
    records it in summary.json, else ConfigError."""
    if not isinstance(run, dict):
        raise ConfigError(f"run must be a JSON object, got {run!r}")
    env, proposer, mass = run.get("env"), run.get("proposer"), run.get("optimal_mass")
    for key, value, known in (("env", env, ENVIRONMENTS), ("proposer", proposer, PROPOSERS)):
        if value not in known:
            raise ConfigError(f"run {key} must be one of {known}, got {value!r}")
    needs = {"noisy-advisor": "keydoor", "fixture-policy": "six-mdp"}
    if proposer in needs and env != needs[proposer]:
        raise ConfigError(f"proposer {proposer!r} only works with --env {needs[proposer]}")
    if type(mass) not in (int, float) or not meets(mass, "lie in (0, 1]"):  # a bool is neither
        raise ConfigError(f"run optimal_mass must lie in (0, 1], got {mass!r}")
    return run


def cmd_run(args) -> int:
    from memsteer.rundir import OUTPUTS
    from memsteer.runner import run_experiment

    config = load_config(args)
    run = check_run({"env": args.env, "proposer": args.proposer,
                     "optimal_mass": args.optimal_mass})
    report, memory, records = run_experiment(
        config, build_env_factory(args.env),
        build_proposer_factory(args.proposer, args.optimal_mass),
        mode=args.mode, out_dir=args.out, run=run)
    aborted = sum(1 for r in records if r.aborted)
    print(f"mode={args.mode} env={args.env} episodes={config.episodes} "
          f"avg={report.avg_score:.3f} final={report.final_score:.3f} "
          f"avg_success={report.avg_success:.3f} final_success={report.final_success:.3f} "
          f"memory={len(memory)} aborted={aborted}")
    if args.out:
        print(f"wrote {', '.join(OUTPUTS)} to {args.out}")
    return 0


def cmd_consistency(args) -> int:
    from memsteer.envs.tabular import six_state_fixture
    from memsteer.runner import (run_consistency_experiment, summarize_consistency,
                                 write_consistency_csv)

    if args.out:  # made first, so a directory that cannot be made is refused before the run
        Path(args.out).mkdir(parents=True, exist_ok=True)
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
    from memsteer.rundir import RECORDS, read_summary
    from memsteer.runner import replay_episode

    # the config, mode, env, proposer and mass the run recorded; summary.json names a bad one
    summary = read_summary(args.run_dir, check_run)
    _, _, run = summary
    replayed = replay_episode(args.run_dir, summary, args.episode, build_env_factory(run["env"]),
                              build_proposer_factory(run["proposer"], run["optimal_mass"]))
    if replayed is None:
        print(f"episode {args.episode} not found in {Path(args.run_dir) / RECORDS}")
        return 1
    print(f"episode {args.episode}: {'MATCH' if replayed[1] else 'MISMATCH'}")
    return 0 if replayed[1] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="memsteer",
        description="Test-time policy improvement from episodic memory.")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a sequential-episode experiment")
    add_config_flags(p_run)
    p_run.add_argument("--mode", choices=MODES, default="memsteer")
    p_run.add_argument("--env", choices=ENVIRONMENTS, default="keydoor")
    p_run.add_argument("--proposer", choices=PROPOSERS, default="noisy-advisor")
    p_run.add_argument("--optimal-mass", dest="optimal_mass",
                       type=bounded(float, "lie in (0, 1]"), default=0.3)
    p_run.add_argument("--out", help="output directory for metrics/records/memory")
    p_run.set_defaults(func=cmd_run)

    p_cons = sub.add_parser("consistency", help="estimation-error curves vs the oracle")
    p_cons.add_argument("--sizes", type=comma_list(bounded(int, "be >= 1")),
                        default=[200, 2000, 20000], help="comma-separated memory sizes")
    p_cons.add_argument("--seeds", type=bounded(int, "be >= 1"), default=20)
    p_cons.add_argument("--beta", type=bounded(float, "be >= 0"), default=1.0)
    p_cons.add_argument("--gamma", type=bounded(float, "lie in [0, 1]"), default=0.9)
    p_cons.add_argument("--similarity-threshold", dest="similarity_threshold",
                        type=bounded(float, "lie in [0, 1]"), default=0.95)
    p_cons.add_argument("--out")
    p_cons.set_defaults(func=cmd_consistency)

    p_opt = sub.add_parser("verify-optimality",
                           help="closed-form update vs exhaustive grid search")
    p_opt.add_argument("--instances", type=bounded(int, "be >= 1"), default=120)
    p_opt.add_argument("--step", type=grid_step, default=0.01)
    p_opt.add_argument("--betas", type=comma_list(bounded(float, "be > 0")),
                       default="0.5,1,2,5", help="comma-separated betas")
    p_opt.add_argument("--seed", type=bounded(int, "be >= 0"), default=0)
    p_opt.set_defaults(func=cmd_verify_optimality)

    p_mem = sub.add_parser("inspect-memory", help="summarize a memory bank file")
    p_mem.add_argument("bank")
    p_mem.add_argument("--top", type=bounded(int, "be >= 0"), default=10)
    p_mem.set_defaults(func=cmd_inspect_memory)

    p_rep = sub.add_parser("replay", help="recompute a recorded episode of a run")
    p_rep.add_argument("run_dir", help="a run's --out directory")
    p_rep.add_argument("--episode", type=int, required=True)
    p_rep.set_defaults(func=cmd_replay)

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    # both are raised only where a config or an input file is read, before any output
    try:
        return args.func(args)
    except (ConfigError, MemoryFormatError) as exc:
        refusal = str(exc)
    except OSError as exc:  # a file that cannot be opened, an input or an output
        if exc.filename is None:
            raise
        refusal = f"{exc.filename}: {exc.strerror}"
    print(f"error: {refusal}", file=sys.stderr)
    raise SystemExit(2)  # argparse's status for a refused flag


if __name__ == "__main__":
    sys.exit(main())
