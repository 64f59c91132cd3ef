import copy
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from memsteer import cli
from memsteer.cli import build_env_factory, build_proposer_factory, main
from memsteer.config import EngineConfig
from memsteer.envs import Observation, tabular, textgame
from memsteer.runner import run_experiment


def refused(argv, capsys) -> str:
    """The one stderr line of a command ``main`` refuses with exit status 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n"), err
    return err[:-1]


def test_run_subcommand_writes_outputs(tmp_path, capsys):
    out = tmp_path / "exp"
    code = main(["run", "--beta", "2", "--episodes", "3", "--seed", "0",
                 "--env", "keydoor", "--proposer", "noisy-advisor",
                 "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "avg=" in printed and "final=" in printed
    for name in ("metrics.csv", "summary.json", "records.jsonl", "memory.jsonl"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mode"] == "memsteer"
    assert summary["episodes"] == 3
    assert summary["run"] == {"env": "keydoor", "proposer": "noisy-advisor", "optimal_mass": 0.3}


def test_keydoor_factory_checks_its_config_only_when_built(monkeypatch):
    checked = []
    check = textgame.validate_game_config
    monkeypatch.setattr(textgame, "validate_game_config",
                        lambda config: checked.append(config) or check(config))
    factory = build_env_factory("keydoor")
    at_build = len(checked)
    run_experiment(EngineConfig.profile("text-game", 2.0, episodes=5, seed=0), factory,
                   build_proposer_factory("noisy-advisor", 0.3))
    assert at_build >= 1 and len(checked) == at_build  # no episode re-checks it


# the env contract, for every env the CLI builds: a factory env holds no
# episode until reset, reset builds the episode's one first observation, and
# after reset two factory envs share no mutable state with each other or with
# the template they were copied from

PAIRED_PROPOSER = {"keydoor": "noisy-advisor", "six-mdp": "fixture-policy"}


def built_with_template(monkeypatch, name):
    """``name``'s env factory and the template it copies (None for six-mdp)."""
    built = []
    make = textgame.key_door_game
    monkeypatch.setattr(textgame, "key_door_game", lambda: built.append(make()) or built[-1])
    factory = build_env_factory(name)
    return factory, (built[0] if built else None)


@pytest.mark.parametrize("name", cli.ENVIRONMENTS)
def test_a_factory_env_holds_no_episode_until_reset(monkeypatch, name):
    factory, template = built_with_template(monkeypatch, name)
    rng = np.random.default_rng(5)
    env = factory(rng)
    assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state
    for unplayed in [e for e in (env, template) if e is not None]:
        with pytest.raises(AttributeError):  # no score or state to read
            unplayed.success
    world = set(vars(env))
    assert template is None or set(vars(template)) == world
    obs = env.reset()
    assert obs.valid_actions and not obs.done and env.success is False
    assert set(vars(env)) > world  # reset added the episode


@pytest.mark.parametrize("name", cli.ENVIRONMENTS)
def test_reset_builds_each_episodes_one_first_observation(monkeypatch, name):
    factory = build_env_factory(name)
    built = []  # every Observation either env builds
    for module in (textgame, tabular):
        monkeypatch.setattr(module, "Observation",
                            lambda *a, **k: built.append(1) or Observation(*a, **k))
    starts = []  # how many observations were built as each episode's env was made

    def env_factory(rng):
        starts.append(len(built))
        return factory(rng)

    _, _, records = run_experiment(EngineConfig.profile("text-game", 2.0, episodes=3, seed=0),
                                   env_factory, build_proposer_factory(PAIRED_PROPOSER[name], 0.3))
    ends = starts[1:] + [len(built)]
    for start, end, record in zip(starts, ends, records, strict=True):
        assert record.steps > 0
        assert end - start == record.steps + 1


@pytest.mark.parametrize("name", cli.ENVIRONMENTS)
def test_factory_envs_share_no_mutable_state_after_reset(monkeypatch, name):
    factory, template = built_with_template(monkeypatch, name)
    world = set(vars(factory(np.random.default_rng(0))))
    first, second = factory(np.random.default_rng(0)), factory(np.random.default_rng(0))
    played = first.reset().valid_actions[0]
    second.reset()

    def episode(env):  # the state reset added
        return {key: value for key, value in vars(env).items() if key not in world}

    tables = [table for env in (first, second) for table in episode(env).values()
              if isinstance(table, (list, dict, set))]
    tables += [row for table in tables if isinstance(table, dict) for row in table.values()
               if isinstance(row, (list, dict, set))]
    assert len({id(table) for table in tables}) == len(tables)
    if template is not None:  # the world is the template's, and it played nothing
        assert all(getattr(first, key) is getattr(template, key) for key in world)
        assert set(vars(template)) == world
    before = copy.deepcopy(episode(second))
    first.step(played)
    assert episode(second) == before != episode(first)


def test_a_keydoor_run_builds_each_episode_once_and_reads_the_exits_once_a_state(monkeypatch):
    # counted over 50 episodes at seed 1001: the template builds no episode,
    # each reset builds one, and each observation reads the current room's
    # exits once; the advisor's searches read other rows and are not counted
    builds, reads, searching = [], [], []
    setattr_ = textgame.TextMicroGame.__setattr__

    def counted_setattr(game, key, value):
        if key == "room_objects":  # one per table build
            builds.append(game)
        setattr_(game, key, value)

    class CountedExits(dict):
        def __getitem__(self, room):
            if not searching:
                reads.append(room)
            return dict.__getitem__(self, room)

    init = textgame.TextMicroGame.__init__

    def counted_init(game, config):
        init(game, config)
        game._exits = CountedExits(game._exits)

    search = textgame._search_next_hop

    def counted_search(*args):
        searching.append(1)
        try:
            return search(*args)
        finally:
            searching.pop()

    monkeypatch.setattr(textgame.TextMicroGame, "__setattr__", counted_setattr)
    monkeypatch.setattr(textgame.TextMicroGame, "__init__", counted_init)
    monkeypatch.setattr(textgame, "_search_next_hop", counted_search)
    _, _, records = run_experiment(EngineConfig.profile("text-game", 2.0, episodes=50,
                                                        seed=1001),
                                   build_env_factory("keydoor"),
                                   build_proposer_factory("noisy-advisor", 0.3))
    observations = sum(record.steps + 1 for record in records)
    assert observations == 1933
    assert len(builds) == 50
    assert 0 < len(reads) <= observations


def test_a_keydoor_run_computes_each_states_valid_actions_once(monkeypatch):
    # each observation computes the list once, and the step after it checks
    # its action against that list instead of computing it again
    calls = []
    valid_actions = textgame.TextMicroGame.valid_actions
    monkeypatch.setattr(textgame.TextMicroGame, "valid_actions",
                        lambda game: calls.append(game) or valid_actions(game))
    _, _, records = run_experiment(EngineConfig.profile("text-game", 2.0, episodes=50,
                                                        seed=1001),
                                   build_env_factory("keydoor"),
                                   build_proposer_factory("noisy-advisor", 0.3))
    steps = sum(record.steps for record in records)
    assert steps > 0
    assert len(calls) <= steps + len(records)


def test_run_requires_beta(capsys):
    assert (refused(["run", "--episodes", "1"], capsys)
            == "error: --beta is required (it has no published default)")


def test_run_rejects_mismatched_env_proposer(capsys):
    assert refused(["run", "--beta", "1", "--episodes", "1", "--env", "six-mdp",
                    "--proposer", "noisy-advisor"], capsys) \
        == "error: proposer 'noisy-advisor' only works with --env keydoor"


def test_run_static_mode_on_mdp(capsys):
    code = main(["run", "--beta", "1", "--episodes", "2", "--env", "six-mdp",
                 "--proposer", "fixture-policy", "--mode", "static",
                 "--history-length", "0"])
    assert code == 0
    assert "mode=static" in capsys.readouterr().out


def test_run_with_config_file_and_override(tmp_path, capsys):
    config = EngineConfig.profile("text-game", beta=2.0, episodes=2, seed=5)
    path = tmp_path / "config.json"
    config.save(path)
    code = main(["run", "--config", str(path), "--episodes", "1"])
    assert code == 0
    assert "episodes=1" in capsys.readouterr().out


RUN_CONFIG_FLAGS = [
    ("--beta", "beta", 3.5),
    ("--gamma", "gamma", 0.25),
    ("--seed", "seed", 11),
    ("--episodes", "episodes", 2),
    ("--step-limit", "step_limit", 9),
    ("--k-neighbors", "k_neighbors", 4),
    ("--similarity-threshold", "similarity_threshold", 0.6),
    ("--exploration-rate", "exploration_rate", 0.3),
    ("--exploration-bonus", "exploration_bonus", 2.5),
    ("--history-length", "history_length", 1),
    ("--n-candidates", "n_candidates", 2),
    ("--memory-capacity", "memory_capacity", 40),
]


@pytest.mark.parametrize("from_file", [False, True], ids=["profile", "config-file"])
@pytest.mark.parametrize("flag,field,value", RUN_CONFIG_FLAGS,
                         ids=[flag for flag, _, _ in RUN_CONFIG_FLAGS])
def test_run_config_flag_reaches_config(tmp_path, monkeypatch, flag, field, value, from_file):
    from memsteer.runner import MetricsReport

    seen = {}

    def fake_run_experiment(config, env_factory, proposer_factory, mode, out_dir, run):
        seen["config"] = config
        return MetricsReport(scores=[0.0], successes=[False]), [], []

    monkeypatch.setattr("memsteer.runner.run_experiment", fake_run_experiment)
    argv = ["run", flag, str(value)]
    if flag != "--beta":
        argv += ["--beta", "1"]
    if from_file:
        path = tmp_path / "config.json"
        EngineConfig.profile("text-game", beta=1.0).save(path)
        argv += ["--config", str(path)]
    assert main(argv) == 0
    assert getattr(seen["config"], field) == value


def test_consistency_subcommand(tmp_path, capsys):
    out = tmp_path / "cons"
    code = main(["consistency", "--sizes", "100,400", "--seeds", "3",
                 "--beta", "1", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "median" in printed
    assert (out / "consistency.csv").exists()
    summary = json.loads((out / "consistency_summary.json").read_text())
    assert set(summary) == {"100", "400"}


@pytest.mark.parametrize("flags,named", [
    (["--seeds", "0"], "--seeds"), (["--seeds", "-3"], "--seeds"),
    (["--sizes", "0"], "--sizes"), (["--sizes", "200,-5"], "--sizes"),
    (["--sizes", "200,abc"], "--sizes"), (["--sizes", "200,"], "--sizes"),
])
def test_consistency_rejects_counts_that_are_not_positive_integers(flags, named, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["consistency", *flags])
    assert exc.value.code == 2
    assert f"argument {named}" in capsys.readouterr().err


@pytest.mark.parametrize("flags,named", [
    (["--gamma", "1.5"], "--gamma"), (["--gamma", "-0.1"], "--gamma"),
    (["--gamma", "nan"], "--gamma"), (["--gamma", "x"], "--gamma"),
    (["--beta", "-1"], "--beta"), (["--beta", "nan"], "--beta"), (["--beta", "inf"], "--beta"),
    (["--similarity-threshold", "1.5"], "--similarity-threshold"),
    (["--similarity-threshold", "nan"], "--similarity-threshold"),
])
def test_consistency_rejects_rates_out_of_range(flags, named, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["consistency", "--sizes", "50", "--seeds", "1", *flags])
    assert exc.value.code == 2
    assert f"argument {named}" in capsys.readouterr().err


def test_run_takes_a_seed_past_float_range(capsys):
    # SeedSequence takes any int; the config check used to raise OverflowError
    assert main(["run", "--beta", "2", "--episodes", "1", "--seed", HUGE.decode()]) == 0


def test_consistency_reports_a_size_without_neighbours(monkeypatch, capsys):
    # every probe retrieval of the size came back empty, so no point was kept
    monkeypatch.setattr("memsteer.runner.run_consistency_experiment", lambda *a, **kw: [])
    assert main(["consistency", "--sizes", "50", "--seeds", "1"]) == 0
    assert "N=     50  no probe retrieval found a neighbour" in capsys.readouterr().out


def test_verify_optimality_subcommand(capsys):
    code = main(["verify-optimality", "--instances", "12", "--step", "0.02"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("flags,named", [
    (["--instances", "0"], "--instances"), (["--instances", "-2"], "--instances"),
    (["--betas", "nan"], "--betas"), (["--betas", "0"], "--betas"),
    (["--betas", "1,-2"], "--betas"), (["--betas", "1,inf"], "--betas"),
    (["--betas", "1,x"], "--betas"),
    (["--step", "0"], "--step"), (["--step", "-0.01"], "--step"),
    (["--step", "0.03"], "--step"), (["--step", "nan"], "--step"),
    (["--step", "0.015"], "--step"),  # in range, but 1 / 0.015 is no whole number
])
def test_verify_optimality_rejects_flags_out_of_range(flags, named, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-optimality", *flags])
    assert exc.value.code == 2
    assert f"argument {named}" in capsys.readouterr().err


def test_verify_optimality_counts_a_nan_gap_as_a_failure(monkeypatch, capsys):
    monkeypatch.setattr("memsteer.oracle.grid_optimal_kl_policy",
                        lambda pi_theta, adv, beta, step: (pi_theta, float("nan")))
    assert main(["verify-optimality", "--instances", "2", "--step", "0.02"]) == 1
    printed = capsys.readouterr().out
    assert printed.count("FAIL instance") == 2
    assert "FAIL: 2 instances, worst grid-minus-closed gap nan" in printed


def test_inspect_memory_rejects_a_negative_top(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["inspect-memory", str(tmp_path / "memory.jsonl"), "--top", "-1"])
    assert exc.value.code == 2
    assert "argument --top" in capsys.readouterr().err


def test_inspect_memory_subcommand(tmp_path, capsys):
    out = tmp_path / "exp"
    main(["run", "--beta", "2", "--episodes", "2", "--seed", "0", "--out", str(out)])
    capsys.readouterr()
    code = main(["inspect-memory", str(out / "memory.jsonl"), "--top", "3"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "entries" in printed and "returns:" in printed


def flag_only_run(tmp_path, capsys, *flags):
    """The directory of ``memsteer run --beta 2 --seed 2 [flags]``, no config file."""
    out = tmp_path / "exp"
    assert main(["run", "--beta", "2", "--seed", "2", *flags, "--out", str(out)]) == 0
    capsys.readouterr()
    return out


def test_replay_subcommand_matches(tmp_path, capsys):
    out = flag_only_run(tmp_path, capsys, "--episodes", "3")
    code = main(["replay", str(out), "--episode", "2"])
    assert code == 0
    assert "MATCH" in capsys.readouterr().out


def test_replay_subcommand_matches_under_capacity(tmp_path, capsys):
    out = flag_only_run(tmp_path, capsys, "--episodes", "4", "--memory-capacity", "7")
    code = main(["replay", str(out), "--episode", "3"])
    assert code == 0
    assert "episode 3: MATCH" in capsys.readouterr().out


@pytest.mark.parametrize("run_flags", [
    ["--mode", "static"],
    ["--mode", "greedy-memory"],
    ["--memory-capacity", "7"],
    ["--similarity-threshold", "0.2"],  # reaches retrieval's need == 0 scan
    ["--env", "six-mdp", "--proposer", "fixture-policy"],
    ["--optimal-mass", "0.6"],
], ids=["static", "greedy-memory", "capacity-7", "threshold-0.2", "six-mdp", "mass-0.6"])
def test_replay_matches_every_episode_of_a_flag_only_run(tmp_path, capsys, run_flags):
    # replay takes the env, the proposer and the optimal mass from summary.json
    out = flag_only_run(tmp_path, capsys, "--episodes", "6", *run_flags)
    for episode in range(6):
        assert main(["replay", str(out), "--episode", str(episode)]) == 0
        assert capsys.readouterr().out == f"episode {episode}: MATCH\n"


def test_replay_refuses_its_former_flags(tmp_path, capsys):
    out = flag_only_run(tmp_path, capsys, "--episodes", "1")
    for flag, value in (("--env", "keydoor"), ("--proposer", "noisy-advisor"),
                        ("--optimal-mass", "0.3")):
        with pytest.raises(SystemExit) as exc:
            main(["replay", str(out), "--episode", "0", flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_replay_missing_episode(tmp_path, capsys):
    out = flag_only_run(tmp_path, capsys, "--episodes", "1")
    code = main(["replay", str(out), "--episode", "9"])
    assert code == 1
    assert capsys.readouterr().out == f"episode 9 not found in {out / 'records.jsonl'}\n"


@pytest.mark.parametrize("value", ["0", "-0.25", "1.5", "nan", "inf"])
@pytest.mark.parametrize("command", ["run", "replay"])
def test_optimal_mass_is_checked_before_any_file_is_touched(tmp_path, monkeypatch, capsys,
                                                            command, value):
    # run checks its flag; replay checks the mass its run recorded in summary.json
    out = tmp_path / "exp"
    if command == "run":
        out.mkdir()
        argv = ["run", "--beta", "2", "--out", str(out), "--optimal-mass", value]
        expected = "argument --optimal-mass: must lie in (0, 1]"
    else:
        out = flag_only_run(tmp_path, capsys, "--episodes", "1")
        summary_path = out / "summary.json"
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        summary["run"]["optimal_mass"] = float(value)
        summary_path.write_text(json.dumps(summary), encoding="utf-8")
        monkeypatch.setattr("memsteer.runner.replay_episode",
                            lambda *args: pytest.fail("replayed"))
        argv = ["replay", str(out), "--episode", "0"]
        expected = (f"error: {summary_path}: run optimal_mass must lie in (0, 1], "
                    f"got {float(value)!r}")
    bank = out / "memory.jsonl"
    bank.write_text("kept\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert expected in capsys.readouterr().err
    assert bank.read_text(encoding="utf-8") == "kept\n"


def test_optimal_mass_of_one_is_accepted(tmp_path):
    assert main(["run", "--beta", "2", "--episodes", "1", "--optimal-mass", "1",
                 "--out", str(tmp_path / "exp")]) == 0


@pytest.mark.parametrize("flags,config,message", [
    (["--beta", "-1", "--episodes", "1"], None, "error: beta must be >= 0, got -1.0"),
    ([], {"beta": 2.0, "k_neighbors": 2.5}, "error: k_neighbors must be an integer, got 2.5"),
], ids=["flag", "config-file"])
def test_run_ends_a_bad_config_value_in_one_line(tmp_path, flags, config, message, capsys):
    out = tmp_path / "exp"
    out.mkdir()
    bank = out / "memory.jsonl"
    bank.write_text("kept\n", encoding="utf-8")
    if config is not None:
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        flags = ["--config", str(config_path)]
    assert refused(["run", *flags, "--out", str(out)], capsys) == message
    assert bank.read_text(encoding="utf-8") == "kept\n"


def test_inspect_memory_ends_a_malformed_bank_in_one_line(tmp_path, capsys):
    bank = tmp_path / "memory.jsonl"
    bank.write_text("kept\n", encoding="utf-8")
    err = refused(["inspect-memory", str(bank)], capsys)
    assert err == f"error: {bank}: line 1: invalid JSON (Expecting value)"
    assert bank.read_text(encoding="utf-8") == "kept\n"


def test_replay_ends_a_malformed_bank_in_one_line(tmp_path, capsys):
    out = flag_only_run(tmp_path, capsys, "--episodes", "2")
    bank = out / "memory.jsonl"
    bank.write_text("{}\n", encoding="utf-8")
    err = refused(["replay", str(out), "--episode", "1"], capsys)
    assert err.startswith(f"error: {bank}: line 1: missing fields")
    assert bank.read_text(encoding="utf-8") == "{}\n"


def test_inspect_memory_ends_a_bank_that_is_not_utf8_in_one_line(tmp_path, capsys):
    bank = tmp_path / "latin.jsonl"
    bank.write_bytes(b"\xff\xfe{}\n")
    err = refused(["inspect-memory", str(bank)], capsys)
    assert err == f"error: {bank}: line 1: not UTF-8 text"


def test_replay_ends_a_bank_that_is_not_utf8_in_one_line(tmp_path, capsys):
    out = flag_only_run(tmp_path, capsys, "--episodes", "2")
    bank = out / "memory.jsonl"
    bank.write_bytes(b"\xff\xfe{}\n")
    err = refused(["replay", str(out), "--episode", "1"], capsys)
    assert err == f"error: {bank}: line 1: not UTF-8 text"


@pytest.mark.parametrize("line,reason", [
    ("{not json", "invalid JSON (Expecting property name enclosed in double quotes)"),
    ('{"steps": []}', 'record has no "episode" field'),
    ("[0]", 'record has no "episode" field'),
], ids=["unparseable", "no-episode", "not-an-object"])
def test_replay_ends_a_malformed_records_line_in_one_line(tmp_path, capsys, line, reason):
    out = flag_only_run(tmp_path, capsys, "--episodes", "1")
    records = out / "records.jsonl"
    records.write_text('{"episode": 1}\n\n' + line + "\n", encoding="utf-8")
    err = refused(["replay", str(out), "--episode", "0"], capsys)
    assert err == f"error: {records}: line 3: {reason}"


@pytest.mark.parametrize("value", ["true", "false", "1.0", '"1"', "null"])
def test_replay_ends_a_records_episode_that_is_not_an_integer_in_one_line(tmp_path, capsys,
                                                                         value):
    # true == 1 in Python, so a record of episode true used to replay as episode 1
    out = flag_only_run(tmp_path, capsys, "--episodes", "2")
    records = out / "records.jsonl"
    first, second = records.read_text(encoding="utf-8").splitlines()
    records.write_text(first + "\n" + second.replace('"episode": 1,', f'"episode": {value},', 1)
                       + "\n", encoding="utf-8")
    err = refused(["replay", str(out), "--episode", "1"], capsys)
    assert err == (f"error: {records}: line 2: episode must be an integer, "
                   f"got {json.loads(value)!r}")


@pytest.mark.parametrize("head,lineno", [(b"", 1), (b'{"episode": 1}\n\n', 3)],
                         ids=["first-line", "third-line"])
def test_replay_ends_records_that_are_not_utf8_in_one_line(tmp_path, capsys, head, lineno):
    out = flag_only_run(tmp_path, capsys, "--episodes", "1")
    records = out / "records.jsonl"
    records.write_bytes(head + b'\xff\xfe{"episode": 0}\n')
    err = refused(["replay", str(out), "--episode", "0"], capsys)
    assert err == f"error: {records}: line {lineno}: not UTF-8 text"


_MODES = "('memsteer', 'static', 'greedy-memory')"


@pytest.mark.parametrize("edit,reason", [
    (lambda summary: "{not json",
     "invalid JSON (Expecting property name enclosed in double quotes)"),
    (lambda summary: "", "invalid JSON (Expecting value)"),
    # the first half of the file as written: a summary cut off mid-write is
    # refused, so writing it through a temp file and a rename adds nothing
    (lambda summary: (text := json.dumps(summary, indent=2, sort_keys=True) + "\n")
     [:len(text) // 2], "invalid JSON (Unterminated string starting at)"),
    (lambda summary: b"\xff\xfe{}", "not UTF-8 text"),
    (lambda summary: "[]", "not a JSON object"),
    (lambda summary: {k: v for k, v in summary.items() if k != "config"},
     "config must be a JSON object, got None"),
    (lambda summary: {**summary, "config": [1]}, "config must be a JSON object, got [1]"),
    (lambda summary: {k: v for k, v in summary.items() if k != "mode"},
     f"mode must be one of {_MODES}, got None"),
    (lambda summary: {**summary, "config": {**summary["config"], "beta": -1.0}},
     "beta must be >= 0, got -1.0"),
    (lambda summary: {**summary, "config": {**summary["config"], "k_neighbors": True}},
     "k_neighbors must be an integer, got True"),
    (lambda summary: {**summary, "config": {**summary["config"], "temperature": 0.8}},
     "unknown config fields: ['temperature']"),
    (lambda summary: {**summary, "mode": "ablation"},
     f"mode must be one of {_MODES}, got 'ablation'"),
    (lambda summary: {**summary, "mode": None}, f"mode must be one of {_MODES}, got None"),
    (lambda summary: {k: v for k, v in summary.items() if k != "run"},
     "run must be a JSON object, got None"),
    (lambda summary: {**summary, "run": ["keydoor"]}, "run must be a JSON object, got ['keydoor']"),
    (lambda summary: {**summary, "run": {**summary["run"], "env": "web"}},
     f"run env must be one of {cli.ENVIRONMENTS}, got 'web'"),
    (lambda summary: {**summary, "run": {**summary["run"], "proposer": None}},
     f"run proposer must be one of {cli.PROPOSERS}, got None"),
    (lambda summary: {**summary, "run": {**summary["run"], "env": "six-mdp"}},
     "proposer 'noisy-advisor' only works with --env keydoor"),
    (lambda summary: {**summary, "run": {**summary["run"], "optimal_mass": True}},
     "run optimal_mass must lie in (0, 1], got True"),
    (lambda summary: {**summary, "run": {**summary["run"], "optimal_mass": "0.3"}},
     "run optimal_mass must lie in (0, 1], got '0.3'"),
    (lambda summary: {**summary, "run": {k: v for k, v in summary["run"].items()
                                         if k != "optimal_mass"}},
     "run optimal_mass must lie in (0, 1], got None"),
], ids=["not-json", "empty", "truncated", "not-utf8", "not-an-object", "no-config", "config-not-an-object",
        "no-mode", "bad-config-value", "bool-config-value", "unknown-config-field",
        "unknown-mode", "null-mode", "no-run", "run-not-an-object", "unknown-env",
        "unknown-proposer", "mispaired", "bool-mass", "text-mass", "no-mass"])
def test_replay_ends_an_unreadable_summary_in_one_line(tmp_path, capsys, edit, reason):
    out = flag_only_run(tmp_path, capsys, "--episodes", "2")
    summary_path = out / "summary.json"
    edited = edit(json.loads(summary_path.read_text(encoding="utf-8")))
    if isinstance(edited, dict):
        edited = json.dumps(edited)
    summary_path.write_bytes(edited if isinstance(edited, bytes) else edited.encode("utf-8"))
    err = refused(["replay", str(out), "--episode", "1"], capsys)
    assert err == f"error: {summary_path}: {reason}"


@pytest.mark.parametrize("text,reason", [
    (None, "No such file or directory"),
    ('{"beta": 2,', "invalid JSON (Expecting property name enclosed in double quotes)"),
], ids=["missing", "unparseable"])
def test_run_ends_an_unreadable_config_file_in_one_line(tmp_path, text, reason, capsys):
    out = tmp_path / "exp"
    out.mkdir()
    bank = out / "memory.jsonl"
    bank.write_text("kept\n", encoding="utf-8")
    config_path = tmp_path / "config.json"
    if text is not None:
        config_path.write_text(text, encoding="utf-8")
    err = refused(["run", "--config", str(config_path), "--out", str(out)], capsys)
    assert err == f"error: {config_path}: {reason}"
    assert bank.read_text(encoding="utf-8") == "kept\n"
    assert sorted(p.name for p in out.iterdir()) == ["memory.jsonl"]


def test_inspect_memory_ends_a_missing_bank_in_one_line(tmp_path, capsys):
    bank = tmp_path / "missing.jsonl"
    err = refused(["inspect-memory", str(bank)], capsys)
    assert err == f"error: {bank}: No such file or directory"


@pytest.mark.parametrize("missing", ["summary.json", "records.jsonl", "memory.jsonl"])
def test_replay_ends_a_missing_input_file_in_one_line(tmp_path, capsys, missing):
    out = flag_only_run(tmp_path, capsys, "--episodes", "2")
    gone = out / missing
    gone.unlink()
    err = refused(["replay", str(out), "--episode", "1"], capsys)
    assert err == f"error: {gone}: No such file or directory"
    assert not gone.exists()


def test_replay_refuses_a_run_that_raised_over_a_finished_one(tmp_path, capsys):
    # run A finishes; run B, another seed, raises in episode 3 into the same directory
    out = tmp_path / "exp"
    assert main(["run", "--beta", "2", "--seed", "1", "--episodes", "6", "--out", str(out)]) == 0
    env_factory = build_env_factory("keydoor")
    advisor_factory = build_proposer_factory("noisy-advisor", 0.3)
    played = []

    def proposer_factory(env):
        played.append(env)
        if len(played) == 4:
            raise RuntimeError("proposer gone")
        return advisor_factory(env)

    config = EngineConfig.profile("text-game", 2.0, episodes=6, seed=2)
    with pytest.raises(RuntimeError, match="proposer gone"):
        run_experiment(config, env_factory, proposer_factory, out_dir=out)
    # the directory holds B's episodes 0-2 and nothing of A
    finished = tmp_path / "b-0-2"
    run_experiment(EngineConfig.profile("text-game", 2.0, episodes=3, seed=2), env_factory,
                   advisor_factory, out_dir=finished)
    for name in ("memory.jsonl", "records.jsonl", "metrics.csv"):
        assert (out / name).read_bytes() == (finished / name).read_bytes(), name
    capsys.readouterr()
    err = refused(["replay", str(out), "--episode", "1"], capsys)
    assert err == f"error: {out / 'summary.json'}: invalid JSON (Expecting value)"


def two_episode_run(tmp_path) -> Path:
    """The directory of a finished flag-only run of two episodes."""
    out = tmp_path / "exp"
    assert main(["run", "--beta", "2", "--seed", "2", "--episodes", "2", "--out", str(out)]) == 0
    return out


def written(path: Path, data: bytes) -> Path:
    path.write_bytes(data)
    return path


def edit_record(records: Path, episode: int, edit) -> None:
    """Rewrite records.jsonl with ``edit`` applied to one episode's record dict."""
    lines = [json.loads(line) for line in records.read_text(encoding="utf-8").splitlines()]
    edit(lines[episode])
    records.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")


def config_case(data: bytes | None, reason: str):
    """``run --config`` on a file holding ``data`` (None: no file)."""
    def case(tmp_path, monkeypatch):
        path = tmp_path / "config.json"
        if data is not None:
            path.write_bytes(data)
        return ["run", "--config", str(path)], f"error: {path}: {reason}"
    return case


def replay_case(name: str, data: bytes | None, reason: str):
    """``replay`` of a run whose file ``name`` holds ``data`` (None: deleted)."""
    def case(tmp_path, monkeypatch):
        path = two_episode_run(tmp_path) / name
        path.unlink() if data is None else path.write_bytes(data)
        return ["replay", str(path.parent), "--episode", "1"], f"error: {path}: {reason}"
    return case


def argparse_case(*argv: str):
    return lambda tmp_path, monkeypatch: (list(argv), f"error: argument {argv[-2]}: ")


def verify_fails(tmp_path, monkeypatch):
    monkeypatch.setattr("memsteer.oracle.grid_optimal_kl_policy",
                        lambda pi_theta, adv, beta, step: (pi_theta, float("nan")))
    return ["verify-optimality", "--instances", "1", "--step", "0.02"], "FAIL: 1 instances"


def summary_is_a_directory(tmp_path, monkeypatch):
    """``run --out`` into an earlier run's directory whose summary.json is a directory."""
    summary = two_episode_run(tmp_path) / "summary.json"
    summary.unlink()
    summary.mkdir()
    return (["run", "--beta", "2", "--episodes", "3", "--out", str(summary.parent)],
            f"error: {summary}: Is a directory")


def files_under(root: Path) -> dict[Path, bytes | None]:
    """Each path under ``root`` and its bytes (None for a directory)."""
    return {path: None if path.is_dir() else path.read_bytes()
            for path in sorted(root.rglob("*"))}


def replay_mismatches(tmp_path, monkeypatch):
    out = two_episode_run(tmp_path)
    edit_record(out / "records.jsonl", 1, lambda record: record.update(score=-1.0))
    return ["replay", str(out), "--episode", "1"], "episode 1: MISMATCH"


def replay_finds_no_episode(tmp_path, monkeypatch):
    out = two_episode_run(tmp_path)
    return ["replay", str(out), "--episode", "9"], "episode 9 not found in"


HUGE = b"9" * 400  # an int past float range


BANK_REASON = ("line 1: missing fields ['state_text', 'history_text', 'action', 'return', "
               "'episode', 'step', 'time']")
OUTCOMES = {
    # refused: exit status 2 and one ``error:`` line on stderr
    "run-argparse": argparse_case("run", "--beta", "2", "--episodes", "x"),
    "run-config-value": lambda tmp_path, monkeypatch: (
        ["run", "--beta", "-1"], "error: beta must be >= 0, got -1.0"),
    "run-no-beta": lambda tmp_path, monkeypatch: (
        ["run"], "error: --beta is required (it has no published default)"),
    "run-pairing": lambda tmp_path, monkeypatch: (
        ["run", "--beta", "2", "--env", "six-mdp"],
        "error: proposer 'noisy-advisor' only works with --env keydoor"),
    "run-config-missing": config_case(None, "No such file or directory"),
    "run-config-not-utf8": config_case(b'{"beta": 2, "action_rules": [["caf\xe9", "x"]]}',
                                       "not UTF-8 text"),
    "run-config-not-json": config_case(b'{"beta": 2,', "invalid JSON "
                                       "(Expecting property name enclosed in double quotes)"),
    "run-config-array": config_case(b"[1, 2]", "not a JSON object"),
    # a float field's int past float range raised OverflowError in math.isfinite
    "run-config-int-past-float-range": lambda tmp_path, monkeypatch: (
        ["run", "--config", str(written(tmp_path / "config.json", b'{"beta": %s}' % HUGE))],
        f"error: beta must be a finite number, got {HUGE.decode()}"),
    "run-out-is-a-file": lambda tmp_path, monkeypatch: (
        ["run", "--beta", "2", "--out", str(written(tmp_path / "out", b""))],
        f"error: {tmp_path / 'out'}: File exists"),
    "run-output-is-a-directory": summary_is_a_directory,
    "run-config-and-profile": argparse_case("run", "--config", "c.json", "--profile", "web"),
    "consistency-argparse": argparse_case("consistency", "--beta", "-1"),
    "consistency-out-is-a-file": lambda tmp_path, monkeypatch: (
        ["consistency", "--sizes", "50", "--seeds", "1",
         "--out", str(written(tmp_path / "out", b""))],
        f"error: {tmp_path / 'out'}: File exists"),
    "verify-optimality-argparse": argparse_case("verify-optimality", "--instances", "0"),
    "verify-optimality-negative-seed": argparse_case("verify-optimality", "--seed", "-1"),
    "inspect-memory-argparse": argparse_case("inspect-memory", "bank.jsonl", "--top", "-1"),
    "inspect-memory-missing-bank": lambda tmp_path, monkeypatch: (
        ["inspect-memory", str(tmp_path / "gone.jsonl")],
        f"error: {tmp_path / 'gone.jsonl'}: No such file or directory"),
    "inspect-memory-malformed-bank": lambda tmp_path, monkeypatch: (
        ["inspect-memory", str(written(tmp_path / "bank.jsonl", b"{}\n"))],
        f"error: {tmp_path / 'bank.jsonl'}: {BANK_REASON}"),
    "replay-argparse": argparse_case("replay", "exp", "--episode", "x"),
    "replay-pairing": replay_case(
        "summary.json", b'{"run": {"env": "six-mdp", "proposer": "noisy-advisor", '
                        b'"optimal_mass": 0.3}}',
        "proposer 'noisy-advisor' only works with --env keydoor"),
    "replay-malformed-bank": replay_case("memory.jsonl", b"{}\n", BANK_REASON),
    "replay-malformed-records": replay_case("records.jsonl", b"[0]\n",
                                            'line 1: record has no "episode" field'),
    "replay-malformed-summary": replay_case("summary.json", b"[]", "not a JSON object"),
    "replay-summary-config-value": replay_case(
        "summary.json", b'{"mode": "static", "config": {"beta": -1}, "run": {"env": "keydoor", '
                        b'"proposer": "noisy-advisor", "optimal_mass": 0.3}}',
        "beta must be >= 0, got -1"),
    "replay-missing-summary": replay_case("summary.json", None, "No such file or directory"),
    "replay-missing-records": replay_case("records.jsonl", None, "No such file or directory"),
    "replay-missing-bank": replay_case("memory.jsonl", None, "No such file or directory"),
    # ran, with a negative answer: exit status 1 and nothing on stderr
    "verify-optimality-fail": verify_fails,
    "replay-mismatch": replay_mismatches,
    "replay-missing-episode": replay_finds_no_episode,
}


@pytest.mark.parametrize("case", OUTCOMES.values(), ids=OUTCOMES.keys())
def test_each_command_exits_2_on_refused_input_and_1_on_a_negative_answer(
        tmp_path, monkeypatch, capsys, case):
    argv, expected = case(tmp_path, monkeypatch)
    capsys.readouterr()
    before = files_under(tmp_path)
    if expected.startswith("error: argument "):  # argparse prints its usage first
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if "error:" in line] == err[-1:]
        assert f"memsteer {argv[0]}: {expected}" in err[-1]
    elif expected.startswith("error: "):
        assert refused(argv, capsys) == expected
        assert files_under(tmp_path) == before  # nothing ran, so nothing was written
    else:
        assert main(argv) == 1
        printed = capsys.readouterr()
        assert printed.err == "" and expected in printed.out.splitlines()[-1]


@pytest.mark.parametrize("edit", [
    lambda record: record["rewards"].__setitem__(0, record["rewards"][0] + 1.0),
    lambda record: record.update(evaluator_fallback=True),
], ids=["rewards", "evaluator_fallback"])
def test_replay_checks_every_field_of_the_record(tmp_path, capsys, edit):
    out = two_episode_run(tmp_path)
    assert main(["replay", str(out), "--episode", "1"]) == 0
    edit_record(out / "records.jsonl", 1, edit)
    capsys.readouterr()
    assert main(["replay", str(out), "--episode", "1"]) == 1
    assert capsys.readouterr().out == "episode 1: MISMATCH\n"


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[list[str]]:
    """The argument lists of the ``memsteer ...`` lines in README's bash blocks,
    with backslash continuations joined."""
    text = README.read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```bash\n(.*?)^```", text, flags=re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["memsteer"]:
                commands.append(words[1:])
    return commands


def test_every_readme_command_parses(monkeypatch):
    commands = readme_commands()
    named = {argv[0] for argv in commands}
    assert named == {"run", "consistency", "verify-optimality", "inspect-memory", "replay"}
    called = []
    for name in [name for name in vars(cli) if name.startswith("cmd_")]:
        monkeypatch.setattr(cli, name, lambda args, name=name: called.append(name) or 0)
    for argv in commands:
        called.clear()
        assert main(argv) == 0, argv  # argparse exits with status 2 on a stale flag
        assert called == ["cmd_" + argv[0].replace("-", "_")], argv
