import json

import pytest

from memsteer.cli import build_env_factory, build_proposer_factory, main
from memsteer.config import EngineConfig
from memsteer.envs import textgame
from memsteer.runner import run_experiment


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


def test_keydoor_factory_checks_its_config_only_when_built_and_shares_no_table(monkeypatch):
    checked = []
    check = textgame.validate_game_config
    monkeypatch.setattr(textgame, "validate_game_config",
                        lambda config: checked.append(config) or check(config))
    factory = build_env_factory("keydoor")
    at_build = len(checked)
    names = ("inventory", "room_objects", "open_doors", "fired", "visits")
    tables = []  # each episode's tables as its game was built, kept alive

    def env_factory(rng):
        game = factory(rng)
        tables.append([getattr(game, name) for name in names])
        tables[-1].extend(game.room_objects.values())
        return game

    run_experiment(EngineConfig.profile("text-game", 2.0, episodes=5, seed=0), env_factory,
                   build_proposer_factory("noisy-advisor", 0.3))
    assert at_build >= 1 and len(checked) == at_build  # no episode re-checks it
    assert len(tables) == 5
    every = [id(table) for episode in tables for table in episode]
    assert len(set(every)) == len(every)


def test_a_keydoor_episode_observes_its_start_once(monkeypatch):
    # the factory gives a game with fresh tables and no observation, so
    # run_episode's reset builds each episode's only first observation
    factory = build_env_factory("keydoor")
    observed = []
    observe = textgame.TextMicroGame.observe
    monkeypatch.setattr(textgame.TextMicroGame, "observe",
                        lambda game: observed.append(game) or observe(game))
    games = []
    _, _, records = run_experiment(EngineConfig.profile("text-game", 2.0, episodes=3, seed=0),
                                   lambda rng: games.append(factory(rng)) or games[-1],
                                   build_proposer_factory("noisy-advisor", 0.3))
    for game, record in zip(games, records, strict=True):
        assert record.steps > 0
        assert sum(seen is game for seen in observed) == record.steps + 1
    assert len(observed) == sum(record.steps + 1 for record in records)


def test_keydoor_games_share_no_mutable_table_with_each_other_or_the_template(monkeypatch):
    built = []
    make = textgame.key_door_game
    monkeypatch.setattr(textgame, "key_door_game", lambda: built.append(make()) or built[-1])
    factory = build_env_factory("keydoor")
    template, = built
    first, second = factory(None), factory(None)

    def tables(game):
        return [game.inventory, game.room_objects, game.open_doors, game.fired, game.visits,
                *game.room_objects.values()]

    every = [id(table) for game in (template, first, second) for table in tables(game)]
    assert len(set(every)) == len(every)
    first.step("go north")
    assert second.room == template.room == template.config["start_room"] != first.room
    assert second.visits == template.visits != first.visits


def test_run_requires_beta(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--episodes", "1"])


def test_run_rejects_mismatched_env_proposer():
    with pytest.raises(SystemExit, match="only works with"):
        main(["run", "--beta", "1", "--episodes", "1",
              "--env", "six-mdp", "--proposer", "noisy-advisor"])


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
    import memsteer.cli as cli
    from memsteer.runner import MetricsReport

    seen = {}

    def fake_run_experiment(config, env_factory, proposer_factory, mode, out_dir):
        seen["config"] = config
        return MetricsReport(scores=[0.0], successes=[False]), [], []

    monkeypatch.setattr(cli, "run_experiment", fake_run_experiment)
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


def test_consistency_reports_a_size_without_neighbours(monkeypatch, capsys):
    # every probe retrieval of the size came back empty, so no point was kept
    monkeypatch.setattr("memsteer.cli.run_consistency_experiment", lambda *a, **kw: [])
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


def test_replay_subcommand_matches(tmp_path, capsys):
    out = tmp_path / "exp"
    config = EngineConfig.profile("text-game", beta=2.0, episodes=3, seed=2)
    config_path = tmp_path / "config.json"
    config.save(config_path)
    main(["run", "--config", str(config_path), "--out", str(out)])
    capsys.readouterr()
    code = main(["replay", "--config", str(config_path),
                 "--records", str(out / "records.jsonl"), "--episode", "2",
                 "--memory", str(out / "memory.jsonl")])
    assert code == 0
    assert "MATCH" in capsys.readouterr().out


def test_replay_subcommand_matches_under_capacity(tmp_path, capsys):
    out = tmp_path / "exp"
    config = EngineConfig.profile("text-game", beta=2.0, episodes=4, seed=2,
                                  memory_capacity=7)
    config_path = tmp_path / "config.json"
    config.save(config_path)
    main(["run", "--config", str(config_path), "--out", str(out)])
    capsys.readouterr()
    code = main(["replay", "--config", str(config_path),
                 "--records", str(out / "records.jsonl"), "--episode", "3",
                 "--memory", str(out / "memory.jsonl")])
    assert code == 0
    assert "episode 3: MATCH" in capsys.readouterr().out


def test_replay_missing_episode(tmp_path, capsys):
    out = tmp_path / "exp"
    config = EngineConfig.profile("text-game", beta=2.0, episodes=1, seed=2)
    config_path = tmp_path / "config.json"
    config.save(config_path)
    main(["run", "--config", str(config_path), "--out", str(out)])
    capsys.readouterr()
    code = main(["replay", "--config", str(config_path),
                 "--records", str(out / "records.jsonl"), "--episode", "9"])
    assert code == 1


@pytest.mark.parametrize("value", ["0", "-0.25", "1.5", "nan", "inf"])
@pytest.mark.parametrize("command", ["run", "replay"])
def test_optimal_mass_is_checked_before_any_file_is_touched(tmp_path, capsys, command, value):
    out = tmp_path / "exp"
    out.mkdir()
    bank = out / "memory.jsonl"
    bank.write_text("kept\n", encoding="utf-8")
    if command == "run":
        argv = ["run", "--beta", "2", "--out", str(out)]
    else:
        argv = ["replay", "--config", str(tmp_path / "missing.json"),
                "--records", str(tmp_path / "missing.jsonl"), "--episode", "0",
                "--memory", str(bank)]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--optimal-mass", value])
    assert exc.value.code == 2
    assert "argument --optimal-mass" in capsys.readouterr().err
    assert bank.read_text(encoding="utf-8") == "kept\n"


def test_optimal_mass_of_one_is_accepted(tmp_path):
    assert main(["run", "--beta", "2", "--episodes", "1", "--optimal-mass", "1",
                 "--out", str(tmp_path / "exp")]) == 0


@pytest.mark.parametrize("flags,config,message", [
    (["--beta", "-1", "--episodes", "1"], None, "error: beta must be >= 0, got -1.0"),
    ([], {"beta": 2.0, "k_neighbors": 2.5}, "error: k_neighbors must be an integer, got 2.5"),
], ids=["flag", "config-file"])
def test_run_ends_a_bad_config_value_in_one_line(tmp_path, flags, config, message):
    out = tmp_path / "exp"
    out.mkdir()
    bank = out / "memory.jsonl"
    bank.write_text("kept\n", encoding="utf-8")
    if config is not None:
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        flags = ["--config", str(config_path)]
    with pytest.raises(SystemExit) as exc:
        main(["run", *flags, "--out", str(out)])
    assert exc.value.code == message
    assert bank.read_text(encoding="utf-8") == "kept\n"


def test_inspect_memory_ends_a_malformed_bank_in_one_line(tmp_path):
    bank = tmp_path / "memory.jsonl"
    bank.write_text("kept\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["inspect-memory", str(bank)])
    assert exc.value.code == "error: memory bank line 1: invalid JSON (Expecting value)"
    assert bank.read_text(encoding="utf-8") == "kept\n"


def test_replay_ends_a_malformed_bank_in_one_line(tmp_path, capsys):
    out = tmp_path / "exp"
    config = EngineConfig.profile("text-game", beta=2.0, episodes=2, seed=2)
    config_path = tmp_path / "config.json"
    config.save(config_path)
    main(["run", "--config", str(config_path), "--out", str(out)])
    capsys.readouterr()
    bank = tmp_path / "broken.jsonl"
    bank.write_text("{}\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["replay", "--config", str(config_path), "--records", str(out / "records.jsonl"),
              "--episode", "1", "--memory", str(bank)])
    assert str(exc.value.code).startswith("error: memory bank line 1: missing fields")
    assert bank.read_text(encoding="utf-8") == "{}\n"


@pytest.mark.parametrize("text,reason", [
    (None, "No such file or directory"),
    ('{"beta": 2,', "Expecting property name enclosed in double quotes: line 1 column 12 "
                    "(char 11)"),
], ids=["missing", "unparseable"])
def test_run_ends_an_unreadable_config_file_in_one_line(tmp_path, text, reason):
    out = tmp_path / "exp"
    out.mkdir()
    bank = out / "memory.jsonl"
    bank.write_text("kept\n", encoding="utf-8")
    config_path = tmp_path / "config.json"
    if text is not None:
        config_path.write_text(text, encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(config_path), "--out", str(out)])
    assert exc.value.code == f"error: {config_path}: {reason}"
    assert bank.read_text(encoding="utf-8") == "kept\n"
    assert sorted(p.name for p in out.iterdir()) == ["memory.jsonl"]


def test_inspect_memory_ends_a_missing_bank_in_one_line(tmp_path):
    bank = tmp_path / "missing.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(["inspect-memory", str(bank)])
    assert exc.value.code == f"error: {bank}: No such file or directory"


@pytest.mark.parametrize("missing", ["--config", "--records", "--memory"])
def test_replay_ends_a_missing_input_file_in_one_line(tmp_path, capsys, missing):
    out = tmp_path / "exp"
    config = EngineConfig.profile("text-game", beta=2.0, episodes=2, seed=2)
    config_path = tmp_path / "config.json"
    config.save(config_path)
    main(["run", "--config", str(config_path), "--out", str(out)])
    capsys.readouterr()
    paths = {"--config": config_path, "--records": out / "records.jsonl",
             "--memory": out / "memory.jsonl"}
    paths[missing] = gone = tmp_path / "missing.file"
    with pytest.raises(SystemExit) as exc:
        main(["replay", "--episode", "1",
              *(part for flag, path in paths.items() for part in (flag, str(path)))])
    assert exc.value.code == f"error: {gone}: No such file or directory"
    assert not gone.exists()
