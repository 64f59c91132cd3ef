import dataclasses
import re

import pytest

from memsteer.config import ConfigError, EngineConfig
from memsteer.memory import MemoryFormatError
from memsteer.envs.textgame import key_door_game, noisy_advisor_policy
from memsteer.proposer import CallablePolicyProposer
from memsteer.runner import run_experiment, run_task_suite


def test_profile_text_game_defaults():
    config = EngineConfig.profile("text-game", beta=1.0)
    assert config == EngineConfig(beta=1.0)  # the field defaults are the text-game values
    assert config.gamma == 0.5
    assert config.k_neighbors == 10
    assert config.similarity_threshold == 0.95
    assert config.exploration_rate == 0.65
    assert config.exploration_bonus == 5.0
    assert config.n_candidates == 3
    assert config.step_limit == 60
    assert config.episodes == 50


def test_profile_web_defaults():
    config = EngineConfig.profile("web", beta=1.0)
    assert config.gamma == 0.1
    assert config.k_neighbors == 10
    assert config.similarity_threshold == 0.8
    assert config.exploration_rate == 0.05
    assert config.exploration_bonus == 5.0
    assert config.step_limit == 10
    assert config.episodes == 50
    assert config.n_candidates == 3
    assert config.seed == 0
    assert config.task_similarity_threshold == 0.27
    assert config.cross_task_history_weight == 0.7
    assert config.cross_task_task_weight == 0.3


def test_profile_dispatch_and_unknown_name():
    assert EngineConfig.profile("text-game", beta=2.0).gamma == 0.5
    with pytest.raises(ConfigError, match="unknown profile"):
        EngineConfig.profile("desktop", beta=1.0)


@pytest.mark.parametrize("field,value", [
    ("gamma", -0.1), ("gamma", 1.5),
    ("exploration_rate", -0.01), ("exploration_rate", 1.01),
    ("k_neighbors", 0),
    ("similarity_threshold", -0.2), ("similarity_threshold", 1.2),
    ("epsilon", 0.0),
    ("n_candidates", 0),
    ("step_limit", 0),
    ("episodes", 0),
    ("exploration_bonus", -1.0),
    ("memory_capacity", 0),
    ("state_weight", 1.5),
    ("task_similarity_threshold", 2.0),
    ("memory_scope", "shared"),
    ("seed", -1),
])
def test_out_of_range_values_rejected(field, value):
    with pytest.raises(ConfigError):
        EngineConfig(beta=1.0, **{field: value})


@pytest.mark.parametrize("field,value,bound", [
    ("memory_capacity", 0, "be >= 1"), ("memory_capacity", -5, "be >= 1"),
    ("task_similarity_threshold", -0.1, "lie in [0, 1]"),
    ("state_weight", -0.5, "lie in [0, 1]"), ("history_weight", 1.5, "lie in [0, 1]"),
    ("cross_task_history_weight", 1.25, "lie in [0, 1]"),
    ("cross_task_task_weight", -0.25, "lie in [0, 1]"),
])
def test_the_bounds_table_names_each_field_and_its_bound(field, value, bound):
    with pytest.raises(ConfigError) as exc:
        EngineConfig(beta=1.0, **{field: value})
    assert str(exc.value) == f"{field} must {bound}, got {value}"


def test_optional_bounded_fields_accept_none():
    config = EngineConfig(beta=1.0, memory_capacity=None, task_similarity_threshold=None)
    assert config.memory_capacity is None and config.task_similarity_threshold is None


@pytest.mark.parametrize("weights", [
    dict(state_weight=1.0, history_weight=1.0), dict(state_weight=0.0, history_weight=0.0),
    dict(state_weight=0.5, history_weight=0.25),
    dict(cross_task_history_weight=0.7, cross_task_task_weight=0.7),
    dict(cross_task_history_weight=0.0, cross_task_task_weight=0.0),
])
def test_retrieval_weights_must_sum_to_one(weights):
    first, second = weights
    with pytest.raises(ConfigError, match=rf"{first} \+ {second} must equal 1"):
        EngineConfig(beta=1.0, **weights)


def test_retrieval_weights_summing_to_one_load():
    config = EngineConfig(beta=1.0, state_weight=0.6, history_weight=0.4,
                          cross_task_history_weight=0.1, cross_task_task_weight=0.9)
    assert EngineConfig.from_dict(config.to_dict()) == config


@pytest.mark.parametrize("field,value", [
    ("k_neighbors", 2.5), ("episodes", 2.5), ("history_length", 1.5), ("seed", 1.5),
    ("memory_capacity", 2.5), ("k_neighbors", True), ("step_limit", "10"),
    ("beta", True), ("gamma", "0.5"), ("state_weight", False),
    ("task_similarity_threshold", "0.3"), ("epsilon", float("nan")),
    ("exploration_bonus", float("inf")), ("terminal_bonus", float("nan")),
    ("action_rules", None), ("action_rules", 5), ("action_rules", "ab"),
])
def test_from_dict_rejects_wrong_types(field, value):
    with pytest.raises(ConfigError, match=field):
        EngineConfig.from_dict({"beta": 1.0, field: value})


def test_float_fields_accept_integers():
    config = EngineConfig.from_dict({"beta": 2, "gamma": 1, "exploration_bonus": 0})
    assert (config.beta, config.gamma, config.exploration_bonus) == (2, 1, 0)


def test_an_int_past_float_range_fits_an_int_field_but_not_a_float_field():
    huge = int("9" * 400)  # math.isfinite(huge) raises OverflowError
    assert EngineConfig.from_dict({"beta": 1.0, "seed": huge}).seed == huge
    for field in ("beta", "terminal_bonus"):
        with pytest.raises(ConfigError, match=rf"^{field} must be a finite number, got 9{{400}}$"):
            EngineConfig.from_dict({"beta": 1.0, field: huge})


def test_beta_must_be_finite():
    with pytest.raises(ConfigError, match="beta"):
        EngineConfig(beta=float("nan"))


@pytest.mark.parametrize("beta", [-1.0, -1e-9])
def test_beta_must_be_non_negative(beta):
    # a negative beta would steer toward the lowest advantages
    with pytest.raises(ConfigError, match="beta must be >= 0"):
        EngineConfig(beta=beta)
    assert EngineConfig(beta=0.0).beta == 0.0  # the identity update stays allowed


def test_dict_roundtrip_lossless():
    config = EngineConfig.profile("web", beta=2.5, seed=17,
                                  action_rules=[[r"\d+", "{id}"]])
    clone = EngineConfig.from_dict(config.to_dict())
    assert clone == config


def test_from_dict_requires_beta():
    with pytest.raises(ConfigError, match="beta"):
        EngineConfig.from_dict({"gamma": 0.5})


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown config fields"):
        EngineConfig.from_dict({"beta": 1.0, "neighbours": 3})


@pytest.mark.parametrize("raw", [5, "abc", None, [["beta", 1.0]]],
                         ids=["int", "str", "none", "pairs"])
def test_from_dict_refuses_anything_but_an_object(raw):
    with pytest.raises(ConfigError, match=re.escape(f"config must be a JSON object, got {raw!r}")):
        EngineConfig.from_dict(raw)


@pytest.mark.parametrize("data,reason", [
    (b'{"beta": 1.0, "action_rules": [["caf\xe9", "x"]]}', "not UTF-8 text"),
    (b'{"beta": 1.0,', "invalid JSON (Expecting property name enclosed in double quotes)"),
    (b"[1, 2]", "not a JSON object"),
], ids=["not-utf8", "not-json", "array"])
def test_load_names_the_file_it_cannot_read(tmp_path, data, reason):
    path = tmp_path / "config.json"
    path.write_bytes(data)
    with pytest.raises(MemoryFormatError) as exc:
        EngineConfig.load(path, beta=2.0)
    assert str(exc.value) == f"{path}: {reason}" and exc.value.path == path


def test_file_roundtrip_and_overrides(tmp_path):
    config = EngineConfig.profile("text-game", beta=1.5, seed=3)
    path = tmp_path / "config.json"
    config.save(path)
    loaded = EngineConfig.load(path)
    assert loaded == config
    overridden = EngineConfig.load(path, seed=99, episodes=5)
    assert overridden.seed == 99 and overridden.episodes == 5
    assert overridden.beta == 1.5


def test_load_rejects_out_of_range_file_values(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"beta": 1.0, "gamma": 3.0}', encoding="utf-8")
    with pytest.raises(ConfigError, match="gamma"):
        EngineConfig.load(path)


@pytest.mark.parametrize("rule", [
    ["(", "x"],              # not a regex
    ["a", "\\9"],            # template names a group the pattern lacks
    ["a", "\\g<x>"],         # template names an unknown group
    ["a", "\\"],             # template ends in a bare backslash
])
def test_from_dict_rejects_action_rules_that_do_not_compile(rule):
    with pytest.raises(ConfigError, match="action rule"):
        EngineConfig.from_dict({"beta": 1.0, "action_rules": [["b", "c"], rule]})


def test_from_dict_accepts_action_rules_with_group_references():
    config = EngineConfig.from_dict({"beta": 1.0,
                                     "action_rules": [[r"click\('(\d+)'\)", r"click(\1)"]]})
    assert config.action_rules == [[r"click\('(\d+)'\)", r"click(\1)"]]


FIELDS = {f.name for f in dataclasses.fields(EngineConfig)}


class ReadRecordingConfig(EngineConfig):
    """An EngineConfig that notes each field read once ``reads`` is a set."""

    reads = None

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "reads")
        if reads is not None and name in FIELDS:
            reads.add(name)
        return object.__getattribute__(self, name)


def test_every_config_field_is_read():
    # a field no run reads is a knob that silently does nothing
    config = ReadRecordingConfig(beta=2.0, episodes=2, step_limit=8, memory_scope="global",
                                 task_similarity_threshold=0.27)
    config.reads = set()
    env_factory = lambda rng: key_door_game()
    proposer_factory = lambda env: CallablePolicyProposer(noisy_advisor_policy(env, 0.3))
    run_experiment(config, env_factory, proposer_factory, mode="memsteer")
    run_task_suite(config, {"only": (env_factory, proposer_factory)}, mode="memsteer",
                   task_texts={"only": "open the door"})
    assert sorted(FIELDS - config.reads) == []
