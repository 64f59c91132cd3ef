import copy
import json
import random
import re
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memsteer.envs import Observation, abstraction
from memsteer.envs.abstraction import DEFAULT_STOPWORDS, abstract_state, regularize_url
from memsteer.envs.tabular import (TabularEnvAdapter, TabularMDP, deterministic_chain,
                                   mdp_step, random_mdp, six_state_fixture)
from memsteer.envs import textgame
from memsteer.envs.textgame import (GameConfigError, InvalidActionError, TextMicroGame,
                                    advisor_action, key_door_config, key_door_game,
                                    load_game_config, noisy_advisor_policy, solution_path)
from memsteer.memory import MemoryFormatError, StateKey
from memsteer.proposer import ProposerRequest
from memsteer.tokens import tokenize


# -- tabular stepping -----------------------------------------------------------------


def test_mdp_step_deterministic_chain(rng):
    mdp = deterministic_chain(n_states=3)
    s2, r, done = mdp_step(mdp, 0, 0, rng)
    assert (s2, r, done) == (1, 0.0, False)
    s3, r, done = mdp_step(mdp, 1, 0, rng)
    assert (s3, r, done) == (2, 1.0, True)


def test_mdp_step_from_terminal(rng):
    mdp = deterministic_chain(n_states=2)
    with pytest.raises(ValueError, match="terminal"):
        mdp_step(mdp, 1, 0, rng)


def test_mdp_step_range_checks(rng):
    mdp = deterministic_chain(n_states=3)
    with pytest.raises(IndexError):
        mdp_step(mdp, 9, 0, rng)
    with pytest.raises(IndexError):
        mdp_step(mdp, 0, 4, rng)


@pytest.mark.parametrize("head", [(1.25, -0.25), (np.nan, 1.0)])
@pytest.mark.parametrize("table", ["transitions", "start"])
def test_tabular_mdp_rejects_negative_or_nan_probability(table, head):
    # inverse-CDF sampling needs non-decreasing cumsums; (1.25, -0.25) keeps
    # the sum at 1, and a NaN fails every comparison
    mdp = deterministic_chain(n_states=3)
    tensors = dict(transitions=mdp.transitions.copy(), rewards=mdp.rewards,
                   terminal=mdp.terminal, start=mdp.start.copy())
    row = tensors["transitions"][0, 0] if table == "transitions" else tensors["start"]
    row[:2] = head
    with pytest.raises(ValueError, match="probabilit"):
        TabularMDP(**tensors)


def test_mdp_step_empirical_frequencies():
    mdp, _ = six_state_fixture()
    rng = np.random.default_rng(11)
    draws = 10_000
    hits = sum(mdp_step(mdp, 2, 0, rng)[0] == 3 for _ in range(draws))
    assert hits / draws == pytest.approx(0.90, abs=0.02)


def test_tabular_adapter_runs_episode():
    mdp, _ = six_state_fixture()
    adapter = TabularEnvAdapter(mdp, np.random.default_rng(3), step_cap=200)
    obs = adapter.reset()
    steps = 0
    while not obs.done:
        obs = adapter.step("a0")
        steps += 1
    assert adapter.success
    assert obs.valid_actions == []
    assert obs.score > 0.0 and steps >= 1


def tensor_draw(cum: np.ndarray, u: float) -> int:
    return min(int(np.searchsorted(cum, u, side="right")), len(cum) - 1)


@pytest.mark.parametrize("step_cap", [4, 1000])
@pytest.mark.parametrize("seed", range(4))
def test_tabular_adapter_walk_matches_the_tensors(seed, step_cap):
    # the adapter and mdp_step read list tables; replay the same seeded walk
    # from the numpy tensors and compare every observation, reward and flag
    mdp = six_state_fixture()[0] if seed == 0 else random_mdp(np.random.default_rng(seed))
    adapter = TabularEnvAdapter(mdp, np.random.default_rng(seed), step_cap=step_cap)
    reference_rng = np.random.default_rng(seed)
    actions = np.random.default_rng(seed + 100)
    s = tensor_draw(np.cumsum(mdp.start), reference_rng.random())
    score, steps, obs, previous = 0.0, 0, adapter.reset(), None
    while True:
        done = bool(mdp.terminal[s]) or steps >= step_cap
        names = [] if done else [f"a{i}" for i in range(mdp.n_actions)]
        assert obs == Observation(text=f"s{s}", score=score, done=done, valid_actions=names)
        assert type(obs.done) is bool and adapter.success is bool(mdp.terminal[s])
        if previous is not None:
            assert obs.valid_actions is not previous.valid_actions
        if done:
            break
        a = int(actions.integers(mdp.n_actions))
        cum = np.cumsum(mdp.transitions[s, a])
        s2 = tensor_draw(cum, reference_rng.random())
        # mdp_step on its own, from a generator of its own
        u = np.random.default_rng([seed, steps]).random()
        step = mdp_step(mdp, s, a, np.random.default_rng([seed, steps]))
        assert step == (tensor_draw(cum, u), float(mdp.rewards[s, a]),
                        bool(mdp.terminal[tensor_draw(cum, u)]))
        assert type(step[1]) is float and type(step[2]) is bool
        score += float(mdp.rewards[s, a])
        s, steps = s2, steps + 1
        obs.valid_actions.append("x")  # must not leak into the next observation
        previous, obs = obs, adapter.step(f"a{a}")


# -- micro-game dynamics ------------------------------------------------------------


def test_take_key_fires_event_once():
    game = key_door_game()
    game.reset()
    game.step("go north")
    game.step("go east")
    obs = game.step("take key")
    assert obs.score == 10
    assert "take key" not in obs.valid_actions
    obs = game.step("put key")
    assert obs.score == 10  # putting it back scores nothing
    obs = game.step("take key")
    assert obs.score == 10  # event fires at most once per episode


def test_invalid_action_names_valid_set():
    game = key_door_game()
    game.reset()
    with pytest.raises(InvalidActionError) as err:
        game.step("take key")
    assert "take key" not in err.value.valid
    assert "look" in err.value.valid


def test_solution_path_reaches_max_score():
    game = key_door_game()
    obs = game.reset()
    for action in solution_path():
        assert action in obs.valid_actions
        obs = game.step(action)
    assert obs.score == 100 == game.max_score
    assert obs.done and game.success
    assert obs.valid_actions == []


def test_score_is_monotone_and_episode_truncates():
    game = key_door_game()
    obs = game.reset()
    rng = np.random.default_rng(0)
    last = obs.score
    while not obs.done:
        action = str(rng.choice(obs.valid_actions))
        obs = game.step(action)
        assert obs.score >= last
        last = obs.score
    assert game.steps <= game.step_limit


def test_changing_an_observations_actions_leaves_what_step_accepts():
    game = key_door_game()
    obs = game.reset()
    obs.valid_actions.append("take key")
    with pytest.raises(InvalidActionError) as err:
        game.step("take key")
    assert "take key" not in err.value.valid
    obs.valid_actions.clear()
    assert game.step("go north").valid_actions == game.valid_actions()


def test_replay_reproduces_observations_bit_exactly():
    actions = solution_path()[:7]
    first = key_door_game()
    second = key_door_game()
    first.reset()
    second.reset()
    texts_a = [first.step(a).text for a in actions]
    texts_b = [second.step(a).text for a in actions]
    assert texts_a == texts_b


def test_locked_door_blocks_until_unlocked():
    game = key_door_game()
    game.reset()
    for action in ["go north", "go north"]:  # hall -> corridor -> gallery
        game.step(action)
    obs = game.observe()
    assert "go north" not in obs.valid_actions  # iron door locked
    assert "locked" in obs.text


def test_unlock_requires_key_in_hand():
    game = key_door_game()
    game.reset()
    game.step("go north")
    game.step("go north")
    assert "unlock iron door" not in game.valid_actions()


def test_flavor_rotates_but_score_state_stable():
    game = key_door_game()
    obs1 = game.reset()
    obs2 = game.step("look")
    assert obs1.text != obs2.text  # visit counter rotates flavor


def test_game_config_validation_errors():
    config = copy.deepcopy(key_door_config())
    config["score_events"][0]["points"] = 9
    with pytest.raises(GameConfigError, match="max_score"):
        TextMicroGame(config)
    config = copy.deepcopy(key_door_config())
    config["rooms"]["hall"]["exits"]["west"] = "nowhere"
    with pytest.raises(GameConfigError, match="unknown room"):
        TextMicroGame(config)


def _config_with(edit):
    config = copy.deepcopy(key_door_config())
    edit(config)
    return config


MALFORMED_GAME_CONFIGS = {
    "not-an-object": (lambda: 5, "config must be an object, got 5"),
    "a-list": (lambda: [], "config must be an object, got []"),
    "no-rooms": (lambda: _config_with(lambda c: c.pop("rooms")), "config has no field 'rooms'"),
    "rooms-a-list": (lambda: _config_with(lambda c: c.update(rooms=["hall"])),
                     "config field 'rooms' must be an object"),
    "room-a-string": (lambda: _config_with(lambda c: c["rooms"].update(hall="hall")),
                      "room 'hall' must be an object, got 'hall'"),
    "room-no-title": (lambda: _config_with(lambda c: c["rooms"]["hall"].pop("title")),
                      "room 'hall' has no field 'title'"),
    "exits-a-list": (lambda: _config_with(lambda c: c["rooms"]["hall"].update(exits=["north"])),
                     "room 'hall' field 'exits' must be an object"),
    "doors-an-object": (lambda: _config_with(lambda c: c.update(doors={})),
                        "config field 'doors' must be a list, got {}"),
    "door-id-only": (lambda: _config_with(lambda c: c.update(doors=[{"id": "x"}])),
                     "door 0 has no field 'title'"),
    "door-a-string": (lambda: _config_with(lambda c: c.update(doors=["x"])),
                      "door 0 must be an object, got 'x'"),
    "door-no-rooms": (lambda: _config_with(lambda c: c["doors"][0].pop("rooms")),
                      "door 0 has no field 'rooms'"),
    "door-three-rooms": (lambda: _config_with(
        lambda c: c["doors"][0].update(rooms=["hall", "study", "cellar"])),
        "door 'irondoor' field 'rooms' must name two rooms"),
    "event-a-number": (lambda: _config_with(lambda c: c["score_events"].append(7)),
                       "score event 4 must be an object, got 7"),
    "event-no-points": (lambda: _config_with(lambda c: c["score_events"][1].pop("points")),
                        "score event 1 has no field 'points'"),
    "event-points-text": (lambda: _config_with(
        lambda c: c["score_events"][0].update(points="10")),
        "points must be a number, got '10'"),
    # a list where a name belongs used to raise TypeError (unhashable), an
    # object that is not an object or a text number to fail only mid-game
    "start-room-a-list": (lambda: _config_with(lambda c: c.update(start_room=["hall"])),
                          "config field 'start_room' must be a string, got ['hall']"),
    "exit-a-list": (lambda: _config_with(
        lambda c: c["rooms"]["hall"]["exits"].update(north=["corridor"])),
        "room 'hall' exit 'north' must be a string, got ['corridor']"),
    "room-object-a-list": (lambda: _config_with(
        lambda c: c["rooms"]["library"].update(objects=[["key"]])),
        "room 'library' object must be a string, got ['key']"),
    "door-room-a-list": (lambda: _config_with(
        lambda c: c["doors"][0].update(rooms=["gallery", ["vault"]])),
        "door 'irondoor' room must be a string, got ['vault']"),
    "door-requires-a-list": (lambda: _config_with(
        lambda c: c["doors"][0].update(requires=["key"])),
        "door 'irondoor' field 'requires' must be a string, got ['key']"),
    "event-room-a-list": (lambda: _config_with(
        lambda c: c["score_events"][0].update(room=["library"])),
        "event 'got-key' field 'room' must be a string, got ['library']"),
    # a string was iterated as its characters and an unknown object accepted,
    # so the event silently never fired
    "event-requires-a-string": (lambda: _config_with(
        lambda c: c["score_events"][1].update(requires="key")),
        "event 'door-open' field 'requires' must be a list, got 'key'"),
    "event-requires-unknown-object": (lambda: _config_with(
        lambda c: c["score_events"][1].update(requires=["nothing"])),
        "event 'door-open' required object names unknown object 'nothing'"),
    "object-a-number": (lambda: _config_with(lambda c: c["objects"].update(key=5)),
                        "object 'key' must be an object, got 5"),
    "step-limit-text": (lambda: _config_with(lambda c: c.update(step_limit="60")),
                        "config field 'step_limit' must be an integer, got '60'"),
    "max-score-text": (lambda: _config_with(lambda c: c.update(max_score="100")),
                       "config field 'max_score' must be a number, got '100'"),
    # each of these passed validation: a list id raised TypeError mid-game,
    # and the others played on, some scoring less than max_score
    "event-id-a-list": (lambda: _config_with(
        lambda c: c["score_events"][0].update(id=["got-key"])),
        "score event 0 field 'id' must be a string, got ['got-key']"),
    "door-id-a-list": (lambda: _config_with(lambda c: c["doors"][0].update(id=["irondoor"])),
                       "door 0 field 'id' must be a string, got ['irondoor']"),
    "event-action-a-number": (lambda: _config_with(
        lambda c: c["score_events"][0].update(action=5)),
        "event 'got-key' field 'action' must be a string, got 5"),
    "door-title-a-number": (lambda: _config_with(lambda c: c["doors"][0].update(title=7)),
                            "door 'irondoor' field 'title' must be a string, got 7"),
    "room-title-a-number": (lambda: _config_with(lambda c: c["rooms"]["hall"].update(title=7)),
                            "room 'hall' field 'title' must be a string, got 7"),
    "event-id-repeated": (lambda: _config_with(
        lambda c: c["score_events"][1].update(id="got-key")),
        "score event 1 field 'id' repeats 'got-key'"),
    "flavor-a-string": (lambda: _config_with(
        lambda c: c["rooms"]["hall"].update(flavor="it is quiet")),
        "room 'hall' field 'flavor' must be a list, got 'it is quiet'"),
    "flavor-a-number": (lambda: _config_with(lambda c: c["rooms"]["hall"].update(flavor=[3])),
                        "room 'hall' flavor must be a string, got 3"),
    "portable-text": (lambda: _config_with(lambda c: c["objects"]["key"].update(portable="no")),
                      "object 'key' field 'portable' must be true or false, got 'no'"),
    "step-limit-zero": (lambda: _config_with(lambda c: c.update(step_limit=0)),
                        "config field 'step_limit' must be >= 1, got 0"),
    "step-limit-negative": (lambda: _config_with(lambda c: c.update(step_limit=-3)),
                            "config field 'step_limit' must be >= 1, got -3"),
    # each of these passed validation, and one unlock opened both doors
    "door-id-repeated": (lambda: _config_with(lambda c: c["doors"].append(
        {"id": "irondoor", "title": "oak gate", "rooms": ["hall", "study"], "requires": "key"})),
        "door 1 field 'id' repeats 'irondoor'"),
    "door-title-repeated-at-a-room": (lambda: _config_with(lambda c: c["doors"].extend([
        {"id": "libgate", "title": "oak gate", "rooms": ["corridor", "library"],
         "requires": "key"},
        {"id": "galgate", "title": "oak gate", "rooms": ["corridor", "gallery"],
         "requires": "key"}])),
        "door 'galgate' title 'oak gate' repeats at room 'corridor'"),
}


@pytest.mark.parametrize("make,message", MALFORMED_GAME_CONFIGS.values(),
                         ids=MALFORMED_GAME_CONFIGS.keys())
def test_validate_game_config_names_the_malformed_field(make, message):
    with pytest.raises(GameConfigError, match=re.escape(message)):
        textgame.validate_game_config(make())


def _door_by_linear_search(config, room_a, room_b):
    for door in config["doors"]:
        if set(door["rooms"]) == {room_a, room_b}:
            return door
    return None


def _with_second_doors():
    config = copy.deepcopy(key_door_config())
    config["doors"] += [
        {"id": "oakgate", "title": "oak gate", "rooms": ["vault", "gallery"], "requires": "key"},
        {"id": "hallgate", "title": "hall gate", "rooms": ["hall", "corridor"], "requires": "key"},
        {"id": "hallbars", "title": "hall bars", "rooms": ["corridor", "hall"], "requires": "key"},
    ]
    return config


@pytest.mark.parametrize("config", [key_door_config(), _with_second_doors()],
                         ids=["key-door", "second-doors"])
def test_door_lookup_matches_the_linear_search(config):
    game = TextMicroGame(config)
    for room_a in config["rooms"]:
        for room_b in config["rooms"]:
            assert game._door_at(room_a, room_b) is \
                _door_by_linear_search(config, room_a, room_b)


def test_first_listed_door_wins_between_the_same_rooms():
    game = TextMicroGame(_with_second_doors())
    assert game._door_at("gallery", "vault")["id"] == "irondoor"
    assert game._door_at("vault", "gallery")["id"] == "irondoor"
    assert game._door_at("corridor", "hall")["id"] == "hallgate"


# per-exit references: each exit's door looked up by a linear search of the config


def _reference_passable(game, room):
    out = {}
    for direction, dest in game.config["rooms"][room].get("exits", {}).items():
        door = _door_by_linear_search(game.config, room, dest)
        if door is None or door["id"] in game.open_doors:
            out[direction] = dest
    return out


def _reference_valid_actions(game):
    if game.done:
        return []
    actions = [f"go {d}" for d in _reference_passable(game, game.room)]
    actions += [f"take {obj}" for obj in game.room_objects[game.room]
                if game.config["objects"][obj].get("portable", False)]
    actions += [f"put {obj}" for obj in game.inventory]
    for dest in game.config["rooms"][game.room].get("exits", {}).values():
        door = _door_by_linear_search(game.config, game.room, dest)
        if door is not None and door["id"] not in game.open_doors \
                and door["requires"] in game.inventory:
            actions.append(f"unlock {door['title']}")
    return actions + ["look"]


def _reference_text(game):
    room = game.config["rooms"][game.room]
    parts = [f"location: {room['title']}"]
    if game.room_objects[game.room]:
        parts.append("you see: " + ", ".join(game.room_objects[game.room]))
    for direction, dest in room.get("exits", {}).items():
        door = _door_by_linear_search(game.config, game.room, dest)
        if door is not None:
            state = "open" if door["id"] in game.open_doors else "locked"
            parts.append(f"the {door['title']} to the {direction} is {state}")
    exits = sorted(_reference_passable(game, game.room))
    if exits:
        parts.append("exits: " + ", ".join(exits))
    if game.inventory:
        parts.append("carrying: " + ", ".join(game.inventory))
    flavor = room.get("flavor", [])
    if flavor:
        parts.append(flavor[(game.visits[game.room] - 1) % len(flavor)])
    return ". ".join(parts) + "."


def _reference_next_hop(game, src, dst):
    if src == dst:
        return None
    seen, queue = {src}, [(src, None)]
    for room, first in queue:
        for direction, nxt in _reference_passable(game, room).items():
            if nxt not in seen:
                if nxt == dst:
                    return first or direction
                seen.add(nxt)
                queue.append((nxt, first or direction))
    return None


def _key_in_the_hall(config):
    # the second doors lock the hall off from the library, so the key starts
    # in the hall and walks can open them; the events take the key there and
    # open the hall gate, so the advisor, which reads its goals from the
    # events, can lead the way out
    config["rooms"]["library"]["objects"].remove("key")
    config["rooms"]["hall"]["objects"].append("key")
    config["score_events"][0]["room"] = "hall"
    config["score_events"].insert(1, {"id": "gate-open", "action": "unlock hall gate",
                                      "room": "hall", "requires": ["key"], "points": 0})
    return config


@pytest.mark.parametrize("config", [key_door_config(), _key_in_the_hall(_with_second_doors())],
                         ids=["key-door", "second-doors"])
def test_world_queries_match_the_per_exit_reference_on_random_walks(config, monkeypatch):
    for seed in range(12):
        walk = random.Random(seed)
        game = TextMicroGame(config)
        obs = game.reset()
        while True:
            for room in config["rooms"]:
                assert game.passable_exits(room) == _reference_passable(game, room)
                for _ in range(2):  # a miss, then the memoised hop
                    assert textgame._bfs_next_hop(game, game.room, room) == \
                        _reference_next_hop(game, game.room, room)
            assert game.valid_actions() == obs.valid_actions == _reference_valid_actions(game)
            assert obs.text == _reference_text(game)
            advised = advisor_action(game)
            with monkeypatch.context() as patched:
                patched.setattr(textgame, "_bfs_next_hop", _reference_next_hop)
                assert advised == advisor_action(game)
            if obs.done:
                break
            # half the steps follow the advisor, so doors open and rooms fill
            action = advised if walk.random() < 0.5 and advised in obs.valid_actions \
                else walk.choice(obs.valid_actions)
            obs = game.step(action)


def test_load_game_config_from_file(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(key_door_config()), encoding="utf-8")
    game = TextMicroGame(load_game_config(path))
    assert game.max_score == 100 and game.step_limit == 60


@pytest.mark.parametrize("data,reason", [
    (b'{"name": "caf\xe9"}', "not UTF-8 text"),
    (b'{"name": ', "invalid JSON (Expecting value)"),
    (b'["hall"]', "not a JSON object"),
], ids=["not-utf8", "not-json", "array"])
def test_load_game_config_names_the_file_it_cannot_read(tmp_path, data, reason):
    path = tmp_path / "game.json"
    path.write_bytes(data)
    with pytest.raises(MemoryFormatError) as exc:
        load_game_config(path)
    assert str(exc.value) == f"{path}: {reason}" and exc.value.path == path


# -- advisor policy -------------------------------------------------------------------


def test_advisor_solves_game_in_minimal_steps():
    game = key_door_game()
    obs = game.reset()
    taken = []
    while not obs.done:
        action = advisor_action(game)
        taken.append(action)
        obs = game.step(action)
    assert game.success
    assert len(taken) == len(solution_path())


def _episode_key(game):
    return (game.room, tuple(game.inventory),
            tuple((rid, tuple(objects)) for rid, objects in game.room_objects.items()),
            frozenset(game.open_doors), frozenset(game.fired))


def _episode_twin(game):
    """A copy of ``game`` that shares its world and owns a copy of its episode."""
    twin = copy.copy(game)
    twin.inventory = list(game.inventory)
    twin.room_objects = {rid: list(objects) for rid, objects in game.room_objects.items()}
    twin.open_doors, twin.fired = set(game.open_doors), set(game.fired)
    twin.visits = dict(game.visits)
    return twin


def test_advisor_solves_the_game_from_every_reachable_state():
    # a BFS from reset over valid actions, each state keyed without its step
    # count; detours such as a wander into the study, or the treasure put down
    # short of the shrine, are among the states
    game = key_door_game()
    queue, seen = deque([(game, game.reset())]), {_episode_key(game)}
    while queue:
        state, obs = queue.popleft()
        assert advisor_action(state) in obs.valid_actions
        follower, followed = _episode_twin(state), obs
        while not followed.done:  # step refuses an action that is not valid
            followed = follower.step(advisor_action(follower))
        assert follower.score == game.max_score
        for action in obs.valid_actions:
            after = _episode_twin(state)
            after_obs = after.step(action)
            if not after_obs.done and _episode_key(after) not in seen:
                seen.add(_episode_key(after))
                queue.append((after, after_obs))
    assert len(seen) == 1373


def test_noisy_advisor_policy_masses():
    game = key_door_game()
    game.reset()
    policy = noisy_advisor_policy(game, optimal_mass=0.3)
    request = ProposerRequest(state_text="x", valid_actions=game.valid_actions(),
                              n_candidates=3)
    distribution = policy(request)
    assert sum(distribution.values()) == pytest.approx(1.0, abs=1e-12)
    assert distribution[advisor_action(game)] == pytest.approx(0.3, abs=1e-12)


def test_noisy_advisor_policy_falls_back_to_the_first_valid_action():
    # a 0-point first event whose action is never valid: the advisor names it,
    # and the policy gives the advisor's mass to the first valid action
    config = copy.deepcopy(key_door_config())
    config["score_events"].insert(0, {"id": "dance", "action": "dance", "room": "hall",
                                      "points": 0})
    game = TextMicroGame(config)
    obs = game.reset()
    assert advisor_action(game) == "dance"
    request = ProposerRequest(state_text="x", valid_actions=obs.valid_actions, n_candidates=3)
    distribution = noisy_advisor_policy(game, optimal_mass=0.3)(request)
    assert sum(distribution.values()) == pytest.approx(1.0, abs=1e-12)
    assert distribution[obs.valid_actions[0]] == pytest.approx(0.3, abs=1e-12)


# -- abstraction ------------------------------------------------------------------------


def test_same_room_different_flavor_same_state_key():
    game = key_door_game()
    obs1 = game.reset()
    obs2 = game.step("look")
    key1 = abstract_state(obs1)
    key2 = abstract_state(obs2)
    assert obs1.text != obs2.text
    assert key1.text == key2.text


def test_inventory_changes_state_key():
    game = key_door_game()
    game.reset()
    game.step("go north")
    game.step("go east")
    before = abstract_state(game.observe())
    game.step("take key")
    after = abstract_state(game.observe())
    assert before.text != after.text
    assert "carrying" in after.tokens


def test_door_state_changes_state_key():
    game = key_door_game()
    game.reset()
    for action in ["go north", "go east", "take key", "go west", "go north"]:
        game.step(action)
    locked = abstract_state(game.observe())
    game.step("unlock iron door")
    unlocked = abstract_state(game.observe())
    assert "locked" in locked.tokens and "open" in unlocked.tokens


def test_empty_observation_gives_empty_state():
    key = abstract_state(Observation(text="", score=0, done=False, valid_actions=["x"]))
    assert key.text == "" and key.tokens == frozenset()


def test_abstraction_idempotent_at_token_level():
    game = key_door_game()
    obs = game.reset()
    once = abstract_state(obs)
    again = abstract_state(Observation(text=once.text, score=0, done=False,
                                       valid_actions=[]))
    assert once.tokens == again.tokens


def test_history_tail_respects_length():
    obs = Observation(text="hall", score=0, done=False, valid_actions=["x"])
    key = abstract_state(obs, ["a1", "a2", "a3", "a4"], history_length=3)
    assert key.history == "a2 a3 a4"
    key0 = abstract_state(obs, ["a1", "a2"], history_length=0)
    assert key0.history == ""


def _abstract_state_afresh(observation, history_actions=(), history_length=3,
                           stopwords=DEFAULT_STOPWORDS):
    # the unmemoised abstraction, building every key anew
    kept = tokenize(observation.text) - stopwords
    text = " ".join(sorted(kept))
    history = " ".join(history_actions[-history_length:]) if history_length > 0 else ""
    return StateKey(text=text, history=history)


def _key_fields(key):
    return key.text, key.history, key.tokens, key.history_tokens


_WORDS = st.sampled_from(["the", "You", "EXITS", "location", "dust", "hall", "Key", "key",
                          "iron", "door", "s3", "café", "north", "open", ""])
_GAPS = st.sampled_from([" ", ", ", ". ", ": ", "_", "-", "!\n"])
_ACTIONS = st.sampled_from(["go north", "take key", "look", "unlock iron door", "put key"])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(text=st.lists(st.tuples(_WORDS, _GAPS), max_size=14).map(
           lambda pieces: "".join(word + gap for word, gap in pieces)),
       history=st.lists(_ACTIONS, max_size=5), history_length=st.integers(0, 4),
       stopwords=st.sets(_WORDS, max_size=4))
def test_memoised_abstraction_matches_the_key_built_afresh(text, history, history_length,
                                                          stopwords):
    obs = Observation(text=text, score=0, done=False)
    expected = _key_fields(_abstract_state_afresh(obs, history, history_length))
    abstraction._state_key.cache_clear()
    cold = abstract_state(obs, history, history_length)
    assert _key_fields(cold) == expected
    memoised = abstract_state(obs, list(history), history_length)
    assert memoised is cold and _key_fields(memoised) == expected
    # a plain set of stopwords works, and gives its frozenset's key
    custom = _key_fields(_abstract_state_afresh(obs, history, history_length,
                                                frozenset(stopwords)))
    assert _key_fields(abstract_state(obs, history, history_length, set(stopwords))) == \
        _key_fields(abstract_state(obs, history, history_length, frozenset(stopwords))) == custom


# -- URL regularization ---------------------------------------------------------------


def test_url_numeric_segments_unify():
    a = regularize_url("https://shop.test/customer/edit/123")
    b = regularize_url("https://shop.test/customer/edit/456")
    assert a == b == "https://shop.test/customer/edit/{id}"


def test_url_without_numeric_segments_unchanged():
    url = "https://shop.test/catalog/search"
    assert regularize_url(url) == url


def test_url_query_values_masked():
    assert regularize_url("https://t.io/list?id=9&sort=name") == \
           "https://t.io/list?id={v}&sort={v}"


def test_url_regularization_idempotent():
    urls = ["https://shop.test/customer/edit/123",
            "https://t.io/list?id=9&sort=name&flag",
            "https://a.b/c/d#frag"]
    for url in urls:
        once = regularize_url(url)
        assert regularize_url(once) == once
