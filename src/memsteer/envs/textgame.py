"""Deterministic text micro-game driven by a declarative config.

Config schema (JSON object; see ``envs/data/key_door.json`` for the shipped
fixture):

* ``name``: display name.
* ``max_score``: total points; must equal the sum of all event points.
* ``step_limit``: episode ends after this many steps (at least 1).
* ``start_room``: room id.
* ``rooms``: map of room id -> ``{"title": str, "exits": {direction: room_id},
  "objects": [object ids initially here], "flavor": [sentences]}``. Flavor
  rotates with the visit count and is ignored by state abstraction.
* ``objects``: map of object id -> ``{"portable": bool}``. Non-portable
  objects are scenery.
* ``doors``: list of ``{"id", "title", "rooms": [a, b], "requires": object}``.
  A door blocks the exits between its two rooms until unlocked; ``unlock
  <title>`` is valid from either side while holding the required object.
* ``score_events``: list of ``{"id", "action", "room", "requires": [objects],
  "points"}``, each id unique. An event fires (once per episode) when the
  exact action is taken in the room while holding the required objects
  (checked before the action's effects); a missing ``requires`` requires
  none. Points are non-negative.

Supported actions: ``go <direction>``, ``take <object>``, ``put <object>``,
``unlock <door title>``, ``look``. The valid-action list is deterministic and
contains exactly the actions that would succeed; the episode is over (and the
list empty) once the score reaches ``max_score`` or steps hit the limit.
"""

from __future__ import annotations

import json
from collections import deque
from importlib import resources
from typing import Iterable

from memsteer.envs import Observation
from memsteer.memory import json_of, read_json

__all__ = [
    "GameConfigError",
    "InvalidActionError",
    "TextMicroGame",
    "advisor_action",
    "key_door_config",
    "key_door_game",
    "load_game_config",
    "solution_path",
    "validate_game_config",
]


class GameConfigError(ValueError):
    """The game config violates the documented schema."""


class InvalidActionError(ValueError):
    """Action not currently valid; names the valid set."""

    def __init__(self, action: str, valid: Iterable[str]):
        self.action = action
        self.valid = list(valid)
        super().__init__(f"invalid action {action!r}; valid actions: {self.valid}")


_NOUNS = {dict: "an object", str: "a string", list: "a list", bool: "true or false",
          int: "an integer", (int, float): "a number"}


def _typed(value, kind, what: str):
    """``value`` if it is a ``kind``, one of the keys of ``_NOUNS``; a bool
    is only ever a bool, never a number."""
    if not isinstance(value, kind) or kind is not bool and isinstance(value, bool):
        raise GameConfigError(f"{what} must be {_NOUNS[kind]}, got {value!r}")
    return value


def _object_with(value, fields: tuple[str, ...], what: str) -> dict:
    """``value`` if it is a JSON object holding every one of ``fields``."""
    _typed(value, dict, what)
    for field in fields:
        if field not in value:
            raise GameConfigError(f"{what} has no field {field!r}")
    return value


def _known(value, names: dict, kind: str, what: str) -> None:
    """Raise unless ``value`` is a string naming one of ``names``, each a ``kind``."""
    if _typed(value, str, what) not in names:
        raise GameConfigError(f"{what} names unknown {kind} {value!r}")


def validate_game_config(config: dict) -> dict:
    """``config`` if it follows the schema above, else a ``GameConfigError``
    naming the first field that does not: each part an object holding the fields
    the game reads, each id, title, action and sentence a string, each name one
    naming a room or an object, each count a number, ``portable`` a bool, event
    ids unique and the step limit at least 1."""
    _object_with(config, ("name", "max_score", "step_limit", "start_room", "rooms",
                          "objects", "doors", "score_events"), "config")
    _typed(config["max_score"], (int, float), "config field 'max_score'")
    if _typed(config["step_limit"], int, "config field 'step_limit'") < 1:
        raise GameConfigError(f"config field 'step_limit' must be >= 1, "
                              f"got {config['step_limit']}")
    rooms = _object_with(config["rooms"], (), "config field 'rooms'")
    objects = _object_with(config["objects"], (), "config field 'objects'")
    for obj_id, obj in objects.items():
        _typed(_object_with(obj, (), f"object {obj_id!r}").get("portable", False), bool,
               f"object {obj_id!r} field 'portable'")
    _known(config["start_room"], rooms, "room", "config field 'start_room'")
    for room_id, room in rooms.items():
        _typed(_object_with(room, ("title",), f"room {room_id!r}")["title"], str,
               f"room {room_id!r} field 'title'")
        flavor = _typed(room.get("flavor", []), list, f"room {room_id!r} field 'flavor'")
        for sentence in flavor:
            _typed(sentence, str, f"room {room_id!r} flavor")
        exits = _object_with(room.get("exits", {}), (), f"room {room_id!r} field 'exits'")
        for direction, dest in exits.items():
            _known(dest, rooms, "room", f"room {room_id!r} exit {direction!r}")
        for obj in _typed(room.get("objects", []), list, f"room {room_id!r} field 'objects'"):
            _known(obj, objects, "object", f"room {room_id!r} object")
    for i, door in enumerate(_typed(config["doors"], list, "config field 'doors'")):
        _object_with(door, ("id", "title", "rooms", "requires"), f"door {i}")
        door_id = _typed(door["id"], str, f"door {i} field 'id'")
        what = f"door {door_id!r}"
        _typed(door["title"], str, f"{what} field 'title'")
        if len(_typed(door["rooms"], list, f"{what} field 'rooms'")) != 2:
            raise GameConfigError(f"{what} field 'rooms' must name two rooms")
        for room_id in door["rooms"]:
            _known(room_id, rooms, "room", f"{what} room")
        _known(door["requires"], objects, "object", f"{what} field 'requires'")
    total, event_ids = 0, set()
    events = _typed(config["score_events"], list, "config field 'score_events'")
    for i, event in enumerate(events):
        _object_with(event, ("id", "action", "room", "points"), f"score event {i}")
        event_id = _typed(event["id"], str, f"score event {i} field 'id'")
        if event_id in event_ids:
            raise GameConfigError(f"score event {i} field 'id' repeats {event_id!r}")
        event_ids.add(event_id)
        what = f"event {event_id!r}"
        _typed(event["action"], str, f"{what} field 'action'")
        points = _typed(event["points"], (int, float), f"{what} points")
        if points < 0:
            raise GameConfigError(f"{what} has negative points")
        _known(event["room"], rooms, "room", f"{what} field 'room'")
        for obj in _typed(event.get("requires", []), list, f"{what} field 'requires'"):
            _known(obj, objects, "object", f"{what} required object")
        total += points
    if total != config["max_score"]:
        raise GameConfigError(f"event points sum to {total}, expected "
                              f"max_score {config['max_score']}")
    return config


def load_game_config(path) -> dict:
    """A game config file (``memory.read_json``), checked by validate_game_config."""
    [(_, config)] = read_json(path, json_of(dict), per_line=False)
    return validate_game_config(config)


def key_door_config() -> dict:
    """The shipped 10-room key-door fixture (max score 100, step limit 60)."""
    data = resources.files("memsteer.envs").joinpath("data/key_door.json").read_text("utf-8")
    return validate_game_config(json.loads(data))


class TextMicroGame:
    """A world and its current episode. ``__init__`` builds only the world (the
    limits and the door, exit, event and hop tables), which copies share and no
    episode changes; ``reset`` alone builds an episode and its first observation.
    An observation makes one pass over the room's exits and keeps the valid
    actions (it carries a copy) and the passable exits, which ``step`` reads."""

    def __init__(self, config: dict):
        self.config = validate_game_config(config)
        self.max_score = config["max_score"]
        self.step_limit = config["step_limit"]
        # the door between two rooms; the first listed wins where several are
        self._doors: dict[frozenset[str], dict] = {}
        for door in config["doors"]:
            self._doors.setdefault(frozenset(door["rooms"]), door)
        # each room's exits in config order as (direction, destination, door
        # or None), the advisor's next hops and its score events by id
        self._exits: dict[str, tuple[tuple[str, str, dict | None], ...]] = {
            rid: tuple((direction, dest, self._door_at(rid, dest))
                       for direction, dest in room.get("exits", {}).items())
            for rid, room in config["rooms"].items()}
        self._hops: dict[tuple[str, str, frozenset[str]], str | None] = {}
        self._events = {event["id"]: event for event in config["score_events"]}

    def reset(self) -> Observation:
        """Start a new episode in fresh mutable tables and observe its first state."""
        cfg = self.config
        self.room = cfg["start_room"]
        self.inventory: list[str] = []
        self.room_objects = {rid: list(room.get("objects", []))
                             for rid, room in cfg["rooms"].items()}
        self.open_doors: set[str] = set()
        self.fired: set[str] = set()
        self.score = 0
        self.steps = 0
        self.done = False
        self.visits = {rid: 0 for rid in cfg["rooms"]}
        self.visits[self.room] = 1
        return self.observe()

    @property
    def success(self) -> bool:
        return self.score >= self.max_score

    # -- world queries ---------------------------------------------------

    def _door_at(self, room_a: str, room_b: str) -> dict | None:
        return self._doors.get(frozenset((room_a, room_b)))

    def passable_exits(self, room: str) -> dict[str, str]:
        open_doors = self.open_doors
        return {direction: dest for direction, dest, door in self._exits[room]
                if door is None or door["id"] in open_doors}

    def _look_around(self) -> tuple[dict[str, str], list[str], list[str]]:
        """One pass over the current room's exits: its passable exits, the
        text's door clauses and the valid actions."""
        passable, clauses, unlocks = {}, [], []
        for direction, dest, door in self._exits[self.room]:
            if door is None or door["id"] in self.open_doors:
                passable[direction] = dest
            if door is not None:
                state = "open" if door["id"] in self.open_doors else "locked"
                clauses.append(f"the {door['title']} to the {direction} is {state}")
                if state == "locked" and door["requires"] in self.inventory:
                    unlocks.append(f"unlock {door['title']}")
        if self.done:
            return passable, clauses, []
        objects = self.config["objects"]
        actions = [f"go {d}" for d in passable]
        actions += [f"take {obj}" for obj in self.room_objects[self.room]
                    if objects[obj].get("portable", False)]
        actions += [f"put {obj}" for obj in self.inventory]
        return passable, clauses, actions + unlocks + ["look"]

    def valid_actions(self) -> list[str]:
        return self._look_around()[2]

    def observe(self) -> Observation:
        room = self.config["rooms"][self.room]
        passable, clauses, valid = self._look_around()
        parts = [f"location: {room['title']}"]
        objects = self.room_objects[self.room]
        if objects:
            parts.append("you see: " + ", ".join(objects))
        parts += clauses
        if passable:
            parts.append("exits: " + ", ".join(sorted(passable)))
        if self.inventory:
            parts.append("carrying: " + ", ".join(self.inventory))
        flavor = room.get("flavor", [])
        if flavor:
            parts.append(flavor[(self.visits[self.room] - 1) % len(flavor)])
        self._passable, self._valid = passable, valid  # what the next step reads
        return Observation(text=". ".join(parts) + ".", score=self.score,
                           done=self.done, valid_actions=list(valid))

    # -- dynamics ----------------------------------------------------------

    def step(self, action: str) -> Observation:
        if action not in self._valid:
            raise InvalidActionError(action, self._valid)
        acted_room = self.room
        inventory_before = list(self.inventory)
        verb, _, rest = action.partition(" ")
        if verb == "go":
            self.room = self._passable[rest]
            self.visits[self.room] += 1
        elif verb == "take":
            self.room_objects[self.room].remove(rest)
            self.inventory.append(rest)
        elif verb == "put":
            self.inventory.remove(rest)
            self.room_objects[self.room].append(rest)
        elif verb == "unlock":
            for door in self.config["doors"]:
                if door["title"] == rest and self.room in door["rooms"]:
                    self.open_doors.add(door["id"])
        elif verb == "look":
            self.visits[self.room] += 1
        # events match the action in the room where it was issued, with
        # requirements checked against the pre-action inventory
        for event in self.config["score_events"]:
            if event["id"] in self.fired:
                continue
            if event["action"] != action or event["room"] != acted_room:
                continue
            if any(req not in inventory_before for req in event.get("requires", [])):
                continue
            self.fired.add(event["id"])
            self.score += event["points"]
        self.steps += 1
        if self.score >= self.max_score or self.steps >= self.step_limit:
            self.done = True
        return self.observe()


def _bfs_next_hop(game: TextMicroGame, src: str, dst: str) -> str | None:
    """First direction of a shortest passable path src -> dst (deterministic),
    memoised per (src, dst, open doors) in the game's hop table."""
    key = (src, dst, frozenset(game.open_doors))
    if key not in game._hops:
        game._hops[key] = _search_next_hop(game, src, dst)
    return game._hops[key]


def _search_next_hop(game: TextMicroGame, src: str, dst: str) -> str | None:
    if src == dst:
        return None
    seen = {src}
    queue = deque([(src, None)])
    while queue:
        room, first = queue.popleft()
        for direction, nxt in game.passable_exits(room).items():
            if nxt in seen:
                continue
            hop = first if first is not None else direction
            if nxt == dst:
                return hop
            seen.add(nxt)
            queue.append((nxt, hop))
    return None


def _find_object_room(game: TextMicroGame, obj: str) -> str | None:
    for rid, objects in game.room_objects.items():
        if obj in objects:
            return rid
    return None


def _act_in(game: TextMicroGame, room: str | None, action: str) -> str:
    """``action`` when in ``room``, else the first BFS hop toward it, else look."""
    if room is None:
        return "look"
    if game.room == room:
        return action
    hop = _bfs_next_hop(game, game.room, room)
    return f"go {hop}" if hop else "look"


def advisor_action(game: TextMicroGame) -> str:
    """Optimal next action for the key-door fixture (phase-based BFS policy)."""
    goal_event = game._events
    if "delivered" in game.fired:
        return "look"
    door = game.config["doors"][0]
    key = door["requires"]
    if key not in game.inventory and door["id"] not in game.open_doors:
        return _act_in(game, _find_object_room(game, key), f"take {key}")
    if door["id"] not in game.open_doors:
        return _act_in(game, goal_event["door-open"]["room"], f"unlock {door['title']}")
    prize = goal_event["got-treasure"]["action"].split(" ", 1)[1]
    if prize not in game.inventory and "got-treasure" not in game.fired:
        return _act_in(game, _find_object_room(game, prize), f"take {prize}")
    return _act_in(game, goal_event["delivered"]["room"], f"put {prize}")


def noisy_advisor_policy(game: TextMicroGame, optimal_mass: float = 0.3):
    """Policy over valid actions: ``optimal_mass`` on the advisor's choice,
    the rest spread uniformly. The weak-but-informed base policy used by the
    end-to-end learning experiments."""
    if not 0.0 < optimal_mass <= 1.0:
        raise ValueError("optimal_mass must lie in (0, 1]")

    def policy(request) -> dict[str, float]:
        valid = request.valid_actions or game.valid_actions()
        best = advisor_action(game)
        if best not in valid:
            best = valid[0]
        if len(valid) == 1:
            return {valid[0]: 1.0}
        rest = (1.0 - optimal_mass) / (len(valid) - 1)
        return {a: (optimal_mass if a == best else rest) for a in valid}

    return policy


def key_door_game() -> TextMicroGame:
    return TextMicroGame(key_door_config())


def solution_path() -> list[str]:
    """Hand-authored optimal action sequence for the key-door fixture."""
    return [
        "go north", "go east", "take key", "go west", "go north",
        "unlock iron door", "go north", "go east", "take treasure",
        "go south", "put treasure",
    ]
