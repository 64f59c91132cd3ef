"""Desk-scale environments with exact ground truth.

``memsteer.envs.tabular`` holds a small stochastic MDP family (the substrate
for the convergence experiments), ``memsteer.envs.textgame`` a deterministic
key-door micro-game driven by a declarative config, and
``memsteer.envs.abstraction`` the observation-to-state mapping shared by
both. The package itself holds only :class:`Observation`, so importing one
environment does not compile the other: import each name from its own module.

The env contract the episode loop relies on: an env from a factory holds no
episode until ``reset``; ``reset`` builds the episode's one first observation;
after ``reset`` two factory envs share no mutable state with each other or
with the template they were made from. Each observation owns its action list.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Observation:
    """What an environment shows the agent after each step."""

    text: str
    score: float
    done: bool
    valid_actions: list[str] = field(default_factory=list)


__all__ = ["Observation"]
