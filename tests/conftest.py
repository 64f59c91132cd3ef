import numpy as np
import pytest

from memsteer.memory import MemoryEntry, MemoryStore, StateKey

VOCAB = ["door", "key", "hall", "vault", "lamp", "rope", "coin", "gate",
         "map", "torch", "well", "arch"]
ACTIONS = ["go north", "go south", "take key", "open door", "look", "wait"]


def random_state_text(rng: np.random.Generator, max_tokens: int = 5) -> str:
    n = int(rng.integers(0, max_tokens + 1))
    return " ".join(rng.choice(VOCAB, size=n, replace=True))


def random_entries(rng: np.random.Generator, n: int) -> list[MemoryEntry]:
    entries = []
    for i in range(n):
        state = StateKey(text=random_state_text(rng),
                         history=random_state_text(rng, max_tokens=3))
        entries.append(MemoryEntry(
            state=state,
            action=str(rng.choice(ACTIONS)),
            return_value=float(rng.uniform(-10, 10)),
            episode=int(rng.integers(0, 50)),
            step=int(rng.integers(0, 60)),
            time_index=i,
        ))
    return entries


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)


def populated_store(rng: np.random.Generator, n: int, **kwargs) -> MemoryStore:
    store = MemoryStore(**kwargs)
    for entry in random_entries(rng, n):
        store.add(entry.state, entry.action, entry.return_value,
                  episode=entry.episode, step=entry.step)
    return store
