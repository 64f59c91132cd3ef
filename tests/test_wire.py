"""The remote exchange: the request bytes the package sends and how often it
sends them when the endpoint is down."""

import hashlib
import json

import pytest

from memsteer.memory import StateKey
from memsteer.proposer import ProposerRequest
from memsteer.returns import TrajectoryStep
from memsteer.wire import (HttpChatClient, RemoteEvaluator, build_scoring_request,
                           generation_messages, index_messages, verbalized_messages)

REQUESTS = {
    "bare": ProposerRequest(state_text="hall door"),
    "history": ProposerRequest(state_text="hall door", history_text="go north | take key",
                               n_candidates=2),
    "valid": ProposerRequest(state_text="Kitchen  table", valid_actions=["look", "take knife"],
                             n_candidates=4),
    "history+valid": ProposerRequest(state_text="cellar – dark", history_text="open door",
                                     valid_actions=["go up", "light lamp", "wait"]),
}

TRAJECTORIES = {
    "observed": [
        TrajectoryStep(state=StateKey("hall door", history="go north"), action="take key",
                       observation="You take the key."),
        TrajectoryStep(state=StateKey("hall door"), action="open door", observation="Opened."),
    ],
    "silent": [TrajectoryStep(state=StateKey("s0"), action="wait")],
}


def wire_digest(payload) -> str:
    """sha256 of the body ``requests.post(json=payload)`` sends."""
    return hashlib.sha256(json.dumps(payload, allow_nan=False).encode("utf-8")).hexdigest()


# sha256 of each request body, captured when the two proposer prompts still built
# their state lines apart; any change to a prompt's bytes fails here
PINNED = {
    "generation/bare":
        "4c6a10d6556c5a961330791c1bc0daef619bd600261646e0051deb7d0b385865",
    "generation/history":
        "5a8177d3382ea550f06e3e9b8dda4809da4a894f0c55e1179d45fbc644f33bf8",
    "generation/valid":
        "1acd38368daebca90d6733d4bb3cc0eaeb66debdec6361e374473c72576b273a",
    "generation/history+valid":
        "0047a6f8779fd35b222c391436b1b341fe0b42da5cdc8fc56e81de748a49776c",
    "verbalized/bare":
        "ffaa61b9c1f33774a41c6d3790da6b6283f527904249b429b3c66b7d521d48e0",
    "verbalized/history":
        "fefad1566a3b9849a6b7369aedb648ad09475ffc823fae5a3afa3dac44b45f39",
    "verbalized/valid":
        "abeb7b5a08cff56c517aea7becd8d4b88afc27fd77df3faf30ae1edf5db2ac63",
    "verbalized/history+valid":
        "c3c14288745d1f7f268555015b006ec501aba85c709c9ea316e815b256aab2d2",
    "index/two":
        "323dbd891f7d8bbfd446db0ded7829fa2452e52d4d533780efad94631bd3123e",
    "index/one":
        "bc9f80c283d25049d88d6f838a6e0c635d3e067f02936a93881d64fbdfa71035",
    "scoring/observed":
        "c85ebfd9f337ccb09564f92a0bc31f27c28cbf1423a1d4a4d4583336eed4e9e4",
    "scoring/silent":
        "c725f947f34b82c5e2ad0fe73dfdd2375e91664a8628fcbd53416cd60e394928",
}


def built_payloads() -> dict:
    payloads = {}
    for name, request in REQUESTS.items():
        payloads[f"generation/{name}"] = generation_messages(request)
        payloads[f"verbalized/{name}"] = verbalized_messages(request)
    payloads["index/two"] = index_messages(["go north", "take key"])
    payloads["index/one"] = index_messages(["wait"])
    for name, trajectory in TRAJECTORIES.items():
        payloads[f"scoring/{name}"] = build_scoring_request(trajectory, model="judge")
    return payloads


@pytest.mark.parametrize("name", sorted(PINNED))
def test_request_bytes_are_pinned(name):
    assert wire_digest(built_payloads()[name]) == PINNED[name]


def test_dead_endpoint_costs_one_round_of_transport_retries(monkeypatch):
    import requests as requests_module

    sends = []

    def refused(url, json=None, headers=None, timeout=None):
        sends.append(json)
        raise requests_module.ConnectionError("refused")

    monkeypatch.setattr(requests_module, "post", refused)
    client = HttpChatClient("https://llm.test/v1/chat", max_attempts=3, retry_delay=0.0)
    evaluator = RemoteEvaluator(client, model="judge", max_retries=2)
    outcome = evaluator.evaluate(TRAJECTORIES["observed"])
    assert len(sends) == 3
    assert outcome.rewards == [0.0, 0.0]
    assert outcome.used_fallback
