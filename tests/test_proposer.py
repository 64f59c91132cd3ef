import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from memsteer.memory import MemoryFormatError
from memsteer.policy import softmax
from memsteer.proposer import (CallablePolicyProposer, ProposerError, ProposerRequest,
                               TabularProposer, top_candidates, uniform_policy)
from memsteer.returns import EvaluatorError
from memsteer.wire import (FixtureChatClient, TokenLogitProposer, VerbalizedProposer,
                           confidence_logits, generation_messages, index_messages, reply_object,
                           verbalized_messages)


def chat_response(content, logprobs=None):
    choice = {"message": {"content": content}}
    if logprobs is not None:
        choice["logprobs"] = {"content": [{"top_logprobs": logprobs}]}
    return {"choices": [choice]}


def options_json(*actions):
    return json.dumps({"options": list(actions)})


def verbalized_json(pairs):
    return json.dumps({"options": [{"action": a, "confidence": c} for a, c in pairs]})


class ScriptedClient:
    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def complete(self, payload):
        self.requests.append(payload)
        return self.responses.pop(0)


# -- request/response contracts ----------------------------------------------------


def test_request_validates_candidate_count():
    with pytest.raises(ValueError):
        ProposerRequest(state_text="s", n_candidates=0)


def test_request_rejects_empty_valid_actions():
    with pytest.raises(ValueError):
        ProposerRequest(state_text="s", valid_actions=[])


def test_response_rejects_non_finite_logits():
    from memsteer.proposer import ProposerResponse

    with pytest.raises(ProposerError, match="non-finite"):
        ProposerResponse(candidates=[("a", float("inf"))])


# -- tabular proposer ----------------------------------------------------------------


def test_tabular_logits_are_log_probabilities():
    proposer = TabularProposer({"s0": {"left": 0.7, "right": 0.3}})
    response = proposer.propose(ProposerRequest(state_text="s0", n_candidates=2))
    assert dict(response.candidates) == {"left": math.log(0.7), "right": math.log(0.3)}


def test_tabular_uniform_row_gives_equal_logits():
    proposer = TabularProposer({"s": {"a": 1 / 3, "b": 1 / 3, "c": 1 / 3}})
    response = proposer.propose(ProposerRequest(state_text="s", n_candidates=3))
    logits = [z for _, z in response.candidates]
    assert logits[0] == logits[1] == logits[2]


def test_tabular_softmax_roundtrips_table_row(rng):
    for _ in range(25):
        probs = rng.dirichlet(np.ones(4))
        row = {f"a{i}": float(p) for i, p in enumerate(probs)}
        proposer = TabularProposer({"s": row})
        response = proposer.propose(ProposerRequest(state_text="s", n_candidates=4))
        recovered = softmax(np.array([z for _, z in response.candidates]))
        ordered = np.array([row[a] for a, _ in response.candidates])
        assert np.max(np.abs(recovered - ordered)) < 1e-12


def test_tabular_unknown_state_errors():
    proposer = TabularProposer({"s0": {"a": 1.0}})
    with pytest.raises(ProposerError, match="not in the policy table"):
        proposer.propose(ProposerRequest(state_text="s1"))


def test_tabular_truncates_to_n_candidates():
    row = {"a": 0.4, "b": 0.3, "c": 0.2, "d": 0.1}
    response = TabularProposer({"s": row}).propose(
        ProposerRequest(state_text="s", n_candidates=2))
    assert [a for a, _ in response.candidates] == ["a", "b"]


def test_tabular_respects_valid_action_filter():
    proposer = TabularProposer({"s": {"a": 0.6, "b": 0.4}})
    response = proposer.propose(ProposerRequest(state_text="s", n_candidates=2,
                                                valid_actions=["b"]))
    assert [a for a, _ in response.candidates] == ["b"]


def test_scripted_candidates_are_spelled_as_the_valid_actions():
    valid = ["go north", "go east", "look"]
    proposer = CallablePolicyProposer(lambda request: {"LOOK": 0.5, " Go   North ": 0.3,
                                                       "swim": 0.2})
    response = proposer.propose(ProposerRequest(state_text="s", valid_actions=valid,
                                                n_candidates=3))
    assert [a for a, _ in response.candidates] == ["look", "go north"]
    assert response.candidates[0][1] == math.log(0.5)


def test_scripted_options_spelled_as_one_valid_action_take_one_slot():
    proposer = CallablePolicyProposer(lambda request: {"LOOK": 0.4, "look": 0.35,
                                                       "go north": 0.25})
    response = proposer.propose(ProposerRequest(state_text="s",
                                                valid_actions=["look", "go north"],
                                                n_candidates=2))
    assert response.candidates == [("look", math.log(0.4)), ("go north", math.log(0.25))]
    # with no valid actions the first spelling keeps the slot
    response = proposer.propose(ProposerRequest(state_text="s", n_candidates=2))
    assert response.candidates == [("LOOK", math.log(0.4)), ("go north", math.log(0.25))]


def test_scripted_policy_is_asked_again_when_nothing_is_valid():
    calls = []

    def policy(request):
        calls.append(request)
        return {"swim": 1.0}

    with pytest.raises(ProposerError, match="after retry") as err:
        CallablePolicyProposer(policy).propose(ProposerRequest(state_text="s",
                                                               valid_actions=["look"]))
    assert len(calls) == 2
    assert err.value.payload == {"swim": 1.0}


def test_top_candidates_skips_zero_probability():
    assert top_candidates({"a": 0.0, "b": 1.0}) == [("b", 0.0)]


def test_uniform_policy_covers_valid_actions():
    request = ProposerRequest(state_text="s", valid_actions=["x", "y"], n_candidates=2)
    response = CallablePolicyProposer(uniform_policy).propose(request)
    assert dict(response.candidates) == {"x": math.log(0.5), "y": math.log(0.5)}


# -- token-logit proposer --------------------------------------------------------------


def test_token_logit_passthrough():
    client = ScriptedClient([
        chat_response(options_json("go north", "take key")),
        chat_response("1", logprobs=[{"token": "1", "logprob": -0.2},
                                     {"token": "2", "logprob": -1.8}]),
    ])
    proposer = TokenLogitProposer(client, model="m")
    response = proposer.propose(ProposerRequest(state_text="s", n_candidates=2))
    assert response.candidates == [("go north", -0.2), ("take key", -1.8)]
    assert client.requests[1]["logprobs"] is True


def test_token_logit_missing_index_gets_floor():
    client = ScriptedClient([
        chat_response(options_json("a", "b", "c")),
        chat_response("1", logprobs=[{"token": "1", "logprob": -0.1},
                                     {"token": "2", "logprob": -2.0}]),
    ])
    proposer = TokenLogitProposer(client, model="m")
    response = proposer.propose(ProposerRequest(state_text="s", n_candidates=3))
    assert response.candidates[2][1] == pytest.approx(math.log(1e-6), abs=1e-12)


def test_token_logit_missing_logprobs_is_error():
    client = ScriptedClient([
        chat_response(options_json("a")),
        chat_response("1"),  # no logprobs block
    ])
    proposer = TokenLogitProposer(client, model="m")
    with pytest.raises(ProposerError, match="no token log-probabilities"):
        proposer.propose(ProposerRequest(state_text="s"))


@pytest.mark.parametrize("options", [["a", ""], ["a", 3]])
def test_token_logit_options_must_be_non_empty_strings(options):
    client = ScriptedClient([chat_response(options_json(*options))])
    with pytest.raises(ProposerError, match="action strings"):
        TokenLogitProposer(client, model="m").propose(ProposerRequest(state_text="s"))


def test_token_logit_malformed_body_carries_payload():
    bad = chat_response("not json at all")
    client = ScriptedClient([bad])
    proposer = TokenLogitProposer(client, model="m")
    with pytest.raises(ProposerError) as err:
        proposer.propose(ProposerRequest(state_text="s"))
    assert err.value.payload is bad


def test_token_logit_valid_action_retry_then_error():
    client = ScriptedClient([
        chat_response(options_json("bogus one")),
        chat_response(options_json("bogus two")),
    ])
    proposer = TokenLogitProposer(client, model="m")
    with pytest.raises(ProposerError, match="after retry"):
        proposer.propose(ProposerRequest(state_text="s", valid_actions=["real"]))
    assert len(client.requests) == 2


def test_token_logit_valid_action_retry_recovers():
    client = ScriptedClient([
        chat_response(options_json("bogus")),
        chat_response(options_json("real")),
        chat_response("1", logprobs=[{"token": "1", "logprob": -0.3}]),
    ])
    proposer = TokenLogitProposer(client, model="m")
    response = proposer.propose(ProposerRequest(state_text="s", valid_actions=["real"]))
    assert response.candidates == [("real", -0.3)]


def test_token_logit_dedupes_proposed_actions():
    client = ScriptedClient([
        chat_response(options_json("a", "a", "b")),
        chat_response("1", logprobs=[{"token": "1", "logprob": -0.1},
                                     {"token": "2", "logprob": -0.2}]),
    ])
    response = TokenLogitProposer(ScriptedClient(client.responses), model="m").propose(
        ProposerRequest(state_text="s", n_candidates=3))
    assert [a for a, _ in response.candidates] == ["a", "b"]


def test_token_logit_candidates_are_spelled_as_the_valid_actions():
    client = ScriptedClient([
        chat_response(options_json("Go North", "LOOK")),
        chat_response("1", logprobs=[{"token": "1", "logprob": -0.2},
                                     {"token": "2", "logprob": -1.8}]),
    ])
    response = TokenLogitProposer(client, model="m").propose(ProposerRequest(
        state_text="s", valid_actions=["go north", "go east", "look"], n_candidates=2))
    assert response.candidates == [("go north", -0.2), ("look", -1.8)]
    assert client.requests[1]["messages"] == index_messages(["go north", "look"])


# -- verbalized proposer ----------------------------------------------------------------


def test_verbalized_equal_confidences_give_even_split():
    client = ScriptedClient([chat_response(verbalized_json([("x", 50), ("y", 50)]))])
    response = VerbalizedProposer(client, model="m").propose(
        ProposerRequest(state_text="s", n_candidates=2))
    dist = softmax(np.array([z for _, z in response.candidates]))
    assert np.allclose(dist, [0.5, 0.5], atol=1e-12)


def test_verbalized_90_10_split():
    client = ScriptedClient([chat_response(verbalized_json([("x", 90), ("y", 10)]))])
    response = VerbalizedProposer(client, model="m").propose(
        ProposerRequest(state_text="s", n_candidates=2))
    dist = softmax(np.array([z for _, z in response.candidates]))
    assert np.allclose(dist, [0.9, 0.1], atol=1e-12)


def test_verbalized_duplicate_actions_keep_their_first_confidence():
    client = ScriptedClient([chat_response(verbalized_json([("x", 60), (" X ", 30),
                                                            ("y", 10)]))])
    response = VerbalizedProposer(client, model="m").propose(
        ProposerRequest(state_text="s", n_candidates=2))
    assert [a for a, _ in response.candidates] == ["x", "y"]
    dist = softmax(np.array([z for _, z in response.candidates]))
    assert np.allclose(dist, [60 / 70, 10 / 70], atol=1e-12)


def test_verbalized_floor_rule_on_zero_confidences():
    client = ScriptedClient([chat_response(verbalized_json([("x", 100), ("y", 0), ("z", 0)]))])
    response = VerbalizedProposer(client, model="m").propose(
        ProposerRequest(state_text="s", n_candidates=3))
    dist = softmax(np.array([z for _, z in response.candidates]))
    assert np.allclose(dist, [100 / 102, 1 / 102, 1 / 102], atol=1e-12)


def test_verbalized_all_zero_confidences_uniform():
    client = ScriptedClient([chat_response(verbalized_json([("x", 0), ("y", 0)]))])
    response = VerbalizedProposer(client, model="m").propose(
        ProposerRequest(state_text="s", n_candidates=2))
    dist = softmax(np.array([z for _, z in response.candidates]))
    assert np.allclose(dist, [0.5, 0.5], atol=1e-12)


def test_verbalized_non_integer_confidence_is_error():
    client = ScriptedClient([chat_response(verbalized_json([("x", 55.5)]))])
    with pytest.raises(ProposerError, match="integer"):
        VerbalizedProposer(client, model="m").propose(ProposerRequest(state_text="s"))


def test_verbalized_out_of_range_confidence_is_error():
    client = ScriptedClient([chat_response(verbalized_json([("x", 120)]))])
    with pytest.raises(ProposerError, match="outside"):
        VerbalizedProposer(client, model="m").propose(ProposerRequest(state_text="s"))


@pytest.mark.parametrize("action", [["x"], 5, None, {"name": "x"}, ""])
def test_verbalized_action_must_be_a_non_empty_string(action):
    client = ScriptedClient([chat_response(verbalized_json([(action, 5)]))])
    with pytest.raises(ProposerError, match="action must be a non-empty string"):
        VerbalizedProposer(client, model="m").propose(ProposerRequest(state_text="s"))


def test_verbalized_candidates_are_spelled_as_the_valid_actions():
    client = ScriptedClient([chat_response(verbalized_json([("Go North", 70), ("look", 30)]))])
    response = VerbalizedProposer(client, model="m").propose(ProposerRequest(
        state_text="s", valid_actions=["go north", "go east", "look"], n_candidates=2))
    assert [a for a, _ in response.candidates] == ["go north", "look"]


# -- the n_candidates cut comes after the valid-action filter ------------------------------


def test_scripted_valid_option_below_the_cut_is_kept():
    proposer = CallablePolicyProposer(lambda request: {"swim": 0.6, "look": 0.4})
    response = proposer.propose(ProposerRequest(state_text="s", valid_actions=["look"],
                                                n_candidates=1))
    assert response.candidates == [("look", math.log(0.4))]


def test_token_logit_valid_option_below_the_cut_is_kept():
    request = ProposerRequest(state_text="hall", valid_actions=["look"], n_candidates=1)
    client = FixtureChatClient([
        {"request": {"messages": generation_messages(request)},
         "response": chat_response(options_json("swim", "look"))},
        {"request": {"messages": index_messages(["look"])},
         "response": chat_response("1", logprobs=[{"token": "1", "logprob": -0.1}])},
    ])
    response = TokenLogitProposer(client, model="m").propose(request)
    assert response.candidates == [("look", -0.1)]
    assert client.remaining == 0


def test_verbalized_valid_option_below_the_cut_is_kept():
    request = ProposerRequest(state_text="hall", valid_actions=["look"], n_candidates=1)
    client = FixtureChatClient([
        {"request": {"messages": verbalized_messages(request)},
         "response": chat_response(verbalized_json([("swim", 70), ("look", 30)]))},
    ])
    response = VerbalizedProposer(client, model="m").propose(request)
    assert response.candidates == [("look", 0.0)]


def test_token_logit_cuts_without_valid_actions():
    client = ScriptedClient([
        chat_response(options_json("a", "b", "c")),
        chat_response("1", logprobs=[{"token": "1", "logprob": -0.1}]),
    ])
    response = TokenLogitProposer(client, model="m").propose(
        ProposerRequest(state_text="s", n_candidates=2))
    assert [a for a, _ in response.candidates] == ["a", "b"]
    assert client.requests[1]["messages"] == index_messages(["a", "b"])


@given(confs=st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=6))
def test_confidence_logits_softmax_recovers_floored_distribution(confs):
    logits = confidence_logits(confs)
    floored = np.array([max(c, 1.0) for c in confs], dtype=float)
    assert np.allclose(softmax(np.array(logits)), floored / floored.sum(), atol=1e-12)


@pytest.mark.parametrize("error", [ProposerError, EvaluatorError])
@pytest.mark.parametrize("payload", [
    {}, {"choices": []}, {"choices": [{"message": {}}]},
    chat_response(None), chat_response("not json"), chat_response("[1, 2]"),
])
def test_reply_object_raises_the_callers_error_with_the_payload(payload, error):
    with pytest.raises(error) as err:
        reply_object(payload, error)
    assert err.value.payload is payload


# -- http client (offline, stubbed transport) ------------------------------------------------


def test_http_client_posts_json_with_auth(monkeypatch):
    import requests as requests_module

    from memsteer.wire import HttpChatClient

    seen = {}

    class FakeResponse:
        def raise_for_status(self):
            pass

        def json(self):
            return {"choices": []}

    def fake_post(url, json=None, headers=None, timeout=None):
        seen.update(url=url, json=json, headers=headers, timeout=timeout)
        return FakeResponse()

    monkeypatch.setattr(requests_module, "post", fake_post)
    client = HttpChatClient("https://llm.test/v1/chat", api_key="sk-x", timeout=9.0)
    payload = {"model": "m", "messages": []}
    assert client.complete(payload) == {"choices": []}
    assert seen["url"] == "https://llm.test/v1/chat"
    assert seen["json"] is payload
    assert seen["headers"]["Authorization"] == "Bearer sk-x"
    assert seen["timeout"] == 9.0


def test_http_client_retries_then_raises(monkeypatch):
    import requests as requests_module

    from memsteer.wire import HttpChatClient

    calls = {"n": 0}

    def failing_post(url, json=None, headers=None, timeout=None):
        calls["n"] += 1
        raise requests_module.ConnectionError("refused")

    monkeypatch.setattr(requests_module, "post", failing_post)
    client = HttpChatClient("https://llm.test/v1/chat", max_attempts=3, retry_delay=0.0)
    with pytest.raises(ProposerError, match="after 3 attempts"):
        client.complete({"model": "m", "messages": []})
    assert calls["n"] == 3


def http_response(status, body=b'{"choices": []}'):
    import requests as requests_module

    response = requests_module.Response()
    response.status_code = status
    response._content = body
    response.url = "https://llm.test/v1/chat"
    return response


@pytest.mark.parametrize("status", [400, 401, 403, 404, 422])
def test_http_client_does_not_resend_a_client_error(monkeypatch, status):
    import requests as requests_module

    from memsteer.wire import HttpChatClient

    sends = []

    def rejecting_post(url, json=None, headers=None, timeout=None):
        sends.append(json)
        return http_response(status)

    monkeypatch.setattr(requests_module, "post", rejecting_post)
    client = HttpChatClient("https://llm.test/v1/chat", max_attempts=3, retry_delay=0.0)
    with pytest.raises(ProposerError, match=str(status)):
        client.complete({"model": "m", "messages": []})
    assert len(sends) == 1


@pytest.mark.parametrize("status", [429, 500, 502, 503])
def test_http_client_resends_server_errors_and_rate_limits(monkeypatch, status):
    import requests as requests_module

    from memsteer.wire import HttpChatClient

    replies = [http_response(status), http_response(status), http_response(200)]

    def flaky_post(url, json=None, headers=None, timeout=None):
        return replies.pop(0)

    monkeypatch.setattr(requests_module, "post", flaky_post)
    client = HttpChatClient("https://llm.test/v1/chat", max_attempts=3, retry_delay=0.0)
    assert client.complete({"model": "m", "messages": []}) == {"choices": []}
    assert not replies

    replies.extend([http_response(status)] * 3)
    with pytest.raises(ProposerError, match="after 3 attempts"):
        client.complete({"model": "m", "messages": []})
    assert not replies


# -- fixture client -----------------------------------------------------------------------


def test_fixture_client_replays_in_order(tmp_path):
    request = {"model": "m", "temperature": 0.8,
               "messages": generation_messages(ProposerRequest(state_text="s"))}
    exchanges = [{"request": {"model": "m", "messages": request["messages"]},
                  "response": chat_response(options_json("go"))}]
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(exchanges), encoding="utf-8")
    client = FixtureChatClient(str(path))
    assert client.remaining == 1
    payload = client.complete(request)
    assert payload == exchanges[0]["response"]
    with pytest.raises(ProposerError, match="exhausted"):
        client.complete(request)


@pytest.mark.parametrize("data,reason", [
    (b'[{"request": {"model": "caf\xe9"}}]', "not UTF-8 text"),
    (b'[{"request": ', "invalid JSON (Expecting value)"),
    (b'{"request": {}, "response": {}}', "not a JSON array"),
], ids=["not-utf8", "not-json", "object"])
def test_fixture_client_names_the_file_it_cannot_read(tmp_path, data, reason):
    path = tmp_path / "fixture.json"
    path.write_bytes(data)
    with pytest.raises(MemoryFormatError) as exc:
        FixtureChatClient(str(path))
    assert str(exc.value) == f"{path}: {reason}" and exc.value.path == str(path)


def test_fixture_client_detects_request_drift():
    exchanges = [{"request": {"model": "expected"}, "response": chat_response("{}")}]
    client = FixtureChatClient(exchanges)
    with pytest.raises(ProposerError, match="mismatch"):
        client.complete({"model": "other"})


def test_committed_fixture_drives_verbalized_proposer():
    path = Path(__file__).parent / "fixtures" / "verbalized_exchange.json"
    proposer = VerbalizedProposer(FixtureChatClient(str(path)), model="desk-model")
    response = proposer.propose(ProposerRequest(state_text="hall", n_candidates=3))
    dist = softmax(np.array([z for _, z in response.candidates]))
    assert [a for a, _ in response.candidates] == ["go north", "take key", "look"]
    assert np.allclose(dist, [0.6, 0.3, 0.1], atol=1e-12)


def test_fixture_backed_token_logit_roundtrip():
    request = ProposerRequest(state_text="hall door", history_text="go north",
                              valid_actions=["go north", "take key"], n_candidates=2)
    generation_request = {"model": "m", "temperature": 0.8,
                          "messages": generation_messages(request)}
    exchanges = [
        {"request": {"messages": generation_request["messages"]},
         "response": chat_response(options_json("go north", "take key"))},
        {"request": {"messages": index_messages(["go north", "take key"])},
         "response": chat_response("2", logprobs=[{"token": "2", "logprob": -0.4},
                                                  {"token": "1", "logprob": -1.1}])},
    ]
    proposer = TokenLogitProposer(FixtureChatClient(exchanges), model="m")
    response = proposer.propose(request)
    assert response.candidates == [("go north", -1.1), ("take key", -0.4)]
