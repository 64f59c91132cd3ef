import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from memsteer.memory import StateKey
from memsteer.proposer import ProposerError
from memsteer.returns import (EnvironmentTruthEvaluator, EvaluatorError, TrajectoryStep,
                              discounted_returns)
from memsteer.wire import (FixtureChatClient, RemoteEvaluator, build_scoring_request,
                           parse_step_scores)


def make_trajectory(deltas, actions=None):
    return [
        TrajectoryStep(state=StateKey(f"s{i}"), action=(actions[i] if actions else f"act{i}"),
                       observation=f"obs{i}", score_delta=delta)
        for i, delta in enumerate(deltas)
    ]


# -- discounted returns -----------------------------------------------------------


def test_single_step_return():
    assert discounted_returns([5.0], 0.9) == (5.0,)


def test_hand_computed_example():
    assert discounted_returns([1.0, 0.0, 2.0], 0.5) == (1.5, 1.0, 2.0)


def test_gamma_zero_returns_rewards():
    assert discounted_returns([1.0, 1.0, 1.0], 0.0) == (1.0, 1.0, 1.0)


def test_gamma_one_gives_suffix_sums():
    assert discounted_returns([1.0, 2.0, 3.0], 1.0) == (6.0, 5.0, 3.0)


def test_empty_rewards_error():
    with pytest.raises(ValueError, match="empty"):
        discounted_returns([], 0.5)


def test_non_finite_reward_error():
    with pytest.raises(ValueError, match="non-finite"):
        discounted_returns([1.0, float("inf")], 0.5)


def test_gamma_out_of_range_error():
    with pytest.raises(ValueError, match="gamma"):
        discounted_returns([1.0], 1.5)


@given(rewards=st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=30),
       gamma=st.floats(min_value=0.0, max_value=1.0))
def test_recursion_identity(rewards, gamma):
    values = discounted_returns(rewards, gamma)
    for t in range(len(rewards) - 1):
        assert values[t] == pytest.approx(rewards[t] + gamma * values[t + 1], abs=1e-9)
    assert values[-1] == rewards[-1]


# -- environment-truth evaluator -----------------------------------------------------


def test_environment_truth_passthrough():
    outcome = EnvironmentTruthEvaluator().evaluate(make_trajectory([0.0, 0.0, 10.0]))
    assert outcome.rewards == [0.0, 0.0, 10.0]
    assert not outcome.used_fallback


def test_environment_truth_unclamped():
    outcome = EnvironmentTruthEvaluator().evaluate(make_trajectory([40.0, -12.0]))
    assert outcome.rewards == [40.0, -12.0]


def test_environment_truth_terminal_bonus_on_success():
    evaluator = EnvironmentTruthEvaluator(terminal_bonus=7.0)
    outcome = evaluator.evaluate(make_trajectory([1.0, 2.0]), success=True)
    assert outcome.rewards == [1.0, 9.0]
    outcome = evaluator.evaluate(make_trajectory([1.0, 2.0]), success=False)
    assert outcome.rewards == [1.0, 2.0]


def test_environment_truth_requires_deltas():
    steps = [TrajectoryStep(state=StateKey("s"), action="a")]
    with pytest.raises(EvaluatorError, match="score delta"):
        EnvironmentTruthEvaluator().evaluate(steps)


# -- wire protocol ----------------------------------------------------------------


class StubClient:
    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def complete(self, payload):
        self.requests.append(payload)
        response = self.responses.pop(0)
        if isinstance(response, Exception):
            raise response
        return response


def scored_payload(items):
    return {"choices": [{"message": {"content": json.dumps({"steps": items})}}]}


def test_request_carries_transcript_and_guide():
    request = build_scoring_request(make_trajectory([0.0, 1.0], actions=["go", "take"]),
                                    model="m")
    assert request["model"] == "m"
    assert request["messages"][0]["role"] == "system"
    assert "score" in request["messages"][0]["content"].lower()
    user = request["messages"][1]["content"]
    assert "go" in user and "take" in user and "Step 1" in user


def test_parse_scores_per_guide():
    payload = scored_payload([
        {"step": 0, "action": "a", "score": 3},
        {"step": 1, "action": "b", "score": -3},
        {"step": 2, "action": "c", "score": 0},
    ])
    assert parse_step_scores(payload, 3) == [3.0, -3.0, 0.0]


def test_parse_scores_clamped_into_range():
    payload = scored_payload([{"step": 0, "action": "a", "score": 9},
                              {"step": 1, "action": "b", "score": -7}])
    assert parse_step_scores(payload, 2) == [3.0, -3.0]


def test_parse_scores_wrong_count_is_error():
    payload = scored_payload([{"step": 0, "action": "a", "score": 1},
                              {"step": 1, "action": "b", "score": 1}])
    with pytest.raises(EvaluatorError, match="expected 3"):
        parse_step_scores(payload, 3)


def test_parse_scores_error_carries_payload():
    payload = {"choices": [{"message": {"content": "not json"}}]}
    with pytest.raises(EvaluatorError) as err:
        parse_step_scores(payload, 1)
    assert err.value.payload is payload


def test_parse_scores_duplicate_index_is_error():
    payload = scored_payload([{"step": 0, "action": "a", "score": 1},
                              {"step": 0, "action": "b", "score": 1}])
    with pytest.raises(EvaluatorError, match="duplicate"):
        parse_step_scores(payload, 2)


@pytest.mark.parametrize("step, other", [(0.9, 1), (True, 0), ("0", 1), (1.5, 0)])
def test_parse_scores_step_index_must_be_an_integer(step, other):
    # int() would read each of these as the one index the other item leaves free
    payload = scored_payload([{"step": step, "action": "a", "score": 1},
                              {"step": other, "action": "b", "score": 1}])
    with pytest.raises(EvaluatorError, match="step index must be an integer"):
        parse_step_scores(payload, 2)


@pytest.mark.parametrize("score", [2.5, 0.001, -2.5])
def test_parse_scores_score_must_be_an_integer(score):
    payload = scored_payload([{"step": 0, "action": "a", "score": score},
                              {"step": 1, "action": "b", "score": 1}])
    with pytest.raises(EvaluatorError, match="score must be an integer"):
        parse_step_scores(payload, 2)


def test_parse_scores_accepts_an_integral_float_and_still_clamps():
    payload = scored_payload([{"step": 0, "action": "a", "score": 2.0},
                              {"step": 1, "action": "b", "score": -7.0}])
    assert parse_step_scores(payload, 2) == [2.0, -3.0]


def test_parse_scores_orders_by_step_index():
    payload = scored_payload([{"step": 1, "action": "b", "score": 2},
                              {"step": 0, "action": "a", "score": -1}])
    assert parse_step_scores(payload, 2) == [-1.0, 2.0]


def test_remote_evaluator_happy_path():
    client = StubClient([scored_payload([{"step": 0, "action": "a", "score": 2}])])
    evaluator = RemoteEvaluator(client, model="m")
    outcome = evaluator.evaluate(make_trajectory([0.0]))
    assert outcome.rewards == [2.0]
    assert not outcome.used_fallback


def test_remote_evaluator_retries_then_falls_back_to_zero():
    bad = {"choices": [{"message": {"content": "garbage"}}]}
    client = StubClient([bad, bad, bad])
    evaluator = RemoteEvaluator(client, model="m", max_retries=2)
    outcome = evaluator.evaluate(make_trajectory([0.0, 0.0]))
    assert outcome.rewards == [0.0, 0.0]
    assert outcome.used_fallback
    assert len(client.requests) == 3


def test_remote_evaluator_falls_back_on_client_failure():
    evaluator = RemoteEvaluator(FixtureChatClient([]), model="m", max_retries=2)
    outcome = evaluator.evaluate(make_trajectory([1.0, 2.0]))
    assert outcome.rewards == [0.0, 0.0]
    assert outcome.used_fallback


@pytest.mark.parametrize("failure", [ProposerError("transport down"),
                                     OSError("connection reset"), ValueError("not JSON")],
                         ids=["ProposerError", "OSError", "ValueError"])
def test_remote_evaluator_client_failure_is_final(failure):
    # the client retries its own transport, so one failed call ends the evaluation
    client = StubClient([failure] * 3)
    evaluator = RemoteEvaluator(client, model="m", max_retries=2)
    outcome = evaluator.evaluate(make_trajectory([0.0, 1.0]))
    assert len(client.requests) == 1
    assert outcome.rewards == [0.0, 0.0]
    assert outcome.used_fallback


def test_remote_evaluator_falls_back_on_overflowing_step_index():
    overflow = {"choices": [{"message": {"content": '{"steps": [{"step": 1e999, "score": 1}]}'}}]}
    client = StubClient([overflow, overflow])
    evaluator = RemoteEvaluator(client, model="m", max_retries=1)
    outcome = evaluator.evaluate(make_trajectory([0.0]))
    assert outcome.rewards == [0.0]
    assert outcome.used_fallback
    assert len(client.requests) == 2


def test_remote_evaluator_recovers_on_retry():
    bad = {"choices": [{"message": {"content": "garbage"}}]}
    good = scored_payload([{"step": 0, "action": "a", "score": 1}])
    client = StubClient([bad, good])
    evaluator = RemoteEvaluator(client, model="m", max_retries=1)
    outcome = evaluator.evaluate(make_trajectory([0.0]))
    assert outcome.rewards == [1.0]
    assert not outcome.used_fallback

