"""The benchmark tracer names package functions by "module:qualified.name".

A refactor that renames or drops one of them must fail here, not later as a
``trace.missing`` count in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_target_resolves(monkeypatch):
    tracing = load_tracing(monkeypatch)
    missing = [target for _, target, _, _ in tracing.TARGETS
               if tracing._resolve(target)[2] is None]
    assert tracing.TARGETS and missing == []


def test_traced_layers_stay_on_the_decision_path(monkeypatch):
    # a target inlined into its caller would still resolve above, but its
    # time would silently move into the harness's unattributed residual
    tracing = load_tracing(monkeypatch)
    from memsteer.cli import build_env_factory, build_proposer_factory
    from memsteer.config import EngineConfig
    from memsteer.runner import run_experiment

    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, _, records = run_experiment(
            EngineConfig.profile("text-game", 2.0, episodes=6, seed=3),
            build_env_factory("keydoor"), build_proposer_factory("noisy-advisor", 0.3))
    finally:
        tracer.uninstall()
    decisions = sum(len(record.decisions) for record in records)
    calls = {layer: stats.calls for layer, stats in tracer.layers.items()}
    hits = tracer.counts["retrieve.hits"]
    assert tracer.missing == []
    assert decisions > 0 and 0 < hits < decisions
    assert calls["envs.abstraction"] == decisions
    assert calls["memory.retrieve"] == decisions
    assert calls["policy.augment_candidates"] == decisions
    # estimate_candidates and advantage_vector once per decision with neighbours
    assert calls["estimator.estimate"] == 2 * hits
    # logit_update and softmax_sample once per decision
    assert calls["policy.sample"] == 2 * decisions
    assert calls["memory.ActionNormalizer"] >= decisions
