"""The benchmark tracer names package functions by "module:qualified.name".

A refactor that renames or drops one of them must fail here, not later as a
``trace.missing`` count in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_target_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    missing = [target for _, target, _, _ in tracing.TARGETS
               if tracing._resolve(target)[2] is None]
    assert tracing.TARGETS and missing == []
