"""memsteer benchmark: one workload per invocation, results as one JSON line.

Usage (from the repository root):

    python3 perfbench/run.py --workload keydoor-learn --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced passes with passes in which the public
functions of each memsteer module are wrapped (tracing.py), and reports the
per-layer split. The last line of standard output is always
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are for
people. A fuller record, output digests included, goes to
``perfbench/out/<workload>-seed<n>-trace<t>.json``.

The program is imported from ``src/`` of the checkout the script sits in. When
that tree is absent the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_PROBES = 7        # set-up probes per --trace 0 run, each with a control
MIN_PASSES = 3          # untraced passes per --trace 0 run; the first is warm-up
MIN_TRACE_PASSES = 2    # of each kind per --trace 1 run

END_TO_END = {
    "setup_s": "s",
    "ops_per_s_norm": "1/s",
    "decision_p50_ms_norm": "ms",
    "decision_p99_ms_norm": "ms",
    "peak_rss_mb": "MB",
}
# printed and recorded with --trace 0, but not part of the result line
RAW_TIMES = {"setup_raw_s": "s", "setup_control_s": "s", "ops_per_s": "1/s",
             "decision_p50_ms": "ms", "decision_p99_ms": "ms", "reference_ms": "ms"}

LAYER_TIMES = ("memory.retrieve", "memory.add", "memory.ActionNormalizer",
               "proposer.propose", "policy.augment_candidates", "policy.sample",
               "estimator.estimate", "envs.abstraction", "envs.step",
               "returns.evaluate", "runner.persistence", "oracle.rollout",
               "oracle.exact_values")
PER_LAYER = {
    **{f"{layer}.calls": "count" for layer in LAYER_TIMES},
    "memory.retrieve.self_s": "s",
    "memory.add.self_s": "s",
    "memory.retrieve.p99_us": "us",
    "memory.retrieve.store_rows": "count",
    "memory.retrieve.hit_rate": "ratio",
    "memory.retrieve.neighbors_mean": "count",
    "memory.evictions": "count",
    "policy.augment_candidates.memory_only_share": "ratio",
    "estimator.estimate.known_share": "ratio",
    "estimator.estimate.explored_share": "ratio",
    "estimator.estimate.neutral_share": "ratio",
    "runner.persistence.bytes": "B",
    "runner.persistence.bytes.metrics_csv": "B",
    "runner.persistence.bytes.summary_json": "B",
    "runner.persistence.bytes.records_jsonl": "B",
    "runner.persistence.bytes.memory_jsonl": "B",
    "runner.residual_s": "s",
    "trace.overhead_s": "s",
    "trace.missing": "count",
    "traffic.distinct_state_share": "ratio",
    "traffic.distinct_history_share": "ratio",
    "traffic.eviction_share": "ratio",
}
# Self times of the layers that some workload in BENCHMARK.json never reaches.
# Such a time would read 0.0 on every run of that workload, so these are
# printed and recorded with --trace 1 but left out of the result line; their
# call counts stay in it.
PARTIAL_LAYER_TIMES = {f"{layer}.self_s": "s" for layer in LAYER_TIMES
                       if f"{layer}.self_s" not in PER_LAYER}


# Nominal time of ``reference_s`` on a quiet run of the machine the benchmark
# was tuned on (2-core Xeon VM at 2.1 GHz); normalized metrics are scaled to it.
REFERENCE_NOMINAL_S = 0.020
# Nominal time of the control probe (setup_probe.py control) on the same
# machine; setup_s is scaled to it.
CONTROL_NOMINAL_S = 0.14

_reference_rng = random.Random(0)
_REFERENCE_SETS = [frozenset(_reference_rng.sample(range(400), _reference_rng.randint(4, 12)))
                   for _ in range(2000)]


def reference_s() -> float:
    """Wall time of a fixed piece of pure-Python work, set intersections and
    integer arithmetic like memsteer's hot loops, that no change to memsteer
    can alter. It measures how fast the machine runs at that moment."""
    start = perf_counter()
    total = 0
    for probe in _REFERENCE_SETS[:16]:
        for other in _REFERENCE_SETS:
            total += len(probe & other)
    for i in range(120_000):
        total += i * i % 7
    return perf_counter() - start


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def probe_s(arg: str) -> float:
    """Time from starting ``setup_probe.py <arg>`` in a fresh interpreter to
    the probe's report that it is ready.

    The probe's numpy starts one BLAS thread rather than one per core. On a
    2-core machine, starting the pool raced whatever else ran there, and
    numpy's import time then varied more than memsteer's own set-up did."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    started = monotonic()
    done = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), arg],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1]) - started


def measure_setup(workload: str) -> tuple[list[float], list[float]]:
    """Set-up times of ``SETUP_PROBES`` fresh interpreters, one after another,
    and the time of a control probe started just before each.

    The control starts an interpreter and imports numpy and the standard
    modules memsteer uses, so no change to memsteer can alter it. Interpreter
    start and imports slow down with the shared machine in a way that the
    pure-Python ``reference_s`` does not follow, but the control does.
    """
    setup, control = [], []
    for _ in range(SETUP_PROBES):
        control.append(probe_s("control"))
        setup.append(probe_s(workload))
    return setup, control


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_passes(workload, seconds: float, trace: bool):
    """Identical passes until ``seconds`` are used. A trace run alternates
    untraced and traced passes. Returns (untraced, traced, tracer, peak RSS
    after the first pass). The RSS is read then because the benchmark's own
    per-pass records grow with the number of passes, which depends on the
    machine's speed; later passes repeat the program's work exactly."""
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    untraced, traced = [], []
    deadline = perf_counter() + seconds
    reference = reference_s()
    while True:
        if trace and len(traced) < len(untraced):
            tracer.install()
            try:
                result = workload.run_pass(tracer)
            finally:
                tracer.uninstall()
            traced.append(result)
        else:
            result = workload.run_pass(check=not untraced)
            untraced.append(result)
            if len(untraced) == 1:
                first_rss = peak_rss_mb()
        after = reference_s()
        result.reference_s = (reference + after) / 2
        reference = after
        walls = [p.wall_s for p in untraced + traced]
        enough = (len(untraced) >= MIN_TRACE_PASSES and len(traced) >= MIN_TRACE_PASSES
                  if trace else len(untraced) >= MIN_PASSES)
        if enough and perf_counter() + statistics.median(walls) > deadline:
            return untraced, traced, tracer, first_rss


def end_to_end_metrics(passes, setup, rss_mb: float) -> dict[str, float]:
    """Throughput and latency over every pass but the first, which warms up.

    Throughput is the total operations over the total time, and a latency
    percentile is taken per pass and then averaged. The ``_norm`` metrics
    scale each pass's times by ``REFERENCE_NOMINAL_S / reference_s`` measured
    around that pass: the shared machine's speed drifts by up to 2x in phases
    of seconds to minutes (README.md, Noise), and the ratio cancels most of it.
    ``setup_s`` is the median of the set-up times, each scaled by
    ``CONTROL_NOMINAL_S / control`` with the control probe started just before.
    """
    timed = passes[1:]
    raw = [1.0] * len(timed)
    norm = [REFERENCE_NOMINAL_S / p.reference_s for p in timed]
    setup_times, control_times = setup
    out = {"setup_s": statistics.median([t * CONTROL_NOMINAL_S / c
                                         for t, c in zip(setup_times, control_times)]),
           "setup_raw_s": statistics.median(setup_times),
           "setup_control_s": statistics.median(control_times), "peak_rss_mb": rss_mb}
    for suffix, scales in (("", raw), ("_norm", norm)):
        out[f"ops_per_s{suffix}"] = (sum(p.ops for p in timed)
                                     / sum(p.wall_s * k for p, k in zip(timed, scales)))
        for q, name in ((0.50, "p50"), (0.99, "p99")):
            out[f"decision_{name}_ms{suffix}"] = 1e3 * statistics.fmean(
                percentile(p.latencies_s, q) * k for p, k in zip(timed, scales))
    out["reference_ms"] = 1e3 * statistics.fmean(p.reference_s for p in timed)
    return out


def per_layer_metrics(tracer, untraced, traced) -> dict[str, float]:
    n = len(traced)
    counts = tracer.counts
    out: dict[str, float] = {}
    for layer in LAYER_TIMES:
        stats = tracer.layers.get(layer)
        out[f"{layer}.calls"] = (stats.calls if stats else 0) / n
        out[f"{layer}.self_s"] = (stats.self_s if stats else 0.0) / n
    retrieves = out["memory.retrieve.calls"] * n
    adds = out["memory.add.calls"] * n
    out["memory.retrieve.p99_us"] = percentile(tracer.retrieve_us, 0.99)
    out["memory.retrieve.store_rows"] = counts["retrieve.store_rows"] / n
    out["memory.retrieve.hit_rate"] = ratio(counts["retrieve.hits"], retrieves)
    out["memory.retrieve.neighbors_mean"] = ratio(counts["retrieve.neighbors"],
                                                  counts["retrieve.hits"])
    out["memory.evictions"] = counts["memory.evictions"] / n
    out["policy.augment_candidates.memory_only_share"] = ratio(
        counts["candidates.memory_only"], counts["candidates"])
    for source in ("known", "explored", "neutral"):
        out[f"estimator.estimate.{source}_share"] = ratio(counts[f"values.{source}"],
                                                          counts["values"])
    sizes = traced[-1].output_bytes
    out["runner.persistence.bytes"] = sum(sizes.values())
    for name in ("metrics.csv", "summary.json", "records.jsonl", "memory.jsonl"):
        out[f"runner.persistence.bytes.{name.replace('.', '_')}"] = sizes.get(name, 0)
    traced_wall = statistics.fmean(p.wall_s for p in traced)
    out["runner.residual_s"] = traced_wall - tracer.root_s / n
    out["trace.overhead_s"] = traced_wall - statistics.fmean(p.wall_s for p in untraced)
    out["trace.missing"] = len(set(tracer.missing))
    out["traffic.distinct_state_share"] = ratio(len(tracer.state_sets), adds / n)
    out["traffic.distinct_history_share"] = ratio(len(tracer.history_sets), adds / n)
    out["traffic.eviction_share"] = ratio(counts["memory.evictions"], adds)
    return out


def gate_results(passes) -> dict[str, bool]:
    """Correctness gates: the first pass's own checks, then one repeat-digest
    check per later pass."""
    first = passes[0]
    gates = dict(first.checks)
    for i, later in enumerate(passes[1:], start=1):
        gates[f"repeat_digests_pass{i}"] = later.digests == first.digests
    return gates


def machine() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def run_one(workload, seed: int, seconds: float, trace: bool) -> int:
    name = workload.name
    out_dir = OUT / name / f"seed{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    workload.prepare(seed, out_dir)
    untraced, traced, tracer, rss_mb = run_passes(workload, seconds, trace)
    passes = untraced + traced
    gates = gate_results(passes)
    failed_gates = sorted(k for k, ok in gates.items() if not ok)
    unit_failures = sum(p.unit_failures for p in passes)
    attempted = sum(p.units for p in passes) + len(gates)
    failed = unit_failures + len(failed_gates)

    if trace:
        values = per_layer_metrics(tracer, untraced, traced)
        units, extra_units = PER_LAYER, PARTIAL_LAYER_TIMES
    else:
        values = end_to_end_metrics(untraced, measure_setup(name), rss_mb)
        units, extra_units = END_TO_END, RAW_TIMES
    metrics = {key: {"value": values[key], "unit": units[key]} for key in units}
    extra = {key: {"value": values[key], "unit": unit} for key, unit in extra_units.items()}

    first = passes[0]
    samples = len(first.latencies_s)
    print(f"workload={name} seed={seed} trace={int(trace)} passes={len(untraced)}"
          f"+{len(traced)} traced, {first.ops} {workload.op} per pass, median pass "
          f"wall {statistics.median(p.wall_s for p in untraced):.4f} s, {samples} "
          f"latency samples per pass ({samples // 100} beyond p99)")
    for key, ok in gates.items():
        print(f"  gate {key}: {'ok' if ok else 'FAILED'}")
    for key, digest in first.digests.items():
        print(f"  sha256 {key}: {digest}")
    for key, value in first.quality.items():
        print(f"  {key}: {value!r}")
    if trace and tracer.missing:
        print(f"  missing (not traced): {', '.join(sorted(set(tracer.missing)))}")
    for key, metric in {**metrics, **extra}.items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")

    result = {"correct": not failed_gates and unit_failures == 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": machine(), "passes": {"untraced": len(untraced),
                                              "traced": len(traced)},
              "walls_s": [p.wall_s for p in passes], "gates": gates,
              "digests": first.digests, "quality": first.quality,
              "missing": sorted(set(tracer.missing)) if trace else [], "extra": extra,
              **result}
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def run_all(names, seed: int, seconds: float, trace: bool) -> int:
    """The named workloads, each in its own interpreter so peak memory is its own."""
    status = 0
    for name in names:
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))], cwd=ROOT)
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "memsteer" / "__init__.py").is_file():
        print(f"error: no memsteer source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import memsteer

    if Path(memsteer.__file__).resolve().parent != SRC / "memsteer":
        print(f"error: memsteer imported from {memsteer.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        named = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
        return run_all([w["name"] for w in named], args.seed, args.seconds, bool(args.trace))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run_one(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
