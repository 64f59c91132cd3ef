"""Set-up probe, run in a fresh interpreter by run.py.

For a workload, imports the command-line module, builds the config and
whatever the first operation of the workload needs, then prints
``time.monotonic()``. The parent reads the clock before starting the
interpreter, and since the monotonic clock is system-wide the difference is
the set-up time, interpreter start included.

``control`` imports numpy and the standard modules memsteer uses, and nothing
of memsteer. run.py scales each set-up time by the control's time taken just
before it, which cancels the shared machine's drift.

Usage: python3 setup_probe.py <workload|control>
"""

import sys
import time

import numpy as np


def ready(workload: str) -> None:
    import memsteer.cli as cli
    from memsteer.config import EngineConfig
    from memsteer.memory import MemoryStore

    if workload.startswith("keydoor"):
        EngineConfig.profile("text-game", 2.0)
        env = cli.build_env_factory("keydoor")(np.random.default_rng(0))
        cli.build_proposer_factory("noisy-advisor", 0.3)(env)
    elif workload == "consistency-sweep":
        env = cli.build_env_factory("six-mdp")(np.random.default_rng(0))
        cli.build_proposer_factory("fixture-policy", 0.3)(env)
        MemoryStore()
    elif workload == "web-churn":
        config = EngineConfig.profile("web", 1.0, memory_capacity=1000)
        MemoryStore(capacity=config.memory_capacity, state_weight=config.state_weight,
                    history_weight=config.history_weight)
    else:
        raise SystemExit(f"unknown workload {workload!r}")


def main(arg: str) -> None:
    if arg == "control":
        import argparse, csv, dataclasses, json, logging, pathlib  # noqa: E401, F401
    else:
        ready(arg)
    print(repr(time.monotonic()), flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
