"""The run directory: the four files a run writes, on one schedule, and their readers.

* Before the first episode, :func:`open_run` checks the four paths, then opens
  ``memory.jsonl`` (the bank), ``records.jsonl`` and ``metrics.csv`` once,
  empty, and empties ``summary.json``.
* After each episode, one :func:`write_outputs` call appends its bank rows,
  its records line and its metrics row, and flushes them, so between two
  episodes the three files hold exactly the finished episodes.
* After the last episode, :func:`write_summary` writes ``summary.json``.

The files are closed when the last episode ends or one raises, so a run that
raises leaves its finished episodes and an empty summary, never the files of
an earlier run: a directory without a readable summary is an unfinished run,
and :func:`read_summary` refuses it.
"""

from __future__ import annotations

import csv
import errno
import json
import os
from contextlib import contextmanager
from itertools import takewhile
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from memsteer.config import MODES, EngineConfig
from memsteer.memory import MemoryEntry, append_records, json_of, json_value, read_bank, read_json

if TYPE_CHECKING:
    from memsteer.runner import EpisodeRecord, MetricsReport

OUTPUTS = BANK, METRICS, SUMMARY, RECORDS = (
    "memory.jsonl", "metrics.csv", "summary.json", "records.jsonl")


def _check_outputs(out_dir: Path) -> None:
    """Raise the ``OSError`` that writing a run's outputs in ``out_dir`` would
    raise, before anything is written: an output that exists is opened to
    append, which changes no byte, and one that does not needs a writable
    directory."""
    for name in OUTPUTS:
        path = out_dir / name
        if path.exists():
            open(path, "a", encoding="utf-8").close()
        elif not os.access(out_dir, os.W_OK | os.X_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))


@contextmanager
def open_run(out_dir) -> Iterator[tuple]:
    """Make and check ``out_dir``; hold its bank, records and metrics open."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _check_outputs(out_dir)
    with open(out_dir / BANK, "w", encoding="utf-8") as bank, \
            open(out_dir / RECORDS, "w", encoding="utf-8") as records, \
            open(out_dir / METRICS, "w", encoding="utf-8", newline="") as metrics:
        (out_dir / SUMMARY).write_text("", encoding="utf-8")
        rows = csv.writer(metrics)
        rows.writerow(["episode", "score", "success", "steps", "aborted", "memory_size"])
        yield bank, records, metrics, rows  # the header waits for the first episode's flush


def write_outputs(files: tuple, record: EpisodeRecord, stored: Sequence[MemoryEntry]) -> None:
    """Append one finished episode to :func:`open_run`'s files and flush them."""
    bank, records, metrics, rows = files
    if stored:
        append_records(bank, stored)
    records.write(f"{encode_episode_record(record)}\n")
    rows.writerow([record.episode_index, record.final_score, int(record.success), record.steps,
                   int(record.aborted), record.memory_size])
    records.flush()
    metrics.flush()


def write_summary(out_dir, config: EngineConfig, mode: str, report: MetricsReport,
                  memory_entries: int, run: dict | None) -> None:
    """Write ``summary.json``; ``run``, when given, is what a replay builds."""
    summary = {
        "mode": mode,
        "config": config.to_dict(),
        "episodes": len(report.scores),
        "avg_score": report.avg_score,
        "final_score": report.final_score,
        "avg_success": report.avg_success,
        "final_success": report.final_success,
        "memory_entries": memory_entries,
        "learning_curve": report.running_avg(),
    }
    if run is not None:
        summary["run"] = run
    (Path(out_dir) / SUMMARY).write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def encode_episode_record(record: EpisodeRecord) -> str:
    """The record's line of records.jsonl, from a template, as json.dumps(...,
    ensure_ascii=False) writes its dict. It leaves out what the line and the
    run's summary.json give exactly (README, "Decision records"): each step's
    action and history, the returns, and each decision's beta, updated logits
    and distribution."""
    text, value = json.encoder.encode_basestring, json_value
    rewards = "null" if record.rewards is None else f"[{', '.join(map(value, record.rewards))}]"
    steps = ", ".join([f'{{"state_text": {text(step.state.text)}, '
                       f'"observation": {text(step.observation)}, '
                       f'"score_delta": {value(step.score_delta)}}}'
                       for step in record.trajectory])
    decisions = ", ".join([
        '{"candidates": [' + ", ".join([
            f'{{"action": {text(c.action)}, "base_logit": {value(c.base_logit)}, '
            f'"origin": {text(c.origin)}, '
            f'"normalized_advantage": {value(c.normalized_advantage)}}}'
            for c in decision.candidates]) + f'], "chosen": {value(decision.chosen)}}}'
        for decision in record.decisions])
    return (f'{{"episode": {value(record.episode_index)}, "score": {value(record.final_score)}, '
            f'"success": {value(record.success)}, "truncated": {value(record.truncated)}, '
            f'"aborted": {value(record.aborted)}, "abort_reason": {text(record.abort_reason)}, '
            f'"evaluator_fallback": {value(record.evaluator_fallback)}, '
            f'"memory_size_at_start": {value(record.memory_size_at_start)}, '
            f'"rewards": {rewards}, "steps": [{steps}], "decisions": [{decisions}]}}')


def read_summary(run_dir, check_run: Callable = lambda run: run) -> tuple:
    """``(config, mode, check_run(run))`` of a finished run's summary.json (``run``
    is None when it has none); an empty or bad summary raises MemoryFormatError."""
    def decode(summary) -> tuple:
        summary = json_of(dict)(summary)
        run = check_run(summary.get("run"))
        config = EngineConfig.from_dict(summary.get("config"))  # a ConfigError is a ValueError
        if summary.get("mode") not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {summary.get('mode')!r}")
        return config, summary["mode"], run

    [(_, summary)] = read_json(Path(run_dir) / SUMMARY, decode, per_line=False)
    return summary


def _episode_record(recorded) -> dict:
    """A records.jsonl line; its ``"episode"`` is an int, not a bool, as in the bank."""
    if not isinstance(recorded, dict) or "episode" not in recorded:
        raise ValueError('record has no "episode" field')
    if type(recorded["episode"]) is not int:
        raise ValueError(f"episode must be an integer, got {recorded['episode']!r}")
    return recorded


def read_record(run_dir, episode: int) -> dict | None:
    """Episode ``episode``'s line of records.jsonl, or None; reads no line past it."""
    return next((recorded for _, recorded in read_json(Path(run_dir) / RECORDS, _episode_record)
                 if recorded["episode"] == episode), None)


def bank_before(run_dir, episode: int) -> Iterator[MemoryEntry]:
    """The bank rows of the episodes before ``episode``; rows are in episode
    order, so the bank is read only up to the episode's first row."""
    return takewhile(lambda entry: entry.episode < episode, read_bank(Path(run_dir) / BANK))
