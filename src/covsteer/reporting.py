"""Episode logging and plot-ready report generation.

The episode log is a CSV with the fixed header
``episode,<knob names...>,<event names...>,reward``. Reals are rendered
with repr() so the file round-trips exactly and identical runs produce
identical bytes. A run directory holds ``episodes.csv``, ``summary.json``
(totals, histograms, final agent snapshot, resolved config), and
``histograms.csv`` (per-knob value frequencies).

Reports aggregate several runs of the same design side by side: per-event
totals, total reward, and event ratios of the first run over each other
run. A report reads each run's column schema from its ``summary.json``.
Output is data, not images.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

from .actionspace import CONTINUOUS, Action, ActionSpace
from .env import EpisodeRecord
from .errors import ReportError

CONTINUOUS_BINS = 10


def format_real(x: float) -> str:
    """Shortest decimal that parses back to exactly the same float."""
    return repr(float(x))


def log_columns(knob_names, event_names) -> list[str]:
    """The episode log's columns, in order: ``episode``, the knobs, the events, ``reward``."""
    return ["episode", *knob_names, *event_names, "reward"]


class EpisodeCsvWriter:
    """Streams episode records to disk; each row is flushed as written.

    Raises ``ReportError``, before the file is opened, when a column name
    repeats or holds a comma or a line break: the log could not be read
    back column by column.
    """

    def __init__(self, path, knob_names, event_names):
        header = log_columns(knob_names, event_names)
        seen = set()
        for name in header:
            if name in seen:
                raise ReportError(f"column {name!r} appears twice in the episode log header")
            if any(c in name for c in ",\r\n"):
                raise ReportError(f"column name {name!r} holds a comma or a line break")
            seen.add(name)
        self._fh = open(path, "w", encoding="utf-8", newline="")
        self._fh.write(",".join(header) + "\n")
        self._fh.flush()

    def write(self, record: EpisodeRecord) -> None:
        row = [str(record.episode)]
        row.extend(format_real(v) for v in record.action.values)
        row.extend(str(int(c)) for c in record.counts)
        row.append(format_real(record.reward))
        self._fh.write(",".join(row) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


@dataclass(frozen=True)
class EpisodeLog:
    """A parsed episode log: the records it was written from, in file order."""

    path: str
    knob_names: tuple[str, ...]
    event_names: tuple[str, ...]
    records: tuple[EpisodeRecord, ...]

    @property
    def event_totals(self) -> dict[str, int]:
        return {n: sum(r.counts[i] for r in self.records) for i, n in enumerate(self.event_names)}

    @property
    def total_reward(self) -> float:
        return sum(r.reward for r in self.records)


def read_episode_log(path) -> EpisodeLog:
    """Load a run's episodes.csv; accepts the run directory or the csv path in it.

    The knob and event columns are the ones the run's summary.json names.
    A last row without its line break is dropped: the writer ends every
    row with one, so that row is an episode whose write was cut off.
    """
    p = Path(path)
    if p.is_dir():
        p = p / "episodes.csv"
    if not p.exists():
        raise ReportError(f"episode log not found: {p}")
    summary = p.parent / "summary.json"
    if not summary.exists():
        raise ReportError(f"no summary.json next to {p}; pass the run directory")
    try:
        meta = json.loads(summary.read_text(encoding="utf-8"))
        knob_names = tuple(meta["knob_names"])
        ev_names = tuple(meta["event_names"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ReportError(f"cannot read the column schema from {summary}: {exc!r}") from None
    with open(p, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh if ln.strip()]
    if not lines:
        raise ReportError(f"episode log is empty: {p}")
    if len(lines) > 1 and not lines[-1].endswith("\n"):
        lines.pop()
    header, *rows = (ln.rstrip("\n") for ln in lines)
    columns = log_columns(knob_names, ev_names)
    if header.split(",") != columns:
        raise ReportError(f"episode log header in {p} does not match {summary}")
    n_knobs = len(knob_names)
    records = []
    for ln in rows:
        cells = ln.split(",")
        if len(cells) != len(columns):
            raise ReportError(f"malformed row in {p}: {ln!r}")
        action = Action(tuple(map(float, cells[1 : 1 + n_knobs])))
        counts = tuple(map(int, cells[1 + n_knobs : -1]))
        records.append(EpisodeRecord(int(cells[0]), action, counts, float(cells[-1])))
    return EpisodeLog(str(p), knob_names, ev_names, tuple(records))


def knob_histograms(space: ActionSpace, actions) -> dict:
    """Value frequencies per knob: exact values for discrete, 10 bins for continuous."""
    hists = {}
    for k, knob in enumerate(space.knobs):
        values = [a.values[k] for a in actions]
        if knob.kind == CONTINUOUS:
            width = (knob.hi - knob.lo) / CONTINUOUS_BINS
            los = [knob.lo + b * width for b in range(CONTINUOUS_BINS)]
            # A value belongs to the last bin whose lo it reaches; the printed
            # hi (lo + width) can miss the next lo by an ulp, so it is not an edge.
            counts = [0] * CONTINUOUS_BINS
            for v in values:
                if knob.lo <= v <= knob.hi:
                    counts[bisect_right(los, v) - 1] += 1
            bins = [
                {"lo": lo, "hi": knob.hi if b == CONTINUOUS_BINS - 1 else lo + width, "count": n}
                for b, (lo, n) in enumerate(zip(los, counts))
            ]
            hists[knob.name] = {"kind": knob.kind, "bins": bins}
        else:
            counts = {v: 0 for v in knob.values}
            for v in values:
                counts[v] += 1
            hists[knob.name] = {
                "kind": knob.kind,
                "bins": [{"lo": v, "hi": v, "count": c} for v, c in counts.items()],
            }
    return hists


def write_histograms_csv(path, hists: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("knob,lo,hi,count\n")
        for name, h in hists.items():
            for b in h["bins"]:
                fh.write(
                    f"{name},{format_real(b['lo'])},{format_real(b['hi'])},{b['count']}\n"
                )


def summary_schema(*, config_dict, defaulted, knob_names, event_names) -> dict:
    """The part of summary.json that names episodes.csv's columns, known before any episode."""
    return {
        "config": config_dict,
        "applied_defaults": list(defaulted),
        "knob_names": list(knob_names),
        "event_names": list(event_names),
    }


def write_json(path, obj) -> None:
    """Write ``obj`` the way every run artifact is written: sorted keys, indented."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_summary(path, schema, *, cumulative, total_reward, hists, agent_snapshot) -> dict:
    """Write a finished run's summary.json: its schema plus the run's totals."""
    summary = {
        **schema,
        "episodes": cumulative.episodes,
        "event_totals": {n: t for n, t in zip(schema["event_names"], cumulative.totals)},
        "total_reward": total_reward,
        "knob_histograms": hists,
        "agent_snapshot": agent_snapshot,
    }
    write_json(path, summary)
    return summary


def build_report(paths) -> dict:
    """Aggregate several logs of the same design into one comparison table.

    Ratios divide the first run's event totals by each later run's, so
    ``report <steered> <baseline>`` reads as the improvement factor.
    """
    if not paths:
        raise ReportError("report needs at least one episode log")
    logs = [read_episode_log(p) for p in paths]
    first = logs[0]
    for log in logs[1:]:
        if log.knob_names != first.knob_names or log.event_names != first.event_names:
            raise ReportError(
                f"episode logs have different schemas: {first.path} vs {log.path}"
            )
    runs = [
        {
            "path": log.path,
            "episodes": len(log.records),
            "event_totals": log.event_totals,
            "total_reward": log.total_reward,
        }
        for log in logs
    ]
    ratios = []
    for run in runs[1:]:
        entry = {}
        for name, num in runs[0]["event_totals"].items():
            den = run["event_totals"][name]
            if den == 0:
                entry[name] = None if num == 0 else "inf"
            else:
                entry[name] = num / den
        ratios.append({"baseline": run["path"], "ratio_first_over_this": entry})
    return {
        "knob_names": list(first.knob_names),
        "event_names": list(first.event_names),
        "runs": runs,
        "ratios": ratios,
    }


def render_report_text(report: dict) -> str:
    """Plain-text table of event totals per run plus ratio rows."""
    events = report["event_names"]
    runs = report["runs"]
    name_w = max([len(e) for e in events] + [len("total_reward"), 5])
    col_w = 14
    lines = []
    header = "event".ljust(name_w) + "".join(
        f"run{j}".rjust(col_w) for j in range(len(runs))
    )
    lines.append(header)
    for j, run in enumerate(runs):
        lines.append(f"  run{j}: {run['path']} ({run['episodes']} episodes)")
    lines.append("-" * len(header))
    for ev in events:
        row = ev.ljust(name_w)
        for run in runs:
            row += str(run["event_totals"][ev]).rjust(col_w)
        lines.append(row)
    row = "total_reward".ljust(name_w)
    for run in runs:
        row += format_real(run["total_reward"]).rjust(col_w)
    lines.append(row)
    for j, ratio in enumerate(report["ratios"], start=1):
        lines.append("")
        lines.append(f"run0 / run{j} event ratios:")
        for ev in events:
            value = ratio["ratio_first_over_this"][ev]
            if value is None:
                shown = "n/a"
            elif value == "inf":
                shown = "inf"
            else:
                shown = f"{value:.3f}"
            lines.append(f"  {ev.ljust(name_w)} {shown}")
    return "\n".join(lines) + "\n"
