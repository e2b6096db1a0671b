"""Episode logging and plot-ready report generation.

The episode log is a CSV with the fixed header
``episode,<knob names...>,<event names...>,reward``. Reals are rendered
with repr() so the file round-trips exactly and identical runs produce
identical bytes. A run directory holds ``episodes.csv``, ``summary.json``
(totals, histograms, final agent snapshot, resolved config), and
``histograms.csv`` (per-knob value frequencies). A ``KnobTally`` counts the
histograms as the rows are logged, so a campaign keeps no list of its
actions.

Reports aggregate several runs of the same design side by side: per-event
totals, total reward, and event ratios of the first run over each other
run. A report reads each run's column schema from its ``summary.json``.
Output is data, not images.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

from .actionspace import Action, ActionSpace, KnobSpec, ValueSet
from .coverage import CumulativeCoverage
from .env import EpisodeRecord
from .errors import ReportError

INTERVAL_BINS = 10


def format_real(x: float) -> str:
    """Shortest decimal that parses back to exactly the same float."""
    return repr(float(x))


def log_columns(knob_names, event_names) -> list[str]:
    """The episode log's columns, in order: ``episode``, the knobs, the events, ``reward``.

    Raises ``ReportError`` when a column name repeats or holds a comma or a
    line break: the log could not be read back column by column.
    """
    columns = ["episode", *knob_names, *event_names, "reward"]
    seen = set()
    for name in columns:
        if name in seen:
            raise ReportError(f"column {name!r} appears twice in the episode log header")
        if any(c in name for c in ",\r\n"):
            raise ReportError(f"column name {name!r} holds a comma or a line break")
        seen.add(name)
    return columns


class EpisodeCsvWriter:
    """Streams episode records under the header ``log_columns`` gave; each row is flushed as written."""

    def __init__(self, path, columns):
        self._fh = open(path, "w", encoding="utf-8", newline="")
        self._fh.write(",".join(columns) + "\n")
        self._fh.flush()

    def write(self, record: EpisodeRecord) -> None:
        row = [str(record.episode)]
        row.extend(format_real(v) for v in record.action)
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

    def tally(self) -> CumulativeCoverage:
        """The records merged in file order, as the campaign merged them."""
        tally = CumulativeCoverage.zero(len(self.event_names))
        for r in self.records:
            tally = tally.merge(r.counts, r.reward)
        return tally


def read_episode_log(path) -> EpisodeLog:
    """Load a run's episodes.csv; accepts the run directory or the csv path in it.

    The knob and event columns are the ones the run's summary.json names.
    A last row without its line break is dropped: the writer ends every
    row with one, so that row is an episode whose write was cut off. A
    row with a wrong cell count, a cell that is not a number of its
    column's type, a negative count, or a non-finite knob value or reward
    is refused: the campaign never writes one.
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
        knob_names, ev_names = (meta[key] for key in ("knob_names", "event_names"))
        for names in (knob_names, ev_names):
            if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
                raise TypeError("knob_names and event_names must be lists of strings")
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
        try:
            if len(cells) != len(columns):
                raise ValueError("wrong cell count")
            action = tuple(map(float, cells[1 : 1 + n_knobs]))
            counts = tuple(map(int, cells[1 + n_knobs : -1]))
            reward = float(cells[-1])
            if min(counts, default=0) < 0 or not all(map(math.isfinite, (*action, reward))):
                raise ValueError("value out of range")
            records.append(EpisodeRecord(int(cells[0]), action, counts, reward))
        except ValueError:
            raise ReportError(f"malformed row in {p}: {ln!r}") from None
    return EpisodeLog(str(p), tuple(knob_names), tuple(ev_names), tuple(records))


def _knob_bins(knob: KnobSpec):
    """A knob's histogram bins as ``(lo, hi)`` pairs, and the function from a value to its bin.

    A value set has one bin per value, an interval 10; the function returns
    the index of the value's bin, or None for a value outside every bin.
    """
    if isinstance(knob, ValueSet):
        return [(v, v) for v in knob.values], {v: b for b, v in enumerate(knob.values)}.__getitem__
    lo, hi = knob.lo, knob.hi
    width = (hi - lo) / INTERVAL_BINS
    los = [lo + b * width for b in range(INTERVAL_BINS)]
    bins = [(b_lo, hi if b == INTERVAL_BINS - 1 else b_lo + width) for b, b_lo in enumerate(los)]
    # A value belongs to the last bin whose lo it reaches; the printed hi
    # (lo + width) can miss the next lo by an ulp, so it is not an edge.
    return bins, lambda v: bisect_right(los, v) - 1 if lo <= v <= hi else None


class KnobTally:
    """Each knob's histogram counts, added one logged action at a time.

    It holds one count per bin, so a campaign that counts its actions as it
    logs them keeps no list of them.
    """

    def __init__(self, space: ActionSpace):
        self.space = space
        knob_bins = [_knob_bins(knob) for knob in space.knobs]
        self.bins = [bins for bins, _ in knob_bins]
        self._finders = [find for _, find in knob_bins]
        self.counts = [[0] * len(bins) for bins in self.bins]

    def add(self, action: Action) -> None:
        for find, counts, v in zip(self._finders, self.counts, action):
            b = find(v)
            if b is not None:
                counts[b] += 1


def knob_histograms(tally: KnobTally) -> dict:
    """Value frequencies per knob: exact values for a value set, 10 bins for an interval."""
    return {
        knob.name: {
            "kind": knob.kind,
            "bins": [{"lo": lo, "hi": hi, "count": n} for (lo, hi), n in zip(bins, counts)],
        }
        for knob, bins, counts in zip(tally.space.knobs, tally.bins, tally.counts)
    }


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


def run_totals(tally: CumulativeCoverage, event_names) -> dict:
    """A run's totals as summary.json and report.json both hold them."""
    return {
        "episodes": tally.episodes,
        "event_totals": dict(zip(event_names, tally.totals)),
        "total_reward": tally.reward,
    }


def write_summary(path, schema, *, cumulative, hists, agent_snapshot) -> None:
    """Write a finished run's summary.json: its schema plus the run's totals."""
    summary = {
        **schema,
        **run_totals(cumulative, schema["event_names"]),
        "knob_histograms": hists,
        "agent_snapshot": agent_snapshot,
    }
    write_json(path, summary)


def build_report(paths) -> dict:
    """Aggregate several logs of the same design into one comparison table.

    Ratios divide the first run's event totals by each later run's, so
    ``report <steered> <baseline>`` reads as the improvement factor. A run
    whose rewards sum past the float range is refused, as the campaign
    refused it.
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
    runs = [{"path": log.path, **run_totals(log.tally(), log.event_names)} for log in logs]
    for run in runs:
        if not math.isfinite(run["total_reward"]):
            raise ReportError(f"total reward of {run['path']} is not finite")
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
    """Plain-text table of event totals per run plus ratio rows.

    Each column is as wide as its widest cell, and columns are one space apart.
    """
    events = report["event_names"]
    runs = report["runs"]
    table = [["event"] + [f"run{j}" for j in range(len(runs))]]
    table += [[ev] + [str(run["event_totals"][ev]) for run in runs] for ev in events]
    table.append(["total_reward"] + [format_real(run["total_reward"]) for run in runs])
    name_w, *col_ws = (max(map(len, column)) for column in zip(*table))
    header, *rows = (
        " ".join([row[0].ljust(name_w)] + [c.rjust(w) for c, w in zip(row[1:], col_ws)])
        for row in table
    )
    lines = [header]
    for j, run in enumerate(runs):
        lines.append(f"  run{j}: {run['path']} ({run['episodes']} episodes)")
    lines.append("-" * len(header))
    lines.extend(rows)
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
