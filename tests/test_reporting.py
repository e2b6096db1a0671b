import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from covsteer.actionspace import Action, ActionSpace, KnobSpec
from covsteer.env import EpisodeRecord
from covsteer.errors import ReportError
from covsteer.reporting import (
    CONTINUOUS_BINS,
    EpisodeCsvWriter,
    build_report,
    knob_histograms,
    read_episode_log,
    render_report_text,
    summary_schema,
    write_json,
)


def histogram(lo, hi, values):
    space = ActionSpace(knobs=(KnobSpec.continuous("x", lo, hi),))
    return knob_histograms(space, [Action((v,)) for v in values])["x"]["bins"]


class TestKnobHistograms:
    @pytest.mark.parametrize("lo, hi, value", [(0.0, 1.0, 0.6), (-1.0, 1.0, 0.0)])
    def test_value_on_a_bin_edge_counted_once(self, lo, hi, value):
        assert sum(b["count"] for b in histogram(lo, hi, [value])) == 1

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.0, 1.0), (0.1, 0.7), (-3.0, 1e6)])
    def test_every_printed_edge_counted_once(self, lo, hi):
        edges = [e for b in histogram(lo, hi, []) for e in (b["lo"], b["hi"])]
        bins = histogram(lo, hi, edges)
        assert sum(b["count"] for b in bins) == len(edges)
        assert bins[0]["lo"] == lo and bins[-1]["hi"] == hi
        assert len(bins) == CONTINUOUS_BINS

    def test_printed_edges_unchanged(self):
        width = 2.0 / CONTINUOUS_BINS
        bins = histogram(-1.0, 1.0, [])
        assert [b["lo"] for b in bins] == [-1.0 + b * width for b in range(CONTINUOUS_BINS)]
        assert [b["hi"] for b in bins[:-1]] == [b["lo"] + width for b in bins[:-1]]


def write_run(out: Path, records, knob_names=("x",), event_names=("a", "b", "c")) -> Path:
    """A run directory as a campaign leaves it when its log is opened, with ``records`` logged."""
    out.mkdir(parents=True, exist_ok=True)
    schema = summary_schema(
        config_dict={}, defaulted=[], knob_names=knob_names, event_names=event_names
    )
    write_json(out / "summary.json", schema)
    with EpisodeCsvWriter(out / "episodes.csv", knob_names, event_names) as writer:
        for rec in records:
            writer.write(rec)
    return out


def records_of(*counts):
    return [EpisodeRecord(i, Action((0.5,)), c, float(sum(c))) for i, c in enumerate(counts)]


EXTREME_REALS = [5e-324, 1.7976931348623157e308, -1.7976931348623157e308, -0.0]
reals = st.sampled_from(EXTREME_REALS) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def logged_campaigns(draw):
    n_knobs, n_events = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    record = st.builds(
        EpisodeRecord,
        st.integers(0, 2**63),
        st.lists(reals, min_size=n_knobs, max_size=n_knobs).map(lambda v: Action(tuple(v))),
        st.lists(st.integers(0, 2**64), min_size=n_events, max_size=n_events).map(tuple),
        reals,
    )
    knob_names = tuple(f"k{i}" for i in range(n_knobs))
    event_names = tuple(f"e{i}" for i in range(n_events))
    return knob_names, event_names, draw(st.lists(record, max_size=8))


@given(logged_campaigns())
def test_written_records_read_back_equal(campaign):
    knob_names, event_names, records = campaign
    with tempfile.TemporaryDirectory() as tmp:
        out = write_run(Path(tmp) / "run", records, knob_names, event_names)
        log = read_episode_log(out)
        assert (log.knob_names, log.event_names) == (knob_names, event_names)
        assert log.records == tuple(records)
        # -0.0 equals 0.0: writing the records read back gives the same bytes.
        again = write_run(Path(tmp) / "again", log.records, knob_names, event_names)
        assert (again / "episodes.csv").read_bytes() == (out / "episodes.csv").read_bytes()


class TestReport:
    def test_ratio_text_shows_number_inf_and_na(self, tmp_path):
        steered = write_run(tmp_path / "steered", records_of((3, 2, 0), (1, 1, 0)))
        baseline = write_run(tmp_path / "baseline", records_of((2, 0, 0)))
        report = build_report([steered, baseline])
        assert report["ratios"][0]["ratio_first_over_this"] == {"a": 2.0, "b": "inf", "c": None}
        _, ratio_rows = render_report_text(report).split("\nrun0 / run1 event ratios:\n")
        assert [row.split() for row in ratio_rows.splitlines()] == [
            ["a", "2.000"], ["b", "inf"], ["c", "n/a"]
        ]

    @pytest.mark.parametrize("header_end", ["\n", ""], ids=["with_break", "without_break"])
    def test_header_only_log_reports_zero_for_every_event(self, tmp_path, header_end):
        out = write_run(tmp_path / "run", [])
        (out / "episodes.csv").write_text("episode,x,a,b,c,reward" + header_end)
        (run,) = build_report([out])["runs"]
        assert (run["episodes"], run["total_reward"]) == (0, 0)
        assert run["event_totals"] == {"a": 0, "b": 0, "c": 0}

    def test_no_logs_refused(self):
        with pytest.raises(ReportError, match="at least one episode log"):
            build_report([])


class TestReadEpisodeLogRefusals:
    def test_missing_log(self, tmp_path):
        with pytest.raises(ReportError, match="episode log not found"):
            read_episode_log(tmp_path)

    @pytest.mark.parametrize("text", ["{nope", "{}", '{"knob_names": 3, "event_names": []}'])
    def test_unreadable_schema(self, tmp_path, text):
        out = write_run(tmp_path / "run", records_of((1, 0, 0)))
        (out / "summary.json").write_text(text)
        with pytest.raises(ReportError, match="cannot read the column schema"):
            read_episode_log(out)

    def test_empty_log(self, tmp_path):
        out = write_run(tmp_path / "run", [])
        (out / "episodes.csv").write_text("\n \n")
        with pytest.raises(ReportError, match="episode log is empty"):
            read_episode_log(out)

    def test_malformed_interior_row(self, tmp_path):
        out = write_run(tmp_path / "run", records_of((1, 0, 0), (2, 0, 0), (3, 0, 0)))
        lines = (out / "episodes.csv").read_text().splitlines(keepends=True)
        lines[2] = "1,0.5,2,0,2.0\n"
        (out / "episodes.csv").write_text("".join(lines))
        with pytest.raises(ReportError, match="malformed row .*'1,0.5,2,0,2.0'"):
            read_episode_log(out)
