import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from covsteer.actionspace import ActionSpace, Interval, ValueSet
from covsteer.env import EpisodeRecord
from covsteer.errors import ReportError
from covsteer.reporting import (
    INTERVAL_BINS,
    EpisodeCsvWriter,
    KnobTally,
    build_report,
    format_real,
    knob_histograms,
    log_columns,
    read_episode_log,
    render_report_text,
    summary_schema,
    write_json,
)


def histogram(lo, hi, values):
    tally = KnobTally(ActionSpace(knobs=(Interval("x", lo, hi),)))
    for v in values:
        tally.add((v,))
    return knob_histograms(tally)["x"]["bins"]


class TestKnobHistograms:
    def test_each_value_counted_in_its_bin(self):
        tally = KnobTally(ActionSpace((Interval("x", 0.0, 1.0), ValueSet("n", (4, 1, 2)))))
        for action in [(0.0, 1), (0.05, 2), (0.95, 2), (1.0, 4), (1.5, 2), (-0.1, 1)]:
            tally.add(action)
        hists = knob_histograms(tally)
        assert [b["count"] for b in hists["x"]["bins"]] == [2, 0, 0, 0, 0, 0, 0, 0, 0, 2]
        assert hists["n"] == {
            "kind": "discrete",
            "bins": [
                {"lo": 4.0, "hi": 4.0, "count": 1},
                {"lo": 1.0, "hi": 1.0, "count": 2},
                {"lo": 2.0, "hi": 2.0, "count": 3},
            ],
        }

    @pytest.mark.parametrize("lo, hi, value", [(0.0, 1.0, 0.6), (-1.0, 1.0, 0.0)])
    def test_value_on_a_bin_edge_counted_once(self, lo, hi, value):
        assert sum(b["count"] for b in histogram(lo, hi, [value])) == 1

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.0, 1.0), (0.1, 0.7), (-3.0, 1e6)])
    def test_every_printed_edge_counted_once(self, lo, hi):
        edges = [e for b in histogram(lo, hi, []) for e in (b["lo"], b["hi"])]
        bins = histogram(lo, hi, edges)
        assert sum(b["count"] for b in bins) == len(edges)
        assert bins[0]["lo"] == lo and bins[-1]["hi"] == hi
        assert len(bins) == INTERVAL_BINS

    def test_printed_edges_unchanged(self):
        width = 2.0 / INTERVAL_BINS
        bins = histogram(-1.0, 1.0, [])
        assert [b["lo"] for b in bins] == [-1.0 + b * width for b in range(INTERVAL_BINS)]
        assert [b["hi"] for b in bins[:-1]] == [b["lo"] + width for b in bins[:-1]]


def write_run(out: Path, records, knob_names=("x",), event_names=("a", "b", "c")) -> Path:
    """A run directory as a campaign leaves it when its log is opened, with ``records`` logged."""
    out.mkdir(parents=True, exist_ok=True)
    schema = summary_schema(
        config_dict={}, defaulted=[], knob_names=knob_names, event_names=event_names
    )
    write_json(out / "summary.json", schema)
    with EpisodeCsvWriter(out / "episodes.csv", log_columns(knob_names, event_names)) as writer:
        for rec in records:
            writer.write(rec)
    return out


def records_of(*counts):
    return [EpisodeRecord(i, (0.5,), c, float(sum(c))) for i, c in enumerate(counts)]


EXTREME_REALS = [5e-324, 1.7976931348623157e308, -1.7976931348623157e308, -0.0]
reals = st.sampled_from(EXTREME_REALS) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def logged_campaigns(draw):
    n_knobs, n_events = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    record = st.builds(
        EpisodeRecord,
        st.integers(0, 2**63),
        st.lists(reals, min_size=n_knobs, max_size=n_knobs).map(tuple),
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
        assert isinstance(run["total_reward"], float)
        assert run["event_totals"] == {"a": 0, "b": 0, "c": 0}

    def test_total_reward_added_left_to_right(self, tmp_path):
        # math.fsum, and sum() from Python 3.12 on, would give 1.0.
        rewards = (1e16, 1.0, -1e16)
        records = [EpisodeRecord(i, (0.5,), (0, 0, 0), r) for i, r in enumerate(rewards)]
        (run,) = build_report([write_run(tmp_path / "run", records)])["runs"]
        assert run["total_reward"] == 0.0

    def test_total_reward_beyond_the_float_range_refused(self, tmp_path):
        records = [EpisodeRecord(i, (0.5,), (0, 0, 0), 1e308) for i in range(2)]
        out = write_run(tmp_path / "run", records)
        with pytest.raises(ReportError, match="total reward of .* is not finite"):
            build_report([out])

    def test_wide_cells_stay_apart(self, tmp_path):
        rewards = [6134.400000000001, 11722.799999999999, 1e308]
        counts = [(2**64, 0, 7), (0, 12345678901234567, 7), (1, 1, 7)]
        runs = [
            write_run(tmp_path / f"run{j}", [EpisodeRecord(0, (0.5,), c, r)])
            for j, (c, r) in enumerate(zip(counts, rewards))
        ]
        lines = render_report_text(build_report(runs)).splitlines()
        rule = next(i for i, line in enumerate(lines) if set(line) == {"-"})
        assert lines[0].split() == ["event", "run0", "run1", "run2"]
        rows = [line.split() for line in lines[rule + 1 : rule + 5]]
        assert rows == [
            ["a", str(2**64), "0", "1"],
            ["b", "0", "12345678901234567", "1"],
            ["c", "7", "7", "7"],
            ["total_reward"] + [format_real(r) for r in rewards],
        ]

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

    @pytest.mark.parametrize(
        "row",
        ["1,0.5,2,0,0,nan", "1,0.5,2,0,0,inf", "1,0.5,2,0,0,-inf", "1,inf,2,0,0,2.0",
         "1,nan,2,0,0,2.0", "1,0.5,-7,0,0,-7.0", "1,abc,2,0,0,2.0", "1,0.5,2.5,0,0,2.0",
         "x,0.5,2,0,0,2.0"],
        ids=["nan_reward", "inf_reward", "minus_inf_reward", "inf_action", "nan_action",
             "negative_count", "text_action", "fractional_count", "text_episode"],
    )
    def test_poisoned_row_refused(self, tmp_path, row):
        out = write_run(tmp_path / "run", records_of((1, 0, 0), (2, 0, 0), (3, 0, 0)))
        lines = (out / "episodes.csv").read_text().splitlines(keepends=True)
        lines[2] = row + "\n"
        (out / "episodes.csv").write_text("".join(lines))
        with pytest.raises(ReportError, match=f"malformed row .*'{row}'"):
            read_episode_log(out)
