import pytest

from covsteer.actionspace import Action, ActionSpace, KnobSpec
from covsteer.reporting import CONTINUOUS_BINS, knob_histograms


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
