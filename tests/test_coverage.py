import pytest
from hypothesis import given
from hypothesis import strategies as st

from covsteer.coverage import CumulativeCoverage, EventSpec, compute_reward


def events(*multipliers):
    return [EventSpec(i, f"e{i}", m) for i, m in enumerate(multipliers)]


class TestComputeReward:
    def test_zero_counts_zero_reward(self):
        assert compute_reward((0, 0, 0, 0), events(3.0, -1.0, 0.5, 2.0)) == 0.0

    def test_unit_multiplier_selects_one_count(self):
        assert compute_reward((5, 9, 2, 7), events(0, 0, 0, 1)) == 7.0

    def test_direct_evaluation(self):
        assert compute_reward((3, 1, 4, 2), events(1, 2, 0, 1)) == 7.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            compute_reward((1, 2), events(1.0))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            compute_reward((-1,), events(1.0))

    @pytest.mark.parametrize(
        "counts, multipliers",
        [((2,), (1e308,)), ((1, 1), (float("inf"), 0.0)), ((2, 2), (1e308, -1e308))],
    )
    def test_non_finite_reward_rejected(self, counts, multipliers):
        with pytest.raises(ValueError, match="not finite"):
            compute_reward(counts, events(*multipliers))

    @pytest.mark.parametrize("multiplier", [1.0, 0.0])
    def test_count_beyond_float_range_rejected(self, multiplier):
        with pytest.raises(ValueError, match="does not fit in a float"):
            compute_reward((10**400,), events(multiplier))

    def test_negative_multipliers_allowed(self):
        assert compute_reward((2, 3), events(-1.0, 1.0)) == 1.0

    counts = st.lists(st.integers(0, 1000), min_size=1, max_size=8)
    reals = st.floats(-100, 100, allow_nan=False, allow_infinity=False)

    @given(st.data())
    def test_linearity_in_counts(self, data):
        a = data.draw(self.counts)
        b = data.draw(st.lists(st.integers(0, 1000), min_size=len(a), max_size=len(a)))
        mult = data.draw(st.lists(self.reals, min_size=len(a), max_size=len(a)))
        evs = events(*mult)
        merged = tuple(x + y for x, y in zip(a, b))
        lhs = compute_reward(merged, evs)
        rhs = compute_reward(tuple(a), evs) + compute_reward(tuple(b), evs)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    @given(st.data())
    def test_unit_vector_picks_count(self, data):
        c = data.draw(self.counts)
        j = data.draw(st.integers(0, len(c) - 1))
        mult = [0.0] * len(c)
        mult[j] = 1.0
        assert compute_reward(tuple(c), events(*mult)) == c[j]


class TestCumulativeCoverage:
    def test_merge_identity(self):
        cc = CumulativeCoverage(totals=(10, 0), episodes=3).merge((0, 0))
        assert cc.totals == (10, 0)
        assert cc.episodes == 4

    def test_merge_elementwise(self):
        cc = CumulativeCoverage(totals=(1, 2), episodes=0).merge((3, 4))
        assert cc.totals == (4, 6)

    def test_merge_commutes(self):
        zero = CumulativeCoverage.zero(3)
        c1, c2 = (1, 0, 5), (2, 2, 2)
        assert zero.merge(c1).merge(c2).totals == zero.merge(c2).merge(c1).totals

    def test_merge_associates_on_totals(self):
        zero = CumulativeCoverage.zero(2)
        parts = [(1, 2), (3, 4), (5, 6)]
        left = zero
        for p in parts:
            left = left.merge(p)
        assert left.totals == (9, 12)
        assert left.episodes == 3

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            CumulativeCoverage.zero(2).merge((1, 2, 3))

