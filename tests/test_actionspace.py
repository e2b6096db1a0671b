from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from covsteer.actionspace import (
    ActionSpace,
    Interval,
    ValueSet,
    is_integer,
    sample_uniform,
    validate,
)
from covsteer.errors import InvalidActionError
from covsteer.rle import ACTION_SPACE as RLE_SPACE

from conftest import action_spaces


class TestIsInteger:
    @pytest.mark.parametrize(
        "value", [0, -3, 10**400, np.int8(-1), np.int64(7), np.uint8(255), np.uint64(2**64 - 1)]
    )
    def test_python_and_numpy_integers(self, value):
        assert is_integer(value)

    @pytest.mark.parametrize(
        "value",
        [True, False, np.bool_(True), 2.0, np.float64(2.0), Fraction(2), Decimal(2), "2", None],
        ids=["true", "false", "np_bool", "float", "np_float64", "fraction", "decimal", "str", "none"],
    )
    def test_bools_and_other_numbers_are_not(self, value):
        assert not is_integer(value)


class TestKnobSpec:
    def test_continuous_requires_lo_below_hi(self):
        with pytest.raises(ValueError):
            Interval("p", 1.0, 1.0)
        with pytest.raises(ValueError):
            Interval("p", 2.0, 1.0)

    def test_continuous_requires_finite_bounds(self):
        with pytest.raises(ValueError):
            Interval("p", 0.0, float("inf"))
        # Both bounds are finite, but hi - lo overflows to inf.
        with pytest.raises(ValueError, match="hi - lo must be finite"):
            Interval("p", -1e308, 1e308)
        assert Interval("p", -8e307, 8e307).hi == 8e307

    def test_discrete_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError):
            ValueSet("d", [])
        with pytest.raises(ValueError):
            ValueSet("d", [1, 2, 2])
        # A non-finite value could not be sent in a hello, and NaNs are never duplicates.
        for values in ([float("inf"), 1], [float("-inf")], [float("nan"), float("nan")]):
            with pytest.raises(ValueError, match="discrete values must be finite"):
                ValueSet("d", values)

    def test_discrete_preserves_order(self):
        k = ValueSet("d", [3, 1, 2])
        assert k.values == (3.0, 1.0, 2.0)

    def test_name_required(self):
        with pytest.raises(ValueError):
            Interval("", 0, 1)

    @pytest.mark.parametrize("name", [5, None, b"x", ("x",)], ids=["int", "none", "bytes", "tuple"])
    def test_name_must_be_a_string(self, name):
        for make in (lambda: Interval(name, 0, 1), lambda: ValueSet(name, [1])):
            with pytest.raises(ValueError, match="knob name must be a non-empty string"):
                make()

    @pytest.mark.parametrize(
        "bad", ["0", True, None, 10**400, float("nan")],
        ids=["str", "bool", "none", "huge_int", "nan"],
    )
    def test_bounds_must_be_finite_numbers(self, bad):
        for lo, hi in ((bad, 2), (-2, bad)):
            with pytest.raises(ValueError, match="bounds must be finite numbers"):
                Interval("y", lo, hi)

    @pytest.mark.parametrize(
        "values", [["1", 2], [True, False], [1, None], [10**400]],
        ids=["str", "bool", "none", "huge_int"],
    )
    def test_discrete_values_must_be_numbers(self, values):
        with pytest.raises(ValueError, match="discrete values must be finite numbers"):
            ValueSet("x", values)

    def test_numpy_numbers_accepted(self):
        assert Interval("p", np.int64(0), np.float32(0.5)).hi == 0.5
        assert ValueSet("d", np.arange(3)).values == (0.0, 1.0, 2.0)

    def test_each_kind_has_only_its_fields(self):
        interval, value_set = Interval("p", 0, 1), ValueSet("d", [1])
        assert (interval.kind, interval.lo, interval.hi) == ("continuous", 0.0, 1.0)
        assert (value_set.kind, value_set.values) == ("discrete", (1.0,))
        assert not hasattr(interval, "values")
        assert not hasattr(value_set, "lo") and not hasattr(value_set, "hi")


class TestActionSpace:
    def test_needs_a_knob(self):
        with pytest.raises(ValueError):
            ActionSpace(knobs=())

    def test_names_in_order(self):
        assert RLE_SPACE.names == ("zero_prob", "count_width", "seq_length")

    @pytest.mark.parametrize(
        "knobs",
        [("x",), (Interval("a", 0, 1), None), (ValueSet("a", [1]), SimpleNamespace(name="b"))],
        ids=["str", "none", "has_a_name"],
    )
    def test_every_knob_is_an_interval_or_a_value_set(self, knobs):
        position = len(knobs) - 1
        with pytest.raises(ValueError, match=f"knob {position} must be an Interval or a ValueSet"):
            ActionSpace(knobs)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            ActionSpace(
                knobs=(Interval("x", 0, 1), ValueSet("x", [1]))
            )


class TestValidate:
    def test_valid_action(self):
        assert validate(RLE_SPACE, (0.4, 6, 300)) is None

    def test_continuous_bound_violation(self):
        with pytest.raises(InvalidActionError) as info:
            validate(RLE_SPACE, (1.5, 6, 300))
        assert str(info.value) == "knob 0 (zero_prob): 1.5 not in [0.0, 1.0]"

    def test_discrete_membership_violation(self):
        with pytest.raises(InvalidActionError) as info:
            validate(RLE_SPACE, (0.4, 9, 300))
        assert str(info.value) == "knob 1 (count_width): 9 not in value set"

    def test_length_mismatch_is_its_own_violation(self):
        with pytest.raises(InvalidActionError) as info:
            validate(RLE_SPACE, (0.4, 6))
        assert str(info.value) == "action has 2 values, space has 3 knobs"

    def test_multiple_violations_reported(self):
        with pytest.raises(InvalidActionError) as info:
            validate(RLE_SPACE, (-0.1, 9, 300))
        assert str(info.value).split("; ") == [
            "knob 0 (zero_prob): -0.1 not in [0.0, 1.0]",
            "knob 1 (count_width): 9 not in value set",
        ]

    def test_pure_function(self):
        action = (2.0, 6, 300)
        messages = []
        for _ in range(2):
            with pytest.raises(InvalidActionError) as info:
                validate(RLE_SPACE, action)
            messages.append(str(info.value))
        assert messages[0] == messages[1] == "knob 0 (zero_prob): 2.0 not in [0.0, 1.0]"


class TestSampleUniform:
    def test_singleton_discrete_always_its_value(self):
        space = ActionSpace(knobs=(ValueSet("only", [5]),))
        rng = np.random.default_rng(0)
        assert all(sample_uniform(space, rng) == (5.0,) for _ in range(20))

    def test_seed_determinism(self):
        a = sample_uniform(RLE_SPACE, np.random.default_rng(42))
        b = sample_uniform(RLE_SPACE, np.random.default_rng(42))
        assert a == b

    def test_discrete_frequencies_close_to_uniform(self):
        # 10k draws from an 8-value set: expected frequency 1/8 = 0.125 with
        # binomial stddev ~0.0033, so [0.10, 0.15] is a ~7.5 sigma band.
        space = ActionSpace(knobs=(ValueSet("w", range(1, 9)),))
        rng = np.random.default_rng(1234)
        draws = [sample_uniform(space, rng)[0] for _ in range(10_000)]
        for v in range(1, 9):
            freq = draws.count(float(v)) / 10_000
            assert 0.10 <= freq <= 0.15, (v, freq)

    @given(action_spaces(), st.integers(0, 2**32 - 1))
    def test_samples_always_validate(self, space, seed):
        rng = np.random.default_rng(seed)
        for _ in range(3):
            assert validate(space, sample_uniform(space, rng)) is None
