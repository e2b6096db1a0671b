"""Knob-based action spaces.

An action space is an ordered list of knobs. Each knob is an ``Interval``
[lo, hi] or a ``ValueSet`` of finite discrete values; its ``kind`` field
names its class on the wire and in reports. One concrete action is a
plain tuple with one float per knob, in the space's order. Knob values
parameterize stimulus generation; the agents never transform them, so
discrete values round-trip exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

# One concrete knob assignment: one float per knob, in the space's order.
Action = tuple[float, ...]


def is_finite_real(value) -> bool:
    """A real number, not a bool, that converts to a finite float."""
    if isinstance(value, bool) or not isinstance(value, Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _check_name(name) -> None:
    if not isinstance(name, str) or not name:
        raise ValueError(f"knob name must be a non-empty string, not {name!r}")


@dataclass(frozen=True)
class Interval:
    """A knob that takes any float in [lo, hi]."""

    name: str
    kind: str = field(default="continuous", init=False)
    lo: float
    hi: float

    def __post_init__(self):
        _check_name(self.name)
        if not (is_finite_real(self.lo) and is_finite_real(self.hi)):
            raise ValueError(f"knob {self.name!r}: bounds must be finite numbers")
        lo, hi = float(self.lo), float(self.hi)
        if not lo < hi:
            raise ValueError(f"knob {self.name!r}: lo must be < hi")
        # Agents sample and histogram over the width, so it must be a float too.
        if not math.isfinite(hi - lo):
            raise ValueError(f"knob {self.name!r}: hi - lo must be finite")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


@dataclass(frozen=True)
class ValueSet:
    """A knob that takes one of a finite list of distinct values, kept in order."""

    name: str
    kind: str = field(default="discrete", init=False)
    values: tuple[float, ...]

    def __post_init__(self):
        _check_name(self.name)
        vals = tuple(self.values)
        if not vals:
            raise ValueError(f"knob {self.name!r}: discrete value set is empty")
        if not all(map(is_finite_real, vals)):
            raise ValueError(f"knob {self.name!r}: discrete values must be finite numbers")
        vals = tuple(map(float, vals))
        if len(set(vals)) != len(vals):
            raise ValueError(f"knob {self.name!r}: duplicate discrete values")
        object.__setattr__(self, "values", vals)


KnobSpec = Interval | ValueSet


@dataclass(frozen=True)
class ActionSpace:
    """Ordered, immutable collection of knobs; fixed for an environment's lifetime."""

    knobs: tuple[KnobSpec, ...]

    def __post_init__(self):
        knobs = tuple(self.knobs)
        if not knobs:
            raise ValueError("action space needs at least one knob")
        names = [k.name for k in knobs]
        if len(set(names)) != len(names):
            raise ValueError("knob names must be unique")
        object.__setattr__(self, "knobs", knobs)

    def __len__(self) -> int:
        return len(self.knobs)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(k.name for k in self.knobs)


@dataclass(frozen=True)
class Violation:
    """One failed membership check; knob is None for a length mismatch."""

    knob: int | None
    message: str


def validate(space: ActionSpace, action: Action) -> list[Violation]:
    """Check an action against a space; an empty list means the action is valid."""
    if len(action) != len(space):
        return [Violation(None, f"action has {len(action)} values, space has {len(space)} knobs")]
    out: list[Violation] = []
    for i, (knob, v) in enumerate(zip(space.knobs, action)):
        if isinstance(knob, Interval):
            if not (knob.lo <= v <= knob.hi):
                out.append(
                    Violation(i, f"knob {i} ({knob.name}): {v!r} not in [{knob.lo}, {knob.hi}]")
                )
        else:
            if v not in knob.values:
                out.append(
                    Violation(i, f"knob {i} ({knob.name}): {v!r} not in value set")
                )
    return out


def sample_uniform(space: ActionSpace, rng: np.random.Generator) -> Action:
    """Draw one action uniformly: U[lo, hi] per interval, equiprobable per value set."""
    vals = []
    for knob in space.knobs:
        if isinstance(knob, Interval):
            vals.append(float(rng.uniform(knob.lo, knob.hi)))
        else:
            vals.append(knob.values[int(rng.integers(len(knob.values)))])
    return tuple(vals)
