"""Knob-based action spaces.

An action space is an ordered list of knobs. Each knob is an ``Interval``
[lo, hi] or a ``ValueSet`` of finite discrete values; its ``kind`` field
names its class on the wire and in reports. One concrete action is a
plain tuple with one float per knob, in the space's order. Knob values
parameterize stimulus generation; the agents never transform them, so
discrete values round-trip exactly.

This module owns the package's checks of numbers and actions:
``is_finite_real`` and ``is_integer`` decide what counts as a real number
and as an integer, and ``validate`` raises ``InvalidActionError`` for an
action outside its space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .errors import InvalidActionError

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


def is_integer(value) -> bool:
    """A Python or numpy integer, not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


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
        for i, knob in enumerate(knobs):
            if not isinstance(knob, KnobSpec):
                raise ValueError(f"knob {i} must be an Interval or a ValueSet, not {knob!r}")
        names = [k.name for k in knobs]
        if len(set(names)) != len(names):
            raise ValueError("knob names must be unique")
        object.__setattr__(self, "knobs", knobs)

    def __len__(self) -> int:
        return len(self.knobs)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(k.name for k in self.knobs)


def validate(space: ActionSpace, action: Action) -> None:
    """Raise ``InvalidActionError`` unless the action is in the space.

    The message names every knob whose value is outside it, joined with
    ``"; "``, or says that the action has the wrong number of values.
    """
    if len(action) != len(space):
        raise InvalidActionError(f"action has {len(action)} values, space has {len(space)} knobs")
    problems = []
    for i, (knob, v) in enumerate(zip(space.knobs, action)):
        if isinstance(knob, Interval):
            if not (knob.lo <= v <= knob.hi):
                problems.append(f"knob {i} ({knob.name}): {v!r} not in [{knob.lo}, {knob.hi}]")
        elif v not in knob.values:
            problems.append(f"knob {i} ({knob.name}): {v!r} not in value set")
    if problems:
        raise InvalidActionError("; ".join(problems))


def sample_uniform(space: ActionSpace, rng: np.random.Generator) -> Action:
    """Draw one action uniformly: U[lo, hi] per interval, equiprobable per value set."""
    vals = []
    for knob in space.knobs:
        if isinstance(knob, Interval):
            vals.append(float(rng.uniform(knob.lo, knob.hi)))
        else:
            vals.append(knob.values[int(rng.integers(len(knob.values)))])
    return tuple(vals)
