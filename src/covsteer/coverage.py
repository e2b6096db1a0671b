"""Functional-coverage events and the multiplier-weighted step reward.

A step's reward is the dot product of the per-event occurrence counts with
user-chosen multipliers: reward = sum(counts[i] * multiplier[i]). Counts
are per step, never cumulative. A run's totals are one ``CumulativeCoverage``
that each episode's counts and reward are merged into; ``covsteer run`` and
``covsteer report`` both read their totals from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Per-step occurrence counts, one non-negative int per tracked event.
CoverageCounts = tuple[int, ...]


@dataclass(frozen=True)
class EventSpec:
    """A tracked functional event and its reward multiplier; its id is its position."""

    name: str
    multiplier: float = 0.0


def compute_reward(counts: CoverageCounts, events) -> float:
    """Accumulate counts[i] * multiplier[i] left to right.

    Plain sequential accumulation is deliberate: it makes the result
    reproducible and directly comparable against any other left-to-right
    dot product. Raises ValueError for a count that does not fit in a
    float and for a reward that is not finite.
    """
    if len(counts) != len(events):
        raise ValueError(f"counts length {len(counts)} != events length {len(events)}")
    total = 0.0
    for c, ev in zip(counts, events):
        if c < 0:
            raise ValueError(f"negative count for event {ev.name}")
        try:
            total += c * ev.multiplier
        except OverflowError:
            raise ValueError(f"count for event {ev.name} does not fit in a float") from None
    if not math.isfinite(total):
        raise ValueError(f"reward {total} is not finite")
    return total


@dataclass(frozen=True)
class CumulativeCoverage:
    """A run's tally: elementwise sum of per-step counts, summed reward, merged steps.

    Rewards are added left to right in merge order, like ``compute_reward``,
    so the total does not depend on the Python version's ``sum()``.
    """

    totals: tuple[int, ...]
    episodes: int = 0
    reward: float = 0.0

    @classmethod
    def zero(cls, n_events: int) -> "CumulativeCoverage":
        return cls(totals=(0,) * n_events)

    def merge(self, counts: CoverageCounts, reward: float) -> "CumulativeCoverage":
        if len(counts) != len(self.totals):
            raise ValueError(
                f"counts length {len(counts)} != totals length {len(self.totals)}"
            )
        new_totals = tuple(t + int(c) for t, c in zip(self.totals, counts))
        return CumulativeCoverage(new_totals, self.episodes + 1, self.reward + reward)
