"""Functional-coverage events and the multiplier-weighted step reward.

A step's reward is the dot product of the per-event occurrence counts with
user-chosen multipliers: reward = sum(counts[i] * multiplier[i]). Counts
are per step, never cumulative; cumulative totals are kept separately for
reporting.
"""

from __future__ import annotations

from dataclasses import dataclass

# Per-step occurrence counts, one non-negative int per tracked event.
CoverageCounts = tuple[int, ...]


@dataclass(frozen=True)
class EventSpec:
    """A tracked functional event and its reward multiplier."""

    id: int
    name: str
    multiplier: float = 0.0


def compute_reward(counts: CoverageCounts, events) -> float:
    """Accumulate counts[i] * multiplier[i] left to right.

    Plain sequential accumulation is deliberate: it makes the result
    reproducible and directly comparable against any other left-to-right
    dot product.
    """
    if len(counts) != len(events):
        raise ValueError(f"counts length {len(counts)} != events length {len(events)}")
    total = 0.0
    for c, ev in zip(counts, events):
        if c < 0:
            raise ValueError(f"negative count for event {ev.name}")
        total += c * ev.multiplier
    return total


@dataclass(frozen=True)
class CumulativeCoverage:
    """Elementwise sum of per-step counts plus the number of merged steps."""

    totals: tuple[int, ...]
    episodes: int = 0

    @classmethod
    def zero(cls, n_events: int) -> "CumulativeCoverage":
        return cls(totals=(0,) * n_events, episodes=0)

    def merge(self, counts: CoverageCounts) -> "CumulativeCoverage":
        if len(counts) != len(self.totals):
            raise ValueError(
                f"counts length {len(counts)} != totals length {len(self.totals)}"
            )
        new_totals = tuple(t + int(c) for t, c in zip(self.totals, counts))
        return CumulativeCoverage(totals=new_totals, episodes=self.episodes + 1)
