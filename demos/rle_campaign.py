#!/usr/bin/env python3
"""Steered vs random stimulus on the run-length-encoding compressor.

The rare event here is a zero-count field straddling the 64-bit boundary
of the zero-count vector (e3), which can only happen when count_width does
not divide 64. We reward e3 alone and let the cross-entropy agent discover
which count_width values cause it.

Run:  python demos/rle_campaign.py
"""

import sys
from collections import Counter
from pathlib import Path

try:
    import covsteer  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from covsteer.agents import CemAgent, RandomAgent
from covsteer.env import Environment, run_campaign
from covsteer.rle import RleDut

EPISODES = 600
SEED = 101
MULTIPLIERS = {"e3_partial_count": 1.0}


def campaign(agent_kind):
    env = Environment(RleDut(), MULTIPLIERS)
    agent = CemAgent(env.space) if agent_kind == "cem" else RandomAgent(env.space)
    records = []
    totals = run_campaign(env, agent, EPISODES, seed=SEED, on_record=records.append)
    return totals, records


def bar(count, scale):
    return "#" * max(1, round(count / scale)) if count else ""


def main():
    print(f"running {EPISODES} episodes each, seed {SEED}, reward = e3 only\n")
    random_totals, random_records = campaign("random")
    cem_totals, cem_records = campaign("cem")

    names = RleDut.event_names
    print(f"{'event':<18}{'random':>10}{'steered':>10}")
    for i, name in enumerate(names):
        print(f"{name:<18}{random_totals.totals[i]:>10}{cem_totals.totals[i]:>10}")
    e3_random, e3_cem = random_totals.totals[3], cem_totals.totals[3]
    print(f"\ne3 improvement: {e3_cem} vs {e3_random} "
          f"({e3_cem / max(e3_random, 1):.1f}x)\n")

    print("count_width choices (last half of each campaign):")
    half = EPISODES // 2
    for label, records in (("random", random_records), ("steered", cem_records)):
        hist = Counter(int(r.action[1]) for r in records[half:])
        scale = max(hist.values()) / 30
        print(f"  {label}:")
        for cw in range(1, 9):
            marker = " <- not a divisor of 64" if cw in (3, 5, 6, 7) else ""
            print(f"    count_width {cw}: {hist.get(cw, 0):>4} {bar(hist.get(cw, 0), scale)}{marker}")
    print("\nthe steered agent concentrates on widths whose fields straddle "
          "the 64-bit vector, without being told which ones those are")


if __name__ == "__main__":
    main()
