#!/usr/bin/env python3
"""Drive a design model living in another process over the wire protocol.

Starts ``covsteer serve --dut rle --stdio`` as a subprocess, attaches a
proxy to its stdin/stdout, and runs the same campaign in-process and over
the bridge. The logs must match record for record: the wire carries knob
values and seeds, and the stimulus expansion happens on the serving side
from the same seed derivation.

Run:  python demos/bridge_session.py
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
try:
    import covsteer  # noqa: F401
except ImportError:
    sys.path.insert(0, str(SRC))

from covsteer.agents import RandomAgent
from covsteer.bridge import connect_dut
from covsteer.env import Environment, run_campaign
from covsteer.rle import RleDut

EPISODES = 100
SEED = 7
MULTIPLIERS = {"e3_partial_count": 1.0}


def campaign(dut):
    env = Environment(dut, MULTIPLIERS)
    records = []
    totals = run_campaign(env, RandomAgent(env.space), EPISODES, seed=SEED,
                          on_record=records.append)
    return totals, records


def main():
    proc = subprocess.Popen(
        [sys.executable, "-m", "covsteer", "serve", "--dut", "rle", "--stdio"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    try:
        proxy = connect_dut(proc.stdout, proc.stdin)
        print("hello received:")
        print(f"  events: {', '.join(proxy.event_names)}")
        print(f"  knobs:  {', '.join(proxy.action_space.names)}\n")

        bridged_totals, bridged_records = campaign(proxy)
        local_totals, local_records = campaign(RleDut())

        print(f"{EPISODES} episodes, seed {SEED}")
        print(f"  bridged totals:    {bridged_totals.totals}")
        print(f"  in-process totals: {local_totals.totals}")
        identical = bridged_records == local_records
        print(f"  episode-for-episode identical: {identical}")
        if not identical:
            raise SystemExit("bridged and in-process campaigns diverged")
    finally:
        proc.stdin.close()
        proc.stdout.close()
        proc.wait(timeout=10)
    print("\nany process that speaks the line protocol can stand in for the "
          "design model; the agent side never changes")


if __name__ == "__main__":
    main()
