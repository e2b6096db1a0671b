"""The benchmark under bench/ drives covsteer from outside the package.

It rebinds module and class attributes to time each layer and checks its
artifacts against recorded digests, so a refactor that renames a hook or
changes an artifact byte breaks it. This runs one traced campaign of each
in-process workload the way the benchmark does and checks both.
"""

import hashlib
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
ARTIFACTS = ("episodes.csv", "summary.json", "histograms.csv")
PER_EPISODE_SPANS = (
    "dut.reset",
    "dut.step",
    "env.step",
    "agents.propose",
    "agents.observe",
    "coverage.merge",
    "reporting.csv_write",
)


def check_traced_campaign(tmp_path, workload, episodes, spans_per_episode):
    """Run one traced campaign at seed 0; check its digests and span counts."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "campaign.py"), "--workload", workload, "--seed", "0",
         "--trace", "1"],
        cwd=tmp_path,
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()

    recorded = json.loads((BENCH / "digests.json").read_text())[workload]["seeds"]["0"]
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ARTIFACTS
    }
    assert digests == recorded

    result = json.loads((tmp_path / "result.json").read_text())
    spans = Counter(span[0] for span in result["spans"])
    assert {name: spans[name] for name in spans_per_episode} == dict.fromkeys(
        spans_per_episode, episodes
    )


def test_traced_rle_cem_campaign_matches_recorded_digests(tmp_path):
    check_traced_campaign(tmp_path, "rle_cem", 1000, PER_EPISODE_SPANS)


def test_traced_axi_random_campaign_matches_recorded_digests(tmp_path):
    check_traced_campaign(
        tmp_path,
        "axi_random",
        3000,
        PER_EPISODE_SPANS + ("axi.simulate_step", "axi.golden_check"),
    )
