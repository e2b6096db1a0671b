"""The benchmark under bench/ drives covsteer from outside the package.

It rebinds module and class attributes to time each layer and checks its
artifacts against recorded digests, so a refactor that renames a hook or
changes an artifact byte breaks it. This runs one traced campaign the way
the benchmark does and checks both.
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
    "env.step",
    "agents.propose",
    "agents.observe",
    "coverage.merge",
    "reporting.csv_write",
)


def test_traced_rle_cem_campaign_matches_recorded_digests(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "campaign.py"), "--workload", "rle_cem", "--seed", "0",
         "--trace", "1"],
        cwd=tmp_path,
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()

    recorded = json.loads((BENCH / "digests.json").read_text())["rle_cem"]["seeds"]["0"]
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ARTIFACTS
    }
    assert digests == recorded

    result = json.loads((tmp_path / "result.json").read_text())
    spans = Counter(span[0] for span in result["spans"])
    assert {name: spans[name] for name in PER_EPISODE_SPANS} == dict.fromkeys(
        PER_EPISODE_SPANS, 1000
    )
