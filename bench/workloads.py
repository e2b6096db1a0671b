"""The benchmark's workloads: one fixed campaign config and episode count each.

Every workload is a closed loop with one agent: the next episode starts only
after the previous one has been logged. ``bridged`` workloads serve the
design from a child process over TCP loopback; the ``dut`` key of their
config is replaced by the server's endpoint at run time.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

# Seeds whose artifact digests are recorded in digests.json: the default seed
# and one held out from tuning.
RECORDED_SEEDS = (0, 2021)


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    episodes: int
    bridged: bool = False
    # Workload whose in-process episodes.csv this one must reproduce byte for byte.
    same_log_as: str | None = None


_RLE_CEM = {"dut": "rle", "agent": "cem", "multipliers": {"e3_partial_count": 1}}

WORKLOADS = {
    w.name: w
    for w in (
        # The paper's headline rle experiment: CEM steers toward long,
        # narrow-width streams, so rle_run / rle_golden dominate.
        Workload("rle_cem", _RLE_CEM, episodes=1000),
        # Constrained-random baseline on the crossbar: simulate_step and
        # golden_check dominate; the agent does almost nothing.
        Workload(
            "axi_random",
            {"dut": "axi", "agent": "random", "multipliers": {"fifo_full_slave_4": 1}},
            # The reward per episode varies widely with the random knobs, so
            # fewer episodes would make the hit rate depend on the seed.
            episodes=3000,
        ),
        # rle_cem with the design behind the JSON bridge: the codec, the
        # round trip and the process wake-ups are a third of each episode.
        Workload("rle_cem_bridged", _RLE_CEM, episodes=1000, bridged=True, same_log_as="rle_cem"),
    )
}


ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_covsteer():
    """Import covsteer from this checkout's source tree, never from elsewhere."""
    if not (SRC / "covsteer" / "__init__.py").is_file():
        raise SystemExit(f"covsteer source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import covsteer

    if Path(covsteer.__file__).resolve().parent != SRC / "covsteer":
        raise SystemExit(f"imported covsteer from {covsteer.__file__}, not from {SRC}")
    return covsteer
