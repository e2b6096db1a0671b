"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

The lines print straight to the terminal (capture is bypassed), so a plain
``pytest tests/test_acceptance.py`` shows them as the criteria run.
"""

import statistics
import time

import numpy as np
import pytest

from covsteer.actionspace import Action, sample_uniform
from covsteer.agents import CemAgent, RandomAgent
from covsteer.axi import ACTION_SPACE as AXI_SPACE
from covsteer.axi import AxiConfig, AxiDut, golden_check, simulate_step
from covsteer.cli import cmd_run
from covsteer.config import build_config
from covsteer.coverage import EventSpec, compute_reward
from covsteer.env import Environment, run_campaign
from covsteer.rle import (
    ACTION_SPACE as RLE_SPACE,
    RleConfig,
    RleDut,
    decode_action,
    rle_golden,
    rle_run,
)

from conftest import tcp_server
from rle_oracle import rle_decompress

SEED_PAIRS = (101, 202, 303, 404, 505)
NON_DIVISORS = (3, 5, 6, 7)
DIVISORS = (1, 2, 4, 8)


@pytest.fixture
def check(capfd):
    """Print one [PASS]/[FAIL] line past pytest's capture, then assert."""

    def _check(name: str, condition: bool, detail: str) -> None:
        with capfd.disabled():
            print(f"[{'PASS' if condition else 'FAIL'}] {name}: {detail}", flush=True)
        assert condition, f"{name}: {detail}"

    return _check


def median(xs):
    return statistics.median(xs)


# ---------------------------------------------------------------------------
# Shared campaigns (criteria 1+2 and 4+5 reuse the same runs)
# ---------------------------------------------------------------------------


def _campaign(dut_factory, multipliers, agent_kind, seed, episodes=1000):
    env = Environment(dut_factory(), multipliers)
    agent = CemAgent(env.space) if agent_kind == "cem" else RandomAgent(env.space)
    records = []
    run_campaign(env, agent, episodes, seed=seed, on_record=records.append)
    return records


@pytest.fixture(scope="module")
def rle_campaigns():
    t0 = time.perf_counter()
    runs = {
        (kind, seed): _campaign(RleDut, {"e3_partial_count": 1.0}, kind, seed)
        for kind in ("cem", "random")
        for seed in SEED_PAIRS
    }
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def axi_campaigns():
    t0 = time.perf_counter()
    runs = {
        (kind, seed): _campaign(AxiDut, {"fifo_full_slave_4": 1.0}, kind, seed)
        for kind in ("cem", "random")
        for seed in SEED_PAIRS
    }
    return runs, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_1_rle_steered_vs_random_ratio(check, rle_campaigns):
    runs, elapsed = rle_campaigns
    cem = median([sum(r.counts[3] for r in runs[("cem", s)]) for s in SEED_PAIRS])
    rnd = median([sum(r.counts[3] for r in runs[("random", s)]) for s in SEED_PAIRS])
    check(
        "criterion-1 rle ratio",
        cem >= 2.5 * rnd,
        f"median e3 cem={cem} random={rnd} ratio={cem / rnd:.2f} "
        f"(threshold 2.5x); campaigns took {elapsed:.1f}s",
    )


def test_criterion_2_rle_action_concentration(check, rle_campaigns):
    runs, _ = rle_campaigns
    fractions = []
    for seed in SEED_PAIRS:
        tail = runs[("cem", seed)][500:]
        hits = sum(1 for r in tail if int(r.action.values[1]) in NON_DIVISORS)
        fractions.append(hits / len(tail))
    med = median(fractions)
    check(
        "criterion-2 rle count_width concentration",
        med >= 0.70,
        f"median fraction of final-500 count_width in {{3,5,6,7}}: {med:.3f} "
        f"(threshold 0.70)",
    )


def test_criterion_3_divisor_property(check):
    rng = np.random.default_rng(33)
    violations = 0
    for cw in DIVISORS:
        for _ in range(200):
            n = int(rng.integers(0, 1001))
            p = float(rng.random())
            seq = np.where(rng.random(n) < p, 0, rng.integers(1, 256, size=n))
            counts, _ = rle_run(RleConfig(cw), seq.astype(np.uint8).tobytes())
            if counts[3] != 0:
                violations += 1
    missing = 0
    for cw in NON_DIVISORS:
        length = 2 * 64 * ((1 << cw) - 1) // cw
        counts, _ = rle_run(RleConfig(cw), bytes(length))
        if counts[3] < 1:
            missing += 1
    check(
        "criterion-3 divisor property",
        violations == 0 and missing == 0,
        f"divisor widths: {violations} spurious straddles over 800 sequences; "
        f"non-divisor widths missing straddles: {missing} of 4 (exact)",
    )


def test_criterion_4_axi_steered_vs_random_ratio(check, axi_campaigns):
    runs, elapsed = axi_campaigns
    cem = median([sum(r.counts[4] for r in runs[("cem", s)]) for s in SEED_PAIRS])
    rnd = median([sum(r.counts[4] for r in runs[("random", s)]) for s in SEED_PAIRS])
    check(
        "criterion-4 axi ratio",
        cem >= 1.5 * rnd,
        f"median e4 cem={cem} random={rnd} ratio={cem / rnd:.2f} "
        f"(threshold 1.5x); campaigns took {elapsed:.1f}s",
    )


def test_criterion_5_axi_targeting(check, axi_campaigns):
    runs, _ = axi_campaigns
    fractions = []
    for seed in SEED_PAIRS:
        tail = runs[("cem", seed)][500:]
        good = 0
        for r in tail:
            lo, hi = sorted(int(v) for v in r.action.values)
            if lo <= 4 <= hi and hi - lo + 1 <= 3:
                good += 1
        fractions.append(good / len(tail))
    med = median(fractions)
    check(
        "criterion-5 axi targeting",
        med >= 0.60,
        f"median fraction of final-500 ranges containing slave 4 with width<=3: "
        f"{med:.3f} (threshold 0.60)",
    )


def test_criterion_6_reward_exactness(check):
    rng = np.random.default_rng(66)
    mismatches = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        counts = tuple(int(c) for c in rng.integers(0, 1000, size=n))
        multipliers = [float(m) for m in rng.uniform(-10, 10, size=n)]
        events = [EventSpec(f"e{i}", m) for i, m in enumerate(multipliers)]
        got = compute_reward(counts, events)
        # independently coded dot product, same left-to-right order
        expected = 0.0
        for i in range(n):
            expected += counts[i] * multipliers[i]
        if got != expected:
            mismatches += 1
    check(
        "criterion-6 reward exactness",
        mismatches == 0,
        f"{mismatches} mismatches over 10000 random (counts, multipliers) pairs (exact)",
    )


def test_criterion_7_scoreboard_cleanliness(check):
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    rle_mismatches = 0
    roundtrip_failures = 0
    for _ in range(10_000):
        config, words = decode_action(sample_uniform(RLE_SPACE, rng), rng)
        counts, out = rle_run(config, words)
        if rle_golden(config, words) != (counts, out):
            rle_mismatches += 1
        if rle_decompress(out, config) != words:
            roundtrip_failures += 1

    axi_config = AxiConfig()
    axi_violations = 0
    for _ in range(10_000):
        action = sample_uniform(AXI_SPACE, rng)
        lo, hi = sorted(int(v) for v in action.values)
        addr_range = (lo * axi_config.region_size, (hi + 1) * axi_config.region_size)
        counts, trace = simulate_step(axi_config, addr_range, rng)
        axi_violations += len(golden_check(trace, counts, axi_config))
    elapsed = time.perf_counter() - t0
    check(
        "criterion-7 scoreboards",
        rle_mismatches == 0 and roundtrip_failures == 0 and axi_violations == 0,
        f"10000 rle episodes: {rle_mismatches} golden mismatches, "
        f"{roundtrip_failures} roundtrip failures; 10000 axi episodes: "
        f"{axi_violations} replay violations; took {elapsed:.1f}s",
    )


def test_criterion_8_determinism(check, tmp_path):
    rle_cfg = build_config(
        {
            "dut": "rle",
            "agent": "cem",
            "episodes": 1000,
            "seed": 7,
            "multipliers": {"e3_partial_count": 1},
        }
    )
    first = cmd_run(rle_cfg, tmp_path / "a")
    second = cmd_run(rle_cfg, tmp_path / "b")
    rle_identical = (
        (first / "episodes.csv").read_bytes() == (second / "episodes.csv").read_bytes()
    )

    axi_cfg = build_config(
        {
            "dut": "axi",
            "agent": "random",
            "episodes": 300,
            "seed": 11,
            "multipliers": {"fifo_full_slave_4": 1},
        }
    )
    axi_a = cmd_run(axi_cfg, tmp_path / "axi_a")
    axi_b = cmd_run(axi_cfg, tmp_path / "axi_b")
    axi_identical = (
        (axi_a / "episodes.csv").read_bytes() == (axi_b / "episodes.csv").read_bytes()
    )

    with tcp_server() as server:
        local_cfg = build_config(
            {
                "dut": "rle",
                "agent": "random",
                "episodes": 300,
                "seed": 3,
                "multipliers": {"e3_partial_count": 1},
            }
        )
        local = cmd_run(local_cfg, tmp_path / "local")
        bridged_cfg = build_config(
            {
                "dut": f"bridge:127.0.0.1:{server.port}",
                "agent": "random",
                "episodes": 300,
                "seed": 3,
                "multipliers": {"e3_partial_count": 1},
            }
        )
        bridged = cmd_run(bridged_cfg, tmp_path / "bridged")
    bridged_identical = (
        (local / "episodes.csv").read_bytes() == (bridged / "episodes.csv").read_bytes()
    )

    check(
        "criterion-8 determinism",
        rle_identical and axi_identical and bridged_identical,
        f"rle rerun byte-identical: {rle_identical}; "
        f"axi rerun byte-identical: {axi_identical}; "
        f"bridged vs in-process byte-identical: {bridged_identical}",
    )


def test_criterion_9_cem_bandit_sanity(check):
    from covsteer.actionspace import ActionSpace, KnobSpec

    space = ActionSpace(knobs=(KnobSpec.discrete("arm", range(1, 9)),))
    target = 6.0
    target_idx = space.knobs[0].values.index(target)
    successes = 0
    for seed in range(100):
        agent = CemAgent(space)
        rng = np.random.default_rng(seed)
        reached = False
        while agent.refits < 20 and not reached:
            action = agent.propose(rng)
            agent.observe(action, 1.0 if action.values[0] == target else 0.0)
            if not agent._buffer and agent.dists[0].probs[target_idx] > 0.9:
                reached = True
        if reached:
            successes += 1
    check(
        "criterion-9 cem bandit",
        successes >= 95,
        f"p(target) exceeded 0.9 within 20 refits in {successes}/100 seeds "
        f"(threshold 95)",
    )
