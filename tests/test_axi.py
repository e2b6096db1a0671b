import hashlib
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covsteer.axi import (
    ACTION_SPACE,
    EVENT_NAMES,
    AxiConfig,
    AxiDut,
    Trace,
    decode_action,
    golden_check,
    simulate_step,
)
from covsteer.errors import ScoreboardError

from conftest import corrupt, exec_mutant

CFG = AxiConfig()


def run_episode(action, seed, config=CFG):
    """One episode's simulation: the counts and trace AxiDut.step checks."""
    addr_range = decode_action(action, config)
    return simulate_step(config, addr_range, np.random.default_rng(seed))


def replay_occupancy(trace):
    """Each cycle's end-of-cycle FIFO occupancies, counted from the trace's columns."""
    occupancy = [0] * 10
    per_cycle = []
    dequeues = list(trace.dequeues)
    for cycle in range(len(trace)):
        for req_id in (2 * cycle, 2 * cycle + 1):
            occupancy[trace.slaves[req_id]] += trace.accepted[req_id]
        while dequeues and dequeues[0][0] == cycle:
            occupancy[dequeues.pop(0)[1]] -= 1
        per_cycle.append(tuple(occupancy))
    assert not dequeues
    return per_cycle


def check_drain_schedule(trace, config):
    """Every drain_period-th cycle releases one entry from each FIFO holding any; no other cycle releases."""
    occupancy = [0] * 10
    released = {}
    for cycle, slave, _ in trace.dequeues:
        released.setdefault(cycle, []).append(slave)
    for cycle in range(len(trace)):
        for req_id in (2 * cycle, 2 * cycle + 1):
            occupancy[trace.slaves[req_id]] += trace.accepted[req_id]
        due = cycle % config.drain_period == 0
        expected = [slave for slave in range(10) if due and occupancy[slave]]
        assert sorted(released.get(cycle, [])) == expected, f"cycle {cycle}"
        for slave in expected:
            occupancy[slave] -= 1


def routed_to(addr, config):
    """The slave a step routes the one address of the span [addr, addr + 1) to."""
    config = replace(config, cycles_per_step=1)
    _, trace = simulate_step(config, (addr, addr + 1), np.random.default_rng(0))
    (slave,) = set(trace.slaves)
    return slave


def hand_trace(requests, dequeues=()):
    """A Trace of (addr, slave, accepted) requests, two per cycle, and the given dequeues."""
    assert len(requests) % 2 == 0
    addrs, slaves, accepted = (list(column) for column in zip(*requests))
    return Trace(addrs, slaves, accepted, list(dequeues), len(requests) // 2)


# sha256 of repr((counts, tuple(trace))) for one step, recorded from the
# per-cycle record model that the columnar trace replaced.
PINNED_TRACES = [
    ((4, 4), 0, {}, "b162654dfeec7e5fe8c46d59158fdd86b0470eb07cc2aecf41749b64af3a6b1e"),
    ((0, 9), 7, {}, "5010632b5c3823381d5d039de159bf8856ed326fc9b84e8fac306be20ed38590"),
    ((2, 5), 1, {"cycles_per_step": 0},
     "b96c080c210df7af9c9bbbeb2ab3750dfd978399ebb345e649b5164857ac961e"),
    ((3, 6), 11, {"fifo_depth": 1, "drain_period": 5},
     "a86ce0aa9fad6bb137455c377526eeef06ad7ade839dd6537a7785bbfcf9f54d"),
    ((3, 3), 3, {"drain_period": 1, "fifo_depth": 2},
     "da48581a763b88a618e7d8e86f96c60dd141f2dd88de0e038a3a51fa157d17db"),
    ((0, 9), 5, {"region_size": 1, "cycles_per_step": 300},
     "7f5ffb1baf8ddb37044aa68d7e6051fe87ac668be130abd73c0db42397a4586f"),
    ((9, 0), 13, {"region_size": (1 << 63) // 10},
     "ed397279a590073afc39788412db520f6b437ca26c3b2fce6027f52b8c534b60"),
]


class TestDecode:
    def test_reversed_choices_normalize(self):
        assert decode_action((7, 3), CFG) == (0x3000, 0x8000)

    def test_degenerate_range(self):
        assert decode_action((4, 4), CFG) == (0x4000, 0x5000)

    def test_extremes_cover_full_map(self):
        assert decode_action((0, 9), CFG) == (0x0000, 0xA000)

    def test_address_decoding(self):
        for addr, slave in ((0x4800, 4), (0x0, 0), (0x9FFF, 9), (0x1000, 1), (0x0FFF, 0)):
            assert routed_to(addr, CFG) == slave

    def test_out_of_map_address(self):
        # A span is checked once for every address drawn from it.
        for a_min, a_max in ((0, 0xA001), (-1, 0x1000), (0x1000, 0x1000)):
            with pytest.raises(ValueError, match=rf"address span \[{a_min:#x}, {a_max:#x}\) is"):
                simulate_step(CFG, (a_min, a_max), np.random.default_rng(0))

    def test_largest_region_size(self):
        cfg = AxiConfig(region_size=(1 << 63) // 10)
        assert routed_to(0, cfg) == 0 and routed_to(10 * cfg.region_size - 1, cfg) == 9
        dut = AxiDut(cfg)
        for seed in range(5):
            dut.step((0, 9), seed)
            dut.step((9, 9), seed)


class TestSimulation:
    def test_singleton_range_saturates_only_that_slave(self):
        # All requests hit slave 4: influx 2/cycle against a drain of 1 per
        # 3 cycles; from cycle 3 the occupancy pattern repeats (3, 4, 4), so
        # exactly 65 of the 100 cycles end full regardless of the rng.
        counts, _ = run_episode((4, 4), seed=0)
        assert counts[4] == 65
        assert all(c == 0 for i, c in enumerate(counts) if i != 4)

    def test_full_range_rarely_fills(self):
        totals = sorted(sum(run_episode((0, 9), seed=s)[0]) for s in range(100))
        assert totals[50] <= 5

    def test_zero_cycles(self):
        cfg = AxiConfig(cycles_per_step=0)
        counts, trace = run_episode((4, 4), seed=1, config=cfg)
        assert counts == (0,) * 10
        assert len(trace) == 0
        assert tuple(trace) == ()
        assert trace == Trace([], [], [], [], 0)

    def test_counts_only_inside_chosen_range(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            lo = int(rng.integers(0, 10))
            hi = int(rng.integers(0, 10))
            counts, _ = run_episode((lo, hi), seed=int(rng.integers(1 << 30)))
            a, b = min(lo, hi), max(lo, hi)
            for slave, c in enumerate(counts):
                if c > 0:
                    assert a <= slave <= b

    def test_conservation_per_slave(self):
        _, trace = run_episode((2, 6), seed=5)
        accepted = [[] for _ in range(10)]
        drained = [[] for _ in range(10)]
        for req_id, (slave, taken) in enumerate(zip(trace.slaves, trace.accepted)):
            if taken:
                accepted[slave].append(req_id)
        for _, slave, req_id in trace.dequeues:
            drained[slave].append(req_id)
        final = replay_occupancy(trace)[-1]
        for slave in range(10):
            assert drained[slave] == accepted[slave][: len(drained[slave])]
            assert len(accepted[slave]) - len(drained[slave]) == final[slave]

    def test_occupancy_bounds_every_cycle(self):
        _, trace = run_episode((3, 5), seed=9)
        for occupancy in replay_occupancy(trace):
            assert all(0 <= occ <= CFG.fifo_depth for occ in occupancy)

    def test_narrow_range_dominates_full_range(self):
        narrow = sorted(run_episode((4, 4), seed=s)[0][4] for s in range(100))
        wide = sorted(run_episode((0, 9), seed=s)[0][4] for s in range(100))
        assert narrow[50] > wide[50]

    @pytest.mark.parametrize("action,seed,params,digest", PINNED_TRACES)
    def test_record_view_matches_pinned_trace(self, action, seed, params, digest):
        cfg = AxiConfig(**params)
        counts, trace = run_episode(action, seed, config=cfg)
        assert hashlib.sha256(repr((counts, tuple(trace))).encode()).hexdigest() == digest
        assert golden_check(trace, counts, cfg) is None

    def test_deterministic_given_seed(self):
        a = run_episode((1, 8), seed=13)
        b = run_episode((1, 8), seed=13)
        assert a == b

    def test_dut_step_reports_the_simulated_counts_every_episode(self):
        dut = AxiDut()
        for _ in range(2):  # no state carries over between episodes
            counts = dut.step((4, 5), 3)
            assert counts == run_episode((4, 5), seed=3)[0]


def golden_error(field, got, want):
    """The pattern of the ScoreboardError that names ``field`` with the step's and golden values."""
    return re.escape(
        f"crossbar diverged from its golden model in {field}: step has {got}, golden has {want}"
    )


# One cycle, for the hand-written traces.
ONE_CYCLE = replace(CFG, cycles_per_step=1)


class TestGoldenCheck:
    def clean_step(self, action=(3, 5), seed=11):
        return run_episode(action, seed=seed)

    def test_clean_traces_replay_clean(self):
        for seed in range(30):
            counts, trace = self.clean_step(seed=seed)
            assert golden_check(trace, counts, CFG) is None

    @given(
        fifo_depth=st.integers(1, 6),
        drain_period=st.integers(1, 5),
        cycles=st.integers(0, 200),
        region_size=st.integers(1, 0x1000),
        slaves=st.tuples(st.integers(0, 9), st.integers(0, 9)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_property_small_configs_replay_clean(
        self, fifo_depth, drain_period, cycles, region_size, slaves, seed
    ):
        cfg = AxiConfig(
            fifo_depth=fifo_depth,
            drain_period=drain_period,
            cycles_per_step=cycles,
            region_size=region_size,
        )
        counts, trace = run_episode(slaves, seed, config=cfg)
        assert len(trace) == cycles
        assert golden_check(trace, counts, cfg) is None
        occupancies = replay_occupancy(trace)
        assert counts == tuple(
            sum(occ[slave] == fifo_depth for occ in occupancies) for slave in range(10)
        )
        check_drain_schedule(trace, cfg)

    def test_swapped_dequeues_break_fifo_order(self):
        counts, trace = self.clean_step(action=(4, 4))
        # swap the request ids of the first two dequeues, which are in different cycles
        (ci, si, ri), (cj, sj, rj), *rest = trace.dequeues
        assert ci != cj
        swapped = replace(trace, dequeues=[(ci, si, rj), (cj, sj, ri), *rest])
        pattern = golden_error("dequeues entry 0", (ci, si, rj), (ci, si, ri))
        with pytest.raises(ScoreboardError, match=pattern):
            golden_check(swapped, counts, CFG)

    def test_enqueue_at_full_flagged(self):
        counts, trace = self.clean_step(action=(4, 4))
        rejected = trace.accepted.index(False)
        accepted = [*trace.accepted]
        accepted[rejected] = True
        pattern = golden_error(f"accepted entry {rejected}", True, False)
        with pytest.raises(ScoreboardError, match=pattern):
            golden_check(replace(trace, accepted=accepted), counts, CFG)

    def test_drop_below_full_flagged(self):
        counts, trace = self.clean_step(action=(4, 4))
        accepted = [*trace.accepted]
        accepted[3] = False
        with pytest.raises(ScoreboardError, match=golden_error("accepted entry 3", False, True)):
            golden_check(replace(trace, accepted=accepted), counts, CFG)

    def test_dequeue_at_empty_flagged(self):
        # Only slave 4 is reached, so slave 2 is empty when cycle 0 drains.
        counts, trace = self.clean_step(action=(4, 4))
        first = trace.dequeues[0]
        assert first[:2] == (0, 4)
        dequeues = [(0, 2, 0), *trace.dequeues]
        pattern = golden_error("dequeues entry 0", (0, 2, 0), first)
        with pytest.raises(ScoreboardError, match=pattern):
            golden_check(replace(trace, dequeues=dequeues), counts, CFG)

    def test_missed_drain_flagged(self):
        counts, trace = self.clean_step(action=(4, 4))
        first, second, *rest = trace.dequeues
        with pytest.raises(ScoreboardError, match=golden_error("dequeues entry 0", second, first)):
            golden_check(replace(trace, dequeues=[second, *rest]), counts, CFG)

    def test_misrouted_request_flagged(self):
        trace = hand_trace([(0x8000, 8, False), (0x4000, 3, True)])
        with pytest.raises(ScoreboardError, match=golden_error("slaves entry 1", 3, 4)):
            golden_check(trace, (0,) * 10, ONE_CYCLE)

    def test_unmapped_address_flagged(self):
        for addr in (-1, 0xA000, 1 << 63, -(1 << 63) - 1):
            trace = hand_trace([(addr, 9, True), (0x9000, 9, True)], dequeues=[(0, 9, 1)])
            message = f"crossbar step drew address {addr:#x}, outside the slave map"
            with pytest.raises(ScoreboardError, match=re.escape(message)):
                golden_check(trace, (0,) * 10, ONE_CYCLE)

    def test_enqueue_to_a_missing_slave_is_a_routing_violation(self):
        trace = hand_trace([(0x4000, 10, True), (0x4000, 4, True)])
        with pytest.raises(ScoreboardError, match=golden_error("slaves entry 0", 10, 4)):
            golden_check(trace, (0,) * 10, ONE_CYCLE)

    def test_dequeue_from_a_missing_slave_is_a_drain_violation(self):
        counts, trace = self.clean_step(action=(9, 9))
        (cycle, slave, req_id), *rest = trace.dequeues
        for missing in (-1, 10):
            dequeues = [(cycle, missing, req_id), *rest]
            got, want = (cycle, missing, req_id), (cycle, slave, req_id)
            pattern = golden_error("dequeues entry 0", got, want)
            with pytest.raises(ScoreboardError, match=pattern):
                golden_check(replace(trace, dequeues=dequeues), counts, CFG)

    def test_full_counts_mismatch_flagged(self):
        counts, trace = self.clean_step(action=(4, 4))
        assert counts[4] > 0
        for wrong in (
            counts[:4] + (counts[4] - 1,) + counts[5:],
            counts[:4] + (0, counts[4]) + counts[6:],
        ):
            pattern = golden_error("counts entry 4", wrong[4], counts[4])
            with pytest.raises(ScoreboardError, match=pattern):
                golden_check(trace, wrong, CFG)

    def test_address_count_must_fit_the_config(self):
        counts, trace = self.clean_step()
        for addrs in (trace.addrs[:-2], trace.addrs[:-1], [*trace.addrs, 0x3000]):
            message = f"crossbar step of 100 cycles drew {len(addrs)} addresses"
            with pytest.raises(ScoreboardError, match=message):
                golden_check(replace(trace, addrs=addrs), counts, CFG)

    def test_malformed_trace_raises(self):
        counts, trace = self.clean_step()
        *_, last = trace.dequeues
        for bad, field, got, want in (
            (replace(trace, cycles=101), "cycles", 101, 100),
            (replace(trace, accepted=trace.accepted[:-1]), "accepted entry 199", "nothing",
             trace.accepted[-1]),
            (replace(trace, dequeues=trace.dequeues[::-1]), "dequeues entry 0", last,
             trace.dequeues[0]),
            (replace(trace, dequeues=[*trace.dequeues, (100, 4, 0)]),
             f"dequeues entry {len(trace.dequeues)}", (100, 4, 0), "nothing"),
        ):
            with pytest.raises(ScoreboardError, match=golden_error(field, got, want)):
                golden_check(bad, counts, CFG)


class TestAxiDut:
    def test_event_names_and_space(self):
        dut = AxiDut()
        assert dut.event_names == EVENT_NAMES
        assert dut.event_names[4] == "fifo_full_slave_4"
        assert dut.action_space is ACTION_SPACE

    def test_scoreboard_raises_on_corrupt_simulation(self, monkeypatch):
        import covsteer.axi as axi_mod

        real = axi_mod.simulate_step

        def corrupted(config, addr_range, rng):
            counts, trace = real(config, addr_range, rng)
            # cycle 0 drains: release request 1 where request 0 is the oldest
            (cycle, slave, _), *rest = trace.dequeues
            assert cycle == 0
            return counts, replace(trace, dequeues=[(cycle, slave, 1), *rest])

        monkeypatch.setattr(axi_mod, "simulate_step", corrupted)
        dut = AxiDut()
        pattern = golden_error("dequeues entry 0", (0, 4, 1), (0, 4, 0))
        with pytest.raises(ScoreboardError, match=pattern):
            dut.step((4, 4), 0)

    def test_scoreboard_catches_miscounted_full_cycles(self, monkeypatch):
        import covsteer.axi as axi_mod

        real = axi_mod.simulate_step

        def miscounted(config, addr_range, rng):
            counts, trace = real(config, addr_range, rng)
            return tuple(c + 1 for c in counts), trace

        monkeypatch.setattr(axi_mod, "simulate_step", miscounted)
        dut = AxiDut()
        rng = np.random.default_rng(29)
        for _ in range(50):
            action = tuple(int(v) for v in rng.integers(0, 10, size=2))
            seed = int(rng.integers(1 << 30))
            counts, _ = run_episode(action, seed)
            pattern = golden_error("counts entry 0", counts[0] + 1, counts[0])
            with pytest.raises(ScoreboardError, match=pattern):
                dut.step(action, seed)

    def test_scoreboard_catches_a_faulty_address_decoder(self, monkeypatch):
        # The scoreboard routes by the region bounds, not by the model's
        # division: a model that routes every request one slave up is
        # caught on every step.
        import covsteer.axi as axi_mod

        line = "slaves = (draw // config.region_size).tolist()"
        exec_mutant(monkeypatch, axi_mod, "simulate_step", line,
                    "slaves = ((draw // config.region_size + 1) % N_SLAVES).tolist()")
        dut = AxiDut()
        rng = np.random.default_rng(23)
        for _ in range(50):
            action = tuple(int(v) for v in rng.integers(0, 10, size=2))
            seed = int(rng.integers(1 << 30))
            slave = run_episode(action, seed)[1].slaves[0]
            pattern = golden_error("slaves entry 0", (slave + 1) % 10, slave)
            with pytest.raises(ScoreboardError, match=pattern):
                dut.step(action, seed)

    @pytest.mark.parametrize(
        "line,mutation,action,message",
        [
            # accepts a request into a FIFO that is already full
            ("if len(fifo) < depth:", "if len(fifo) <= depth:", (4, 4),
             golden_error("accepted entry 5", True, False)),
            # pops cycle 0's dequeues without recording them
            (
                "dequeues.append((cycle, slave, fifo.popleft()))",
                "dequeues.append((cycle, slave, fifo.popleft())) if cycle else fifo.popleft()",
                (0, 9),
                golden_error("dequeues entry 0", (3, 0, 5), (0, 6, 1)),
            ),
            # drops every seventh request even when its FIFO has room
            (
                "if len(fifo) < depth:",
                "if len(fifo) < depth and req_id % 7 != 3:",
                (4, 4),
                golden_error("accepted entry 3", False, True),
            ),
            # skips every fourth drain (cycle 9's), so cycle 10 finds the FIFO still full
            (
                "if req_id % drain_every == N_MASTERS - 1:",
                "if req_id % drain_every == N_MASTERS - 1 and req_id // drain_every % 4 != 3:",
                (4, 4),
                golden_error("accepted entry 20", False, True),
            ),
        ],
    )
    def test_scoreboard_catches_a_model_mutant(self, monkeypatch, line, mutation, action, message):
        import covsteer.axi as axi_mod

        exec_mutant(monkeypatch, axi_mod, "simulate_step", line, mutation)
        with pytest.raises(ScoreboardError, match=message):
            AxiDut().step(action, 0)

    @pytest.mark.parametrize(
        "field", [f.name for f in fields(Trace) if f.name != "addrs"] + ["counts"]
    )
    def test_scoreboard_names_each_corrupted_field(self, monkeypatch, field):
        # The golden model replays the step's own addresses, so every other
        # column of the trace, and the counts, is compared.
        import covsteer.axi as axi_mod

        real = axi_mod.simulate_step

        def corrupted(config, addr_range, rng):
            counts, trace = real(config, addr_range, rng)
            if field == "counts":
                return corrupt(counts), trace
            return counts, replace(trace, **{field: corrupt(getattr(trace, field))})

        monkeypatch.setattr(axi_mod, "simulate_step", corrupted)
        with pytest.raises(ScoreboardError, match=rf"golden model in {field}( entry \d+)?: "):
            AxiDut().step((3, 6), 4)

    def test_config_is_pinned_to_paper_instance(self):
        with pytest.raises(TypeError):
            AxiConfig(n_slaves=4)
        with pytest.raises(TypeError):
            AxiConfig(n_masters=3)

    def test_overridable_parameters(self):
        cfg = AxiConfig(fifo_depth=2, drain_period=5, cycles_per_step=20, region_size=0x100)
        counts, trace = run_episode((0, 0), seed=2, config=cfg)
        assert len(trace) == 20
        assert all(occ <= 2 for occupancy in replay_occupancy(trace) for occ in occupancy)
