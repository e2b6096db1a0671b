import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covsteer.actionspace import Action
from covsteer.axi import (
    ACTION_SPACE,
    EVENT_NAMES,
    AxiConfig,
    AxiDut,
    CycleRecord,
    DequeueEvent,
    EnqueueEvent,
    decode_action,
    decode_address,
    golden_check,
    simulate_step,
)
from covsteer.errors import AddressDecodeError, ScoreboardError

CFG = AxiConfig()


def run_episode(action, seed, config=CFG):
    """One episode's simulation: the counts and trace AxiDut.step checks."""
    addr_range = decode_action(Action(action), config)
    return simulate_step(config, addr_range, np.random.default_rng(seed))


def replay_occupancy(trace):
    """Each cycle's end-of-cycle FIFO occupancies, counted from the trace's events."""
    occupancy = [0] * 10
    per_cycle = []
    for rec in trace:
        for enq in rec.enqueues:
            occupancy[enq.slave] += enq.accepted
        for deq in rec.dequeues:
            occupancy[deq.slave] -= 1
        per_cycle.append(tuple(occupancy))
    return per_cycle


class TestDecode:
    def test_reversed_choices_normalize(self):
        assert decode_action(Action((7, 3)), CFG) == (0x3000, 0x8000)

    def test_degenerate_range(self):
        assert decode_action(Action((4, 4)), CFG) == (0x4000, 0x5000)

    def test_extremes_cover_full_map(self):
        assert decode_action(Action((0, 9)), CFG) == (0x0000, 0xA000)

    def test_address_decoding(self):
        assert decode_address(0x4800, CFG) == 4
        assert decode_address(0x0, CFG) == 0
        assert decode_address(0x9FFF, CFG) == 9

    def test_out_of_map_address(self):
        with pytest.raises(AddressDecodeError):
            decode_address(0xA000, CFG)
        with pytest.raises(AddressDecodeError):
            decode_address(-1, CFG)


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
        assert trace == ()

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
        for rec in trace:
            for enq in rec.enqueues:
                if enq.accepted:
                    accepted[enq.slave].append(enq.req_id)
            for deq in rec.dequeues:
                drained[deq.slave].append(deq.req_id)
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

    def test_deterministic_given_seed(self):
        a = run_episode((1, 8), seed=13)
        b = run_episode((1, 8), seed=13)
        assert a == b

    def test_dut_step_reports_the_simulated_counts_every_episode(self):
        dut = AxiDut()
        for _ in range(2):  # no state carries over between episodes
            dut.reset(3)
            counts = dut.step(Action((4, 5)), np.random.default_rng(3))
            assert counts == run_episode((4, 5), seed=3)[0]


class TestGoldenCheck:
    def clean_step(self, action=(3, 5), seed=11):
        counts, trace = run_episode(action, seed=seed)
        return counts, list(trace)

    def test_clean_traces_replay_clean(self):
        for seed in range(30):
            counts, trace = self.clean_step(seed=seed)
            assert golden_check(trace, counts, CFG) == []

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
        assert golden_check(trace, counts, cfg) == []
        occupancies = replay_occupancy(trace)
        assert counts == tuple(
            sum(occ[slave] == fifo_depth for occ in occupancies) for slave in range(10)
        )

    def test_swapped_dequeues_break_fifo_order(self):
        counts, trace = self.clean_step(action=(4, 4))
        # find two cycles with dequeues and swap their request ids
        cycles = [i for i, r in enumerate(trace) if r.dequeues]
        i, j = cycles[0], cycles[1]
        di, dj = trace[i].dequeues[0], trace[j].dequeues[0]
        trace[i] = trace[i]._replace(dequeues=(di._replace(req_id=dj.req_id),))
        trace[j] = trace[j]._replace(dequeues=(dj._replace(req_id=di.req_id),))
        kinds = {v.kind for v in golden_check(trace, counts, CFG)}
        assert "fifo_order" in kinds

    def test_enqueue_at_full_flagged(self):
        enqueues = tuple(
            EnqueueEvent(master=0, req_id=i, addr=0x4000, slave=4, accepted=True)
            for i in range(CFG.fifo_depth + 1)
        )
        trace = (CycleRecord(0, enqueues, ()),)
        counts = (0, 0, 0, 0, 1, 0, 0, 0, 0, 0)
        kinds = [v.kind for v in golden_check(trace, counts, CFG)]
        assert kinds == ["enqueue_at_full"]

    def test_dequeue_at_empty_flagged(self):
        trace = (CycleRecord(0, (), (DequeueEvent(2, 0),)),)
        violations = golden_check(trace, (0,) * 10, CFG)
        assert violations and violations[0].kind == "dequeue_at_empty"
        assert violations[0].cycle == 0

    def test_misrouted_request_flagged(self):
        enq = EnqueueEvent(master=0, req_id=0, addr=0x4000, slave=3, accepted=True)
        trace = (CycleRecord(0, (enq,), ()),)
        kinds = {v.kind for v in golden_check(trace, (0,) * 10, CFG)}
        assert "routing" in kinds

    def test_unmapped_address_flagged(self):
        for addr in (-1, 0xA000):
            enq = EnqueueEvent(master=0, req_id=0, addr=addr, slave=9, accepted=False)
            trace = (CycleRecord(0, (enq,), ()),)
            violations = golden_check(trace, (0,) * 10, CFG)
            assert [v.kind for v in violations] == ["routing"]
            assert "unmapped" in violations[0].detail

    def test_enqueue_to_a_missing_slave_is_a_routing_violation(self):
        enq = EnqueueEvent(master=0, req_id=0, addr=0x4000, slave=10, accepted=True)
        trace = (CycleRecord(0, (enq,), ()),)
        violations = golden_check(trace, (0,) * 10, CFG)
        assert [v.kind for v in violations] == ["routing"]
        assert "slave 10" in violations[0].detail

    def test_dequeue_from_a_missing_slave_is_a_routing_violation(self):
        # Slave 9 holds a request, which a dequeue from slave -1 must not release.
        enq = EnqueueEvent(master=0, req_id=0, addr=0x9000, slave=9, accepted=True)
        trace = (CycleRecord(0, (enq,), (DequeueEvent(-1, 0),)),)
        violations = golden_check(trace, (0,) * 10, CFG)
        assert [v.kind for v in violations] == ["routing"]
        assert "slave -1" in violations[0].detail

    def test_full_counts_mismatch_flagged(self):
        counts, trace = self.clean_step(action=(4, 4))
        assert counts[4] > 0
        for wrong in (
            counts[:4] + (counts[4] - 1,) + counts[5:],
            counts[:4] + (0, counts[4]) + counts[6:],
        ):
            violations = golden_check(trace, wrong, CFG)
            assert [v.kind for v in violations] == ["full_counts"]
            assert violations[0].cycle == len(trace)


class TestAxiDut:
    def test_event_names_and_space(self):
        dut = AxiDut()
        assert dut.event_names() == EVENT_NAMES
        assert dut.event_names()[4] == "fifo_full_slave_4"
        assert dut.action_space() is ACTION_SPACE

    def test_scoreboard_raises_on_corrupt_simulation(self, monkeypatch):
        import covsteer.axi as axi_mod

        real = axi_mod.simulate_step

        def corrupted(config, addr_range, rng):
            counts, trace = real(config, addr_range, rng)
            # cycle 0 drains: release request 1 where request 0 is the oldest
            rec = trace[0]
            bad = rec._replace(dequeues=(rec.dequeues[0]._replace(req_id=1),))
            return counts, (bad,) + trace[1:]

        monkeypatch.setattr(axi_mod, "simulate_step", corrupted)
        dut = AxiDut()
        dut.reset(0)
        with pytest.raises(ScoreboardError, match="fifo_order"):
            dut.step(Action((4, 4)), np.random.default_rng(0))

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
            action = Action(tuple(int(v) for v in rng.integers(0, 10, size=2)))
            with pytest.raises(ScoreboardError, match="full_counts"):
                dut.step(action, np.random.default_rng(int(rng.integers(1 << 30))))

    def test_scoreboard_catches_a_faulty_address_decoder(self, monkeypatch):
        # The model and the scoreboard must not share the decoder: a model
        # that routes every request one slave up is caught on every step.
        import covsteer.axi as axi_mod

        real = axi_mod.decode_address
        monkeypatch.setattr(
            axi_mod, "decode_address", lambda addr, config: (real(addr, config) + 1) % 10
        )
        dut = AxiDut()
        rng = np.random.default_rng(23)
        for _ in range(50):
            action = Action(tuple(int(v) for v in rng.integers(0, 10, size=2)))
            with pytest.raises(ScoreboardError, match="routing"):
                dut.step(action, np.random.default_rng(int(rng.integers(1 << 30))))

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
