"""Cycle-level model of a 2-master, 10-slave crossbar request path.

Each slave owns one address region of ``region_size`` bytes and a bounded
request FIFO. An episode picks two slave indices; requests are then drawn
uniformly from the address span between the chosen slaves (inclusive).
Every cycle:

1. master 0 then master 1 draws an address, the crossbar decodes the
   target slave, and the request enqueues unless the FIFO is full (a
   rejected request is dropped, not retried);
2. on every ``drain_period``-th cycle each non-empty FIFO dequeues one
   entry;
3. each FIFO ending the cycle full counts one occurrence of its
   ``fifo_full_slave_<i>`` event.

The full enqueue/dequeue trace is recorded and replayed against an
independent queue model after every step (order preserved per FIFO, no
enqueue at full, no dequeue at empty, routing matches the address decode,
occupancies match).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from numbers import Integral

import numpy as np

from .actionspace import Action, ActionSpace, KnobSpec
from .env import DutModel
from .errors import AddressDecodeError, ScoreboardError

N_MASTERS = 2
N_SLAVES = 10

EVENT_NAMES = tuple(f"fifo_full_slave_{i}" for i in range(N_SLAVES))

ACTION_SPACE = ActionSpace(
    knobs=(
        KnobSpec.discrete("lower_slave", range(N_SLAVES)),
        KnobSpec.discrete("upper_slave", range(N_SLAVES)),
    )
)


@dataclass(frozen=True)
class AxiConfig:
    """Overridable parameters of the fixed 2-master, 10-slave instance.

    Run configs take their ``dut_params`` keys and defaults from these fields.
    """

    fifo_depth: int = 4
    region_size: int = 0x1000
    cycles_per_step: int = 100
    drain_period: int = 3

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            least = 0 if f.name == "cycles_per_step" else 1
            if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
                raise ValueError(f"{f.name} must be an integer >= {least}")
        # Addresses are drawn as int64, so the whole map must fit below 2**63.
        if N_SLAVES * self.region_size > 1 << 63:
            raise ValueError(f"region_size must be at most {(1 << 63) // N_SLAVES}")


class SlaveFifo:
    """Bounded request queue with occupancy-derived flow-control flags."""

    def __init__(self, depth: int):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.depth = depth
        self._items: deque = deque()

    @property
    def occupancy(self) -> int:
        return len(self._items)

    @property
    def not_full(self) -> bool:
        return len(self._items) < self.depth

    @property
    def not_empty(self) -> bool:
        return len(self._items) > 0

    def enqueue(self, item) -> None:
        if not self.not_full:
            raise OverflowError("enqueue on a full FIFO")
        self._items.append(item)

    def dequeue(self):
        if not self.not_empty:
            raise IndexError("dequeue on an empty FIFO")
        return self._items.popleft()


@dataclass(frozen=True)
class EnqueueEvent:
    master: int
    req_id: int
    addr: int
    slave: int
    accepted: bool


@dataclass(frozen=True)
class DequeueEvent:
    slave: int
    req_id: int


@dataclass(frozen=True)
class CycleRecord:
    cycle: int
    enqueues: tuple[EnqueueEvent, ...]
    dequeues: tuple[DequeueEvent, ...]
    occupancy: tuple[int, ...]


Trace = tuple[CycleRecord, ...]


@dataclass(frozen=True)
class TraceViolation:
    cycle: int
    kind: str
    detail: str


def decode_action(action: Action, config: AxiConfig) -> tuple[int, int]:
    """Map the two chosen slave indices to an address range [a_min, a_max)."""
    lo_choice, hi_choice = (int(v) for v in action.values)
    lo = min(lo_choice, hi_choice)
    hi = max(lo_choice, hi_choice)
    return lo * config.region_size, (hi + 1) * config.region_size


def decode_address(addr: int, config: AxiConfig) -> int:
    """Address decoder: region index of an in-map address."""
    if not 0 <= addr < N_SLAVES * config.region_size:
        raise AddressDecodeError(f"address {addr:#x} outside the slave map")
    return addr // config.region_size


def simulate_step(
    fifos: list[SlaveFifo],
    config: AxiConfig,
    addr_range: tuple[int, int],
    rng: np.random.Generator,
) -> tuple[tuple[int, ...], Trace]:
    """Run one step of ``cycles_per_step`` cycles over the given FIFOs.

    Returns the per-slave full-cycle counts and the recorded trace.
    """
    a_min, a_max = addr_range
    cycles = config.cycles_per_step
    counts = [0] * N_SLAVES
    records: list[CycleRecord] = []
    if cycles == 0:
        return tuple(counts), ()
    addrs = rng.integers(a_min, a_max, size=(cycles, N_MASTERS))
    req_id = 0
    for cycle in range(cycles):
        enqueues = []
        for master in range(N_MASTERS):
            addr = int(addrs[cycle, master])
            slave = decode_address(addr, config)
            accepted = fifos[slave].not_full
            if accepted:
                fifos[slave].enqueue(req_id)
            enqueues.append(EnqueueEvent(master, req_id, addr, slave, accepted))
            req_id += 1
        dequeues = []
        if cycle % config.drain_period == 0:
            for slave, fifo in enumerate(fifos):
                if fifo.not_empty:
                    dequeues.append(DequeueEvent(slave, fifo.dequeue()))
        occupancy = tuple(f.occupancy for f in fifos)
        for slave, occ in enumerate(occupancy):
            if occ == config.fifo_depth:
                counts[slave] += 1
        records.append(
            CycleRecord(cycle, tuple(enqueues), tuple(dequeues), occupancy)
        )
    return tuple(counts), tuple(records)


def golden_check(trace: Trace, config: AxiConfig) -> list[TraceViolation]:
    """Replay a trace against an independent queue model.

    Returns every violation found (empty list means the trace is clean).
    """
    queues: list[deque] = [deque() for _ in range(N_SLAVES)]
    violations: list[TraceViolation] = []
    for rec in trace:
        for enq in rec.enqueues:
            try:
                expected = decode_address(enq.addr, config)
            except AddressDecodeError:
                violations.append(
                    TraceViolation(rec.cycle, "routing", f"address {enq.addr:#x} unmapped")
                )
                continue
            if enq.slave != expected:
                violations.append(
                    TraceViolation(
                        rec.cycle,
                        "routing",
                        f"request {enq.req_id} routed to slave {enq.slave}, decode says {expected}",
                    )
                )
            if enq.accepted:
                if len(queues[enq.slave]) >= config.fifo_depth:
                    violations.append(
                        TraceViolation(rec.cycle, "enqueue_at_full", f"request {enq.req_id}")
                    )
                else:
                    queues[enq.slave].append(enq.req_id)
        for deq in rec.dequeues:
            if not queues[deq.slave]:
                violations.append(
                    TraceViolation(rec.cycle, "dequeue_at_empty", f"slave {deq.slave}")
                )
                continue
            head = queues[deq.slave].popleft()
            if head != deq.req_id:
                violations.append(
                    TraceViolation(
                        rec.cycle,
                        "fifo_order",
                        f"slave {deq.slave} released {deq.req_id}, oldest was {head}",
                    )
                )
        replayed = tuple(len(q) for q in queues)
        if replayed != rec.occupancy:
            violations.append(
                TraceViolation(
                    rec.cycle,
                    "occupancy",
                    f"recorded {rec.occupancy}, replay says {replayed}",
                )
            )
    return violations


class AxiDut(DutModel):
    """Crossbar wrapped in the design-model contract, with trace replay checking."""

    def __init__(self, config: AxiConfig | None = None):
        self.config = config or AxiConfig()

    def reset(self, seed: int) -> None:
        """Nothing to clear: every step starts from empty FIFOs."""

    def step(self, action: Action, rng: np.random.Generator) -> tuple[int, ...]:
        fifos = [SlaveFifo(self.config.fifo_depth) for _ in range(N_SLAVES)]
        addr_range = decode_action(action, self.config)
        counts, trace = simulate_step(fifos, self.config, addr_range, rng)
        violations = golden_check(trace, self.config)
        if violations:
            first = violations[0]
            raise ScoreboardError(
                f"{len(violations)} trace violations; first at cycle "
                f"{first.cycle}: {first.kind} ({first.detail})"
            )
        return counts

    def event_names(self):
        return EVENT_NAMES

    def action_space(self):
        return ACTION_SPACE
