"""Cycle-level model of a 2-master, 10-slave crossbar request path.

Each slave owns one address region of ``region_size`` bytes and a request
FIFO of ``fifo_depth`` entries. An episode picks two slave indices;
requests are then drawn uniformly from the address span between the chosen
slaves (inclusive). Every step starts from empty FIFOs, so the model keeps
no state between episodes. Every cycle:

1. master 0 then master 1 draws an address, the crossbar decodes the
   target slave, and the request enqueues unless the FIFO is full (a
   rejected request is dropped, not retried);
2. on every ``drain_period``-th cycle each non-empty FIFO dequeues one
   entry;
3. each FIFO ending the cycle full counts one occurrence of its
   ``fifo_full_slave_<i>`` event.

The full enqueue/dequeue trace is recorded and replayed against an
independent queue model after every step: order is preserved per FIFO, no
request enqueues at full or dequeues at empty, and routing matches the
region bounds. The replay derives each cycle's occupancy from its own
queues, recounts every slave's full cycles from it, and checks those counts
against the ones the step returned, so the events the reward is computed
from are checked too.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, fields
from numbers import Integral
from typing import NamedTuple

import numpy as np

# Designs call env.stimulus_rng through the module, so a rebinding of it
# (as the benchmark tracer does) reaches every episode.
from . import env
from .actionspace import Action, ActionSpace, KnobSpec
from .env import DutModel
from .errors import AddressDecodeError, ScoreboardError

N_MASTERS = 2
N_SLAVES = 10
# A step's trace takes about 0.7 KB per cycle, so this caps it near 70 MB.
MAX_CYCLES_PER_STEP = 100_000

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
        if self.cycles_per_step > MAX_CYCLES_PER_STEP:
            raise ValueError(f"cycles_per_step must be at most {MAX_CYCLES_PER_STEP}")
        # Addresses are drawn as int64, so the whole map must fit below 2**63.
        if N_SLAVES * self.region_size > 1 << 63:
            raise ValueError(f"region_size must be at most {(1 << 63) // N_SLAVES}")


# The trace records are plain tuples: a step builds about three per cycle.
class EnqueueEvent(NamedTuple):
    master: int
    req_id: int
    addr: int
    slave: int
    accepted: bool


class DequeueEvent(NamedTuple):
    slave: int
    req_id: int


class CycleRecord(NamedTuple):
    cycle: int
    enqueues: tuple[EnqueueEvent, ...]
    dequeues: tuple[DequeueEvent, ...]


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
    config: AxiConfig,
    addr_range: tuple[int, int],
    rng: np.random.Generator,
) -> tuple[tuple[int, ...], Trace]:
    """Run one step of ``cycles_per_step`` cycles from empty FIFOs.

    Returns the per-slave full-cycle counts and the recorded trace.
    """
    a_min, a_max = addr_range
    n_cycles = config.cycles_per_step
    depth = config.fifo_depth
    drain_period = config.drain_period
    decode = decode_address
    fifos = [deque() for _ in range(N_SLAVES)]
    counts = [0] * N_SLAVES
    # A FIFO's full cycles are counted when it stops being full: it ends
    # every cycle from the one it filled in to the one before it drains.
    full_since = [0] * N_SLAVES
    records: list[CycleRecord] = []
    addrs = rng.integers(a_min, a_max, size=(n_cycles, N_MASTERS)).tolist()
    req_id = 0
    for cycle, cycle_addrs in enumerate(addrs):
        enqueues = []
        for master, addr in enumerate(cycle_addrs):
            slave = decode(addr, config)
            fifo = fifos[slave]
            accepted = len(fifo) < depth
            if accepted:
                fifo.append(req_id)
                if len(fifo) == depth:
                    full_since[slave] = cycle
            enqueues.append(EnqueueEvent(master, req_id, addr, slave, accepted))
            req_id += 1
        dequeues = []
        if cycle % drain_period == 0:
            for slave, fifo in enumerate(fifos):
                if fifo:
                    if len(fifo) == depth:
                        counts[slave] += cycle - full_since[slave]
                    dequeues.append(DequeueEvent(slave, fifo.popleft()))
        records.append(CycleRecord(cycle, tuple(enqueues), tuple(dequeues)))
    for slave, fifo in enumerate(fifos):
        if len(fifo) == depth:
            counts[slave] += n_cycles - full_since[slave]
    return tuple(counts), tuple(records)


def golden_check(
    trace: Trace, counts: tuple[int, ...], config: AxiConfig
) -> list[TraceViolation]:
    """Replay a trace against an independent queue model and recount its events.

    Routing is checked against the region bounds, not the model's decoder;
    a record naming a slave that does not exist is a routing violation and
    is not replayed. Each cycle's occupancy comes from the replay queues,
    and the full cycles counted from it must equal ``counts``; a mismatch is
    one ``full_counts`` violation stamped with the step's cycle count.
    Returns every violation found (empty list means the trace is clean).
    """
    bounds = [i * config.region_size for i in range(N_SLAVES + 1)]
    depth = config.fifo_depth
    queues: list[deque] = [deque() for _ in range(N_SLAVES)]
    full_cycles = [0] * N_SLAVES
    violations: list[TraceViolation] = []
    for cycle, enqueues, dequeues in trace:
        for _, req_id, addr, slave, accepted in enqueues:
            expected = bisect_right(bounds, addr) - 1
            if not 0 <= expected < N_SLAVES:
                violations.append(TraceViolation(cycle, "routing", f"address {addr:#x} unmapped"))
                continue
            if slave != expected:
                violations.append(
                    TraceViolation(
                        cycle,
                        "routing",
                        f"request {req_id} routed to slave {slave}, region is {expected}",
                    )
                )
                if not 0 <= slave < N_SLAVES:
                    continue
            if accepted:
                queue = queues[slave]
                if len(queue) >= depth:
                    violations.append(
                        TraceViolation(cycle, "enqueue_at_full", f"request {req_id}")
                    )
                else:
                    queue.append(req_id)
        for slave, req_id in dequeues:
            if not 0 <= slave < N_SLAVES:
                violations.append(
                    TraceViolation(cycle, "routing", f"request {req_id} dequeued from slave {slave}")
                )
                continue
            queue = queues[slave]
            if not queue:
                violations.append(TraceViolation(cycle, "dequeue_at_empty", f"slave {slave}"))
                continue
            head = queue.popleft()
            if head != req_id:
                violations.append(
                    TraceViolation(
                        cycle,
                        "fifo_order",
                        f"slave {slave} released {req_id}, oldest was {head}",
                    )
                )
        for slave, queue in enumerate(queues):
            if len(queue) == depth:
                full_cycles[slave] += 1
    if tuple(counts) != tuple(full_cycles):
        violations.append(
            TraceViolation(
                len(trace),
                "full_counts",
                f"step counted {tuple(counts)}, replay counts {tuple(full_cycles)}",
            )
        )
    return violations


class AxiDut(DutModel):
    """Crossbar wrapped in the design-model contract, with trace replay checking.

    Every step starts from empty FIFOs, so there is nothing to reset.
    """

    def __init__(self, config: AxiConfig | None = None):
        self.config = config or AxiConfig()

    def step(self, action: Action, seed: int) -> tuple[int, ...]:
        addr_range = decode_action(action, self.config)
        counts, trace = simulate_step(self.config, addr_range, env.stimulus_rng(seed))
        violations = golden_check(trace, counts, self.config)
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
