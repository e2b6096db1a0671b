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
   entry (only the FIFOs of slaves the step's requests reach are visited,
   since the others stay empty all step);
3. each FIFO ending the cycle full counts one occurrence of its
   ``fifo_full_slave_<i>`` event.

A step draws all of its addresses from the span ``decode_action`` makes
and routes them at once, then runs the FIFOs request by request. Two
slave indices that ``validate`` accepted make a non-empty span inside the
slave map, so the step checks no span. Its ``Trace`` is columnar:
request ``i`` is master ``i % N_MASTERS`` in cycle ``i // N_MASTERS``,
with its address, routed slave and acceptance in three per-request lists,
and the dequeues are one list of ``(cycle, slave, req_id)`` tuples.
``golden_check`` is the scoreboard: a reference model that re-derives the
step's ``Trace`` and counts from its addresses and the config alone, so
``AxiDut.step`` checks the routing, acceptances, dequeues and event counts
of every episode by equality, with ``env.check_golden`` as the
compressor's scoreboard does.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

# Designs call env.stimulus_rng through the module, so a rebinding of it
# (as the benchmark tracer does) reaches every episode.
from . import env
from .actionspace import Action, ActionSpace, ValueSet, is_integer
from .env import DutModel
from .errors import ScoreboardError

N_MASTERS = 2
N_SLAVES = 10
# A step takes at most about 0.35 KB per cycle, so this caps it near 35 MB.
# (tracemalloc peak of one 100 000-cycle step at the default config: 35 MB
# with requests spread over all ten slaves, 19 MB with all on one slave.)
MAX_CYCLES_PER_STEP = 100_000

EVENT_NAMES = tuple(f"fifo_full_slave_{i}" for i in range(N_SLAVES))

ACTION_SPACE = ActionSpace(
    knobs=(
        ValueSet("lower_slave", range(N_SLAVES)),
        ValueSet("upper_slave", range(N_SLAVES)),
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
            if not is_integer(value) or value < least:
                raise ValueError(f"{f.name} must be an integer >= {least}")
        if self.cycles_per_step > MAX_CYCLES_PER_STEP:
            raise ValueError(f"cycles_per_step must be at most {MAX_CYCLES_PER_STEP}")
        # Addresses are drawn as int64, so the whole map must fit below 2**63.
        if N_SLAVES * self.region_size > 1 << 63:
            raise ValueError(f"region_size must be at most {(1 << 63) // N_SLAVES}")


# The per-cycle record view of a Trace; a step builds none of these.
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


@dataclass(frozen=True)
class Trace:
    """One step's requests and dequeues, stored as columns.

    Request ``i`` is master ``i % N_MASTERS`` in cycle ``i // N_MASTERS``:
    ``addrs[i]`` is its address, ``slaves[i]`` the slave the crossbar routed
    it to and ``accepted[i]`` whether that slave's FIFO took it. Every cycle
    holds exactly ``N_MASTERS`` requests. ``dequeues`` lists ``(cycle,
    slave, req_id)`` in the order the FIFOs released them. ``len(trace)``
    is the cycle count, and iterating yields one ``CycleRecord`` per cycle.
    """

    addrs: list[int]
    slaves: list[int]
    accepted: list[bool]
    dequeues: list[tuple[int, int, int]]
    cycles: int

    def __len__(self) -> int:
        return self.cycles

    def __iter__(self):
        dequeues = self.dequeues
        d = 0
        for cycle in range(self.cycles):
            base = cycle * N_MASTERS
            enqueues = tuple(
                EnqueueEvent(i - base, i, self.addrs[i], self.slaves[i], self.accepted[i])
                for i in range(base, base + N_MASTERS)
            )
            first = d
            while d < len(dequeues) and dequeues[d][0] == cycle:
                d += 1
            released = tuple(DequeueEvent(slave, req_id) for _, slave, req_id in dequeues[first:d])
            yield CycleRecord(cycle, enqueues, released)


def decode_action(action: Action, config: AxiConfig) -> tuple[int, int]:
    """Map the two chosen slave indices to an address range [a_min, a_max)."""
    lo_choice, hi_choice = (int(v) for v in action)
    lo = min(lo_choice, hi_choice)
    hi = max(lo_choice, hi_choice)
    return lo * config.region_size, (hi + 1) * config.region_size


def simulate_step(
    config: AxiConfig,
    addr_range: tuple[int, int],
    rng: np.random.Generator,
) -> tuple[tuple[int, ...], Trace]:
    """Run one step of ``cycles_per_step`` cycles from empty FIFOs.

    Returns the per-slave full-cycle counts and the recorded trace. Every
    address is drawn from ``addr_range``, a non-empty span inside the slave
    map as ``decode_action`` makes it from two valid slave indices.
    """
    a_min, a_max = addr_range
    n_cycles = config.cycles_per_step
    depth = config.fifo_depth
    draw = rng.integers(a_min, a_max, size=n_cycles * N_MASTERS)
    slaves = (draw // config.region_size).tolist()
    fifos = [deque() for _ in range(N_SLAVES)]
    # Only these FIFOs ever hold a request, so only they are drained.
    reached = [(slave, fifos[slave]) for slave in sorted(set(slaves))]
    counts = [0] * N_SLAVES
    # A FIFO's full cycles are counted when it stops being full: it ends
    # every cycle from the one it filled in to the one before it drains.
    full_since = [0] * N_SLAVES
    accepted = [True] * len(slaves)
    dequeues = []
    # The last request of every drain_period-th cycle is followed by its drain.
    drain_every = N_MASTERS * config.drain_period
    for req_id, slave in enumerate(slaves):
        fifo = fifos[slave]
        if len(fifo) < depth:
            fifo.append(req_id)
            if len(fifo) == depth:
                full_since[slave] = req_id // N_MASTERS
        else:
            accepted[req_id] = False
        if req_id % drain_every == N_MASTERS - 1:
            cycle = req_id // N_MASTERS
            for slave, fifo in reached:
                if fifo:
                    if len(fifo) == depth:
                        counts[slave] += cycle - full_since[slave]
                    dequeues.append((cycle, slave, fifo.popleft()))
    for slave, fifo in reached:
        if len(fifo) == depth:
            counts[slave] += n_cycles - full_since[slave]
    return tuple(counts), Trace(draw.tolist(), slaves, accepted, dequeues, n_cycles)


def golden_check(trace: Trace, counts: tuple[int, ...], config: AxiConfig) -> None:
    """Re-derive a step from its addresses and the config, and compare.

    The reference model runs the module docstring's cycle over the step's
    addresses, routing each by the region bounds, and builds the ``Trace``
    and full-cycle counts the step should have produced;
    ``env.check_golden`` raises ``ScoreboardError`` unless the step's equal
    them. A step whose address count does not fit the config, or that drew
    an address outside the slave map, cannot be replayed and raises
    ``ScoreboardError`` first.
    """
    addrs = trace.addrs
    n_cycles = config.cycles_per_step
    if len(addrs) != n_cycles * N_MASTERS:
        raise ScoreboardError(f"crossbar step of {n_cycles} cycles drew {len(addrs)} addresses")
    size = config.region_size
    routed = [addr // size for addr in addrs]
    regions = sorted(set(routed))
    if regions and not 0 <= regions[0] <= regions[-1] < N_SLAVES:
        addr = next(a for a, region in zip(addrs, routed) if not 0 <= region < N_SLAVES)
        raise ScoreboardError(f"crossbar step drew address {addr:#x}, outside the slave map")

    depth, period = config.fifo_depth, config.drain_period
    fifos = [deque() for _ in range(N_SLAVES)]
    reached = [(slave, fifos[slave]) for slave in regions]
    taken: list[bool] = []
    released: list[tuple[int, int, int]] = []
    full: set[int] = set()
    full_cycles = [0] * N_SLAVES
    for req_id, slave in enumerate(routed):
        fifo = fifos[slave]
        room = len(fifo) < depth
        taken.append(room)
        if room:
            fifo.append(req_id)
            if len(fifo) == depth:
                full.add(slave)
        if req_id % N_MASTERS < N_MASTERS - 1:
            continue
        cycle = req_id // N_MASTERS
        if cycle % period == 0:
            for slave, fifo in reached:
                if fifo:
                    released.append((cycle, slave, fifo.popleft()))
            # Every FIFO that was full has just released an entry.
            full.clear()
        for slave in full:
            full_cycles[slave] += 1
    golden = Trace(addrs, routed, taken, released, n_cycles)
    env.check_golden("crossbar", (counts, trace), (tuple(full_cycles), golden))


class AxiDut(DutModel):
    """Crossbar wrapped in the design-model contract, checked by ``golden_check``.

    Every step starts from empty FIFOs, so there is nothing to reset.
    """

    event_names = EVENT_NAMES
    action_space = ACTION_SPACE

    def __init__(self, config: AxiConfig | None = None):
        self.config = config or AxiConfig()

    def step(self, action: Action, seed: int) -> tuple[int, ...]:
        addr_range = decode_action(action, self.config)
        counts, trace = simulate_step(self.config, addr_range, env.stimulus_rng(seed))
        golden_check(trace, counts, self.config)
        return counts
