"""Episodes, the design-model contract, and the campaign loop.

An episode is a pure function of its seed and its action, as in a bandit:
the agent picks knob values once, the design model expands them into
stimulus from the seed's random stream and simulates it, and the episode
ends. An episode is one call, ``Environment.step(action, seed)``: it
validates the action, calls ``dut.step(action, seed)``, and returns the
per-event counts and the multiplier-weighted reward. It is the one gate
for a design's counts: each must be a Python or numpy integer, and a
float or a bool is refused with ``TypeError``. The environment keeps
no state between calls, so a repeated or retried step replays the episode.

A design with a ``lookahead`` (a bridged one) is told of episodes before
their turn: ``run_campaign`` seeds, proposes and hints up to that many
episodes ahead of the one it steps, so the design can start on them while
the agent works. It never looks past the agent's next policy update, so
every proposal is the one a one-at-a-time loop would draw. An in-process
design (``lookahead`` 0) is never hinted and sees each episode's seed,
proposal, step and observation in turn.

Seeding is split so any episode can be replayed in isolation:

* ``episode_seed(campaign_seed, i)`` derives episode i's seed;
* ``stimulus_rng(seed)`` builds the stream the design model draws from,
  inside its ``step``.

Both run numpy's ``SeedSequence`` hash, which costs 10–20 µs when taken
one seed at a time. So seeds are derived 256 episodes at a time: one
vectorised pass of the hash gives a block's episode seeds and, for each,
the four words ``PCG64(seed)`` would derive from it.
``stimulus_rng`` builds the stream from those cached words when the seed
came from one of the two newest blocks, and from the seed itself
otherwise; either way it is the stream of ``np.random.default_rng(seed)``.

A bridged design receives the same seed over the wire and builds the
identical stream on its side, which is what makes in-process and bridged
campaigns byte-identical.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import zip_longest
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .actionspace import Action, ActionSpace, is_finite_real, is_integer, validate
from .coverage import CoverageCounts, CumulativeCoverage, EventSpec, compute_reward
from .errors import ScoreboardError

_EPISODE_TAG = 1
_AGENT_TAG = 2


# Seeds are derived a block of episodes at a time. A block starts at a
# multiple of its size, so it never straddles 2**32 or 2**64: every index in
# it has the same number of 32-bit words, and all but the lowest are shared.
_SEED_BLOCK = 256

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


class _SeedBlock(NamedTuple):
    campaign_seed: int
    first: int
    seeds: list[int]  # episode_seed(campaign_seed, first + j)
    rows: dict[int, int]  # seed -> its row of ``states``
    states: np.ndarray  # (_SEED_BLOCK, 4) uint64: SeedSequence(seed).generate_state(4, np.uint64)


# The two most recently derived blocks, newest first. It is only ever
# replaced whole, so a reader needs no lock.
_blocks: tuple[_SeedBlock, ...] = ()


def _uint32_words(n: int) -> list[int]:
    """A non-negative int as SeedSequence reads it: 32-bit words, least significant first."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


@lru_cache(maxsize=16)
def _hash_consts(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The first n (xor, multiplier) pairs of a SeedSequence hash, as uint32 columns."""
    xors, mults, k = [], [], init
    for _ in range(n):
        xors.append(k)
        k = k * mult & _MASK32
        mults.append(k)
    return np.array(xors, np.uint32)[:, None], np.array(mults, np.uint32)[:, None]


def _hashmix(value, xors, mults):
    value = (value ^ xors) * mults
    value ^= value >> 16
    return value


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    result ^= result >> 16
    return result


def _generate_state(entropy: list, lanes: int, n_words: int) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(n_words, np.uint64)`` for many entropies at once.

    ``entropy`` lists uint32 words; each is an int shared by every lane or a
    uint32 array of one word per lane. Returns an (n_words, lanes) uint64 array.
    """
    n_extra = max(len(entropy) - _POOL_SIZE, 0)
    xors, mults = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE**2 + _POOL_SIZE * n_extra)
    pool = np.zeros((_POOL_SIZE, lanes), np.uint32)
    for i, word in enumerate(entropy[:_POOL_SIZE]):
        pool[i] = word
    pool = _hashmix(pool, xors[:_POOL_SIZE], mults[:_POOL_SIZE])
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        hashed = _hashmix(pool[src], xors[k : k + _POOL_SIZE - 1], mults[k : k + _POOL_SIZE - 1])
        pool[dst] = _mix(pool[dst], hashed)
        k += _POOL_SIZE - 1
    for word in entropy[_POOL_SIZE:]:
        hashed = _hashmix(word, xors[k : k + _POOL_SIZE], mults[k : k + _POOL_SIZE])
        pool = _mix(pool, hashed)
        k += _POOL_SIZE
    xors, mults = _hash_consts(_INIT_B, _MULT_B, 2 * n_words)
    state = _hashmix(pool[np.arange(2 * n_words) % _POOL_SIZE], xors, mults).astype(np.uint64)
    return state[0::2] | state[1::2] << np.uint64(32)


def _seed_block(campaign_seed: int, first: int) -> _SeedBlock:
    """Derive the seeds of episodes ``first`` to ``first + _SEED_BLOCK - 1`` and their PCG64 words."""
    low = first & _MASK32
    high = _uint32_words(first >> 32) if first >> 32 else []
    lows = np.arange(low, low + _SEED_BLOCK, dtype=np.uint32)
    entropy = [*_uint32_words(campaign_seed), _EPISODE_TAG, lows, *high]
    seeds = _generate_state(entropy, _SEED_BLOCK, 1)[0]
    lo = (seeds & np.uint64(_MASK32)).astype(np.uint32)
    hi = (seeds >> np.uint64(32)).astype(np.uint32)
    states = np.ascontiguousarray(_generate_state([lo, hi], _SEED_BLOCK, 4).T)
    seeds = seeds.tolist()
    rows = {seed: row for row, seed in enumerate(seeds)}
    return _SeedBlock(campaign_seed, first, seeds, rows, states)


class _StateWords(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 the four words it would derive from a seed's SeedSequence."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for exactly these: generate_state(4, np.uint64).
        return self.words


def _integer(value, what: str) -> int:
    """``value`` as an int; seeds and counts are Python or numpy integers, never bools or floats."""
    if type(value) is int:  # the common case, and far cheaper than is_integer
        return value
    if not is_integer(value):
        raise TypeError(f"{what} must be an integer, not {value!r}")
    return int(value)


def episode_seed(campaign_seed: int, episode: int) -> int:
    """Counter-based split: a distinct, reconstructible seed per episode.

    Equal to ``SeedSequence((campaign_seed, 1, episode)).generate_state(1,
    np.uint64)[0]``. It is served from the episode's block, which a miss
    derives whole (see ``_SEED_BLOCK``).
    """
    global _blocks
    campaign_seed, episode = _integer(campaign_seed, "campaign seed"), _integer(episode, "episode")
    if campaign_seed < 0 or episode < 0:
        raise ValueError("campaign seed and episode must be non-negative")
    offset = episode % _SEED_BLOCK
    first = episode - offset
    for block in _blocks:
        if block.first == first and block.campaign_seed == campaign_seed:
            return block.seeds[offset]
    block = _seed_block(campaign_seed, first)
    _blocks = (block, *_blocks[:1])
    return block.seeds[offset]


def stimulus_rng(seed: int) -> np.random.Generator:
    """The random stream a design model uses to expand knobs into stimulus.

    It is the stream of ``np.random.default_rng(seed)``, built from a cached
    block's words when the seed came from one.
    """
    seed = _integer(seed, "seed")
    for block in _blocks:
        row = block.rows.get(seed)
        if row is not None:
            return np.random.Generator(np.random.PCG64(_StateWords(block.states[row])))
    return np.random.default_rng(seed)


def agent_rng(campaign_seed: int) -> np.random.Generator:
    """The campaign-wide stream the agent proposes actions from."""
    return np.random.default_rng(
        np.random.SeedSequence((_integer(campaign_seed, "campaign seed"), _AGENT_TAG))
    )


@dataclass(frozen=True)
class StepResult:
    reward: float
    counts: CoverageCounts


@dataclass(frozen=True)
class EpisodeRecord:
    """One logged episode: the unit of the CSV log and of reporting."""

    episode: int
    action: Action
    counts: CoverageCounts
    reward: float


class DutModel(ABC):
    """Behavioral contract any design model (local or bridged) satisfies.

    A design declares its ``event_names`` and ``action_space`` as
    attributes and implements ``step``, which must be a pure function of
    the action and the seed: a design that keeps state resets it at the
    top of ``step``.
    """

    # Names of the tracked events, in id order. Multipliers come from config.
    event_names: tuple[str, ...]
    # The knob space this design is driven from.
    action_space: ActionSpace
    # How many hinted episodes may wait for their step; 0 means none are hinted.
    lookahead = 0

    def hint(self, action: Action, seed: int) -> None:
        """Announce that ``step(action, seed)`` follows, after the steps of earlier hints."""

    def reset(self, seed: int) -> None:
        """Never called by covsteer; kept only because ``bench/tracer.py`` binds it by name."""

    @abstractmethod
    def step(self, action: Action, seed: int) -> CoverageCounts:
        """Expand the action into stimulus from ``stimulus_rng(seed)``, simulate, count events."""


class _Nothing:
    """Stands for the entry past the end of the shorter of two sequences."""

    def __repr__(self) -> str:
        return "nothing"


def check_golden(what: str, step: tuple, golden: tuple) -> None:
    """Raise ``ScoreboardError`` unless a step's ``(counts, output)`` equals its golden model's.

    ``output`` is a dataclass. The message says that ``what`` diverged and
    names the first field that differs, in the dataclass's field order with
    the counts last, and for a sequence the first entry that differs. It
    gives the step's value, then the golden model's.
    """
    if step == golden:
        return
    (counts, output), (golden_counts, golden_output) = step, golden
    pairs = [(f.name, getattr(output, f.name), getattr(golden_output, f.name)) for f in fields(output)]
    pairs.append(("counts", counts, golden_counts))
    field, got, want = next(pair for pair in pairs if pair[1] != pair[2])
    if isinstance(got, Sequence) and isinstance(want, Sequence):
        for i, (a, b) in enumerate(zip_longest(got, want, fillvalue=_Nothing())):
            if a != b:
                field, got, want = f"{field} entry {i}", a, b
                break
    raise ScoreboardError(
        f"{what} diverged from its golden model in {field}: step has {got!r}, golden has {want!r}"
    )


class Environment:
    """Binds a design model to an event/multiplier list and runs its episodes."""

    def __init__(self, dut: DutModel, multipliers: Mapping[str, float] | None = None):
        self.dut = dut
        self.space = dut.action_space
        names = dut.event_names
        mult = dict(multipliers or {})
        unknown = set(mult) - set(names)
        if unknown:
            raise ValueError(f"multipliers name unknown events: {sorted(unknown, key=str)}")
        for name, value in mult.items():
            if not is_finite_real(value):
                raise ValueError(f"multiplier for {name!r} must be a finite number, not {value!r}")
        self.events = tuple(EventSpec(n, float(mult.get(n, 0.0))) for n in names)

    def reset(self, seed: int) -> None:
        """Never called by covsteer; kept only because ``bench/tracer.py`` binds it by name."""

    def hint(self, action: Action, seed: int) -> None:
        """Check an upcoming episode's action and announce it to the design model."""
        validate(self.space, action)
        self.dut.hint(action, seed)

    def step(self, action: Action, seed: int) -> StepResult:
        """Run the episode of this seed with this action; a non-integer count raises TypeError."""
        validate(self.space, action)
        counts = tuple([_integer(c, "count") for c in self.dut.step(action, seed)])
        return StepResult(reward=compute_reward(counts, self.events), counts=counts)


def run_campaign(
    env: Environment,
    agent,
    episodes: int,
    seed: int,
    on_record: Callable[[EpisodeRecord], None] | None = None,
) -> CumulativeCoverage:
    """Run the seed/propose/step/observe loop for a fixed episode count.

    Episodes are seeded and proposed up to the design's lookahead (at least
    one) ahead of the one being stepped, but only as far as
    ``agent.observes_until_update()`` reaches, and always as far as the
    episode being stepped; a design with a lookahead is hinted of each. An
    exception raised while looking ahead is raised on its episode's own
    turn, so the episodes before it are stepped and logged first, as in a
    one-at-a-time loop. ``episodes`` and ``seed`` are integers, not bools
    or floats.

    The record callback fires after every episode, so a partially written
    log survives an abort. Raises whatever the environment or agent raises.
    """
    if _integer(episodes, "episodes") < 1:
        raise ValueError("episodes must be >= 1")
    rng = agent_rng(seed)
    cumulative = CumulativeCoverage.zero(len(env.events))
    hint = env.hint if env.dut.lookahead else None
    window = max(env.dut.lookahead, 1)
    ahead: deque = deque()  # (seed, action, error) of proposed episodes, oldest first
    for ep in range(episodes):
        horizon = min(episodes, ep + window)
        until = agent.observes_until_update()
        if until is not None:
            horizon = min(horizon, ep + max(until, 1))
        for j in range(ep + len(ahead), horizon):
            if ahead and ahead[-1][2] is not None:
                break
            ahead.append(_propose(agent, rng, episode_seed(seed, j), hint))
        ep_seed, action, error = ahead.popleft()
        if error is not None:
            raise error
        result = env.step(action, ep_seed)
        agent.observe(action, result.reward)
        if on_record is not None:
            on_record(EpisodeRecord(ep, action, result.counts, result.reward))
        cumulative = cumulative.merge(result.counts, result.reward)
    return cumulative


def _propose(agent, rng, ep_seed: int, hint) -> tuple:
    try:
        action = agent.propose(rng)
        if hint is not None:
            hint(action, ep_seed)
    except Exception as exc:  # noqa: BLE001 - run_campaign raises it on the episode's turn
        return ep_seed, None, exc
    return ep_seed, action, None
