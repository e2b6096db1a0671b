"""Cycle-level model of a run-length-encoding compressor for sparse streams.

The compressor consumes a stream of non-negative words. Non-zero words
are appended to a 16-entry word vector; runs of zeros are counted in a
``counter`` register and written as fixed-width count fields into a 64-bit
zero-count vector. Four registers hold the compressor's internal state
(they are not reported; an episode reports event counts only):

* word counter     -- occupancy of the word vector,
* zero counter     -- bits consumed in the zero-count vector,
* counter          -- length of the current zero run,
* next count       -- carry bits of a count field split across vectors.

Behavior of one input word:

* ``word == 0``: the counter increments; when it reaches its maximum
  representable value ``2**count_width - 1`` the count is written out and
  the counter clears.
* ``word != 0``: a pending non-zero counter is written out first, then the
  word is appended; a 16th word flushes the word vector as a block.

Writing a count appends a ``count_width``-bit field to the zero-count
vector, low bits first. When fewer than ``count_width`` bits remain in the
vector, the low bits fill it, the high bits carry into the next-count
register, and the fresh vector starts with those carried bits. A field can
therefore straddle the 64-bit boundary only when ``count_width`` does not
divide 64.

Tracked events:

* ``e0_word_full``     -- word vector reached 16 entries (block flush),
* ``e1_zc_full``       -- zero-count vector reached 64 bits (block flush),
* ``e2_counter_mid``   -- counter reached ``2**(count_width - 2)``
  (undefined for count_width 1, where it never fires),
* ``e3_partial_count`` -- a count field straddled the vector boundary.

``rle_golden`` recomputes the emitted output run-by-run with independent
code structure, and the event counts arithmetically from the zero runs and
the count fields' bit positions; the model's ``step`` compares both against
it every episode.
``rle_decompress`` inverts the emitted output back to the input sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import not_

import numpy as np

from .actionspace import Action, ActionSpace, KnobSpec
from .coverage import CoverageCounts
from .env import DutModel
from .errors import BlockFormatError, ScoreboardError

EVENT_NAMES = ("e0_word_full", "e1_zc_full", "e2_counter_mid", "e3_partial_count")

WORD_CAPACITY = 16
ZC_CAPACITY_BITS = 64
MAX_WORD = 255

# Knobs: probability of a zero word, count field width, stimulus length.
ACTION_SPACE = ActionSpace(
    knobs=(
        KnobSpec.continuous("zero_prob", 0.0, 1.0),
        KnobSpec.discrete("count_width", range(1, 9)),
        KnobSpec.discrete("seq_length", range(100, 1001, 100)),
    )
)


@dataclass(frozen=True)
class RleConfig:
    count_width: int

    def __post_init__(self):
        if not 1 <= self.count_width <= 8:
            raise ValueError(f"count_width must be in 1..8, got {self.count_width}")


@dataclass
class RleState:
    """Mutable compressor state, including everything emitted so far.

    ``layout`` records the emission order of count fields ('C') and stored
    words ('W'); block content alone does not pin down how zero runs
    interleave with words, so the decompressor needs it.
    """

    word_vec: list[int] = field(default_factory=list)
    zc_bits: int = 0
    zc_bits_used: int = 0
    counter: int = 0
    next_count: int = 0
    next_count_width: int = 0
    word_blocks: list[tuple[int, ...]] = field(default_factory=list)
    zc_blocks: list[int] = field(default_factory=list)
    layout: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class RleOutput:
    """Everything the compressor emitted plus the residual (unflushed) state."""

    word_blocks: tuple[tuple[int, ...], ...]
    zc_blocks: tuple[int, ...]
    layout: str
    tail_words: tuple[int, ...]
    tail_zc_bits: int
    tail_zc_used: int
    tail_counter: int


@dataclass(frozen=True)
class RleStimulus:
    sequence: tuple[int, ...]
    count_width: int


def decode_action(action: Action, rng: np.random.Generator) -> RleStimulus:
    """Expand (zero_prob, count_width, seq_length) into a concrete word stream.

    Each word is 0 with probability zero_prob, otherwise uniform on
    [1, 255].
    """
    zero_prob, count_width, seq_length = action.values
    n = int(seq_length)
    zero_mask = rng.random(n) < zero_prob
    words = rng.integers(1, MAX_WORD + 1, size=n)
    seq = np.where(zero_mask, 0, words)
    return RleStimulus(sequence=tuple(seq.tolist()), count_width=int(count_width))


def _emit_count(state: RleState, config: RleConfig) -> tuple[int, int]:
    """Write the counter as one count field; returns (e1, e3) increments."""
    value = state.counter
    cw = config.count_width
    cap = ZC_CAPACITY_BITS
    e1 = e3 = 0
    state.layout.append("C")
    remaining = cap - state.zc_bits_used
    if remaining >= cw:
        state.zc_bits |= value << state.zc_bits_used
        state.zc_bits_used += cw
    else:
        # Low bits complete the current vector; high bits carry over.
        state.zc_bits |= (value & ((1 << remaining) - 1)) << state.zc_bits_used
        state.next_count = value >> remaining
        state.next_count_width = cw - remaining
        state.zc_bits_used = cap
        e3 = 1
    if state.zc_bits_used == cap:
        e1 = 1
        state.zc_blocks.append(state.zc_bits)
        state.zc_bits = 0
        state.zc_bits_used = 0
        if state.next_count_width:
            state.zc_bits = state.next_count
            state.zc_bits_used = state.next_count_width
            state.next_count = 0
            state.next_count_width = 0
    return e1, e3


def rle_step(state: RleState, config: RleConfig, word: int) -> tuple[int, int, int, int]:
    """Drive one word into the compressor; returns per-event increments."""
    if word < 0:
        raise ValueError("words must be non-negative")
    cw = config.count_width
    e0 = e1 = e2 = e3 = 0
    if word == 0:
        state.counter += 1
        if cw >= 2 and state.counter == 1 << (cw - 2):
            e2 = 1
        if state.counter == (1 << cw) - 1:
            e1, e3 = _emit_count(state, config)
            state.counter = 0
    else:
        if state.counter > 0:
            e1, e3 = _emit_count(state, config)
            state.counter = 0
        state.word_vec.append(word)
        state.layout.append("W")
        if len(state.word_vec) == WORD_CAPACITY:
            e0 = 1
            state.word_blocks.append(tuple(state.word_vec))
            state.word_vec.clear()
    return e0, e1, e2, e3


def _output_from_state(state: RleState) -> RleOutput:
    return RleOutput(
        word_blocks=tuple(state.word_blocks),
        zc_blocks=tuple(state.zc_blocks),
        layout="".join(state.layout),
        tail_words=tuple(state.word_vec),
        tail_zc_bits=state.zc_bits,
        tail_zc_used=state.zc_bits_used,
        tail_counter=state.counter,
    )


def rle_run(config: RleConfig, sequence) -> tuple[CoverageCounts, RleOutput]:
    """Fold the compressor over a word sequence.

    There is no end-of-input flush: a partial word vector, partial
    zero-count vector, and a non-zero counter all stay in the output's tail.
    """
    state = RleState()
    c0 = c1 = c2 = c3 = 0
    for word in sequence:
        e0, e1, e2, e3 = rle_step(state, config, word)
        c0 += e0
        c1 += e1
        c2 += e2
        c3 += e3
    return (c0, c1, c2, c3), _output_from_state(state)


def rle_golden(config: RleConfig, sequence) -> tuple[CoverageCounts, RleOutput]:
    """Reference compressor: run-oriented arithmetic instead of a state machine.

    Splits the input into maximal zero runs and words, derives every count
    field per run in one shot, and packs fields with a streaming shifter.
    The event counts come from arithmetic over the run lengths and the
    fields' absolute bit positions. Produces counts and output identical to
    ``rle_run``.
    """
    cw = config.count_width
    saturation = (1 << cw) - 1
    # The counter passes 2**(cw - 2) once per saturation and once more in a
    # remainder that reaches it; width 1 has no midpoint.
    mid = 1 << (cw - 2) if cw >= 2 else None
    cap = ZC_CAPACITY_BITS

    fields: list[int] = []
    words: list[int] = []
    layout: list[str] = []
    e2 = 0
    pending_rem = 0
    # not_ tells zero words from the rest without a Python-level call per word.
    for is_zero, group in groupby(sequence, key=not_):
        if is_zero:
            run = len(list(group))
            full, pending_rem = divmod(run, saturation)
            fields.extend([saturation] * full)
            layout.append("C" * full)
            if mid is not None:
                e2 += full + (pending_rem >= mid)
        else:
            for w in group:
                if pending_rem:
                    fields.append(pending_rem)
                    layout.append("C")
                    pending_rem = 0
                words.append(w)
                layout.append("W")
    tail_counter = pending_rem

    word_blocks = tuple(
        tuple(words[i : i + WORD_CAPACITY])
        for i in range(0, len(words) - WORD_CAPACITY + 1, WORD_CAPACITY)
    )
    tail_words = tuple(words[len(word_blocks) * WORD_CAPACITY :])

    zc_blocks: list[int] = []
    buf = 0
    used = 0
    mask = (1 << cap) - 1
    for v in fields:
        buf |= (v << used) & mask
        new_used = used + cw
        if new_used >= cap:
            zc_blocks.append(buf)
            buf = v >> (cap - used)
            used = new_used - cap
        else:
            used = new_used

    # Fields fill the zero-count vectors back to back, so a vector fills at
    # every 64-bit boundary and a field straddles each boundary inside it.
    field_bits = len(fields) * cw
    counts = (
        len(words) // WORD_CAPACITY,
        field_bits // cap,
        e2,
        sum(1 for boundary in range(cap, field_bits, cap) if boundary % cw),
    )
    return counts, RleOutput(
        word_blocks=word_blocks,
        zc_blocks=tuple(zc_blocks),
        layout="".join(layout),
        tail_words=tail_words,
        tail_zc_bits=buf,
        tail_zc_used=used,
        tail_counter=tail_counter,
    )


def rle_decompress(output: RleOutput, config: RleConfig) -> tuple[int, ...]:
    """Invert compressor output back into the original word sequence.

    Count fields are read sequentially across block boundaries, which
    reassembles straddled fields from the low bits at the end of one block
    and the carried high bits at the start of the next. Raises
    BlockFormatError when the emitted data is internally inconsistent.
    """
    cw = config.count_width
    cap = ZC_CAPACITY_BITS
    words = [w for block in output.word_blocks for w in block]
    words.extend(output.tail_words)

    n_fields = output.layout.count("C")
    total_bits = cap * len(output.zc_blocks) + output.tail_zc_used
    if n_fields * cw != total_bits:
        raise BlockFormatError(
            f"{n_fields} fields of {cw} bits cannot occupy {total_bits} emitted bits"
        )

    def block_bits(i: int) -> tuple[int, int]:
        if i < len(output.zc_blocks):
            return output.zc_blocks[i], cap
        if i == len(output.zc_blocks):
            return output.tail_zc_bits, output.tail_zc_used
        raise BlockFormatError("count field extends past emitted data")

    def read_field(k: int) -> int:
        pos = k * cw
        b, off = divmod(pos, cap)
        bits, width = block_bits(b)
        avail = width - off
        if avail <= 0:
            raise BlockFormatError("count field extends past emitted data")
        value = (bits >> off) & ((1 << min(cw, avail)) - 1)
        if avail < cw:
            hi_bits, hi_width = block_bits(b + 1)
            need = cw - avail
            if hi_width < need:
                raise BlockFormatError("straddled count field has no continuation")
            value |= (hi_bits & ((1 << need) - 1)) << avail
        return value

    seq: list[int] = []
    wi = 0
    fi = 0
    for token in output.layout:
        if token == "W":
            if wi >= len(words):
                raise BlockFormatError("layout references more words than emitted")
            seq.append(words[wi])
            wi += 1
        elif token == "C":
            value = read_field(fi)
            fi += 1
            if value == 0:
                raise BlockFormatError("zero-valued count field")
            seq.extend([0] * value)
        else:
            raise BlockFormatError(f"unknown layout token {token!r}")
    if wi != len(words):
        raise BlockFormatError("emitted words not fully consumed by layout")
    seq.extend([0] * output.tail_counter)
    return tuple(seq)


class RleDut(DutModel):
    """Compressor wrapped in the design-model contract, with a built-in scoreboard.

    Every step re-encodes the stimulus with the golden reference and
    raises ScoreboardError on any output or event-count mismatch. Every
    step also starts a fresh compressor, so there is nothing to reset.
    """

    def step(self, action: Action, rng: np.random.Generator) -> CoverageCounts:
        stim = decode_action(action, rng)
        config = RleConfig(count_width=stim.count_width)
        counts, output = rle_run(config, stim.sequence)
        golden_counts, golden_output = rle_golden(config, stim.sequence)
        if golden_output != output:
            raise ScoreboardError(
                f"compressor output diverged from golden model for "
                f"count_width={stim.count_width}, length={len(stim.sequence)}"
            )
        if golden_counts != counts:
            raise ScoreboardError(
                f"event counts {counts} diverged from golden {golden_counts} for "
                f"count_width={stim.count_width}, length={len(stim.sequence)}"
            )
        return counts

    def event_names(self):
        return EVENT_NAMES

    def action_space(self):
        return ACTION_SPACE
