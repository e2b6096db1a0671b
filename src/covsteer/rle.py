"""Cycle-level model of a run-length-encoding compressor for sparse streams.

The compressor consumes a stream of 8-bit words, one ``bytes`` value per
episode: ``decode_action`` draws it, and the model and its scoreboard read
that same value. Non-zero words are appended to a 16-entry word vector;
runs of zeros are counted in a ``counter`` register and written as
fixed-width count fields into a 64-bit zero-count vector. Four registers
hold the compressor's internal state (they are not reported; an episode
reports event counts only):

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

``rle_run`` is the model: one loop iteration per input word. ``rle_golden``
is the scoreboard, written without a state machine: numpy run lengths of
the zero mask, fields by ``divmod`` with the saturation value, and a
packed bit stream, all over a ``uint8`` view of the words. It derives the
event counts arithmetically from the run lengths and the count fields' bit
positions, and ``RleDut.step`` compares counts and output every episode.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

# Designs call env.stimulus_rng through the module, so a rebinding of it
# (as the benchmark tracer does) reaches every episode.
from . import env
from .actionspace import Action, ActionSpace, KnobSpec
from .coverage import CoverageCounts
from .env import DutModel
from .errors import ScoreboardError

EVENT_NAMES = ("e0_word_full", "e1_zc_full", "e2_counter_mid", "e3_partial_count")

WORD_CAPACITY = 16
ZC_CAPACITY_BITS = 64
MAX_WORD = 255
COUNT_WIDTHS = range(1, 9)

# Knobs: probability of a zero word, count field width, stimulus length.
ACTION_SPACE = ActionSpace(
    knobs=(
        KnobSpec.continuous("zero_prob", 0.0, 1.0),
        KnobSpec.discrete("count_width", COUNT_WIDTHS),
        KnobSpec.discrete("seq_length", range(100, 1001, 100)),
    )
)


@dataclass(frozen=True)
class RleConfig:
    count_width: int

    def __post_init__(self):
        if self.count_width not in COUNT_WIDTHS:
            lo, hi = COUNT_WIDTHS[0], COUNT_WIDTHS[-1]
            raise ValueError(f"count_width must be in {lo}..{hi}, got {self.count_width}")


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


def decode_action(action: Action, rng: np.random.Generator) -> tuple[RleConfig, bytes]:
    """Expand (zero_prob, count_width, seq_length) into the episode's config and words.

    Each word is 0 with probability zero_prob, otherwise uniform on
    [1, 255]; the words are one byte each.
    """
    zero_prob, count_width, seq_length = action.values
    n = int(seq_length)
    zero_mask = rng.random(n) < zero_prob
    words = rng.integers(1, MAX_WORD + 1, size=n)
    words[zero_mask] = 0
    return RleConfig(int(count_width)), words.astype(np.uint8).tobytes()


def rle_run(config: RleConfig, words: bytes) -> tuple[CoverageCounts, RleOutput]:
    """Fold the compressor over the words, one word per cycle.

    ``layout`` records the emission order of count fields ('C') and stored
    words ('W'); block content alone does not pin down how zero runs
    interleave with words, so decoding the output needs it. There is no
    end-of-input flush: a partial word vector, partial zero-count vector,
    and a non-zero counter all stay in the output's tail.
    """
    cw = config.count_width
    cap = ZC_CAPACITY_BITS
    saturation = (1 << cw) - 1
    # Width 1 has no midpoint; the counter is at least 1 when compared.
    mid = 1 << (cw - 2) if cw >= 2 else 0
    word_vec: list[int] = []
    zc_bits = zc_used = counter = 0
    word_blocks: list[tuple[int, ...]] = []
    zc_blocks: list[int] = []
    layout: list[str] = []
    emit = layout.append
    e0 = e1 = e2 = e3 = 0
    for word in words:
        if word == 0:
            counter += 1
            if counter == mid:
                e2 += 1
            if counter < saturation:
                continue
        # A saturated counter, or a word after a zero run, writes the
        # counter as one count field, low bits first.
        if counter:
            emit("C")
            free = cap - zc_used
            if free > cw:
                zc_bits |= counter << zc_used
                zc_used += cw
            else:
                # The field fills the vector: flush it, and start the next
                # one with the high bits that did not fit (the next count).
                zc_blocks.append(zc_bits | (counter & ((1 << free) - 1)) << zc_used)
                zc_bits = counter >> free
                zc_used = cw - free
                e1 += 1
                if zc_used:
                    e3 += 1
            counter = 0
        if word:
            word_vec.append(word)
            emit("W")
            if len(word_vec) == WORD_CAPACITY:
                e0 += 1
                word_blocks.append(tuple(word_vec))
                word_vec = []
    return (e0, e1, e2, e3), RleOutput(
        word_blocks=tuple(word_blocks),
        zc_blocks=tuple(zc_blocks),
        layout="".join(layout),
        tail_words=tuple(word_vec),
        tail_zc_bits=zc_bits,
        tail_zc_used=zc_used,
        tail_counter=counter,
    )


def rle_golden(config: RleConfig, words: bytes) -> tuple[CoverageCounts, RleOutput]:
    """Reference compressor: numpy run lengths instead of a state machine.

    Views the words as a ``uint8`` array, finds the maximal zero runs from
    the edges of the zero mask, and splits each run into saturated fields and
    a remainder with ``divmod`` by the saturation value. A saturated field is
    written at the zero that saturates it, a remainder at the word ending its
    run (a trailing remainder is the tail counter), so each input position
    emits at most one field and then at most one word; the layout and the
    field order follow from those positions. The fields' bit stream is packed
    into 64-bit blocks with ``np.packbits``. The event counts come from
    arithmetic over the run lengths and the fields' absolute bit positions.
    Produces counts and output identical to ``rle_run``.
    """
    cw = config.count_width
    cap = ZC_CAPACITY_BITS
    saturation = (1 << cw) - 1
    seq = np.frombuffer(words, np.uint8)
    n = len(seq)
    # The zero mask, padded with a non-zero on each side so that every zero
    # run has a rising and a falling edge.
    padded = np.zeros(n + 2, dtype=bool)
    np.equal(seq, 0, out=padded[1:-1])
    edges = np.diff(padded).nonzero()[0]
    starts, ends = edges[0::2], edges[1::2]
    full, rem = np.divmod(ends - starts, saturation)

    # A run's saturated fields are written at every `saturation`-th zero,
    # the last one just before its remainder; the remainder is written at
    # the word that ends the run, or stays in the counter at the end.
    last = full.cumsum()
    n_full = int(last[-1]) if len(last) else 0
    # count_width <= 8, so every field fits the uint8 that unpackbits reads.
    field_at = np.zeros(n, dtype=np.uint8)
    field_at[
        (ends - rem - 1 - saturation * last).repeat(full)
        + np.arange(saturation, saturation * n_full + 1, saturation)
    ] = saturation
    trailing = len(ends) > 0 and ends[-1] == n
    tail_counter = int(rem[-1]) if trailing else 0
    closed = slice(None, -1) if trailing else slice(None)
    field_at[ends[closed]] = rem[closed]

    # Each position writes at most one field, then at most one word, so a
    # word's place in the layout is its index among the words plus the
    # number of fields written at or before its position.
    field_pos = field_at.nonzero()[0]
    word_pos = (~padded[1:-1]).nonzero()[0]
    fields = field_at[field_pos]
    stored = seq[word_pos]
    tokens = np.full(len(field_pos) + len(word_pos), ord("C"), dtype=np.uint8)
    word_index = field_pos.searchsorted(word_pos, "right") + np.arange(len(word_pos))
    tokens[word_index] = ord("W")

    n_blocks, n_tail = divmod(len(stored), WORD_CAPACITY)
    split = len(stored) - n_tail
    word_blocks = stored[:split].reshape(n_blocks, WORD_CAPACITY).tolist()

    # Field k holds stream bits [k * cw, (k + 1) * cw), low bits first, and
    # zero-count block b holds stream bits [64 b, 64 b + 64).
    field_bits = len(fields) * cw
    n_zc, tail_used = divmod(field_bits, cap)
    stream = np.zeros(-(-field_bits // cap) * cap, dtype=np.uint8)
    stream[:field_bits] = np.unpackbits(
        fields[:, None], axis=1, count=cw, bitorder="little"
    ).ravel()
    blocks = np.packbits(stream, bitorder="little").view("<u8").tolist()

    # A vector fills at every 64-bit boundary of the stream, and a field
    # straddles each boundary below its end that count_width does not
    # divide, that is all but every (cw / gcd(cw, 64))-th one.
    boundaries = max(field_bits - 1, 0) // cap
    counts = (
        n_blocks,
        n_zc,
        # The counter passes 2**(cw - 2) once per saturation and once more
        # in a remainder that reaches it; width 1 has no midpoint.
        n_full + int(np.count_nonzero(rem >= 1 << (cw - 2))) if cw >= 2 else 0,
        boundaries - boundaries // (cw // gcd(cw, cap)),
    )
    return counts, RleOutput(
        word_blocks=tuple(map(tuple, word_blocks)),
        zc_blocks=tuple(blocks[:n_zc]),
        layout=tokens.tobytes().decode("ascii"),
        tail_words=tuple(stored[split:].tolist()),
        tail_zc_bits=blocks[n_zc] if tail_used else 0,
        tail_zc_used=tail_used,
        tail_counter=tail_counter,
    )


class RleDut(DutModel):
    """Compressor wrapped in the design-model contract, with a built-in scoreboard.

    Every step re-encodes the stimulus with the golden reference and
    raises ScoreboardError on any output or event-count mismatch. Every
    step also starts a fresh compressor, so there is nothing to reset.
    """

    def step(self, action: Action, seed: int) -> CoverageCounts:
        config, words = decode_action(action, env.stimulus_rng(seed))
        counts, output = rle_run(config, words)
        golden_counts, golden_output = rle_golden(config, words)
        if golden_output != output:
            raise ScoreboardError(
                f"compressor output diverged from golden model for "
                f"count_width={config.count_width}, length={len(words)}"
            )
        if golden_counts != counts:
            raise ScoreboardError(
                f"event counts {counts} diverged from golden {golden_counts} for "
                f"count_width={config.count_width}, length={len(words)}"
            )
        return counts

    def event_names(self):
        return EVENT_NAMES

    def action_space(self):
        return ACTION_SPACE
