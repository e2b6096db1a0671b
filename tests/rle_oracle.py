"""A bit-exact decompressor for the ``rle`` model's output, used as a test oracle.

No run calls it: ``RleDut.step``'s scoreboard is ``rle_golden``. The tests
use it to check that the stored words, field marks, zero-count blocks and
tail registers carry the whole input.
"""

from __future__ import annotations

from covsteer.errors import CovsteerError
from covsteer.rle import ZC_CAPACITY_BITS, RleOutput


class BlockFormatError(CovsteerError):
    """Compressed block data cannot be decoded back to the words."""


def rle_decompress(output: RleOutput, count_width: int) -> bytes:
    """Invert compressor output back into the original words.

    Count field k expands to its zero run after the first
    ``field_marks[k]`` stored words. Fields are read sequentially across
    block boundaries, which reassembles straddled fields from the low bits
    at the end of one block and the carried high bits at the start of the
    next. Raises BlockFormatError when the emitted data is internally
    inconsistent.
    """
    cw = count_width
    cap = ZC_CAPACITY_BITS
    stored = output.stored

    n_fields = len(output.field_marks)
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

    seq = bytearray()
    done = 0
    for k, mark in enumerate(output.field_marks):
        if mark < done:
            raise BlockFormatError(f"field mark {mark} follows mark {done}")
        if mark > len(stored):
            raise BlockFormatError(f"field mark {mark} is past the {len(stored)} stored words")
        value = read_field(k)
        if value == 0:
            raise BlockFormatError("zero-valued count field")
        seq += stored[done:mark] + bytes(value)
        done = mark
    return bytes(seq + stored[done:] + bytes(output.tail_counter))
