import hashlib
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covsteer.actionspace import sample_uniform
from covsteer.agents import RandomAgent
from covsteer.env import Environment, run_campaign
from covsteer.errors import ScoreboardError
from covsteer.rle import (
    ACTION_SPACE,
    EVENT_NAMES,
    RleConfig,
    RleDut,
    RleOutput,
    decode_action,
    rle_golden,
    rle_run,
)

from conftest import corrupt, exec_mutant
from rle_oracle import BlockFormatError, rle_decompress

DIVISORS = (1, 2, 4, 8)
NON_DIVISORS = (3, 5, 6, 7)


def golden_error(count_width, length, field, got, want):
    """The pattern of the ScoreboardError that names ``field`` with the step's and golden values."""
    return re.escape(
        f"compressor at count_width={count_width}, length={length} diverged from its golden "
        f"model in {field}: step has {got}, golden has {want}"
    )


def random_sequence(rng, max_len=300):
    n = int(rng.integers(0, max_len))
    p = float(rng.random())
    return np.where(rng.random(n) < p, 0, rng.integers(1, 256, size=n)).astype(np.uint8).tobytes()


class TestDecodeAction:
    def test_zero_probability_means_all_nonzero(self):
        config, words = decode_action((0.0, 4, 100), np.random.default_rng(0))
        assert len(words) == 100
        assert all(1 <= w <= 255 for w in words)
        assert config == RleConfig(4)

    def test_probability_one_means_all_zero(self):
        _, words = decode_action((1.0, 4, 100), np.random.default_rng(0))
        assert words == bytes(100)

    def test_zero_fraction_statistics(self):
        # Single episode: zero fraction of a 300-word draw at p=0.4 stays in
        # [0.3, 0.5] (>5 sigma band). Averaged over 10k seeds the fraction
        # estimates p within +/-0.01.
        fractions = []
        for seed in range(10_000):
            _, words = decode_action((0.4, 6, 300), np.random.default_rng(seed))
            fractions.append(words.count(0) / 300)
        assert 0.3 <= fractions[0] <= 0.5
        assert abs(np.mean(fractions) - 0.4) <= 0.01

    def test_deterministic_given_seed(self):
        a = decode_action((0.4, 6, 300), np.random.default_rng(5))
        b = decode_action((0.4, 6, 300), np.random.default_rng(5))
        assert isinstance(a[1], bytes)
        assert a == b


class TestStepSemantics:
    def test_three_zeros_then_word(self):
        counts, out = rle_run(RleConfig(3), bytes([0, 0, 0, 5]))
        assert out.field_marks == (0,)
        assert out.stored == bytes([5])
        assert out.tail_zc_bits == 3  # one 3-bit field holding the value 3
        assert out.tail_zc_used == 3
        assert counts == (0, 0, 1, 0)  # counter crossed 2^(3-2)=2 once

    def test_straddle_at_eleventh_saturation(self):
        # count_width 6: 693 zeros saturate the counter 11 times; fields
        # 1..10 use 60 bits, field 11 splits 4/2 across the 64-bit boundary.
        counts, out = rle_run(RleConfig(6), bytes(693))
        e0, e1, e2, e3 = counts
        assert (e1, e3) == (1, 1)
        assert len(out.zc_blocks) == 1
        assert out.tail_zc_used == 2

    def test_empty_sequence(self):
        counts, out = rle_run(RleConfig(5), b"")
        assert counts == (0, 0, 0, 0)
        assert out.stored == b"" and out.zc_blocks == ()
        assert out.field_marks == ()

    def test_no_zeros_no_count_fields(self):
        counts, out = rle_run(RleConfig(4), bytes([1, 2]))
        assert out.stored == bytes([1, 2])
        assert out.field_marks == ()
        assert out.tail_zc_used == 0

    def test_word_block_flush_at_16(self):
        counts, out = rle_run(RleConfig(4), bytes(range(1, 18)))
        assert counts[0] == 1
        assert out.stored == bytes(range(1, 18))

    def test_count_width_one_saturates_every_zero(self):
        counts, out = rle_run(RleConfig(1), bytes(64))
        # each zero saturates immediately: 64 one-bit fields fill one block
        assert counts == (0, 1, 0, 0)
        assert out.zc_blocks == ((1 << 64) - 1,)

    def test_counter_never_reaches_saturation_value(self):
        cw = 3
        seq = bytes(100) + bytes(range(1, 41))
        for end in range(len(seq) + 1):
            counts, out = rle_run(RleConfig(cw), seq[:end])
            assert out.tail_counter < (1 << cw) - 1
            assert out.tail_zc_used < 64
            assert counts[0] == len(out.stored) // 16

    def test_output_pinned_over_fixed_episodes(self):
        # sha256 of rle_run's counts and output over 100 uniform episodes and
        # 100 at the action CEM converges to, recorded when the output still
        # held word blocks and a C/W layout string (a mark is the number of W
        # before its C), so the two forms are the same output.
        rng = np.random.default_rng(24)
        actions = [sample_uniform(ACTION_SPACE, rng) for _ in range(100)]
        actions += [(0.5, 7, 1000)] * 100
        digest = hashlib.sha256()
        for seed, action in enumerate(actions):
            config, words = decode_action(action, np.random.default_rng(seed))
            counts, out = rle_run(config, words)
            assert rle_golden(config, words) == (counts, out)
            digest.update(repr((counts, out.stored, out.field_marks, out.zc_blocks,
                                out.tail_zc_bits, out.tail_zc_used, out.tail_counter)).encode())
        assert digest.hexdigest() == (
            "0ed5f6712721b94a5f43943ed51864dc5c4a96f6a7578f15fdb043f2e5555c92"
        )

    def test_event_counts_match_arithmetic_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(400):
            cw = int(rng.integers(1, 9))
            seq = random_sequence(rng)
            counts, _ = rle_run(RleConfig(cw), seq)
            assert counts == rle_golden(RleConfig(cw), seq)[0], (cw, seq)


class TestDivisorProperty:
    @pytest.mark.parametrize("cw", DIVISORS)
    def test_divisor_widths_never_straddle(self, cw):
        rng = np.random.default_rng(cw)
        for _ in range(1000):
            seq = random_sequence(rng)
            counts, _ = rle_run(RleConfig(cw), seq)
            assert counts[3] == 0

    @pytest.mark.parametrize("cw", NON_DIVISORS)
    def test_non_divisor_widths_straddle_on_long_zero_runs(self, cw):
        length = 2 * 64 * ((1 << cw) - 1) // cw
        counts, _ = rle_run(RleConfig(cw), bytes(length))
        assert counts[3] >= 1

    def test_campaign_partition_by_count_width(self):
        env = Environment(RleDut(), {"e3_partial_count": 1.0})
        records = []
        run_campaign(env, RandomAgent(env.space), 1000, seed=21, on_record=records.append)
        for rec in records:
            cw = int(rec.action[1])
            if cw in DIVISORS:
                assert rec.counts[3] == 0, (cw, rec.counts)
        hit = {int(r.action[1]) for r in records if r.counts[3] > 0}
        assert hit <= set(NON_DIVISORS)
        assert hit  # straddles do occur


class TestGoldenAndRoundtrip:
    def test_fixed_batch_differential(self):
        rng = np.random.default_rng(100)
        for _ in range(1500):
            cw = int(rng.integers(1, 9))
            seq = random_sequence(rng)
            cfg = RleConfig(cw)
            counts, out = rle_run(cfg, seq)
            assert rle_golden(cfg, seq) == (counts, out)
            assert rle_decompress(out, cfg) == seq

    @given(
        st.integers(1, 8),
        st.binary(max_size=400),
    )
    @settings(max_examples=200)
    def test_property_golden_matches_and_roundtrips(self, cw, seq):
        cfg = RleConfig(cw)
        counts, out = rle_run(cfg, seq)
        assert rle_golden(cfg, seq) == (counts, out)
        assert rle_decompress(out, cfg) == seq

    @pytest.mark.parametrize("cw", range(1, 9))
    @given(
        runs=st.lists(st.tuples(st.integers(0, 600), st.integers(1, 255)), max_size=12),
        trailing=st.integers(0, 600),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_zero_run_heavy_golden_matches_and_roundtrips(self, cw, runs, trailing):
        seq = b"".join(bytes(zeros) + bytes([word]) for zeros, word in runs) + bytes(trailing)
        cfg = RleConfig(cw)
        counts, out = rle_run(cfg, seq)
        assert rle_golden(cfg, seq) == (counts, out)
        assert rle_decompress(out, cfg) == seq

    @pytest.mark.parametrize(
        "cw, seq, tail_counter, tail_zc_used",
        [
            (5, [], 0, 0),
            # a trailing run of exactly two saturations leaves the counter empty
            (3, [5] + [0] * 14, 0, 6),
            # sixteen 4-bit fields fill the vector exactly
            (4, [0] * 15 * 16 + [9], 0, 0),
            # width 1 has no midpoint and saturates on every zero
            (1, [0] * 70 + [3, 0, 0], 0, 72 - 64),
            # a straddled field, a word block and a trailing run
            (7, [0] * 1300 + list(range(1, 20)) + [0] * 5, 5, 77 - 64),
        ],
    )
    def test_pinned_golden_cases(self, cw, seq, tail_counter, tail_zc_used):
        seq = bytes(seq)
        cfg = RleConfig(cw)
        counts, out = rle_golden(cfg, seq)
        assert (counts, out) == rle_run(cfg, seq)
        assert (out.tail_counter, out.tail_zc_used) == (tail_counter, tail_zc_used)
        assert rle_decompress(out, cfg) == seq

    def test_all_nonzero_roundtrip_is_identity(self):
        cfg = RleConfig(6)
        seq = bytes(range(1, 41))
        _, out = rle_run(cfg, seq)
        assert rle_decompress(out, cfg) == seq

    def test_straddle_case_roundtrips(self):
        cfg = RleConfig(6)
        seq = bytes(693) + bytes([9])
        _, out = rle_run(cfg, seq)
        assert rle_decompress(out, cfg) == seq

    def test_e1_monotone_in_all_zero_length(self):
        cfg = RleConfig(5)
        previous = 0
        for n in range(0, 4000, 250):
            counts, _ = rle_run(cfg, bytes(n))
            assert counts[1] >= previous
            previous = counts[1]


class TestDecompressValidation:
    def make_output(self, cw=6, seq=(0, 0, 0, 7, 7)):
        cfg = RleConfig(cw)
        _, out = rle_run(cfg, bytes(seq))
        return cfg, out

    def test_missing_field_mark_detected(self):
        cfg, out = self.make_output()
        broken = out.__class__(**{**out.__dict__, "field_marks": ()})
        with pytest.raises(BlockFormatError, match="cannot occupy"):
            rle_decompress(broken, cfg)

    def test_extra_field_mark_detected(self):
        cfg, out = self.make_output()
        broken = out.__class__(**{**out.__dict__, "field_marks": out.field_marks + (2,)})
        with pytest.raises(BlockFormatError, match="cannot occupy"):
            rle_decompress(broken, cfg)

    def test_marks_out_of_order_detected(self):
        cfg, out = self.make_output(seq=(7, 0, 0, 7, 0, 7))
        assert out.field_marks == (1, 2)
        broken = out.__class__(**{**out.__dict__, "field_marks": (2, 1)})
        with pytest.raises(BlockFormatError, match="follows mark"):
            rle_decompress(broken, cfg)

    def test_mark_past_stored_words_detected(self):
        cfg, out = self.make_output()
        broken = out.__class__(**{**out.__dict__, "field_marks": (len(out.stored) + 1,)})
        with pytest.raises(BlockFormatError, match="past the 2 stored words"):
            rle_decompress(broken, cfg)

    def test_truncated_straddle_detected(self):
        cfg = RleConfig(6)
        _, out = rle_run(cfg, bytes(693))
        # drop the carried high bits of the straddled field
        broken = out.__class__(**{**out.__dict__, "tail_zc_bits": 0, "tail_zc_used": 0})
        with pytest.raises(BlockFormatError):
            rle_decompress(broken, cfg)

    def test_zero_valued_field_detected(self):
        cfg, out = self.make_output(cw=6, seq=(0, 0, 0, 7))
        broken = out.__class__(**{**out.__dict__, "tail_zc_bits": 0})
        with pytest.raises(BlockFormatError):
            rle_decompress(broken, cfg)


class TestRleDut:
    def test_event_names_and_space(self):
        dut = RleDut()
        assert dut.event_names == EVENT_NAMES
        assert dut.action_space is ACTION_SPACE

    def test_scoreboard_runs_every_step(self, monkeypatch):
        import covsteer.rle as rle_mod

        dut = RleDut()
        real = rle_mod.rle_golden
        monkeypatch.setattr(
            rle_mod, "rle_golden", lambda cfg, words: real(cfg, words + bytes([1]))
        )
        _, words = decode_action((0.4, 6, 300), np.random.default_rng(0))
        stored = len(words.replace(b"\0", b""))
        pattern = golden_error(6, 300, f"stored entry {stored}", "nothing", 1)
        with pytest.raises(ScoreboardError, match=pattern):
            dut.step((0.4, 6, 300), 0)

    def test_scoreboard_catches_miscounted_events(self, monkeypatch):
        import covsteer.rle as rle_mod

        real = rle_mod.rle_run

        def miscounted(config, words):
            (e0, e1, e2, e3), output = real(config, words)
            return (e0, e1, e2 + 1, e3), output

        monkeypatch.setattr(rle_mod, "rle_run", miscounted)
        dut = RleDut()
        rng = np.random.default_rng(31)
        for _ in range(50):
            action = sample_uniform(ACTION_SPACE, rng)
            seed = int(rng.integers(1 << 30))
            config, words = decode_action(action, np.random.default_rng(seed))
            (_, _, e2, _), _ = real(config, words)
            pattern = golden_error(config.count_width, len(words), "counts entry 2", e2 + 1, e2)
            with pytest.raises(ScoreboardError, match=pattern):
                dut.step(action, seed)

    def test_scoreboard_catches_a_lost_carry(self, monkeypatch):
        # Mutant model: a straddled field's high bits never reach the next
        # zero-count vector.
        import covsteer.rle as rle_mod

        exec_mutant(monkeypatch, rle_mod, "rle_run", "zc_bits = counter >> free", "zc_bits = 0")
        pattern = golden_error(6, 1000, "tail_zc_bits", 67108860, 67108863)
        with pytest.raises(ScoreboardError, match=pattern):
            RleDut().step((1.0, 6, 1000), 0)

    @pytest.mark.parametrize(
        "line,mutation,action,message",
        [
            # skips e1 when a field fills the zero-count vector exactly
            ("e1 += 1", "e1 += zc_used > 0", (1.0, 1, 1000),
             golden_error(1, 1000, "counts entry 1", 0, 15)),
            # flushes a saturated count field one zero word late
            ("if counter < saturation:", "if counter <= saturation:", (1.0, 6, 1000),
             golden_error(6, 1000, "zc_blocks entry 0", 1171221845949812800, (1 << 64) - 1)),
        ],
    )
    def test_scoreboard_catches_a_model_mutant(self, monkeypatch, line, mutation, action, message):
        import covsteer.rle as rle_mod

        exec_mutant(monkeypatch, rle_mod, "rle_run", line, mutation)
        with pytest.raises(ScoreboardError, match=message):
            RleDut().step(action, 0)

    @pytest.mark.parametrize("field", [f.name for f in fields(RleOutput)] + ["counts"])
    def test_scoreboard_names_each_corrupted_field(self, monkeypatch, field):
        import covsteer.rle as rle_mod

        real = rle_mod.rle_run

        def corrupted(config, words):
            counts, output = real(config, words)
            if field == "counts":
                return corrupt(counts), output
            return counts, replace(output, **{field: corrupt(getattr(output, field))})

        monkeypatch.setattr(rle_mod, "rle_run", corrupted)
        with pytest.raises(ScoreboardError, match=rf"golden model in {field}( entry \d+)?: "):
            RleDut().step((0.5, 3, 500), 2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RleConfig(0)
        with pytest.raises(ValueError):
            RleConfig(9)
        # A float or bool width would reach the model's shifts.
        for width in (7.0, True):
            with pytest.raises(ValueError, match="integer"):
                RleConfig(width)
        assert RleConfig(np.int64(7)).count_width == 7
