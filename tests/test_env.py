import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from covsteer.actionspace import ActionSpace, Interval, ValueSet
from covsteer.agents import CemAgent, RandomAgent
from covsteer.coverage import compute_reward
from covsteer.env import (
    DutModel,
    Environment,
    agent_rng,
    episode_seed,
    run_campaign,
    stimulus_rng,
)
from covsteer.errors import InvalidActionError
from covsteer.rle import RleDut

from conftest import StreamThenFault


class FixedCounts(DutModel):
    """A design whose every step returns the counts it was built with."""

    event_names = ("a", "b")
    action_space = ActionSpace(knobs=(Interval("x", 0.0, 1.0),))

    def __init__(self, counts):
        self.counts = counts

    def step(self, action, seed):
        return self.counts


def rle_env(multipliers=None):
    return Environment(RleDut(), multipliers or {})


def logged_campaign(episodes, seed, agent_cls=RandomAgent):
    """The records of an rle campaign rewarded on e3_partial_count."""
    env = rle_env({"e3_partial_count": 1.0})
    records = []
    run_campaign(env, agent_cls(env.space), episodes, seed, on_record=records.append)
    return records


class TestReset:
    def test_reset_returns_nothing(self):
        assert rle_env().reset(seed=0) is None


class TestStep:
    def test_step_is_the_only_abstract_method(self):
        # A design declares its events and knobs as attributes.
        assert DutModel.__abstractmethods__ == {"step"}

    def test_reward_equals_selected_count(self):
        env = rle_env({"e3_partial_count": 1.0})
        result = env.step((0.4, 6, 300), seed=5)
        assert result.reward == result.counts[3]

    def test_zero_multipliers_zero_reward(self):
        env = rle_env()
        result = env.step((0.9, 6, 1000), seed=5)
        assert result.reward == 0.0
        assert sum(result.counts) > 0

    def test_reward_consistent_with_counts(self):
        env = rle_env({"e0_word_full": 2.0, "e2_counter_mid": -0.5})
        result = env.step((0.5, 4, 500), seed=8)
        assert result.reward == compute_reward(result.counts, env.events)

    def test_replay_identical(self):
        results = []
        for _ in range(2):
            env = rle_env({"e3_partial_count": 1.0})
            results.append(env.step((0.4, 6, 300), seed=77))
        assert results[0] == results[1]

    def test_step_after_done(self):
        # an episode is a function of its seed and action: a second step replays it
        env = rle_env({"e3_partial_count": 1.0})
        first = env.step((0.4, 6, 300), seed=0)
        assert env.step((0.4, 6, 300), seed=0) == first

    def test_invalid_action_leaves_episode_usable(self):
        env = rle_env()
        with pytest.raises(InvalidActionError):
            env.step((1.5, 6, 300), seed=0)
        fresh = rle_env()
        assert env.step((0.4, 6, 300), 0) == fresh.step((0.4, 6, 300), 0)

    def test_retried_step_after_fault_replays_the_episode(self):
        env = Environment(StreamThenFault())
        with pytest.raises(RuntimeError, match="transient fault"):
            env.step((0.4, 6, 300), seed=4)
        # the faulted step drew from its own stream; the retry builds a fresh one
        fresh = rle_env()
        assert env.step((0.4, 6, 300), 4) == fresh.step((0.4, 6, 300), 4)

    def test_design_that_never_draws_gets_no_stream_and_no_reset(self, monkeypatch):
        import covsteer.env as env_mod

        built = []
        monkeypatch.setattr(env_mod, "stimulus_rng", built.append)

        class Constant(DutModel):
            event_names = ("one", "seed")
            action_space = ActionSpace(knobs=(Interval("x", 0.0, 1.0),))

            def reset(self, seed):
                raise AssertionError("the environment reset the design")

            def step(self, action, seed):
                return (1, seed)

        env = Environment(Constant(), {"one": 2.0})
        assert env.step((0.5,), seed=3).counts == (1, 3)
        assert built == []

    @pytest.mark.parametrize(
        "bad", [1.7, True, np.float64(2.0), "2"], ids=["float", "bool", "np_float64", "str"]
    )
    def test_counts_must_be_integers(self, bad):
        env = Environment(FixedCounts((0, bad)), {"b": 1.0})
        with pytest.raises(TypeError, match=re.escape(f"count must be an integer, not {bad!r}")):
            env.step((0.5,), seed=0)

    def test_numpy_integer_counts_become_ints(self):
        result = Environment(FixedCounts((np.int64(3), np.uint8(2))), {"a": 1.0}).step((0.5,), seed=0)
        assert result.counts == (3, 2) and result.reward == 3.0
        assert all(type(c) is int for c in result.counts)

    def test_unknown_multiplier_rejected(self):
        with pytest.raises(ValueError):
            rle_env({"not_an_event": 1.0})
        with pytest.raises(ValueError, match=r"unknown events: \[3, 'x'\]"):
            rle_env({"x": 1.0, 3: 1.0})

    @pytest.mark.parametrize(
        "value", ["2", float("nan"), float("inf"), True, None, 10**400],
        ids=["str", "nan", "inf", "bool", "none", "huge_int"],
    )
    def test_multiplier_must_be_a_finite_number(self, value):
        with pytest.raises(ValueError, match="multiplier for 'e3_partial_count'"):
            rle_env({"e3_partial_count": value})

    def test_numpy_multiplier_accepted(self):
        assert rle_env({"e3_partial_count": np.float32(2.5)}).events[3].multiplier == 2.5


class TestRunCampaign:
    def test_single_episode_single_record(self):
        env = rle_env()
        records = []
        run_campaign(env, RandomAgent(env.space), 1, seed=3, on_record=records.append)
        assert len(records) == 1
        assert records[0].episode == 0

    def test_totals_match_record_sums(self):
        env = rle_env({"e3_partial_count": 1.0})
        records = []
        cumulative = run_campaign(
            env, RandomAgent(env.space), 300, seed=42, on_record=records.append
        )
        assert cumulative.episodes == 300
        for i in range(len(env.events)):
            assert cumulative.totals[i] == sum(r.counts[i] for r in records)
        assert all(r.reward == r.counts[3] for r in records)

    def test_campaign_determinism(self):
        def one():
            env = rle_env({"e3_partial_count": 1.0})
            records = []
            run_campaign(env, RandomAgent(env.space), 40, seed=9, on_record=records.append)
            return records

        assert one() == one()

    def test_agent_errors_propagate_after_partial_log(self):
        class FailingAgent(RandomAgent):
            def __init__(self, space):
                super().__init__(space)
                self.calls = 0

            def propose(self, rng):
                self.calls += 1
                if self.calls > 3:
                    raise RuntimeError("boom")
                return super().propose(rng)

        env = rle_env()
        records = []
        with pytest.raises(RuntimeError):
            run_campaign(env, FailingAgent(env.space), 10, seed=0, on_record=records.append)
        assert len(records) == 3

    @pytest.mark.parametrize("bound", [0, -3])
    def test_agent_bound_below_one_still_steps_each_episode(self, bound):
        class Eager(RandomAgent):
            def observes_until_update(self):
                return bound

        assert logged_campaign(3, 4, Eager) == logged_campaign(3, 4)

    @pytest.mark.parametrize("episodes, seed", [(3, 1.7), (3.0, 1), (True, 1), (3, True)])
    def test_episodes_and_seed_must_be_integers(self, episodes, seed):
        env = rle_env()
        records = []
        with pytest.raises(TypeError, match="must be an integer"):
            run_campaign(env, RandomAgent(env.space), episodes, seed, on_record=records.append)
        assert records == []

    def test_numpy_integers_run_the_same_campaign(self):
        assert logged_campaign(np.int64(3), np.uint32(5)) == logged_campaign(3, 5)

    def test_in_process_design_sees_one_episode_at_a_time(self, monkeypatch):
        import covsteer.env as env_mod

        calls = []
        seed_of = env_mod.episode_seed

        def recorded_seed(campaign_seed, episode):
            calls.append(("episode_seed", episode))
            return seed_of(campaign_seed, episode)

        monkeypatch.setattr(env_mod, "episode_seed", recorded_seed)

        class Recording(DutModel):
            event_names = ("b",)
            action_space = ActionSpace(knobs=(Interval("a", 0.0, 1.0), ValueSet("b", (1.0, 2.0))))

            def hint(self, action, seed):
                calls.append(("hint", seed))

            def step(self, action, seed):
                calls.append(("step", action, seed))
                return (int(action[1]),)

        class RecordingCem(CemAgent):
            def propose(self, rng):
                action = super().propose(rng)
                calls.append(("propose", action))
                return action

            def observe(self, action, reward):
                calls.append(("observe", action))
                super().observe(action, reward)

        env = Environment(Recording(), {"b": 1.0})
        agent = RecordingCem(env.space, batch_size=4)
        run_campaign(env, agent, 10, seed=11)
        assert agent.refits == 2
        expected = []
        for i, (_, action) in enumerate(c for c in calls if c[0] == "propose"):
            s = seed_of(11, i)
            expected += [("episode_seed", i), ("propose", action), ("step", action, s),
                         ("observe", action)]
        assert len(expected) == 40
        assert calls == expected


def test_episode_seed_is_stable_and_distinct():
    seeds = [episode_seed(7, i) for i in range(100)]
    assert seeds == [episode_seed(7, i) for i in range(100)]
    assert len(set(seeds)) == 100
    assert episode_seed(7, 0) != episode_seed(8, 0)


def reference_seed(campaign_seed, episode):
    return int(np.random.SeedSequence((campaign_seed, 1, episode)).generate_state(1, np.uint64)[0])


def same_stream(a, b):
    return a.integers(0, 2**63, 8).tolist() == b.integers(0, 2**63, 8).tolist() and (
        a.random(4).tolist() == b.random(4).tolist()
    )


campaign_seeds = st.integers(0, 2**64 - 1) | st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1])
# Block edges near 0, around 2**32 and just below 2**64, where an index gains a word.
episode_indices = st.sampled_from([0, 255, 256, 257, 511, 512]) | st.builds(
    lambda base, delta: base + delta,
    st.sampled_from([0, 2**32, 2**64]),
    st.integers(-300, 300),
).filter(lambda i: i >= 0) | st.integers(0, 2**70)


class TestSeeding:
    @given(campaign_seeds, st.lists(episode_indices, min_size=1, max_size=6))
    def test_episode_seed_equals_seed_sequence(self, campaign_seed, indices):
        for episode in indices:
            assert episode_seed(campaign_seed, episode) == reference_seed(campaign_seed, episode)

    @given(campaign_seeds, episode_indices)
    def test_descending_order_reuses_and_replaces_blocks(self, campaign_seed, top):
        for episode in range(top, max(top - 600, -1), -97):
            assert episode_seed(campaign_seed, episode) == reference_seed(campaign_seed, episode)

    @given(st.lists(campaign_seeds, min_size=2, max_size=3, unique=True), episode_indices)
    def test_interleaved_campaigns(self, seeds, first):
        for episode in range(first, first + 520, 37):
            for campaign_seed in seeds:
                assert episode_seed(campaign_seed, episode) == reference_seed(campaign_seed, episode)

    def test_negative_inputs_rejected(self):
        for args in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError):
                episode_seed(*args)

    @pytest.mark.parametrize(
        "bad", [1.9, 2.0, True, np.float64(1.0), np.bool_(True), "1", None],
        ids=["float", "integral_float", "bool", "numpy_float", "numpy_bool", "str", "none"],
    )
    def test_non_integer_seeds_rejected(self, bad):
        for call in (
            lambda: episode_seed(bad, 2),
            lambda: episode_seed(1, bad),
            lambda: stimulus_rng(bad),
            lambda: agent_rng(bad),
        ):
            with pytest.raises(TypeError, match="must be an integer"):
                call()

    def test_numpy_integer_seeds_match_python_ints(self):
        assert episode_seed(np.int64(7), np.uint16(300)) == episode_seed(7, 300)
        assert same_stream(stimulus_rng(np.uint64(2**63)), np.random.default_rng(2**63))
        assert same_stream(agent_rng(np.int32(3)), agent_rng(3))

    @given(campaign_seeds, episode_indices)
    def test_stimulus_rng_from_a_block_is_default_rng(self, campaign_seed, episode):
        import covsteer.env as env_mod

        seed = episode_seed(campaign_seed, episode)
        # Every seed of a cached block is built from the block's words.
        assert any(seed in block.rows for block in env_mod._blocks)
        assert same_stream(stimulus_rng(seed), np.random.default_rng(seed))

    @pytest.mark.parametrize("seed", [0, 1, 5, 2**31, 123456789, 2**32 - 1])
    def test_block_words_of_a_one_word_seed_are_default_rng(self, monkeypatch, seed):
        # A block seed falls below 2**32 with odds 2**-32, so one is planted:
        # SeedSequence pads its entropy with zero words, so [seed, 0] mixes as [seed].
        import covsteer.env as env_mod

        derive = env_mod._generate_state

        def plant(entropy, lanes, n_words):
            state = derive(entropy, lanes, n_words)
            if n_words == 1:
                state[0, 7] = seed
            return state

        monkeypatch.setattr(env_mod, "_generate_state", plant)
        block = env_mod._seed_block(3, 0)
        assert block.seeds[7] == seed and block.rows[seed] == 7
        words = env_mod._StateWords(block.states[7])
        assert same_stream(np.random.Generator(np.random.PCG64(words)), np.random.default_rng(seed))

    @given(st.integers(0, 2**64 - 1) | st.integers(0, 2**32 - 1) | st.just(0))
    def test_stimulus_rng_of_an_unseen_seed_is_default_rng(self, seed):
        assert same_stream(stimulus_rng(seed), np.random.default_rng(seed))

    def test_cache_holds_at_most_two_blocks(self):
        import covsteer.env as env_mod

        for block in range(10):
            episode_seed(11, 256 * block)
            assert len(env_mod._blocks) <= 2
        assert [block.first for block in env_mod._blocks] == [256 * 9, 256 * 8]
