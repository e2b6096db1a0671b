import numpy as np
import pytest

from covsteer.actionspace import Action
from covsteer.agents import RandomAgent
from covsteer.coverage import compute_reward
from covsteer.env import Environment, episode_seed, run_campaign
from covsteer.errors import EpisodeProtocolError, InvalidActionError
from covsteer.rle import RleDut

from conftest import StreamThenFault


def rle_env(multipliers=None):
    return Environment(RleDut(), multipliers or {})


class TestReset:
    def test_reset_returns_nothing(self):
        assert rle_env().reset(seed=0) is None

    def test_reset_mid_episode_restarts(self):
        env = rle_env()
        env.reset(seed=1)
        env.reset(seed=2)
        # the open episode was discarded: the step runs on seed 2's stream
        fresh = rle_env()
        fresh.reset(seed=2)
        action = Action((0.4, 6, 300))
        assert env.step(action) == fresh.step(action)


class TestStep:
    def test_reward_equals_selected_count(self):
        env = rle_env({"e3_partial_count": 1.0})
        env.reset(seed=5)
        result = env.step(Action((0.4, 6, 300)))
        assert result.reward == result.counts[3]

    def test_zero_multipliers_zero_reward(self):
        env = rle_env()
        env.reset(seed=5)
        result = env.step(Action((0.9, 6, 1000)))
        assert result.reward == 0.0
        assert sum(result.counts) > 0

    def test_reward_consistent_with_counts(self):
        env = rle_env({"e0_word_full": 2.0, "e2_counter_mid": -0.5})
        env.reset(seed=8)
        result = env.step(Action((0.5, 4, 500)))
        assert result.reward == compute_reward(result.counts, env.events)

    def test_replay_identical(self):
        results = []
        for _ in range(2):
            env = rle_env({"e3_partial_count": 1.0})
            env.reset(seed=77)
            results.append(env.step(Action((0.4, 6, 300))))
        assert results[0] == results[1]

    def test_step_before_reset(self):
        env = rle_env()
        with pytest.raises(EpisodeProtocolError):
            env.step(Action((0.4, 6, 300)))

    def test_step_after_done(self):
        env = rle_env()
        env.reset(seed=0)
        env.step(Action((0.4, 6, 300)))
        with pytest.raises(EpisodeProtocolError):
            env.step(Action((0.4, 6, 300)))

    def test_invalid_action_leaves_episode_usable(self):
        env = rle_env()
        env.reset(seed=0)
        with pytest.raises(InvalidActionError):
            env.step(Action((1.5, 6, 300)))
        env.step(Action((0.4, 6, 300)))
        with pytest.raises(EpisodeProtocolError):
            env.step(Action((0.4, 6, 300)))

    def test_faulted_step_ends_the_episode(self):
        env = Environment(StreamThenFault())
        env.reset(seed=4)
        with pytest.raises(RuntimeError, match="transient fault"):
            env.step(Action((0.4, 6, 300)))
        # the stream is partly spent: a retry on it would not replay the seed
        with pytest.raises(EpisodeProtocolError):
            env.step(Action((0.4, 6, 300)))
        env.reset(seed=4)
        fresh = rle_env()
        fresh.reset(seed=4)
        assert env.step(Action((0.4, 6, 300))) == fresh.step(Action((0.4, 6, 300)))

    def test_failed_reset_discards_the_open_episode(self):
        class ResetFault(RleDut):
            def reset(self, seed):
                if seed == 2:
                    raise RuntimeError("reset fault")

        env = Environment(ResetFault())
        env.reset(seed=1)
        with pytest.raises(RuntimeError, match="reset fault"):
            env.reset(seed=2)
        with pytest.raises(EpisodeProtocolError):
            env.step(Action((0.4, 6, 300)))

    def test_unknown_multiplier_rejected(self):
        with pytest.raises(ValueError):
            rle_env({"not_an_event": 1.0})


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


def test_episode_seed_is_stable_and_distinct():
    seeds = [episode_seed(7, i) for i in range(100)]
    assert seeds == [episode_seed(7, i) for i in range(100)]
    assert len(set(seeds)) == 100
    assert episode_seed(7, 0) != episode_seed(8, 0)
