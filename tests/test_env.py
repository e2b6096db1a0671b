import numpy as np
import pytest

from covsteer.actionspace import Action, ActionSpace, KnobSpec
from covsteer.agents import CemAgent, RandomAgent
from covsteer.coverage import compute_reward
from covsteer.env import DutModel, Environment, episode_seed, run_campaign
from covsteer.errors import InvalidActionError
from covsteer.rle import RleDut

from conftest import StreamThenFault


def rle_env(multipliers=None):
    return Environment(RleDut(), multipliers or {})


class TestReset:
    def test_reset_returns_nothing(self):
        assert rle_env().reset(seed=0) is None


class TestStep:
    def test_reward_equals_selected_count(self):
        env = rle_env({"e3_partial_count": 1.0})
        result = env.step(Action((0.4, 6, 300)), seed=5)
        assert result.reward == result.counts[3]

    def test_zero_multipliers_zero_reward(self):
        env = rle_env()
        result = env.step(Action((0.9, 6, 1000)), seed=5)
        assert result.reward == 0.0
        assert sum(result.counts) > 0

    def test_reward_consistent_with_counts(self):
        env = rle_env({"e0_word_full": 2.0, "e2_counter_mid": -0.5})
        result = env.step(Action((0.5, 4, 500)), seed=8)
        assert result.reward == compute_reward(result.counts, env.events)

    def test_replay_identical(self):
        results = []
        for _ in range(2):
            env = rle_env({"e3_partial_count": 1.0})
            results.append(env.step(Action((0.4, 6, 300)), seed=77))
        assert results[0] == results[1]

    def test_step_after_done(self):
        # an episode is a function of its seed and action: a second step replays it
        env = rle_env({"e3_partial_count": 1.0})
        first = env.step(Action((0.4, 6, 300)), seed=0)
        assert env.step(Action((0.4, 6, 300)), seed=0) == first

    def test_invalid_action_leaves_episode_usable(self):
        env = rle_env()
        with pytest.raises(InvalidActionError):
            env.step(Action((1.5, 6, 300)), seed=0)
        fresh = rle_env()
        assert env.step(Action((0.4, 6, 300)), 0) == fresh.step(Action((0.4, 6, 300)), 0)

    def test_retried_step_after_fault_replays_the_episode(self):
        env = Environment(StreamThenFault())
        with pytest.raises(RuntimeError, match="transient fault"):
            env.step(Action((0.4, 6, 300)), seed=4)
        # the faulted step drew from its own stream; the retry builds a fresh one
        fresh = rle_env()
        assert env.step(Action((0.4, 6, 300)), 4) == fresh.step(Action((0.4, 6, 300)), 4)

    def test_design_that_never_draws_gets_no_stream_and_no_reset(self, monkeypatch):
        import covsteer.env as env_mod

        built = []
        monkeypatch.setattr(env_mod, "stimulus_rng", built.append)

        class Constant(DutModel):
            def reset(self, seed):
                raise AssertionError("the environment reset the design")

            def step(self, action, seed):
                return (1, seed)

            def event_names(self):
                return ("one", "seed")

            def action_space(self):
                return ActionSpace(knobs=(KnobSpec.continuous("x", 0.0, 1.0),))

        env = Environment(Constant(), {"one": 2.0})
        assert env.step(Action((0.5,)), seed=3).counts == (1, 3)
        assert built == []

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

    def test_in_process_design_sees_one_episode_at_a_time(self, monkeypatch):
        import covsteer.env as env_mod

        calls = []
        seed_of = env_mod.episode_seed

        def recorded_seed(campaign_seed, episode):
            calls.append(("episode_seed", episode))
            return seed_of(campaign_seed, episode)

        monkeypatch.setattr(env_mod, "episode_seed", recorded_seed)

        class Recording(DutModel):
            def hint(self, action, seed):
                calls.append(("hint", seed))

            def step(self, action, seed):
                calls.append(("step", action, seed))
                return (int(action.values[1]),)

            def event_names(self):
                return ("b",)

            def action_space(self):
                return ActionSpace(
                    knobs=(KnobSpec.continuous("a", 0.0, 1.0), KnobSpec.discrete("b", (1.0, 2.0)))
                )

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
