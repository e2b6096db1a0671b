import hashlib
import json
import struct
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from covsteer.actionspace import ActionSpace, Interval, ValueSet, validate
from covsteer.agents import (
    CemAgent,
    RandomAgent,
    categorical_cdf,
    elite_indices,
    floor_normalize,
)

from conftest import action_spaces

UNIT = ActionSpace(knobs=(Interval("x", 0.0, 1.0),))
WIDTH8 = ActionSpace(knobs=(ValueSet("w", range(1, 9)),))


class TestRandomAgent:
    def test_proposals_are_valid(self):
        from covsteer.rle import ACTION_SPACE

        agent = RandomAgent(ACTION_SPACE)
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert validate(ACTION_SPACE, agent.propose(rng)) is None

    def test_observe_is_a_no_op(self):
        # Stronger than a histogram comparison: with observe stateless the
        # exact proposal stream is unchanged.
        def stream(with_observe):
            agent = RandomAgent(WIDTH8)
            rng = np.random.default_rng(99)
            out = []
            for i in range(200):
                a = agent.propose(rng)
                if with_observe:
                    agent.observe(a, float(i))
                out.append(a)
            return out

        assert stream(False) == stream(True)

    def test_seeded_reproducibility(self):
        agent = RandomAgent(UNIT)
        a = [agent.propose(np.random.default_rng(5)) for _ in range(3)]
        b = [agent.propose(np.random.default_rng(5)) for _ in range(3)]
        assert a == b


class TestFloorNormalize:
    def test_floored_entries_sit_exactly_at_floor(self):
        p = floor_normalize([1.0, 0.0, 0.0, 0.0], 0.01)
        assert p[1] == p[2] == p[3] == 0.01
        assert abs(p.sum() - 1.0) < 1e-12

    def test_already_feasible_unchanged(self):
        q = np.array([0.4, 0.35, 0.25])
        p = floor_normalize(q, 0.01)
        assert np.allclose(p, q, atol=1e-15)

    @pytest.mark.parametrize(
        "q, floor, expected",
        [([2.225073858507e-311], 0.0, [1.0]), ([3e-320, 1e-320], 0.01, [0.75, 0.25])],
        ids=["one_subnormal", "two_subnormal_floored"],
    )
    def test_subnormal_mass_normalizes(self, q, floor, expected):
        assert floor_normalize(q, floor).tolist() == expected

    def test_infeasible_floor_rejected(self):
        with pytest.raises(ValueError):
            floor_normalize([0.5, 0.5], 0.6)

    @given(
        st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=12).filter(
            lambda q: sum(q) > 1e-6
        )
    )
    def test_result_respects_floor_and_sums_to_one(self, q):
        total = sum(q)
        q = [x / total for x in q]
        floor = 0.9 / len(q) * 0.1  # always feasible
        p = floor_normalize(q, floor)
        assert abs(p.sum() - 1.0) < 1e-9
        assert (p >= floor - 1e-15).all()


class TestEliteSelection:
    def test_ties_break_to_earlier_position(self):
        assert elite_indices([1.0, 2.0, 2.0, 0.0], 0.5) == [1, 2]
        assert elite_indices([2.0, 1.0, 2.0, 2.0], 0.5) == [0, 2]

    def test_ceil_rounding(self):
        assert len(elite_indices([0.0] * 10, 0.25)) == 3

    @given(
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=30),
        st.floats(0.05, 1.0),
        st.floats(0.1, 50.0),
    )
    def test_positive_scaling_invariance(self, rewards, frac, scale):
        # Rounding can merge two close rewards into a tie, which changes the
        # order; selection depends only on order, so only order-keeping
        # rescalings must keep it.
        scaled = [r * scale for r in rewards]
        assume(
            all(
                (a < b) == (sa < sb) and (a == b) == (sa == sb)
                for a, sa in zip(rewards, scaled)
                for b, sb in zip(rewards, scaled)
            )
        )
        assert elite_indices(rewards, frac) == elite_indices(scaled, frac)

    def test_permuting_equal_rewards_keeps_reward_multiset(self):
        rewards = [3.0, 1.0, 3.0, 3.0, 0.0]
        permuted = [3.0, 3.0, 1.0, 0.0, 3.0]
        pick = lambda rs: sorted(rs[i] for i in elite_indices(rs, 0.4))  # noqa: E731
        assert pick(rewards) == pick(permuted)


class TestCemPropose:
    def test_concentrated_categorical(self):
        agent = CemAgent(WIDTH8, prob_floor=0.01)
        # A full-weight refit on one elite value 1 leaves exactly 1 - 7*0.01 on it.
        agent.dists[0].refit(np.array([1.0]), 1.0)
        assert agent.dists[0].probs[0] == pytest.approx(1 - 7 * 0.01)
        rng = np.random.default_rng(2)
        draws = [agent.propose(rng)[0] for _ in range(10_000)]
        freq = draws.count(1.0) / 10_000
        # Binomial stddev at p=0.93 over 10k draws is ~0.0026; 0.92 is >3.8
        # sigma below the mean.
        assert freq >= 0.92

    def test_tight_normal_concentrates(self):
        agent = CemAgent(UNIT, sigma_min_frac=0.05)
        dist = agent.dists[0]
        dist.mu = 0.5
        dist.sigma = dist.sigma_min  # 0.05
        rng = np.random.default_rng(3)
        draws = np.array([agent.propose(rng)[0] for _ in range(10_000)])
        assert draws.std() <= 2 * dist.sigma_min
        assert abs(draws.mean() - 0.5) < 0.01

    @given(action_spaces(max_knobs=3), st.integers(0, 2**32 - 1))
    def test_proposals_always_valid(self, space, seed):
        agent = CemAgent(space, prob_floor=0.001)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            assert validate(space, agent.propose(rng)) is None

    def test_truncation_respects_bounds(self):
        space = ActionSpace(knobs=(Interval("x", -2.0, 3.0),))
        agent = CemAgent(space)
        rng = np.random.default_rng(4)
        for _ in range(2_000):
            v = agent.propose(rng)[0]
            assert -2.0 <= v <= 3.0


def reference_propose(agent, rng):
    """``CemAgent.propose`` drawing its categories through ``Generator.choice``."""
    vals = []
    for knob, dist in zip(agent.space.knobs, agent.dists):
        if isinstance(knob, Interval):
            while True:
                x = rng.normal(dist.mu, dist.sigma)
                if knob.lo <= x <= knob.hi:
                    vals.append(float(x))
                    break
        else:
            vals.append(knob.values[int(rng.choice(len(knob.values), p=dist.probs))])
    return tuple(vals)


class TestCategoricalDraw:
    @given(
        st.lists(st.floats(0, 1), min_size=1, max_size=12),
        st.floats(0, 0.99),
        st.integers(0, 2**32 - 1),
    )
    def test_cdf_draw_matches_generator_choice(self, weights, floor_share, seed):
        n = len(weights)
        probs = floor_normalize(weights, floor_share / n)
        cdf = categorical_cdf(probs)
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(50):
            assert bisect_right(cdf, ours.random()) == ref.choice(n, p=probs)
        # both consumed the same doubles
        assert ours.random() == ref.random()

    def test_propose_matches_choice_through_refits(self):
        space = ActionSpace(knobs=(
            Interval("x", 0.0, 1.0),
            ValueSet("w", range(1, 9)),
            ValueSet("v", [3.0, -1.0, 7.5]),
        ))
        agent = CemAgent(space, batch_size=10)
        ours, ref = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(300):
            action = agent.propose(ours)
            assert action == reference_propose(agent, ref)
            agent.observe(action, action[1] * action[2])
        assert agent.refits == 30


class TestCemObserve:
    def test_observes_until_update_counts_down_to_each_refit(self):
        agent = CemAgent(UNIT, batch_size=3)
        rng = np.random.default_rng(0)
        left = []
        for _ in range(7):
            left.append(agent.observes_until_update())
            agent.observe(agent.propose(rng), 0.0)
        assert left == [3, 2, 1, 3, 2, 1, 3]
        assert agent.refits == 2
        assert RandomAgent(UNIT).observes_until_update() is None

    def test_exact_refit_arithmetic(self):
        # B=2, elite fraction 1, smoothing 1: refit equals the plain sample
        # statistics of {2, 4} -> mean 3, population stddev 1.
        space = ActionSpace(knobs=(Interval("x", 0.0, 10.0),))
        agent = CemAgent(space, batch_size=2, elite_frac=1.0, smoothing=1.0,
                         sigma_min_frac=0.01)
        dist = agent.dists[0]
        dist.sigma_min = 0.1
        agent.observe((2.0,), 1.0)
        agent.observe((4.0,), 0.0)
        assert agent.refits == 1
        assert dist.mu == pytest.approx(3.0)
        assert dist.sigma == pytest.approx(1.0)

    def test_zero_smoothing_freezes_distributions(self):
        agent = CemAgent(WIDTH8, batch_size=4, smoothing=0.0)
        before = agent.dists[0].probs.copy()
        rng = np.random.default_rng(0)
        for _ in range(4):
            a = agent.propose(rng)
            agent.observe(a, float(rng.random()))
        assert agent.refits == 1
        assert np.allclose(agent.dists[0].probs, before)

    def test_buffer_clears_on_refit(self):
        agent = CemAgent(UNIT, batch_size=3)
        rng = np.random.default_rng(0)
        for i in range(8):
            agent.observe(agent.propose(rng), float(i))
        assert agent.refits == 2
        assert len(agent._buffer) == 2

    def test_invariants_hold_after_every_refit(self):
        space = ActionSpace(
            knobs=(
                Interval("p", 0.0, 1.0),
                ValueSet("w", range(1, 9)),
            )
        )
        agent = CemAgent(space, batch_size=20)
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = agent.propose(rng)
            agent.observe(a, float(rng.normal()))
            if agent.refits and not agent._buffer:
                normal, categorical = agent.dists
                assert abs(categorical.probs.sum() - 1.0) < 1e-9
                assert (categorical.probs >= agent.prob_floor - 1e-15).all()
                assert normal.sigma >= normal.sigma_min
        assert agent.refits == 10

    def test_hyperparameter_validation(self):
        with pytest.raises(ValueError):
            CemAgent(UNIT, batch_size=0)
        with pytest.raises(ValueError):
            CemAgent(UNIT, elite_frac=0.0)
        with pytest.raises(ValueError):
            CemAgent(UNIT, smoothing=1.5)
        with pytest.raises(ValueError):
            CemAgent(WIDTH8, prob_floor=0.2)  # 8 * 0.2 > 1

    @pytest.mark.parametrize(
        "params",
        [
            {"sigma_min_frac": float("nan")},
            {"sigma_min_frac": float("inf")},
            {"sigma_min_frac": 1e300},
            {"sigma_min_frac": 0.6},
            {"elite_frac": float("nan")},
            {"prob_floor": float("nan")},
            {"batch_size": 2.5},
            {"batch_size": 10**400},  # beyond the float range, it would overflow a refit's sums
        ],
    )
    def test_non_finite_and_hanging_hyperparameters_rejected(self, params):
        with pytest.raises(ValueError, match=next(iter(params))):
            CemAgent(UNIT, **params)

    @pytest.mark.parametrize(
        "lo,hi,batch_size",
        [
            (-8.9e307, 8.9e307, 10),  # the refit's mean overflows
            (1e308, 1.7e308, 1),  # the initial mean overflows
            (-1e160, 1e160, 1),  # the refit's squared deviations overflow
        ],
    )
    def test_knob_too_wide_for_the_refit_rejected(self, lo, hi, batch_size):
        space = ActionSpace(knobs=(Interval("x", lo, hi),))
        with pytest.raises(ValueError, match="knob x too wide"):
            CemAgent(space, batch_size=batch_size)

    def test_widest_accepted_knob_keeps_proposing(self):
        space = ActionSpace(knobs=(Interval("x", -1e150, 1e150),))
        agent = CemAgent(space, batch_size=10)
        rng = np.random.default_rng(0)
        for _ in range(50):
            action = agent.propose(rng)
            assert -1e150 <= action[0] <= 1e150
            agent.observe(action, float(rng.random()))
        knob = agent.snapshot()["knobs"][0]
        assert np.isfinite([knob["mu"], knob["sigma"]]).all()

    def test_widest_stddev_floor_still_proposes(self):
        agent = CemAgent(UNIT, sigma_min_frac=0.5)
        rng = np.random.default_rng(0)
        assert all(0.0 <= agent.propose(rng)[0] <= 1.0 for _ in range(100))


class BanditEnv:
    """Reward 1 exactly when the discrete knob hits the target value."""

    def __init__(self, target):
        self.target = float(target)

    def reward(self, action):
        return 1.0 if action[0] == self.target else 0.0


def run_bandit(seed, target=6.0, refit_limit=20):
    agent = CemAgent(WIDTH8)
    bandit = BanditEnv(target)
    rng = np.random.default_rng(seed)
    target_idx = WIDTH8.knobs[0].values.index(target)
    best = 0.0
    while agent.refits < refit_limit:
        a = agent.propose(rng)
        agent.observe(a, bandit.reward(a))
        if not agent._buffer:  # just refitted
            best = max(best, float(agent.dists[0].probs[target_idx]))
            if best > 0.9:
                break
    return best


def test_bandit_learns_target_quickly():
    # Scaled-down version of the full 100-seed acceptance check.
    wins = sum(run_bandit(seed) > 0.9 for seed in range(20))
    assert wins >= 19


def test_snapshot_is_json_ready():
    space = ActionSpace(
        knobs=(Interval("p", 0.0, 1.0), ValueSet("w", [1, 2]))
    )
    agent = CemAgent(space, prob_floor=0.01)
    snap = agent.snapshot()
    parsed = json.loads(json.dumps(snap))
    assert parsed["kind"] == "cem"
    assert parsed["knobs"][0]["name"] == "p"
    assert parsed["knobs"][1]["probs"] == [0.5, 0.5]


PINNED_SPACE = ActionSpace(knobs=(
    Interval("x", -2.0, 3.0),
    ValueSet("w", range(1, 9)),
    ValueSet("v", [3.0, -1.0, 7.5]),
))


def pinned_digests():
    """sha256 of every proposal and of the snapshot after every refit."""
    agent = CemAgent(PINNED_SPACE, batch_size=12, elite_frac=0.3, smoothing=0.55,
                     sigma_min_frac=0.08, prob_floor=0.03)
    rng, noise = np.random.default_rng(2024), np.random.default_rng(7)
    proposals, snapshots = hashlib.sha256(), hashlib.sha256()
    for _ in range(300):
        action = agent.propose(rng)
        proposals.update(struct.pack("3d", *action))
        x, w, v = action
        agent.observe(action, float(noise.normal()) + x + 2.0 * (w == 6) + (v == 7.5))
        if agent.observes_until_update() == agent.batch_size:
            snapshots.update(json.dumps(agent.snapshot(), sort_keys=True).encode())
    assert agent.refits == 25
    return proposals.hexdigest(), snapshots.hexdigest()


def test_pinned_agent_matches_recorded_digests():
    # Recorded before the per-knob distributions became objects: any change
    # to the order of rng calls or float expressions moves these.
    assert pinned_digests() == (
        "c32ecaad8544aa2ec5e7966b0ee649d365c3686b36ac60b86ea33722ddabac00",
        "d78738c30f3473cb85d2371863144af7ab78e483ef0cb36c87e2e149f5784609",
    )
