"""Stimulus-selection policies.

Two agents share one interface: ``propose(rng)`` returns an action, a
tuple with one float per knob in the space's order,
``observe(action, reward)`` feeds the outcome back, ``snapshot()`` dumps
the internal state for reports, and ``observes_until_update()`` says how
far ahead proposals may be drawn before their rewards are observed.

``RandomAgent`` is the no-feedback baseline: uniform over the action
space, observe is a no-op.

``CemAgent`` is a cross-entropy-method optimizer over the knob
distributions. It keeps one distribution object per knob, chosen once from
the knob's class (``TruncatedNormal`` on an ``Interval``,
``FlooredCategorical`` on a ``ValueSet``), buffers a batch of (action,
reward) pairs, and on every full batch refits each distribution toward
the elite fraction of the batch with exponential smoothing. Floors on the
stddevs and on the category probabilities keep exploration alive forever.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_right

import numpy as np

from .actionspace import Action, ActionSpace, Interval, ValueSet, is_finite_real, is_integer, sample_uniform


class Agent(ABC):
    """Policy contract used by the campaign loop."""

    @abstractmethod
    def propose(self, rng: np.random.Generator) -> Action:
        """Draw the next action; must be valid for the agent's action space."""

    @abstractmethod
    def observe(self, action: Action, reward: float) -> None:
        """Receive the reward the proposed action earned."""

    @abstractmethod
    def snapshot(self) -> dict:
        """JSON-ready description of the current policy state."""

    def observes_until_update(self) -> int | None:
        """How many more ``observe`` calls the policy lasts: it may change in the last of them.

        That many proposals come from the current policy whether or not their
        rewards were observed first, which is how far ``run_campaign`` may
        propose ahead. Return at least 1, or None: the policy never changes.
        ``run_campaign`` always proposes the episode it steps next, so a
        bound below 1 counts as 1. The default lets the policy change at
        every observation.
        """
        return 1


class RandomAgent(Agent):
    """Uniform sampling over the action space; learns nothing."""

    def __init__(self, space: ActionSpace):
        self.space = space

    def propose(self, rng):
        return sample_uniform(self.space, rng)

    def observe(self, action, reward):
        pass

    def snapshot(self):
        return {"kind": "random", "knobs": list(self.space.names)}

    def observes_until_update(self):
        return None


def elite_indices(rewards, elite_frac: float) -> list[int]:
    """Buffer positions of the ceil(elite_frac * n) highest rewards.

    Selection depends only on reward order, so a positive rescaling that
    keeps the rewards' order never changes it. Ties at the boundary go to
    the earlier buffer position (stable sort).
    """
    n = len(rewards)
    if n == 0:
        raise ValueError("empty reward buffer")
    n_elite = math.ceil(elite_frac * n)
    order = sorted(range(n), key=lambda i: -rewards[i])
    return order[:n_elite]


def floor_normalize(probs, floor: float) -> np.ndarray:
    """Project a probability vector onto {p : sum(p) = 1, p >= floor}.

    Entries pushed to the floor stay at exactly the floor; the rest share
    the remaining mass in proportion to their input weight. A single
    floor-then-normalize pass can leave entries slightly below the floor,
    which is why the floored set is found iteratively.
    """
    q = np.asarray(probs, dtype=float)
    n = len(q)
    if floor < 0:
        raise ValueError("floor must be >= 0")
    if floor * n >= 1.0:
        raise ValueError(f"floor {floor} infeasible for {n} categories")
    q = np.maximum(q, 0.0)
    fixed = np.zeros(n, dtype=bool)
    for _ in range(n + 1):
        free = ~fixed
        free_mass = float(q[free].sum())
        budget = 1.0 - floor * int(fixed.sum())
        if free_mass <= 0.0:
            p = np.where(fixed, floor, budget / max(int(free.sum()), 1))
            return p
        p = np.where(fixed, floor, q / free_mass * budget)
        below = free & (p < floor)
        if not below.any():
            return p
        fixed |= below
    raise AssertionError("floor_normalize did not converge")


def categorical_cdf(probs) -> list[float]:
    """The cumulative distribution that ``Generator.choice(n, p=probs)`` searches.

    ``bisect_right(cdf, rng.random())`` draws the same double from ``rng``
    and picks the same index as ``rng.choice(len(probs), p=probs)``, without
    choice's per-call argument checks.
    """
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    return cdf.tolist()


def check_cem_params(batch_size, elite_frac, smoothing, sigma_min_frac, prob_floor) -> None:
    """Raise ValueError, message led by the parameter's name, on the first bad value.

    ``sigma_min_frac <= 0.5`` keeps every stddev at most (hi - lo)/2, which
    bounds the rejection loop in ``TruncatedNormal.draw``.
    """
    # Bounded above so that the summary can print it and a refit's sums stay floats.
    if not is_integer(batch_size) or not 0 < batch_size < 2**63:
        raise ValueError("batch_size must be a positive integer below 2**63")
    reals = {
        "elite_frac": elite_frac,
        "smoothing": smoothing,
        "sigma_min_frac": sigma_min_frac,
        "prob_floor": prob_floor,
    }
    for name, value in reals.items():
        if not is_finite_real(value):
            raise ValueError(f"{name} must be a finite number")
    if not 0.0 < elite_frac <= 1.0:
        raise ValueError("elite_frac must be in (0, 1]")
    if not 0.0 <= smoothing <= 1.0:
        raise ValueError("smoothing must be in [0, 1]")
    if not 0.0 < sigma_min_frac <= 0.5:
        raise ValueError("sigma_min_frac must be in (0, 0.5]")
    if prob_floor < 0.0:
        raise ValueError("prob_floor must be >= 0")


class TruncatedNormal:
    """An interval knob's normal, truncated to [lo, hi] by rejection, stddev floored."""

    def __init__(self, knob: Interval, batch_size: int, sigma_min_frac: float):
        span = knob.hi - knob.lo
        # lo + hi and a refit's sums over a batch of values and of squared
        # deviations must stay finite, or draw spins.
        widest = max(abs(knob.lo), abs(knob.hi))
        sums = (knob.lo + knob.hi, batch_size * widest, batch_size * span * span)
        if not all(map(math.isfinite, sums)):
            raise ValueError(f"knob {knob.name} too wide for batch_size {batch_size}")
        self.lo, self.hi = knob.lo, knob.hi
        self.mu = (knob.lo + knob.hi) / 2.0
        self.sigma = span / 2.0
        self.sigma_min = sigma_min_frac * span

    def draw(self, rng) -> float:
        # mu stays inside [lo, hi] and sigma <= (hi - lo)/2 by construction,
        # so the acceptance probability is bounded well away from zero.
        lo, hi, mu, sigma = self.lo, self.hi, self.mu, self.sigma
        while True:
            x = rng.normal(mu, sigma)
            if lo <= x <= hi:
                return float(x)

    def refit(self, elite_column: np.ndarray, smoothing: float) -> None:
        self.mu = smoothing * float(elite_column.mean()) + (1.0 - smoothing) * self.mu
        sigma = smoothing * float(elite_column.std()) + (1.0 - smoothing) * self.sigma
        self.sigma = max(self.sigma_min, sigma)

    def snapshot(self) -> dict:
        return {"mu": self.mu, "sigma": self.sigma, "sigma_min": self.sigma_min}


class FlooredCategorical:
    """A value-set knob's category probabilities, floored, drawn through their CDF."""

    def __init__(self, knob: ValueSet, prob_floor: float):
        n = len(knob.values)
        if prob_floor * n >= 1.0:
            raise ValueError(f"prob_floor {prob_floor} infeasible for knob {knob.name} ({n} values)")
        self.values = knob.values
        self.prob_floor = prob_floor
        self._index = {v: i for i, v in enumerate(knob.values)}
        self.probs = np.full(n, 1.0 / n)
        self.cdf = categorical_cdf(self.probs)

    def draw(self, rng) -> float:
        return self.values[bisect_right(self.cdf, rng.random())]

    def refit(self, elite_column: np.ndarray, smoothing: float) -> None:
        freq = np.zeros(len(self.values))
        for v in elite_column:
            freq[self._index[float(v)]] += 1.0
        freq /= len(elite_column)
        q = smoothing * freq + (1.0 - smoothing) * self.probs
        self.probs = floor_normalize(q, self.prob_floor)
        self.cdf = categorical_cdf(self.probs)

    def snapshot(self) -> dict:
        return {"values": list(self.values), "probs": self.probs.tolist()}


class CemAgent(Agent):
    """Cross-entropy-method policy over per-knob sampling distributions.

    Parameters
    ----------
    space:
        The knob space proposals are drawn from.
    batch_size:
        Rewarded episodes buffered between refits (B).
    elite_frac:
        Fraction of the batch, rounded up, refitted toward (0 < f <= 1).
        Ties at the elite boundary break toward the earlier buffer entry.
    smoothing:
        Weight of the elite statistics in the update; 0 freezes the
        distributions, 1 replaces them with the elite fit.
    sigma_min_frac:
        Stddev floor for interval knobs, as a fraction of (hi - lo)
        (0 < f <= 0.5).
    prob_floor:
        Per-category probability floor for value-set knobs.

    ``dists`` holds each knob's distribution, in the space's order. They
    start as the uniform baseline: mean at the interval midpoint with stddev
    (hi - lo)/2, and equal category probabilities. The defaults here are
    also the run config's ``agent_params`` defaults.
    """

    def __init__(
        self,
        space: ActionSpace,
        batch_size: int = 50,
        elite_frac: float = 0.2,
        smoothing: float = 0.7,
        sigma_min_frac: float = 0.05,
        prob_floor: float = 0.01,
    ):
        check_cem_params(batch_size, elite_frac, smoothing, sigma_min_frac, prob_floor)
        self.space = space
        self.batch_size = int(batch_size)
        self.elite_frac = float(elite_frac)
        self.smoothing = float(smoothing)
        self.prob_floor = float(prob_floor)
        self.dists = tuple(
            TruncatedNormal(knob, batch_size, sigma_min_frac)
            if isinstance(knob, Interval)
            else FlooredCategorical(knob, prob_floor)
            for knob in space.knobs
        )
        self._buffer: list[tuple[Action, float]] = []
        self.refits = 0

    def propose(self, rng):
        return tuple([dist.draw(rng) for dist in self.dists])

    def observe(self, action, reward):
        self._buffer.append((action, float(reward)))
        if self.observes_until_update() == 0:
            self._refit()

    def observes_until_update(self):
        return self.batch_size - len(self._buffer)

    def _refit(self):
        batch = self._buffer
        chosen = elite_indices([r for _, r in batch], self.elite_frac)
        elite = [batch[i][0] for i in chosen]
        for k, dist in enumerate(self.dists):
            dist.refit(np.array([act[k] for act in elite], dtype=float), self.smoothing)
        self._buffer = []
        self.refits += 1

    def snapshot(self):
        return {
            "kind": "cem",
            "batch_size": self.batch_size,
            "elite_frac": self.elite_frac,
            "smoothing": self.smoothing,
            "prob_floor": self.prob_floor,
            "refits": self.refits,
            "buffered": len(self._buffer),
            "knobs": [
                {"name": knob.name, "kind": knob.kind, **dist.snapshot()}
                for knob, dist in zip(self.space.knobs, self.dists)
            ],
        }
