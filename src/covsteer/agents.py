"""Stimulus-selection policies.

Two agents share one interface: ``propose(rng)`` emits an action,
``observe(action, reward)`` feeds the outcome back, ``snapshot()`` dumps
the internal state for reports, and ``observes_until_update()`` says how
far ahead proposals may be drawn before their rewards are observed.

``RandomAgent`` is the no-feedback baseline: uniform over the action
space, observe is a no-op.

``CemAgent`` is a cross-entropy-method optimizer over the knob
distributions. It keeps an independent sampling distribution per knob
(truncated normal on an interval knob, categorical on a value-set knob),
buffers a batch of (action, reward) pairs, and on every full batch refits
each distribution toward the elite fraction of the batch with exponential
smoothing. Floors on the stddevs and on the categorical probabilities
keep exploration alive forever.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_right
from numbers import Integral

import numpy as np

from .actionspace import CONTINUOUS, Action, ActionSpace, is_finite_real, sample_uniform


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
        propose ahead. None: the policy never changes. The default lets it
        change at every observation.
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
    bounds the rejection loop in ``CemAgent.propose``.
    """
    if isinstance(batch_size, bool) or not isinstance(batch_size, Integral) or batch_size < 1:
        raise ValueError("batch_size must be a positive integer")
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

    Initial distributions match the uniform baseline: mean at the interval
    midpoint with stddev (hi - lo)/2, and equal category probabilities.
    The defaults here are also the run config's ``agent_params`` defaults.
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

        self._mu: dict[int, float] = {}
        self._sigma: dict[int, float] = {}
        self._sigma_min: dict[int, float] = {}
        self._probs: dict[int, np.ndarray] = {}
        self._cdf: dict[int, list[float]] = {}
        self._value_index: dict[int, dict[float, int]] = {}
        for k, knob in enumerate(space.knobs):
            if knob.kind == CONTINUOUS:
                span = knob.hi - knob.lo
                # lo + hi and a refit's sums over a batch of values and of
                # squared deviations must stay finite, or propose spins.
                widest = max(abs(knob.lo), abs(knob.hi))
                sums = (knob.lo + knob.hi, batch_size * widest, batch_size * span * span)
                if not all(map(math.isfinite, sums)):
                    raise ValueError(f"knob {knob.name} too wide for batch_size {batch_size}")
                self._mu[k] = (knob.lo + knob.hi) / 2.0
                self._sigma[k] = span / 2.0
                self._sigma_min[k] = sigma_min_frac * span
            else:
                n = len(knob.values)
                if prob_floor * n >= 1.0:
                    raise ValueError(
                        f"prob_floor {prob_floor} infeasible for knob {knob.name} ({n} values)"
                    )
                self._set_probs(k, np.full(n, 1.0 / n))
                self._value_index[k] = {v: i for i, v in enumerate(knob.values)}

        self._buffer: list[tuple[Action, float]] = []
        self._refits = 0

    def _set_probs(self, k: int, probs: np.ndarray) -> None:
        self._probs[k] = probs
        self._cdf[k] = categorical_cdf(probs)

    @property
    def refits(self) -> int:
        return self._refits

    def propose(self, rng):
        vals = []
        for k, knob in enumerate(self.space.knobs):
            if knob.kind == CONTINUOUS:
                mu, sigma = self._mu[k], self._sigma[k]
                # Rejection-truncated normal. mu stays inside [lo, hi] and
                # sigma <= (hi - lo)/2 by construction, so the acceptance
                # probability is bounded well away from zero.
                while True:
                    x = rng.normal(mu, sigma)
                    if knob.lo <= x <= knob.hi:
                        vals.append(float(x))
                        break
            else:
                vals.append(knob.values[bisect_right(self._cdf[k], rng.random())])
        return Action(tuple(vals))

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
        a = self.smoothing
        for k, knob in enumerate(self.space.knobs):
            col = np.array([act.values[k] for act in elite], dtype=float)
            if knob.kind == CONTINUOUS:
                self._mu[k] = a * float(col.mean()) + (1.0 - a) * self._mu[k]
                sigma = a * float(col.std()) + (1.0 - a) * self._sigma[k]
                self._sigma[k] = max(self._sigma_min[k], sigma)
            else:
                freq = np.zeros(len(knob.values))
                index = self._value_index[k]
                for v in col:
                    freq[index[float(v)]] += 1.0
                freq /= len(elite)
                q = a * freq + (1.0 - a) * self._probs[k]
                self._set_probs(k, floor_normalize(q, self.prob_floor))
        self._buffer = []
        self._refits += 1

    def snapshot(self):
        knobs = []
        for k, knob in enumerate(self.space.knobs):
            if knob.kind == CONTINUOUS:
                knobs.append(
                    {
                        "name": knob.name,
                        "kind": knob.kind,
                        "mu": self._mu[k],
                        "sigma": self._sigma[k],
                        "sigma_min": self._sigma_min[k],
                    }
                )
            else:
                knobs.append(
                    {
                        "name": knob.name,
                        "kind": knob.kind,
                        "values": list(knob.values),
                        "probs": [float(p) for p in self._probs[k]],
                    }
                )
        return {
            "kind": "cem",
            "batch_size": self.batch_size,
            "elite_frac": self.elite_frac,
            "smoothing": self.smoothing,
            "prob_floor": self.prob_floor,
            "refits": self._refits,
            "buffered": len(self._buffer),
            "knobs": knobs,
        }
