"""Episodes, the design-model contract, and the campaign loop.

An episode is a pure function of its seed and its action, as in a bandit:
the agent picks knob values once, the design model expands them into
stimulus from the seed's random stream and simulates it, and the episode
ends. ``Environment.reset(seed)`` only records the seed; ``step(action)``
validates the action, calls ``dut.step(action, seed)``, and returns the
per-event counts and the multiplier-weighted reward. A repeated or retried
step replays the same episode.

A design with a ``lookahead`` (a bridged one) is told of episodes before
their turn: ``run_campaign`` seeds, proposes and hints up to that many
episodes ahead of the one it steps, so the design can start on them while
the agent works. It never looks past the agent's next policy update, so
every proposal is the one a one-at-a-time loop would draw.

Seeding is split so any episode can be replayed in isolation:

* ``episode_seed(campaign_seed, i)`` derives episode i's seed;
* ``stimulus_rng(seed)`` builds the stream the design model draws from,
  inside its ``step``.

A bridged design receives the same seed over the wire and builds the
identical stream on its side, which is what makes in-process and bridged
campaigns byte-identical.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .actionspace import Action, ActionSpace, validate
from .coverage import CoverageCounts, CumulativeCoverage, EventSpec, compute_reward
from .errors import EpisodeProtocolError, InvalidActionError

_EPISODE_TAG = 1
_AGENT_TAG = 2


def episode_seed(campaign_seed: int, episode: int) -> int:
    """Counter-based split: a distinct, reconstructible seed per episode."""
    ss = np.random.SeedSequence((int(campaign_seed), _EPISODE_TAG, int(episode)))
    return int(ss.generate_state(1, np.uint64)[0])


def stimulus_rng(seed: int) -> np.random.Generator:
    """The random stream a design model uses to expand knobs into stimulus."""
    return np.random.default_rng(int(seed))


def agent_rng(campaign_seed: int) -> np.random.Generator:
    """The campaign-wide stream the agent proposes actions from."""
    return np.random.default_rng(np.random.SeedSequence((int(campaign_seed), _AGENT_TAG)))


@dataclass(frozen=True)
class StepResult:
    reward: float
    counts: CoverageCounts


@dataclass(frozen=True)
class EpisodeRecord:
    """One logged episode: the unit of the CSV log and of reporting."""

    episode: int
    action: Action
    counts: CoverageCounts
    reward: float


class DutModel(ABC):
    """Behavioral contract any design model (local or bridged) satisfies.

    ``step`` must be a pure function of the action and the seed: a design
    that keeps state resets it at the top of ``step``.
    """

    # How many hinted episodes may wait for their step; 0 means none are hinted.
    lookahead = 0

    def hint(self, action: Action, seed: int) -> None:
        """Announce that ``step(action, seed)`` follows, after the steps of earlier hints."""

    def reset(self, seed: int) -> None:
        """Never called by covsteer; kept only because ``bench/tracer.py`` binds it by name."""

    @abstractmethod
    def step(self, action: Action, seed: int) -> CoverageCounts:
        """Expand the action into stimulus from ``stimulus_rng(seed)``, simulate, count events."""

    @abstractmethod
    def event_names(self) -> tuple[str, ...]:
        """Names of the tracked events, in id order. Multipliers come from config."""

    @abstractmethod
    def action_space(self) -> ActionSpace:
        """The knob space this design is driven from."""


class Environment:
    """Binds a design model to an event/multiplier list and runs its episodes."""

    def __init__(self, dut: DutModel, multipliers: Mapping[str, float] | None = None):
        self.dut = dut
        self.space = dut.action_space()
        names = dut.event_names()
        mult = dict(multipliers or {})
        unknown = set(mult) - set(names)
        if unknown:
            raise ValueError(f"unknown event names in multipliers: {sorted(unknown)}")
        self.events = tuple(
            EventSpec(id=i, name=n, multiplier=float(mult.get(n, 0.0)))
            for i, n in enumerate(names)
        )
        self._seed: int | None = None

    def reset(self, seed: int) -> None:
        """Record the seed of the episodes that ``step`` runs; the design model is not called."""
        self._seed = int(seed)

    def _check(self, action: Action) -> None:
        violations = validate(self.space, action)
        if violations:
            raise InvalidActionError(violations)

    def hint(self, action: Action, seed: int) -> None:
        """Check an upcoming episode's action and announce it to the design model."""
        self._check(action)
        self.dut.hint(action, seed)

    def step(self, action: Action) -> StepResult:
        """Run the episode of the last reset's seed with this action."""
        if self._seed is None:
            raise EpisodeProtocolError("step needs a reset first")
        self._check(action)
        counts = tuple(int(c) for c in self.dut.step(action, self._seed))
        return StepResult(reward=compute_reward(counts, self.events), counts=counts)


def run_campaign(
    env: Environment,
    agent,
    episodes: int,
    seed: int,
    on_record: Callable[[EpisodeRecord], None] | None = None,
) -> CumulativeCoverage:
    """Run the reset/propose/step/observe loop for a fixed episode count.

    With a design lookahead of W, episodes are seeded, proposed and hinted
    up to W ahead of the one being stepped, but only as far as
    ``agent.observes_until_update()`` reaches. An exception raised while
    looking ahead is raised on its episode's own turn, so the episodes
    before it are stepped and logged first, as in a one-at-a-time loop.

    The record callback fires after every episode, so a partially written
    log survives an abort. Raises whatever the environment or agent raises.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    rng = agent_rng(seed)
    cumulative = CumulativeCoverage.zero(len(env.events))
    window = env.dut.lookahead
    ahead: deque = deque()  # (seed, action, error) of hinted episodes, oldest first
    for ep in range(episodes):
        if window:
            horizon = min(episodes, ep + window)
            until = agent.observes_until_update()
            if until is not None:
                horizon = min(horizon, ep + until)
            for j in range(ep + len(ahead), horizon):
                if ahead and ahead[-1][2] is not None:
                    break
                ahead.append(_propose_ahead(env, agent, rng, episode_seed(seed, j)))
            ep_seed, action, error = ahead.popleft()
            if error is not None:
                raise error
            env.reset(ep_seed)
        else:
            env.reset(episode_seed(seed, ep))
            action = agent.propose(rng)
        result = env.step(action)
        agent.observe(action, result.reward)
        if on_record is not None:
            on_record(EpisodeRecord(ep, action, result.counts, result.reward))
        cumulative = cumulative.merge(result.counts)
    return cumulative


def _propose_ahead(env: Environment, agent, rng, ep_seed: int) -> tuple:
    try:
        action = agent.propose(rng)
        env.hint(action, ep_seed)
    except Exception as exc:  # noqa: BLE001 - run_campaign raises it on the episode's turn
        return ep_seed, None, exc
    return ep_seed, action, None
