"""Episodes, the design-model contract, and the campaign loop.

An episode is a pure function of its seed and its action, as in a bandit:
the agent picks knob values once, the design model expands them into
stimulus from the seed's random stream and simulates it, and the episode
ends. An episode is one call, ``Environment.step(action, seed)``: it
validates the action, calls ``dut.step(action, seed)``, and returns the
per-event counts and the multiplier-weighted reward. The environment keeps
no state between calls, so a repeated or retried step replays the episode.

A design with a ``lookahead`` (a bridged one) is told of episodes before
their turn: ``run_campaign`` seeds, proposes and hints up to that many
episodes ahead of the one it steps, so the design can start on them while
the agent works. It never looks past the agent's next policy update, so
every proposal is the one a one-at-a-time loop would draw. An in-process
design (``lookahead`` 0) is never hinted and sees each episode's seed,
proposal, step and observation in turn.

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
from .errors import InvalidActionError

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

    def reset(self, seed: int) -> None:
        """Never called by covsteer; kept only because ``bench/tracer.py`` binds it by name."""

    def _check(self, action: Action) -> None:
        violations = validate(self.space, action)
        if violations:
            raise InvalidActionError(violations)

    def hint(self, action: Action, seed: int) -> None:
        """Check an upcoming episode's action and announce it to the design model."""
        self._check(action)
        self.dut.hint(action, seed)

    def step(self, action: Action, seed: int) -> StepResult:
        """Run the episode of this seed with this action."""
        self._check(action)
        counts = tuple(int(c) for c in self.dut.step(action, seed))
        return StepResult(reward=compute_reward(counts, self.events), counts=counts)


def run_campaign(
    env: Environment,
    agent,
    episodes: int,
    seed: int,
    on_record: Callable[[EpisodeRecord], None] | None = None,
) -> CumulativeCoverage:
    """Run the seed/propose/step/observe loop for a fixed episode count.

    Episodes are seeded and proposed up to the design's lookahead (at least
    one) ahead of the one being stepped, but only as far as
    ``agent.observes_until_update()`` reaches; a design with a lookahead is
    hinted of each. An exception raised while looking ahead is raised on
    its episode's own turn, so the episodes before it are stepped and
    logged first, as in a one-at-a-time loop.

    The record callback fires after every episode, so a partially written
    log survives an abort. Raises whatever the environment or agent raises.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    rng = agent_rng(seed)
    cumulative = CumulativeCoverage.zero(len(env.events))
    hint = env.hint if env.dut.lookahead else None
    window = max(env.dut.lookahead, 1)
    ahead: deque = deque()  # (seed, action, error) of proposed episodes, oldest first
    for ep in range(episodes):
        horizon = min(episodes, ep + window)
        until = agent.observes_until_update()
        if until is not None:
            horizon = min(horizon, ep + until)
        for j in range(ep + len(ahead), horizon):
            if ahead and ahead[-1][2] is not None:
                break
            ahead.append(_propose(agent, rng, episode_seed(seed, j), hint))
        ep_seed, action, error = ahead.popleft()
        if error is not None:
            raise error
        result = env.step(action, ep_seed)
        agent.observe(action, result.reward)
        if on_record is not None:
            on_record(EpisodeRecord(ep, action, result.counts, result.reward))
        cumulative = cumulative.merge(result.counts)
    return cumulative


def _propose(agent, rng, ep_seed: int, hint) -> tuple:
    try:
        action = agent.propose(rng)
        if hint is not None:
            hint(action, ep_seed)
    except Exception as exc:  # noqa: BLE001 - run_campaign raises it on the episode's turn
        return ep_seed, None, exc
    return ep_seed, action, None
