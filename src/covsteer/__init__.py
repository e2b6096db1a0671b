"""Coverage-steered stimulus generation for digital design verification.

An agent picks knob values, a design model turns them into stimulus and
simulates it, tracked functional events are counted, and a
multiplier-weighted reward steers the agent toward the rare ones. Ships
two reference designs (a run-length-encoding compressor and a 2x10 AXI
crossbar), a uniform-random baseline agent, a cross-entropy-method
learner, and a line-delimited JSON bridge for out-of-process designs.
"""

from .actionspace import (
    Action,
    ActionSpace,
    KnobSpec,
    Violation,
    sample_uniform,
    validate,
)
from .agents import Agent, CemAgent, RandomAgent
from .coverage import (
    CoverageCounts,
    CumulativeCoverage,
    EventSpec,
    compute_reward,
)
from .env import (
    DutModel,
    Environment,
    EpisodeRecord,
    StepResult,
    agent_rng,
    episode_seed,
    run_campaign,
    stimulus_rng,
)
from .errors import (
    BlockFormatError,
    BridgeDecodeError,
    BridgeError,
    BridgeProtocolError,
    ConfigError,
    CovsteerError,
    InvalidActionError,
    RemoteDutError,
    ReportError,
    ScoreboardError,
    TransportError,
)

__version__ = "0.1.0"

__all__ = [
    "Action",
    "ActionSpace",
    "Agent",
    "BlockFormatError",
    "BridgeDecodeError",
    "BridgeError",
    "BridgeProtocolError",
    "CemAgent",
    "ConfigError",
    "CoverageCounts",
    "CovsteerError",
    "CumulativeCoverage",
    "DutModel",
    "Environment",
    "EpisodeRecord",
    "EventSpec",
    "InvalidActionError",
    "KnobSpec",
    "RandomAgent",
    "RemoteDutError",
    "ReportError",
    "ScoreboardError",
    "StepResult",
    "TransportError",
    "Violation",
    "agent_rng",
    "compute_reward",
    "episode_seed",
    "run_campaign",
    "sample_uniform",
    "stimulus_rng",
    "validate",
]
