"""Run configuration: JSON file schema, validation, defaults.

Schema (all keys optional except ``dut``):

.. code-block:: json

    {
      "dut": "rle",                  // "rle" | "axi" | "bridge:<host>:<port>"
      "agent": "random",             // "random" | "cem"
      "episodes": 1000,
      "seed": 0,
      "multipliers": {"e3_partial_count": 1.0},
      "agent_params": {"batch_size": 50},  // CemAgent keyword arguments
      "dut_params": {"fifo_depth": 4},     // axi only: AxiConfig fields
      "out_dir": "runs/rle_random_seed0"
    }

Multiplier keys must name events of the chosen design; events left out get
multiplier 0. Numbers must be finite: json parses ``NaN`` and ``Infinity``,
and both are rejected. Every key the file leaves out is defaulted and the
applied defaults are echoed into the run's summary.

The ``agent_params`` keys, defaults and range checks are those of
``agents.CemAgent``; the ``dut_params`` keys, defaults and checks are the
fields of ``axi.AxiConfig``. ``dut_params`` is echoed as given, with the
design's defaults left implicit.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field, fields

from . import axi, rle
from .actionspace import is_finite_real
from .agents import CemAgent, check_cem_params
from .errors import ConfigError

AGENT_KINDS = ("random", "cem")

# CemAgent's keyword defaults, in signature order.
_CEM_DEFAULTS = {
    name: p.default
    for name, p in inspect.signature(CemAgent).parameters.items()
    if p.default is not p.empty
}

# Bundled designs: event names for early validation.
DUT_EVENT_NAMES = {"rle": rle.EVENT_NAMES, "axi": axi.EVENT_NAMES}

_TOP_KEYS = {
    "dut",
    "agent",
    "episodes",
    "seed",
    "multipliers",
    "agent_params",
    "dut_params",
    "out_dir",
}


@dataclass(frozen=True)
class RunConfig:
    dut: str
    agent: str = "random"
    episodes: int = 1000
    seed: int = 0
    multipliers: dict = field(default_factory=dict)
    agent_params: dict = field(default_factory=lambda: dict(_CEM_DEFAULTS))
    dut_params: dict = field(default_factory=dict)
    out_dir: str = ""
    defaulted: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "dut": self.dut,
            "agent": self.agent,
            "episodes": self.episodes,
            "seed": self.seed,
            "multipliers": dict(self.multipliers),
            "agent_params": dict(self.agent_params),
            "dut_params": dict(self.dut_params),
            "out_dir": self.out_dir,
        }


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def build_config(raw: dict, overrides: dict | None = None) -> RunConfig:
    """Validate a raw mapping and apply defaults; overrides win over the file."""
    _require(isinstance(raw, dict), "config must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config key: {sorted(unknown)[0]}")
    merged = dict(raw)
    for key, value in (overrides or {}).items():
        if value is not None:
            _require(key in _TOP_KEYS, f"unknown config key: {key}")
            merged[key] = value

    defaulted = []

    _require("dut" in merged, "config key 'dut' is required")
    dut = merged["dut"]
    _require(isinstance(dut, str), "config key 'dut' must be a string")
    is_bridge = dut.startswith("bridge:")
    _require(
        dut in DUT_EVENT_NAMES or is_bridge,
        f"unknown dut {dut!r}: expected 'rle', 'axi' or 'bridge:<host>:<port>'",
    )
    if is_bridge:
        endpoint = dut[len("bridge:") :]
        host, sep, port = endpoint.rpartition(":")
        _require(
            bool(host) and sep == ":" and port.isdigit(),
            f"bridge endpoint {endpoint!r} must look like <host>:<port>",
        )

    agent = merged.get("agent")
    if agent is None:
        agent = "random"
        defaulted.append("agent")
    _require(agent in AGENT_KINDS, f"unknown agent {agent!r}: expected one of {AGENT_KINDS}")

    episodes = merged.get("episodes")
    if episodes is None:
        episodes = 1000
        defaulted.append("episodes")
    _require(_is_int(episodes) and episodes >= 1, "config key 'episodes' must be a positive integer")

    seed = merged.get("seed")
    if seed is None:
        seed = 0
        defaulted.append("seed")
    _require(
        _is_int(seed) and 0 <= seed < 1 << 64,
        "config key 'seed' must be an integer in [0, 2**64)",
    )

    multipliers = merged.get("multipliers")
    if multipliers is None:
        multipliers = {}
        defaulted.append("multipliers")
    _require(isinstance(multipliers, dict), "config key 'multipliers' must be an object")
    for name, value in multipliers.items():
        _require(is_finite_real(value), f"multiplier for {name!r} must be a finite number")
    if not is_bridge:
        known = set(DUT_EVENT_NAMES[dut])
        bad = set(multipliers) - known
        if bad:
            raise ConfigError(f"unknown event in multipliers: {sorted(bad)[0]!r}")
    multipliers = {str(k): float(v) for k, v in multipliers.items()}

    agent_params = dict(_CEM_DEFAULTS)
    given = merged.get("agent_params")
    if given is None:
        given = {}
    _require(isinstance(given, dict), "config key 'agent_params' must be an object")
    bad = set(given) - set(_CEM_DEFAULTS)
    if bad:
        raise ConfigError(f"unknown agent_params key: {sorted(bad)[0]!r}")
    defaulted.extend(f"agent_params.{k}" for k in _CEM_DEFAULTS if k not in given)
    agent_params.update(given)
    try:
        check_cem_params(**agent_params)
    except ValueError as exc:
        raise ConfigError(f"agent_params.{exc}") from None

    dut_params = merged.get("dut_params")
    if dut_params is None:
        dut_params = {}
        defaulted.append("dut_params")
    _require(isinstance(dut_params, dict), "config key 'dut_params' must be an object")
    allowed = {f.name for f in fields(axi.AxiConfig)} if dut == "axi" else set()
    bad = set(dut_params) - allowed
    if bad:
        raise ConfigError(f"unknown dut_params key for {dut!r}: {sorted(bad)[0]!r}")
    if dut == "axi":
        try:
            axi.AxiConfig(**dut_params)
        except ValueError as exc:
            raise ConfigError(f"dut_params.{exc}") from None

    out_dir = merged.get("out_dir")
    if out_dir is None:
        out_dir = f"runs/{dut.replace(':', '_')}_{agent}_seed{seed}"
        defaulted.append("out_dir")
    _require(isinstance(out_dir, str) and out_dir, "config key 'out_dir' must be a non-empty string")

    return RunConfig(
        dut=dut,
        agent=agent,
        episodes=episodes,
        seed=seed,
        multipliers=multipliers,
        agent_params=agent_params,
        dut_params=dict(dut_params),
        out_dir=out_dir,
        defaulted=tuple(defaulted),
    )


def parse_config(path, overrides: dict | None = None) -> RunConfig:
    """Load and validate a config file; ConfigError names the offending key."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc.msg} (line {exc.lineno})") from None
    except (ValueError, RecursionError) as exc:  # over-long integers, deep nesting
        raise ConfigError(f"config file is not valid JSON: {type(exc).__name__}") from None
    return build_config(raw, overrides)
