"""Run configuration: JSON file schema, validation, defaults.

Schema (all keys optional except ``dut``):

.. code-block:: json

    {
      "dut": "<design>",             // a name in DESIGNS | "bridge:<host>:<port>"
      "agent": "random",             // a name in AGENT_KINDS
      "episodes": 1000,
      "seed": 0,
      "multipliers": {"<event>": 1.0},     // event names of the design
      "agent_params": {"batch_size": 50},  // CemAgent keyword arguments
      "dut_params": {"<field>": 4},        // fields of the design's params class
      "out_dir": "runs/<dut>_<agent>_seed<seed>"
    }

``DESIGNS`` is the one table of bundled designs: each name maps to the
design's model class and to the dataclass its ``dut_params`` fill, or None
for a design that takes none. ``make_design`` builds a design from that
table for both ``build_config`` and ``cli.make_dut``, and ``covsteer serve``
takes its choices from it. A bridge port is 1-65535 in ASCII digits;
``parse_endpoint`` is the one parser of the endpoint.

A bundled config is checked by building its run the way ``cli.cmd_run``
does: the design from ``dut_params``, ``Environment(design, multipliers)``
and ``CemAgent(env.space, **agent_params)``, whatever the agent kind. A
``ValueError`` from any of them becomes a ``ConfigError`` led by its key,
so what ``build_config`` accepts runs. A bridged design's knobs and events
arrive with its hello, so its multiplier names and the per-knob agent
checks wait for ``cmd_run``; config checks only ``check_cem_params``.

Multiplier keys must name events of the chosen design; events left out get
multiplier 0. Numbers must be finite: json parses ``NaN`` and ``Infinity``,
and both are rejected. Every key the file leaves out takes ``RunConfig``'s
default (``out_dir`` is derived from dut, agent and seed) and the applied
defaults are echoed into the run's summary.

The ``agent_params`` keys, defaults and range checks are those of
``agents.CemAgent``; the ``dut_params`` keys, defaults and checks are the
fields of the design's params class. ``dut_params`` is echoed as given,
with the design's defaults left implicit.
"""

from __future__ import annotations

import inspect
import json
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields

from . import axi, rle
from .actionspace import is_finite_real, is_integer
from .agents import CemAgent, check_cem_params
from .env import DutModel, Environment
from .errors import ConfigError

AGENT_KINDS = ("random", "cem")

# Bundled designs: name -> (model class, dut_params dataclass or None).
DESIGNS = {
    "rle": (rle.RleDut, None),
    "axi": (axi.AxiDut, axi.AxiConfig),
}

# CemAgent's keyword defaults, in signature order.
_CEM_DEFAULTS = {
    name: p.default
    for name, p in inspect.signature(CemAgent).parameters.items()
    if p.default is not p.empty
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
        out = asdict(self)
        del out["defaulted"]
        return out


# The config file's keys: every RunConfig field but the defaults record.
_FIELDS = {f.name: f for f in fields(RunConfig) if f.name != "defaulted"}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def parse_endpoint(dut: str) -> tuple[str, int]:
    """Split ``bridge:<host>:<port>`` into host and port, a port of 1-65535 in ASCII digits."""
    endpoint = dut[len("bridge:") :]
    host, _, port = endpoint.rpartition(":")
    _require(
        bool(host) and port.isascii() and port.isdigit() and len(port) <= 5
        and 0 < int(port) < 65536,
        f"bridge endpoint {endpoint!r} must look like <host>:<port> with port 1-65535",
    )
    return host, int(port)


def make_design(name: str, dut_params: dict | None = None) -> DutModel:
    """Build the bundled design ``name``; its params class raises ValueError on bad ``dut_params``."""
    dut_cls, params_cls = DESIGNS.get(name, (None, None))
    if params_cls is None and dut_params:
        raise ConfigError(f"dut {name!r} takes no dut_params")
    if dut_cls is None:
        raise ConfigError(f"unknown dut {name!r}")
    return dut_cls(params_cls(**dut_params or {})) if params_cls else dut_cls()


@contextmanager
def _refused_as(prefix: str):
    """Re-raise a constructor's ValueError as a ConfigError, its message led by ``prefix``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def build_config(raw: dict, overrides: dict | None = None) -> RunConfig:
    """Validate a raw mapping and apply defaults; overrides win over the file."""
    _require(isinstance(raw, dict), "config must be a JSON object")
    unknown = set(raw) - set(_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config key: {sorted(unknown)[0]}")
    merged = dict(raw)
    for key, value in (overrides or {}).items():
        if value is not None:
            _require(key in _FIELDS, f"unknown config key: {key}")
            merged[key] = value

    defaulted = []

    def given(key):
        """The merged value of ``key``, or RunConfig's default recorded as applied."""
        if merged.get(key) is not None:
            return merged[key]
        defaulted.append(key)
        f = _FIELDS[key]
        return f.default_factory() if f.default is MISSING else f.default

    _require("dut" in merged, "config key 'dut' is required")
    dut = merged["dut"]
    _require(isinstance(dut, str), "config key 'dut' must be a string")
    is_bridge = dut.startswith("bridge:")
    _require(
        dut in DESIGNS or is_bridge,
        f"unknown dut {dut!r}: expected one of {tuple(DESIGNS)} or 'bridge:<host>:<port>'",
    )
    if is_bridge:
        parse_endpoint(dut)

    agent = given("agent")
    _require(agent in AGENT_KINDS, f"unknown agent {agent!r}: expected one of {AGENT_KINDS}")

    episodes = given("episodes")
    _require(is_integer(episodes) and episodes >= 1, "config key 'episodes' must be a positive integer")

    seed = given("seed")
    _require(
        is_integer(seed) and 0 <= seed < 1 << 64,
        "config key 'seed' must be an integer in [0, 2**64)",
    )

    multipliers = given("multipliers")
    _require(isinstance(multipliers, dict), "config key 'multipliers' must be an object")
    for name, value in multipliers.items():
        _require(is_finite_real(value), f"multiplier for {name!r} must be a finite number")
    multipliers = {str(k): float(v) for k, v in multipliers.items()}

    agent_params = dict(_CEM_DEFAULTS)
    given_params = merged.get("agent_params")
    if given_params is None:
        given_params = {}
    _require(isinstance(given_params, dict), "config key 'agent_params' must be an object")
    bad = set(given_params) - set(_CEM_DEFAULTS)
    if bad:
        raise ConfigError(f"unknown agent_params key: {sorted(bad)[0]!r}")
    defaulted.extend(f"agent_params.{k}" for k in _CEM_DEFAULTS if k not in given_params)
    agent_params.update(given_params)

    dut_params = given("dut_params")
    _require(isinstance(dut_params, dict), "config key 'dut_params' must be an object")
    params_cls = None if is_bridge else DESIGNS[dut][1]
    allowed = {f.name for f in fields(params_cls)} if params_cls else set()
    bad = set(dut_params) - allowed
    if bad:
        raise ConfigError(f"unknown dut_params key for {dut!r}: {sorted(bad)[0]!r}")

    if is_bridge:
        with _refused_as("agent_params."):
            check_cem_params(**agent_params)
    else:
        # Build the run as cmd_run will; Environment's own message leads
        # with the multipliers key.
        with _refused_as("dut_params."):
            design = make_design(dut, dut_params)
        with _refused_as(""):
            space = Environment(design, multipliers).space
        with _refused_as("agent_params."):
            CemAgent(space, **agent_params)

    out_dir = merged.get("out_dir")
    if out_dir is None:
        out_dir = f"runs/{dut.replace(':', '_')}_{agent}_seed{seed}"
        defaulted.append("out_dir")
    _require(isinstance(out_dir, str) and out_dir, "config key 'out_dir' must be a non-empty string")

    return RunConfig(
        dut=dut,
        agent=agent,
        episodes=int(episodes),  # a numpy integer is accepted, and summary.json needs an int
        seed=int(seed),
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
