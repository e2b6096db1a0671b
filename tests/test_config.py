import json
import tempfile
from dataclasses import fields
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from covsteer.agents import RandomAgent
from covsteer.axi import MAX_CYCLES_PER_STEP, N_SLAVES, AxiConfig
from covsteer.cli import cmd_run
from covsteer.config import (
    _CEM_DEFAULTS,
    AGENT_KINDS,
    DESIGNS,
    build_config,
    make_design,
    parse_config,
)
from covsteer.env import Environment, run_campaign
from covsteer.errors import ConfigError
from covsteer.reporting import read_episode_log, run_totals
from covsteer.rle import EVENT_NAMES, RleDut

from conftest import json_values

HUGE_INT = 10**400  # an integer beyond the float range
DIGITS_INT = 10**5000  # too many digits to print, so no config file carries it


def write(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


class TestParseConfig:
    def test_reference_rle_experiment(self, tmp_path):
        cfg = parse_config(
            write(
                tmp_path,
                {
                    "dut": "rle",
                    "agent": "cem",
                    "episodes": 1000,
                    "seed": 7,
                    "multipliers": {"e3_partial_count": 1},
                },
            )
        )
        assert cfg.dut == "rle"
        assert cfg.agent == "cem"
        assert cfg.multipliers == {"e3_partial_count": 1.0}
        cem_defaults = {
            "batch_size": 50,
            "elite_frac": 0.2,
            "smoothing": 0.7,
            "sigma_min_frac": 0.05,
            "prob_floor": 0.01,
        }
        assert cfg.agent_params == cem_defaults
        assert list(cfg.agent_params) == list(cem_defaults)
        assert "out_dir" in cfg.defaulted
        assert all(f"agent_params.{k}" in cfg.defaulted for k in cem_defaults)

    def test_empty_multipliers_means_zero_reward(self, tmp_path):
        cfg = parse_config(write(tmp_path, {"dut": "rle"}))
        assert cfg.multipliers == {}
        env = Environment(RleDut(), cfg.multipliers)
        records = []
        run_campaign(env, RandomAgent(env.space), 5, seed=0, on_record=records.append)
        assert all(r.reward == 0.0 for r in records)

    def test_unknown_event_name(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown event.*e9"):
            parse_config(write(tmp_path, {"dut": "rle", "multipliers": {"e9": 1}}))

    def test_axi_event_names_accepted(self, tmp_path):
        cfg = parse_config(
            write(tmp_path, {"dut": "axi", "multipliers": {"fifo_full_slave_4": 1}})
        )
        assert cfg.multipliers["fifo_full_slave_4"] == 1.0

    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config key: episoeds"):
            parse_config(write(tmp_path, {"dut": "rle", "episoeds": 10}))

    def test_non_positive_episodes(self, tmp_path):
        with pytest.raises(ConfigError, match="episodes"):
            parse_config(write(tmp_path, {"dut": "rle", "episodes": 0}))

    def test_unknown_dut(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown dut"):
            parse_config(write(tmp_path, {"dut": "fft"}))

    def test_unknown_agent(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown agent"):
            parse_config(write(tmp_path, {"dut": "rle", "agent": "sac"}))

    def test_bridge_endpoints(self, tmp_path):
        cfg = parse_config(write(tmp_path, {"dut": "bridge:localhost:4000"}))
        assert cfg.dut == "bridge:localhost:4000"
        # getaddrinfo wraps port 70000 to 4464 and overflows on 20 digits;
        # "²" is a digit to str.isdigit but not to int()
        for dut in ("bridge:nowhere", "bridge::4000", "bridge:localhost:0",
                    "bridge:localhost:70000", "bridge:localhost:99999999999999999999",
                    "bridge:localhost:\u00b2", "bridge:localhost:" + "9" * 5000):
            with pytest.raises(ConfigError, match="bridge endpoint"):
                parse_config(write(tmp_path, {"dut": dut}))
        assert build_config({"dut": "bridge:localhost:65535"}).dut.endswith("65535")

    def test_bridge_defers_multiplier_validation(self, tmp_path):
        cfg = parse_config(
            write(tmp_path, {"dut": "bridge:localhost:4000", "multipliers": {"custom": 2}})
        )
        assert cfg.multipliers == {"custom": 2.0}

    def test_dut_params_validated_per_dut(self, tmp_path):
        cfg = parse_config(
            write(tmp_path, {"dut": "axi", "dut_params": {"fifo_depth": 8}})
        )
        assert cfg.dut_params == {"fifo_depth": 8}
        with pytest.raises(ConfigError, match="dut_params"):
            parse_config(write(tmp_path, {"dut": "rle", "dut_params": {"fifo_depth": 8}}))
        # a region of 10**30 bytes passes the field checks but not the int64 address draw;
        # 10**12 cycles would ask numpy for a 14.6 TiB address array in the first step
        for bad in ({"fifo_depth": 0}, {"drain_period": 2.5}, {"n_slaves": 4},
                    {"region_size": 10**30}, {"region_size": (1 << 63) // 10 + 1},
                    {"cycles_per_step": 10**12}, {"cycles_per_step": 100_001}):
            with pytest.raises(ConfigError, match="dut_params"):
                parse_config(write(tmp_path, {"dut": "axi", "dut_params": bad}))

    def test_agent_params_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="agent_params"):
            parse_config(
                write(tmp_path, {"dut": "rle", "agent_params": {"learning_rate": 0.1}})
            )

    @pytest.mark.parametrize(
        "params",
        [
            {"elite_frac": 0.0},
            {"elite_frac": 1.5},
            {"smoothing": -0.1},
            {"batch_size": 0},
            {"batch_size": 2.5},
            {"sigma_min_frac": 0.0},
            {"prob_floor": -0.01},
            # Non-finite values parse from JSON; a huge stddev floor spins propose.
            {"sigma_min_frac": float("nan")},
            {"sigma_min_frac": float("inf")},
            {"sigma_min_frac": 1e300},
            {"sigma_min_frac": 0.6},
            {"elite_frac": float("nan")},
            {"smoothing": float("nan")},
            {"prob_floor": float("inf")},
            {"elite_frac": HUGE_INT},
            {"smoothing": -HUGE_INT},
            {"prob_floor": HUGE_INT},
            # A batch_size the summary could not print, or that overflows a refit.
            {"batch_size": HUGE_INT},
            {"batch_size": DIGITS_INT},
        ],
    )
    def test_agent_params_out_of_range(self, tmp_path, params):
        (name,) = params
        for dut in ("rle", "axi"):
            with pytest.raises(ConfigError, match=rf"^agent_params\.{name} ") as exc:
                build_config({"dut": dut, "agent": "cem", "agent_params": params})
            assert len(str(exc.value)) < 100  # the value itself is never printed
        if params[name] is not DIGITS_INT:
            with pytest.raises(ConfigError, match="agent_params"):
                parse_config(write(tmp_path, {"dut": "rle", "agent_params": params}))

    @pytest.mark.parametrize(
        "dut, params",
        [("rle", {"prob_floor": 0.5}), ("axi", {"prob_floor": 1e300})],
        ids=["rle_prob_floor", "axi_prob_floor"],
    )
    def test_agent_params_checked_against_the_designs_knobs(self, dut, params):
        # Checked whatever the agent kind; a bridged design's knobs arrive at hello.
        for agent in AGENT_KINDS:
            with pytest.raises(ConfigError, match=r"^agent_params\."):
                build_config({"dut": dut, "agent": agent, "agent_params": params})
        build_config({"dut": "bridge:localhost:4000", "agent_params": params})

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf"), pytest.param(HUGE_INT, id="10**400")]
    )
    def test_non_finite_multiplier_rejected(self, tmp_path, value):
        with pytest.raises(ConfigError, match="e0_word_full"):
            parse_config(write(tmp_path, {"dut": "rle", "multipliers": {"e0_word_full": value}}))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config(path)

    @pytest.mark.parametrize(
        "text",
        [
            '{"dut": "rle", "seed": ' + "9" * 5000 + "}",  # beyond int's string limit
            '{"dut": "rle", "multipliers": ' + "[" * 10**5 + "]" * 10**5 + "}",
        ],
        ids=["5000_digits", "nested_1e5"],
    )
    def test_unparseable_json_rejected(self, tmp_path, text):
        path = tmp_path / "hostile.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config(path)

    @pytest.mark.parametrize(
        "key, value",
        [("out_dir", ""), ("out_dir", 7), ("agent", []), ("dut", 3),
         ("episodes", True), ("seed", 1.5), ("multipliers", []), ("agent_params", []),
         ("dut_params", [])],
    )
    def test_bad_top_level_value_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"'{key}'|unknown {key}"):
            build_config({"dut": "rle", key: value})

    def test_negative_seed_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="seed"):
            parse_config(write(tmp_path, {"dut": "rle", "seed": -1}))

    @pytest.mark.parametrize("seed", [1 << 64, 10**5000], ids=["2**64", "5000_digits"])
    def test_seed_beyond_64_bits_rejected(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            build_config({"dut": "rle", "seed": seed})


class TestOverrides:
    def test_cli_overrides_win(self, tmp_path):
        path = write(tmp_path, {"dut": "rle", "episodes": 10, "seed": 1})
        cfg = parse_config(path, {"episodes": 20, "seed": 2, "agent": "cem", "out_dir": "x"})
        assert (cfg.episodes, cfg.seed, cfg.agent, cfg.out_dir) == (20, 2, "cem", "x")

    def test_numpy_integer_overrides_become_ints(self):
        cfg = build_config({"dut": "rle"}, {"episodes": np.int64(20), "seed": np.uint64(2)})
        assert (cfg.episodes, cfg.seed, cfg.out_dir) == (20, 2, "runs/rle_random_seed2")
        assert type(cfg.episodes) is int and type(cfg.seed) is int
        json.dumps(cfg.to_json_dict())  # the summary's echo of the config

    def test_none_overrides_ignored(self, tmp_path):
        path = write(tmp_path, {"dut": "rle", "episodes": 10})
        cfg = parse_config(path, {"episodes": None})
        assert cfg.episodes == 10

    def test_overridden_keys_not_marked_defaulted(self, tmp_path):
        path = write(tmp_path, {"dut": "rle"})
        cfg = parse_config(path, {"agent": "cem"})
        assert "agent" not in cfg.defaulted


def test_defaults_applied_and_recorded():
    cfg = build_config({"dut": "rle"})
    assert cfg.episodes == 1000
    assert cfg.seed == 0
    assert cfg.agent == "random"
    for key in ("agent", "episodes", "seed", "multipliers", "dut_params", "out_dir"):
        assert key in cfg.defaulted


_REALS = st.integers() | st.integers().map(lambda n: n * 10**400) | st.floats()
_PARAM_VALUES = st.dictionaries(
    st.sampled_from(
        sorted(_CEM_DEFAULTS) + [f.name for f in fields(AxiConfig)] + list(EVENT_NAMES)
    )
    | st.text(max_size=6),
    _REALS | json_values,
    max_size=4,
)
_CONFIGS = st.fixed_dictionaries(
    {"dut": st.sampled_from(["rle", "axi", "bridge:localhost:4000"]) | json_values},
    optional={
        "agent": st.sampled_from(["random", "cem"]) | json_values,
        "episodes": st.integers(1, 10) | json_values,
        "seed": st.integers(0, 10) | json_values,
        "multipliers": _PARAM_VALUES | json_values,
        "agent_params": _PARAM_VALUES | json_values,
        "dut_params": _PARAM_VALUES | json_values,
        "out_dir": st.just("runs/x") | json_values,
    },
)


@settings(max_examples=300)
@given(_CONFIGS | json_values)
def test_build_config_raises_only_config_errors(raw):
    try:
        build_config(raw)
    except ConfigError:
        pass


# Configs of the bundled designs with every number at or near the edge of
# what its check accepts, so that most of them are accepted and run.
_MAX_REGION = (1 << 63) // N_SLAVES
_EDGE_AGENT_PARAMS = st.fixed_dictionaries(
    {},
    optional={
        "batch_size": st.integers(1, 70) | st.sampled_from([10**18, HUGE_INT]),
        "elite_frac": st.floats(0.0, 1.0) | st.just(5e-324),
        "smoothing": st.floats(0.0, 1.0),
        "sigma_min_frac": st.floats(0.0, 0.5) | st.just(5e-324),
        "prob_floor": st.floats(0.0, 1.0) | st.sampled_from([0.1, 0.125, 1e300]),
    },
)
# cycles_per_step stays small but for one explicit example at the limit,
# which alone costs a few hundred milliseconds an episode.
_EDGE_DUT_PARAMS = {
    "rle": st.just({}),
    "axi": st.fixed_dictionaries(
        {},
        optional={
            "fifo_depth": st.integers(0, 6) | st.just(HUGE_INT),
            "region_size": st.integers(0, 4096) | st.sampled_from([_MAX_REGION, _MAX_REGION + 1]),
            "cycles_per_step": st.integers(0, 120) | st.just(MAX_CYCLES_PER_STEP + 1),
            "drain_period": st.integers(0, 5) | st.just(HUGE_INT),
        },
    ),
}
_MULTIPLIERS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [1e308, -1e308, 5e306]
)


@st.composite
def bundled_configs(draw):
    dut = draw(st.sampled_from(sorted(DESIGNS)))
    events = make_design(dut).event_names + ("e9",)
    return {
        "dut": dut,
        "agent": draw(st.sampled_from(AGENT_KINDS)),
        "episodes": draw(st.integers(1, 60)),
        "seed": draw(st.integers(0, (1 << 64) - 1)),
        "multipliers": draw(st.dictionaries(st.sampled_from(events), _MULTIPLIERS, max_size=3)),
        "agent_params": draw(_EDGE_AGENT_PARAMS),
        "dut_params": draw(_EDGE_DUT_PARAMS[dut]),
    }


@settings(max_examples=300, deadline=timedelta(seconds=5))
@example({"dut": "rle", "agent": "cem", "episodes": 3, "agent_params": {"prob_floor": 0.5}})
@example({"dut": "rle", "agent": "random", "episodes": 3, "agent_params": {"batch_size": HUGE_INT}})
@example({"dut": "axi", "episodes": 1, "dut_params": {"cycles_per_step": MAX_CYCLES_PER_STEP}})
@given(bundled_configs())
def test_every_accepted_bundled_config_runs_clean(raw):
    """What build_config accepts runs to its artifacts, or is refused for a non-finite reward."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        try:
            config = build_config(raw, {"out_dir": str(out)})
        except ConfigError as exc:
            event(f"refused: {str(exc).split(maxsplit=1)[0]}")
            return
        try:
            cmd_run(config)
        except ValueError as exc:
            assert "not finite" in str(exc) and str(exc).startswith(("reward", "total reward"))
            event("run refused: reward not finite")
            return
        event("run clean")
        summary = json.loads((out / "summary.json").read_text())
        log = read_episode_log(out)
        totals = run_totals(log.tally(), log.event_names)
        assert {key: summary[key] for key in totals} == totals
        assert summary["episodes"] == config.episodes
        for hist in summary["knob_histograms"].values():
            assert sum(b["count"] for b in hist["bins"]) == config.episodes


# Accepted agent_params and dut_params values as the Python API may pass
# them: numpy scalars and Fractions, none of which json can write.
def _scalar(types, values):
    return st.tuples(st.sampled_from(types), values).map(lambda t: t[0](t[1]))


_INTEGERS = (np.int64, np.int32, np.uint64)
_REALS = (np.float32, np.float64, Fraction)
_SCALAR_AGENT_PARAMS = st.fixed_dictionaries(
    {},
    optional={
        "batch_size": _scalar(_INTEGERS, st.integers(1, 20)),
        "elite_frac": _scalar(_REALS, st.floats(0.05, 1.0)) | st.just(np.int64(1)),
        "smoothing": _scalar(_REALS, st.floats(0.0, 1.0)) | st.fractions(0, 1)
        | _scalar(_INTEGERS, st.integers(0, 1)),
        "sigma_min_frac": _scalar(_REALS, st.floats(0.01, 0.5)),
        "prob_floor": _scalar(_REALS, st.floats(0.0, 0.05)),
    },
)
_SCALAR_DUT_PARAMS = {
    "rle": st.just({}),
    "axi": st.fixed_dictionaries(
        {},
        optional={
            "fifo_depth": _scalar(_INTEGERS, st.integers(1, 6)),
            "region_size": _scalar(_INTEGERS, st.integers(1, 4096)),
            "cycles_per_step": _scalar(_INTEGERS, st.integers(0, 40)),
            "drain_period": _scalar(_INTEGERS, st.integers(1, 5)),
        },
    ),
}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_accepted_numpy_and_fraction_params_run_and_echo_as_json(data):
    """Config stores what it accepts as plain int and float, so the run writes it and re-runs from it."""
    dut = data.draw(st.sampled_from(sorted(DESIGNS)))
    raw = {
        "dut": dut,
        "agent": "cem",
        "episodes": data.draw(st.integers(1, 30)),
        "agent_params": data.draw(_SCALAR_AGENT_PARAMS),
        "dut_params": data.draw(_SCALAR_DUT_PARAMS[dut]),
    }
    with tempfile.TemporaryDirectory() as tmp:
        first, again = Path(tmp) / "first", Path(tmp) / "again"
        config = build_config(raw, {"out_dir": str(first)})
        cmd_run(config)
        summary = json.loads((first / "summary.json").read_text())
        stored = config.to_json_dict()
        assert summary["config"] == stored
        defaults = {**_CEM_DEFAULTS, **{f.name: f.default for f in fields(AxiConfig)}}
        for key in ("agent_params", "dut_params"):
            for name, value in stored[key].items():
                assert type(value) is type(defaults[name]), (name, value)
                assert value == float(raw[key].get(name, value)), (name, value)
        # The echo is the run: re-running it logs the same episodes.
        cmd_run(build_config(summary["config"], {"out_dir": str(again)}))
        for name in ("episodes.csv", "histograms.csv"):
            assert (first / name).read_bytes() == (again / name).read_bytes()
