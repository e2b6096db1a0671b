import argparse
import itertools
import json
import operator
import socket
import subprocess
import sys
import tracemalloc
from functools import partial, reduce
from pathlib import Path

import numpy as np
import pytest

import covsteer
from covsteer import cli
from covsteer.bridge import connect_dut, serve_tcp
from covsteer.cli import _build_parser, cmd_report, main, make_agent, make_dut
from covsteer.config import AGENT_KINDS, DESIGNS, build_config
from covsteer.env import Environment, episode_seed, run_campaign
from covsteer.errors import ConfigError, CovsteerError, ReportError
from covsteer.reporting import read_episode_log
from covsteer.rle import RleDut

from conftest import run_into, scripted_server, step_reply, tcp_server

SRC_DIR = str(Path(covsteer.__file__).resolve().parent.parent)
# A child process's environment: the package on its path, and no bytecode
# cache written into the source tree.
CHILD_ENV = {"PYTHONPATH": SRC_DIR, "PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1"}


def reward_fold(records) -> float:
    """The records' rewards added left to right, whatever ``sum()`` does with floats."""
    return reduce(operator.add, (rec.reward for rec in records), 0.0)


def write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


def rle_config(**kw):
    base = {
        "dut": "rle",
        "agent": "cem",
        "episodes": 120,
        "seed": 5,
        "multipliers": {"e3_partial_count": 1},
    }
    base.update(kw)
    return base


class TestCmdRun:
    def test_artifacts_written(self, tmp_path):
        out = run_into(rle_config(episodes=30), tmp_path / "run")
        assert (out / "episodes.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "histograms.csv").exists()

    def test_single_episode_single_row(self, tmp_path):
        out = run_into(rle_config(episodes=1, agent="random"), tmp_path / "run")
        lines = (out / "episodes.csv").read_text().splitlines()
        assert len(lines) == 2  # header + one data row
        assert lines[0] == (
            "episode,zero_prob,count_width,seq_length,"
            "e0_word_full,e1_zc_full,e2_counter_mid,e3_partial_count,reward"
        )

    def test_byte_identical_reruns(self, tmp_path):
        # summary.json records the output directory, so both runs write to one.
        out = run_into(rle_config(), tmp_path / "run")
        first = [(out / name).read_bytes() for name in ("episodes.csv", "summary.json")]
        run_into(rle_config(), out)
        assert [(out / name).read_bytes() for name in ("episodes.csv", "summary.json")] == first

    def test_summary_totals_match_csv_sums(self, tmp_path):
        out = run_into(rle_config(episodes=80), tmp_path / "run")
        summary = json.loads((out / "summary.json").read_text())
        log = read_episode_log(out)
        assert summary["event_totals"] == {
            name: sum(rec.counts[i] for rec in log.records)
            for i, name in enumerate(log.event_names)
        }
        assert summary["episodes"] == 80
        assert summary["total_reward"] == reward_fold(log.records)
        assert summary["agent_snapshot"]["kind"] == "cem"
        assert "agent_params.batch_size" in summary["applied_defaults"]
        assert summary["config"]["out_dir"] == str(out)
        assert "out_dir" not in summary["applied_defaults"]

    def test_total_reward_equals_report_exactly(self, tmp_path):
        # Fractional multipliers make a total of counts x multipliers differ
        # from the sum of the logged per-episode rewards in the last bits.
        raw = rle_config(
            episodes=300,
            agent="random",
            multipliers={"e0_word_full": 0.1, "e1_zc_full": 0.7, "e2_counter_mid": 1.3},
        )
        out = run_into(raw, tmp_path / "run")
        summary = json.loads((out / "summary.json").read_text())
        report = cmd_report([out], tmp_path / "report.json")
        assert summary["total_reward"] == report["runs"][0]["total_reward"]

    def test_csv_replay_reproduces_counts(self, tmp_path):
        # The log is loss-free: logged actions + derived episode seeds
        # reproduce the logged counts exactly.
        raw = rle_config(episodes=40, agent="random")
        out = run_into(raw, tmp_path / "run")
        log = read_episode_log(out)
        dut = RleDut()
        for rec in log.records:
            assert dut.step(rec.action, episode_seed(raw["seed"], rec.episode)) == rec.counts

    @pytest.mark.parametrize("served", [False, True], ids=["in_process", "served"])
    def test_log_reads_back_as_the_campaign_records(self, tmp_path, served):
        raw = rle_config(episodes=40)
        cfg = build_config(raw)
        env = Environment(RleDut(), cfg.multipliers)
        records = []
        run_campaign(env, make_agent(cfg, env.space), cfg.episodes, cfg.seed, records.append)
        if served:
            with tcp_server() as server:
                out = run_into(dict(raw, dut=f"bridge:127.0.0.1:{server.port}"), tmp_path / "run")
        else:
            out = run_into(raw, tmp_path / "run")
        assert read_episode_log(out).records == tuple(records)

    def test_torn_last_row_is_dropped(self, tmp_path):
        # An episode whose write was cut off: its row lost its line break
        # and the last digits of its reward, so 1.4 would read as 1.
        raw = rle_config(episodes=5, seed=2, multipliers={"e3_partial_count": 0.7})
        out = run_into(raw, tmp_path / "run")
        whole = read_episode_log(out).records
        csv = out / "episodes.csv"
        assert csv.read_bytes().endswith(b",1.4\n")
        csv.write_bytes(csv.read_bytes()[:-3])
        assert read_episode_log(out).records == whole[:4]
        run = cmd_report([out], tmp_path / "r.json")["runs"][0]
        assert run["episodes"] == 4
        assert run["total_reward"] == reward_fold(whole[:4])

    def test_axi_run(self, tmp_path):
        raw = {
            "dut": "axi",
            "agent": "random",
            "episodes": 25,
            "seed": 3,
            "multipliers": {"fifo_full_slave_4": 1},
            "dut_params": {"cycles_per_step": 50},
        }
        out = run_into(raw, tmp_path / "axi")
        log = read_episode_log(out)
        assert log.knob_names == ("lower_slave", "upper_slave")
        assert len(log.event_names) == 10

    def test_histograms_csv_totals(self, tmp_path):
        out = run_into(rle_config(episodes=40), tmp_path / "run")
        lines = (out / "histograms.csv").read_text().splitlines()
        assert lines[0] == "knob,lo,hi,count"
        per_knob = {}
        for ln in lines[1:]:
            knob, _, _, count = ln.split(",")
            per_knob[knob] = per_knob.get(knob, 0) + int(count)
        assert per_knob == {"zero_prob": 40, "count_width": 40, "seq_length": 40}


class TestCmdReport:
    def make_runs(self, tmp_path):
        steered = run_into(rle_config(episodes=60), tmp_path / "steered")
        baseline = run_into(rle_config(episodes=60, agent="random"), tmp_path / "baseline")
        return steered, baseline

    def test_two_run_comparison_has_ratios(self, tmp_path):
        steered, baseline = self.make_runs(tmp_path)
        report = cmd_report([steered, baseline], tmp_path / "report.json")
        assert len(report["runs"]) == 2
        assert len(report["ratios"]) == 1
        ratio = report["ratios"][0]["ratio_first_over_this"]["e3_partial_count"]
        first = report["runs"][0]["event_totals"]["e3_partial_count"]
        second = report["runs"][1]["event_totals"]["e3_partial_count"]
        assert ratio == pytest.approx(first / second)
        assert (tmp_path / "report.json").exists()

    def test_single_log_totals_only(self, tmp_path):
        out = run_into(rle_config(episodes=20), tmp_path / "only")
        report = cmd_report([out], tmp_path / "r.json")
        assert report["ratios"] == []
        assert report["runs"][0]["episodes"] == 20

    def test_schema_mismatch_rejected(self, tmp_path):
        rle_out = run_into(rle_config(episodes=10), tmp_path / "rle")
        axi_out = run_into(
            {"dut": "axi", "episodes": 10, "dut_params": {"cycles_per_step": 20}}, tmp_path / "axi"
        )
        with pytest.raises(ReportError, match="schemas"):
            cmd_report([rle_out, axi_out], tmp_path / "r.json")

    def test_csv_path_reads_schema_from_summary(self, tmp_path):
        out = run_into(rle_config(episodes=10), tmp_path / "run")
        log = read_episode_log(out / "episodes.csv")
        assert log.knob_names == ("zero_prob", "count_width", "seq_length")
        (out / "summary.json").unlink()
        with pytest.raises(ReportError, match="pass the run directory"):
            read_episode_log(out / "episodes.csv")

    def test_header_must_match_summary(self, tmp_path):
        out = run_into(rle_config(episodes=10), tmp_path / "run")
        summary = json.loads((out / "summary.json").read_text())
        summary["event_names"].reverse()
        (out / "summary.json").write_text(json.dumps(summary))
        with pytest.raises(ReportError, match="does not match"):
            read_episode_log(out)

    def test_report_has_no_second_histogram(self, tmp_path):
        out = run_into(rle_config(episodes=10), tmp_path / "run")
        report = cmd_report([out], tmp_path / "r.json")
        assert set(report["runs"][0]) == {"path", "episodes", "event_totals", "total_reward"}


class TestMainEntry:
    def test_run_and_report_exit_zero(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, rle_config(episodes=15))
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        assert main(["report", str(out_dir), "--out", str(tmp_path / "rep.json")]) == 0
        captured = capsys.readouterr()
        assert "e3_partial_count" in captured.out

    def test_report_of_a_poisoned_log_exits_nonzero(self, tmp_path, capsys):
        out_dir = run_into(rle_config(episodes=3), tmp_path / "out")
        log = out_dir / "episodes.csv"
        header, first, *rest = log.read_text().splitlines(keepends=True)
        cells = first.rstrip("\n").split(",")
        cells[-2], cells[-1] = "-7", "nan"
        log.write_text("".join([header, ",".join(cells) + "\n", *rest]))
        report_path = tmp_path / "rep.json"
        assert main(["report", str(out_dir), "--out", str(report_path)]) == 1
        assert capsys.readouterr().err.startswith("error: malformed row")
        assert not report_path.exists()

    @pytest.mark.parametrize("key", ["knob_names", "event_names"])
    @pytest.mark.parametrize("names", [[1, 2, 3], "zero_prob", {"zero_prob": 0}, None])
    def test_report_of_a_malformed_schema_exits_nonzero(self, tmp_path, capsys, key, names):
        out_dir = run_into(rle_config(episodes=3), tmp_path / "out")
        summary = out_dir / "summary.json"
        summary.write_text(json.dumps({**json.loads(summary.read_text()), key: names}))
        assert main(["report", str(out_dir), "--out", str(tmp_path / "rep.json")]) == 1
        assert capsys.readouterr().err.startswith("error: cannot read the column schema")

    def test_flag_overrides_apply(self, tmp_path):
        cfg_path = write_config(tmp_path, rle_config(episodes=50, agent="cem"))
        out_dir = tmp_path / "out"
        assert (
            main(
                [
                    "run", "--config", str(cfg_path), "--episodes", "7",
                    "--agent", "random", "--seed", "9", "--out", str(out_dir),
                ]
            )
            == 0
        )
        log = read_episode_log(out_dir)
        assert len(log.records) == 7
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["config"]["agent"] == "random"
        assert summary["config"]["seed"] == 9
        assert summary["agent_snapshot"]["kind"] == "random"

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"dut": "rle", "episodes": -1})
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_config_exits_nonzero(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize("port", ["70000", "99999999999999999999", "\u00b2"])
    def test_bad_bridge_port_exits_nonzero(self, tmp_path, capsys, port):
        dut = f"bridge:127.0.0.1:{port}"
        with pytest.raises(ConfigError, match="bridge endpoint"):
            make_dut(dut)
        cfg_path = write_config(tmp_path, rle_config(dut=dut))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bridge endpoint") and "Traceback" not in err

    def assert_refused_with_finite_log(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        out_dir = Path(argv[argv.index("--out") + 1])
        rows = (out_dir / "episodes.csv").read_text().splitlines()
        assert not any(w in row for row in rows for w in ("nan", "inf"))
        json.loads((out_dir / "summary.json").read_text(), parse_constant=pytest.fail)
        assert not (out_dir / "histograms.csv").exists()
        return rows, err

    def test_non_finite_episode_reward_exits_nonzero(self, tmp_path, capsys):
        mult = {"e0_word_full": 1e308, "e1_zc_full": -1e308}
        cfg_path = write_config(
            tmp_path, {"dut": "rle", "agent": "random", "episodes": 30, "multipliers": mult}
        )
        argv = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        _, err = self.assert_refused_with_finite_log(argv, capsys)
        assert "not finite" in err

    def test_non_finite_total_reward_exits_nonzero(self, tmp_path, capsys):
        # At this seed no episode counts more than 24 e3 events, so every
        # reward is finite, but the 76 events of the campaign overflow.
        cfg_path = write_config(
            tmp_path,
            {"dut": "rle", "agent": "random", "episodes": 30, "seed": 1,
             "multipliers": {"e3_partial_count": 5e306}},
        )
        argv = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        rows, err = self.assert_refused_with_finite_log(argv, capsys)
        assert len(rows) == 1 + 30
        assert err.startswith("error: total reward over 30 episodes is not finite")

    def test_count_beyond_float_range_from_the_bridge_exits_nonzero(self, tmp_path, capsys):
        with scripted_server(
            lambda i, dut, msg: (10**400, 0, 0, 0) if i == 3 else step_reply(i, dut, msg)
        ) as server:
            cfg_path = write_config(
                tmp_path,
                rle_config(episodes=10, agent="random", dut=f"bridge:127.0.0.1:{server.port}"),
            )
            argv = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
            rows, err = self.assert_refused_with_finite_log(argv, capsys)
        assert len(rows) == 1 + 3
        assert "does not fit in a float" in err

    @pytest.mark.parametrize("events,error", [
        (["x", "x"], "error: column 'x' appears twice"),
        (["a,b", "c"], "error: column name 'a,b' holds a comma"),
        (["e0", "reward"], "error: column 'reward' appears twice"),
        (["e0", "zero_prob"], "error: column 'zero_prob' appears twice"),
    ], ids=["repeated", "comma", "reward", "knob_name"])
    def test_clashing_column_names_exit_nonzero(self, tmp_path, capsys, events, error):
        # A bridged hello names the event columns; none may clash in the log.
        with scripted_server(
            lambda i, dut, msg: step_reply(i, dut, msg)[:2], events=events
        ) as server:
            cfg_path = write_config(tmp_path, rle_config(
                episodes=5, agent="random", dut=f"bridge:127.0.0.1:{server.port}",
                multipliers={events[1]: 1},
            ))
            out_dir = tmp_path / "out"
            assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(error) and "Traceback" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("config, error", [
        ({"multipliers": {"e3_partial_count": 1}},
         "error: multipliers name unknown events: ['e3_partial_count']"),
        ({"agent": "cem", "agent_params": {"prob_floor": 0.5}},
         "error: prob_floor 0.5 infeasible for knob count_width"),
    ], ids=["unknown_event", "infeasible_prob_floor"])
    def test_run_refused_at_hello_leaves_no_out_dir(self, tmp_path, capsys, config, error):
        # A bridged config is checked against the design's hello, before any artifact.
        events = ["e0_word_full", "e1_zc_full", "e2_counter_mid", "other"]
        with scripted_server(events=events) as server:
            cfg_path = write_config(
                tmp_path, {"dut": f"bridge:127.0.0.1:{server.port}", "episodes": 5, **config}
            )
            out_dir = tmp_path / "out"
            assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 1
        assert not out_dir.exists()
        err = capsys.readouterr().err
        assert err.startswith(error) and "Traceback" not in err

    def test_failed_connection_leaves_no_out_dir(self, tmp_path, capsys):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            port = listener.getsockname()[1]
        cfg_path = write_config(tmp_path, rle_config(episodes=5, dut=f"bridge:127.0.0.1:{port}"))
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 1
        assert not out_dir.exists()
        assert capsys.readouterr().err.startswith("error: cannot connect")

    def test_uncreatable_out_dir_exits_nonzero(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, rle_config(episodes=2))
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "run"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_parser_choices_come_from_tables(self):
        (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]

        def choices(command, flag):
            (action,) = [a for a in sub.choices[command]._actions if flag in a.option_strings]
            return list(action.choices)

        assert choices("serve", "--dut") == list(DESIGNS)
        assert choices("run", "--agent") == list(AGENT_KINDS)

    def test_report_schema_mismatch_exits_nonzero(self, tmp_path, capsys):
        rle_out = run_into(rle_config(episodes=5), tmp_path / "rle")
        axi_out = run_into(
            {"dut": "axi", "episodes": 5, "dut_params": {"cycles_per_step": 10}}, tmp_path / "axi"
        )
        assert main(["report", str(rle_out), str(axi_out)]) == 1


class FixedCounts(RleDut):
    """The compressor's knobs and events with its step stubbed out: the campaign alone is measured."""

    def step(self, action, seed):
        return (1, 0, 0, 1)


class TestCampaignFootprint:
    def test_peak_memory_does_not_grow_with_episodes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "make_dut", lambda name, params=None: FixedCounts())

        def traced_peak(episodes):
            config = build_config(
                {"dut": "rle", "agent": "cem", "episodes": episodes},
                {"out_dir": str(tmp_path / str(episodes))},
            )
            tracemalloc.start()
            try:
                cli.cmd_run(config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak(1000)  # first-run caches and imports
        short, long = traced_peak(1000), traced_peak(9000)
        # A list of the logged actions costs ~110 bytes per episode, ~870 kB
        # here; a flat campaign's peak moves by at most ~50 kB either way.
        assert long - short < 100_000

    def test_bundled_run_imports_neither_bridge_nor_socket(self, tmp_path):
        config = write_config(tmp_path, {"dut": "rle", "episodes": 3})
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "covsteer", "run", "--config",
             str(config), "--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
            timeout=60,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        imported = {
            line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }
        assert {"covsteer.cli", "covsteer.rle", "numpy"} <= imported
        assert not {"covsteer.bridge", "socket"} & imported


class TestMakeDut:
    @pytest.mark.parametrize("dut", ["rle", "bridge:127.0.0.1:1"])
    def test_design_without_dut_params_rejects_them(self, dut):
        with pytest.raises(CovsteerError, match="takes no dut_params"):
            make_dut(dut, {"fifo_depth": 8})


class TestServeStdio:
    def test_subprocess_session_matches_in_process(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "covsteer", "serve", "--dut", "rle", "--stdio"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=CHILD_ENV,
        )
        try:
            proxy = connect_dut(proc.stdout, proc.stdin)
            seed, action = 42, (0.4, 6.0, 300.0)
            assert proxy.step(action, seed) == RleDut().step(action, seed)
        finally:
            proc.stdin.close()
            proc.stdout.close()
            proc.wait(timeout=10)
        assert proc.returncode == 0


class TestServeTcpCli:
    def test_serve_port_subprocess(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "covsteer", "serve", "--dut", "axi", "--port", "0"],
            stderr=subprocess.PIPE,
            env=CHILD_ENV,
        )
        try:
            announce = proc.stderr.readline().decode()
            assert announce.startswith("serving axi on 127.0.0.1:")
            port = int(announce.rsplit(":", 1)[1])
            from covsteer.bridge import connect_tcp

            proxy = connect_tcp("127.0.0.1", port, timeout=10)
            try:
                assert proxy.event_names[4] == "fifo_full_slave_4"
                counts = proxy.step((4.0, 4.0), 1)
                assert counts[4] == 65
            finally:
                proxy.close()
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stderr.close()

    @pytest.mark.parametrize("port", ["99999", "-5", "in_use"])
    def test_unlistenable_port_is_an_error(self, port, capsys):
        import socket as socket_mod

        with socket_mod.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            if port == "in_use":
                port = str(taken.getsockname()[1])
            assert main(["serve", "--dut", "axi", "--port", port]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot listen on 127.0.0.1:{port}: ")


class TestBridgeAbort:
    """Scripted servers that answer a few episodes, then drop the link."""

    def test_midcampaign_close_aborts_with_partial_log(self, tmp_path):
        out_dir = tmp_path / "partial"
        with scripted_server(requests=3) as server:
            raw = rle_config(episodes=10, agent="random", dut=f"bridge:127.0.0.1:{server.port}")
            with pytest.raises(Exception) as exc_info:
                run_into(raw, out_dir)
        from covsteer.errors import TransportError

        assert isinstance(exc_info.value, TransportError)
        rows = (out_dir / "episodes.csv").read_text().splitlines()
        assert len(rows) == 1 + 3  # header + the episodes that completed
        report = cmd_report([out_dir], tmp_path / "r.json")
        assert report["runs"][0]["episodes"] == 3
        assert report["event_names"] == list(RleDut().event_names)

    def test_aborted_rerun_leaves_no_stale_histogram(self, tmp_path):
        out_dir = tmp_path / "reused"
        run_into(rle_config(episodes=20, agent="random"), out_dir)
        assert (out_dir / "histograms.csv").exists()
        from covsteer.errors import TransportError

        with scripted_server(requests=3) as server:
            raw = rle_config(episodes=10, agent="random", dut=f"bridge:127.0.0.1:{server.port}")
            with pytest.raises(TransportError):
                run_into(raw, out_dir)
        assert len((out_dir / "episodes.csv").read_text().splitlines()) == 1 + 3
        assert not (out_dir / "histograms.csv").exists()

    def test_main_exits_nonzero_on_bridge_failure(self, tmp_path):
        out_dir = tmp_path / "out"
        with scripted_server(requests=2) as server:
            cfg_path = write_config(
                tmp_path,
                rle_config(episodes=10, agent="random", dut=f"bridge:127.0.0.1:{server.port}"),
            )
            assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 1
        assert (out_dir / "episodes.csv").exists()


def run_until_abort(raw, out_dir):
    """Run a campaign that must abort; returns the error's type and the partial log."""
    with pytest.raises(Exception) as exc_info:
        run_into(raw, out_dir)
    return type(exc_info.value), (out_dir / "episodes.csv").read_bytes()


class AgentFault(Exception):
    pass


class TestPipelinedAbort:
    """A bridged campaign that sends episodes ahead aborts as a one-at-a-time one does.

    The serial runs set ``bridge.WINDOW`` to 0, which leaves one request in
    flight; each fault must leave the same partial episodes.csv and raise
    the same error type either way.
    """

    @staticmethod
    def serial(monkeypatch):
        from covsteer import bridge

        monkeypatch.setattr(bridge, "WINDOW", 0)

    @pytest.mark.parametrize("k", [0, 20, 57])
    def test_agent_fault_in_propose(self, tmp_path, monkeypatch, k):
        from covsteer.agents import CemAgent

        propose = CemAgent.propose

        def fail_at_k():
            calls = itertools.count()

            def failing(self, rng):
                if next(calls) == k:
                    raise AgentFault(f"propose {k}")
                return propose(self, rng)

            monkeypatch.setattr(CemAgent, "propose", failing)

        fail_at_k()
        local = run_until_abort(rle_config(episodes=80), tmp_path / "local")
        outcomes = []
        for mode in ("pipelined", "serial"):
            if mode == "serial":
                self.serial(monkeypatch)
            fail_at_k()
            with tcp_server() as server:
                raw = rle_config(episodes=80, dut=f"bridge:127.0.0.1:{server.port}")
                outcomes.append(run_until_abort(raw, tmp_path / mode))
        assert outcomes == [local, local]
        assert local[0] is AgentFault
        assert len(local[1].splitlines()) == 1 + k

    def test_served_design_fault(self, tmp_path, monkeypatch):
        class FaultAt20(RleDut):
            steps = 0

            def step(self, action, seed):
                self.steps += 1
                if self.steps == 21:
                    raise RuntimeError("design fault at episode 20")
                return super().step(action, seed)

        outcomes = []
        for mode in ("pipelined", "serial"):
            if mode == "serial":
                self.serial(monkeypatch)
            with tcp_server(partial(serve_tcp, FaultAt20, max_sessions=1)) as server:
                raw = rle_config(episodes=80, dut=f"bridge:127.0.0.1:{server.port}")
                outcomes.append(run_until_abort(raw, tmp_path / mode))
        from covsteer.errors import RemoteDutError

        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] is RemoteDutError
        local = run_into(rle_config(episodes=20), tmp_path / "local")
        assert outcomes[0][1] == (local / "episodes.csv").read_bytes()

    def test_server_closes_after_k_episodes(self, tmp_path, monkeypatch):
        outcomes = []
        for mode in ("pipelined", "serial"):
            if mode == "serial":
                self.serial(monkeypatch)
            # Its replies leave at once (TCP_NODELAY, as serve_tcp sets): a
            # close with unread input resets the connection, which drops
            # replies still held back for an acknowledgement.
            with scripted_server(requests=5, nodelay=True) as server:
                raw = rle_config(episodes=80, dut=f"bridge:127.0.0.1:{server.port}")
                outcomes.append(run_until_abort(raw, tmp_path / mode))
        from covsteer.errors import TransportError

        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] is TransportError
        local = run_into(rle_config(episodes=5), tmp_path / "local")
        assert outcomes[0][1] == (local / "episodes.csv").read_bytes()


class TestRunOverBridge:
    @pytest.mark.parametrize("batch_size", [1, 7, 50])
    def test_bridged_cem_log_byte_identical_to_local(self, tmp_path, batch_size):
        raw = rle_config(episodes=23, agent_params={"batch_size": batch_size})
        local_out = run_into(raw, tmp_path / "local")
        with tcp_server() as server:
            bridged_raw = dict(raw, dut=f"bridge:127.0.0.1:{server.port}")
            bridged_out = run_into(bridged_raw, tmp_path / "bridged")
        assert (
            (local_out / "episodes.csv").read_bytes()
            == (bridged_out / "episodes.csv").read_bytes()
        )

    def test_bridged_run_byte_identical_to_local(self, tmp_path):
        with tcp_server() as server:
            raw = rle_config(episodes=40, agent="random")
            local_out = run_into(raw, tmp_path / "local")
            bridged_raw = dict(raw, dut=f"bridge:127.0.0.1:{server.port}")
            bridged_out = run_into(bridged_raw, tmp_path / "bridged")

        assert (
            (local_out / "episodes.csv").read_bytes()
            == (bridged_out / "episodes.csv").read_bytes()
        )
