"""Command surface: run a campaign, compare logs, serve a design over the bridge.

    covsteer run --config cfg.json [--seed N] [--episodes N]
                 [--agent KIND] [--out DIR]
    covsteer report RUN_DIR... [--out FILE]
    covsteer serve --dut NAME (--stdio | --port P) [--host H]

``run`` writes episodes.csv, summary.json and histograms.csv into the
output directory and exits 0 on success; when a campaign aborts, the
partial episodes.csv is kept next to a summary.json holding its column
schema, and no histograms.csv. ``report`` reads run directories, prints a
comparison table and writes the same data as JSON. ``serve`` exposes a
bundled design to bridge clients over stdio or TCP. Design names come from
``config.DESIGNS`` and agent kinds from ``config.AGENT_KINDS``.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .agents import CemAgent, RandomAgent
from .config import AGENT_KINDS, DESIGNS, RunConfig, make_design, parse_config, parse_endpoint
from .env import Environment, run_campaign
from .errors import CovsteerError
from .reporting import (
    EpisodeCsvWriter,
    KnobTally,
    build_report,
    knob_histograms,
    log_columns,
    render_report_text,
    summary_schema,
    write_histograms_csv,
    write_json,
    write_summary,
)


def make_dut(name: str, dut_params: dict | None = None):
    """Instantiate a bundled design or connect to a bridged one, which takes no dut_params.

    The bridge module, and ``socket`` with it, is imported only for a bridged one.
    """
    if name.startswith("bridge:") and not dut_params:
        from . import bridge

        return bridge.connect_tcp(*parse_endpoint(name))
    return make_design(name, dut_params)


def make_agent(config: RunConfig, space):
    if config.agent == "random":
        return RandomAgent(space)
    return CemAgent(space, **config.agent_params)


def cmd_run(config: RunConfig) -> Path:
    """Execute one campaign and write its artifacts into ``config.out_dir``, which it returns.

    The design, environment, agent and log columns are built before the output
    directory is created, so a run refused at connect or at hello leaves none.
    Each logged action is counted into its knob histograms as its row is
    written, so the campaign keeps no per-episode state and its memory does
    not grow with its episode count.
    """
    out = Path(config.out_dir)
    dut = make_dut(config.dut, config.dut_params)
    try:
        env = Environment(dut, config.multipliers)
        agent = make_agent(config, env.space)
        schema = summary_schema(
            config_dict=config.to_json_dict(),
            defaulted=config.defaulted,
            knob_names=env.space.names,
            event_names=[e.name for e in env.events],
        )
        columns = log_columns(schema["knob_names"], schema["event_names"])
        out.mkdir(parents=True, exist_ok=True)
        knobs = KnobTally(env.space)

        with EpisodeCsvWriter(out / "episodes.csv", columns) as writer:
            # The schema goes next to the log before its first row, so a
            # partial log that an aborted run keeps can still be reported;
            # an earlier run's histograms would not describe that log.
            write_json(out / "summary.json", schema)
            (out / "histograms.csv").unlink(missing_ok=True)

            def record(rec):
                knobs.add(rec.action)
                writer.write(rec)

            cumulative = run_campaign(
                env, agent, config.episodes, config.seed, on_record=record
            )
        if not math.isfinite(cumulative.reward):
            raise ValueError(f"total reward over {cumulative.episodes} episodes is not finite")
        hists = knob_histograms(knobs)
        write_histograms_csv(out / "histograms.csv", hists)
        write_summary(
            out / "summary.json",
            schema,
            cumulative=cumulative,
            hists=hists,
            agent_snapshot=agent.snapshot(),
        )
        return out
    finally:
        close = getattr(dut, "close", None)
        if close is not None:
            close()


def cmd_report(paths, out_file: str | Path | None = None) -> dict:
    report = build_report(paths)
    write_json(out_file if out_file is not None else "report.json", report)
    return report


def cmd_serve(dut_name: str, stdio: bool, port: int | None, host: str) -> None:
    from . import bridge

    if dut_name not in DESIGNS:
        raise CovsteerError(f"serve supports the bundled designs, not {dut_name!r}")
    factory = lambda: make_dut(dut_name)  # noqa: E731
    if stdio:
        bridge.serve_dut(factory(), sys.stdin.buffer, sys.stdout.buffer)
    else:
        def announce(bound_port):
            print(f"serving {dut_name} on {host}:{bound_port}", file=sys.stderr, flush=True)

        bridge.serve_tcp(factory, host=host, port=port or 0, on_bound=announce)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="covsteer", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a verification campaign")
    p_run.add_argument("--config", required=True, help="path to a JSON run config")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--episodes", type=int, default=None, help="override the episode count")
    p_run.add_argument("--agent", choices=AGENT_KINDS, default=None,
                       help="override the agent kind")
    p_run.add_argument("--out", default=None, help="override the output directory")

    p_report = sub.add_parser("report", help="compare episode logs")
    p_report.add_argument("logs", nargs="+", help="run directories")
    p_report.add_argument("--out", default=None, help="where to write report.json")

    p_serve = sub.add_parser("serve", help="serve a bundled design over the bridge")
    p_serve.add_argument("--dut", required=True, choices=list(DESIGNS))
    mode = p_serve.add_mutually_exclusive_group(required=True)
    mode.add_argument("--stdio", action="store_true", help="speak the protocol on stdin/stdout")
    mode.add_argument("--port", type=int, help="listen on this TCP port (0 = ephemeral)")
    p_serve.add_argument("--host", default="127.0.0.1")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            overrides = {
                "seed": args.seed,
                "episodes": args.episodes,
                "agent": args.agent,
                "out_dir": args.out,
            }
            config = parse_config(args.config, overrides)
            out = cmd_run(config)
            print(f"run complete: {out}")
        elif args.command == "report":
            report = cmd_report(args.logs, args.out)
            sys.stdout.write(render_report_text(report))
        elif args.command == "serve":
            cmd_serve(args.dut, args.stdio, args.port, args.host)
    except (CovsteerError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
