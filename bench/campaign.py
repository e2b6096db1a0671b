"""Run one campaign of a benchmark workload in this process, as ``covsteer run`` does.

    python3 bench/campaign.py --workload NAME --seed N [--trace 0|1]

Run it with the campaign directory as working directory. It builds the
config with ``config.build_config`` and runs ``cli.cmd_run``, which writes
episodes.csv, summary.json and histograms.csv there. A bridged workload
first spawns bench/server.py, waits for its port, points ``dut`` at it and
reaps the server on every way out. Then it writes result.json:

* ``episode_starts`` / ``end_ns``: the start stamp of every episode and the
  stamp after the last one. Untraced, these are the only stamps taken
  inside the campaign, one per episode, at ``env.episode_seed``;
* ``rss_kb``: peak RSS of this process;
* ``spans``: every client span when traced (see tracer.py);
* ``server``: the server's report when bridged.
"""

from __future__ import annotations

import argparse
import json
import resource
import select
import subprocess
import sys
from pathlib import Path

import tracer as tracing
from workloads import WORKLOADS, import_covsteer

SERVER = Path(__file__).resolve().parent / "server.py"
SERVER_START_TIMEOUT_S = 30
SERVER_EXIT_TIMEOUT_S = 10


def spawn_server(dut: str, trace: int) -> tuple[subprocess.Popen, int]:
    """Start the server launcher and wait until it has bound its port."""
    proc = subprocess.Popen(
        [sys.executable, str(SERVER), "--dut", dut, "--report", "server.json", "--trace", str(trace)],
        stdout=subprocess.PIPE,
    )
    ready, _, _ = select.select([proc.stdout], [], [], SERVER_START_TIMEOUT_S)
    line = proc.stdout.readline() if ready else b""
    if not line.strip().isdigit():
        reap(proc, clean=False)
        raise RuntimeError(f"server did not report a port within {SERVER_START_TIMEOUT_S} s")
    return proc, int(line)


def reap(proc: subprocess.Popen, clean: bool) -> None:
    """Wait for a server that should exit by itself; kill it if it does not."""
    try:
        proc.wait(timeout=SERVER_EXIT_TIMEOUT_S if clean else 0)
        return
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    finally:
        proc.stdout.close()
    if clean:
        raise RuntimeError(f"server still running {SERVER_EXIT_TIMEOUT_S} s after the session closed")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    import_covsteer()
    import numpy
    from covsteer import cli, config, env

    tracer = tracing.Tracer() if args.trace else None
    starts: list[int] = []
    end = []
    if tracer is not None:
        tracing.install_client(tracer)
    else:
        episode_seed = env.episode_seed

        def stamped_seed(campaign_seed, episode):
            starts.append(tracing.now())
            return episode_seed(campaign_seed, episode)

        run_campaign = cli.run_campaign

        def campaign(*args, **kwargs):
            try:
                return run_campaign(*args, **kwargs)
            finally:
                end.append(tracing.now())

        env.episode_seed = stamped_seed
        cli.run_campaign = campaign

    raw = dict(workload.config)
    overrides = {"seed": args.seed, "episodes": workload.episodes, "out_dir": "."}
    server = None
    clean = False
    try:
        if workload.bridged:
            t0 = tracing.now()
            server, port = spawn_server(raw["dut"], args.trace)
            if tracer is not None:
                tracer.spans.append(["cli.server_spawn", t0, tracing.now(), -1, -1, None])
            raw["dut"] = f"bridge:127.0.0.1:{port}"
        cli.cmd_run(config.build_config(raw, overrides))
        clean = True
    finally:
        if server is not None:
            reap(server, clean)

    result = {
        "numpy": numpy.__version__,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "server": None,
    }
    if tracer is not None:
        episodes = [s for s in tracer.spans if s[0] == "episode"]
        result["episode_starts"] = [s[1] for s in episodes]
        result["end_ns"] = episodes[-1][2]
        result["spans"] = tracer.spans
    else:
        result["episode_starts"] = starts
        result["end_ns"] = end[0]
    if server is not None:
        result["server"] = json.loads(Path("server.json").read_text(encoding="utf-8"))
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
