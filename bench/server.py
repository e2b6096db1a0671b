"""Serve one bundled design for exactly one bridge session, then report on it.

    python3 bench/server.py --dut rle --report FILE [--trace 0|1]

Prints the bound TCP port on stdout, serves one session through
``covsteer.bridge.serve_tcp(max_sessions=1)`` on 127.0.0.1, and when the
session closes writes FILE as JSON: this process's peak RSS and, when
traced, the spans of every request (decode, design step, encode). An alarm
ends the process if no session arrives or the session never closes, so a
lost client cannot leave it behind.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal

import tracer as tracing
from workloads import import_covsteer

LIFETIME_S = 170


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dut", required=True, choices=["rle", "axi"])
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    signal.alarm(LIFETIME_S)  # SIGALRM's default action ends the process
    import_covsteer()
    from covsteer import bridge, cli

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracing.install_server(tracer)

    def announce(port):
        print(port, flush=True)

    bridge.serve_tcp(
        lambda: cli.make_dut(args.dut), host="127.0.0.1", port=0, max_sessions=1, on_bound=announce
    )
    if tracer is not None:
        tracer.end_root()
    report = {
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer is not None else [],
    }
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
