"""In-memory span recording around covsteer's public call sites.

Spans are recorded from outside the package: ``install_*`` rebinds module
and class attributes of covsteer with timing wrappers, so nothing under
``src/`` records anything. A span is the list

    [name, start_ns, end_ns, parent, root, attrs]

where ``parent`` indexes the enclosing span (the current root span when no
wrapped call is open, -1 outside any root) and ``root`` is the id of the
current root: the episode number on the agent side, the request number on
the serving side. ``attrs`` holds work counts taken from the call's
arguments or result, after its end time is stamped.

All times come from ``time.monotonic_ns``, which on Linux reads
CLOCK_MONOTONIC: one system-wide clock, so stamps taken in different
processes of one run can be subtracted.
"""

from __future__ import annotations

import itertools
from time import monotonic_ns as now


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._root = -1
        self._root_span = -1

    def wrap(self, name, fn, attrs=None):
        """Return ``fn`` recording one span per call; ``attrs(result, args)`` adds counts."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else self._root_span, self._root, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = now()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(result, args)
            return result

        return traced

    def patch(self, owner, attr, name, attrs=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), attrs))

    def begin_root(self, name, root_id):
        """Close the open root span, if any, and open the next one at the same instant."""
        t = now()
        self.end_root(t)
        self._root = root_id
        self._root_span = len(self.spans)
        self.spans.append([name, t, 0, -1, root_id, None])

    def end_root(self, t=None):
        if self._root_span >= 0:
            self.spans[self._root_span][2] = now() if t is None else t
        self._root = self._root_span = -1


def _sequence_words(result, args):
    return len(args[1])


def _axi_step_counts(result, args):
    counts, trace = result
    attempted = accepted = 0
    for rec in trace:
        attempted += len(rec.enqueues)
        accepted += sum(1 for e in rec.enqueues if e.accepted)
    return [len(trace), attempted, accepted, sum(counts)]


def _encoded_bytes(result, args):
    return len(result)


def _decoded_bytes(result, args):
    return len(args[0])


def _refits_so_far(result, args):
    return getattr(args[0], "refits", 0)


def install_design(tracer: Tracer) -> None:
    """Wrap both bundled designs: their step/reset and the functions step calls."""
    from covsteer import axi, rle

    tracer.patch(rle, "decode_action", "rle.decode_action")
    tracer.patch(rle, "rle_run", "rle.rle_run", _sequence_words)
    tracer.patch(rle, "rle_golden", "rle.rle_golden", _sequence_words)
    tracer.patch(axi, "decode_action", "axi.decode_action")
    tracer.patch(axi, "simulate_step", "axi.simulate_step", _axi_step_counts)
    tracer.patch(axi, "golden_check", "axi.golden_check")
    for cls in (rle.RleDut, axi.AxiDut):
        tracer.patch(cls, "reset", "dut.reset")
        tracer.patch(cls, "step", "dut.step")


def install_codec(tracer: Tracer) -> None:
    from covsteer import bridge

    tracer.patch(bridge, "encode", "bridge.encode", _encoded_bytes)
    tracer.patch(bridge, "decode", "bridge.decode", _decoded_bytes)


def install_client(tracer: Tracer) -> None:
    """Wrap every agent-side layer; each ``episode_seed`` call opens an episode root."""
    from covsteer import agents, bridge, cli, config, coverage, env, reporting

    seed_span = tracer.wrap("env.episode_seed", env.episode_seed)

    def episode_seed(campaign_seed, episode):
        tracer.begin_root("episode", episode)
        return seed_span(campaign_seed, episode)

    env.episode_seed = episode_seed

    run_campaign = cli.run_campaign

    def campaign(*args, **kwargs):
        try:
            return run_campaign(*args, **kwargs)
        finally:
            tracer.end_root()

    cli.run_campaign = campaign

    tracer.patch(env, "stimulus_rng", "env.stimulus_rng")
    tracer.patch(env, "validate", "actionspace.validate")
    tracer.patch(env, "compute_reward", "coverage.compute_reward")
    tracer.patch(env.Environment, "reset", "env.reset")
    tracer.patch(env.Environment, "step", "env.step")
    tracer.patch(coverage.CumulativeCoverage, "merge", "coverage.merge")
    for cls in (agents.CemAgent, agents.RandomAgent):
        tracer.patch(cls, "propose", "agents.propose")
        tracer.patch(cls, "observe", "agents.observe", _refits_so_far)
    tracer.patch(reporting.EpisodeCsvWriter, "write", "reporting.csv_write")
    for fn in ("knob_histograms", "write_histograms_csv", "write_summary"):
        tracer.patch(cli, fn, f"reporting.{fn}")
    tracer.patch(cli, "make_dut", "cli.make_dut")
    tracer.patch(config, "build_config", "config.build_config")
    tracer.patch(bridge.DutProxy, "reset", "dut.reset")
    tracer.patch(bridge.DutProxy, "step", "dut.step")
    install_design(tracer)
    install_codec(tracer)


def install_server(tracer: Tracer) -> None:
    """Wrap the serving side; each decoded request line opens a request root."""
    from covsteer import bridge

    install_design(tracer)
    install_codec(tracer)
    decode = bridge.decode
    requests = itertools.count()

    def request(line):
        tracer.begin_root("request", next(requests))
        return decode(line)

    bridge.decode = request
