"""Campaign benchmark for covsteer: whole campaigns, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --record-digests

Each run repeats one workload's campaign (fixed config, fixed episode count,
campaign seed N), every time in a fresh process started by bench/campaign.py,
until S seconds have passed. Every campaign goes through the public path of
``covsteer run``: ``config.build_config`` then ``cli.cmd_run`` with the
scoreboard on. All times are host time; the design models have no
simulated time.

``--trace 0`` reports the end-to-end metrics from untraced campaigns.
``--trace 1`` alternates untraced and traced campaigns and reports the
per-layer metrics from the traced ones, plus what tracing cost.

Every run checks its outputs: each campaign must log all its episodes; the
sha256 of episodes.csv, summary.json and histograms.csv must agree across
the run's campaigns, and with digests.json when the seed is recorded there;
a bridged workload's episodes.csv must equal the in-process log of the same
campaign, which the run produces as a reference. Episodes of a campaign
that fails any of these count as failed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The lines above it list every
metric with its unit and sample count, and the run metadata; the same
data goes to .bench_work/<workload>/result.json. Exits 0 only when every
check passed, and 2 without a result when the covsteer source is missing.

``--record-digests`` runs each workload once per recorded seed and writes
digests.json; use it only when a change is meant to alter the artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import now
from workloads import RECORDED_SEEDS, ROOT, SRC, WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
CAMPAIGN = BENCH / "campaign.py"
DIGESTS = BENCH / "digests.json"
WORK = ROOT / ".bench_work"
ARTIFACTS = ("episodes.csv", "summary.json", "histograms.csv")
MIN_CAMPAIGNS = 3  # per kind (untraced, traced) and run, whatever --seconds says
RUN_LIMIT_S = 170  # every child is killed by then, so a run ends within 180 s
ENDPOINT = re.compile(rb'"bridge:127\.0\.0\.1:\d+"')


@dataclass
class Campaign:
    """One campaign process: what it logged and what it reported."""

    workload: Workload
    traced: bool
    directory: Path
    spawn_ns: int
    returncode: int | None = None  # None: killed at its deadline
    result: dict | None = None
    digests: dict = field(default_factory=dict)
    logged: int = 0
    problem: str | None = None

    @property
    def failed_episodes(self) -> int:
        if self.problem is None:
            return 0
        if self.returncode not in (0, None) and self.logged < self.workload.episodes:
            return self.workload.episodes - self.logged  # aborted: what it did not log
        # Wrong artifacts, a hang, or a server left running: trust none of it.
        return self.workload.episodes


def file_digests(directory: Path) -> dict:
    """sha256 of each artifact; summary.json's ephemeral bridge port is masked."""
    out = {}
    for name in ARTIFACTS:
        path = directory / name
        if not path.is_file():
            continue
        data = path.read_bytes()
        if name == "summary.json":
            data = ENDPOINT.sub(b'"bridge:127.0.0.1:PORT"', data)
        out[name] = hashlib.sha256(data).hexdigest()
    return out


def logged_rows(directory: Path) -> int:
    path = directory / "episodes.csv"
    if not path.is_file():
        return 0
    with open(path, "rb") as fh:
        return max(sum(1 for _ in fh) - 1, 0)


def kill_group(pgid: int, wait: bool) -> None:
    """Kill every process left in a campaign's group; with ``wait``, until it is gone.

    Do not wait while the group's leader is still an unreaped child of ours.
    """
    deadline = now() + 5e9
    try:
        os.killpg(pgid, signal.SIGKILL)
        while wait and now() < deadline:
            time.sleep(0.01)
            os.killpg(pgid, 0)
    except ProcessLookupError:
        pass


def run_campaign(workload: Workload, seed: int, traced: bool, directory: Path, deadline_ns: int) -> Campaign:
    """Run one campaign process in its own session; nothing of it outlives this call."""
    directory.mkdir(parents=True)
    spawn = now()
    proc = subprocess.Popen(
        [sys.executable, str(CAMPAIGN), "--workload", workload.name, "--seed", str(seed),
         "--trace", str(int(traced))],
        cwd=directory,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    camp = Campaign(workload, traced, directory, spawn)
    try:
        _, err = proc.communicate(timeout=max((deadline_ns - now()) / 1e9, 1.0))
        camp.returncode = proc.returncode
    except subprocess.TimeoutExpired:
        kill_group(proc.pid, wait=False)
        _, err = proc.communicate()
    finally:
        if proc.poll() is None:  # interrupted
            kill_group(proc.pid, wait=False)
            proc.wait()
        # Sweeps a server the campaign failed to reap; the group is empty
        # after a clean exit.
        kill_group(proc.pid, wait=True)
    camp.logged = logged_rows(directory)
    camp.digests = file_digests(directory)
    if camp.returncode is None:
        camp.problem = "timed out and was killed"
    elif camp.returncode != 0:
        last = err.decode("utf-8", "replace").strip().splitlines()[-1:] or [""]
        camp.problem = f"exited with {camp.returncode}: {last[0]}"
    elif camp.logged != workload.episodes:
        camp.problem = f"logged {camp.logged} of {workload.episodes} episodes"
    else:
        try:
            camp.result = json.loads((directory / "result.json").read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            camp.problem = f"no readable result.json ({exc})"
    return camp


def recorded_digests(workload: Workload, seed: int) -> dict | None:
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    entry = recorded.get(workload.name)
    if entry is None or str(seed) not in entry["seeds"]:
        return None
    if entry["episodes"] != workload.episodes:
        raise SystemExit(f"digests.json holds {workload.name} at {entry['episodes']} episodes, "
                         f"the workload runs {workload.episodes}: re-record")
    return entry["seeds"][str(seed)]


def check_outputs(camps: list[Campaign], seed: int, reference: Campaign | None) -> None:
    """Mark every campaign whose artifacts disagree with what they must equal."""
    ok = [c for c in camps if c.problem is None]
    if not ok:
        return
    expected = recorded_digests(ok[0].workload, seed)
    source = f"digests.json (seed {seed})"
    if expected is None:
        expected, source = ok[0].digests, "the run's first campaign"
    for c in ok:
        bad = [n for n in ARTIFACTS if c.digests.get(n) != expected.get(n)]
        if bad:
            c.problem = f"{', '.join(bad)} differ from {source}"
    if reference is None:
        return
    for c in ok:
        if reference.problem is not None:
            c.problem = c.problem or "no in-process log to compare with"
        elif c.digests.get("episodes.csv") != reference.digests["episodes.csv"]:
            c.problem = c.problem or (
                f"episodes.csv differs from the in-process {reference.workload.name} log")


# --- metrics -------------------------------------------------------------

def p(values, q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100)[q - 1]


def median(values, unit: str, scale: float = 1.0) -> tuple:
    """(median / scale, unit, sample count); 0 when the workload never enters the layer."""
    values = list(values)
    return (statistics.median(values) / scale if values else 0.0, unit, len(values))


def episode_ns(result: dict) -> list[int]:
    starts = result["episode_starts"] + [result["end_ns"]]
    return [b - a for a, b in zip(starts, starts[1:])]


def wall_s(result: dict) -> float:
    return (result["end_ns"] - result["episode_starts"][0]) / 1e9


def total_reward(camp: Campaign) -> float:
    summary = json.loads((camp.directory / "summary.json").read_text(encoding="utf-8"))
    return summary["total_reward"]


def rate(camps: list[Campaign], amount) -> float:
    """Σ amount / Σ campaign wall time over the run's campaigns."""
    return sum(amount(c) for c in camps) / sum(wall_s(c.result) for c in camps)


def end_to_end(camps: list[Campaign]) -> dict:
    """Metrics from untraced campaigns: name -> (value, unit, sample count).

    The host's speed switches between a fast and a slow state that last from
    seconds to minutes, and a whole campaign often runs in one of them. Rates are
    therefore pooled over the run's time, and latency percentiles are taken
    per campaign and averaged, so that each figure moves in proportion to
    the time spent in either state instead of jumping between them.
    """
    episodes = sum(c.workload.episodes for c in camps)
    per_campaign = [episode_ns(c.result) for c in camps]
    return {
        "episodes_per_s": (rate(camps, lambda c: c.workload.episodes), "1/s", len(camps)),
        "episode_ms_p50": (statistics.fmean(statistics.median(d) for d in per_campaign) / 1e6,
                           "ms", episodes),
        "episode_ms_p90": (statistics.fmean(p(d, 90) for d in per_campaign) / 1e6, "ms", episodes),
        "rewarded_hits_per_s": (rate(camps, total_reward), "1/s", len(camps)),
        "setup_s": median([(c.result["episode_starts"][0] - c.spawn_ns) / 1e9 for c in camps], "s"),
        "peak_rss_mb": median([c.result["rss_kb"] / 1024 for c in camps], "MB"),
    }


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def nesting_problems(spans: list[list]) -> list[str]:
    """Every span must lie inside its parent.

    Given that, the self times of an episode's spans plus the loop's own time
    add up to the episode's wall time exactly, so the per-layer figures
    account for the whole episode.
    """
    bad = []
    for i, s in enumerate(spans):
        parent = spans[s[3]] if s[3] >= 0 else None
        if s[2] < s[1] or (parent is not None and not (parent[1] <= s[1] and s[2] <= parent[2])):
            bad.append(f"span {i} ({s[0]}) is not nested in its parent")
    return bad[:3]


def grouped(spans: list[list], values: list[int]) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    for s, v in zip(spans, values):
        out.setdefault(s[0], []).append(v)
    return out


def served_requests(spans: list[list]) -> list[dict]:
    """Server spans grouped by request root, in arrival order."""
    reqs: dict[int, dict] = {}
    for s in spans:
        if s[4] >= 0 and s[0] != "request":
            r = reqs.setdefault(s[4], {"codec": 0, "step": None})
            if s[0] in ("bridge.decode", "bridge.encode"):
                r["codec"] += s[2] - s[1]
            elif s[0] == "dut.step":
                r["step"] = s[2] - s[1]
    return [reqs[k] for k in sorted(reqs)]


def campaign_layers(c: Campaign) -> dict:
    """Per-layer samples and work counts of one traced campaign."""
    spans = c.result["spans"]
    server = (c.result["server"] or {}).get("spans", [])
    own = self_times(spans)
    out = {
        "problems": nesting_problems(spans) + nesting_problems(server),
        "dur": grouped(spans, [s[2] - s[1] for s in spans]),
        "own": grouped(spans, own),
        # The design runs in this process, or in the server when bridged.
        "design": grouped(spans + server, [s[2] - s[1] for s in spans + server]),
        "server": grouped(server, [s[2] - s[1] for s in server]),
        "refit": [],
        "rtt": [],
        "wire": [],
    }

    episode_children: dict[int, int] = {}
    for s in spans:
        if s[3] >= 0 and spans[s[3]][0] == "episode":
            episode_children[s[3]] = episode_children.get(s[3], 0) + s[2] - s[1]
    out["loop_self"] = [s[2] - s[1] - episode_children.get(i, 0)
                        for i, s in enumerate(spans) if s[0] == "episode"]

    last = 0
    for s in spans:
        if s[0] == "agents.observe":
            if s[5] > last:
                out["refit"].append(s[2] - s[1])
            last = s[5]

    axi_steps = [s[5] for s in spans if s[0] == "axi.simulate_step"]
    out["counts"] = {
        "rle.words": sum(s[5] for s in spans + server if s[0] == "rle.rle_run"),
        "axi.cycles": sum(a[0] for a in axi_steps),
        "axi.attempted": sum(a[1] for a in axi_steps),
        "axi.accepted": sum(a[2] for a in axi_steps),
        "axi.full_cycles": sum(a[3] for a in axi_steps),
        "agents.refits": len(out["refit"]),
        "bridge.bytes": sum(s[5] for s in spans
                            if s[0] in ("bridge.encode", "bridge.decode") and s[4] >= 0),
    }

    def total_ms(*names):
        return sum(d for n in names for d in out["dur"].get(n, [])) / 1e6

    out["build_ms"] = [total_ms("config.build_config")]
    out["make_dut_ms"] = [total_ms("cli.make_dut")]
    out["finish_ms"] = [total_ms("reporting.knob_histograms", "reporting.write_histograms_csv",
                                 "reporting.write_summary")]
    if server:
        out["server_rss_mb"] = [c.result["server"]["rss_kb"] / 1024]
        out["server_spawn_ms"] = [total_ms("cli.server_spawn")]
        client = [(s, own[i]) for i, s in enumerate(spans) if s[0] in ("dut.reset", "dut.step")]
        served = served_requests(server)
        if len(client) != len(served):
            out["problems"].append(f"{len(client)} requests sent, {len(served)} served")
        else:
            # Requests pair up in order: the n-th sent is the n-th served.
            for (s, self_ns), r in zip(client, served):
                if s[0] == "dut.step":
                    out["rtt"].append(s[2] - s[1])
                    out["wire"].append(self_ns - r["step"] - r["codec"])
        out["server_codec"] = [r["codec"] for r in served]
    return out


def per_layer(traced: list[Campaign], untraced: list[Campaign]) -> tuple[dict, list[str]]:
    """Per-layer metrics pooled over the traced campaigns, and what tracing cost."""
    layers = [campaign_layers(c) for c in traced]
    problems = [msg for lay in layers for msg in lay["problems"]]

    def pool(key, name, unit, scale=1e3):
        return median((v for lay in layers for v in lay[key].get(name, [])), unit, scale)

    def flat(key):
        return [v for lay in layers for v in lay.get(key, [])]

    def total(key, name):
        return sum(v for lay in layers for v in lay[key].get(name, []))

    # Work counts repeat exactly for one seed, so each is reported once.
    counts = {}
    for name in layers[0]["counts"]:
        values = {lay["counts"][name] for lay in layers}
        if len(values) != 1:
            problems.append(f"{name} differs between campaigns of one seed: {sorted(values)}")
        counts[name] = layers[0]["counts"][name]

    def count(value, unit="count"):
        return (value, unit, len(layers))

    def share(num, den, unit):
        return (num / den if den else 0.0, unit, len(layers))

    run_ns, golden_ns = total("design", "rle.rle_run"), total("design", "rle.rle_golden")
    rtt = flat("rtt")
    untraced_eps = rate(untraced, lambda c: c.workload.episodes)
    traced_eps = rate(traced, lambda c: c.workload.episodes)

    metrics = {
        "rle.decode_action_us": pool("design", "rle.decode_action", "us"),
        "rle.run_us": pool("design", "rle.rle_run", "us"),
        "rle.golden_us": pool("design", "rle.rle_golden", "us"),
        "rle.words": count(counts["rle.words"]),
        "rle.run_ns_per_word": share(run_ns, counts["rle.words"] * len(layers), "ns"),
        "rle.golden_ns_per_word": share(golden_ns, counts["rle.words"] * len(layers), "ns"),
        "rle.scoreboard_share": share(golden_ns, run_ns + golden_ns, "fraction"),
        "axi.decode_action_us": pool("design", "axi.decode_action", "us"),
        "axi.simulate_step_us": pool("design", "axi.simulate_step", "us"),
        "axi.golden_check_us": pool("design", "axi.golden_check", "us"),
        "axi.cycles": count(counts["axi.cycles"]),
        "axi.simulate_ns_per_cycle": share(total("design", "axi.simulate_step"),
                                           counts["axi.cycles"] * len(layers), "ns"),
        "axi.accept_ratio": share(counts["axi.accepted"], counts["axi.attempted"], "fraction"),
        "axi.full_cycles": count(counts["axi.full_cycles"]),
        "agents.propose_us": pool("dur", "agents.propose", "us"),
        "agents.observe_us": pool("dur", "agents.observe", "us"),
        "agents.refit_ms": median(flat("refit"), "ms", 1e6),
        "agents.refits": count(counts["agents.refits"]),
        "env.episode_seed_us": pool("dur", "env.episode_seed", "us"),
        "env.stimulus_rng_us": pool("dur", "env.stimulus_rng", "us"),
        "env.reset_us": pool("dur", "env.reset", "us"),
        "env.step_self_us": pool("own", "env.step", "us"),
        "env.loop_self_us": median(flat("loop_self"), "us", 1e3),
        "actionspace.validate_us": pool("dur", "actionspace.validate", "us"),
        "coverage.compute_reward_us": pool("dur", "coverage.compute_reward", "us"),
        "coverage.merge_us": pool("dur", "coverage.merge", "us"),
        "reporting.csv_write_us": pool("dur", "reporting.csv_write", "us"),
        "reporting.finish_ms": median(flat("finish_ms"), "ms"),
        "bridge.rtt_us_p50": median(rtt, "us", 1e3),
        "bridge.rtt_us_p99": (p(rtt, 99) / 1e3 if rtt else 0.0, "us", len(rtt)),
        "bridge.encode_us": pool("dur", "bridge.encode", "us"),
        "bridge.decode_us": pool("dur", "bridge.decode", "us"),
        "bridge.bytes_per_episode": count(counts["bridge.bytes"] / traced[0].workload.episodes),
        "bridge.server_step_us": pool("server", "dut.step", "us"),
        "bridge.server_codec_us": median(flat("server_codec"), "us", 1e3),
        "bridge.wire_us": median(flat("wire"), "us", 1e3),
        "bridge.server_peak_rss_mb": median(flat("server_rss_mb"), "MB"),
        "config.build_ms": median(flat("build_ms"), "ms"),
        "cli.make_dut_ms": median(flat("make_dut_ms"), "ms"),
        "cli.server_spawn_ms": median(flat("server_spawn_ms"), "ms"),
        "episode_ms_p99": (statistics.fmean(p(episode_ns(c.result), 99) for c in untraced) / 1e6,
                           "ms", sum(c.workload.episodes for c in untraced)),
        "trace.overhead_frac": (untraced_eps / traced_eps - 1.0, "fraction",
                                len(traced) + len(untraced)),
    }
    return metrics, problems


# --- run -----------------------------------------------------------------

def git_commit() -> str | None:
    """The checkout's commit, read from .git without running git; None outside a clone."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over covsteer's sources: identifies the program where git cannot."""
    h = hashlib.sha256()
    for path in sorted((SRC / "covsteer").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(args, workload: Workload, camps: list[Campaign]) -> dict:
    """Settings two results must share before they may be compared."""
    numpy_version = next((c.result["numpy"] for c in camps if c.result), None)
    return {
        "workload": workload.name,
        "episodes": workload.episodes,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "covsteer_commit": git_commit(),
        "covsteer_src_sha256": source_digest(),
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, work: Path):
    """Campaigns until the next would end after ``seconds``, then the in-process
    reference if bridged."""
    start = now()
    deadline = start + RUN_LIMIT_S * 1e9
    camps: list[Campaign] = []
    kinds = (False, True) if trace else (False,)
    while now() < deadline:
        traced = trace and len(camps) % 2 == 1
        camps.append(run_campaign(workload, seed, traced, work / f"c{len(camps):03d}", deadline))
        enough = all(sum(c.traced == k for c in camps) >= MIN_CAMPAIGNS for k in kinds)
        per_campaign = (now() - start) / len(camps)
        if enough and now() + per_campaign - start > seconds * 1e9:
            break
    reference = None
    if workload.same_log_as is not None:
        reference = run_campaign(WORKLOADS[workload.same_log_as], seed, False, work / "reference", deadline)
    return camps, reference


def record_digests() -> None:
    """Write digests.json from one untraced campaign per workload and recorded seed."""
    work = WORK / "record"
    shutil.rmtree(work, ignore_errors=True)
    recorded = {}
    deadline = now() + 3600 * 1e9
    for workload in WORKLOADS.values():
        seeds = {}
        for seed in RECORDED_SEEDS:
            camp = run_campaign(workload, seed, False, work / f"{workload.name}-{seed}", deadline)
            if camp.problem is not None:
                raise SystemExit(f"{workload.name} seed {seed}: {camp.problem}")
            if workload.same_log_as is not None:
                same = recorded[workload.same_log_as]["seeds"][str(seed)]["episodes.csv"]
                if camp.digests["episodes.csv"] != same:
                    raise SystemExit(f"{workload.name} seed {seed}: log differs from {workload.same_log_as}")
            seeds[str(seed)] = camp.digests
        recorded[workload.name] = {"episodes": workload.episodes, "seeds": seeds}
    DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=RECORDED_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if not (SRC / "covsteer" / "__init__.py").is_file():
        print(f"error: covsteer source not found under {SRC}", file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)

    camps, reference = run_workload(workload, args.seed, args.seconds, bool(args.trace), work)
    check_outputs(camps, args.seed, reference)
    everything = camps + ([reference] if reference is not None else [])
    findings = [f"{c.directory.name}: {c.problem}" for c in everything if c.problem is not None]
    attempted = sum(c.workload.episodes for c in everything)
    failed = sum(c.failed_episodes for c in everything)

    good = [c for c in camps if c.problem is None]
    untraced = [c for c in good if not c.traced]
    traced = [c for c in good if c.traced]
    metrics = {}
    if untraced and (traced or not args.trace):
        if args.trace:
            metrics, problems = per_layer(traced, untraced)
            findings += problems
        else:
            metrics = end_to_end(untraced)
    else:
        findings.append("no campaign succeeded")
    correct = not findings and failed == 0

    meta = metadata(args, workload, camps)
    print(f"covsteer campaign benchmark: {workload.name}, {workload.episodes} episodes, "
          f"seed {args.seed}, trace {args.trace}")
    for key, value in meta.items():
        print(f"  {key}: {value}")
    print(f"  campaigns: {len(untraced)} untraced, {len(traced)} traced; "
          f"episodes_failed_frac: {failed / attempted:.6g} ({failed} of {attempted})")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit:8s} n={n}")
    for finding in findings:
        print(f"  FAILED: {finding}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    work.mkdir(parents=True, exist_ok=True)
    (work / "result.json").write_text(
        json.dumps(dict(result, metadata=meta, findings=findings,
                        samples={name: n for name, (_, _, n) in metrics.items()},
                        episodes_failed_frac=failed / attempted), indent=2) + "\n",
        encoding="utf-8",
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
