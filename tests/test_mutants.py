"""A mutant survey of both design models against their scoreboards.

Every mutant changes one operator or one integer constant of a design's
model function: a comparison moves to a neighbouring operator, an
arithmetic or bitwise operator is swapped, or an integer constant moves
by one. Each mutant runs in its module's namespace over a fixed set of
episodes through the design's own ``step``, and every mutant that
changes some episode's counts or model output must make the scoreboard
raise ``ScoreboardError`` on one of them. The mutants that change
nothing, and those that crash instead, are listed below with the reason.

``decode_action``, the layer that turns knobs into stimulus, is left out:
neither scoreboard checks the stimulus against the action yet, so its
count-changing mutants go unflagged (ROADMAP item 2).
"""

import ast
import inspect
import textwrap

import numpy as np
import pytest

from covsteer import axi, rle
from covsteer.actionspace import sample_uniform
from covsteer.errors import ScoreboardError

from conftest import exec_in_module

# A comparison's neighbours are the two operators whose outcomes over
# (less, equal, greater) differ from its own in exactly one case.
COMPARISON_NEIGHBOURS = {
    ast.Lt: (ast.LtE, ast.NotEq),
    ast.LtE: (ast.Lt, ast.Eq),
    ast.Eq: (ast.LtE, ast.GtE),
    ast.GtE: (ast.Eq, ast.Gt),
    ast.Gt: (ast.GtE, ast.NotEq),
    ast.NotEq: (ast.Lt, ast.Gt),
}
OPERATOR_SWAPS = {
    ast.Add: ast.Sub,
    ast.Sub: ast.Add,
    ast.Mult: ast.FloorDiv,
    ast.FloorDiv: ast.Mult,
    ast.Mod: ast.FloorDiv,
    ast.LShift: ast.RShift,
    ast.RShift: ast.LShift,
    ast.BitOr: ast.BitAnd,
    ast.BitAnd: ast.BitOr,
}
EPISODES = 50


def _edits(tree):
    """Each one-site mutation of ``tree`` as ``(node, field, new value)``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                for neighbour in COMPARISON_NEIGHBOURS[type(op)]:
                    yield node, "ops", node.ops[:i] + [neighbour()] + node.ops[i + 1 :]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in OPERATOR_SWAPS:
            yield node, "op", OPERATOR_SWAPS[type(node.op)]()
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield node, "value", node.value - 1
            yield node, "value", node.value + 1


def mutants(fn):
    """``{label: source}`` of every mutant of ``fn``.

    A label is "<line> <statement> -> <mutated statement>", with the line
    counted from the ``def`` line as 1.
    """
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    lines = ast.unparse(tree).splitlines()
    found = {}
    for node, field, value in list(_edits(tree)):
        original = getattr(node, field)
        setattr(node, field, value)
        source = ast.unparse(tree)
        setattr(node, field, original)
        ((before, after),) = [(a, b) for a, b in zip(lines, source.splitlines()) if a != b]
        label = f"{node.lineno} {before.strip()} -> {after.strip()}"
        assert label not in found
        found[label] = source
    return found


def survey(monkeypatch, module, name, dut, episodes):
    """Each mutant's outcome: "flagged", "equivalent", "crashed" or "changed, unflagged"."""
    model = getattr(module, name)
    results = []

    def run_with(fn):
        """Steps every episode with ``fn`` as the model; whether the scoreboard raised."""
        results.clear()

        def recording(*args):
            results.append(fn(*args))
            return results[-1]

        monkeypatch.setattr(module, name, recording)
        flagged = False
        for action, seed in episodes:
            try:
                dut.step(action, seed)
            except ScoreboardError:
                flagged = True
        return flagged

    assert not run_with(model)
    expected = list(results)
    outcomes = {}
    for label, source in mutants(model).items():
        try:
            flagged = run_with(exec_in_module(module, source, name))
        except Exception:  # noqa: BLE001 - a crash is an outcome
            outcomes[label] = "crashed"
            continue
        if flagged:
            outcomes[label] = "flagged"
        elif results == expected:
            outcomes[label] = "equivalent"
        else:
            outcomes[label] = "changed, unflagged"
    return outcomes


def uniform_episodes(space, seed):
    rng = np.random.default_rng(seed)
    return [(sample_uniform(space, rng), int(rng.integers(1 << 30))) for _ in range(EPISODES)]


# The crossbar runs 101 cycles a step: at the default 100 the last cycle is
# a drain cycle, so no FIFO ends a step full and the count at the step's
# end would go untested.
AXI_DUT = axi.AxiDut(axi.AxiConfig(cycles_per_step=101))
DESIGNS = {
    "rle": (rle, "rle_run", rle.RleDut(), uniform_episodes(rle.ACTION_SPACE, 23)),
    "axi": (axi, "simulate_step", AXI_DUT, uniform_episodes(axi.ACTION_SPACE, 23)),
}
NEVER_OVER_DEPTH = "a FIFO never holds more than fifo_depth requests"
SPAN_CHECK = "refuses a span that decode_action makes, with ValueError"
EQUIVALENT = {
    "rle": {
        "14 mid = 1 << cw - 2 if cw >= 2 else 0 -> mid = 1 << cw - 2 if cw >= 2 else -1":
            "at width 1 the counter is at least 1 when compared, so it meets neither 0 nor -1",
        "21 if word == 0: -> if word <= 0:": "a byte is never negative",
        "25 if counter < saturation: -> if counter != saturation:":
            "the counter clears when it saturates, so it never passes saturation",
        "47 if n_stored % WORD_CAPACITY == 0: -> if n_stored % WORD_CAPACITY <= 0:":
            "the word counter is never negative, so neither is its remainder",
    },
    "axi": {
        "13 if not 0 <= a_min < a_max <= N_SLAVES * config.region_size: -> "
        "if not 0 <= a_min <= a_max <= N_SLAVES * config.region_size:":
            "decode_action never makes an empty span",
        "13 if not 0 <= a_min < a_max <= N_SLAVES * config.region_size: -> "
        "if not 0 <= a_min != a_max <= N_SLAVES * config.region_size:":
            "decode_action never makes an empty span",
        "13 if not 0 <= a_min < a_max <= N_SLAVES * config.region_size: -> "
        "if not -1 <= a_min < a_max <= N_SLAVES * config.region_size:":
            "decode_action never makes a negative address",
        "25 full_since = [0] * N_SLAVES -> full_since = [-1] * N_SLAVES":
            "every read of full_since follows the write made when its FIFO filled",
        "25 full_since = [0] * N_SLAVES -> full_since = [1] * N_SLAVES":
            "every read of full_since follows the write made when its FIFO filled",
        "32 if len(fifo) < depth: -> if len(fifo) != depth:": NEVER_OVER_DEPTH,
        "34 if len(fifo) == depth: -> if len(fifo) >= depth:": NEVER_OVER_DEPTH,
        "34 if len(fifo) == depth: -> if len(fifo) <= depth:":
            "a full FIFO takes no request, so the last write before a read is the filling one",
        "42 if len(fifo) == depth: -> if len(fifo) >= depth:": NEVER_OVER_DEPTH,
        "46 if len(fifo) == depth: -> if len(fifo) >= depth:": NEVER_OVER_DEPTH,
    },
}
CRASHED = {
    "rle": {
        "14 mid = 1 << cw - 2 if cw >= 2 else 0 -> mid = 1 << cw - 2 if cw >= 1 else 0":
            "width 1 shifts by -1: ValueError",
        "14 mid = 1 << cw - 2 if cw >= 2 else 0 -> mid = 1 << cw - 3 if cw >= 2 else 0":
            "width 2 shifts by -1: ValueError",
        "15 n_stored = zc_bits = zc_used = counter = 0 -> "
        "n_stored = zc_bits = zc_used = counter = -1":
            "the first field shifts by zc_used -1: ValueError",
        "34 zc_used += cw -> zc_used -= cw": "the second field shifts by a negative count: ValueError",
    },
    "axi": {
        "13 if not 0 <= a_min < a_max <= N_SLAVES * config.region_size: -> "
        "if not 0 < a_min < a_max <= N_SLAVES * config.region_size:": SPAN_CHECK,
        "13 if not 0 <= a_min < a_max <= N_SLAVES * config.region_size: -> "
        "if not 0 == a_min < a_max <= N_SLAVES * config.region_size:": SPAN_CHECK,
        "13 if not 0 <= a_min < a_max <= N_SLAVES * config.region_size: -> "
        "if not 0 <= a_min < a_max < N_SLAVES * config.region_size:": SPAN_CHECK,
        "13 if not 0 <= a_min < a_max <= N_SLAVES * config.region_size: -> "
        "if not 0 <= a_min < a_max == N_SLAVES * config.region_size:": SPAN_CHECK,
        "13 if not 0 <= a_min < a_max <= N_SLAVES * config.region_size: -> "
        "if not 1 <= a_min < a_max <= N_SLAVES * config.region_size:": SPAN_CHECK,
        "13 if not 0 <= a_min < a_max <= N_SLAVES * config.region_size: -> "
        "if not 0 <= a_min < a_max <= N_SLAVES // config.region_size:": SPAN_CHECK,
        "18 slaves = (draw // config.region_size).tolist() -> "
        "slaves = (draw * config.region_size).tolist()":
            "routes requests to slaves past the map: IndexError",
        "22 counts = [0] * N_SLAVES -> counts = [0] // N_SLAVES": "list // int: TypeError",
        "25 full_since = [0] * N_SLAVES -> full_since = [0] // N_SLAVES": "list // int: TypeError",
        "26 accepted = [True] * len(slaves) -> accepted = [True] // len(slaves)":
            "list // int: TypeError",
        "29 drain_every = N_MASTERS * config.drain_period -> "
        "drain_every = N_MASTERS // config.drain_period":
            "drain_every is 0: ZeroDivisionError",
    },
}


@pytest.mark.parametrize("design", DESIGNS)
def test_scoreboard_flags_every_mutant_that_changes_an_episode(monkeypatch, design):
    outcomes = survey(monkeypatch, *DESIGNS[design])
    assert [label for label, o in outcomes.items() if o == "changed, unflagged"] == []
    assert {label for label, o in outcomes.items() if o == "equivalent"} == set(EQUIVALENT[design])
    assert {label for label, o in outcomes.items() if o == "crashed"} == set(CRASHED[design])
