import gc
import json
import os
import re
import socket
import struct
import threading
import time
import warnings
from collections import Counter, deque
from contextlib import closing, contextmanager
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from covsteer import bridge
from covsteer.actionspace import ActionSpace, Interval, ValueSet, sample_uniform
from covsteer.agents import CemAgent, RandomAgent
from covsteer.bridge import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    REPLY_HOLD_S,
    WINDOW,
    WINDOW_BYTES,
    Counts,
    Episode,
    Error,
    Hello,
    connect_dut,
    connect_tcp,
    decode,
    encode,
    longest_request,
    serve_dut,
    serve_tcp,
)
from covsteer.env import DutModel, Environment, episode_seed, run_campaign
from covsteer.errors import (
    BridgeDecodeError,
    BridgeProtocolError,
    InvalidActionError,
    RemoteDutError,
    TransportError,
)
from covsteer.rle import RleDut

from conftest import (
    CLIENT_TIMEOUT_S,
    JOIN_DEADLINE_S,
    StreamThenFault,
    action_spaces,
    json_values,
    socketpair_session,
    tcp_server,
)

ACTION = (0.4, 6.0, 300.0)

_HELLO = b'{"type":"hello","protocol_version":3,"events":[],"action_space":'
_KNOB_X = b'{"name":"x","kind":"continuous","lo":0,"hi":1}'

# Lines that once escaped decode as TypeError, OverflowError, ValueError or
# RecursionError, a hello whose knob is too wide for a float to span, the v1
# acknowledgements with their dropped fields, the v2 messages that split an
# episode into a reset and a seedless step, and one line for each field check
# of decode that no other line reaches.
HOSTILE_LINES = [
    b'{"type":[]}\n',
    b'{"type":"episode","seed":0,"action":[' + b"9" * 400 + b"]}\n",
    b'{"type":"episode","seed":0,"action":[' + b"9" * 5000 + b"]}\n",
    b'{"type":"episode","seed":0,"action":' + b"[" * 10**5 + b"]" * 10**5 + b"}\n",
    b'{"type":"hello","protocol_version":2,"events":[],"action_space":'
    b'{"knobs":[{"name":["a"],"kind":"continuous","lo":0,"hi":1}]}}\n',
    b'{"type":"hello","protocol_version":3,"events":[],"action_space":'
    b'{"knobs":[{"name":"x","kind":"continuous","lo":-1e308,"hi":1e308}]}}\n',
    b'{"type":"episode","seed":0,"action":[NaN]}\n',
    b'{"type":"reset_ack","observation":[0,0,0,0]}\n',
    b'{"type":"step_ack","observation":[],"counts":[1],"done":true}\n',
    b'{"type":"reset","seed":5}\n',
    b'{"type":"reset_ack"}\n',
    b'{"type":"step","action":[0.4,6,300]}\n',
    _HELLO + b'[]}\n',
    _HELLO + b'{"knobs":[1]}}\n',
    _HELLO + b'{"knobs":[{"name":"x","kind":"continuous","lo":0,"hi":1,"values":[0]}]}}\n',
    _HELLO + b'{"knobs":[{"name":"x","kind":"discrete"}]}}\n',
    _HELLO + b'{"knobs":[{"name":"x","kind":"ordinal","values":[0]}]}}\n',
    _HELLO + b'{"knobs":[' + _KNOB_X + b"," + _KNOB_X + b"]}}\n",
    _HELLO + b'{"knobs":[{"name":"x","kind":"discrete","values":3}]}}\n',
    b'{"type":"hello","protocol_version":"3","events":[],"action_space":{"knobs":['
    + _KNOB_X + b"]}}\n",
    b'{"type":"hello","protocol_version":3,"events":[1],"action_space":{"knobs":['
    + _KNOB_X + b"]}}\n",
    b'{"type":"counts","counts":3}\n',
    b'{"type":"episode","seed":-1,"action":[0.4,6,300]}\n',
    b'{"type":"error","code":1,"detail":"x"}\n',
    b'{"type":"episode","seed":true,"action":[]}\n',
    b'{"type":"episode","seed":0,"action":"x"}\n',
    b'{"type":"counts","counts":[true]}\n',
    b'{"type":"hello","protocol_version":3,"events":"e","action_space":{"knobs":['
    + _KNOB_X + b"]}}\n",
    b'{"type":"hello","protocol_version":3.0,"events":[],"action_space":{"knobs":['
    + _KNOB_X + b"]}}\n",
    b'{"type":"error","code":"decode","detail":null}\n',
    _HELLO + b'{"knobs":[{"name":1,"kind":"continuous","lo":0,"hi":1}]}}\n',
    _HELLO + b'{"knobs":[{"name":"x","kind":"continuous","lo":"0","hi":1}]}}\n',
    _HELLO + b'{"knobs":[{"name":"x","kind":"discrete","values":[0],"unit":"ns"}]}}\n',
    _HELLO + b'{"knobs":[' + _KNOB_X + b'],"units":[]}}\n',
    _HELLO + b'{"knobs":[]}}\n',
    _HELLO + b'{"knobs":[{"name":"x","kind":["discrete"],"values":[0]}]}}\n',
]
HOSTILE_IDS = [
    "type_list", "400_digits", "5000_digits", "nested_1e5", "knob_name_list",
    "knob_width_overflows", "nan",
    "v1_reset_ack", "v1_step_ack", "v2_reset", "v2_reset_ack", "v2_seedless_step",
    "space_list", "knob_int", "continuous_with_values", "discrete_without_values",
    "kind_ordinal", "knob_named_twice", "values_int", "version_string", "event_int",
    "counts_int", "seed_negative", "error_code_int",
    "seed_bool", "action_string", "count_bool", "events_string", "version_float",
    "detail_null", "knob_name_int", "knob_lo_string", "knob_extra_field", "space_extra_field",
    "space_empty", "kind_list",
]


class TestEncode:
    def test_step_framing(self):
        # one request carries the episode's seed and its action
        line = encode(Episode(seed=0, action=(0.4, 6.0, 300.0)))
        assert line == b'{"type":"episode","seed":0,"action":[0.4,6,300]}\n'
        assert encode(Counts(counts=(3, 0))) == b'{"type":"counts","counts":[3,0]}\n'

    def test_hello_and_error_framing(self):
        space = ActionSpace((Interval("x", 0.0, 2.5), ValueSet("mode", [1, 4.5, -2])))
        assert encode(Hello(PROTOCOL_VERSION, space, ("a", "b"))) == (
            b'{"type":"hello","protocol_version":3,"action_space":{"knobs":['
            b'{"name":"x","kind":"continuous","lo":0,"hi":2.5},'
            b'{"name":"mode","kind":"discrete","values":[1,4.5,-2]}]},"events":["a","b"]}\n'
        )
        assert encode(Error("dut_fault", 'RuntimeError: "boom"\n')) == (
            b'{"type":"error","code":"dut_fault","detail":"RuntimeError: \\"boom\\"\\n"}\n'
        )

    def test_reset_framing(self):
        # v3 has no reset message: the seed it carried is framed in the
        # episode request, as an exact JSON integer over the 64-bit range
        for seed in (0, 2**64 - 1):
            line = encode(Episode(seed=seed, action=(0.4,)))
            assert line == b'{"type":"episode","seed":%d,"action":[0.4]}\n' % seed
            assert decode(line) == Episode(seed, (0.4,))

    def test_single_trailing_newline_only(self):
        line = encode(Counts(counts=(3,)))
        assert line.endswith(b"\n")
        assert b"\n" not in line[:-1]

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            encode(Episode(seed=0, action=(float("nan"),)))

    def test_non_message_rejected(self):
        with pytest.raises(TypeError, match="not a bridge message"):
            encode(object())


class TestDecode:
    def test_unknown_type(self):
        with pytest.raises(BridgeDecodeError, match="unknown type"):
            decode(b'{"type":"unknown_thing"}\n')

    def test_missing_field(self):
        with pytest.raises(BridgeDecodeError, match="missing field"):
            decode(b'{"type":"episode","seed":1}\n')

    def test_extra_field_rejected(self):
        with pytest.raises(BridgeDecodeError, match="unknown field"):
            decode(b'{"type":"episode","seed":1,"action":[],"bonus":2}\n')

    def test_valid_step_ack(self):
        msg = decode(b'{"type":"counts","counts":[1,0]}\n')
        assert msg == Counts(counts=(1, 0))

    def test_invalid_json(self):
        with pytest.raises(BridgeDecodeError, match="invalid JSON"):
            decode(b"{nope\n")

    def test_negative_count_rejected(self):
        with pytest.raises(BridgeDecodeError):
            decode(b'{"type":"counts","counts":[-1]}\n')

    def test_boolean_not_a_number(self):
        with pytest.raises(BridgeDecodeError):
            decode(b'{"type":"episode","seed":1,"action":[true]}\n')

    @pytest.mark.parametrize("line", HOSTILE_LINES, ids=HOSTILE_IDS)
    def test_hostile_lines_rejected(self, line):
        with pytest.raises(BridgeDecodeError):
            decode(line)


finite_reals = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
real_vectors = st.lists(finite_reals, max_size=6).map(tuple)


@st.composite
def bridge_messages(draw):
    variant = draw(st.sampled_from(["episode", "counts", "hello", "error"]))
    if variant == "episode":
        return Episode(seed=draw(st.integers(0, 2**64 - 1)), action=draw(real_vectors))
    if variant == "counts":
        return Counts(counts=tuple(draw(st.lists(st.integers(0, 10**9), max_size=6))))
    if variant == "hello":
        knobs = [Interval("a", -1.0, 2.5), ValueSet("b", [1, 4, 9])]
        return Hello(
            protocol_version=PROTOCOL_VERSION,
            action_space=ActionSpace(knobs=tuple(knobs)),
            events=tuple(draw(st.lists(st.text(st.characters(categories=("Ll",)), min_size=1, max_size=8), max_size=4))),
        )
    return Error(code=draw(st.sampled_from(["decode", "protocol", "dut_fault"])), detail=draw(st.text(max_size=30)))


@given(bridge_messages())
def test_encode_decode_roundtrip(msg):
    assert decode(encode(msg)) == msg


def test_module_doc_lists_the_wire_schema():
    # The message table in the module docstring: its rows lie between the
    # second and third rule, one type per row, its fields in wire order.
    rows = re.split(r"^=[= ]+$", bridge.__doc__, flags=re.M)[2].strip().splitlines()
    documented = {}
    for row in rows:
        mtype, names, _direction = re.split(r"\s{2,}", row.strip())
        documented[mtype] = tuple(names.split(", "))
    schema = {mtype: cls.__match_args__ for mtype, cls in bridge._MESSAGES.items()}
    assert documented == schema


_KNOB_PAYLOADS = st.fixed_dictionaries(
    {"name": json_values, "kind": st.just("continuous"), "lo": json_values, "hi": json_values}
) | st.fixed_dictionaries(
    {"name": json_values, "kind": st.just("discrete"), "values": json_values}
)
_MESSAGE_SHAPES = st.fixed_dictionaries(
    {"type": st.sampled_from(["episode", "counts", "hello", "error"])
     | json_values},
    optional={
        "seed": json_values,
        "action": st.lists(json_values, max_size=4),
        "counts": st.lists(json_values, max_size=4),
        "protocol_version": json_values,
        "action_space": st.fixed_dictionaries({"knobs": st.lists(_KNOB_PAYLOADS, max_size=3)})
        | json_values,
        "events": json_values,
        "code": json_values,
        "detail": json_values,
    },
)


@given(st.binary() | st.one_of(json_values, _MESSAGE_SHAPES).map(json.dumps))
def test_decode_raises_only_decode_errors(line):
    try:
        decode(line)
    except BridgeDecodeError:
        pass


@contextmanager
def dut_session(dut_factory=RleDut, wrap=lambda rfile, wfile: (rfile, wfile)):
    """Raw client of one ``serve_dut`` session over a socketpair, past its ``hello``.

    ``wrap`` receives the serving side's reader and writer and returns the
    pair that ``serve_dut`` is given.
    """
    with socketpair_session(lambda rfile, wfile: serve_dut(dut_factory(), *wrap(rfile, wfile))) as s:
        s.hello = s.read()
        yield s


class CountingFile:
    """A serving-side file that tallies its use in ``counts``.

    Tests keep only the counter, so the session's socket closes once
    ``serve_dut`` returns and drops its files.
    """

    def __init__(self, f, counts: Counter):
        self.f, self.counts = f, counts

    def read1(self, size=-1):
        chunk = self.f.read1(size)
        self.counts["read_bytes"] += len(chunk)
        self.counts["largest_read"] = max(self.counts["largest_read"], len(chunk))
        return chunk

    def write(self, data):
        self.counts["lines_written"] += data.count(b"\n")
        return self.f.write(data)

    def flush(self):
        self.counts["flushes"] += 1
        self.f.flush()


def counting(counts: Counter):
    return lambda rfile, wfile: (CountingFile(rfile, counts), CountingFile(wfile, counts))


def read_until_closed(session):
    """What the serving side sent before it closed; unread input makes that close a reset."""
    try:
        return session.rfile.readline()
    except ConnectionResetError:
        return b""


@pytest.fixture
def session():
    with dut_session() as s:
        yield s


class TestServeSession:
    def test_hello_first(self, session):
        assert isinstance(session.hello, Hello)
        assert session.hello.protocol_version == PROTOCOL_VERSION
        assert session.hello.events == RleDut().event_names
        assert session.hello.action_space == RleDut().action_space

    def test_bridged_step_matches_in_process(self, session):
        seed = 123
        reply = session.request(Episode(seed, ACTION))
        assert reply == Counts(RleDut().step(ACTION, seed))

    def test_garbage_line_then_normal_continuation(self, session):
        session.send_raw(b"garbage not json\n")
        reply = session.read()
        assert isinstance(reply, Error) and reply.code == "decode"
        assert isinstance(session.request(Episode(5, ACTION)), Counts)

    def test_invalid_action_reported(self, session):
        reply = session.request(Episode(1, (9.0, 6.0, 300.0)))
        assert isinstance(reply, Error) and reply.code == "invalid_action"

    def test_invalid_action_detail_names_every_bad_knob(self, session):
        reply = session.request(Episode(1, (9.0, 4.5, 300.0)))
        assert reply == Error(
            "invalid_action",
            "knob 0 (zero_prob): 9.0 not in [0.0, 1.0]; knob 1 (count_width): 4.5 not in value set",
        )

    def test_unexpected_server_message_rejected(self, session):
        reply = session.request(Counts((1, 0, 0, 0)))
        assert isinstance(reply, Error) and reply.code == "protocol"

    def test_step_after_done_is_protocol_error(self, session):
        # No episode stays open on the wire: after one is done, a message
        # only the serving side sends (its own counts, echoed) is the
        # protocol error, and the repeated request replays the episode.
        done = session.request(Episode(1, ACTION))
        assert isinstance(done, Counts)
        reply = session.request(done)
        assert isinstance(reply, Error) and reply.code == "protocol"
        assert session.request(Episode(1, ACTION)) == done

    def test_dut_fault_reported_and_session_survives(self):
        class FaultyDut(RleDut):
            def step(self, action, seed):
                raise RuntimeError("internal explosion")

        with dut_session(FaultyDut) as s:
            for seed in (1, 2):
                reply = s.request(Episode(seed, ACTION))
                assert isinstance(reply, Error) and reply.code == "dut_fault"

    def test_retry_after_dut_fault_is_protocol_error(self):
        # A dut_fault leaves no episode open on the wire: echoing the error
        # back is the protocol error, and the retried request runs a fresh
        # episode despite the stream the fault spent.
        with dut_session(StreamThenFault) as s:
            fault = s.request(Episode(4, ACTION))
            assert isinstance(fault, Error) and fault.code == "dut_fault"
            reply = s.request(fault)
            assert isinstance(reply, Error) and reply.code == "protocol"
            assert s.request(Episode(4, ACTION)) == Counts(RleDut().step(ACTION, 4))

    def test_retry_after_dut_fault_replays_the_episode(self):
        with dut_session(StreamThenFault) as s:
            assert s.request(Episode(4, ACTION)).code == "dut_fault"
            expected = Counts(RleDut().step(ACTION, 4))
            # the retry, and a repeat after it, reproduce a fresh episode
            assert s.request(Episode(4, ACTION)) == expected
            assert s.request(Episode(4, ACTION)) == expected

    def test_burst_is_answered_in_order(self, session):
        # Requests written in one go, as a client sending ahead does: every
        # line gets its reply in its own slot, errors included.
        session.send_raw(
            encode(Episode(1, ACTION))
            + b"garbage not json\n"
            + encode(Episode(2, (9.0, 6.0, 300.0)))
            + encode(Counts((1, 0, 0, 0)))
            + encode(Episode(3, ACTION))
        )
        replies = [session.read() for _ in range(5)]
        assert replies[0] == Counts(RleDut().step(ACTION, 1))
        assert [r.code for r in replies[1:4]] == ["decode", "invalid_action", "protocol"]
        assert replies[4] == Counts(RleDut().step(ACTION, 3))

    @pytest.mark.parametrize("line", HOSTILE_LINES, ids=HOSTILE_IDS)
    def test_hostile_line_then_normal_episode(self, session, line):
        session.send_raw(line)
        reply = session.read()
        assert isinstance(reply, Error) and reply.code == "decode"
        assert isinstance(session.request(Episode(5, ACTION)), Counts)

    def test_longest_line_is_served(self, session):
        request = encode(Episode(5, ACTION))
        padded = request[:-1] + b" " * (MAX_LINE_BYTES - len(request)) + b"\n"
        session.send_raw(padded)
        assert session.read() == session.request(Episode(5, ACTION))

    def test_flooding_peer_gets_a_decode_error_and_the_session_ends(self, session):
        # A peer that never ends its line: the serving side reads at most
        # MAX_LINE_BYTES of it, answers once, and closes.
        def flood():
            chunk = b"9" * 65536
            try:
                for _ in range(4 * MAX_LINE_BYTES // len(chunk)):
                    session.sock.sendall(chunk)
            except OSError:
                pass  # the serving side closed mid-flood

        flooder = threading.Thread(target=flood, daemon=True)
        flooder.start()
        reply = session.read()
        assert isinstance(reply, Error) and reply.code == "decode"
        assert "longer than" in reply.detail
        # closing with the flood unread makes the close a reset
        try:
            rest = session.rfile.readline()
        except ConnectionResetError:
            rest = b""
        assert rest == b""
        session.server.join()
        flooder.join(timeout=5)
        assert not flooder.is_alive()


class TestBursts:
    def test_burst_matches_requests_sent_one_at_a_time_with_fewer_flushes(self):
        counts = Counter()
        with dut_session(wrap=counting(counts)) as s:
            requests = [Episode(seed, ACTION) for seed in range(WINDOW)]
            before = counts.copy()
            s.send_raw(b"".join(encode(r) for r in requests))
            burst = [s.read() for _ in requests]
            replies = counts["lines_written"] - before["lines_written"]
            flushes = counts["flushes"] - before["flushes"]
            assert replies == WINDOW
            assert flushes < replies
            assert burst == [s.request(r) for r in requests]

    def test_lone_request_is_answered_before_the_next_arrives(self, session):
        # The serving side flushes before it blocks on its next read.
        session.send_raw(encode(Episode(7, ACTION)))
        assert session.read() == Counts(RleDut().step(ACTION, 7))

    def test_last_line_without_newline_is_answered_at_eof(self, session):
        session.send_raw(encode(Episode(7, ACTION))[:-1])
        session.sock.shutdown(socket.SHUT_WR)
        assert session.read() == Counts(RleDut().step(ACTION, 7))
        assert session.rfile.readline() == b""

    def test_over_long_line_in_a_burst_ends_the_session_after_the_replies_before_it(
        self, session
    ):
        requests = [Episode(seed, ACTION) for seed in (1, 2, 3)]
        session.send_raw(
            b"".join(encode(r) for r in requests)
            + b"9" * MAX_LINE_BYTES + b"\n"
            + encode(Episode(4, ACTION))
        )
        replies = [session.read() for _ in range(4)]
        assert replies[:3] == [Counts(RleDut().step(ACTION, r.seed)) for r in requests]
        assert isinstance(replies[3], Error) and replies[3].code == "decode"
        assert "longer than" in replies[3].detail
        assert read_until_closed(session) == b""
        session.server.join()

    def test_flood_is_read_no_further_than_one_line_and_one_read(self):
        counts = Counter()
        with dut_session(wrap=counting(counts)) as s:

            def flood():
                try:
                    s.sock.sendall(b"9" * (4 * MAX_LINE_BYTES))
                except OSError:
                    pass  # the serving side closed mid-flood

            flooder = threading.Thread(target=flood, daemon=True)
            flooder.start()
            reply = s.read()
            assert isinstance(reply, Error) and reply.code == "decode"
            assert read_until_closed(s) == b""
            s.server.join()
            assert counts["read_bytes"] <= MAX_LINE_BYTES + counts["largest_read"]
        flooder.join(timeout=5)
        assert not flooder.is_alive()


@contextmanager
def proxy_session(serve=lambda rfile, wfile: serve_dut(RleDut(), rfile, wfile)):
    """A ``DutProxy`` over a socketpair whose other end runs ``serve(rfile, wfile)``."""
    with socketpair_session(serve) as client:
        yield connect_dut(client.rfile, client.wfile, sock=client.sock)


class TestProxy:
    def test_proxy_satisfies_dut_contract(self):
        with proxy_session() as proxy:
            env = Environment(proxy, {"e3_partial_count": 1.0})
            records = []
            run_campaign(env, RandomAgent(env.space), 25, seed=3, on_record=records.append)

        local_env = Environment(RleDut(), {"e3_partial_count": 1.0})
        local_records = []
        run_campaign(
            local_env, RandomAgent(local_env.space), 25, seed=3,
            on_record=local_records.append,
        )
        assert records == local_records

    def test_bridged_campaign_sends_one_request_line_per_episode(self):
        received = []

        class RecordingReader:
            """Records each complete line read, and what was left unfinished at EOF."""

            def __init__(self, rfile):
                self.rfile = rfile
                self.unfinished = b""

            def read1(self, size=-1):
                chunk = self.rfile.read1(size)
                *lines, self.unfinished = (self.unfinished + chunk).split(b"\n")
                received.extend(line + b"\n" for line in lines)
                if not chunk:
                    received.append(self.unfinished)
                return chunk

        with proxy_session(lambda rfile, wfile: serve_dut(RleDut(), RecordingReader(rfile), wfile)) as proxy:
            env = Environment(proxy)
            run_campaign(env, RandomAgent(env.space), 25, seed=3)
        assert received[-1] == b""  # the session ended at the close
        assert [decode(line).seed for line in received[:-1]] == [
            episode_seed(3, ep) for ep in range(25)
        ]

    def test_remote_error_raises(self):
        with proxy_session() as proxy:
            with pytest.raises(RemoteDutError) as exc:
                proxy.step((9.0, 6.0, 300.0), 0)
            assert exc.value.code == "invalid_action"

    def test_server_close_mid_session_is_transport_error(self):
        def serve_then_die(rfile, wfile):
            hello = Hello(PROTOCOL_VERSION, RleDut().action_space, RleDut().event_names)
            wfile.write(encode(hello))
            wfile.flush()
            rfile.readline()  # swallow the request, then drop the connection

        with proxy_session(serve_then_die) as proxy:
            with pytest.raises(TransportError):
                proxy.step(ACTION, 0)

    def test_version_gate(self):
        # v1 sent observations; v2 split each episode into a reset and a step
        for version in (1, 2):

            def old_server(rfile, wfile):
                wfile.write(encode(Hello(version, RleDut().action_space, ("x",))))
                wfile.flush()

            with socketpair_session(old_server) as client:
                with pytest.raises(BridgeProtocolError, match="protocol_version"):
                    connect_dut(client.rfile, client.wfile, sock=client.sock)

    def test_serving_fault_is_raised_within_the_deadline(self):
        # serve_dut raises once it reads through a reader without read1; the
        # client's TransportError follows, and the session fails with the
        # serving side's error instead of hanging.
        class LineReader:
            def __init__(self, rfile):
                self.readline = rfile.readline

        started = time.monotonic()
        with pytest.raises(AttributeError, match="read1") as exc:
            with proxy_session(lambda rfile, wfile: serve_dut(RleDut(), LineReader(rfile), wfile)) as proxy:
                env = Environment(proxy)
                run_campaign(env, RandomAgent(env.space), 25, seed=3)
        assert isinstance(exc.value.__context__, TransportError)
        assert time.monotonic() - started < JOIN_DEADLINE_S

    def test_counts_in_place_of_hello_refused(self):
        def counts_first(rfile, wfile):
            wfile.write(encode(Counts((1, 0, 0, 0))))
            wfile.flush()

        with socketpair_session(counts_first) as client:
            with pytest.raises(BridgeProtocolError, match="expected hello"):
                connect_dut(client.rfile, client.wfile, sock=client.sock)

    def test_hello_in_place_of_counts_refused(self):
        def hello_twice(rfile, wfile):
            dut = RleDut()
            hello = encode(Hello(PROTOCOL_VERSION, dut.action_space, dut.event_names))
            wfile.write(hello)
            wfile.flush()
            rfile.readline()
            wfile.write(hello)
            wfile.flush()

        with proxy_session(hello_twice) as proxy:
            with pytest.raises(BridgeProtocolError, match="expected Counts"):
                proxy.step(ACTION, 0)

    def test_reset_before_hello_is_transport_error(self):
        class ResetStream:
            def readline(self, size=-1):
                raise ConnectionResetError(104, "Connection reset by peer")

        with pytest.raises(TransportError):
            connect_dut(ResetStream(), None)

    def test_closed_before_hello(self):
        client, server = socket.socketpair()
        server.close()
        with pytest.raises(TransportError):
            connect_dut(client.makefile("rb"), client.makefile("wb"), sock=client)
        client.close()


class ScriptedServer:
    """In-memory serving side of a DutProxy, usable as both of its files.

    It answers each request line as soon as it is written and counts the
    replies the client has read, so it knows how many requests were
    unanswered at any moment and how many replies had been read before
    each request arrived.
    """

    def __init__(self, dut):
        self.dut = dut
        self.lines = deque([encode(Hello(PROTOCOL_VERSION, dut.action_space, dut.event_names))])
        self.requests = []  # (Episode, replies read before it arrived)
        self.read = -1  # the hello is not a reply
        self.most_unanswered = 0

    def write(self, data):
        for line in data.splitlines(keepends=True):
            msg = decode(line)
            self.requests.append((msg, self.read))
            self.lines.append(encode(Counts(self.dut.step(msg.action, msg.seed))))
            self.most_unanswered = max(self.most_unanswered, len(self.requests) - self.read)
        return len(data)

    def readline(self, size=-1):
        self.read += 1
        return self.lines.popleft()

    def flush(self):
        pass

    def close(self):
        pass


class WideDut(DutModel):
    """A design with so many knobs that one request line outgrows WINDOW_BYTES."""

    event_names = ("positive", "seed_mod_7")
    action_space = ActionSpace(tuple(Interval(f"k{i}", -1e6, 1e6) for i in range(200)))

    def step(self, action, seed):
        return (int(sum(action) > 0), seed % 7)


def campaign_records(dut, make_agent, episodes=23, seed=4):
    env = Environment(dut, {dut.event_names[0]: 1.0})
    records = []
    run_campaign(env, make_agent(env.space), episodes, seed, on_record=records.append)
    return records


def cem(batch_size):
    return lambda space: CemAgent(space, batch_size=batch_size)


class TestPipelining:
    @pytest.mark.parametrize("make_agent,batch", [
        (RandomAgent, 23), (cem(1), 1), (cem(7), 7), (cem(50), 50),
    ], ids=["random", "cem_batch_1", "cem_batch_7", "cem_batch_50"])
    def test_window_and_batch_boundary(self, make_agent, batch):
        server = ScriptedServer(RleDut())
        proxy = connect_dut(server, server)
        records = campaign_records(proxy, make_agent)
        assert records == campaign_records(RleDut(), make_agent)
        # The window fills up to the agent's next update, and no further.
        assert server.most_unanswered == min(WINDOW, batch)
        for ep, (msg, read_before) in enumerate(server.requests):
            assert msg.seed == episode_seed(4, ep)
            # Batch b's requests wait until every reply of batch b - 1 was read.
            assert read_before >= ep - ep % batch

    def test_one_request_in_flight_when_a_line_may_outgrow_the_window(self):
        assert longest_request(WideDut.action_space) > WINDOW_BYTES
        server = ScriptedServer(WideDut())
        proxy = connect_dut(server, server)
        assert proxy.lookahead == 0
        records = campaign_records(proxy, RandomAgent)
        assert records == campaign_records(WideDut(), RandomAgent)
        assert server.most_unanswered == 1

    def test_invalid_action_is_never_sent_and_raises_on_its_turn(self):
        class InvalidAtEpisode5(RandomAgent):
            proposed = 0

            def propose(self, rng):
                action = super().propose(rng)
                self.proposed += 1
                return (9.0,) + action[1:] if self.proposed == 6 else action

        server = ScriptedServer(RleDut())
        proxy = connect_dut(server, server)
        records = []
        with pytest.raises(InvalidActionError):
            run_campaign(Environment(proxy), InvalidAtEpisode5(proxy.action_space), 23, seed=4,
                         on_record=records.append)
        assert [r.episode for r in records] == list(range(5))
        assert [msg.seed for msg, _ in server.requests] == [episode_seed(4, ep) for ep in range(5)]

    def test_step_must_match_the_oldest_request_in_flight(self):
        server = ScriptedServer(RleDut())
        proxy = connect_dut(server, server)
        proxy.hint(ACTION, 1)
        with pytest.raises(BridgeProtocolError, match="oldest"):
            proxy.step(ACTION, 2)

    def test_hint_beyond_the_window_is_refused(self):
        server = ScriptedServer(RleDut())
        proxy = connect_dut(server, server)
        assert proxy.lookahead == WINDOW
        for seed in range(WINDOW):
            proxy.hint(ACTION, seed)
        with pytest.raises(BridgeProtocolError, match="in flight"):
            proxy.hint(ACTION, WINDOW)
        assert len(server.requests) == WINDOW
        assert proxy.step(ACTION, 0) == RleDut().step(ACTION, 0)

    def test_replies_sent_before_the_server_left_are_still_read(self):
        # The serving side answers two requests and closes before the
        # client's write, which fails; the two replies still count, and the
        # request that never went out reads as a closed transport.
        client, server = socket.socketpair()
        dut = RleDut()
        with server, server.makefile("wb") as wfile:
            wfile.write(encode(Hello(PROTOCOL_VERSION, dut.action_space, dut.event_names)))
            for seed in (1, 2):
                wfile.write(encode(Counts(dut.step(ACTION, seed))))
        proxy = connect_dut(client.makefile("rb"), client.makefile("wb"), sock=client)
        try:
            for seed in (1, 2, 3):
                proxy.hint(ACTION, seed)
            for seed in (1, 2):
                assert proxy.step(ACTION, seed) == dut.step(ACTION, seed)
            with pytest.raises(TransportError):
                proxy.step(ACTION, 3)
        finally:
            proxy.close()


@given(action_spaces(), st.integers(0, 2**64 - 1), st.integers(0, 2**32 - 1))
def test_longest_request_bounds_every_valid_request(space, seed, draw_seed):
    ends = [k.lo if isinstance(k, Interval) else k.values[-1] for k in space.knobs]
    actions = [sample_uniform(space, np.random.default_rng(draw_seed)), tuple(ends)]
    for values in actions:
        assert len(encode(Episode(seed, values))) <= longest_request(space)


def test_longest_request_bounds_wide_numbers():
    space = ActionSpace((
        Interval("huge", -1e300, 1e300),
        Interval("tiny", -1.0, 1.0),
        ValueSet("set", [-1e200, 0.5]),
    ))
    widest = (-1e300, -2.2250738585072014e-308, -1e200)
    assert len(encode(Episode(2**64 - 1, widest))) <= longest_request(space)


class TestTcp:
    def test_connect_tcp_and_run(self):
        with tcp_server() as server, closing(connect_tcp("127.0.0.1", server.port, timeout=10)) as proxy:
            env = Environment(proxy, {"e3_partial_count": 1.0})
            cumulative = run_campaign(env, RandomAgent(env.space), 10, seed=1)
        local = Environment(RleDut(), {"e3_partial_count": 1.0})
        assert cumulative == run_campaign(local, RandomAgent(local.space), 10, seed=1)

    def test_both_ends_disable_nagle(self, monkeypatch):
        # Requests sent ahead must not wait behind unacknowledged ones.
        from covsteer import bridge

        served = []
        serve_dut = bridge.serve_dut

        def recording_serve_dut(dut, rfile, wfile):
            with socket.socket(fileno=os.dup(rfile.fileno())) as conn:
                served.append(conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))
            serve_dut(dut, rfile, wfile)

        monkeypatch.setattr(bridge, "serve_dut", recording_serve_dut)
        with tcp_server() as server, closing(connect_tcp("127.0.0.1", server.port, timeout=10)) as proxy:
            assert proxy._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        assert served and served[0]

    def test_slow_design_answers_a_full_window_within_the_timeout(self):
        # Each step outlasts REPLY_HOLD_S, so its reply goes out at once
        # instead of waiting for the burst it came in.
        class SlowDut(RleDut):
            def step(self, action, seed):
                time.sleep(2 * REPLY_HOLD_S)
                return super().step(action, seed)

        with tcp_server(partial(serve_tcp, SlowDut, max_sessions=1)) as server, closing(
            connect_tcp("127.0.0.1", server.port, timeout=10 * REPLY_HOLD_S)
        ) as proxy:
            assert proxy.lookahead == WINDOW
            records = campaign_records(proxy, RandomAgent, episodes=WINDOW)
        assert records == campaign_records(RleDut(), RandomAgent, episodes=WINDOW)

    def test_reset_before_hello_closes_the_socket(self):
        # The server accepts and resets the connection, most likely while
        # the client waits for hello; a reset that comes sooner is refused
        # as a failed connect. Either way no socket is left open.
        def accept_then_reset(on_bound):
            with socket.create_server(("127.0.0.1", 0)) as listener:
                on_bound(listener.getsockname()[1])
                conn, _ = listener.accept()
            with conn:
                time.sleep(0.05)
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))

        with tcp_server(accept_then_reset) as server, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(TransportError):
                connect_tcp("127.0.0.1", server.port, timeout=10)
            gc.collect()  # the raised error's frames held the socket until now
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    @pytest.mark.parametrize("after", ["connect", "hello"])
    def test_over_long_reply_line_is_a_decode_error_at_once(self, after):
        # The server sends a line one byte past the bound with no newline
        # and keeps the connection open; an unbounded read would wait for
        # the newline until the client's timeout.
        def flood(on_bound):
            with socket.create_server(("127.0.0.1", 0)) as listener:
                on_bound(listener.getsockname()[1])
                conn, _ = listener.accept()
            with conn:
                conn.settimeout(CLIENT_TIMEOUT_S)
                if after == "hello":
                    dut = RleDut()
                    conn.sendall(encode(Hello(PROTOCOL_VERSION, dut.action_space, dut.event_names)))
                    conn.recv(4096)  # the episode request
                conn.sendall(b"9" * (MAX_LINE_BYTES + 2))
                while conn.recv(4096):  # until the client closes
                    pass

        bound = f"longer than {MAX_LINE_BYTES} bytes"
        with tcp_server(flood) as server:
            if after == "connect":
                with pytest.raises(BridgeDecodeError, match=f"hello line {bound}"):
                    connect_tcp("127.0.0.1", server.port, timeout=2)
            else:
                with closing(connect_tcp("127.0.0.1", server.port, timeout=2)) as proxy:
                    with pytest.raises(BridgeDecodeError, match=f"Counts line {bound}"):
                        proxy.step(ACTION, 0)

    def test_connect_refused(self):
        with pytest.raises(TransportError):
            connect_tcp("127.0.0.1", 1, timeout=0.5)

    def test_session_beyond_the_cap_is_refused_busy(self, monkeypatch):
        from covsteer import bridge

        monkeypatch.setattr(bridge, "MAX_CONCURRENT_SESSIONS", 2)
        with tcp_server(partial(serve_tcp, RleDut, max_sessions=3)) as server:
            port = server.port
            first = connect_tcp("127.0.0.1", port, timeout=10)
            second = connect_tcp("127.0.0.1", port, timeout=10)
            proxies = [first, second]
            try:
                with pytest.raises(RemoteDutError, match="busy"):
                    connect_tcp("127.0.0.1", port, timeout=10)
                # Both admitted sessions still serve episodes.
                local = RleDut().step(ACTION, 3)
                assert first.step(ACTION, 3) == local
                assert second.step(ACTION, 3) == local
                # Once a session ends its slot is free again; the refused
                # connection did not count towards max_sessions.
                first.close()
                deadline = time.monotonic() + 5
                while True:
                    try:
                        proxies.append(connect_tcp("127.0.0.1", port, timeout=10))
                        break
                    except RemoteDutError:
                        assert time.monotonic() < deadline
                        time.sleep(0.01)
                assert proxies[-1].step(ACTION, 3) == local
            finally:
                for proxy in proxies:
                    proxy.close()

    def test_returns_only_after_every_session_ended(self):
        with tcp_server(partial(serve_tcp, RleDut, max_sessions=2)) as server:
            first = connect_tcp("127.0.0.1", server.port, timeout=10)
            second = connect_tcp("127.0.0.1", server.port, timeout=10)
            try:
                local = RleDut().step(ACTION, 3)
                assert first.step(ACTION, 3) == local
                first.close()
                # Both sessions were admitted, but the second still serves.
                server.thread.join(timeout=0.5)
                assert server.thread.is_alive()
                assert second.step(ACTION, 3) == local
            finally:
                first.close()
                second.close()

    def test_silent_peer_is_disconnected(self, monkeypatch):
        from covsteer import bridge

        monkeypatch.setattr(bridge, "SESSION_IDLE_TIMEOUT_S", 0.2)
        with tcp_server() as server, closing(connect_tcp("127.0.0.1", server.port, timeout=10)) as proxy:
            assert proxy.step(ACTION, 3) == RleDut().step(ACTION, 3)
            # The server closes the silent session, which ends serve_tcp.
            server.join()
            with pytest.raises(TransportError):
                proxy.step(ACTION, 3)
