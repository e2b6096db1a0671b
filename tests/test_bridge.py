import json
import socket
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from covsteer.actionspace import Action, ActionSpace, KnobSpec
from covsteer.agents import RandomAgent
from covsteer.bridge import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    Counts,
    Episode,
    Error,
    Hello,
    connect_dut,
    connect_tcp,
    decode,
    encode,
    serve_dut,
    serve_tcp,
)
from covsteer.env import Environment, episode_seed, run_campaign
from covsteer.errors import (
    BridgeDecodeError,
    BridgeProtocolError,
    RemoteDutError,
    TransportError,
)
from covsteer.rle import RleDut

from conftest import StreamThenFault, json_values

ACTION = (0.4, 6.0, 300.0)

# Lines that once escaped decode as TypeError, OverflowError, ValueError or
# RecursionError, the v1 acknowledgements with their dropped fields, and the
# v2 messages that split an episode into a reset and a seedless step.
HOSTILE_LINES = [
    b'{"type":[]}\n',
    b'{"type":"episode","seed":0,"action":[' + b"9" * 400 + b"]}\n",
    b'{"type":"episode","seed":0,"action":[' + b"9" * 5000 + b"]}\n",
    b'{"type":"episode","seed":0,"action":' + b"[" * 10**5 + b"]" * 10**5 + b"}\n",
    b'{"type":"hello","protocol_version":2,"events":[],"action_space":'
    b'{"knobs":[{"name":["a"],"kind":"continuous","lo":0,"hi":1}]}}\n',
    b'{"type":"episode","seed":0,"action":[NaN]}\n',
    b'{"type":"reset_ack","observation":[0,0,0,0]}\n',
    b'{"type":"step_ack","observation":[],"counts":[1],"done":true}\n',
    b'{"type":"reset","seed":5}\n',
    b'{"type":"reset_ack"}\n',
    b'{"type":"step","action":[0.4,6,300]}\n',
]
HOSTILE_IDS = [
    "type_list", "400_digits", "5000_digits", "nested_1e5", "knob_name_list", "nan",
    "v1_reset_ack", "v1_step_ack", "v2_reset", "v2_reset_ack", "v2_seedless_step",
]


class TestEncode:
    def test_step_framing(self):
        # one request carries the episode's seed and its action
        line = encode(Episode(seed=0, action=(0.4, 6.0, 300.0)))
        assert line == b'{"type":"episode","seed":0,"action":[0.4,6,300]}\n'
        assert encode(Counts(counts=(3, 0))) == b'{"type":"counts","counts":[3,0]}\n'

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
        knobs = [KnobSpec.continuous("a", -1.0, 2.5), KnobSpec.discrete("b", [1, 4, 9])]
        return Hello(
            protocol_version=PROTOCOL_VERSION,
            action_space=ActionSpace(knobs=tuple(knobs)),
            events=tuple(draw(st.lists(st.text(st.characters(categories=("Ll",)), min_size=1, max_size=8), max_size=4))),
        )
    return Error(code=draw(st.sampled_from(["decode", "protocol", "dut_fault"])), detail=draw(st.text(max_size=30)))


@given(bridge_messages())
def test_encode_decode_roundtrip(msg):
    assert decode(encode(msg)) == msg


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


class Session:
    """Raw client side of one served session over a socketpair."""

    def __init__(self, dut_factory=RleDut):
        self.client, server = socket.socketpair()
        self.client.settimeout(10)  # a dead serving side fails the test instead of hanging it
        self.rfile = self.client.makefile("rb")
        self.wfile = self.client.makefile("wb")

        def serve():
            with server:
                serve_dut(dut_factory(), server.makefile("rb"), server.makefile("wb"))

        self.thread = threading.Thread(target=serve, daemon=True)
        self.thread.start()
        self.hello = decode(self.rfile.readline())

    def send_raw(self, data: bytes):
        self.wfile.write(data)
        self.wfile.flush()

    def request(self, msg):
        self.send_raw(encode(msg))
        return decode(self.rfile.readline())

    def close(self):
        # makefile wrappers keep the fd alive; close them before the socket
        # so the serving side sees EOF.
        self.rfile.close()
        self.wfile.close()
        self.client.close()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()


@pytest.fixture
def session():
    s = Session()
    yield s
    s.close()


class TestServeSession:
    def test_hello_first(self, session):
        assert isinstance(session.hello, Hello)
        assert session.hello.protocol_version == PROTOCOL_VERSION
        assert session.hello.events == RleDut().event_names()
        assert session.hello.action_space == RleDut().action_space()

    def test_bridged_step_matches_in_process(self, session):
        seed = 123
        reply = session.request(Episode(seed, ACTION))
        assert reply == Counts(RleDut().step(Action(ACTION), seed))

    def test_garbage_line_then_normal_continuation(self, session):
        session.send_raw(b"garbage not json\n")
        reply = decode(session.rfile.readline())
        assert isinstance(reply, Error) and reply.code == "decode"
        assert isinstance(session.request(Episode(5, ACTION)), Counts)

    def test_invalid_action_reported(self, session):
        reply = session.request(Episode(1, (9.0, 6.0, 300.0)))
        assert isinstance(reply, Error) and reply.code == "invalid_action"

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

        s = Session(dut_factory=FaultyDut)
        try:
            for seed in (1, 2):
                reply = s.request(Episode(seed, ACTION))
                assert isinstance(reply, Error) and reply.code == "dut_fault"
        finally:
            s.close()

    def test_retry_after_dut_fault_is_protocol_error(self):
        # A dut_fault leaves no episode open on the wire: echoing the error
        # back is the protocol error, and the retried request runs a fresh
        # episode despite the stream the fault spent.
        s = Session(dut_factory=StreamThenFault)
        try:
            fault = s.request(Episode(4, ACTION))
            assert isinstance(fault, Error) and fault.code == "dut_fault"
            reply = s.request(fault)
            assert isinstance(reply, Error) and reply.code == "protocol"
            assert s.request(Episode(4, ACTION)) == Counts(RleDut().step(Action(ACTION), 4))
        finally:
            s.close()

    def test_retry_after_dut_fault_replays_the_episode(self):
        s = Session(dut_factory=StreamThenFault)
        try:
            assert s.request(Episode(4, ACTION)).code == "dut_fault"
            expected = Counts(RleDut().step(Action(ACTION), 4))
            # the retry, and a repeat after it, reproduce a fresh episode
            assert s.request(Episode(4, ACTION)) == expected
            assert s.request(Episode(4, ACTION)) == expected
        finally:
            s.close()

    @pytest.mark.parametrize("line", HOSTILE_LINES, ids=HOSTILE_IDS)
    def test_hostile_line_then_normal_episode(self, session, line):
        session.send_raw(line)
        reply = decode(session.rfile.readline())
        assert isinstance(reply, Error) and reply.code == "decode"
        assert isinstance(session.request(Episode(5, ACTION)), Counts)

    def test_longest_line_is_served(self, session):
        request = encode(Episode(5, ACTION))
        padded = request[:-1] + b" " * (MAX_LINE_BYTES - len(request)) + b"\n"
        session.send_raw(padded)
        assert decode(session.rfile.readline()) == session.request(Episode(5, ACTION))

    def test_flooding_peer_gets_a_decode_error_and_the_session_ends(self, session):
        # A peer that never ends its line: the serving side reads at most
        # MAX_LINE_BYTES of it, answers once, and closes.
        def flood():
            chunk = b"9" * 65536
            try:
                for _ in range(4 * MAX_LINE_BYTES // len(chunk)):
                    session.client.sendall(chunk)
            except OSError:
                pass  # the serving side closed mid-flood

        flooder = threading.Thread(target=flood, daemon=True)
        flooder.start()
        reply = decode(session.rfile.readline())
        assert isinstance(reply, Error) and reply.code == "decode"
        assert "longer than" in reply.detail
        # closing with the flood unread makes the close a reset
        try:
            rest = session.rfile.readline()
        except ConnectionResetError:
            rest = b""
        assert rest == b""
        session.thread.join(timeout=5)
        assert not session.thread.is_alive()
        flooder.join(timeout=5)
        assert not flooder.is_alive()


def proxy_session(dut_factory=RleDut):
    client, server = socket.socketpair()

    def serve():
        with server:
            serve_dut(dut_factory(), server.makefile("rb"), server.makefile("wb"))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    proxy = connect_dut(client.makefile("rb"), client.makefile("wb"), sock=client)
    return proxy, thread


class TestProxy:
    def test_proxy_satisfies_dut_contract(self):
        proxy, thread = proxy_session()
        try:
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
        finally:
            proxy.close()
            thread.join(timeout=5)

    def test_bridged_campaign_sends_one_request_line_per_episode(self):
        client, server = socket.socketpair()
        received = []

        class RecordingReader:
            def __init__(self, rfile):
                self.rfile = rfile

            def readline(self, limit):
                line = self.rfile.readline(limit)
                received.append(line)
                return line

        def serve():
            with server:
                serve_dut(RleDut(), RecordingReader(server.makefile("rb")), server.makefile("wb"))

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        proxy = connect_dut(client.makefile("rb"), client.makefile("wb"), sock=client)
        try:
            env = Environment(proxy)
            run_campaign(env, RandomAgent(env.space), 25, seed=3)
        finally:
            proxy.close()
            thread.join(timeout=5)
        assert not thread.is_alive()
        assert received[-1] == b""  # the session ended at the close
        assert [decode(line).seed for line in received[:-1]] == [
            episode_seed(3, ep) for ep in range(25)
        ]

    def test_remote_error_raises(self):
        proxy, thread = proxy_session()
        try:
            with pytest.raises(RemoteDutError) as exc:
                proxy.step(Action((9.0, 6.0, 300.0)), 0)
            assert exc.value.code == "invalid_action"
        finally:
            proxy.close()
            thread.join(timeout=5)

    def test_server_close_mid_session_is_transport_error(self):
        client, server = socket.socketpair()

        def serve_then_die():
            with server:
                wfile = server.makefile("wb")
                rfile = server.makefile("rb")
                hello = Hello(PROTOCOL_VERSION, RleDut().action_space(), RleDut().event_names())
                wfile.write(encode(hello))
                wfile.flush()
                rfile.readline()  # swallow the request, then drop the connection

        thread = threading.Thread(target=serve_then_die, daemon=True)
        thread.start()
        proxy = connect_dut(client.makefile("rb"), client.makefile("wb"), sock=client)
        with pytest.raises(TransportError):
            proxy.step(Action(ACTION), 0)
        proxy.close()
        thread.join(timeout=5)

    def test_version_gate(self):
        # v1 sent observations; v2 split each episode into a reset and a step
        for version in (1, 2):
            client, server = socket.socketpair()

            def old_server():
                with server:
                    wfile = server.makefile("wb")
                    wfile.write(encode(Hello(version, RleDut().action_space(), ("x",))))
                    wfile.flush()

            thread = threading.Thread(target=old_server, daemon=True)
            thread.start()
            with pytest.raises(BridgeProtocolError, match="protocol_version"):
                connect_dut(client.makefile("rb"), client.makefile("wb"), sock=client)
            client.close()
            thread.join(timeout=5)

    def test_closed_before_hello(self):
        client, server = socket.socketpair()
        server.close()
        with pytest.raises(TransportError):
            connect_dut(client.makefile("rb"), client.makefile("wb"), sock=client)
        client.close()


class TestTcp:
    def test_connect_tcp_and_run(self):
        bound = {}
        ready = threading.Event()

        def on_bound(port):
            bound["port"] = port
            ready.set()

        server = threading.Thread(
            target=serve_tcp,
            kwargs=dict(dut_factory=RleDut, port=0, max_sessions=1, on_bound=on_bound),
            daemon=True,
        )
        server.start()
        assert ready.wait(5)
        proxy = connect_tcp("127.0.0.1", bound["port"], timeout=10)
        try:
            env = Environment(proxy, {"e3_partial_count": 1.0})
            cumulative = run_campaign(env, RandomAgent(env.space), 10, seed=1)
            local = Environment(RleDut(), {"e3_partial_count": 1.0})
            assert cumulative == run_campaign(local, RandomAgent(local.space), 10, seed=1)
        finally:
            proxy.close()
            server.join(timeout=5)

    def test_connect_refused(self):
        with pytest.raises(TransportError):
            connect_tcp("127.0.0.1", 1, timeout=0.5)
