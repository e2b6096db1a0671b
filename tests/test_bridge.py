import socket
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from covsteer.actionspace import Action, ActionSpace, KnobSpec
from covsteer.agents import RandomAgent
from covsteer.bridge import (
    PROTOCOL_VERSION,
    DutProxy,
    Error,
    Hello,
    Reset,
    ResetAck,
    Step,
    StepAck,
    connect_dut,
    connect_tcp,
    decode,
    encode,
    serve_dut,
    serve_tcp,
)
from covsteer.env import Environment, run_campaign, stimulus_rng
from covsteer.errors import (
    BridgeDecodeError,
    BridgeProtocolError,
    RemoteDutError,
    TransportError,
)
from covsteer.rle import RleDut


class TestEncode:
    def test_step_framing(self):
        line = encode(Step(action=(0.4, 6.0, 300.0)))
        assert line == b'{"type":"step","action":[0.4,6,300]}\n'

    def test_reset_framing(self):
        assert encode(Reset(seed=0)) == b'{"type":"reset","seed":0}\n'

    def test_single_trailing_newline_only(self):
        line = encode(StepAck(observation=(1.5,), counts=(3,), done=True))
        assert line.endswith(b"\n")
        assert b"\n" not in line[:-1]

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            encode(Step(action=(float("nan"),)))


class TestDecode:
    def test_unknown_type(self):
        with pytest.raises(BridgeDecodeError, match="unknown type"):
            decode(b'{"type":"unknown_thing"}\n')

    def test_missing_field(self):
        with pytest.raises(BridgeDecodeError, match="missing field"):
            decode(b'{"type":"step"}\n')

    def test_extra_field_rejected(self):
        with pytest.raises(BridgeDecodeError, match="unknown field"):
            decode(b'{"type":"reset","seed":1,"bonus":2}\n')

    def test_valid_step_ack(self):
        msg = decode(b'{"type":"step_ack","observation":[0.5,2],"counts":[1,0],"done":true}\n')
        assert msg == StepAck(observation=(0.5, 2.0), counts=(1, 0), done=True)

    def test_invalid_json(self):
        with pytest.raises(BridgeDecodeError, match="invalid JSON"):
            decode(b"{nope\n")

    def test_negative_count_rejected(self):
        with pytest.raises(BridgeDecodeError):
            decode(b'{"type":"step_ack","observation":[],"counts":[-1],"done":true}\n')

    def test_boolean_not_a_number(self):
        with pytest.raises(BridgeDecodeError):
            decode(b'{"type":"step","action":[true]}\n')

    def test_done_must_be_boolean(self):
        with pytest.raises(BridgeDecodeError):
            decode(b'{"type":"step_ack","observation":[],"counts":[],"done":1}\n')


finite_reals = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
real_vectors = st.lists(finite_reals, max_size=6).map(tuple)


@st.composite
def bridge_messages(draw):
    variant = draw(st.sampled_from(["reset", "reset_ack", "step", "step_ack", "hello", "error"]))
    if variant == "reset":
        return Reset(seed=draw(st.integers(0, 2**63 - 1)))
    if variant == "reset_ack":
        return ResetAck(observation=draw(real_vectors))
    if variant == "step":
        return Step(action=draw(real_vectors))
    if variant == "step_ack":
        return StepAck(
            observation=draw(real_vectors),
            counts=tuple(draw(st.lists(st.integers(0, 10**9), max_size=6))),
            done=draw(st.booleans()),
        )
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


class Session:
    """Raw client side of one served session over a socketpair."""

    def __init__(self, dut_factory=RleDut):
        self.client, server = socket.socketpair()
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
        seed, action = 123, (0.4, 6.0, 300.0)
        ack = session.request(Reset(seed))
        assert isinstance(ack, ResetAck)
        step_ack = session.request(Step(action))
        assert isinstance(step_ack, StepAck) and step_ack.done

        dut = RleDut()
        local_obs_0 = dut.reset(seed)
        obs, counts = dut.step(Action(action), stimulus_rng(seed))
        assert ack.observation == tuple(local_obs_0)
        assert step_ack.observation == tuple(obs)
        assert step_ack.counts == tuple(counts)

    def test_step_before_reset_is_protocol_error(self, session):
        reply = session.request(Step((0.4, 6.0, 300.0)))
        assert isinstance(reply, Error) and reply.code == "protocol"

    def test_step_after_done_is_protocol_error(self, session):
        session.request(Reset(1))
        session.request(Step((0.4, 6.0, 300.0)))
        reply = session.request(Step((0.4, 6.0, 300.0)))
        assert isinstance(reply, Error) and reply.code == "protocol"

    def test_garbage_line_then_normal_continuation(self, session):
        session.send_raw(b"garbage not json\n")
        reply = decode(session.rfile.readline())
        assert isinstance(reply, Error) and reply.code == "decode"
        ack = session.request(Reset(5))
        assert isinstance(ack, ResetAck)

    def test_invalid_action_reported(self, session):
        session.request(Reset(1))
        reply = session.request(Step((9.0, 6.0, 300.0)))
        assert isinstance(reply, Error) and reply.code == "invalid_action"

    def test_unexpected_server_message_rejected(self, session):
        reply = session.request(ResetAck(observation=()))
        assert isinstance(reply, Error) and reply.code == "protocol"

    def test_dut_fault_reported_and_session_survives(self):
        class FaultyDut(RleDut):
            def step(self, action, rng):
                raise RuntimeError("internal explosion")

        s = Session(dut_factory=FaultyDut)
        try:
            s.request(Reset(1))
            reply = s.request(Step((0.4, 6.0, 300.0)))
            assert isinstance(reply, Error) and reply.code == "dut_fault"
            assert isinstance(s.request(Reset(2)), ResetAck)
        finally:
            s.close()


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

    def test_remote_error_raises(self):
        proxy, thread = proxy_session()
        try:
            with pytest.raises(RemoteDutError) as exc:
                proxy.step(Action((0.4, 6.0, 300.0)), None)
            assert exc.value.code == "protocol"
        finally:
            proxy.close()
            thread.join(timeout=5)

    def test_server_close_mid_session_is_transport_error(self):
        client, server = socket.socketpair()

        def serve_then_die():
            with server:
                wfile = server.makefile("wb")
                rfile = server.makefile("rb")
                wfile.write(encode(Hello(1, RleDut().action_space(), RleDut().event_names())))
                wfile.flush()
                rfile.readline()  # swallow the reset, then drop the connection

        thread = threading.Thread(target=serve_then_die, daemon=True)
        thread.start()
        proxy = connect_dut(client.makefile("rb"), client.makefile("wb"), sock=client)
        with pytest.raises(TransportError):
            proxy.reset(0)
        proxy.close()
        thread.join(timeout=5)

    def test_version_gate(self):
        client, server = socket.socketpair()

        def bad_server():
            with server:
                wfile = server.makefile("wb")
                line = encode(Hello(1, RleDut().action_space(), ("x",)))
                wfile.write(line.replace(b'"protocol_version":1', b'"protocol_version":2'))
                wfile.flush()

        thread = threading.Thread(target=bad_server, daemon=True)
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
