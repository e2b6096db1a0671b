import inspect
import queue
import socket
import threading
from contextlib import contextmanager
from functools import partial
from itertools import islice

import hypothesis
from hypothesis import strategies as st

from covsteer.actionspace import Action, ActionSpace, KnobSpec
from covsteer.bridge import (
    PROTOCOL_VERSION,
    Counts,
    Hello,
    _close_quietly,
    decode,
    encode,
    serve_tcp,
)
from covsteer.env import stimulus_rng
from covsteer.rle import RleDut

hypothesis.settings.register_profile("suite", deadline=None, max_examples=100)
hypothesis.settings.load_profile("suite")


@st.composite
def knob_specs(draw, index: int):
    kind = draw(st.sampled_from(["continuous", "discrete"]))
    name = f"knob{index}"
    if kind == "continuous":
        lo = draw(st.floats(-100, 99, allow_nan=False, allow_infinity=False))
        width = draw(st.floats(0.5, 50, allow_nan=False, allow_infinity=False))
        return KnobSpec.continuous(name, lo, lo + width)
    values = draw(
        st.lists(
            st.integers(-1000, 1000).map(float), min_size=1, max_size=12, unique=True
        )
    )
    return KnobSpec.discrete(name, values)


@st.composite
def action_spaces(draw, max_knobs: int = 5):
    n = draw(st.integers(1, max_knobs))
    return ActionSpace(knobs=tuple(draw(knob_specs(i)) for i in range(n)))


# Any value json.loads can return: NaN, the infinities and integers beyond
# the float range included.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers().map(lambda n: n * 10**400)
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=10,
)


class StreamThenFault(RleDut):
    """Draws from the episode's stimulus stream, then raises; only on its first step."""

    def __init__(self):
        self.faults_left = 1

    def step(self, action, seed):
        if self.faults_left:
            self.faults_left -= 1
            stimulus_rng(seed).random(100)
            raise RuntimeError("transient fault")
        return super().step(action, seed)


def exec_in_module(module, source, name):
    """Exec ``source`` in a copy of ``module``'s namespace and return its ``name``.

    The exec'd function calls the same helpers as the module's own.
    """
    namespace = dict(vars(module))
    exec(source, namespace)
    return namespace[name]


def exec_mutant(monkeypatch, module, name, line, mutation):
    """Monkeypatch ``module.name`` with its source's one ``line`` replaced by ``mutation``."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(line) == 1
    monkeypatch.setattr(module, name, exec_in_module(module, source.replace(line, mutation), name))


# Every served session's bounds: how long one end waits for the other, and
# how long its serving thread may take to end once the test is done with it.
CLIENT_TIMEOUT_S = 10.0
JOIN_DEADLINE_S = 5.0
# What serve_dut itself treats as the peer leaving, not as a fault.
PEER_LEFT = (BrokenPipeError, ConnectionResetError, TimeoutError)


class ServingThread:
    """Runs ``serve()`` on a daemon thread and keeps what it raised for ``join``."""

    def __init__(self, serve):
        self.error = None
        self.port = None  # the port a TCP serving side bound
        self.thread = threading.Thread(target=self._run, args=(serve,), daemon=True)
        self.thread.start()

    def _run(self, serve):
        try:
            serve()
        except PEER_LEFT:
            pass
        except BaseException as exc:  # noqa: BLE001 - re-raised by join
            self.error = exc

    def join(self):
        """Wait for the serving side to end, then re-raise what it raised."""
        self.thread.join(JOIN_DEADLINE_S)
        assert not self.thread.is_alive(), f"serving side still running after {JOIN_DEADLINE_S} s"
        error, self.error = self.error, None
        if error is not None:
            raise error


class Client:
    """The client end of a served socketpair session."""

    def __init__(self, sock, server: ServingThread):
        self.sock, self.server = sock, server
        self.rfile, self.wfile = sock.makefile("rb"), sock.makefile("wb")

    def send_raw(self, data: bytes):
        self.wfile.write(data)
        self.wfile.flush()

    def read(self):
        return decode(self.rfile.readline())

    def request(self, msg):
        self.send_raw(encode(msg))
        return self.read()


@contextmanager
def socketpair_session(serve):
    """Run ``serve(rfile, wfile)`` on a thread over a socketpair; yields the other end's ``Client``.

    ``serve`` may wrap the files it gets. However it ends, its files and
    socket are closed, so the client reads EOF instead of waiting for its
    timeout. On exit the client closes, and the serving thread is joined
    and what it raised is re-raised.
    """
    client_sock, server_sock = socket.socketpair()
    client_sock.settimeout(CLIENT_TIMEOUT_S)

    def run():
        rfile, wfile = server_sock.makefile("rb"), server_sock.makefile("wb")
        try:
            serve(rfile, wfile)
        finally:
            _close_quietly(rfile, wfile, server_sock)

    client = Client(client_sock, ServingThread(run))
    try:
        yield client
    finally:
        # The files keep the socket open, so they close too: the serving side sees EOF.
        _close_quietly(client.rfile, client.wfile, client_sock)
        client.server.join()


@contextmanager
def tcp_server(serve=partial(serve_tcp, RleDut, max_sessions=1)):
    """Run ``serve(on_bound=...)`` on a thread; yields its ``ServingThread`` once ``port`` is bound.

    ``serve`` is ``bridge.serve_tcp`` with its design and session count
    bound, or ``scripted_server``'s fake; each closes its connections
    however a session ends. Clients connect with ``connect_tcp``, which
    times out. On exit the serving thread is joined and what it raised is
    re-raised.
    """
    bound = queue.Queue()
    server = ServingThread(partial(serve, on_bound=bound.put))
    try:
        server.port = bound.get(timeout=JOIN_DEADLINE_S)
        yield server
    finally:
        server.join()


def step_reply(i, dut, request):
    """The design's own reply: the counts of the request's episode."""
    return dut.step(Action(request.action), request.seed)


def scripted_server(reply=step_reply, requests=None, nodelay=False, events=None):
    """A ``tcp_server`` for one rle session whose i-th reply carries ``reply(i, dut, request)``.

    Its hello names ``events`` (the rle events by default). It answers
    ``requests`` requests, or all of them until the client closes, and
    closes with any later requests unread, which resets the connection.
    ``nodelay`` sets TCP_NODELAY; without it Nagle's algorithm may hold a
    reply back until the client acknowledges the one before.
    """

    def serve(on_bound):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            on_bound(listener.getsockname()[1])
            conn, _ = listener.accept()
        conn.settimeout(CLIENT_TIMEOUT_S)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, nodelay)
        rfile, wfile = conn.makefile("rb"), conn.makefile("wb")
        try:
            dut = RleDut()
            names = dut.event_names() if events is None else tuple(events)
            wfile.write(encode(Hello(PROTOCOL_VERSION, dut.action_space(), names)))
            wfile.flush()
            for i, line in enumerate(islice(iter(rfile.readline, b""), requests)):
                wfile.write(encode(Counts(reply(i, dut, decode(line)))))
                wfile.flush()
        finally:
            _close_quietly(rfile, wfile, conn)

    return tcp_server(serve)
