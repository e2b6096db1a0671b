"""Line-delimited JSON protocol for driving a design model across processes.

One session runs over any reliable, ordered, bidirectional byte stream
(a stdin/stdout pair or a TCP connection). Framing is one UTF-8 JSON
object per line, newline-terminated, with a ``type`` field naming the
variant:

========  =========================================  ==================
type      fields                                     direction
========  =========================================  ==================
hello     protocol_version, action_space, events     server, once first
episode   seed, action                               client
counts    counts                                     server
error     code, detail                               server
========  =========================================  ==================

Every ``episode`` is answered by ``counts`` or ``error``, and replies come
in request order; a client may send up to ``WINDOW`` requests ahead of the
replies it has read (``DutProxy`` does, for the episodes that
``env.run_campaign`` hints to it). Replies may come in bursts: the
serving side answers the requests that arrived together and sends their
replies at once, holding a reply at most ``REPLY_HOLD_S`` plus one step.
An episode is one request, a pure function of its seed and action, so a
repeated or retried request replays it. The serving side runs each
request as one ``env.Environment.step(action, seed)``. Unknown types,
missing fields, and unexpected extra fields are all rejected, and so is a
request line longer than ``MAX_LINE_BYTES``, which also ends the session
once the lines before it are answered. Error codes:
``decode`` (unparseable or over-long line), ``protocol`` (a message only
the serving side sends), ``invalid_action`` (action outside the served
space; the detail names every knob out of range), ``dut_fault`` (design
model raised), ``busy`` (sent in place of ``hello`` by a TCP server
already serving ``MAX_CONCURRENT_SESSIONS`` sessions; the connection is
then closed). A TCP session whose peer sends
nothing for ``SESSION_IDLE_TIMEOUT_S`` seconds is closed. The client
reads at most ``MAX_LINE_BYTES`` of a reply line too: a longer ``hello``,
``counts`` or ``error`` line raises ``BridgeDecodeError``.

Stimulus randomness lives on the serving side, built from the request's
seed; the wire carries the seed and knob values only. That makes a
bridged campaign byte-for-byte identical to an in-process one with the
same seeds.
"""

from __future__ import annotations

import json
import socket
import time
from collections import deque
from dataclasses import dataclass, fields

from .actionspace import Action, ActionSpace, Interval, KnobSpec, is_finite_real
from .env import DutModel, Environment
from .errors import (
    BridgeDecodeError,
    BridgeError,
    BridgeProtocolError,
    InvalidActionError,
    RemoteDutError,
    TransportError,
)

PROTOCOL_VERSION = 3
DEFAULT_TIMEOUT = 30.0
# The longest line either side reads, newline included.
MAX_LINE_BYTES = 1 << 20
# serve_tcp's bounds: sessions served at once, and how long a session's
# peer may stay silent before the server closes it.
MAX_CONCURRENT_SESSIONS = 16
SESSION_IDLE_TIMEOUT_S = 300.0
# How far a DutProxy sends ahead: at most WINDOW requests unanswered, and
# at most WINDOW_BYTES of their lines. A page is the least a pipe or socket
# buffers, so the client never blocks writing a request while the serving
# side blocks writing a reply the client has not read yet.
WINDOW = 16
WINDOW_BYTES = 4096
# The serving side writes the replies to the requests that arrived together
# with one flush, but holds none past the first step that ends this long
# after the oldest held reply's step began.
REPLY_HOLD_S = 0.05


@dataclass(frozen=True)
class Episode:
    seed: int
    action: Action


@dataclass(frozen=True)
class Counts:
    counts: tuple[int, ...]


@dataclass(frozen=True)
class Hello:
    protocol_version: int
    action_space: ActionSpace
    events: tuple[str, ...]


@dataclass(frozen=True)
class Error:
    code: str
    detail: str


BridgeMessage = Episode | Counts | Hello | Error

# The wire schema: each message's dataclass lists its fields, and so does
# each knob's, whose ``kind`` field names its class on the wire.
_MESSAGES = {"hello": Hello, "episode": Episode, "counts": Counts, "error": Error}
_TYPE_NAMES = {cls: name for name, cls in _MESSAGES.items()}
_KNOBS = {cls.kind: cls for cls in KnobSpec.__args__}


def _wire_num(x: float):
    """Render a real compactly: integral values as JSON ints."""
    x = float(x)
    if not (x == x and abs(x) != float("inf")):
        raise ValueError("non-finite value in message")
    if x.is_integer():
        return int(x)
    return x


def _wire_nums(xs) -> list:
    return list(map(_wire_num, xs))


def _check(what: str, ok, convert):
    """The decoder that converts a JSON value ``ok`` accepts and refuses others as not ``what``."""

    def check(x):
        if not ok(x):
            raise BridgeDecodeError(f"expected {what}, got {type(x).__name__}")
        return convert(x)

    return check


def _list_of(check):
    """The decoder of a JSON list into the tuple of its items, each decoded by ``check``."""

    def check_list(xs):
        if not isinstance(xs, list):
            raise BridgeDecodeError(f"expected a list, got {type(xs).__name__}")
        return tuple(map(check, xs))

    return check_list


_real = _check("a finite number", is_finite_real, float)
_unsigned = _check("an unsigned integer", lambda x: type(x) is int and x >= 0, int)
_string = _check("a string", lambda x: isinstance(x, str), str)


def _knob(obj) -> KnobSpec:
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if not isinstance(kind, str) or kind not in _KNOBS:
        raise BridgeDecodeError(f"expected a knob of kind {' or '.join(map(repr, _KNOBS))}")
    cls = _KNOBS[kind]
    return _record(cls, obj, cls.__match_args__, "kind")


# Each wire field's (encode, check-and-decode) pair.
_CODECS = {
    "seed": (_unsigned, _unsigned),
    "action": (_wire_nums, _list_of(_real)),
    "counts": (lambda counts: [int(c) for c in counts], _list_of(_unsigned)),
    "protocol_version": (int, _check("an integer", lambda x: type(x) is int, int)),
    "action_space": (
        lambda space: _payload(space, ActionSpace.__match_args__),
        lambda obj: _record(ActionSpace, obj, ActionSpace.__match_args__),
    ),
    "events": (list, _list_of(_string)),
    "code": (str, _string),
    "detail": (str, _string),
    "knobs": (lambda knobs: [_payload(k, [f.name for f in fields(k)]) for k in knobs], _list_of(_knob)),
    "name": (str, _string),
    "kind": (str, _string),
    "lo": (_wire_num, _real),
    "hi": (_wire_num, _real),
    "values": (_wire_nums, _list_of(_real)),
}


def _payload(obj, names: tuple[str, ...], **tag) -> dict:
    """``tag``, then the attributes ``names`` of ``obj``, each encoded by its codec."""
    for name in names:
        tag[name] = _CODECS[name][0](getattr(obj, name))
    return tag


def _record(cls, obj, names: tuple[str, ...], *tags: str):
    """A ``cls`` from a JSON object of exactly ``tags`` and ``names``, each name decoded by its codec."""
    if not isinstance(obj, dict):
        raise BridgeDecodeError(f"expected an object, got {type(obj).__name__}")
    expected = {*tags, *names}
    if obj.keys() != expected:
        missing = expected - obj.keys()
        if missing:
            raise BridgeDecodeError(f"missing field: {min(missing)}")
        raise BridgeDecodeError(f"unknown field: {min(obj.keys() - expected)}")
    decoded = {}
    for name in names:
        try:
            decoded[name] = _CODECS[name][1](obj[name])
        except BridgeDecodeError as exc:
            raise BridgeDecodeError(f"{name}: {exc}") from exc
    try:
        return cls(**decoded)
    except ValueError as exc:  # knobs and ActionSpace check themselves
        raise BridgeDecodeError(f"invalid {cls.__name__}: {exc}") from exc


def encode(msg: BridgeMessage) -> bytes:
    """One message per line: compact JSON with the variant in ``type``."""
    name = _TYPE_NAMES.get(type(msg))
    if name is None:
        raise TypeError(f"not a bridge message: {msg!r}")
    body = _payload(msg, msg.__match_args__, type=name)
    return (json.dumps(body, separators=(",", ":")) + "\n").encode("utf-8")


def decode(line: bytes | str) -> BridgeMessage:
    """Strict inverse of encode; raises BridgeDecodeError on any defect."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise BridgeDecodeError("line is not UTF-8") from exc
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise BridgeDecodeError(f"invalid JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # over-long integers, deep nesting
        raise BridgeDecodeError(f"invalid JSON: {type(exc).__name__}") from exc
    if not isinstance(obj, dict):
        raise BridgeDecodeError("message must be a JSON object")
    mtype = obj.get("type")
    if not isinstance(mtype, str):
        raise BridgeDecodeError("missing field: type, or not a string")
    if mtype not in _MESSAGES:
        raise BridgeDecodeError(f"unknown type: {mtype!r}")
    cls = _MESSAGES[mtype]
    return _record(cls, obj, cls.__match_args__, "type")


def longest_request(space: ActionSpace) -> int:
    """Bytes in the longest ``episode`` line that a valid action of the space encodes to."""
    length = len(encode(Episode(2**64 - 1, ())))
    for k in space.knobs:
        if isinstance(k, Interval):
            # A fraction prints in at most 24 characters (-2.2250738585072014e-308);
            # an integral value as an int no longer than an endpoint's.
            width = max(24, len(str(int(k.lo))), len(str(int(k.hi))))
        else:
            width = max(len(json.dumps(_wire_num(v))) for v in k.values)
        length += width + 1  # its comma
    return length


def _answer(env: Environment, line: bytes) -> BridgeMessage:
    """The reply to one request line: its counts, or the error it earns."""
    try:
        msg = decode(line)
        if isinstance(msg, Episode):
            return Counts(env.step(msg.action, msg.seed).counts)
        return Error("protocol", f"unexpected message type {type(msg).__name__}")
    except BridgeDecodeError as exc:
        return Error("decode", str(exc))
    except InvalidActionError as exc:
        return Error("invalid_action", str(exc))
    except Exception as exc:  # noqa: BLE001 - reported to the peer
        return Error("dut_fault", f"{type(exc).__name__}: {exc}")


def serve_dut(dut: DutModel, rfile, wfile) -> None:
    """Serve one session: hello, then answer episode requests until the stream closes.

    Each request runs through an ``Environment`` without multipliers, so
    the action checks are the in-process ones. Decode failures, protocol
    violations and design-model faults are answered with error messages
    and the session continues.

    ``rfile`` must support ``read1``. Each read takes whatever has arrived,
    every complete line in it is answered in order, and the replies go out
    with one flush before the next read, so a burst of requests gets a
    burst of replies. A reply is held at most until the first step that
    ends ``REPLY_HOLD_S`` after the oldest held reply's step began.

    The session ends when the transport closes or times out, or after the
    ``decode`` error that answers a line longer than ``MAX_LINE_BYTES``: the
    replies before it go out first, and nothing read after it is answered.
    At most ``MAX_LINE_BYTES`` of an unfinished line is kept, plus one read.
    """
    env = Environment(dut)
    unfinished = bytearray()  # the start of a line whose newline has not arrived
    try:
        wfile.write(encode(Hello(PROTOCOL_VERSION, env.space, dut.event_names)))
        while True:
            wfile.flush()
            chunk = rfile.read1()
            if not chunk:  # the peer closed; a last line without its newline is still answered
                if unfinished:
                    wfile.write(encode(_answer(env, bytes(unfinished))))
                    wfile.flush()
                return
            start = 0
            held_since = None
            while end := chunk.find(b"\n", start) + 1:
                line, start = chunk[start:end], end
                if unfinished:
                    unfinished += line
                    line = bytes(unfinished)
                    unfinished.clear()
                if len(line) > MAX_LINE_BYTES:
                    break
                if held_since is None:
                    held_since = time.monotonic()
                wfile.write(encode(_answer(env, line)))
                if time.monotonic() - held_since >= REPLY_HOLD_S:
                    wfile.flush()
                    held_since = None
            else:  # every complete line was answered; keep the rest unless it is too long already
                unfinished += chunk[start:]
                if len(unfinished) < MAX_LINE_BYTES:
                    continue
            wfile.write(encode(Error("decode", f"line longer than {MAX_LINE_BYTES} bytes")))
            wfile.flush()
            return
    except (BrokenPipeError, ConnectionResetError, TimeoutError):
        return


def _transport_error(exc: OSError) -> TransportError:
    if isinstance(exc, TimeoutError):
        return TransportError("timed out waiting for the serving side")
    return TransportError(f"transport failed: {exc}")


def _read(rfile, expected: type, what: str) -> BridgeMessage:
    """The serving side's next message, which must be an ``expected``, named ``what`` in errors.

    A transport failure raises ``TransportError`` and an ``error`` reply ``RemoteDutError``.
    """
    try:
        line = rfile.readline(MAX_LINE_BYTES + 1)
    except OSError as exc:
        raise _transport_error(exc) from exc
    if not line:
        raise TransportError(f"serving side closed the connection before {what}")
    if len(line) > MAX_LINE_BYTES:
        raise BridgeDecodeError(f"{what} line longer than {MAX_LINE_BYTES} bytes")
    reply = decode(line)
    if isinstance(reply, Error):
        raise RemoteDutError(reply.code, reply.detail)
    if not isinstance(reply, expected):
        raise BridgeProtocolError(f"expected {what}, got {type(reply).__name__}")
    return reply


class DutProxy(DutModel):
    """Client-side design model backed by one bridge session.

    ``hint`` queues an episode's request ahead of its ``step``. ``step``
    sends every queued request in one write, queueing its own first when
    none is in flight, and then reads the oldest reply. ``lookahead`` keeps
    the requests in flight within ``WINDOW`` and ``WINDOW_BYTES``; it is 0
    when one request line of the served space may exceed ``WINDOW_BYTES``.
    """

    def __init__(self, rfile, wfile, hello: Hello, sock: socket.socket | None = None):
        self._rfile = rfile
        self._wfile = wfile
        self._sock = sock
        self.event_names = hello.events
        self.action_space = hello.action_space
        self.lookahead = min(WINDOW, WINDOW_BYTES // longest_request(hello.action_space))
        self._in_flight: deque[Episode] = deque()

    def _queue(self, request: Episode) -> None:
        try:
            self._wfile.write(encode(request))
        except OSError as exc:  # a full buffer is written out, and that can fail
            raise _transport_error(exc) from exc
        self._in_flight.append(request)

    def hint(self, action: Action, seed: int) -> None:
        if len(self._in_flight) >= self.lookahead:
            raise BridgeProtocolError(f"more than {self.lookahead} requests in flight")
        self._queue(Episode(int(seed), tuple(action)))

    def step(self, action: Action, seed: int) -> tuple[int, ...]:
        request = Episode(int(seed), tuple(action))
        if not self._in_flight:
            self._queue(request)
        if self._in_flight.popleft() != request:
            raise BridgeProtocolError("step does not match the oldest request in flight")
        try:
            self._wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass  # the serving side is gone; the replies it sent first are still read
        except OSError as exc:
            raise _transport_error(exc) from exc
        return _read(self._rfile, Counts, "Counts").counts

    def close(self) -> None:
        _close_quietly(self._rfile, self._wfile, self._sock)


def _close_quietly(*files) -> None:
    """Close each of ``files``; a buffered write that a gone peer refuses is dropped."""
    for f in files:
        if f is not None:
            try:
                f.close()
            except OSError:
                pass


def connect_dut(rfile, wfile, sock: socket.socket | None = None) -> DutProxy:
    """Attach to a serving side over an open stream pair; reads the hello."""
    hello = _read(rfile, Hello, "hello")
    if hello.protocol_version != PROTOCOL_VERSION:
        raise BridgeProtocolError(
            f"unsupported protocol_version {hello.protocol_version}, "
            f"this side speaks {PROTOCOL_VERSION}"
        )
    return DutProxy(rfile, wfile, hello, sock=sock)


def connect_tcp(host: str, port: int, timeout: float = DEFAULT_TIMEOUT) -> DutProxy:
    """Connect to a TCP serving side; the timeout applies to every response.

    A reply may wait behind the others of its burst, for up to
    ``REPLY_HOLD_S`` plus one step, so the timeout must cover that too.
    """
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise TransportError(f"cannot connect to {host}:{port}: {exc}") from exc
    sock.settimeout(timeout)
    # Requests sent ahead must not wait in Nagle's buffer for earlier acks.
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    rfile, wfile = sock.makefile("rb"), sock.makefile("wb")
    try:
        return connect_dut(rfile, wfile, sock=sock)
    except BridgeError:  # the files hold the socket open until they close too
        _close_quietly(rfile, wfile, sock)
        raise


def serve_tcp(
    dut_factory,
    host: str = "127.0.0.1",
    port: int = 0,
    max_sessions: int | None = None,
    on_bound=None,
) -> None:
    """Accept connections and serve each with a fresh design-model instance.

    ``on_bound`` receives the actual bound port (useful with port 0).
    ``max_sessions`` limits how many connections are served, and the call
    returns once the last of them has ended; None serves forever. At most
    ``MAX_CONCURRENT_SESSIONS`` are served at once, each on its own thread:
    a connection beyond them gets a ``busy`` error and is closed, and does
    not count as served. A connection is closed after
    ``SESSION_IDLE_TIMEOUT_S`` seconds without a request.
    """
    import threading

    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as server:
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            server.bind((host, port))
            server.listen()
        except (OSError, OverflowError) as exc:
            raise TransportError(f"cannot listen on {host}:{port}: {exc}") from exc
        if on_bound is not None:
            on_bound(server.getsockname()[1])
        n_slots = MAX_CONCURRENT_SESSIONS
        slots = threading.BoundedSemaphore(n_slots)
        served = 0
        while max_sessions is None or served < max_sessions:
            conn, _ = server.accept()
            conn.settimeout(SESSION_IDLE_TIMEOUT_S)
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if not slots.acquire(blocking=False):
                with conn:
                    busy = f"already serving {n_slots} sessions"
                    try:
                        conn.sendall(encode(Error("busy", busy)))
                    except OSError:
                        pass
                continue
            served += 1

            def session(c=conn):
                rfile, wfile = c.makefile("rb"), c.makefile("wb")
                try:
                    serve_dut(dut_factory(), rfile, wfile)
                finally:
                    # A reply still buffered for a peer that left would
                    # otherwise fail again when the writer is collected.
                    _close_quietly(rfile, wfile, c)
                    slots.release()

            threading.Thread(target=session, daemon=True).start()
        # Every slot is free again only once every session has ended.
        for _ in range(n_slots):
            slots.acquire()
