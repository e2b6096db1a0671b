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
``env.run_campaign`` hints to it). An episode is one request, a pure
function of its seed and action, so a repeated or retried request replays
it. The serving side runs each request as one
``env.Environment.step(action, seed)``. Unknown types, missing fields, and
unexpected extra fields are all rejected, and so is a request line longer
than ``MAX_LINE_BYTES``, which also ends the session. Error codes:
``decode`` (unparseable or over-long line), ``protocol`` (a message only
the serving side sends), ``invalid_action`` (action outside the served
space), ``dut_fault`` (design model raised), ``busy`` (sent in place of
``hello`` by a TCP server already serving ``MAX_CONCURRENT_SESSIONS``
sessions; the connection is then closed). A TCP session whose peer sends
nothing for ``SESSION_IDLE_TIMEOUT_S`` seconds is closed.

Stimulus randomness lives on the serving side, built from the request's
seed; the wire carries the seed and knob values only. That makes a
bridged campaign byte-for-byte identical to an in-process one with the
same seeds.
"""

from __future__ import annotations

import json
import socket
from collections import deque
from dataclasses import dataclass

from .actionspace import CONTINUOUS, Action, ActionSpace, KnobSpec, is_finite_real
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
# The longest request line served, newline included.
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


@dataclass(frozen=True)
class Episode:
    seed: int
    action: tuple[float, ...]


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

_FIELDS = {
    "episode": ("seed", "action"),
    "counts": ("counts",),
    "hello": ("protocol_version", "action_space", "events"),
    "error": ("code", "detail"),
}


def _wire_num(x: float):
    """Render a real compactly: integral values as JSON ints."""
    x = float(x)
    if not (x == x and abs(x) != float("inf")):
        raise ValueError("non-finite value in message")
    if x.is_integer():
        return int(x)
    return x


def _space_payload(space: ActionSpace) -> dict:
    knobs = []
    for k in space.knobs:
        if k.kind == "continuous":
            knobs.append(
                {"name": k.name, "kind": k.kind, "lo": _wire_num(k.lo), "hi": _wire_num(k.hi)}
            )
        else:
            knobs.append(
                {"name": k.name, "kind": k.kind, "values": [_wire_num(v) for v in k.values]}
            )
    return {"knobs": knobs}


def _space_from_payload(obj) -> ActionSpace:
    if not isinstance(obj, dict) or set(obj) != {"knobs"} or not isinstance(obj["knobs"], list):
        raise BridgeDecodeError("malformed action_space payload")
    knobs = []
    for item in obj["knobs"]:
        if not isinstance(item, dict):
            raise BridgeDecodeError("malformed knob payload")
        kind = item.get("kind")
        if not isinstance(item.get("name"), str):
            raise BridgeDecodeError("knob name must be a string")
        try:
            if kind == "continuous":
                if set(item) != {"name", "kind", "lo", "hi"}:
                    raise BridgeDecodeError("malformed continuous knob payload")
                knobs.append(
                    KnobSpec.continuous(item["name"], _real(item["lo"]), _real(item["hi"]))
                )
            elif kind == "discrete":
                if set(item) != {"name", "kind", "values"}:
                    raise BridgeDecodeError("malformed discrete knob payload")
                knobs.append(KnobSpec.discrete(item["name"], _real_list(item["values"])))
            else:
                raise BridgeDecodeError("knob kind must be 'continuous' or 'discrete'")
        except ValueError as exc:
            raise BridgeDecodeError(f"invalid knob payload: {exc}") from exc
    try:
        return ActionSpace(knobs=tuple(knobs))
    except ValueError as exc:
        raise BridgeDecodeError(f"invalid action space: {exc}") from exc


def _real(x) -> float:
    if not is_finite_real(x):
        raise BridgeDecodeError(f"expected a finite number, got {type(x).__name__}")
    return float(x)


def _real_list(xs) -> tuple[float, ...]:
    if not isinstance(xs, list):
        raise BridgeDecodeError(f"expected a list of numbers, got {type(xs).__name__}")
    return tuple(_real(x) for x in xs)


def _count_list(xs) -> tuple[int, ...]:
    if not isinstance(xs, list):
        raise BridgeDecodeError(f"expected a list of counts, got {type(xs).__name__}")
    for x in xs:
        if isinstance(x, bool) or not isinstance(x, int) or x < 0:
            raise BridgeDecodeError("counts must be non-negative integers")
    return tuple(xs)


def _unsigned(x) -> int:
    if isinstance(x, bool) or not isinstance(x, int) or x < 0:
        raise BridgeDecodeError("expected an unsigned integer")
    return x


def encode(msg: BridgeMessage) -> bytes:
    """One message per line: compact JSON with the variant in ``type``."""
    if isinstance(msg, Episode):
        body = {
            "type": "episode",
            "seed": _unsigned(msg.seed),
            "action": [_wire_num(x) for x in msg.action],
        }
    elif isinstance(msg, Counts):
        body = {"type": "counts", "counts": [int(c) for c in msg.counts]}
    elif isinstance(msg, Hello):
        body = {
            "type": "hello",
            "protocol_version": int(msg.protocol_version),
            "action_space": _space_payload(msg.action_space),
            "events": list(msg.events),
        }
    elif isinstance(msg, Error):
        body = {"type": "error", "code": str(msg.code), "detail": str(msg.detail)}
    else:
        raise TypeError(f"not a bridge message: {msg!r}")
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
    if mtype is None:
        raise BridgeDecodeError("missing field: type")
    if not isinstance(mtype, str):
        raise BridgeDecodeError("type must be a string")
    if mtype not in _FIELDS:
        raise BridgeDecodeError(f"unknown type: {mtype!r}")
    expected = set(_FIELDS[mtype])
    got = set(obj) - {"type"}
    missing = expected - got
    if missing:
        raise BridgeDecodeError(f"missing field: {sorted(missing)[0]}")
    extra = got - expected
    if extra:
        raise BridgeDecodeError(f"unknown field: {sorted(extra)[0]}")

    if mtype == "episode":
        return Episode(seed=_unsigned(obj["seed"]), action=_real_list(obj["action"]))
    if mtype == "counts":
        return Counts(counts=_count_list(obj["counts"]))
    if mtype == "hello":
        version = obj["protocol_version"]
        if isinstance(version, bool) or not isinstance(version, int):
            raise BridgeDecodeError("protocol_version must be an integer")
        events = obj["events"]
        if not isinstance(events, list) or not all(isinstance(e, str) for e in events):
            raise BridgeDecodeError("events must be a list of strings")
        return Hello(
            protocol_version=version,
            action_space=_space_from_payload(obj["action_space"]),
            events=tuple(events),
        )
    # error
    code, detail = obj["code"], obj["detail"]
    if not isinstance(code, str) or not isinstance(detail, str):
        raise BridgeDecodeError("error code and detail must be strings")
    return Error(code=code, detail=detail)


def longest_request(space: ActionSpace) -> int:
    """Bytes in the longest ``episode`` line that a valid action of the space encodes to."""
    length = len(encode(Episode(2**64 - 1, ())))
    for k in space.knobs:
        if k.kind == CONTINUOUS:
            # A fraction prints in at most 24 characters (-2.2250738585072014e-308);
            # an integral value as an int no longer than an endpoint's.
            width = max(24, len(str(int(k.lo))), len(str(int(k.hi))))
        else:
            width = max(len(json.dumps(_wire_num(v))) for v in k.values)
        length += width + 1  # its comma
    return length


def _send(wfile, msg: BridgeMessage) -> None:
    wfile.write(encode(msg))
    wfile.flush()


def serve_dut(dut: DutModel, rfile, wfile) -> None:
    """Serve one session: hello, then answer episode requests until the stream closes.

    Each request runs through an ``Environment`` without multipliers, so
    the action checks are the in-process ones. Decode failures, protocol
    violations and design-model faults are answered with error messages
    and the session continues. It ends when the transport closes or times
    out, or after the ``decode`` error that answers a line longer than
    ``MAX_LINE_BYTES``: the rest of that line is never read.
    """
    env = Environment(dut)
    try:
        _send(wfile, Hello(PROTOCOL_VERSION, env.space, dut.event_names()))
        while line := rfile.readline(MAX_LINE_BYTES):
            if len(line) == MAX_LINE_BYTES and not line.endswith(b"\n"):
                _send(wfile, Error("decode", f"line longer than {MAX_LINE_BYTES} bytes"))
                return
            try:
                msg = decode(line)
                if isinstance(msg, Episode):
                    reply = Counts(env.step(Action(msg.action), msg.seed).counts)
                else:
                    reply = Error("protocol", f"unexpected message type {type(msg).__name__}")
            except BridgeDecodeError as exc:
                reply = Error("decode", str(exc))
            except InvalidActionError as exc:
                reply = Error("invalid_action", exc.violations[0].message)
            except Exception as exc:  # noqa: BLE001 - reported to the peer
                reply = Error("dut_fault", f"{type(exc).__name__}: {exc}")
            _send(wfile, reply)
    except (BrokenPipeError, ConnectionResetError, TimeoutError):
        return


def _transport_error(exc: OSError) -> TransportError:
    if isinstance(exc, TimeoutError):
        return TransportError("timed out waiting for the serving side")
    return TransportError(f"transport failed: {exc}")


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
        self._hello = hello
        self._sock = sock
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
        self._queue(Episode(int(seed), tuple(action.values)))

    def step(self, action: Action, seed: int) -> tuple[int, ...]:
        request = Episode(int(seed), tuple(action.values))
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
        try:
            line = self._rfile.readline()
        except OSError as exc:
            raise _transport_error(exc) from exc
        if not line:
            raise TransportError("serving side closed the connection")
        reply = decode(line)
        if isinstance(reply, Error):
            raise RemoteDutError(reply.code, reply.detail)
        if not isinstance(reply, Counts):
            raise BridgeProtocolError(f"expected Counts, got {type(reply).__name__}")
        return reply.counts

    def event_names(self):
        return self._hello.events

    def action_space(self):
        return self._hello.action_space

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
    try:
        line = rfile.readline()
    except (TimeoutError, socket.timeout) as exc:
        raise TransportError("timed out waiting for hello") from exc
    if not line:
        raise TransportError("stream closed before hello")
    hello = decode(line)
    if isinstance(hello, Error):
        raise RemoteDutError(hello.code, hello.detail)
    if not isinstance(hello, Hello):
        raise BridgeProtocolError(f"expected hello, got {type(hello).__name__}")
    if hello.protocol_version != PROTOCOL_VERSION:
        raise BridgeProtocolError(
            f"unsupported protocol_version {hello.protocol_version}, "
            f"this side speaks {PROTOCOL_VERSION}"
        )
    return DutProxy(rfile, wfile, hello, sock=sock)


def connect_tcp(host: str, port: int, timeout: float = DEFAULT_TIMEOUT) -> DutProxy:
    """Connect to a TCP serving side; the timeout applies to every response."""
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise TransportError(f"cannot connect to {host}:{port}: {exc}") from exc
    sock.settimeout(timeout)
    # Requests sent ahead must not wait in Nagle's buffer for earlier acks.
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        return connect_dut(sock.makefile("rb"), sock.makefile("wb"), sock=sock)
    except BridgeError:
        sock.close()
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
    ``max_sessions`` limits how many connections are served before
    returning; None serves forever. At most ``MAX_CONCURRENT_SESSIONS`` are
    served at once: a connection beyond them gets a ``busy`` error and is
    closed, and does not count as served. Each connection is closed after
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
        slots = threading.BoundedSemaphore(MAX_CONCURRENT_SESSIONS)
        served = 0
        while max_sessions is None or served < max_sessions:
            conn, _ = server.accept()
            conn.settimeout(SESSION_IDLE_TIMEOUT_S)
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if not slots.acquire(blocking=False):
                with conn:
                    busy = f"already serving {MAX_CONCURRENT_SESSIONS} sessions"
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

            if max_sessions == 1:
                session()
            else:
                threading.Thread(target=session, daemon=True).start()
