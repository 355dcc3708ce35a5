"""Framed binary messaging between the front-end, index servers,
counterparts, and coordinators.

Frame layout (normative, bit-exact in both loopback and TCP modes):

    length   u32 big-endian   (= 14 + payload size)
    type     u16 big-endian   (registry below)
    session  u64 big-endian
    payload  bytes

An in-process loopback fabric backs single-machine runs and tests; a TCP
mode serves multi-process deployments. Channels expose byte counters for
communication-overhead reporting and optional transcript recording.
"""

from __future__ import annotations

import queue
import socket
import struct
import threading
from dataclasses import dataclass, field

__all__ = [
    "Frame",
    "MSG",
    "MSG_NAMES",
    "Channel",
    "ChannelClosed",
    "SequenceError",
    "TransportError",
    "Transcript",
    "save_transcript",
    "load_transcript",
    "loopback_pair",
    "LoopbackFabric",
    "TcpListener",
    "tcp_connect",
]

HEADER_LEN = 14  # length(4) + type(2) + session(8)
# The largest legitimate frame is the merge CIRCUIT_BLOB at circuits.MAX_SORT_K:
# 28,160 comparators of at most 31 + 31 + 27 AND gates, 64 bytes each, ~160 MB.
MAX_FRAME_BYTES = 1 << 28
RECV_CHUNK = 1 << 20

# Message-type registry shared by every module.
MSG = {
    "QUERY_INIT": 0x0001,
    "TUPLE_COUNT": 0x0002,
    "XTOKEN_BATCH": 0x0003,
    "RESULT": 0x0004,
    "GLOBAL_RESULT": 0x0006,
    "SORT_INIT": 0x0010,
    "CIRCUIT_BLOB": 0x0011,
    "GARBLER_LABELS": 0x0012,
    "OT_SETUP": 0x0013,
    "OT_EXTEND": 0x0014,
    "OT_PAYLOAD": 0x0015,
    "MASK_LABELS": 0x0016,
    "CONTRIB": 0x0020,
    "MASKS": 0x0021,
    "TRIPLE_GEN_INIT": 0x0030,
    "MUL_EXCHANGE": 0x0032,
    "ERROR": 0x00FF,
}
MSG_NAMES = {v: k for k, v in MSG.items()}


class TransportError(Exception):
    pass


class ChannelClosed(TransportError):
    pass


class SequenceError(TransportError):
    pass


@dataclass(frozen=True)
class Frame:
    type: int
    session: int
    payload: bytes = b""

    def encode(self) -> bytes:
        return (
            struct.pack(">IHQ", HEADER_LEN + len(self.payload), self.type, self.session)
            + self.payload
        )

    @classmethod
    def decode(cls, data: bytes) -> "Frame":
        if len(data) < HEADER_LEN:
            raise TransportError("short frame")
        length, ftype, session = struct.unpack(">IHQ", data[:HEADER_LEN])
        if length != len(data):
            raise TransportError("frame length mismatch")
        if ftype not in MSG_NAMES:
            raise TransportError(f"unknown message type 0x{ftype:04x}")
        return cls(ftype, session, data[HEADER_LEN:])

    @property
    def name(self) -> str:
        return MSG_NAMES.get(self.type, "?")


@dataclass
class Transcript:
    """Recorded frames for the leakage audit: (party, direction, frame)."""

    entries: list = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def record(self, party: str, direction: str, frame: Frame) -> None:
        with self.lock:
            self.entries.append((party, direction, frame))


_TRANSCRIPT_MAGIC = b"PGTR\x00\x01"


def save_transcript(transcript: Transcript, path) -> None:
    """Persist recorded frames for offline auditing."""
    with open(path, "wb") as fh:
        fh.write(_TRANSCRIPT_MAGIC)
        with transcript.lock:
            for party, direction, frame in transcript.entries:
                name = party.encode()
                fh.write(struct.pack(">BB", len(name), direction == "recv"))
                fh.write(name)
                fh.write(frame.encode())


def load_transcript(path) -> Transcript:
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(_TRANSCRIPT_MAGIC):
        raise TransportError(f"{path} is not a transcript file")
    transcript = Transcript()
    off = len(_TRANSCRIPT_MAGIC)
    while off < len(data):
        name_len, is_recv = struct.unpack(">BB", data[off : off + 2])
        off += 2
        party = data[off : off + name_len].decode()
        off += name_len
        (frame_len,) = struct.unpack(">I", data[off : off + 4])
        frame = Frame.decode(data[off : off + frame_len])
        off += frame_len
        transcript.entries.append((party, "recv" if is_recv else "send", frame))
    return transcript


class Channel:
    """Ordered reliable frame channel. Subclasses supply raw byte I/O."""

    def __init__(self, name: str = ""):
        self.name = name
        self.bytes_sent = 0
        self.bytes_received = 0
        self.transcript: Transcript | None = None
        self.party: str = ""

    def send(self, frame: Frame) -> None:
        data = frame.encode()
        self._send_bytes(data)
        self.bytes_sent += len(data)
        if self.transcript is not None:
            self.transcript.record(self.party, "send", frame)

    def recv(self, timeout: float | None = 30.0) -> Frame:
        data = self._recv_bytes(timeout)
        frame = Frame.decode(data)
        self.bytes_received += len(data)
        if self.transcript is not None:
            self.transcript.record(self.party, "recv", frame)
        return frame

    def expect(self, msg_name: str, timeout: float | None = 30.0) -> Frame:
        frame = self.recv(timeout)
        if frame.type != MSG[msg_name]:
            raise TransportError(f"expected {msg_name}, got {frame.name}")
        return frame

    def close(self) -> None:
        pass

    def _send_bytes(self, data: bytes) -> None:
        raise NotImplementedError

    def _recv_bytes(self, timeout) -> bytes:
        raise NotImplementedError


_CLOSE = object()


class LoopbackChannel(Channel):
    """One endpoint of an in-process channel pair. Frames carry a per-channel
    sequence number outside the normative frame bytes so reordering injected
    by tests is detected."""

    def __init__(self, name: str = ""):
        super().__init__(name)
        self.inbox: queue.Queue = queue.Queue()
        self.peer: "LoopbackChannel | None" = None
        self._send_seq = 0
        self._recv_seq = 0
        self._closed = False

    def _send_bytes(self, data: bytes) -> None:
        if self.peer is None or self._closed:
            raise ChannelClosed(f"channel {self.name} is closed")
        self.peer.inbox.put((self._send_seq, data))
        self._send_seq += 1

    def _recv_bytes(self, timeout) -> bytes:
        try:
            item = self.inbox.get(timeout=timeout)
        except queue.Empty:
            raise TransportError(f"recv timeout on channel {self.name}")
        if item is _CLOSE:
            raise ChannelClosed(f"channel {self.name} closed by peer")
        seq, data = item
        if seq != self._recv_seq:
            raise SequenceError(f"expected frame #{self._recv_seq}, got #{seq}")
        self._recv_seq += 1
        return data

    def close(self) -> None:
        self._closed = True
        if self.peer is not None:
            self.peer.inbox.put(_CLOSE)


def loopback_pair(name: str = "") -> tuple[LoopbackChannel, LoopbackChannel]:
    a = LoopbackChannel(f"{name}:a")
    b = LoopbackChannel(f"{name}:b")
    a.peer, b.peer = b, a
    return a, b


class LoopbackFabric:
    """Address-keyed registry of in-process listeners, standing in for a
    network when all parties share one process."""

    def __init__(self):
        self._listeners: dict[str, queue.Queue] = {}
        self._lock = threading.Lock()

    def listen(self, addr: str) -> "LoopbackListener":
        with self._lock:
            if addr in self._listeners:
                raise TransportError(f"address already bound: {addr}")
            q: queue.Queue = queue.Queue()
            self._listeners[addr] = q
        return LoopbackListener(addr, q, self)

    def connect(self, addr: str, timeout: float | None = 10.0) -> LoopbackChannel:
        with self._lock:
            q = self._listeners.get(addr)
        if q is None:
            raise TransportError(f"connection refused: {addr}")
        client, server = loopback_pair(addr)
        q.put(server)
        return client

    def _unbind(self, addr: str) -> None:
        with self._lock:
            self._listeners.pop(addr, None)


class LoopbackListener:
    def __init__(self, addr: str, q: queue.Queue, fabric: LoopbackFabric):
        self.addr = addr
        self._queue = q
        self._fabric = fabric
        self._closed = False

    def accept(self, timeout: float | None = 30.0) -> LoopbackChannel:
        try:
            chan = self._queue.get(timeout=timeout)
        except queue.Empty:
            raise TransportError(f"accept timeout on {self.addr}")
        if chan is _CLOSE:
            raise ChannelClosed(f"listener {self.addr} closed")
        return chan

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._fabric._unbind(self.addr)
            self._queue.put(_CLOSE)


class TcpChannel(Channel):
    def __init__(self, sock: socket.socket, name: str = ""):
        super().__init__(name)
        self._sock = sock

    def _send_bytes(self, data: bytes) -> None:
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise ChannelClosed(str(exc)) from exc

    def _recv_bytes(self, timeout) -> bytes:
        self._sock.settimeout(timeout)
        header = self._recv_exact(4)
        (length,) = struct.unpack(">I", header)
        if length < HEADER_LEN:
            raise TransportError("frame too short")
        if length > MAX_FRAME_BYTES:
            raise TransportError(
                f"peer announced a {length}-byte frame; the limit is {MAX_FRAME_BYTES}"
            )
        return header + self._recv_exact(length - 4)

    def _recv_exact(self, n: int) -> bytes:
        # grows with the bytes that actually arrive, never with the announcement
        buf = bytearray()
        while len(buf) < n:
            try:
                chunk = self._sock.recv(min(n - len(buf), RECV_CHUNK))
            except socket.timeout:
                raise TransportError(f"recv timeout on channel {self.name}")
            except OSError as exc:
                raise ChannelClosed(str(exc)) from exc
            if not chunk:
                raise ChannelClosed(f"channel {self.name} closed by peer")
            buf += chunk
        return bytes(buf)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


class TcpListener:
    def __init__(self, host: str, port: int):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen()
        self.addr = self._sock.getsockname()

    def accept(self, timeout: float | None = 30.0) -> TcpChannel:
        self._sock.settimeout(timeout)
        try:
            conn, peer = self._sock.accept()
        except socket.timeout:
            raise TransportError(f"accept timeout on {self.addr}")
        return TcpChannel(conn, f"{peer[0]}:{peer[1]}")

    def close(self) -> None:
        self._sock.close()


def tcp_connect(host: str, port: int, timeout: float = 10.0) -> TcpChannel:
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise TransportError(f"connection refused: {host}:{port}") from exc
    sock.settimeout(None)
    return TcpChannel(sock, f"{host}:{port}")
