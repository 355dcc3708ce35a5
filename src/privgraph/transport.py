"""Framed binary messaging between the front-end, index servers,
counterparts, and coordinators.

Frame layout (normative, bit-exact on every channel):

    length   u32 big-endian   (= 14 + payload size)
    type     u16 big-endian   (registry below)
    session  u64 big-endian
    payload  bytes

One Channel class frames every stream: a TCP connection between
processes, or one end of an in-process socket pair, which the loopback
fabric hands out for single-machine runs and tests. Channels expose byte
counters for communication-overhead reporting and optional transcript
recording.
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
RECV_CHUNK = 1 << 16

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
    """Strict: a truncated entry, a direction byte other than 0/1 or a
    party name that is not UTF-8 raises TransportError."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(_TRANSCRIPT_MAGIC):
        raise TransportError(f"{path} is not a transcript file")
    transcript = Transcript()
    off = len(_TRANSCRIPT_MAGIC)
    while off < len(data):
        if off + 2 > len(data) or off + 6 + data[off] > len(data):
            raise TransportError(f"{path}: truncated entry at byte {off}")
        name_len, is_recv = data[off], data[off + 1]
        if is_recv > 1:
            raise TransportError(f"{path}: direction byte {is_recv} at byte {off}")
        try:
            party = data[off + 2 : off + 2 + name_len].decode()
        except UnicodeDecodeError:
            raise TransportError(f"{path}: party name at byte {off} is not UTF-8") from None
        off += 2 + name_len
        (frame_len,) = struct.unpack_from(">I", data, off)
        frame = Frame.decode(data[off : off + frame_len])
        off += frame_len
        transcript.entries.append((party, "recv" if is_recv else "send", frame))
    return transcript


class Channel:
    """Ordered reliable frame channel over a connected stream socket: a TCP
    connection, or one end of an in-process socket pair. Frames announced
    above MAX_FRAME_BYTES are refused, a closed peer raises ChannelClosed on
    send and on receive, and no send or receive waits longer than its
    timeout. After a send or receive fails, the stream is out of step: the
    channel is only good for close()."""

    def __init__(self, sock: socket.socket, name: str = ""):
        self._sock = sock
        self._buf, self._pos = b"", 0  # bytes received, not yet returned from _pos on
        self.name = name
        self.bytes_sent = 0
        self.bytes_received = 0
        self.transcript: Transcript | None = None
        self.party: str = ""

    def send(self, frame: Frame, timeout: float | None = 30.0) -> None:
        data = frame.encode()
        try:
            self._sock.settimeout(timeout)
            self._sock.sendall(data)
        except socket.timeout:
            raise TransportError(f"send timeout on channel {self.name}") from None
        except OSError as exc:
            raise ChannelClosed(f"channel {self.name}: {exc}") from None
        self.bytes_sent += len(data)
        if self.transcript is not None:
            self.transcript.record(self.party, "send", frame)

    def recv(self, timeout: float | None = 30.0) -> Frame:
        try:
            self._sock.settimeout(timeout)
        except OSError as exc:
            raise ChannelClosed(f"channel {self.name}: {exc}") from None
        length, ftype, session = struct.unpack(">IHQ", self._read(HEADER_LEN))
        if length < HEADER_LEN:
            raise TransportError("frame too short")
        if length > MAX_FRAME_BYTES:
            raise TransportError(
                f"peer announced a {length}-byte frame; the limit is {MAX_FRAME_BYTES}"
            )
        if ftype not in MSG_NAMES:
            raise TransportError(f"unknown message type 0x{ftype:04x}")
        frame = Frame(ftype, session, self._read(length - HEADER_LEN))
        self.bytes_received += length
        if self.transcript is not None:
            self.transcript.record(self.party, "recv", frame)
        return frame

    def expect(self, msg_name: str, timeout: float | None = 30.0) -> Frame:
        frame = self.recv(timeout)
        if frame.type != MSG[msg_name]:
            raise TransportError(f"expected {msg_name}, got {frame.name}")
        return frame

    def _read(self, n: int) -> bytes:
        """The next n bytes of the stream. Each socket read asks for
        RECV_CHUNK bytes, so a frame that has already arrived whole costs one
        read, and the buffer grows with the bytes that actually arrive, never
        with a peer's announcement."""
        buf, pos = self._buf, self._pos
        if len(buf) - pos < n:
            parts = [buf[pos:]] if pos < len(buf) else []
            have = len(buf) - pos
            while have < n:
                try:
                    chunk = self._sock.recv(RECV_CHUNK)
                except socket.timeout:
                    raise TransportError(f"recv timeout on channel {self.name}") from None
                except OSError as exc:
                    raise ChannelClosed(f"channel {self.name}: {exc}") from None
                if not chunk:
                    raise ChannelClosed(f"channel {self.name} closed by peer")
                parts.append(chunk)
                have += len(chunk)
            buf, pos = b"".join(parts), 0
        end = pos + n
        # a consumed buffer is let go at once, not kept until the next read
        self._buf, self._pos = (buf, end) if end < len(buf) else (b"", 0)
        return buf[pos:end]

    def close(self) -> None:
        self._sock.close()


def loopback_pair(name: str = "") -> tuple[Channel, Channel]:
    """The two ends of an in-process socket pair."""
    a, b = socket.socketpair()
    return Channel(a, f"{name}:a"), Channel(b, f"{name}:b")


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
            q = self._listeners[addr] = queue.Queue()
        return LoopbackListener(addr, q, self)

    def connect(self, addr: str, timeout: float | None = 10.0) -> Channel:
        # under the lock, so that no connection is queued after the
        # listener's close marker
        with self._lock:
            q = self._listeners.get(addr)
            if q is None:
                raise TransportError(f"connection refused: {addr}")
            client, server = loopback_pair(addr)
            q.put(server)
        return client

    def _unbind(self, addr: str) -> None:
        with self._lock:
            q = self._listeners.pop(addr, None)
            if q is not None:
                q.put(None)


class LoopbackListener:
    def __init__(self, addr: str, q: queue.Queue, fabric: LoopbackFabric):
        self.addr = addr
        self._queue = q
        self._fabric = fabric

    def accept(self, timeout: float | None = 30.0) -> Channel:
        try:
            chan = self._queue.get(timeout=timeout)
        except queue.Empty:
            raise TransportError(f"accept timeout on {self.addr}")
        if chan is None:
            raise ChannelClosed(f"listener {self.addr} closed")
        return chan

    def close(self) -> None:
        self._fabric._unbind(self.addr)


class TcpListener:
    def __init__(self, host: str, port: int):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen()
        self.addr = self._sock.getsockname()

    def accept(self, timeout: float | None = 30.0) -> Channel:
        self._sock.settimeout(timeout)
        try:
            conn, peer = self._sock.accept()
        except socket.timeout:
            raise TransportError(f"accept timeout on {self.addr}")
        return Channel(conn, f"{peer[0]}:{peer[1]}")

    def close(self) -> None:
        self._sock.close()


def tcp_connect(host: str, port: int, timeout: float = 10.0) -> Channel:
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise TransportError(f"connection refused: {host}:{port}") from exc
    return Channel(sock, f"{host}:{port}")
