"""Framed binary messaging between the front-end, index servers,
counterparts, and coordinators.

Frame layout (normative, bit-exact on every channel):

    length   u32 big-endian   (= 14 + payload size)
    type     u16 big-endian   (registry below)
    session  u64 big-endian
    payload  bytes

One Channel class frames every stream, and one Listener and one Topology
set every connection up: TCP between processes, AF_UNIX sockets when all
parties share one process. Unit tests also use bare socket pairs. A party's
one timeout bounds each send and receive on the channels it accepts or
connects; CONNECT_TIMEOUT bounds a connect. Channels expose byte counters
for communication-overhead reporting and optional transcript recording.
"""

from __future__ import annotations

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
    "Listener",
    "Topology",
]

HEADER_LEN = 14  # length(4) + type(2) + session(8)
# The largest legitimate frames are the CIRCUIT_BLOBs at circuits.MAX_SORT_K,
# whose payloads are 11 bits, at the widest score width, 31 bits, which a
# scoring formula can still reach; a half-gates AND takes 32 bytes and a
# comparator 31 + 31 + 11 ANDs. The local sort's 24,063 merge-exchange
# comparators and 1,024 adders of 30 take ~57.2 MB. The costliest merge
# trees are 1,024 runs of 1, an odd-even merge sort of 24,063 comparators
# (~56.2 MB), and the maximum over every split of 1,024 entries into
# runs, 29,281 (~68.4 MB). A cap of 2^28 leaves them ~3.9x room to grow.
MAX_FRAME_BYTES = 1 << 28
RECV_CHUNK = 1 << 16
CONNECT_TIMEOUT = 10.0
# how long a server waits on a peer or a session before giving it up
SERVER_TIMEOUT = 60.0

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
    "CONTRIB": 0x0020,
    "MASKS": 0x0021,
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
    or AF_UNIX connection, or one end of a socket pair. Frames announced
    above MAX_FRAME_BYTES are refused, a closed peer raises ChannelClosed on
    send and on receive, and no send or receive waits longer than the
    timeout the channel is made with. After a send or receive fails, the
    stream is out of step: the channel is only good for close()."""

    def __init__(self, sock: socket.socket, name: str, timeout: float):
        sock.settimeout(timeout)
        self._sock = sock
        self._buf, self._pos = b"", 0  # bytes received, not yet returned from _pos on
        self.name = name
        self.bytes_sent = 0
        self.bytes_received = 0
        self.transcript: Transcript | None = None
        self.party: str = ""

    def send(self, frame: Frame) -> None:
        data = frame.encode()
        # recorded before the peer can read it, so that a transcript read
        # once the peer has answered holds every frame of the exchange
        if self.transcript is not None:
            self.transcript.record(self.party, "send", frame)
        try:
            self._sock.sendall(data)
        except socket.timeout:
            raise TransportError(f"send timeout on channel {self.name}") from None
        except OSError as exc:
            raise ChannelClosed(f"channel {self.name}: {exc}") from None
        self.bytes_sent += len(data)

    def recv(self) -> Frame:
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

    def expect(self, msg_name: str) -> Frame:
        frame = self.recv()
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


def _family(addr) -> int:
    """A str address is an AF_UNIX path, a (host, port) pair a TCP endpoint."""
    return socket.AF_UNIX if isinstance(addr, str) else socket.AF_INET


class Listener:
    """A listening stream socket at a TCP (host, port) address or an AF_UNIX
    path. close() shuts the socket down before closing it, which wakes an
    accept blocked in another thread; every later connect is refused."""

    def __init__(self, addr, timeout: float):
        self.timeout = timeout
        self._sock = socket.socket(_family(addr), socket.SOCK_STREAM)
        try:
            if self._sock.family == socket.AF_INET:
                self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._sock.bind(addr)
            self._sock.listen()
        except OSError:
            self._sock.close()
            raise
        self.addr = self._sock.getsockname()  # the bound port of a port-0 address

    def accept(self) -> Channel:
        try:
            conn, _ = self._sock.accept()
        except OSError:
            raise ChannelClosed(f"listener {self.addr} closed") from None
        return Channel(conn, str(self.addr), self.timeout)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already closed
        self._sock.close()


class Topology:
    """Maps party names to socket addresses: a (host, port) pair is a TCP
    endpoint, a str is an AF_UNIX path. Multi-process deployments use TCP;
    single-process runs use paths in a private directory."""

    def __init__(self, addresses: dict):
        self.addresses = dict(addresses)

    def listen(self, name: str, timeout: float) -> Listener:
        if name not in self.addresses:
            raise ValueError(f"no address for {name}")
        listener = Listener(self.addresses[name], timeout)
        self.addresses[name] = listener.addr
        return listener

    def connect(self, name: str, timeout: float) -> Channel:
        addr = self.addresses.get(name)
        if addr is None:
            raise TransportError(f"connection refused: no address for {name}")
        sock = socket.socket(_family(addr), socket.SOCK_STREAM)
        try:
            sock.settimeout(CONNECT_TIMEOUT)
            sock.connect(addr)
        except OSError as exc:
            sock.close()
            raise TransportError(f"connection refused: {name} at {addr}") from exc
        return Channel(sock, name, timeout)
