"""Oblivious transfer: a semi-honest base OT on P-256 (Chou and Orlandi,
"The Simplest Protocol for Oblivious Transfer", LATINCRYPT 2015) plus an
IKNP-style extension, completed as correlated OT in one of two groups:
over Z_{2^31}, for offline triple generation, and over 16-byte wire
labels that differ by the garbler's delta (the C-OT of Asharov, Lindell,
Schneider and Zohner, "More Efficient Oblivious Transfer and Extensions",
CCS 2013). The base OT's points travel compressed and are validated by
OpenSSL on receipt; point addition is affine arithmetic here, and every
scalar multiplication an ECDH.

The extension sender (who holds the correlations) plays base-OT receiver
with its 128 secret selection bits; the extension receiver plays base-OT
sender with 128 seed pairs. Per extension index j the sender derives the
rows q_j and q_j ^ s, the receiver t_j, equal to q_j or q_j ^ s by its
choice bit. A label transfer's zero label is the pad H(q_j); the sender
sends one 16-byte correction H(q_j) ^ H(q_j ^ s) ^ delta, and the
receiver with bit b takes H(t_j) ^ b * correction, its label for b. A
transfer over Z_{2^31} sends one 4-byte word the same way.

The base OT runs once per party pair and extension role, not once per
session (Beaver, "Precomputing Oblivious Transfer", CRYPTO 1995; Ishai,
Kilian, Nissim and Petrank, "Extending Oblivious Transfers Efficiently",
CRYPTO 2003). An OTPair is what one party keeps for one counterpart, and
every OTSender and OTReceiver runs on one. The extension receiver speaks
first in every OT phase: OT_SETUP when the pair has no state, which sets one
up inside that first extension, then one OT_EXTEND per extension. Each
OT_EXTEND names its state (a hash of the set-up's first frame) and a range
of the seeds' AES-CTR blocks that the receiver allocated under the pair's
lock; transfer j of an extension that starts at block b is hashed under the
index 128 * b + j, so no two extensions on a state share PRG output or hash
indices. The row hash is crypto.FixedKeyHash under this module's key, the
tweakable correlation-robust hash that garbling uses under its own: one AES
call hashes an extension's rows. The sender refuses an unknown state and a
range that overlaps one already used. A receiver whose OT fails drops its
state, and the pair's next session sets up a new one.
"""

from __future__ import annotations

import bisect
import hashlib
import secrets
import struct
import threading
from collections import OrderedDict

import numpy as np
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .crypto import CURVE, FIELD_PRIME, HALVES, SHARE_MODULUS, FixedKeyHash, GroupContext
from .transport import MSG, SERVER_TIMEOUT, Channel, Frame, TransportError

__all__ = [
    "OTPair",
    "OTSender",
    "OTReceiver",
    "OTError",
    "encode_ot_extend",
    "decode_ot_extend",
]

KAPPA = 128  # base-OT count / extension matrix width
POINT_BYTES = 33  # a base-OT point, SEC 1 compressed
_HASH_KEY = b"privgraph-ot-key"  # the fixed AES key of the row hash

# sender states kept per pair: the newest, and older ones that sessions
# begun before their receiver dropped them may still extend
STATES_KEPT = 4

# OT_EXTEND header: state id, first AES-CTR block, transfers
_EXTEND = struct.Struct(">8sQI")
# block b's rows hash under the indices 128 * b + j, which must fit 64 bits
_MAX_BLOCK = 1 << 57


class OTError(TransportError):
    pass


def _row_bytes(m: int) -> int:
    """Bytes of each seed's stream (one bit per transfer) in an extension."""
    return (m + 7) // 8


def _blocks(m: int) -> int:
    """AES-CTR blocks of each seed's stream in an m-transfer extension."""
    return -(-m // 128)


def encode_ot_extend(state_id: bytes, block: int, m: int, u: bytes) -> bytes:
    return _EXTEND.pack(state_id, block, m) + u


def decode_ot_extend(payload: bytes) -> tuple[bytes, int, int, bytes]:
    """(state id, first block, transfers m, the matrix u). Strict: m >= 1,
    the block range below 2^57, and exactly 128 rows of ceil(m / 8) bytes
    after the header."""
    if len(payload) < _EXTEND.size:
        raise OTError("OT_EXTEND shorter than its header")
    state_id, block, m = _EXTEND.unpack_from(payload)
    if m < 1 or block + _blocks(m) > _MAX_BLOCK:
        raise OTError(f"OT_EXTEND range of {m} transfers out of bounds")
    if len(payload) != _EXTEND.size + KAPPA * _row_bytes(m):
        raise OTError(f"OT_EXTEND of {len(payload)} bytes for {m} transfers")
    return state_id, block, m, payload[_EXTEND.size :]


def _expect(channel: Channel, msg_name: str, size: int) -> bytes:
    """The next frame's payload, which must be msg_name of exactly size bytes."""
    payload = channel.expect(msg_name).payload
    if len(payload) != size:
        raise OTError(f"{msg_name} of {len(payload)} bytes, expected {size}")
    return payload


def _decode_point(data: bytes) -> ec.EllipticCurvePublicKey:
    """A compressed point, validated by OpenSSL: OTError for one off the
    curve (the point at infinity has no 33-byte encoding)."""
    try:
        return ec.EllipticCurvePublicKey.from_encoded_point(CURVE, data)
    except ValueError:
        raise OTError("OT_SETUP: not a compressed P-256 point") from None


def _affine(point: ec.EllipticCurvePublicKey) -> tuple[int, int]:
    nums = point.public_numbers()
    return nums.x, nums.y


def _encode(p: tuple[int, int]) -> bytes:
    x, y = p
    return bytes([2 | y & 1]) + x.to_bytes(32, "big")


def _add(p: tuple[int, int], q: tuple[int, int]) -> tuple[int, int] | None:
    """p + q in affine coordinates (y^2 = x^3 - 3x + b), None for the
    point at infinity."""
    (x1, y1), (x2, y2) = p, q
    if x1 == x2:
        if (y1 + y2) % FIELD_PRIME == 0:
            return None
        slope = 3 * (x1 * x1 - 1) * pow(2 * y1, -1, FIELD_PRIME)
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, FIELD_PRIME)
    x3 = (slope * slope - x1 - x2) % FIELD_PRIME
    return x3, (slope * (x1 - x3) - y1) % FIELD_PRIME


def _sub(p: tuple[int, int], q: tuple[int, int]) -> tuple[int, int] | None:
    return _add(p, (q[0], -q[1] % FIELD_PRIME))


def _random_key(ctx: GroupContext) -> ec.EllipticCurvePrivateKey:
    return ctx.key(1 + secrets.randbelow(ctx.n - 1))


def _state_id(first_setup: bytes) -> bytes:
    """A state's id: the hash of its set-up's first OT_SETUP payload."""
    return hashlib.sha256(first_setup).digest()[:8]


def _pad(index: int, big_a: bytes, big_b: bytes, shared: bytes) -> bytes:
    """Base OT index's pad: a hash of the index, the encodings of A and B
    and the x-coordinate of the shared point."""
    return hashlib.sha256(struct.pack(">I", index) + big_a + big_b + shared).digest()[:16]


def _hash_rows(rows: np.ndarray, block: int) -> np.ndarray:
    """Hash each 16-byte row j of an extension that starts at block with
    the index 128 * block + j into a pad; the pads as an (m, 16) array."""
    index = np.uint64(KAPPA * block) + np.arange(len(rows), dtype=np.uint64)
    halves = np.ascontiguousarray(rows).view(HALVES)
    tweaks = FixedKeyHash.tweaks(index.view(np.int64))
    return FixedKeyHash(_HASH_KEY)(halves, tweaks).view(np.uint8)


def _transpose(mat: np.ndarray, m: int) -> np.ndarray:
    """The (128, ceil(m/8)) bit matrix as m rows of 16 bytes."""
    return np.packbits(np.unpackbits(mat, axis=1).T[:m], axis=1)


def _low31(pads: np.ndarray) -> np.ndarray:
    """Each pad as an integer mod 2^31: the low 31 bits of its last 4
    bytes, read big-endian."""
    last = np.ascontiguousarray(pads[:, 12:16]).view(">u4").reshape(-1)
    return last.astype(np.int64) & (SHARE_MODULUS - 1)


class _Seeds:
    """The AES key schedules of a state's seeds, built once: expand() reads
    every seed's AES-CTR stream by encrypting the counter blocks under ECB,
    the bytes a CTR cipher started at that block gives."""

    def __init__(self, seeds):
        self._encryptors = [
            Cipher(algorithms.AES(seed), modes.ECB()).encryptor() for seed in seeds
        ]
        self._lock = threading.Lock()  # concurrent sessions share the encryptors

    def expand(self, n: int, block: int) -> np.ndarray:
        """(seeds, n) array: n bytes of each seed's stream from block on."""
        counters = b"".join((block + i).to_bytes(16, "big") for i in range(-(-n // 16)))
        with self._lock:
            stream = b"".join(enc.update(counters) for enc in self._encryptors)
        return np.frombuffer(stream, dtype=np.uint8).reshape(len(self._encryptors), -1)[:, :n]


class _ReceiverState:
    """The extension receiver's side of one set-up: both seeds of each
    pair, and the block where the next extension's range starts."""

    def __init__(self, state_id: bytes, seed_pairs):
        self.id = state_id
        self.seeds = _Seeds([k0 for k0, _ in seed_pairs] + [k1 for _, k1 in seed_pairs])
        self.block = 0

    def allocate(self, m: int) -> int:
        """The first block of an m-transfer extension, reserved; the caller
        holds the pair's lock."""
        start = self.block
        self.block += _blocks(m)
        return start


class _Claims:
    """Disjoint [start, end) intervals already used, merged where they touch."""

    def __init__(self):
        self._starts: list[int] = []
        self._ends: list[int] = []

    def add(self, start: int, end: int) -> None:
        """Claim [start, end); OTError if it overlaps a claim."""
        i = bisect.bisect_right(self._starts, start)
        if (i and self._ends[i - 1] > start) or (
            i < len(self._starts) and self._starts[i] < end
        ):
            raise OTError(f"OT_EXTEND range [{start}, {end}) was already used")
        if i and self._ends[i - 1] == start:
            i -= 1
            start = self._starts.pop(i)
            self._ends.pop(i)
        if i < len(self._starts) and self._starts[i] == end:
            self._starts.pop(i)
            end = self._ends.pop(i)
        self._starts.insert(i, start)
        self._ends.insert(i, end)


class _SenderState:
    """The extension sender's side of one set-up: its secret bits, the
    seeds they chose, and the block ranges already used."""

    def __init__(self, s_bits: list[int], seeds: list[bytes]):
        s_arr = np.array(s_bits, dtype=np.uint8)
        self.s_mask = (s_arr * 0xFF)[:, None]  # rows of u that enter q
        self.s_bytes = np.packbits(s_arr)
        self.seeds = _Seeds(seeds)
        self.used = _Claims()


class OTPair:
    """The OT state one party keeps with one counterpart, for both
    extension roles. As receiver: at most one state, set up by the first
    session that extends and dropped when an extension on it fails. As
    sender: the states the counterpart set up, by id; a state whose set-up
    is still running is None, and an extension naming it waits up to
    timeout for it."""

    def __init__(self, ctx: GroupContext, timeout: float = SERVER_TIMEOUT):
        self.ctx = ctx
        self.timeout = timeout
        self._lock = threading.RLock()  # receiver: set-up and range allocation
        self._state: _ReceiverState | None = None
        self._cond = threading.Condition()  # sender: the states by id
        self._states: OrderedDict[bytes, _SenderState | None] = OrderedDict()

    def _drop(self, state: _ReceiverState | None) -> None:
        """Forget the receiver state a failed extension ran on, unless a
        newer one has replaced it."""
        with self._lock:
            if self._state is state:
                self._state = None

    def _begin(self, state_id: bytes) -> None:
        with self._cond:
            if state_id in self._states:
                raise OTError("OT_SETUP repeats the set-up of a known state")
            self._states[state_id] = None
            while len(self._states) > STATES_KEPT:
                self._states.popitem(last=False)

    def _end(self, state_id: bytes, state: _SenderState | None) -> None:
        """A set-up is over: state is its result, or None when it failed."""
        with self._cond:
            if state is None:
                self._states.pop(state_id, None)
            elif state_id in self._states:
                self._states[state_id] = state
            self._cond.notify_all()

    def _claim(self, state_id: bytes, block: int, m: int) -> _SenderState:
        """The sender state an extension names, with its range marked used."""
        with self._cond:
            # None only while the state's set-up runs; an unknown id ends the wait
            settled = lambda: self._states.get(state_id, True) is not None  # noqa: E731
            if not self._cond.wait_for(settled, self.timeout):
                raise OTError("timed out waiting for the set-up of an OT state")
            state = self._states.get(state_id)
            if state is None:
                raise OTError("OT_EXTEND names an unknown OT state")
            state.used.add(block, block + _blocks(m))
            return state


def _base_send(ctx: GroupContext, channel: Channel, session: int, pairs) -> bytes:
    """Base-OT sender: transfers one 16-byte message pair per instance.
    Sends A = [a]G; on each receiver point B its pads are hashes of
    [a]B and [a](B - A). Returns its first OT_SETUP payload."""
    a = _random_key(ctx)
    big_a = _affine(a.public_key())
    first = _encode(big_a)
    channel.send(Frame(MSG["OT_SETUP"], session, first))
    reply = _expect(channel, "OT_SETUP", len(pairs) * POINT_BYTES)
    cts = []
    for i, (m0, m1) in enumerate(pairs):
        b_bytes = reply[i * POINT_BYTES : (i + 1) * POINT_BYTES]
        b_point = _decode_point(b_bytes)
        diff = _sub(_affine(b_point), big_a)
        if diff is None:
            raise OTError("OT_SETUP: B - A is the point at infinity")
        b_minus_a = ec.EllipticCurvePublicNumbers(*diff, CURVE).public_key()
        pad0 = _pad(i, first, b_bytes, ctx.exp(b_point, a))
        pad1 = _pad(i, first, b_bytes, ctx.exp(b_minus_a, a))
        cts.append(bytes(x ^ y for x, y in zip(m0, pad0)))
        cts.append(bytes(x ^ y for x, y in zip(m1, pad1)))
    channel.send(Frame(MSG["OT_SETUP"], session, b"".join(cts)))
    return first


def _base_recv(ctx: GroupContext, channel: Channel, session: int, bits, first: bytes):
    """Base-OT receiver, on the sender's first OT_SETUP payload A: sends
    B = [b]G for bit 0 and A + [b]G for bit 1, and obtains the message
    selected by each bit through the hash of [b]A."""
    big_a = _decode_point(first)
    a_affine = _affine(big_a)
    keys, points = [], []
    for bit in bits:
        b = _random_key(ctx)
        point = _affine(b.public_key())
        if bit:
            # the point at infinity only when b = -a, a chance of 1/n
            point = _add(point, a_affine)
        keys.append(b)
        points.append(_encode(point))
    channel.send(Frame(MSG["OT_SETUP"], session, b"".join(points)))
    cts = _expect(channel, "OT_SETUP", 2 * 16 * len(bits))
    out = []
    for i, (bit, b, b_bytes) in enumerate(zip(bits, keys, points)):
        pad = _pad(i, first, b_bytes, ctx.exp(big_a, b))
        ct = cts[(2 * i + bit) * 16 : (2 * i + bit + 1) * 16]
        out.append(bytes(x ^ y for x, y in zip(ct, pad)))
    return out


class OTSender:
    """Extension sender of one session, on a state of the pair that the
    counterpart set up in this session or an earlier one: extend() reads an
    extension and returns its zero pads; send_messages or send_correlated
    completes it with one correction per transfer."""

    def __init__(self, pair: OTPair, channel: Channel, session: int = 0):
        self.pair = pair
        self.channel = channel
        self.session = session
        self._ones: tuple[np.ndarray, int] | None = None  # rows q_j ^ s, first block

    def setup(self, first: bytes) -> None:
        """The base OT, as its receiver: sets up the state named by the
        counterpart's first OT_SETUP payload, with which an extension
        opened."""
        if len(first) != POINT_BYTES:
            raise OTError(f"OT_SETUP of {len(first)} bytes, expected {POINT_BYTES}")
        state_id = _state_id(first)
        self.pair._begin(state_id)
        state = None
        try:
            s_bits = [secrets.randbelow(2) for _ in range(KAPPA)]
            seeds = _base_recv(self.pair.ctx, self.channel, self.session, s_bits, first)
            state = _SenderState(s_bits, seeds)
        finally:
            self.pair._end(state_id, state)

    def extend(self, m: int) -> np.ndarray:
        """Reads the counterpart's next extension, which must be of m
        transfers, after the set-up when it opens with one; returns its
        zero pads H(q_j) as an (m, 16) array."""
        frame = self.channel.recv()
        if frame.name == "OT_SETUP":
            self.setup(frame.payload)
            frame = self.channel.recv()
        if frame.name != "OT_EXTEND":
            raise OTError(f"expected OT_EXTEND, got {frame.name}")
        state_id, block, count, u = decode_ot_extend(frame.payload)
        if count != m:
            raise OTError(f"OT_EXTEND of {count} transfers, expected {m}")
        state = self.pair._claim(state_id, block, m)
        u_mat = np.frombuffer(u, dtype=np.uint8).reshape(KAPPA, -1)
        q_mat = state.seeds.expand(_row_bytes(m), block) ^ (u_mat & state.s_mask)
        rows = _transpose(q_mat, m)
        self._ones = rows ^ state.s_bytes, block
        return _hash_rows(rows, block)

    def send_messages(self, zero: np.ndarray, delta: np.ndarray) -> None:
        """Correlated label OT, completing the extension whose pads extend
        returned as zero: transfer j's labels are zero[j] and zero[j] ^
        delta. Sends one 16-byte correction per transfer, H(q_j ^ s) ^
        zero[j] ^ delta, from which the receiver with bit b obtains
        zero[j] ^ b * delta."""
        corr = _hash_rows(*self._ones)
        corr ^= zero
        corr ^= delta
        self.channel.send(Frame(MSG["OT_PAYLOAD"], self.session, corr.tobytes()))

    def send_correlated(self, deltas: list[int]) -> list[int]:
        """Correlated OT over Z_{2^31}: receiver with bit b learns
        v + b*delta; sender returns the v values. One correction word per
        instance is sent."""
        v = _low31(self.extend(len(deltas)))
        ones = _low31(_hash_rows(*self._ones))
        corr = np.mod(np.array(deltas, dtype=np.int64) + v - ones, SHARE_MODULUS)
        self.channel.send(Frame(MSG["OT_PAYLOAD"], self.session, corr.astype(">u4").tobytes()))
        return v.tolist()


class OTReceiver:
    """Extension receiver of one session, on the pair's state, which the
    first extension without one sets up: extend() sends an extension's
    OT_EXTEND; recv_messages or recv_correlated reads the sender's
    corrections and completes it. Any failure of an extension, or inside a
    with block on the receiver, drops the state it ran on, so the pair's
    next session sets up afresh."""

    def __init__(self, pair: OTPair, channel: Channel, session: int = 0):
        self.pair = pair
        self.channel = channel
        self.session = session
        self._state: _ReceiverState | None = None  # of this session's last extension
        self._open: tuple[np.ndarray, int, np.ndarray] | None = None  # t, block, bits

    def __enter__(self) -> "OTReceiver":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.pair._drop(self._state)

    def setup(self) -> None:
        """The base OT, as its sender: a new state of 128 seed pairs for
        the pair."""
        seed_pairs = [
            (secrets.token_bytes(16), secrets.token_bytes(16)) for _ in range(KAPPA)
        ]
        with self.pair._lock:
            first = _base_send(self.pair.ctx, self.channel, self.session, seed_pairs)
            self.pair._state = _ReceiverState(_state_id(first), seed_pairs)

    def extend(self, bits: list[int]) -> None:
        """Opens an extension whose transfer j chooses bits[j]: sends its
        OT_EXTEND, after the set-up when the pair has no state."""
        m = len(bits)
        if m < 1:
            raise OTError("an extension needs at least one transfer")
        with self:
            with self.pair._lock:
                if self.pair._state is None:
                    self.setup()
                state = self._state = self.pair._state
                block = state.allocate(m)
            streams = state.seeds.expand(_row_bytes(m), block)
            t_mat = streams[:KAPPA]
            choices = np.asarray(bits, dtype=np.uint8)
            u = t_mat ^ streams[KAPPA:] ^ np.packbits(choices)
            payload = encode_ot_extend(state.id, block, m, u.tobytes())
            self.channel.send(Frame(MSG["OT_EXTEND"], self.session, payload))
        self._open = t_mat, block, choices

    def _complete(self, word: int) -> tuple[np.ndarray, bytes, np.ndarray]:
        """The open extension's pads H(t_j), the sender's OT_PAYLOAD of one
        word-byte correction per transfer, and the choice bits."""
        t_mat, block, choices = self._open
        m = len(choices)
        with self:
            corr = _expect(self.channel, "OT_PAYLOAD", word * m)
        return _hash_rows(_transpose(t_mat, m), block), corr, choices

    def recv_messages(self) -> np.ndarray:
        """The label each choice bit of the open extension selects, as the
        rows of an (m, 16) uint8 array: the pad, XORed with the correction
        where the bit is 1."""
        pads, corr, choices = self._complete(16)
        pads ^= np.frombuffer(corr, dtype=np.uint8).reshape(-1, 16) * choices[:, None]
        return pads

    def recv_correlated(self, bits: list[int]) -> list[int]:
        self.extend(bits)
        pads, corr, choices = self._complete(4)
        u = np.frombuffer(corr, dtype=">u4").astype(np.int64)
        w = _low31(pads) + u * choices.astype(np.int64)
        return np.mod(w, SHARE_MODULUS).tolist()
