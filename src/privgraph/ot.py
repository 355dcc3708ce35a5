"""Oblivious transfer: a DDH-based semi-honest base OT plus an IKNP-style
extension, with a correlated variant over Z_{2^31} used by offline triple
generation and a message variant carrying 16-byte wire labels.

The extension sender (who holds message pairs) plays base-OT receiver with
its 128 secret selection bits; the extension receiver plays base-OT sender
with 128 seed pairs. Per extension index i the parties derive 16-byte pads
pad0/pad1 (sender) and pad_{b_i} (receiver).
"""

from __future__ import annotations

import hashlib
import secrets
import struct

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .crypto import ELEMENT_BYTES, SHARE_MODULUS, GroupContext
from .transport import MSG, Channel, Frame, TransportError

__all__ = ["OTSender", "OTReceiver", "OTError", "SHARE_MODULUS"]

KAPPA = 128  # base-OT count / extension matrix width


class OTError(TransportError):
    pass


def _expect(channel: Channel, msg_name: str, size: int) -> bytes:
    """The next frame's payload, which must be msg_name of exactly size bytes."""
    payload = channel.expect(msg_name).payload
    if len(payload) != size:
        raise OTError(f"{msg_name} of {len(payload)} bytes, expected {size}")
    return payload


def _decode_point(ctx: GroupContext, data: bytes) -> int:
    try:
        return ctx.decode(data)
    except ValueError as exc:
        raise OTError(f"OT_SETUP: {exc}") from None


def _expand(seed: bytes, n: int, block: int) -> bytes:
    """n bytes of a 16-byte seed's AES-CTR stream, from the given block on."""
    enc = Cipher(algorithms.AES(seed), modes.CTR(block.to_bytes(16, "big"))).encryptor()
    return enc.update(bytes(n))


def _hash_point(ctx: GroupContext, index: int, point: int) -> bytes:
    return hashlib.sha256(struct.pack(">I", index) + ctx.encode(point)).digest()[:16]


def _hash_rows(rows: np.ndarray, first: int) -> list[bytes]:
    """Hash each 16-byte row with its running index, from first on, into a pad."""
    out = []
    raw = rows.tobytes()
    for i in range(len(rows)):
        index = struct.pack(">Q", first + i)
        out.append(hashlib.sha256(index + raw[i * 16 : i * 16 + 16]).digest()[:16])
    return out


class _Stream:
    """Where the next extension starts. Every extension on one set-up
    expands the seeds from the next unused AES-CTR block and hashes its
    rows with the next unused indices, so no two extensions share PRG
    output; both parties advance it identically."""

    def __init__(self):
        self.block = 0
        self.row = 0

    def advance(self, m: int) -> tuple[int, int]:
        """The (block, row) of an m-transfer extension, reserved."""
        start = self.block, self.row
        self.block += -(-m // 128)  # ceil(m/8) bytes per seed, 16 per block
        self.row += m
        return start


def _base_send(ctx: GroupContext, channel: Channel, session: int, pairs):
    """Base-OT sender: transfers one 16-byte message pair per instance."""
    a = 1 + secrets.randbelow(ctx.q - 1)
    big_a = ctx.g_exp(a)
    channel.send(Frame(MSG["OT_SETUP"], session, ctx.encode(big_a)))
    reply = _expect(channel, "OT_SETUP", len(pairs) * ELEMENT_BYTES)
    inv_a_of_big_a = ctx.exp(ctx.inverse(big_a), a)  # A^{-a}
    cts = []
    for i, (m0, m1) in enumerate(pairs):
        b_point = _decode_point(ctx, reply[i * ELEMENT_BYTES : (i + 1) * ELEMENT_BYTES])
        k0 = ctx.exp(b_point, a)
        k1 = ctx.mul(k0, inv_a_of_big_a)  # (B/A)^a
        pad0 = _hash_point(ctx, i, k0)
        pad1 = _hash_point(ctx, i, k1)
        cts.append(bytes(x ^ y for x, y in zip(m0, pad0)))
        cts.append(bytes(x ^ y for x, y in zip(m1, pad1)))
    channel.send(Frame(MSG["OT_SETUP"], session, b"".join(cts)))


def _base_recv(ctx: GroupContext, channel: Channel, session: int, bits) -> list[bytes]:
    """Base-OT receiver: obtains the message selected by each bit."""
    big_a = _decode_point(ctx, _expect(channel, "OT_SETUP", ELEMENT_BYTES))
    ks, points = [], []
    for bit in bits:
        k = 1 + secrets.randbelow(ctx.q - 1)
        point = ctx.g_exp(k)
        if bit:
            point = ctx.mul(point, big_a)
        ks.append(k)
        points.append(ctx.encode(point))
    channel.send(Frame(MSG["OT_SETUP"], session, b"".join(points)))
    cts = _expect(channel, "OT_SETUP", 2 * 16 * len(bits))
    out = []
    for i, (bit, k) in enumerate(zip(bits, ks)):
        pad = _hash_point(ctx, i, ctx.exp(big_a, k))
        ct = cts[(2 * i + bit) * 16 : (2 * i + bit + 1) * 16]
        out.append(bytes(x ^ y for x, y in zip(ct, pad)))
    return out


class OTSender:
    """Extension sender: after setup, derives pad pairs for each transfer."""

    def __init__(self, ctx: GroupContext, channel: Channel, session: int = 0):
        self.ctx = ctx
        self.channel = channel
        self.session = session
        self._s_bits: list[int] | None = None
        self._seeds: list[bytes] | None = None
        self._stream = _Stream()

    def setup(self) -> None:
        self._s_bits = [secrets.randbelow(2) for _ in range(KAPPA)]
        self._seeds = _base_recv(self.ctx, self.channel, self.session, self._s_bits)
        s_arr = np.array(self._s_bits, dtype=np.uint8)
        self._s_bytes = np.frombuffer(np.packbits(s_arr).tobytes(), dtype=np.uint8)

    def pads(self, m: int) -> tuple[list[bytes], list[bytes]]:
        if self._seeds is None:
            raise OTError("setup not run")
        mb = (m + 7) // 8
        u = _expect(self.channel, "OT_EXTEND", KAPPA * mb)
        block, row = self._stream.advance(m)
        u_mat = np.frombuffer(u, dtype=np.uint8).reshape(KAPPA, mb)
        q_mat = np.empty((KAPPA, mb), dtype=np.uint8)
        for j in range(KAPPA):
            col = np.frombuffer(_expand(self._seeds[j], mb, block), dtype=np.uint8)
            q_mat[j] = col ^ u_mat[j] if self._s_bits[j] else col
        rows = np.packbits(np.unpackbits(q_mat, axis=1).T[:m], axis=1)  # (m, 16)
        pads0 = _hash_rows(rows, row)
        pads1 = _hash_rows(rows ^ self._s_bytes, row)
        return pads0, pads1

    def send_messages(self, msgs0: list[bytes], msgs1: list[bytes]) -> None:
        """Transfer arbitrary 16-byte message pairs (wire labels)."""
        pads0, pads1 = self.pads(len(msgs0))
        parts = []
        for m0, m1, p0, p1 in zip(msgs0, msgs1, pads0, pads1):
            parts.append(bytes(x ^ y for x, y in zip(m0, p0)))
            parts.append(bytes(x ^ y for x, y in zip(m1, p1)))
        self.channel.send(Frame(MSG["OT_PAYLOAD"], self.session, b"".join(parts)))

    def send_correlated(self, deltas: list[int]) -> list[int]:
        """Correlated OT over Z_{2^31}: receiver with bit b learns
        v + b*delta; sender returns the v values. One correction word per
        instance is sent."""
        pads0, pads1 = self.pads(len(deltas))
        vs, corr = [], []
        for delta, p0, p1 in zip(deltas, pads0, pads1):
            v = int.from_bytes(p0, "big") % SHARE_MODULUS
            w1 = int.from_bytes(p1, "big") % SHARE_MODULUS
            corr.append(struct.pack(">I", (delta + v - w1) % SHARE_MODULUS))
            vs.append(v)
        self.channel.send(Frame(MSG["OT_PAYLOAD"], self.session, b"".join(corr)))
        return vs


class OTReceiver:
    """Extension receiver: after setup, obtains the pad selected by each
    choice bit."""

    def __init__(self, ctx: GroupContext, channel: Channel, session: int = 0):
        self.ctx = ctx
        self.channel = channel
        self.session = session
        self._seed_pairs: list[tuple[bytes, bytes]] | None = None
        self._stream = _Stream()

    def setup(self) -> None:
        self._seed_pairs = [
            (secrets.token_bytes(16), secrets.token_bytes(16)) for _ in range(KAPPA)
        ]
        _base_send(self.ctx, self.channel, self.session, self._seed_pairs)

    def pads(self, bits: list[int]) -> list[bytes]:
        if self._seed_pairs is None:
            raise OTError("setup not run")
        m = len(bits)
        mb = (m + 7) // 8
        r_bytes = np.packbits(np.array(bits, dtype=np.uint8))
        r_bytes = np.pad(r_bytes, (0, mb - len(r_bytes)))
        block, row = self._stream.advance(m)
        t_mat = np.empty((KAPPA, mb), dtype=np.uint8)
        u_rows = []
        for j, (k0, k1) in enumerate(self._seed_pairs):
            t_mat[j] = np.frombuffer(_expand(k0, mb, block), dtype=np.uint8)
            g1 = np.frombuffer(_expand(k1, mb, block), dtype=np.uint8)
            u_rows.append((t_mat[j] ^ g1 ^ r_bytes).tobytes())
        self.channel.send(Frame(MSG["OT_EXTEND"], self.session, b"".join(u_rows)))
        rows = np.packbits(np.unpackbits(t_mat, axis=1).T[:m], axis=1)
        return _hash_rows(rows, row)

    def recv_messages(self, bits: list[int]) -> list[bytes]:
        pads = self.pads(bits)
        cts = _expect(self.channel, "OT_PAYLOAD", 2 * 16 * len(bits))
        out = []
        for i, (bit, pad) in enumerate(zip(bits, pads)):
            ct = cts[(2 * i + bit) * 16 : (2 * i + bit + 1) * 16]
            out.append(bytes(x ^ y for x, y in zip(ct, pad)))
        return out

    def recv_correlated(self, bits: list[int]) -> list[int]:
        pads = self.pads(bits)
        corr = _expect(self.channel, "OT_PAYLOAD", 4 * len(bits))
        out = []
        for i, (bit, pad) in enumerate(zip(bits, pads)):
            w = int.from_bytes(pad, "big") % SHARE_MODULUS
            if bit:
                (u,) = struct.unpack(">I", corr[i * 4 : (i + 1) * 4])
                w = (w + u) % SHARE_MODULUS
            out.append(w)
        return out
