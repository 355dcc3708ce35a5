"""Two-party arithmetic over additively shared values in Z_{2^31}:
sharing and reconstruction, non-interactive addition, one-round Beaver
multiplication, and offline elementwise triple generation via correlated
OT, whose only frames are the OT extension's.

dealer_triple_gen makes triples locally from a seed, so arithmetic tests
and the dealer run mode need no OT stack; every server knows such a seed,
so it is no source of secure triples.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass

import numpy as np

from .crypto import SCORE_BITS, SHARE_MODULUS
from .ot import OTReceiver, OTSender
from .transport import MSG, Channel, Frame, TransportError

__all__ = [
    "SHARE_MODULUS",
    "ShareMatrix",
    "TripleShare",
    "encode_mul_exchange",
    "decode_mul_exchange",
    "shr",
    "rec",
    "add",
    "sub",
    "mul",
    "dealer_triple_gen",
    "triple_gen_cot",
]

def _as_ring(values) -> np.ndarray:
    # np.asarray twice: ufuncs collapse 0-d arrays to scalars, and scalar
    # .astype() silently drops byte-order flags when packing
    arr = np.asarray(values, dtype=np.int64)
    return np.asarray(np.mod(arr, SHARE_MODULUS))


@dataclass(frozen=True)
class ShareMatrix:
    """One party's additive share of a matrix over Z_{2^31}."""

    values: np.ndarray
    party: int

    def __post_init__(self):
        object.__setattr__(self, "values", _as_ring(self.values))
        if self.party not in (0, 1):
            raise ValueError("party must be 0 or 1")

    @property
    def shape(self):
        return self.values.shape


def shr(values, rng: np.random.Generator) -> tuple[ShareMatrix, ShareMatrix]:
    """Split a value/matrix into two additive shares; share 0 is uniform."""
    arr = _as_ring(values)
    share0 = rng.integers(0, SHARE_MODULUS, size=arr.shape, dtype=np.int64)
    share1 = np.mod(arr - share0, SHARE_MODULUS)
    return ShareMatrix(share0, 0), ShareMatrix(share1, 1)


def rec(a: ShareMatrix, b: ShareMatrix) -> np.ndarray:
    if a.shape != b.shape:
        raise ValueError("share dimension mismatch")
    if a.party == b.party:
        raise ValueError("reconstruction needs one share from each party")
    return np.mod(a.values + b.values, SHARE_MODULUS)


def add(a: ShareMatrix, b: ShareMatrix) -> ShareMatrix:
    """Local elementwise addition; exchanges no messages."""
    if a.shape != b.shape:
        raise ValueError("share dimension mismatch")
    if a.party != b.party:
        raise ValueError("cannot add shares held by different parties")
    return ShareMatrix(a.values + b.values, a.party)


def sub(a: ShareMatrix, b: ShareMatrix) -> ShareMatrix:
    if a.shape != b.shape:
        raise ValueError("share dimension mismatch")
    if a.party != b.party:
        raise ValueError("cannot subtract shares held by different parties")
    return ShareMatrix(a.values - b.values, a.party)


@dataclass
class TripleShare:
    """One party's half of an elementwise multiplication triple
    Z = X * Y mod 2^31."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    party: int
    consumed: bool = False

    def consume(self) -> None:
        if self.consumed:
            raise ValueError("multiplication triple already consumed")
        self.consumed = True


def _times(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.mod(x * y, SHARE_MODULUS)


def encode_mul_exchange(e: np.ndarray, f: np.ndarray) -> bytes:
    return e.astype(">u4").tobytes() + f.astype(">u4").tobytes()


def decode_mul_exchange(payload: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The peer's blinded E and F, flat; two equal vectors of ring elements."""
    if len(payload) % 8:
        raise TransportError("MUL_EXCHANGE is not two equal share vectors")
    words = np.frombuffer(payload, dtype=">u4").astype(np.int64)
    if (words >= SHARE_MODULUS).any():
        raise TransportError("MUL_EXCHANGE word outside Z_{2^31}")
    half = len(words) // 2
    return words[:half], words[half:]


def mul(
    a: ShareMatrix,
    b: ShareMatrix,
    triple: TripleShare,
    channel: Channel,
    session: int = 0,
) -> ShareMatrix:
    """Beaver multiplication: one exchange of the blinded matrices
    E = A - X and F = B - Y, then a local combination."""
    if a.party != b.party or a.party != triple.party:
        raise ValueError("shares and triple must belong to one party")
    if triple.x.shape != a.shape or triple.y.shape != b.shape:
        raise ValueError("triple shape mismatch")
    triple.consume()
    i = a.party
    e_mine = np.asarray(np.mod(a.values - triple.x, SHARE_MODULUS))
    f_mine = np.asarray(np.mod(b.values - triple.y, SHARE_MODULUS))
    channel.send(Frame(MSG["MUL_EXCHANGE"], session, encode_mul_exchange(e_mine, f_mine)))
    e_theirs, f_theirs = decode_mul_exchange(channel.expect("MUL_EXCHANGE").payload)
    if e_theirs.size != e_mine.size:
        raise TransportError(f"MUL_EXCHANGE holds {e_theirs.size} values, expected {e_mine.size}")
    e = np.mod(e_mine + e_theirs.reshape(a.shape), SHARE_MODULUS)
    f = np.mod(f_mine + f_theirs.reshape(b.shape), SHARE_MODULUS)
    c = i * _times(e, f) + _times(triple.x, f) + _times(e, triple.y) + triple.z
    return ShareMatrix(c, i)


def dealer_triple_gen(shape, seed: int) -> tuple[TripleShare, TripleShare]:
    """Trusted-dealer triple generation from a seed, for tests and the
    dealer run mode."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, SHARE_MODULUS, size=shape, dtype=np.int64)
    y = rng.integers(0, SHARE_MODULUS, size=shape, dtype=np.int64)
    z = _times(x, y)
    x0 = rng.integers(0, SHARE_MODULUS, size=shape, dtype=np.int64)
    y0 = rng.integers(0, SHARE_MODULUS, size=shape, dtype=np.int64)
    z0 = rng.integers(0, SHARE_MODULUS, size=shape, dtype=np.int64)
    t0 = TripleShare(x0, y0, z0, 0)
    t1 = TripleShare(
        np.mod(x - x0, SHARE_MODULUS),
        np.mod(y - y0, SHARE_MODULUS),
        np.mod(z - z0, SHARE_MODULUS),
        1,
    )
    return t0, t1


def _cross_send(ot_sender: OTSender, scalars: list[int]) -> list[int]:
    """Sender side of a batch of Gilboa scalar products: supplies the
    per-bit correlations a*2^b and keeps the negated pad sums."""
    deltas = [a * (1 << b) % SHARE_MODULUS for a in scalars for b in range(SCORE_BITS)]
    vs = ot_sender.send_correlated(deltas)
    return [-sum(vs[i : i + SCORE_BITS]) % SHARE_MODULUS for i in range(0, len(vs), SCORE_BITS)]


def _cross_recv(ot_receiver: OTReceiver, scalars: list[int]) -> list[int]:
    """Receiver side: choice bits are the bits of its own factors."""
    bits = [(b_val >> b) & 1 for b_val in scalars for b in range(SCORE_BITS)]
    ws = ot_receiver.recv_correlated(bits)
    return [sum(ws[i : i + SCORE_BITS]) % SHARE_MODULUS for i in range(0, len(ws), SCORE_BITS)]


def _uniform(shape) -> np.ndarray:
    """Ring elements of the given shape from the OS CSPRNG."""
    n = int(np.prod(shape))
    words = np.frombuffer(secrets.token_bytes(4 * n), dtype=np.uint32)
    return (words & (SHARE_MODULUS - 1)).astype(np.int64).reshape(shape)


def triple_gen_cot(
    party: int, shape, ot_sender: OTSender, ot_receiver: OTReceiver
) -> TripleShare:
    """Generate one elementwise multiplication triple of the given shape
    with the counterpart over OT.

    Each party samples its X and Y share halves from the CSPRNG; the cross
    terms X_0 * Y_1 and X_1 * Y_0 are built from 31 correlated OTs per
    element, with the receiver's choice bits taken from its Y share.
    """
    x = _uniform(shape)
    y = _uniform(shape)
    x_scalars = [int(v) for v in x.reshape(-1)]
    y_scalars = [int(v) for v in y.reshape(-1)]
    # Cross term X_0 * Y_1: party 0 sends correlations, party 1 chooses.
    if party == 0:
        contrib_a = _cross_send(ot_sender, x_scalars)
        contrib_b = _cross_recv(ot_receiver, y_scalars)
    else:
        contrib_a = _cross_recv(ot_receiver, y_scalars)
        # Cross term X_1 * Y_0: roles reversed.
        contrib_b = _cross_send(ot_sender, x_scalars)

    cross = np.array(contrib_a, dtype=np.int64) + np.array(contrib_b, dtype=np.int64)
    z = np.mod(_times(x, y) + cross.reshape(shape), SHARE_MODULUS)
    return TripleShare(x, y, z, party)
