"""Deterministic cryptographic primitives shared by the builder, the
front-end, and the index servers: PRFs, the group (P-256 through OpenSSL,
with elements encoded as x-coordinates), per-term keys, identifier
encryption, shard hashing, and the fixed-key AES hash that garbling and OT
extension share.

Everything here is a pure function of its inputs once the master keys are
fixed, so it is safe to call concurrently from any number of sessions; only
a FixedKeyHash instance, which holds a cipher context, belongs to one thread.
The one exception is OT extension's row hash: one instance that every
session shares, called under a lock.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass

import numpy as np
from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.cmac import CMAC
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

__all__ = [
    "SCORE_BITS",
    "SHARE_MODULUS",
    "GroupContext",
    "element_bytes",
    "decode_element",
    "MasterKeyBundle",
    "HALVES",
    "FixedKeyHash",
    "DecryptError",
    "TermError",
    "prf128",
    "prf_exp",
    "stag_derive",
    "xterm_exponent",
    "counter_exponent",
    "xtag_compute",
    "xtoken_compute",
    "blinding_value",
    "term_key",
    "encrypt_id",
    "decrypt_ids",
    "hash_to_shard",
    "parse_term",
    "save_keystore",
    "load_keystore",
]

# The one group, of the xtags, the xtokens and the base OT: the NIST curve
# P-256 through OpenSSL, an elliptic-curve group of the kind the OXT paper
# runs on (Cash et al., CRYPTO 2013). Its field prime and its prime order n:
FIELD_PRIME = 2**256 - 2**224 + 2**192 + 2**96 - 1
ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
CURVE = ec.SECP256R1()
_ECDH = ec.ECDH()

# an element travels as its x-coordinate
ELEMENT_BYTES = 32
KEY_BYTES = 16
# sort keys and every secret-shared value live in Z_{2^31}; SCORE_BITS is
# the share modulus' width and the widest a sort compares
# (scoring.score_width)
SCORE_BITS = 31
SHARE_MODULUS = 1 << SCORE_BITS


# a 16-byte block (a wire label, an OT row) as its two little-endian u64
# halves (l, r); signed, so that an arithmetic shift spreads a bit
HALVES = np.dtype("<i8")


class FixedKeyHash:
    """H(x, i) = π(σ(x) ⊕ i) ⊕ σ(x), the tweakable circular
    correlation-robust hash of Guo, Katz, Wang and Yu ("Efficient and
    Secure Multiparty Computation from Fixed-Key Block Ciphers", S&P 2020).
    π is AES-128 under a fixed public key, one key per use, and σ(l, r) =
    (l ⊕ r, l) is a linear orthomorphism over the block's halves. One call
    hashes any number of blocks with one AES-ECB call. An instance holds
    one cipher context: make one per thread, or share one under a lock."""

    def __init__(self, key: bytes):
        self._enc = Cipher(algorithms.AES(key), modes.ECB()).encryptor()

    @staticmethod
    def tweaks(indices) -> np.ndarray:
        """Integer tweaks of up to 64 bits (as int64 bit patterns) as the
        128-bit blocks (i, 0) that __call__ takes."""
        indices = np.asarray(indices)
        blocks = np.zeros(indices.shape + (2,), dtype=indices.dtype)
        blocks[..., 0] = indices
        return blocks

    @staticmethod
    def sigma(x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = σ(x) for blocks x (..., 2) HALVES; out must not overlap x."""
        np.bitwise_xor(x[..., 0], x[..., 1], out=out[..., 0])
        out[..., 1] = x[..., 0]
        return out

    def pi(self, blocks: np.ndarray) -> np.ndarray:
        """π of every block of the C-contiguous (..., 2) HALVES blocks, in
        one AES-ECB call."""
        out = self._enc.update(blocks.view(np.uint8))
        return np.frombuffer(out, dtype=HALVES).reshape(blocks.shape)

    def pi_into(self, blocks, out) -> None:
        """π of every 16-byte block of the bytes-like blocks, in one AES-ECB
        call, written to the front of the writable bytes-like out, which
        must be 15 bytes longer than blocks: for callers that fold σ and
        the tweak into their own algebra (garble.py)."""
        self._enc.update_into(blocks, out)

    def __call__(self, x: np.ndarray, tweaks: np.ndarray) -> np.ndarray:
        """x: blocks as (..., 2) HALVES; tweaks: 128-bit blocks (made by
        tweaks()) that broadcast against x. Returns H of every block under
        its tweak, as (..., 2) HALVES."""
        s = self.sigma(x, np.empty(x.shape, dtype=HALVES))
        return self.pi(s ^ tweaks) ^ s


class TermError(ValueError):
    """Raised for malformed indexing terms."""


class DecryptError(Exception):
    """Raised when authenticated decryption of an entity id fails."""


def parse_term(term: str) -> tuple[str, int]:
    """Split ``edge-type:id`` into its components, validating the shape."""
    if ":" not in term:
        raise TermError(f"malformed indexing term {term!r}: expected 'edge-type:id'")
    edge_type, _, id_text = term.rpartition(":")
    if not edge_type:
        raise TermError(f"malformed indexing term {term!r}: empty edge type")
    try:
        entity_id = int(id_text)
    except ValueError:
        raise TermError(f"malformed indexing term {term!r}: id is not an integer") from None
    if entity_id < 0 or entity_id >= 1 << 64:
        raise TermError(f"malformed indexing term {term!r}: id out of u64 range")
    return edge_type, entity_id


def element_bytes(point: ec.EllipticCurvePublicKey) -> bytes:
    """A point's 32-byte x-coordinate: its encoding as a group element."""
    return point.public_bytes(Encoding.X962, PublicFormat.CompressedPoint)[1:]


def decode_element(data: bytes) -> ec.EllipticCurvePublicKey:
    """The point of a 32-byte x-coordinate, lifted and validated by
    OpenSSL: ValueError for a wrong length, an x >= p or an x off the
    curve. Either lift serves, since x([e]P) = x([e](-P))."""
    if len(data) != ELEMENT_BYTES:
        raise ValueError(f"group element must be {ELEMENT_BYTES} bytes")
    try:
        return ec.EllipticCurvePublicKey.from_encoded_point(CURVE, b"\x02" + data)
    except ValueError:
        raise ValueError("encoding is not the x-coordinate of a P-256 point") from None


class GroupContext:
    """P-256, the prime-order group of n elements that xtags, xtokens and
    the base OT live in. An element is the 32-byte x-coordinate of a
    point; scalars are integers in 1..n-1.

    The instance counts scalar multiplications, one per g_exp and one per
    ECDH, so that tests can assert the work-independence law of boolean
    queries. Making a key (key()) computes its public point too, which is
    not counted.
    """

    n = ORDER

    def __init__(self):
        self.exp_count = 0

    @staticmethod
    def key(e: int) -> ec.EllipticCurvePrivateKey:
        """The scalar e as an OpenSSL key, to multiply several points by."""
        return ec.derive_private_key(e, CURVE)

    def exp(self, base: ec.EllipticCurvePublicKey | None, e) -> bytes:
        """x([e] base): one scalar multiplication. base is a point, or None
        for the generator; e is a scalar or a key made by key()."""
        self.exp_count += 1
        if isinstance(e, int):
            e = self.key(e)
        if base is None:
            return element_bytes(e.public_key())
        return e.exchange(_ECDH, base)

    def g_exp(self, e: int) -> bytes:
        return self.exp(None, e)


@dataclass(frozen=True)
class MasterKeyBundle:
    """The front-end's secret keys.  Never shipped to any index server."""

    k_stag: bytes
    k_x: bytes
    k_i: bytes
    k_z: bytes
    k_enc: bytes

    def __post_init__(self):
        for name in ("k_stag", "k_x", "k_i", "k_z", "k_enc"):
            if len(getattr(self, name)) != KEY_BYTES:
                raise ValueError(f"{name} must be {KEY_BYTES} bytes")

    @classmethod
    def generate(cls, rng=os.urandom) -> "MasterKeyBundle":
        return cls(*(rng(KEY_BYTES) for _ in range(5)))


def prf128(key: bytes, data: bytes) -> bytes:
    """AES-CMAC, the 128-bit PRF underlying all token derivations."""
    mac = CMAC(algorithms.AES(key))
    mac.update(data)
    return mac.finalize()


def prf_exp(key: bytes, data: bytes) -> int:
    """PRF into the nonzero scalars Z_n* by rejection sampling.

    Two CMAC blocks give one 256-bit candidate per draw; since n > 2^256 -
    2^224, a draw is rejected with probability below 2^-32.
    """
    if not data:
        raise ValueError("prf_exp input must be nonempty")
    ctr = 0
    while True:
        block = prf128(key, data + struct.pack(">I", ctr)) + prf128(
            key, data + struct.pack(">I", ctr + 1)
        )
        candidate = int.from_bytes(block, "big")
        if 0 < candidate < ORDER:
            return candidate
        ctr += 2


def stag_derive(keys: MasterKeyBundle, term: str) -> bytes:
    """The search tag identifying a posting list: PRF(k_stag, term)."""
    parse_term(term)
    return prf128(keys.k_stag, term.encode())


def xterm_exponent(keys: MasterKeyBundle, term: str) -> int:
    """x_t = F(k_x, term), the term's factor of its xtags and xtokens."""
    return prf_exp(keys.k_x, term.encode())


def counter_exponent(keys: MasterKeyBundle, s_term: str, counter: int) -> int:
    """z_c = F(k_z, s_term || c), the factor of the s-term's tuple c."""
    if counter < 1:
        raise ValueError("tuple counter starts at 1")
    return prf_exp(keys.k_z, s_term.encode() + struct.pack(">Q", counter))


def _id_exponent(keys: MasterKeyBundle, entity_id: int) -> int:
    return prf_exp(keys.k_i, struct.pack(">Q", entity_id))


def xtag_compute(keys: MasterKeyBundle, ctx: GroupContext, term: str, entity_id: int) -> bytes:
    """x([F(k_x, term) * F(k_i, id)] G), the edge-membership tag in the XSet."""
    return ctx.g_exp(xterm_exponent(keys, term) * _id_exponent(keys, entity_id) % ctx.n)


def xtoken_compute(
    keys: MasterKeyBundle, ctx: GroupContext, s_term: str, counter: int, x_term: str
) -> bytes:
    """Per-tuple intersection token: x([z_c * x_t] G).

    Multiplied by the tuple's blinding value y_c by the server it yields
    the candidate xtag for (x_term, id_c).
    """
    z_c = counter_exponent(keys, s_term, counter)
    return ctx.g_exp(z_c * xterm_exponent(keys, x_term) % ctx.n)


def blinding_value(
    keys: MasterKeyBundle, ctx: GroupContext, s_term: str, counter: int, entity_id: int
) -> int:
    """The per-tuple blinding scalar y_c = F(k_i, id) * z_c^-1 mod n."""
    z_c = counter_exponent(keys, s_term, counter)
    return _id_exponent(keys, entity_id) * pow(z_c, -1, ctx.n) % ctx.n


def term_key(keys: MasterKeyBundle, term: str) -> bytes:
    """Per-term encryption key K_t, derived on demand from k_enc."""
    return prf128(keys.k_enc, term.encode())


# AESGCM nonce (12) + 8-byte id + 16-byte tag.
CIPHERTEXT_BYTES = 36


def encrypt_id(key: bytes, entity_id: int, rng=os.urandom) -> bytes:
    """Randomised authenticated encryption of an entity id under K_t."""
    nonce = rng(12)
    return nonce + AESGCM(key).encrypt(nonce, struct.pack(">Q", entity_id), b"")


def decrypt_ids(key: bytes, ciphertexts) -> list[int]:
    """The entity ids of ciphertexts under K_t, with one AES-GCM key
    schedule for all of them."""
    aead = AESGCM(key)
    ids = []
    for n, ciphertext in enumerate(ciphertexts):
        if len(ciphertext) != CIPHERTEXT_BYTES:
            raise DecryptError(f"ciphertext {n} has wrong length")
        try:
            plain = aead.decrypt(ciphertext[:12], ciphertext[12:], b"")
        except InvalidTag:
            raise DecryptError(
                f"ciphertext {n}: authentication failed (wrong key or tampered ciphertext)"
            ) from None
        ids.append(struct.unpack(">Q", plain)[0])
    return ids


def hash_to_shard(entity_id: int, shard_count: int) -> int:
    """Stable id -> shard mapping by SHA-256, identical in both clusters."""
    if shard_count < 1:
        raise ValueError("shard_count must be >= 1")
    digest = hashlib.sha256(struct.pack(">Q", entity_id)).digest()
    return int.from_bytes(digest[:8], "big") % shard_count


_KEYSTORE_MAGIC = b"PGKS"
_KEYSTORE_VERSION = 1
# magic, version, then five keys, each after its u16 length
_KEYSTORE = struct.Struct(">4sH" + f"H{KEY_BYTES}s" * 5)


def save_keystore(keys: MasterKeyBundle, path) -> None:
    """Binary keystore: magic, version, five length-prefixed keys."""
    fields = []
    for k in (keys.k_stag, keys.k_x, keys.k_i, keys.k_z, keys.k_enc):
        fields += [len(k), k]
    with open(path, "wb") as fh:
        fh.write(_KEYSTORE.pack(_KEYSTORE_MAGIC, _KEYSTORE_VERSION, *fields))


def load_keystore(path) -> MasterKeyBundle:
    """Strict: a file other than save_keystore's layout with KEY_BYTES-byte
    keys (truncated, with trailing bytes, a key of another length) raises
    ValueError."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _KEYSTORE_MAGIC:
        raise ValueError("not a keystore file")
    if len(data) != _KEYSTORE.size:
        raise ValueError(f"keystore of {len(data)} bytes, expected {_KEYSTORE.size}")
    _, version, *fields = _KEYSTORE.unpack(data)
    if version != _KEYSTORE_VERSION:
        raise ValueError(f"unsupported keystore version {version}")
    if fields[0::2] != [KEY_BYTES] * 5:
        raise ValueError(f"keystore keys must be {KEY_BYTES} bytes")
    return MasterKeyBundle(*fields[1::2])
