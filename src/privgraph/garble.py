"""Garbling scheme for the sort circuits: free-XOR with point-and-permute,
run one circuit level at a time.

Wire labels are 16-byte strings; the two labels of a wire differ by a
circuit-global offset delta whose low bit is 1, so the label's low bit
serves as the permute bit. XOR and INV gates are free; each AND gate
costs a 4-row table. The row hash is a fixed-key AES construction
H(Ka, Kb, gid) = E(t) ^ t with t = 2*Ka ^ 4*Kb ^ gid (doubling in
GF(2^128), big-endian), where gid is the AND gate's index in gate order.

Both parties work from a level schedule computed once per circuit: the
gates sorted by their levels (Circuit.levels) and ops into flat read-only
arrays. The evaluator runs one XOR gather, one INV copy and one batched
AES-ECB call per level. Its labels live in slots that are reused after
each wire's last use, so its memory follows the live wires, not the
circuit size. The garbler draws all AND output labels at once, propagates
the free gates level by level and hashes the tables in bounded chunks.
Tables, their row order and the blob format are those of gate order; the
schedule changes only how the work is batched.
"""

from __future__ import annotations

import secrets
import struct
import threading
import weakref

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .circuits import AND, INV, XOR, Circuit
from .transport import TransportError

assert (XOR, AND, INV) == (0, 1, 2)  # the schedule's group order within a level

__all__ = [
    "GarbledCircuit",
    "GarbleError",
    "LevelSchedule",
    "level_schedule",
    "garble",
    "select_labels",
    "evaluate",
    "decode",
]

_HASH_KEY = b"privgraph-gc-key"
_TABLE_CHUNK = 8192  # AND gates hashed per AES call while garbling

# reduction terms of the bits shifted out by doubling / quadrupling
_RED2 = np.array([0, 0x87], dtype=np.uint64)
_RED4 = np.array([0, 0x87, 0x10E, 0x189], dtype=np.uint64)


class GarbleError(TransportError):
    """A garbled circuit or label set that does not fit its circuit; most
    often a malformed CIRCUIT_BLOB from the peer."""


def _encryptor():
    return Cipher(algorithms.AES(_HASH_KEY), modes.ECB()).encryptor()


def _hash_rows(enc, ka: np.ndarray, kb: np.ndarray, gids: np.ndarray) -> np.ndarray:
    """H over stacked label rows: ka, kb (m, 16) uint8, gids (m,) -> (m, 16)."""
    a = ka.view(">u8").astype(np.uint64)  # (m, 2): high and low halves
    b = kb.view(">u8").astype(np.uint64)
    t = (a << 1) ^ (b << 2)
    t[:, 0] ^= (a[:, 1] >> 63) ^ (b[:, 1] >> 62)
    t[:, 1] ^= _RED2[a[:, 0] >> 63] ^ _RED4[b[:, 0] >> 62] ^ gids.astype(np.uint64)
    t = t.astype(">u8").view(np.uint8)
    return np.frombuffer(enc.update(t.tobytes()), dtype=np.uint8).reshape(t.shape) ^ t


class LevelSchedule:
    """The gates of one circuit sorted by (level, op), and the evaluator's
    label-slot map. Every array is read-only, so one schedule serves any
    number of concurrent garble and evaluate calls.

    Group (level l, op o) occupies positions bounds[3*l + o] to
    bounds[3*l + o + 1] of the sorted arrays, o being the op code.
    """

    def __init__(self, circuit: Circuit):
        gates = circuit.gates
        level = circuit.levels
        self.n_levels = int(level.max()) if len(level) else 0
        key = (level - 1) * 3 + gates[:, 0]  # op codes order a level's groups
        self.perm = np.argsort(key, kind="stable").astype(np.int32)
        self.bounds = np.searchsorted(key[self.perm], np.arange(3 * self.n_levels + 1))
        sorted_gates = gates[self.perm]
        is_and = sorted_gates[:, 0] == AND
        and_index = np.cumsum(gates[:, 0] == AND, dtype=np.int32) - 1
        self.gid = and_index[self.perm][is_and]  # AND indices in sorted order
        self.n_and = len(self.gid)

        slot, self.n_slots = _assign_slots(circuit, level, sorted_gates[:, 3], self.bounds)
        self.a = slot[sorted_gates[:, 1]]
        self.b = slot[sorted_gates[:, 2]]  # meaningless for INV rows
        self.out = slot[sorted_gates[:, 3]]
        self.input_slots = {name: slot[wires] for name, wires in circuit.inputs.items()}
        self.output_slots = slot[np.asarray(circuit.outputs, dtype=np.int64)]
        for arr in (self.perm, self.bounds, self.gid, self.a, self.b, self.out,
                    self.output_slots, *self.input_slots.values()):
            arr.setflags(write=False)

    def groups(self):
        """Yield (xor_lo, and_lo, inv_lo, end) positions for every level."""
        bounds = self.bounds.tolist()
        for lv in range(self.n_levels):
            yield bounds[3 * lv : 3 * lv + 4]


def _assign_slots(circuit: Circuit, level, defined, bounds):
    """Give every wire a label slot. A slot is reused once the last level
    that reads its wire is done, so no level reads a slot it also writes.
    Output wires keep their slots to the end."""
    gates = circuit.gates
    n_levels = len(bounds) // 3
    last = np.zeros(circuit.n_wires, dtype=np.int64)  # inputs live at level 0
    last[gates[:, 3]] = level
    np.maximum.at(last, gates[:, 1], level)
    binary = gates[:, 2] >= 0
    np.maximum.at(last, gates[binary, 2], level[binary])
    last[np.asarray(circuit.outputs, dtype=np.int64)] = n_levels + 1
    release = np.argsort(last, kind="stable")
    release_at = np.searchsorted(last[release], np.arange(n_levels + 2))

    slot = np.empty(circuit.n_wires, dtype=np.int32)
    free = np.empty(circuit.n_wires, dtype=np.int32)  # stack of free slots
    top = n_slots = 0
    # level 0 defines the input wires, level l >= 1 the outputs of its gates
    firsts = [np.array([w for ws in circuit.inputs.values() for w in ws], dtype=np.int64)]
    firsts += [defined[bounds[3 * lv] : bounds[3 * lv + 3]] for lv in range(n_levels)]
    for lv, wires in enumerate(firsts):
        reused = min(len(wires), top)
        slot[wires[:reused]] = free[top - reused : top]
        top -= reused
        fresh = len(wires) - reused
        slot[wires[reused:]] = np.arange(n_slots, n_slots + fresh)
        n_slots += fresh
        done = slot[release[release_at[lv] : release_at[lv + 1]]]
        free[top : top + len(done)] = done
        top += len(done)
    return slot, n_slots


_schedules: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_schedules_lock = threading.Lock()


def level_schedule(circuit: Circuit) -> LevelSchedule:
    """The circuit's level schedule, computed on first use and kept for as
    long as the circuit lives."""
    with _schedules_lock:
        sched = _schedules.get(circuit)
        if sched is None:
            sched = _schedules[circuit] = LevelSchedule(circuit)
    return sched


class GarbledCircuit:
    """The garbler's output: AND tables in gate order plus the decode bits
    for the circuit's output wires."""

    def __init__(self, tables: np.ndarray, dec: np.ndarray):
        self.tables = tables  # (n_ands, 4, 16) uint8
        self.dec = dec  # (n_outputs,) uint8

    @property
    def and_count(self) -> int:
        return len(self.tables)

    def to_bytes(self) -> bytes:
        return (
            struct.pack(">4sII", b"PGGC", len(self.tables), len(self.dec))
            + self.tables.tobytes()
            + np.packbits(self.dec).tobytes()
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "GarbledCircuit":
        if len(data) < 12 or data[:4] != b"PGGC":
            raise GarbleError("not a garbled-circuit blob")
        _, n_ands, n_out = struct.unpack(">4sII", data[:12])
        if len(data) != 12 + 64 * n_ands + -(-n_out // 8):
            raise GarbleError(
                f"garbled-circuit blob of {len(data)} bytes does not hold "
                f"{n_ands} tables and {n_out} decode bits"
            )
        off = 12
        tables = np.frombuffer(
            data[off : off + n_ands * 64], dtype=np.uint8
        ).reshape(n_ands, 4, 16)
        off += n_ands * 64
        bits = np.unpackbits(np.frombuffer(data[off:], dtype=np.uint8))
        if bits[n_out:].any():
            raise GarbleError("garbled-circuit blob has set padding bits")
        return cls(tables.copy(), bits[:n_out].copy())


def _random_labels(token, n: int) -> np.ndarray:
    return np.frombuffer(token(16 * n), dtype=np.uint8).reshape(n, 16)


def _and_tables(enc, la, lb, lo, delta, gids) -> np.ndarray:
    """4-row tables of AND gates with zero-labels la, lb -> lo. Row
    (pa, pb) holds H(Ka, Kb, gid) ^ Kout for the input labels whose permute
    bits are pa and pb."""
    rows = np.arange(4, dtype=np.uint8)
    va = ((rows & 1)[None, :] ^ (la[:, 15:] & 1))[..., None]  # (m, 4, 1) bit values
    vb = ((rows >> 1)[None, :] ^ (lb[:, 15:] & 1))[..., None]
    ka = la[:, None, :] ^ (va * delta)
    kb = lb[:, None, :] ^ (vb * delta)
    plain = lo[:, None, :] ^ ((va & vb) * delta)
    h = _hash_rows(enc, ka.reshape(-1, 16), kb.reshape(-1, 16), np.repeat(gids, 4))
    return h.reshape(plain.shape) ^ plain


def garble(circuit: Circuit, rng=None):
    """Garble a circuit. Returns (GarbledCircuit, input label map, delta)
    where the label map gives each input bundle's zero-labels."""
    token = rng if rng is not None else secrets.token_bytes
    sched = level_schedule(circuit)
    delta = np.frombuffer(token(16), dtype=np.uint8).copy()
    delta[15] |= 1  # permute bit of the offset

    w0 = np.empty((circuit.n_wires, 16), dtype=np.uint8)
    for wires in circuit.inputs.values():
        if wires:
            w0[wires] = _random_labels(token, len(wires))
    ands = circuit.gates[circuit.gates[:, 0] == AND]
    if len(ands):
        w0[ands[:, 3]] = _random_labels(token, len(ands))

    ordered = circuit.gates[sched.perm]
    for xor_lo, and_lo, inv_lo, end in sched.groups():
        if and_lo > xor_lo:
            g = ordered[xor_lo:and_lo]
            w0[g[:, 3]] = w0[g[:, 1]] ^ w0[g[:, 2]]
        if end > inv_lo:
            g = ordered[inv_lo:end]
            w0[g[:, 3]] = w0[g[:, 1]] ^ delta

    enc = _encryptor()
    tables = np.empty((len(ands), 4, 16), dtype=np.uint8)
    for lo in range(0, len(ands), _TABLE_CHUNK):
        g = ands[lo : lo + _TABLE_CHUNK]
        tables[lo : lo + len(g)] = _and_tables(
            enc, w0[g[:, 1]], w0[g[:, 2]], w0[g[:, 3]], delta,
            np.arange(lo, lo + len(g)),
        )
    dec = w0[np.asarray(circuit.outputs, dtype=np.int64), 15] & 1
    label_map = {
        name: w0[np.array(wires, dtype=np.int64)] for name, wires in circuit.inputs.items()
    }
    return GarbledCircuit(tables, dec), label_map, delta


def select_labels(zero_labels: np.ndarray, delta: np.ndarray, bits) -> np.ndarray:
    """Pick the labels encoding the given bit values. Accepts a single bit
    vector (n,) or a batch (batch, n); returns labels with a batch axis."""
    bits = np.atleast_2d(np.asarray(bits, dtype=np.uint8))
    return zero_labels[None, :, :] ^ (bits[:, :, None] * delta[None, None, :])


def evaluate(circuit: Circuit, gc: GarbledCircuit, input_labels: dict) -> np.ndarray:
    """Evaluate garbled gates over a batch of input label sets.

    input_labels maps bundle name -> (batch, n_bits, 16) uint8. Returns the
    output labels as (batch, n_outputs, 16). The evaluator sees exactly one
    label per wire; labels are held in the schedule's reusable slots, so
    memory is bounded by the live wires of a level, not the circuit size.
    """
    batches = {a.shape[0] for a in input_labels.values()}
    if len(batches) != 1:
        raise GarbleError("all label bundles need the same batch size")
    (batch,) = batches
    sched = level_schedule(circuit)
    if gc.tables.shape != (sched.n_and, 4, 16):
        raise GarbleError(f"circuit has {sched.n_and} AND gates, tables hold {len(gc.tables)}")
    buf = np.empty((sched.n_slots, batch, 16), dtype=np.uint8)
    for name, slots in sched.input_slots.items():
        arr = input_labels[name]
        if arr.shape[1] != len(slots):
            raise GarbleError(f"bundle {name!r} expects {len(slots)} labels")
        buf[slots] = arr.transpose(1, 0, 2)

    enc = _encryptor()
    tables = gc.tables
    a, b, out = sched.a, sched.b, sched.out
    done = 0  # AND gates evaluated so far, in schedule order
    for xor_lo, and_lo, inv_lo, end in sched.groups():
        if and_lo > xor_lo:
            buf[out[xor_lo:and_lo]] = buf[a[xor_lo:and_lo]] ^ buf[b[xor_lo:and_lo]]
        if inv_lo > and_lo:
            la, lb = buf[a[and_lo:inv_lo]], buf[b[and_lo:inv_lo]]
            ids = sched.gid[done : done + inv_lo - and_lo]
            done += inv_lo - and_lo
            h = _hash_rows(
                enc, la.reshape(-1, 16), lb.reshape(-1, 16), np.repeat(ids, batch)
            )
            row = (la[..., 15] & 1) | ((lb[..., 15] & 1) << 1)
            buf[out[and_lo:inv_lo]] = h.reshape(la.shape) ^ tables[ids[:, None], row]
        if end > inv_lo:
            buf[out[inv_lo:end]] = buf[a[inv_lo:end]]
    return np.ascontiguousarray(buf[sched.output_slots].transpose(1, 0, 2))


def decode(gc: GarbledCircuit, output_labels: np.ndarray) -> np.ndarray:
    """Map output labels to plaintext bits via the decode table."""
    return (output_labels[:, :, 15] & 1) ^ gc.dec[None, :]
