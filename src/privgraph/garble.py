"""Garbling scheme for the sort circuits: free-XOR with point-and-permute
and half-gates, run one circuit level at a time.

Wire labels are 16-byte strings; the two labels of a wire differ by a
circuit-global offset delta whose low bit is 1, so the label's low bit
(bit 0 of byte 15) serves as the permute bit. XOR and INV gates are free;
each AND gate costs two 16-byte rows, T_G and T_E, the half-gates of
Zahur, Rosulek and Evans ("Two Halves Make a Whole", EUROCRYPT 2015).
For AND gate gid with input zero-labels A, B and permute bits pa, pb:

    T_G = H(A, 2gid) ^ H(A ^ delta, 2gid) ^ pb * delta
    T_E = H(B, 2gid + 1) ^ H(B ^ delta, 2gid + 1) ^ A
    C   = H(A ^ pa * delta, 2gid) ^ pa * pb * delta ^ H(B ^ pb * delta, 2gid + 1)

C being the output's zero-label. The evaluator, holding labels Wa, Wb
with permute bits sa, sb, takes H(Wa, 2gid) ^ sa * T_G ^ H(Wb, 2gid + 1)
^ sb * (T_E ^ Wa). H is crypto.FixedKeyHash under this module's key; gid
is the AND gate's index in gate order.

Both parties work from a level schedule computed once per circuit: the
gates sorted by their levels (Circuit.levels) and ops into flat read-only
arrays. Labels live in slots that are reused after each wire's last use,
so memory follows the live wires, not the circuit size. A level runs one
XOR gather, then its AND gates with one gather of their input labels and
one AES call (the garbler hashes both labels of each input, the evaluator
the one it holds), then its INV copies. An AND output label depends on the
hashes, so the garbler too must run level by level; it folds its tables
out of the per-level hashes once at the end. Tables, their row order and
the blob format are those of gate order; the schedule changes only how
the work is batched.
"""

from __future__ import annotations

import secrets
import struct
import threading
import weakref

import numpy as np

from .circuits import AND, INV, XOR, Circuit
from .crypto import HALVES, FixedKeyHash
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
_MAGIC = b"PGHG"  # half-gates tables; the 4-row format was b"PGGC"
_TABLE_BYTES = 32  # T_G and T_E


class GarbleError(TransportError):
    """A garbled circuit or label set that does not fit its circuit; most
    often a malformed CIRCUIT_BLOB from the peer."""


def _permute_masks(labels: np.ndarray) -> np.ndarray:
    """All-ones where a label's permute bit (bit 56 of its high half) is
    set, else 0: labels (..., 2) HALVES -> (..., 1)."""
    return (labels[..., 1:] << 7) >> 63


def _narrow(values: np.ndarray, top: int) -> np.ndarray:
    """values as the narrowest unsigned type that holds 0..top, where
    numpy's stable sort is a radix sort."""
    return values.astype(np.min_scalar_type(top))


class LevelSchedule:
    """The gates of one circuit sorted by (level, op), the label-slot map,
    and each AND gate's hash tweaks. Every array is read-only, so one
    schedule serves any number of concurrent garble and evaluate calls.

    steps holds one (xor_lo, and_lo, inv_lo, end, j_lo, j_hi) per level:
    its op groups' positions in the sorted arrays, and its AND gates' range
    j_lo..j_hi in schedule order. A group at positions lo..hi reads the
    slots ins[2*lo : 2*hi], its a inputs then its b inputs, so one gather
    serves the group. Rows 2*j_lo .. 2*j_hi of tweak are an AND group's
    tweaks [2gid; 2gid + 1] as FixedKeyHash blocks; tweak index 2gid + h
    is also the table row of its half h, T_G or T_E.
    """

    def __init__(self, circuit: Circuit):
        gates = circuit.gates
        level = circuit.levels
        self.n_levels = int(level.max()) if len(level) else 0
        key = _narrow((level - 1) * 3 + gates[:, 0], 3 * self.n_levels)
        perm = np.argsort(key, kind="stable")
        bounds = np.zeros(3 * self.n_levels + 1, dtype=np.int64)
        np.cumsum(np.bincount(key, minlength=3 * self.n_levels), out=bounds[1:])
        defined = gates[perm, 3]
        slot, self.n_slots = _assign_slots(circuit, level, defined, bounds)
        self.out = slot[defined]
        self.input_slots = {name: slot[wires] for name, wires in circuit.inputs.items()}
        self.output_slots = slot[np.asarray(circuit.outputs, dtype=np.int64)]

        a, b = slot[gates[perm, 1]], slot[gates[perm, 2]]  # b meaningless for INV
        is_and = gates[:, 0] == AND
        and_index = np.cumsum(is_and, dtype=np.int32) - 1  # gid, in gate order
        self.ins = np.empty(2 * len(gates), dtype=np.int32)
        index = np.empty(2 * int(np.count_nonzero(is_and)), dtype=np.int32)
        bl = bounds.tolist()
        self.steps, j = [], 0
        for lv in range(self.n_levels):
            for lo, hi in zip(bl[3 * lv : 3 * lv + 3], bl[3 * lv + 1 : 3 * lv + 4]):
                self.ins[2 * lo : lo + hi] = a[lo:hi]
                self.ins[lo + hi : 2 * hi] = b[lo:hi]
            and_lo, inv_lo = bl[3 * lv + 1], bl[3 * lv + 2]
            m = inv_lo - and_lo
            gid = and_index[perm[and_lo:inv_lo]]
            index[2 * j : 2 * j + m] = 2 * gid
            index[2 * j + m : 2 * j + 2 * m] = 2 * gid + 1
            self.steps.append((*bl[3 * lv : 3 * lv + 4], j, j + m))
            j += m
        self.n_and = j
        self.tweak = FixedKeyHash.tweaks(index)
        for arr in (self.ins, self.out, self.output_slots, self.tweak,
                    *self.input_slots.values()):
            arr.setflags(write=False)

    @property
    def table_rows(self) -> np.ndarray:
        """The table row, 2gid + half, of each row of the AND groups."""
        return self.tweak[:, 0]

    def run(self, buf: np.ndarray, and_step, flip) -> None:
        """Run every level over the label slots buf: XOR gates, and_step(
        (a; b) input slots, j_lo, j_hi) -> the labels of the level's AND
        outputs, then INV gates, which XOR in flip."""
        ins, out = self.ins, self.out
        for xor_lo, and_lo, inv_lo, end, j_lo, j_hi in self.steps:
            if and_lo > xor_lo:
                x = buf.take(ins[2 * xor_lo : 2 * and_lo], axis=0)
                buf[out[xor_lo:and_lo]] = x[: and_lo - xor_lo] ^ x[and_lo - xor_lo :]
            if inv_lo > and_lo:
                buf[out[and_lo:inv_lo]] = and_step(ins[2 * and_lo : 2 * inv_lo], j_lo, j_hi)
            if end > inv_lo:
                buf[out[inv_lo:end]] = buf.take(ins[2 * inv_lo : inv_lo + end], axis=0) ^ flip


def _assign_slots(circuit: Circuit, level, defined, bounds):
    """Give every wire a label slot. A slot is reused once the last level
    that reads its wire is done, so no level reads a slot it also writes.
    Output wires keep their slots to the end."""
    gates = circuit.gates
    n_levels = len(bounds) // 3
    last = np.zeros(circuit.n_wires, dtype=np.int32)  # inputs live at level 0
    last[gates[:, 3]] = level
    np.maximum.at(last, gates[:, 1], level)
    binary = gates[:, 2] >= 0
    np.maximum.at(last, gates[binary, 2], level[binary])
    last[np.asarray(circuit.outputs, dtype=np.int64)] = n_levels + 1
    last = _narrow(last, n_levels + 1)
    release = np.argsort(last, kind="stable")
    release_at = np.zeros(n_levels + 3, dtype=np.int64)
    np.cumsum(np.bincount(last, minlength=n_levels + 2), out=release_at[1:])

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
    """The garbler's output: the half-gates rows (T_G, T_E) of each AND
    gate in gate order, plus the decode bits for the circuit's output
    wires."""

    def __init__(self, tables: np.ndarray, dec: np.ndarray):
        self.tables = tables  # (n_ands, 2, 16) uint8
        self.dec = dec  # (n_outputs,) uint8

    @property
    def and_count(self) -> int:
        return len(self.tables)

    def to_bytes(self) -> bytes:
        return (
            struct.pack(">4sII", _MAGIC, len(self.tables), len(self.dec))
            + self.tables.tobytes()
            + np.packbits(self.dec).tobytes()
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "GarbledCircuit":
        if len(data) < 12 or data[:4] != _MAGIC:
            raise GarbleError("not a garbled-circuit blob")
        _, n_ands, n_out = struct.unpack(">4sII", data[:12])
        if len(data) != 12 + _TABLE_BYTES * n_ands + -(-n_out // 8):
            raise GarbleError(
                f"garbled-circuit blob of {len(data)} bytes does not hold "
                f"{n_ands} tables and {n_out} decode bits"
            )
        off = 12 + _TABLE_BYTES * n_ands
        tables = np.frombuffer(data[12:off], dtype=np.uint8).reshape(n_ands, 2, 16)
        bits = np.unpackbits(np.frombuffer(data[off:], dtype=np.uint8))
        if bits[n_out:].any():
            raise GarbleError("garbled-circuit blob has set padding bits")
        return cls(tables.copy(), bits[:n_out].copy())


def _random_labels(token, n: int) -> np.ndarray:
    return np.frombuffer(token(16 * n), dtype=np.uint8).reshape(n, 16)


def garble(circuit: Circuit, rng=None):
    """Garble a circuit. Returns (GarbledCircuit, input label map, delta)
    where the label map gives each input bundle's zero-labels. rng(n)
    returns n random bytes: delta's, then each bundle's labels in turn."""
    token = rng if rng is not None else secrets.token_bytes
    sched = level_schedule(circuit)
    delta = np.frombuffer(token(16), dtype=np.uint8).copy()
    delta[15] |= 1  # permute bit of the offset
    label_map = {name: _random_labels(token, len(w)) for name, w in circuit.inputs.items()}

    buf = np.empty((sched.n_slots, 2), dtype=HALVES)
    for name, slots in sched.input_slots.items():
        buf[slots] = label_map[name].view(HALVES)
    d = delta.view(HALVES)
    both = np.stack([np.zeros_like(d), d])[:, None]  # X -> [X; X ^ delta]
    rows = np.empty((2 * sched.n_and, 2), dtype=HALVES)  # [T_G; T_E] by AND group
    hash_ = FixedKeyHash(_HASH_KEY)

    def and_step(ins, j_lo, j_hi):
        at = slice(2 * j_lo, 2 * j_hi)
        x = buf.take(ins, axis=0)  # [A; B]
        h = hash_(x ^ both, sched.tweak[at])
        r = np.bitwise_xor(h[0], h[1], out=rows[at])
        p = _permute_masks(x)
        m = j_hi - j_lo
        r[:m] ^= p[m:] & d
        h_p = h[0] ^ (p & r)  # [H(A) ^ pa T_G; H(B ^ pb delta)]
        r[m:] ^= x[:m]
        return h_p[:m] ^ h_p[m:]

    sched.run(buf, and_step, d)
    tables = np.empty((sched.n_and, 2, 16), dtype=np.uint8)
    tables.view(HALVES).reshape(-1, 2)[sched.table_rows] = rows
    dec = buf[sched.output_slots].view(np.uint8)[:, 15] & 1
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
    if gc.tables.shape != (sched.n_and, 2, 16):
        raise GarbleError(f"circuit has {sched.n_and} AND gates, tables hold {len(gc.tables)}")
    buf = np.empty((sched.n_slots, batch, 2), dtype=HALVES)
    for name, slots in sched.input_slots.items():
        arr = input_labels[name]
        if arr.shape[1:] != (len(slots), 16):
            raise GarbleError(f"bundle {name!r} expects {len(slots)} labels")
        buf[slots] = np.ascontiguousarray(arr, dtype=np.uint8).view(HALVES).transpose(1, 0, 2)

    # [T_G; T_E] of each level's ANDs, as its [a; b] inputs, broadcast over the batch
    tables = np.ascontiguousarray(gc.tables).view(HALVES).reshape(-1, 1, 2)
    rows = tables[sched.table_rows]
    tweak = sched.tweak[:, None]
    hash_ = FixedKeyHash(_HASH_KEY)

    def and_step(ins, j_lo, j_hi):
        at = slice(2 * j_lo, 2 * j_hi)
        x = buf.take(ins, axis=0)  # [Wa; Wb]
        s = _permute_masks(x)
        y = hash_(x, tweak[at]) ^ (s & rows[at])
        m = j_hi - j_lo
        return y[:m] ^ y[m:] ^ (s[m:] & x[:m])

    sched.run(buf, and_step, 0)
    out = np.ascontiguousarray(buf[sched.output_slots].transpose(1, 0, 2))
    return out.view(np.uint8)


def decode(gc: GarbledCircuit, output_labels: np.ndarray) -> np.ndarray:
    """Map output labels to plaintext bits via the decode table."""
    return (output_labels[:, :, 15] & 1) ^ gc.dec[None, :]
