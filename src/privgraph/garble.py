"""Garbling scheme for the sort circuits: free-XOR with point-and-permute
and half-gates, run one circuit level at a time.

Wire labels are 16-byte strings; the two labels of a wire differ by a
circuit-global offset delta whose low bit is 1, so the label's low bit
(bit 0 of byte 15) serves as the permute bit. XOR gates are free; each
AND gate costs two 16-byte rows, T_G and T_E, the half-gates of Zahur,
Rosulek and Evans ("Two Halves Make a Whole", EUROCRYPT 2015). For AND
gate gid with input zero-labels A, B and permute bits pa, pb:

    T_G = H(A, 2gid) ^ H(A ^ delta, 2gid) ^ pb * delta
    T_E = H(B, 2gid + 1) ^ H(B ^ delta, 2gid + 1) ^ A
    C   = H(A ^ pa * delta, 2gid) ^ pa * pb * delta ^ H(B ^ pb * delta, 2gid + 1)

C being the output's zero-label. The evaluator, holding labels Wa, Wb
with permute bits sa, sb, takes H(Wa, 2gid) ^ sa * T_G ^ H(Wb, 2gid + 1)
^ sb * (T_E ^ Wa). H is crypto.FixedKeyHash under this module's key; gid
is the AND gate's index in gate order.

Both parties work from a level schedule computed once per circuit: the
gates sorted by their levels (Circuit.levels) and ops, with each group's
inputs as index arrays and its outputs as a slice of slots where they are
one run, else as an index array. Labels live in slots that are reused
after each wire's last use, so memory follows the live wires, not the
circuit size; the wires a level makes take a free run of slots where
there is one, so nearly every write is a slice write. An input that no
gate reads and no output names gets no slot, and its labels are never
read.

A level runs its XOR gates with one gather, one XOR and one write. Its
AND gates take one gather, which brings the halves of their input labels
as same-shape arrays, two of which XOR to σ(x); the hash input S = σ(x) ^
i goes through one AES call, and π(S) ^ σ(x) is H(x, i). A few XORs then
write the outputs. The garbler hashes during the levels only the labels
whose permute bit is 0, A ^ pa * delta and B ^ pb * delta, which are all
C needs. After the last level it hashes their complements, under S ^
σ(delta), in one call, and folds all its tables at once out of H(X) ^
H(X ^ delta) = π(S) ^ π(S ^ σ(delta)) ^ σ(delta). Tables, their row order
and the blob format are those of gate order; the schedule changes only
how the work is batched.
"""

from __future__ import annotations

import secrets
import struct
import threading
import weakref

import numpy as np

from .circuits import AND, XOR, Circuit
from .crypto import HALVES, FixedKeyHash
from .transport import TransportError

assert (XOR, AND) == (0, 1)  # the schedule's group order within a level

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
# (x << _UP) >> _DOWN spreads bit 56 of x, a label's permute bit when x
# is its high half, over all 64 bits: the mask that selects on it
_UP, _DOWN = np.array(7, dtype=HALVES), np.array(63, dtype=HALVES)


class GarbleError(TransportError):
    """A garbled circuit or label set that does not fit its circuit; most
    often a malformed CIRCUIT_BLOB from the peer."""


def _narrow(values: np.ndarray, top: int) -> np.ndarray:
    """values as the narrowest unsigned type that holds 0..top, where
    numpy's stable sort is a radix sort."""
    return values.astype(np.min_scalar_type(top))


def _target(out: np.ndarray, lo: int, hi: int):
    """Where the gates lo..hi of the schedule write their outputs: a slice
    when their slots out[lo:hi], which ascend within a level, are one run,
    else an index array; None for no gates."""
    if hi == lo:
        return None
    if int(out[hi - 1]) - int(out[lo]) == hi - lo - 1:
        return slice(int(out[lo]), int(out[hi - 1]) + 1)
    return out[lo:hi].astype(np.intp)


def _bytes(blocks: np.ndarray) -> memoryview:
    """The C-contiguous array blocks as a flat, writable memoryview of bytes."""
    return memoryview(blocks.view(np.uint8).reshape(-1))


def _unsigma(s: np.ndarray) -> np.ndarray:
    """σ^-1 of blocks s (..., 2) HALVES: (u, v) -> (v, u ^ v)."""
    x = np.empty_like(s)
    x[..., 0] = s[..., 1]
    np.bitwise_xor(s[..., 0], s[..., 1], out=x[..., 1])
    return x


class LevelSchedule:
    """The gates of one circuit sorted by (level, op), the label-slot map,
    and each AND gate's table rows. Every array is read-only, so one
    schedule serves any number of concurrent garble and evaluate calls.

    Labels sit in a (n_slots + 1, 2) HALVES buffer whose last slot, zero,
    holds 0. steps holds one (xor_in, xor_out, and_in, and_out, m, lo, hi)
    per level. xor_in (2, k) holds the slots of its k XOR gates' a inputs,
    then their b inputs. and_in (4, 2m, 2) holds positions in the buffer
    seen flat: over the rows [a inputs; b inputs] of its m AND gates, the
    halves (r, r), (l, l) and (r, 0) of each input label (l, r), the last
    two XORing to σ of it, then [0; the a input] against the rows, so that
    one gather brings the group's inputs as same-shape, contiguous arrays.
    xor_out and and_out are the groups' output slots, a slice where they
    are one run. The AND group's rows are rows lo..hi of each array that a
    garble or evaluate call keeps by AND input; table_rows holds the table
    row, 2gid + half, of each, which is also its hash tweak.
    """

    def __init__(self, circuit: Circuit):
        gates = circuit.gates
        level = circuit.levels
        self.n_levels = int(level.max()) if len(level) else 0
        key = _narrow(2 * (level - 1) + gates[:, 0], 2 * self.n_levels)
        perm = np.argsort(key, kind="stable")
        bounds = np.zeros(2 * self.n_levels + 1, dtype=np.int64)
        np.cumsum(np.bincount(key, minlength=2 * self.n_levels), out=bounds[1:])
        defined = gates[perm, 3]
        slot, self.n_slots = _assign_slots(circuit, level, defined, bounds)
        self.out = _narrow(slot[defined], self.n_slots)  # each gate's output slot, in schedule order
        self.zero = self.n_slots  # the slot past the labels, which stays 0
        self.inputs = {}  # bundle -> (positions of its read wires, their slots)
        for name, wires in circuit.inputs.items():
            read = np.flatnonzero(slot[wires] >= 0)
            self.inputs[name] = (read, slot[np.asarray(wires)[read]].astype(np.intp))
        self.output_slots = slot[np.asarray(circuit.outputs, dtype=np.int64)].astype(np.intp)

        is_and = gates[perm, 0] == AND
        a, b = slot[gates[perm, 1]], slot[gates[perm, 2]]
        m = bounds[2::2] - bounds[1::2]  # AND gates a level
        j0 = np.cumsum(m) - m  # a level's first AND
        # the narrowest type for slots and flat positions, which numpy's
        # take converts as cheaply as its own index type
        itype = np.min_scalar_type(2 * self.zero + 1)
        # the four parts of each AND input row, a level's a inputs, then
        # its b inputs, from row 2 j0 on; each level takes its rows' block
        self.n_and = n = int(m.sum())
        m_of, j0_of = np.repeat(m, m), np.repeat(j0, m)
        a_rows = j0_of + np.arange(n)  # 2 j0 + the gate's place in its level
        b_rows = a_rows + m_of
        y, za = np.empty(2 * n, dtype=np.int64), np.full(2 * n, 2 * self.zero)
        y[a_rows], y[b_rows] = 2 * a[is_and], 2 * b[is_and]
        za[b_rows] = 2 * a[is_and]
        parts = np.empty((4, 2 * n, 2), dtype=itype)
        parts[0, :, 0] = parts[0, :, 1] = parts[2, :, 0] = y + 1
        parts[1, :, 0] = parts[1, :, 1] = y
        parts[2, :, 1] = 2 * self.zero
        parts[3, :, 0], parts[3, :, 1] = za, za + 1
        gid = np.cumsum(gates[:, 0] == AND, dtype=np.int32) - 1
        gid = gid[perm[is_and]]  # each AND's index in gate order
        self.table_rows = np.empty(2 * n, dtype=np.min_scalar_type(2 * n))
        self.table_rows[a_rows], self.table_rows[b_rows] = 2 * gid, 2 * gid + 1
        self.widest = int(m.max(initial=0))  # the most ANDs in a level

        self.steps = []
        for lv, (am, aj) in enumerate(zip(m.tolist(), j0.tolist())):
            x_lo, a_lo, end = bounds[2 * lv : 2 * lv + 3].tolist()
            xor_in = None  # the XOR block (2, k): the a slots, then the b slots
            if a_lo > x_lo:
                xor_in = np.empty((2, a_lo - x_lo), dtype=itype)
                xor_in[0], xor_in[1] = a[x_lo:a_lo], b[x_lo:a_lo]
            self.steps.append((
                xor_in,
                _target(self.out, x_lo, a_lo),
                np.ascontiguousarray(parts[:, 2 * aj : 2 * (aj + am)]) if am else None,
                _target(self.out, a_lo, end),
                am,
                2 * aj,
                2 * (aj + am),
            ))
        arrays = [self.out, self.output_slots, self.table_rows]
        arrays += [x for step in self.steps for x in step if isinstance(x, np.ndarray)]
        arrays += [x for pair in self.inputs.values() for x in pair if isinstance(x, np.ndarray)]
        for arr in arrays:
            arr.setflags(write=False)

    def tweaks(self) -> np.ndarray:
        """Each AND input row's hash tweak, as (2 n_and, 2) HALVES blocks;
        made per call, which costs little next to a garbling."""
        return FixedKeyHash.tweaks(self.table_rows.astype(HALVES))

    def reads(self, bundle: str) -> bool:
        """Whether any gate reads, or any output names, a wire of bundle."""
        return len(self.inputs[bundle][0]) > 0

    def run(self, buf: np.ndarray, and_step) -> None:
        """Run every level over the label buffer buf: its XOR gates, then
        and_step(the AND inputs gathered, and_out, m, lo, hi), which writes
        the level's AND outputs."""
        flat = buf.reshape(-1)
        for xor_in, xor_out, and_in, and_out, m, lo, hi in self.steps:
            if xor_in is not None:
                x = buf.take(xor_in, axis=0)
                buf[xor_out] = x[0] ^ x[1]
            if m:
                and_step(flat.take(and_in), and_out, m, lo, hi)


def _assign_slots(circuit: Circuit, level, defined, bounds):
    """Give every wire that is read, or named as an output, a label slot,
    and every gate output one; an input that is neither gets -1. A slot
    is reused once the last level that reads its wire is done, so no level
    reads a slot it also writes; output wires keep their slots to the end.
    The wires a level makes, its XOR outputs then its AND outputs, take the
    tightest free run of slots that holds them; failing one, the run at the
    top grows, unless that would take more slots than a quarter over the
    most wires ever live at once while enough slots are free, which then
    go to the level scattered."""
    gates = circuit.gates
    n_levels = len(bounds) // 2
    last = np.full(circuit.n_wires, -1, dtype=level.dtype)  # -1: never read
    last[gates[:, 3]] = level  # a gate output that no gate reads dies at once
    np.maximum.at(last, gates[:, 1], level)
    np.maximum.at(last, gates[:, 2], level)
    last[np.asarray(circuit.outputs, dtype=np.int64)] = n_levels + 1
    inputs = np.array([w for ws in circuit.inputs.values() for w in ws], dtype=np.int64)
    kept = np.flatnonzero(last >= 0)  # the wires that get a slot
    release_of = _narrow(last[kept], n_levels + 1)
    release = kept[np.argsort(release_of, kind="stable")]
    gone = np.bincount(release_of, minlength=n_levels + 2)
    release_at = np.concatenate([[0], np.cumsum(gone)])
    # level 0 makes the read input wires
    made = [inputs[last[inputs] >= 0]] + [
        defined[bounds[2 * lv] : bounds[2 * lv + 2]] for lv in range(n_levels)
    ]
    gone_before = np.cumsum(gone)[: len(made)] - gone[: len(made)]
    live = np.cumsum([len(wires) for wires in made]) - gone_before
    budget = int(live.max()) * 5 // 4

    slot = np.full(circuit.n_wires, -1, dtype=np.int32)
    free = np.zeros(circuit.n_wires + 2, dtype=bool)  # slot s is free[s + 1]
    top = 0
    for lv, wires in enumerate(made):
        g = len(wires)
        if g:
            # the free runs [start, end) below top; free[0] and free[top + 1] stay False
            edges = np.flatnonzero(free[1 : top + 2] != free[: top + 1])
            starts, size = edges[0::2], edges[1::2] - edges[0::2]
            fits = np.flatnonzero(size >= g)
            if len(fits):
                first = int(starts[fits[size[fits].argmin()]])
            else:  # the run at the top, grown
                first = int(starts[-1]) if len(edges) and edges[-1] == top else top
            if len(fits) or first + g <= budget or np.count_nonzero(free) < g:
                slot[wires] = np.arange(first, first + g)
                top = max(top, first + g)
            else:
                slot[wires] = np.flatnonzero(free)[:g] - 1
            free[slot[wires] + 1] = False
        free[slot[release[release_at[lv] : release_at[lv + 1]]] + 1] = True
    return slot, top


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


def garble(circuit: Circuit, rng=None, zero=None):
    """Garble a circuit. Returns (GarbledCircuit, input label map, delta)
    where the label map gives each input bundle's zero-labels. zero maps a
    bundle to zero-labels that are given, such as the pads of a correlated
    OT, rather than drawn. rng(n) returns n random bytes: delta's, then
    each other bundle's labels in turn."""
    token = rng if rng is not None else secrets.token_bytes
    zero = zero or {}
    sched = level_schedule(circuit)
    delta = np.frombuffer(token(16), dtype=np.uint8).copy()
    delta[15] |= 1  # permute bit of the offset
    label_map = {
        name: zero[name] if name in zero else _random_labels(token, len(w))
        for name, w in circuit.inputs.items()
    }

    buf = np.empty((sched.n_slots + 1, 2), dtype=HALVES)
    buf[sched.zero] = 0
    for name, (read, slots) in sched.inputs.items():
        buf[slots] = label_map[name].view(HALVES)[read]
    hash_ = FixedKeyHash(_HASH_KEY)
    d = delta.view(HALVES)
    sigma_d = hash_.sigma(d, np.empty(2, dtype=HALVES))
    d_rows, sigma_d_rows = np.tile(d, (sched.widest, 1)), np.tile(sigma_d, (2 * sched.widest, 1))
    tweak = sched.tweaks()
    # by AND group, as rows [a inputs; b inputs]: the permute masks of the
    # zero-labels, the hash inputs S of the labels whose permute bit is 0,
    # and their H, with a spare block for the AES call
    p_all, s_all = (np.empty((2 * sched.n_and, 2), dtype=HALVES) for _ in range(2))
    h_all = np.empty((2 * sched.n_and + 1, 2), dtype=HALVES)
    s_bytes, h_bytes = _bytes(s_all), _bytes(h_all)

    def and_step(g, out, m, lo, hi):
        p = np.right_shift(g[0] << _UP, _DOWN, out=p_all[lo:hi])
        sigma = g[1] ^ g[2]
        sigma ^= p & sigma_d_rows[: hi - lo]  # σ(A ^ pa delta), σ(B ^ pb delta)
        np.bitwise_xor(sigma, tweak[lo:hi], out=s_all[lo:hi])
        hash_.pi_into(s_bytes[16 * lo : 16 * hi], h_bytes[16 * lo :])
        h = h_all[lo:hi]
        h ^= sigma
        c = h[:m] ^ h[m:]
        c ^= p[:m] & p[m:] & d_rows[:m]
        buf[out] = c

    sched.run(buf, and_step)
    # the a and the b input rows, gate by gate: a table row is even for an
    # a input; the zero-labels A, from S = σ(A ^ pa delta) ^ i
    a, b = np.flatnonzero(sched.table_rows % 2 == 0), np.flatnonzero(sched.table_rows % 2)
    zero_a = _unsigma(s_all[a] ^ tweak[a]) ^ (p_all[a] & d)
    # the other label of each AND input, hashed at once; then the tables
    s_all ^= sigma_d
    rows = hash_.pi(s_all) ^ s_all  # H(X ^ delta) ^ i
    rows ^= h_all[:-1]
    rows ^= tweak  # H(X) ^ H(X ^ delta)
    rows[a] ^= p_all[b] & d
    rows[b] ^= zero_a
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
    """Evaluate garbled gates over a batch of input label sets, one set at
    a time.

    input_labels maps bundle name -> (batch, n_bits, 16) uint8; a bundle
    whose wires no gate reads and no output names may be left out. Returns
    the output labels as (batch, n_outputs, 16). The evaluator sees exactly
    one label per wire; labels are held in the schedule's reusable slots,
    so memory is bounded by the live wires of a level, not the circuit
    size.
    """
    batches = {a.shape[0] for a in input_labels.values()}
    if len(batches) != 1:
        raise GarbleError("all label bundles need the same batch size")
    (batch,) = batches
    sched = level_schedule(circuit)
    if gc.tables.shape != (sched.n_and, 2, 16):
        raise GarbleError(f"circuit has {sched.n_and} AND gates, tables hold {len(gc.tables)}")
    if len(gc.dec) != len(circuit.outputs):
        raise GarbleError(f"circuit has {len(circuit.outputs)} outputs, {len(gc.dec)} decode bits")
    inputs = []
    for name, (read, slots) in sched.inputs.items():
        arr = input_labels.get(name)
        if arr is None and not len(read):
            continue
        if arr is None or arr.shape[1:] != (len(circuit.inputs[name]), 16):
            raise GarbleError(f"bundle {name!r} expects {len(circuit.inputs[name])} labels")
        inputs.append((np.ascontiguousarray(arr, dtype=np.uint8).view(HALVES)[:, read], slots))

    # [T_G; T_E] of each AND group, as its rows [a inputs; b inputs]
    rows = np.ascontiguousarray(gc.tables).view(HALVES).reshape(-1, 2)[sched.table_rows]
    tweak = sched.tweaks()
    hash_ = FixedKeyHash(_HASH_KEY)
    buf = np.empty((sched.n_slots + 1, 2), dtype=HALVES)
    buf[sched.zero] = 0
    # the hash inputs and outputs of each AND group, a spare block for the AES call
    s_all, h_all = np.empty((len(rows), 2), dtype=HALVES), np.empty((len(rows) + 1, 2), dtype=HALVES)
    s_bytes, h_bytes = _bytes(s_all), _bytes(h_all)

    def and_step(g, out, m, lo, hi):
        sigma = g[1] ^ g[2]
        np.bitwise_xor(sigma, tweak[lo:hi], out=s_all[lo:hi])
        hash_.pi_into(s_bytes[16 * lo : 16 * hi], h_bytes[16 * lo :])
        h = h_all[lo:hi]
        h ^= sigma  # H(Wa), H(Wb)
        t = rows[lo:hi] ^ g[3]  # T_G, T_E ^ Wa
        t &= (g[0] << _UP) >> _DOWN
        h ^= t
        buf[out] = h[:m] ^ h[m:]

    out = np.empty((batch, len(sched.output_slots), 2), dtype=HALVES)
    for row in range(batch):
        for labels, slots in inputs:
            buf[slots] = labels[row]
        sched.run(buf, and_step)
        out[row] = buf[sched.output_slots]
    return out.view(np.uint8)


def decode(gc: GarbledCircuit, output_labels: np.ndarray) -> np.ndarray:
    """Map output labels to plaintext bits via the decode table."""
    return (output_labels[:, :, 15] & 1) ^ gc.dec[None, :]
