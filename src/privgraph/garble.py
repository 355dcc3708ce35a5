"""Garbling scheme for the sort circuits: free-XOR with point-and-permute
and half-gates, run one circuit level at a time.

Wire labels are 16-byte strings; the two labels of a wire differ by a
circuit-global offset delta whose low bit is 1, so the label's low bit
(bit 0 of byte 15) serves as the permute bit. XOR gates are free; each
AND gate costs two 16-byte rows, T_G and T_E, the half-gates of Zahur,
Rosulek and Evans ("Two Halves Make a Whole", EUROCRYPT 2015). For the
AND gate whose rows are g and e, with input zero-labels A, B and permute
bits pa, pb:

    T_G = H(A, g) ^ H(A ^ delta, g) ^ pb * delta
    T_E = H(B, e) ^ H(B ^ delta, e) ^ A
    C   = H(A ^ pa * delta, g) ^ pa * pb * delta ^ H(B ^ pb * delta, e)

C being the output's zero-label. The evaluator, holding labels Wa, Wb
with permute bits sa, sb, takes H(Wa, g) ^ sa * T_G ^ H(Wb, e) ^ sb *
(T_E ^ Wa). H is crypto.FixedKeyHash under this module's key; each row is
hashed under its own number, so no two calls share a tweak.

A circuit has one order (CircuitBuilder.build): its gates come by level
(Circuit.levels), a level's XORs before its ANDs, and wire w's label is
row w of one buffer, the inputs first, so the wires a level makes, its
XOR outputs and then its AND outputs, are one run each and every write is
a slice write. The tables follow the same order: per level, T_G of its m
ANDs, then their T_E, so the level's j-th AND has g = r + j and e = r + m
+ j, r being the level's first row. Both parties work from a level
schedule computed once per circuit, which holds each group's inputs as
index arrays. A bundle whose wires no gate reads and no output names
needs no labels.

A level runs its XOR gates with one gather, one XOR and one write. Its
AND gates take one gather, which brings the halves of their input labels
as same-shape arrays, two of which XOR to σ(x); the hash input S = σ(x) ^
i goes through one AES call, and π(S) ^ σ(x) is H(x, i). A few XORs then
write the outputs. The garbler hashes during the levels only the labels
whose permute bit is 0, A ^ pa * delta and B ^ pb * delta, which are all
C needs. After the last level it hashes their complements, under S ^
σ(delta), in one call, and folds all its tables at once out of H(X) ^
H(X ^ delta) = π(S) ^ π(S ^ σ(delta)) ^ σ(delta), rows as they were
hashed, which are the tables; the evaluator reads them in place.
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
_MAGIC = b"PGHL"  # half-gates rows by level; by gate b"PGHG", 4 rows b"PGGC"
_TABLE_BYTES = 32  # T_G and T_E
# (x << _UP) >> _DOWN spreads bit 56 of x, a label's permute bit when x
# is its high half, over all 64 bits: the mask that selects on it
_UP, _DOWN = np.array(7, dtype=HALVES), np.array(63, dtype=HALVES)


class GarbleError(TransportError):
    """A garbled circuit or label set that does not fit its circuit; most
    often a malformed CIRCUIT_BLOB from the peer."""


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
    """The vectorised steps of one circuit, a level at a time, in its gate
    order, which is its schedule order (CircuitBuilder.build). Every array
    is read-only, so one schedule serves any number of concurrent garble
    and evaluate calls.

    Wire w's label is row w of a (n_wires + 1, 2) HALVES buffer whose last
    row, zero, holds 0: the inputs first, bundle by bundle, then each
    gate's output in gate order. steps holds one (xor_in, xor_out, and_in,
    and_out, m, lo, hi) per level. xor_in (2, k) holds the wires of its k
    XOR gates' a inputs, then their b inputs. and_in (4, 2m, 2) holds
    positions in the buffer seen flat: over the rows [a inputs; b inputs]
    of its m AND gates, the halves (r, r), (l, l) and (r, 0) of each input
    label (l, r), the last two XORing to σ of it, then [0; the a input]
    against the rows, so that one gather brings the group's inputs as
    same-shape, contiguous arrays. xor_out and and_out are the slices of
    wires the groups write, which tile the wires past the inputs in order.
    The AND group's rows are rows lo..hi of the tables, [T_G; T_E], and of
    each array that a garble or evaluate call keeps by AND input; a row's
    number is its hash tweak. a_rows and b_rows hold the a and the b row
    of each AND gate, for the garbler's final fold.
    """

    def __init__(self, circuit: Circuit):
        gates, level = circuit.gates, circuit.levels
        n_levels = int(level.max(initial=0))
        bounds = np.zeros(2 * n_levels + 1, dtype=np.int64)
        key = 2 * (level - 1) + gates[:, 0]  # non-decreasing (CircuitBuilder.build)
        np.cumsum(np.bincount(key, minlength=2 * n_levels), out=bounds[1:])
        n_in = circuit.n_wires - len(gates)
        zero = circuit.n_wires  # the buffer row past the labels, which stays 0
        outputs = np.asarray(circuit.outputs, dtype=np.int64)
        read = np.zeros(circuit.n_wires, dtype=bool)  # read by a gate or named as an output
        read[gates[:, 1:3]] = read[outputs] = True
        self.inputs, lo = {}, 0  # bundle -> (its wires, whether it is read)
        for name, wires in circuit.inputs.items():
            self.inputs[name] = (slice(lo, lo + len(wires)), bool(read[wires].any()))
            lo += len(wires)
        self.outputs = outputs.astype(np.intp)

        is_and = gates[:, 0] == AND
        a, b = gates[:, 1], gates[:, 2]
        m = bounds[2::2] - bounds[1::2]  # AND gates a level
        j0 = np.cumsum(m) - m  # a level's first AND
        # the narrowest type for wires and flat positions, which numpy's
        # take converts as cheaply as its own index type
        itype = np.min_scalar_type(2 * zero + 1)
        # the four parts of each AND input row, a level's a inputs, then
        # its b inputs, from row 2 j0 on; each level takes its rows' block
        self.n_and = n = int(m.sum())
        m_of, j0_of = np.repeat(m, m), np.repeat(j0, m)
        a_rows = j0_of + np.arange(n)  # 2 j0 + the gate's place in its level
        b_rows = a_rows + m_of
        y, za = np.empty(2 * n, dtype=np.int64), np.full(2 * n, 2 * zero)
        y[a_rows], y[b_rows] = 2 * a[is_and], 2 * b[is_and]
        za[b_rows] = 2 * a[is_and]
        parts = np.empty((4, 2 * n, 2), dtype=itype)
        parts[0, :, 0] = parts[0, :, 1] = parts[2, :, 0] = y + 1
        parts[1, :, 0] = parts[1, :, 1] = y
        parts[2, :, 1] = 2 * zero
        parts[3, :, 0], parts[3, :, 1] = za, za + 1
        rtype = np.min_scalar_type(2 * n)
        self.a_rows, self.b_rows = a_rows.astype(rtype), b_rows.astype(rtype)
        self.widest = int(m.max(initial=0))  # the most ANDs in a level

        self.steps = []
        for lv, (am, aj) in enumerate(zip(m.tolist(), j0.tolist())):
            x_lo, a_lo, end = bounds[2 * lv : 2 * lv + 3].tolist()
            xor_in = None  # the XOR block (2, k): the a wires, then the b wires
            if a_lo > x_lo:
                xor_in = np.empty((2, a_lo - x_lo), dtype=itype)
                xor_in[0], xor_in[1] = a[x_lo:a_lo], b[x_lo:a_lo]
            self.steps.append((
                xor_in,
                slice(n_in + x_lo, n_in + a_lo),
                np.ascontiguousarray(parts[:, 2 * aj : 2 * (aj + am)]) if am else None,
                slice(n_in + a_lo, n_in + end),
                am,
                2 * aj,
                2 * (aj + am),
            ))
        arrays = [self.outputs, self.a_rows, self.b_rows]
        arrays += [x for step in self.steps for x in step if isinstance(x, np.ndarray)]
        for arr in arrays:
            arr.setflags(write=False)

    def tweaks(self) -> np.ndarray:
        """Each AND input row's hash tweak, the block (its row, 0), as
        (2 n_and, 2) HALVES; made per call, which costs little next to a
        garbling."""
        tweak = np.zeros((2 * self.n_and, 2), dtype=HALVES)
        tweak[:, 0] = np.arange(2 * self.n_and)
        return tweak

    def reads(self, bundle: str) -> bool:
        """Whether any gate reads, or any output names, a wire of bundle."""
        return self.inputs[bundle][1]

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
    """The garbler's output: the half-gates rows of the AND gates, level by
    level, T_G of a level's ANDs then their T_E, plus the decode bits for
    the circuit's output wires."""

    def __init__(self, tables: np.ndarray, dec: np.ndarray):
        self.tables = tables  # (2 n_ands, 16) uint8
        self.dec = dec  # (n_outputs,) uint8

    @property
    def and_count(self) -> int:
        return len(self.tables) // 2

    def to_bytes(self) -> bytes:
        return (
            struct.pack(">4sII", _MAGIC, self.and_count, len(self.dec))
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
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8, offset=off))
        if bits[n_out:].any():
            raise GarbleError("garbled-circuit blob has set padding bits")
        tables = np.frombuffer(data, dtype=np.uint8, count=_TABLE_BYTES * n_ands, offset=12)
        return cls(tables.reshape(2 * n_ands, 16).copy(), bits[:n_out].copy())


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

    buf = np.empty((circuit.n_wires + 1, 2), dtype=HALVES)
    buf[-1] = 0
    for name, (wires, _) in sched.inputs.items():
        buf[wires] = label_map[name].view(HALVES)
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
    # the a and the b input rows, gate by gate; the zero-labels A, from
    # S = σ(A ^ pa delta) ^ i
    a, b = sched.a_rows, sched.b_rows
    zero_a = _unsigma(s_all[a] ^ tweak[a]) ^ (p_all[a] & d)
    # the other label of each AND input, hashed at once; then the tables
    s_all ^= sigma_d
    rows = hash_.pi(s_all) ^ s_all  # H(X ^ delta) ^ i
    rows ^= h_all[:-1]
    rows ^= tweak  # H(X) ^ H(X ^ delta)
    rows[a] ^= p_all[b] & d
    rows[b] ^= zero_a  # the tables, T_G at a rows and T_E at b rows
    dec = buf[sched.outputs].view(np.uint8)[:, 15] & 1
    return GarbledCircuit(rows.view(np.uint8), dec), label_map, delta


def select_labels(zero_labels: np.ndarray, delta: np.ndarray, bits) -> np.ndarray:
    """The labels (n, 16) that encode the bit vector bits (n,)."""
    bits = np.asarray(bits, dtype=np.uint8)
    return zero_labels ^ (bits[:, None] * delta)


def evaluate(circuit: Circuit, gc: GarbledCircuit, input_labels: dict) -> np.ndarray:
    """Evaluate garbled gates over one set of input labels.

    input_labels maps bundle name -> (n_bits, 16) uint8; a bundle whose
    wires no gate reads and no output names may be left out. Returns the
    output labels as (n_outputs, 16). The evaluator sees exactly one label
    per wire and holds one row per wire; it reads the tables in place, and
    its hash scratch is sized to the widest AND level, not the circuit.
    """
    sched = level_schedule(circuit)
    if gc.tables.shape != (2 * sched.n_and, 16):
        raise GarbleError(f"circuit has {sched.n_and} AND gates, tables hold {len(gc.tables)} rows")
    if len(gc.dec) != len(circuit.outputs):
        raise GarbleError(f"circuit has {len(circuit.outputs)} outputs, {len(gc.dec)} decode bits")
    buf = np.empty((circuit.n_wires + 1, 2), dtype=HALVES)
    buf[-1] = 0
    for name, (wires, read) in sched.inputs.items():
        arr = input_labels.get(name)
        if arr is None and not read:
            continue
        if arr is None or arr.shape != (len(circuit.inputs[name]), 16):
            raise GarbleError(f"bundle {name!r} expects {len(circuit.inputs[name])} labels")
        buf[wires] = np.ascontiguousarray(arr, dtype=np.uint8).view(HALVES)

    # [T_G; T_E] of each AND group, read in place against its rows [a
    # inputs; b inputs]
    rows = np.ascontiguousarray(gc.tables).view(HALVES)
    tweak = sched.tweaks()
    hash_ = FixedKeyHash(_HASH_KEY)
    # one AND group's hash inputs and outputs, a spare block for the AES call
    s_level = np.empty((2 * sched.widest, 2), dtype=HALVES)
    h_level = np.empty((2 * sched.widest + 1, 2), dtype=HALVES)
    s_bytes, h_bytes = _bytes(s_level), _bytes(h_level)

    def and_step(g, out, m, lo, hi):
        sigma = g[1] ^ g[2]
        np.bitwise_xor(sigma, tweak[lo:hi], out=s_level[: 2 * m])
        hash_.pi_into(s_bytes[: 32 * m], h_bytes)
        h = h_level[: 2 * m]
        h ^= sigma  # H(Wa), H(Wb)
        t = rows[lo:hi] ^ g[3]  # T_G, T_E ^ Wa
        t &= (g[0] << _UP) >> _DOWN
        h ^= t
        buf[out] = h[:m] ^ h[m:]

    sched.run(buf, and_step)
    return buf[sched.outputs].view(np.uint8)


def decode(gc: GarbledCircuit, output_labels: np.ndarray) -> np.ndarray:
    """Map output labels (n_outputs, 16) to plaintext bits via the decode
    table."""
    return (output_labels[:, 15] & 1) ^ gc.dec
