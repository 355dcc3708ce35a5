"""Boolean circuits for the sorting protocols: a gate-level builder, the
31-bit modular adder used for additive-to-Yao conversion, the unsigned
comparator, the data-oblivious bitonic network (the full sorter, or only
its final merge stage, Batcher's bitonic merge, for inputs that are
already bitonic), and a vectorised plaintext simulator that serves as the
oracle for garbled evaluation.

Gate list is topologically ordered by construction. XOR and INV are free
under the garbling scheme; only AND gates cost garbled-table rows.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SCORE_BITS",
    "MAX_SORT_K",
    "Circuit",
    "CircuitBuilder",
    "SortCircuit",
    "bitonic_schedule",
    "comparator_count",
    "padded_size",
    "build_sort_circuit",
    "simulate",
    "int_to_bits",
    "bits_to_int",
]

SCORE_BITS = 31
MAX_SORT_K = 1024

XOR, AND, INV = 0, 1, 2


@dataclass(eq=False)
class Circuit:
    n_wires: int
    gates: np.ndarray  # read-only int32 rows (op, a, b, out); b == -1 for INV
    inputs: dict  # bundle name -> list of wire ids
    outputs: list  # output wire ids in decode order

    @property
    def and_count(self) -> int:
        return int(np.count_nonzero(self.gates[:, 0] == AND))

    def iter_gates(self):
        """Yield (op, a, b, out) in gate order, a block of rows at a time."""
        for start in range(0, len(self.gates), 4096):
            yield from self.gates[start : start + 4096].tolist()


class CircuitBuilder:
    def __init__(self):
        self._n = 0
        self._gates = array("i")  # flat (op, a, b, out) quadruples
        self.inputs: dict[str, list[int]] = {}
        self.outputs: list[int] = []

    def _wire(self) -> int:
        w = self._n
        self._n += 1
        return w

    def input_bundle(self, name: str, n_bits: int) -> list[int]:
        if name in self.inputs:
            raise ValueError(f"duplicate input bundle {name!r}")
        wires = [self._wire() for _ in range(n_bits)]
        self.inputs[name] = wires
        return wires

    def xor(self, a: int, b: int) -> int:
        out = self._wire()
        self._gates.extend((XOR, a, b, out))
        return out

    def and_(self, a: int, b: int) -> int:
        out = self._wire()
        self._gates.extend((AND, a, b, out))
        return out

    def inv(self, a: int) -> int:
        out = self._wire()
        self._gates.extend((INV, a, -1, out))
        return out

    def add_mod(self, a_bits: list[int], b_bits: list[int]) -> list[int]:
        """Ripple-carry addition, dropping the final carry (mod 2^width).
        Carry recurrence c' = c XOR ((a XOR c) AND (b XOR c)): one AND per
        bit except the last."""
        if len(a_bits) != len(b_bits):
            raise ValueError("adder width mismatch")
        width = len(a_bits)
        out = [self.xor(a_bits[0], b_bits[0])]
        carry = self.and_(a_bits[0], b_bits[0])
        for i in range(1, width):
            out.append(self.xor(self.xor(a_bits[i], b_bits[i]), carry))
            if i < width - 1:
                carry = self.xor(
                    carry,
                    self.and_(
                        self.xor(a_bits[i], carry), self.xor(b_bits[i], carry)
                    ),
                )
        return out

    def less_than(self, a_bits: list[int], b_bits: list[int]) -> int:
        """Unsigned a < b: the complement of the carry out of a + ~b + 1.
        One AND per bit."""
        if len(a_bits) != len(b_bits):
            raise ValueError("comparator width mismatch")
        # carry into bit 1 with c0 = 1: maj(a0, ~b0, 1) = a0 OR ~b0
        carry = self.inv(self.and_(self.inv(a_bits[0]), b_bits[0]))
        for i in range(1, len(a_bits)):
            # maj(a_i, ~b_i, c) = c XOR ((a_i XOR c) AND (~b_i XOR c))
            nb_x_c = self.inv(self.xor(b_bits[i], carry))
            carry = self.xor(carry, self.and_(self.xor(a_bits[i], carry), nb_x_c))
        return self.inv(carry)

    def cond_swap(self, s: int, a_bits: list[int], b_bits: list[int]):
        """If s then exchange the two bit vectors. One AND per bit."""
        hi, lo = [], []
        for a, b in zip(a_bits, b_bits):
            d = self.and_(s, self.xor(a, b))
            hi.append(self.xor(a, d))
            lo.append(self.xor(b, d))
        return hi, lo

    def bitonic_sort(self, elems: list[tuple[list[int], list[int]]], merge: bool = False):
        """Descending bitonic sorting network over (score bits, payload
        bits) elements; each payload moves with its score. With merge, the
        elements must already form a bitonic sequence (say one descending
        run, then an ascending one), and only the final merge stage is
        built. Returns the elements in network output order."""
        elems = list(elems)
        for i, l, descending_here in bitonic_schedule(len(elems), merge):
            si, pi = elems[i]
            sl, pl = elems[l]
            # the larger score moves to i where the flag says descending
            swap = self.less_than(si, sl) if descending_here else self.less_than(sl, si)
            new_i, new_l = self.cond_swap(swap, si + pi, sl + pl)
            elems[i] = (new_i[: len(si)], new_i[len(si) :])
            elems[l] = (new_l[: len(sl)], new_l[len(sl) :])
        return elems

    def mark_outputs(self, wires: list[int]) -> None:
        self.outputs.extend(wires)

    def build(self) -> Circuit:
        gates = np.array(self._gates, dtype=np.int32).reshape(-1, 4)
        gates.setflags(write=False)
        return Circuit(self._n, gates, self.inputs, self.outputs)


def bitonic_schedule(n: int, merge: bool = False) -> list[tuple[int, int, bool]]:
    """Comparator schedule (i, l, descending_at_i) of the bitonic sorter
    for n = 2^m elements, or with merge of its last stage only: the m
    half-cleaner layers of n/2 comparators that sort a bitonic sequence.
    Depends only on n, never on data."""
    if n & (n - 1) or n < 1:
        raise ValueError("bitonic network needs a power-of-two size")
    schedule = []
    k = n if merge else 2
    while k <= n:
        j = k // 2
        while j > 0:
            for i in range(n):
                l = i ^ j
                if l > i:
                    # invert the classic direction flag for a descending sort
                    schedule.append((i, l, (i & k) == 0))
            j //= 2
        k *= 2
    return schedule


def comparator_count(n: int) -> int:
    m = n.bit_length() - 1
    return n * m * (m + 1) // 4


@dataclass
class SortCircuit:
    """A sort's circuit with the sizes it was looked up for. For the local
    sort (build_sort_circuit): per-element score reconstruction from two
    additive-share bundles, bitonic descending sort carrying payload bits,
    keyed on (score, validity bit) so the k real entries are outputs 0..k-1."""

    circuit: Circuit
    k: int  # requested (real) length
    n: int  # input slots: the padded power-of-two length of a local sort
    payload_width: int

    @property
    def and_count(self) -> int:
        return self.circuit.and_count

    def decode_outputs(self, bits: np.ndarray):
        """Split a decoded output bit row into (masked scores, payloads)."""
        width = SCORE_BITS + self.payload_width
        scores, payloads = [], []
        for e in range(self.n):
            chunk = bits[e * width : (e + 1) * width]
            scores.append(bits_to_int(chunk[:SCORE_BITS]))
            payloads.append(bits_to_int(chunk[SCORE_BITS:]))
        return scores, payloads


def padded_size(k: int) -> int:
    """The sorting network's width for k inputs: the next power of two.
    Rejects k outside 1..MAX_SORT_K."""
    if k < 1:
        raise ValueError("sort length must be >= 1")
    if k > MAX_SORT_K:
        raise ValueError(
            f"sort length {k} exceeds the max {MAX_SORT_K}; truncate the "
            "inputs before sorting"
        )
    return 1 << (k - 1).bit_length()


def build_sort_circuit(k: int, payload_width: int) -> SortCircuit:
    n = padded_size(k)
    b = CircuitBuilder()
    g_shares = b.input_bundle("garbler_shares", n * SCORE_BITS)
    e_shares = b.input_bundle("evaluator_shares", n * SCORE_BITS)
    valid = b.input_bundle("valid", n)
    payloads = b.input_bundle("payloads", n * payload_width)
    elems = []
    for e in range(n):
        score = b.add_mod(
            g_shares[e * SCORE_BITS : (e + 1) * SCORE_BITS],
            e_shares[e * SCORE_BITS : (e + 1) * SCORE_BITS],
        )
        payload = payloads[e * payload_width : (e + 1) * payload_width]
        elems.append(([valid[e]] + score, payload))
    for key, payload in b.bitonic_sort(elems):
        b.mark_outputs(key[1:] + payload)
    return SortCircuit(b.build(), k, n, payload_width)


def int_to_bits(value: int, n_bits: int) -> list[int]:
    return [(value >> i) & 1 for i in range(n_bits)]


def bits_to_int(bits) -> int:
    return sum(int(b) << i for i, b in enumerate(bits))


def simulate(circuit: Circuit, inputs: dict[str, np.ndarray]) -> np.ndarray:
    """Plaintext evaluation over a batch: inputs are boolean arrays of
    shape (batch, n_bits) per bundle; returns (batch, n_outputs)."""
    batches = {a.shape[0] for a in inputs.values()}
    if len(batches) != 1:
        raise ValueError("all input bundles need the same batch size")
    (batch,) = batches
    wires: list = [None] * circuit.n_wires
    for name, wire_ids in circuit.inputs.items():
        arr = np.asarray(inputs[name], dtype=bool)
        if arr.shape[1] != len(wire_ids):
            raise ValueError(f"bundle {name!r} expects {len(wire_ids)} bits")
        for j, w in enumerate(wire_ids):
            wires[w] = arr[:, j]
    for op, a, bb, out in circuit.iter_gates():
        if op == XOR:
            wires[out] = wires[a] ^ wires[bb]
        elif op == AND:
            wires[out] = wires[a] & wires[bb]
        else:
            wires[out] = ~wires[a]
    return np.stack([wires[w] for w in circuit.outputs], axis=1)
