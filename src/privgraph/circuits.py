"""Boolean circuits for the sorting protocols: a gate-level builder, the
modular adder used for additive-to-Yao conversion, the unsigned
comparator, Batcher's comparator networks, and a vectorised plaintext
simulator that serves as the oracle for garbled evaluation.

A sort compares scores of a public width w, 1..SCORE_BITS bits
(scoring.score_width): its adders add the low w bits of the two shares,
mod 2^w, and its comparators compare w bits, so a sort's levels and ANDs
per comparator and adder grow with w, not with the share modulus.

A network is a schedule of comparators over its lines, a function of
public counts alone, with no padding line: merge exchange (Knuth, TAOCP
Vol. 3, §5.2.2, Algorithm M) sorts k lines for any k, and the odd-even
merge (Batcher, "Sorting networks and their applications", 1968) merges
two sorted runs of any lengths. The builder groups a schedule into
layers, each comparator in the first layer after the last one on either
of its lines, and stamps a layer's copies from small templates at once
(CircuitBuilder.stamp): the comparator, and for the local sort's first
layer two share adders with their comparator, so building one costs
numpy work per layer, not Python work per gate.

XOR is free under the garbling scheme; each AND gate costs a 32-byte
half-gates table, and garbling and evaluation take one vectorised step
per level and op. A level runs its XORs, then its ANDs, so an AND may
share a level with an input made by an XOR. Both carry chains, the
adder's and the comparator's, are written so that each bit's AND inputs
are one XOR away from the previous bit's AND: one level per bit. Within a
template each gate takes its own level, so in the local sort's first
layer the comparator's carry chain runs in lockstep with the adders', a
few levels behind, instead of waiting for their last sum bit (28 levels
fewer in every sort of k >= 2).

A built circuit has one order, the one both parties work in: its gates
by level, a level's XORs before its ANDs, and its wires the inputs, then
each gate's output in that order, so a wire's id is the row of its label
in garbling. It holds only the gates that some output reads:
CircuitBuilder.build drops every other gate, so it is neither garbled,
sent nor evaluated. The merge outputs payloads only, so its last layer
keeps no score swap; a sort that keeps its first t outputs keeps only
their cone. The walk back goes a stage at a time, not a gate at a time,
and is skipped when every gate's output is read.
"""

from __future__ import annotations

import weakref
from array import array
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np


__all__ = [
    "MAX_SORT_K",
    "Circuit",
    "CircuitBuilder",
    "SortCircuit",
    "merge_exchange",
    "odd_even_merge",
    "check_sort_size",
    "build_sort_circuit",
    "simulate",
    "int_to_bits",
    "bits_to_int",
]

MAX_SORT_K = 1024

XOR, AND = 0, 1


@dataclass(eq=False)
class Circuit:
    n_wires: int
    gates: np.ndarray  # read-only int32 rows (op, a, b, out)
    inputs: dict  # bundle name -> list of wire ids
    outputs: list  # output wire ids in decode order
    levels: np.ndarray  # read-only int32 level of each gate (see CircuitBuilder)

    @property
    def and_count(self) -> int:
        return int(np.count_nonzero(self.gates[:, 0] == AND))

    def iter_gates(self):
        """Yield (op, a, b, out) in gate order, a block of rows at a time."""
        for start in range(0, len(self.gates), 4096):
            yield from self.gates[start : start + 4096].tolist()


def _stage_after(op: int, stage: int) -> int:
    """The first stage of op after stage: a gate's stage is 2 * (level - 1)
    + op, so a level runs its XORs, then its ANDs, and an AND shares a
    level with an XOR input. Circuit inputs are at stage -1, before level
    1."""
    return stage + 1 + (op - stage - 1) % 2


class CircuitBuilder:
    """Builds a circuit gate by gate, or a block of copies of a small
    template circuit at once (stamp). Each gate gets the first level at
    which its op runs after its inputs (_stage_after); garbling and
    evaluation run a level at a time, so gates that share a level share
    their vectorised steps."""

    def __init__(self):
        self._gates = array("i")  # flat (op, a, b, out) quadruples
        self._stage = array("i")  # each wire's stage: -1 for an input
        self.inputs: dict[str, list[int]] = {}
        self.outputs: list[int] = []

    def input_bundle(self, name: str, n_bits: int) -> list[int]:
        if name in self.inputs:
            raise ValueError(f"duplicate input bundle {name!r}")
        wires = list(range(len(self._stage), len(self._stage) + n_bits))
        self._stage.extend([-1] * n_bits)
        self.inputs[name] = wires
        return wires

    def _gate(self, op: int, a: int, b: int) -> int:
        self._stage.append(_stage_after(op, max(self._stage[a], self._stage[b])))
        out = len(self._stage) - 1
        self._gates.extend((op, a, b, out))
        return out

    def xor(self, a: int, b: int) -> int:
        return self._gate(XOR, a, b)

    def and_(self, a: int, b: int) -> int:
        return self._gate(AND, a, b)

    def stamp(self, template: Circuit, wires) -> np.ndarray:
        """One copy of template per row of wires, the row feeding its
        inputs in order. A copy's gates are placed as if every input came
        at the stage of its latest one, so copies whose inputs end at one
        stage share levels. Returns the copies' output wires, a row a copy,
        in template order."""
        wires = np.asarray(wires, dtype=np.int64)
        if wires.ndim != 2 or wires.shape[1] != template.n_wires - len(template.gates):
            raise ValueError("each row must feed every template input")
        # the stages of a template whose inputs come at level l and phase p
        # are those of inputs at level 0 and phase p, 2 * l later
        latest = np.frombuffer(self._stage, dtype=np.int32)[wires].max(axis=1, initial=-1)
        level, phase = np.divmod(latest + 2, 2)
        stages = _template_stages(template)[phase] + 2 * level[:, None]
        own = len(self._stage) + np.arange(len(wires) * len(template.gates))
        wire_of = np.concatenate([wires, own.reshape(len(wires), -1)], axis=1)
        op, a, b, out = template.gates.T.astype(np.int64)
        rows = np.stack(np.broadcast_arrays(op, wire_of[:, a], wire_of[:, b], wire_of[:, out]), axis=2)
        self._gates.frombytes(rows.astype(np.int32).tobytes())
        self._stage.frombytes(stages.astype(np.int32).tobytes())
        return wire_of[:, template.outputs]

    def add_mod(self, a_bits: list[int], b_bits: list[int]) -> list[int]:
        """Ripple-carry addition, dropping the final carry (mod 2^width).
        Carry recurrence c' = maj(a, b, c) = a XOR ((a XOR b) AND (a XOR c)),
        from c = 0: one AND per bit except the last. With c = a' XOR d, d
        the previous bit's AND and a' its a bit, the AND inputs are a XOR b
        and (a XOR a') XOR d, one XOR from the previous AND."""
        if len(a_bits) != len(b_bits):
            raise ValueError("adder width mismatch")
        out = [self.xor(a_bits[0], b_bits[0])]
        d = self.and_(out[0], a_bits[0])
        for i in range(1, len(a_bits)):
            a_x_b = self.xor(a_bits[i], b_bits[i])
            out.append(self.xor(self.xor(a_x_b, a_bits[i - 1]), d))
            if i < len(a_bits) - 1:
                d = self.and_(a_x_b, self.xor(self.xor(a_bits[i], a_bits[i - 1]), d))
        return out

    def less_than(self, a_bits: list[int], b_bits: list[int]) -> int:
        """Unsigned a < b, as c = [b > a] over ever more low bits: c' =
        b XOR ((b XOR c) AND (a XOR c)) is b where the bits differ and c
        where they agree. One AND per bit: with c = b' XOR d, d
        the previous bit's AND and b' its b bit, the AND inputs are
        (b XOR b') XOR d and (a XOR b') XOR d, one XOR from the previous
        AND."""
        if len(a_bits) != len(b_bits):
            raise ValueError("comparator width mismatch")
        d = self.and_(b_bits[0], a_bits[0])  # c = 0 into bit 0
        for i in range(1, len(a_bits)):
            b_x_c = self.xor(self.xor(b_bits[i], b_bits[i - 1]), d)
            a_x_c = self.xor(self.xor(a_bits[i], b_bits[i - 1]), d)
            d = self.and_(b_x_c, a_x_c)
        return self.xor(b_bits[-1], d)

    def cond_swap(self, s: int, a_bits: list[int], b_bits: list[int]):
        """If s then exchange the two bit vectors. One AND per bit."""
        hi, lo = [], []
        for a, b in zip(a_bits, b_bits):
            d = self.and_(s, self.xor(a, b))
            hi.append(self.xor(a, d))
            lo.append(self.xor(b, d))
        return hi, lo

    def network(self, elems: list, schedule, width: int, first=None) -> list:
        """A comparator network over elements, each a row of wires: width
        score bits, then payload bits that move with the score.
        Each comparator (hi, lo) of the schedule sends the element with the
        larger score to line hi; a tie stays put. Each comparator goes in
        the first layer after the last one on either of its lines, and a
        layer's are stamped at once, each above the latest wire of its two
        elements, not gate by gate. With first, a pair of templates
        (make, make_and_compare), elems are rows of wires that make turns
        into elements: the first layer stamps make_and_compare over each
        comparator's two rows, so that the comparator runs in lockstep
        with the making of its elements, and make alone over each row that
        no comparator of the layer takes. Returns the elements by line."""
        elems, depth, layers = list(elems), [0] * len(elems), []
        for hi, lo in schedule:  # in the first layer after its lines' last
            d = depth[hi] = depth[lo] = max(depth[hi], depth[lo]) + 1
            if d > len(layers):
                layers.append([])
            layers[d - 1].append((hi, lo))
        if first is not None:
            make, make_and_compare = first
            pairs = layers.pop(0) if layers else []
            paired = {line for pair in pairs for line in pair}
            alone = [(line,) for line in range(len(elems)) if line not in paired]
            self._stamp_lines(elems, alone, make)
            self._stamp_lines(elems, pairs, make_and_compare)
        for pairs in layers:
            self._stamp_lines(elems, pairs, _comparator(width, len(elems[pairs[0][0]])))
        return elems

    def _stamp_lines(self, elems: list, groups: list, template: Circuit) -> None:
        """One copy of template per group of lines, fed the wires of its
        lines in order; its outputs, split evenly, become those lines."""
        if groups:
            rows = [np.concatenate([elems[line] for line in group]) for group in groups]
            width = len(template.outputs) // len(groups[0])
            for group, out in zip(groups, self.stamp(template, rows)):
                for i, line in enumerate(group):
                    elems[line] = out[i * width : (i + 1) * width]

    def mark_outputs(self, wires: list[int]) -> None:
        self.outputs.extend(wires)

    def build(self) -> Circuit:
        """The circuit of the gates that some output reads (_live), in the
        one order that garbling and evaluation follow: stably sorted by
        stage, so by level, a level's XORs before its ANDs, ties in the
        order they were made. Its wires are numbered as garbling lays out
        their labels: the inputs first, bundle by bundle, then each gate's
        output in gate order, so gate i writes wire n_in + i. Levels left
        with no gate are closed up."""
        gates = np.array(self._gates, dtype=np.int32).reshape(-1, 4)
        stage = np.frombuffer(self._stage, dtype=np.int32)
        # the wires past stage -1 are the gates', in the order made; the
        # narrowest type, where numpy's stable sort is a radix sort
        stages = stage[stage >= 0].astype(np.min_scalar_type(int(stage.max(initial=0))))
        order = np.argsort(stages, kind="stable")
        gates, stages = gates.take(order, axis=0), stages[order]
        live = _live(gates, stages, len(stage), self.outputs)
        if live is not None:
            gates, stages = gates[live], stages[live]
        inputs = [w for ws in self.inputs.values() for w in ws]
        n_in = len(inputs)
        wire = np.empty(len(stage), dtype=np.int32)  # old wire -> new wire
        wire[inputs] = np.arange(n_in)
        wire[gates[:, 3]] = np.arange(n_in, n_in + len(gates))
        gates[:, 1:] = wire.take(gates[:, 1:])
        counts = np.bincount(stages // 2)  # gates a level, numbered from 0
        levels = np.repeat(np.arange(1, np.count_nonzero(counts) + 1, dtype=np.int32),
                           counts[counts > 0])
        for arr in (gates, levels):
            arr.setflags(write=False)
        return Circuit(
            n_in + len(gates),
            gates,
            {name: wire[ws].tolist() for name, ws in self.inputs.items()},
            wire[np.asarray(self.outputs, dtype=np.int64)].tolist(),
            levels,
        )


def _live(gates: np.ndarray, stages: np.ndarray, n_wires: int, outputs):
    """Which gates, sorted by stage, lie in some output's cone, as a
    boolean mask, or None when all do: when every gate's wire is read or
    named, no gate is dead. Otherwise the walk goes back one stage at a
    time, from the last: no gate reads its own stage, so a stage's gates
    are live exactly when a live gate reads or an output names their
    wires."""
    outputs = np.asarray(outputs, dtype=np.int64)
    needed = np.zeros(n_wires, dtype=bool)
    needed[gates[:, 1]] = needed[gates[:, 2]] = needed[outputs] = True
    if needed[gates[:, 3]].all():
        return None
    ends = np.cumsum(np.bincount(stages)).tolist()
    needed[:] = False
    needed[outputs] = True
    live = np.empty(len(gates), dtype=bool)
    for lo, hi in zip(([0] + ends)[-2::-1], ends[::-1]):
        on = live[lo:hi] = needed[gates[lo:hi, 3]]
        needed[gates[lo:hi, 1:3][on]] = True
    return live


def _template(n_inputs: int, body) -> Circuit:
    """A small circuit, body(builder, input wires) -> output wires, over
    one bundle of n_inputs wires: a template for CircuitBuilder.stamp."""
    b = CircuitBuilder()
    b.mark_outputs(body(b, b.input_bundle("in", n_inputs)))
    return b.build()


_phase_stages: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _template_stages(template: Circuit) -> np.ndarray:
    """Row p: the stage of each template gate when every input comes at
    level 0 and phase p, replayed gate by gate once per template (a racing
    miss stores an equal array)."""
    stages = _phase_stages.get(template)
    if stages is None:
        n_in = template.n_wires - len(template.gates)
        stages = np.empty((2, len(template.gates)), dtype=np.int64)
        for p in range(2):
            stage = [p - 2] * template.n_wires
            for op, a, b, out in template.iter_gates():
                stage[out] = _stage_after(op, max(stage[a], stage[b]))
            stages[p] = stage[n_in:]
        _phase_stages[template] = stages
    return stages


_templates: dict = {}  # by (kind, widths); a racing miss stores an equal one


def _exchange(b: CircuitBuilder, hi: list, lo: list, width: int) -> list:
    """Two elements, a width-bit score first; the one with the larger
    score out first. Ties keep their order."""
    hi, lo = b.cond_swap(b.less_than(hi[:width], lo[:width]), hi, lo)
    return hi + lo


def _comparator(width: int, n: int) -> Circuit:
    """Two elements of n bits in, a width-bit score first, exchanged
    (_exchange)."""
    key = ("comparator", width, n)
    if key not in _templates:
        _templates[key] = _template(2 * n, lambda b, x: _exchange(b, x[:n], x[n:], width))
    return _templates[key]


def _entry(b: CircuitBuilder, row: list, width: int) -> list:
    """A local-sort element from its row (garbler share, evaluator share,
    payload), each share its low width bits: the score is their sum mod
    2^width, the true score when that is below 2^width."""
    return b.add_mod(row[:width], row[width : 2 * width]) + row[2 * width :]


def _entry_templates(width: int, payload_width: int) -> tuple[Circuit, Circuit]:
    """The local sort's first-layer templates (CircuitBuilder.network):
    one entry made from its row, and two made and exchanged at once."""
    key = ("entries", width, payload_width)
    if key not in _templates:
        n = 2 * width + payload_width
        _templates[key] = (
            _template(n, lambda b, x: _entry(b, x, width)),
            _template(2 * n, lambda b, x: _exchange(
                b, _entry(b, x[:n], width), _entry(b, x[n:], width), width)),
        )
    return _templates[key]


def merge_exchange(k: int) -> list[tuple[int, int]]:
    """The comparators (hi, lo) of Batcher's merge exchange (Knuth, TAOCP
    Vol. 3, §5.2.2, Algorithm M), which sorts lines 0..k-1 descending for
    any k: each sends the larger element to line hi < lo. For k = 2^m
    there are (m^2 - m + 4)·2^(m-2) - 1. Depends only on k, never on
    data."""
    t, schedule = (k - 1).bit_length(), []
    for p in (1 << i for i in reversed(range(t))):
        # d = p, then d = q - p for q = 2^(t-1), ..., 2p
        for d, r in [(p, 0)] + [((1 << j) - p, p) for j in reversed(range(p.bit_length(), t))]:
            schedule += [(i, i + d) for i in range(k - d) if i & p == r]
    return schedule


def odd_even_merge(a: int, b: int) -> tuple[list[tuple[int, int]], list[int]]:
    """Batcher's odd-even merge of two descending runs of any lengths, on
    lines 0..a-1 and a..a+b-1: its comparators (hi, lo), each sending the
    larger element to line hi, and the lines in descending order after
    them. The runs' entries at even places merge into v and those at odd
    places into w; then v0, w0, v1, w1, ... is sorted but for one
    comparator between each w_i and v_(i+1). Depends only on a and b,
    never on data."""

    def merge(x: list, y: list):
        if not x or not y:
            return [], x + y
        if len(x) == len(y) == 1:
            return [(x[0], y[0])], x + y
        evens, v = merge(x[::2], y[::2])
        odds, w = merge(x[1::2], y[1::2])
        lines = [line for pair in zip_longest(v, w) for line in pair if line is not None]
        return evens + odds + list(zip(lines[1::2], lines[2::2])), lines

    return merge(list(range(a)), list(range(a, a + b)))


@dataclass
class SortCircuit:
    """A sort's circuit with the shape it was looked up for. For the local
    sort (build_sort_circuit): per-element score reconstruction from two
    additive-share bundles, then a descending merge-exchange sort carrying
    payload bits; outputs are the first t of its k entries."""

    circuit: Circuit
    k: int  # entries in
    t: int  # entries out, the first t in descending order
    payload_width: int
    width: int  # score bits compared

    @property
    def and_count(self) -> int:
        return self.circuit.and_count

    def decode_outputs(self, bits: np.ndarray):
        """Split a decoded output bit row into (masked scores, payloads)."""
        n = self.width + self.payload_width
        scores, payloads = [], []
        for e in range(self.t):
            chunk = bits[e * n : (e + 1) * n]
            scores.append(bits_to_int(chunk[: self.width]))
            payloads.append(bits_to_int(chunk[self.width :]))
        return scores, payloads


def check_sort_size(k: int) -> None:
    """Rejects a sort of k entries outside 1..MAX_SORT_K."""
    if not 1 <= k <= MAX_SORT_K:
        raise ValueError(f"sort length {k} is outside 1..{MAX_SORT_K}; truncate the inputs")


def build_sort_circuit(k: int, t: int | None = None, *, width: int) -> SortCircuit:
    """The local sort of k entries, whose payloads are their indices, by
    scores below 2^width (at most crypto.SCORE_BITS), keeping its first min(k, t)
    outputs (all k without t); the gates that only the others read are
    not built (CircuitBuilder.build)."""
    check_sort_size(k)
    pw = k.bit_length()
    t = k if t is None else min(k, t)
    if t < 1:
        raise ValueError("a sort keeps at least one output")
    b = CircuitBuilder()
    g_shares = np.reshape(b.input_bundle("garbler_shares", k * width), (k, -1))
    e_shares = np.reshape(b.input_bundle("evaluator_shares", k * width), (k, -1))
    payloads = np.reshape(b.input_bundle("payloads", k * pw), (k, -1))
    rows = list(np.concatenate([g_shares, e_shares, payloads], axis=1))
    for elem in b.network(rows, merge_exchange(k), width, first=_entry_templates(width, pw))[:t]:
        b.mark_outputs(elem.tolist())
    return SortCircuit(b.build(), k, t, pw, width)


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
        else:
            wires[out] = wires[a] & wires[bb]
    return np.stack([wires[w] for w in circuit.outputs], axis=1)
