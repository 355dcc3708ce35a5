import hashlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from privgraph.circuits import (
    CircuitBuilder,
    build_sort_circuit,
    int_to_bits,
    simulate,
)
from privgraph.crypto import SCORE_BITS
from privgraph.garble import (
    GarbledCircuit,
    GarbleError,
    decode,
    evaluate,
    garble,
    level_schedule,
    select_labels,
)
from privgraph.sorting import _sort_circuit, build_merge_circuit
from conftest import bit_rows, evaluate_rows, scalar_hash, xor

GARBLE_KEY = b"privgraph-gc-key"


def garbled_run(circuit, inputs):
    """Garble, then select labels for each row of the given plaintext bits,
    evaluate and decode."""
    gc, label_map, delta = garble(circuit)
    return evaluate_rows(circuit, gc, label_map, delta, inputs)


def random_circuit(seed):
    """300 random gates over two bundles, with irregular liveness: unused
    wires, inputs as outputs, repeated outputs, gates reading one wire
    twice."""
    rng = np.random.default_rng(seed)
    b = CircuitBuilder()
    wires = b.input_bundle("x", 6) + b.input_bundle("y", 3)
    for _ in range(300):
        i, j = (int(w) for w in rng.choice(wires[-40:], size=2))
        wires.append(b.xor(i, j) if rng.integers(0, 2) else b.and_(i, j))
    b.mark_outputs([int(w) for w in rng.choice(wires, size=25)] + [wires[0], wires[-1]])
    return b.build()


class TestSingleGates:
    def test_and_truth_table(self):
        b = CircuitBuilder()
        x = b.input_bundle("x", 2)
        b.mark_outputs([b.and_(*x)])
        c = b.build()
        bits = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
        out = garbled_run(c, {"x": bits})
        assert out[:, 0].tolist() == [0, 0, 0, 1]

    def test_xor_has_no_table(self):
        b = CircuitBuilder()
        x = b.input_bundle("x", 2)
        b.mark_outputs([b.xor(*x)])
        c = b.build()
        gc, _, _ = garble(c)
        assert gc.and_count == 0
        bits = np.array([[0, 1], [1, 1]], dtype=np.uint8)
        assert garbled_run(c, {"x": bits})[:, 0].tolist() == [1, 0]


class TestAgainstSimulator:
    def test_adder_circuit(self):
        b = CircuitBuilder()
        xa = b.input_bundle("a", 8)
        xb = b.input_bundle("b", 8)
        b.mark_outputs(b.add_mod(xa, xb))
        c = b.build()
        rng = np.random.default_rng(5)
        a_bits = rng.integers(0, 2, size=(50, 8), dtype=np.uint8)
        b_bits = rng.integers(0, 2, size=(50, 8), dtype=np.uint8)
        plain = simulate(c, {"a": a_bits.astype(bool), "b": b_bits.astype(bool)})
        got = garbled_run(c, {"a": a_bits, "b": b_bits})
        assert np.array_equal(got.astype(bool), plain)

    def test_sort_circuit_8(self):
        sc = build_sort_circuit(8, width=SCORE_BITS)
        rng = np.random.default_rng(6)
        inputs = {
            name: rng.integers(0, 2, size=(10, len(wires)), dtype=np.uint8)
            for name, wires in sc.circuit.inputs.items()
        }
        plain = simulate(sc.circuit, {k: v.astype(bool) for k, v in inputs.items()})
        got = garbled_run(sc.circuit, inputs)
        assert np.array_equal(got.astype(bool), plain)

    @pytest.mark.parametrize("width", [1, 7, 14, SCORE_BITS])
    def test_sorts_at_each_width(self, width):
        # scores below 2^width from a set of three, so most tie: local
        # sorts read the low width bits of 31-bit shares, merges width-bit
        # masks and masked scores. The garbled outputs equal simulate's
        # bit for bit, and simulate's order descends by score
        rng = np.random.default_rng(width)
        values = [0, (1 << width) - 1, int(rng.integers(0, 1 << width))]
        for k, t in ((2, None), (5, None), (9, 4)):
            sc = build_sort_circuit(k, t, width=width)
            scores = rng.choice(values, size=(12, k))
            g = rng.integers(0, 1 << SCORE_BITS, size=(12, k))
            inputs = {
                "garbler_shares": bit_rows(g, width),
                "evaluator_shares": bit_rows((scores - g) % (1 << SCORE_BITS), width),
                "payloads": bit_rows(np.tile(np.arange(k), (12, 1)), sc.payload_width),
            }
            plain = simulate(sc.circuit, inputs)
            assert np.array_equal(garbled_run(sc.circuit, inputs).astype(bool), plain)
            for row, want in zip(plain, scores):
                got, payloads = sc.decode_outputs(row)
                assert got == [int(want[p]) for p in payloads] == sorted(want, reverse=True)[:sc.t]
        for counts in ((4, 3), (2, 2, 3)):
            sc = build_merge_circuit(counts, width=width)
            total = sum(counts)
            scores = np.concatenate(
                [-np.sort(-rng.choice(values, size=(12, c)), axis=1) for c in counts], axis=1
            )
            masks = rng.integers(0, 1 << width, size=(12, total))
            inputs = {
                "masked_scores": bit_rows(scores ^ masks, width),
                "masks": bit_rows(masks, width),
                "payloads": bit_rows(np.tile(np.arange(total), (12, 1)), sc.payload_width),
            }
            plain = simulate(sc.circuit, inputs)
            assert np.array_equal(garbled_run(sc.circuit, inputs).astype(bool), plain)
            orders = (plain.reshape(12, total, -1) << np.arange(sc.payload_width)).sum(axis=2)
            for row, order in zip(scores, orders):
                assert row[order].tolist() == sorted(row.tolist(), reverse=True)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_circuits(self, seed):
        c = random_circuit(seed)
        rng = np.random.default_rng(seed)
        inputs = {
            name: rng.integers(0, 2, size=(7, len(w)), dtype=np.uint8)
            for name, w in c.inputs.items()
        }
        plain = simulate(c, {k: v.astype(bool) for k, v in inputs.items()})
        assert np.array_equal(garbled_run(c, inputs).astype(bool), plain)

    def test_fresh_garbling_decodes_identically(self):
        b = CircuitBuilder()
        y = b.input_bundle("x", 4)
        b.mark_outputs(b.add_mod(y[:2], y[2:]))
        c = b.build()
        bits = np.array([[1, 0, 1, 1]], dtype=np.uint8)
        out1 = garbled_run(c, {"x": bits})
        out2 = garbled_run(c, {"x": bits})
        assert np.array_equal(out1, out2)


class TestBlob:
    def test_round_trip(self):
        sc = build_sort_circuit(4, width=SCORE_BITS)
        gc, label_map, delta = garble(sc.circuit)
        clone = GarbledCircuit.from_bytes(gc.to_bytes())
        assert np.array_equal(clone.tables, gc.tables)
        assert np.array_equal(clone.dec, gc.dec)
        rng = np.random.default_rng(7)
        inputs = {
            name: rng.integers(0, 2, size=(3, len(w)), dtype=np.uint8)
            for name, w in sc.circuit.inputs.items()
        }
        a = evaluate_rows(sc.circuit, gc, label_map, delta, inputs)
        b = evaluate_rows(sc.circuit, clone, label_map, delta, inputs)
        assert np.array_equal(a, b)

    def test_decoding_copies_the_tables_once(self):
        # a sort(300) blob of ~11.5 MB: decoding allocates one copy of its
        # tables, not a slice of the blob and then a copy of that
        blob = garble(build_sort_circuit(300, width=SCORE_BITS).circuit)[0].to_bytes()
        tracemalloc.start()
        try:
            gc = GarbledCircuit.from_bytes(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * len(blob)
        assert gc.tables.flags.writeable and gc.to_bytes() == blob

    def test_bad_magic(self):
        with pytest.raises(GarbleError):
            GarbledCircuit.from_bytes(b"XXXX" + bytes(8))

    def test_length_mismatch_rejected(self):
        blob = garble(build_sort_circuit(2, width=SCORE_BITS).circuit)[0].to_bytes()
        for bad in (blob[:-1], blob + b"\0", blob[:8]):
            with pytest.raises(GarbleError):
                GarbledCircuit.from_bytes(bad)

    def test_corrupted_table_changes_output(self):
        # the evaluator reads T_G when its a label's permute bit is set and
        # T_E when its b label's is: pick input bits that set both, and then
        # corrupting either row alone changes the output label
        b = CircuitBuilder()
        x = b.input_bundle("x", 2)
        b.mark_outputs([b.and_(*x)])
        c = b.build()
        gc, label_map, delta = garble(c)
        permute = label_map["x"][:, 15] & 1
        reads_both = {"x": select_labels(label_map["x"], delta, permute ^ 1)}
        reads_none = {"x": select_labels(label_map["x"], delta, permute)}
        product = (permute[0] ^ 1) & (permute[1] ^ 1)
        assert decode(gc, evaluate(c, gc, reads_both)).tolist() == [product]
        good = [evaluate(c, gc, labels) for labels in (reads_both, reads_none)]
        for half in (0, 1):  # T_G, T_E
            bad = GarbledCircuit(gc.tables.copy(), gc.dec)
            bad.tables[half] ^= 0xFF
            assert not np.array_equal(evaluate(c, bad, reads_both), good[0])
            assert np.array_equal(evaluate(c, bad, reads_none), good[1])

    def test_tables_follow_the_half_gates_formulas(self):
        # two ANDs in level 1 that feed a third in level 2: the rows, the
        # decode bit and the evaluator's output labels against a scalar H
        # built from one AES block call per hash, under the garbling key;
        # per level, T_G of its ANDs, then their T_E, row r under tweak r
        b = CircuitBuilder()
        x = b.input_bundle("x", 4)
        b.mark_outputs([b.and_(b.and_(x[0], x[1]), b.and_(x[2], x[3]))])
        c = b.build()
        assert c.levels.tolist() == [1, 1, 2]
        gc, label_map, delta = garble(c)
        d, none = bytes(delta), bytes(16)
        h = lambda label, i: scalar_hash(GARBLE_KEY, label, i)  # noqa: E731
        pick = lambda bit, label: label if bit else none  # noqa: E731

        def garble_and(zero_a, zero_b, g, e):
            """T_G, T_E and the output zero-label, rows g and e."""
            pa, pb = zero_a[15] & 1, zero_b[15] & 1
            t_g = xor(h(zero_a, g), h(xor(zero_a, d), g), pick(pb, d))
            t_e = xor(h(zero_b, e), h(xor(zero_b, d), e), zero_a)
            out = xor(h(xor(zero_a, pick(pa, d)), g), pick(pa & pb, d),
                      h(xor(zero_b, pick(pb, d)), e))
            return t_g, t_e, out

        def evaluate_and(w_a, w_b, g, e):
            return xor(h(w_a, g), pick(w_a[15] & 1, tables[g]),
                       h(w_b, e), pick(w_b[15] & 1, xor(tables[e], w_a)))

        zero = [bytes(label) for label in label_map["x"]]
        g_1, e_1, c_1 = garble_and(zero[0], zero[1], 0, 2)
        g_2, e_2, c_2 = garble_and(zero[2], zero[3], 1, 3)
        g_3, e_3, c_3 = garble_and(c_1, c_2, 4, 5)
        tables = [row.tobytes() for row in gc.tables]
        assert tables == [g_1, g_2, e_1, e_2, g_3, e_3]
        assert gc.dec.tolist() == [c_3[15] & 1]
        for bits in range(16):
            row = int_to_bits(bits, 4)
            labels = select_labels(label_map["x"], delta, row)
            w = [bytes(label) for label in labels]
            want = evaluate_and(evaluate_and(w[0], w[1], 0, 2), evaluate_and(w[2], w[3], 1, 3), 4, 5)
            assert evaluate(c, gc, {"x": labels})[0].tobytes() == want
            assert want == xor(c_3, pick(row[0] & row[1] & row[2] & row[3], d))


class TestStructure:
    def test_labels_differ_by_delta(self):
        b = CircuitBuilder()
        x = b.input_bundle("x", 1)
        b.mark_outputs(x)
        gc, label_map, delta = garble(b.build())
        zero = label_map["x"][0]
        one = select_labels(label_map["x"], delta, [1])[0]
        assert np.array_equal(zero ^ one, delta)
        assert delta[15] & 1 == 1


def shake_token(seed: bytes, size: int):
    """token(n) returns the next n bytes of one SHAKE-256 stream of `size`
    bytes; token.used() tells how many were taken."""
    stream = hashlib.shake_256(seed).digest(size)
    pos = 0

    def token(n):
        nonlocal pos
        assert pos + n <= size, "garble drew more random bytes than expected"
        pos += n
        return stream[pos - n : pos]

    token.used = lambda: pos
    return token


class TestWireFormat:
    # SHA-256 of (tables, dec, label map, delta) from the same SHAKE-256
    # stream: sorts and the merge (two runs of 3 and 2) under half-gates
    # (two 16-byte rows an AND), with INV-free carry chains, in the gate
    # order of a first layer stamped as adders and comparator at once; the
    # sorts by merge exchange and the merge by odd-even merge; the merge
    # without the score swaps that no output reads; the tables laid out
    # level by level, T_G of a level's ANDs then their T_E, row r hashed
    # under tweak r (sort 1, no comparator, kept its digest)
    PINNED = {
        ("sort", 1): "b1dcf24c84397da4ca62bba67e139114eb724b81a4a91134fc356bac5763da7a",
        ("sort", 3): "fd88630defa1660e450d01394f8b4af5f5dcf5ffaf0cc6fde6c4aeb5c5e067e3",
        ("sort", 8): "b7618dc1c2a66b159bc5364544b4e28918081e4ad23d5076a13042925272a109",
        ("merge", 5): "bd4ae3e74210c20b7ccde44dcf92cc82cf2c6677550e6c7748430c7ab51ab94d",
    }

    @staticmethod
    def _circuit(kind, k):
        if kind == "sort":
            return build_sort_circuit(k, width=SCORE_BITS).circuit
        return build_merge_circuit((k - k // 2, k // 2), width=SCORE_BITS).circuit

    @pytest.mark.parametrize("kind,k", sorted(PINNED))
    def test_garbling_is_byte_identical(self, kind, k):
        circuit = self._circuit(kind, k)
        n_inputs = sum(len(w) for w in circuit.inputs.values())
        size = 16 * (1 + n_inputs)  # delta, then the input labels
        token = shake_token(b"wire-format-%s-%d" % (kind.encode(), k), size)
        gc, label_map, delta = garble(circuit, token)
        assert token.used() == size
        h = hashlib.sha256()
        h.update(gc.tables.tobytes())
        h.update(gc.dec.tobytes())
        for name, labels in label_map.items():
            h.update(name.encode())
            h.update(labels.tobytes())
        h.update(delta.tobytes())
        assert h.hexdigest() == self.PINNED[(kind, k)]
        n_out = len(circuit.outputs)
        assert len(gc.to_bytes()) == 12 + 32 * gc.and_count + -(-n_out // 8)


def late_bundle_circuit():
    """A circuit whose second input bundle is declared after a gate."""
    b = CircuitBuilder()
    x = b.input_bundle("x", 3)
    u = b.and_(x[0], x[1])
    y = b.input_bundle("y", 2)
    b.mark_outputs([b.and_(b.xor(u, y[0]), y[1]), b.xor(x[2], y[1]), u])
    return b.build()


class TestSchedule:
    def test_build_emits_the_schedule_order(self):
        # gates by stage, 2 (level - 1) + op; the inputs are wires 0..n_in - 1,
        # bundle by bundle, and gate i writes wire n_in + i
        for circuit in (
            build_sort_circuit(16, width=SCORE_BITS).circuit,
            build_sort_circuit(13, 4, width=SCORE_BITS).circuit,
            build_merge_circuit((3, 2), width=SCORE_BITS).circuit,
            random_circuit(0),
            late_bundle_circuit(),
        ):
            stage = 2 * (circuit.levels.astype(np.int64) - 1) + circuit.gates[:, 0]
            assert (np.diff(stage) >= 0).all()
            n_in = circuit.n_wires - len(circuit.gates)
            assert sum(circuit.inputs.values(), []) == list(range(n_in))
            assert circuit.gates[:, 3].tolist() == list(range(n_in, circuit.n_wires))
            wire_stage = np.concatenate([np.full(n_in, -1), stage])
            assert (stage > wire_stage[circuit.gates[:, 1:3]].max(axis=1)).all()
            sched = level_schedule(circuit)
            assert level_schedule(circuit) is sched
            assert sched.n_and == circuit.and_count
            end = n_in  # each level's XOR outputs, then its AND outputs, one slice each
            for step in sched.steps:
                for out in (step[1], step[3]):
                    assert isinstance(out, slice) and out.start == end
                    end = out.stop
            assert end == circuit.n_wires
            arrays = [circuit.gates, circuit.levels, sched.outputs, sched.a_rows, sched.b_rows]
            arrays += [x for step in sched.steps for x in step if isinstance(x, np.ndarray)]
            for arr in arrays:
                with pytest.raises(ValueError):
                    arr.flat[0] = 0

    def test_late_bundle_keeps_its_function(self):
        c = late_bundle_circuit()
        assert c.inputs == {"x": [0, 1, 2], "y": [3, 4]}
        rows = np.array([int_to_bits(v, 5) for v in range(32)], dtype=np.uint8)
        x, y = rows[:, :3], rows[:, 3:]
        u = x[:, 0] & x[:, 1]
        want = np.stack([(u ^ y[:, 0]) & y[:, 1], x[:, 2] ^ y[:, 1], u], axis=1)
        assert np.array_equal(garbled_run(c, {"x": x, "y": y}), want)

    def test_table_count_mismatch_rejected(self):
        sc = build_sort_circuit(2, width=SCORE_BITS)
        gc, label_map, delta = garble(sc.circuit)
        with pytest.raises(GarbleError):
            evaluate(sc.circuit, GarbledCircuit(gc.tables[:-1], gc.dec), label_map)


class TestConcurrency:
    @pytest.mark.parametrize(
        "cached",
        [lambda: _sort_circuit((6,), width=SCORE_BITS),
         lambda: build_merge_circuit((3, 2), width=SCORE_BITS)],
        ids=["sort", "merge"],
    )
    def test_two_threads_share_one_cached_circuit(self, cached):
        circuit = cached().circuit
        assert cached().circuit is circuit
        start = threading.Barrier(2)
        errors = []

        def rounds(seed):
            try:
                rng = np.random.default_rng(seed)
                start.wait(timeout=60)
                for _ in range(8):
                    inputs = {
                        name: rng.integers(0, 2, size=(3, len(w)), dtype=np.uint8)
                        for name, w in circuit.inputs.items()
                    }
                    got = garbled_run(circuit, inputs)
                    plain = simulate(circuit, {n: b.astype(bool) for n, b in inputs.items()})
                    assert np.array_equal(got.astype(bool), plain)
            except Exception as exc:  # surfaced in the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the two threads finely
        try:
            threads = [threading.Thread(target=rounds, args=(s,)) for s in (1, 2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
