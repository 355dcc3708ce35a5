import hashlib
import sys
import threading

import numpy as np
import pytest

from privgraph.circuits import (
    SCORE_BITS,
    CircuitBuilder,
    build_sort_circuit,
    int_to_bits,
    simulate,
)
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
from conftest import evaluate_rows, scalar_hash, xor

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
        sc = build_sort_circuit(8)
        rng = np.random.default_rng(6)
        inputs = {
            name: rng.integers(0, 2, size=(10, len(wires)), dtype=np.uint8)
            for name, wires in sc.circuit.inputs.items()
        }
        plain = simulate(sc.circuit, {k: v.astype(bool) for k, v in inputs.items()})
        got = garbled_run(sc.circuit, inputs)
        assert np.array_equal(got.astype(bool), plain)

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
        sc = build_sort_circuit(4)
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

    def test_bad_magic(self):
        with pytest.raises(GarbleError):
            GarbledCircuit.from_bytes(b"XXXX" + bytes(8))

    def test_length_mismatch_rejected(self):
        blob = garble(build_sort_circuit(2).circuit)[0].to_bytes()
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
            bad.tables[0, half] ^= 0xFF
            assert not np.array_equal(evaluate(c, bad, reads_both), good[0])
            assert np.array_equal(evaluate(c, bad, reads_none), good[1])

    def test_tables_follow_the_half_gates_formulas(self):
        # one AND gate's rows and output label against a scalar H built from
        # one AES block call per hash, under the garbling key
        b = CircuitBuilder()
        x = b.input_bundle("x", 2)
        b.mark_outputs([b.and_(*x)])
        c = b.build()
        gc, label_map, delta = garble(c)
        zero_a, zero_b = (bytes(label) for label in label_map["x"])
        d = bytes(delta)
        pb = zero_b[15] & 1
        h = lambda label, i: scalar_hash(GARBLE_KEY, label, i)  # noqa: E731
        t_g = xor(h(zero_a, 0), h(xor(zero_a, d), 0), d if pb else bytes(16))
        t_e = xor(h(zero_b, 1), h(xor(zero_b, d), 1), zero_a)
        assert gc.tables[0].tobytes() == t_g + t_e
        for bit_a in (0, 1):
            for bit_b in (0, 1):
                labels = {"x": select_labels(label_map["x"], delta, [bit_a, bit_b])}
                out = evaluate(c, gc, labels)[0].tobytes()
                w_a = xor(zero_a, d) if bit_a else zero_a
                w_b = xor(zero_b, d) if bit_b else zero_b
                want = xor(
                    h(w_a, 0), t_g if w_a[15] & 1 else bytes(16),
                    h(w_b, 1), xor(t_e, w_a) if w_b[15] & 1 else bytes(16),
                )
                assert out == want
                assert (out[15] & 1) ^ gc.dec[0] == bit_a & bit_b


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
    # merge without the score swaps that no output reads
    PINNED = {
        ("sort", 1): "b1dcf24c84397da4ca62bba67e139114eb724b81a4a91134fc356bac5763da7a",
        ("sort", 3): "6214f474cc95c37cce030c8e7d070bed33eedbc95d2beec2869db909326402a9",
        ("sort", 8): "72d64537dd1e80e9e3f23a560f9d2f2ca105f427f5e9843e8118124e4c9d4266",
        ("merge", 5): "aad2301c9975451dd196e23e0e908157210daa2bc47676af1d974c278992a3ff",
    }

    @staticmethod
    def _circuit(kind, k):
        if kind == "sort":
            return build_sort_circuit(k).circuit
        return build_merge_circuit((k - k // 2, k // 2)).circuit

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


class TestSchedule:
    def test_one_slot_per_wire_in_schedule_order(self):
        # the inputs' slots first; then each level's XOR outputs and AND
        # outputs are one slice each, in order, up to the last wire
        for circuit in (
            build_sort_circuit(16).circuit,
            build_merge_circuit((3, 2)).circuit,
            random_circuit(0),
        ):
            sched = level_schedule(circuit)
            assert level_schedule(circuit) is sched
            assert sched.n_and == circuit.and_count
            assert sched.n_slots == circuit.n_wires
            end = sum(len(w) for w in circuit.inputs.values())
            for step in sched.steps:
                for out in (step[1], step[3]):
                    assert isinstance(out, slice) and out.start == end
                    end = out.stop
            assert end == circuit.n_wires
            arrays = [sched.output_slots, sched.table_rows]
            arrays += [x for step in sched.steps for x in step if isinstance(x, np.ndarray)]
            for arr in arrays:
                with pytest.raises(ValueError):
                    arr.flat[0] = 0
            with pytest.raises(ValueError):
                circuit.gates[0, 0] = 0

    def test_table_count_mismatch_rejected(self):
        sc = build_sort_circuit(2)
        gc, label_map, delta = garble(sc.circuit)
        with pytest.raises(GarbleError):
            evaluate(sc.circuit, GarbledCircuit(gc.tables[:-1], gc.dec), label_map)


class TestConcurrency:
    @pytest.mark.parametrize(
        "cached",
        [lambda: _sort_circuit((6,)), lambda: build_merge_circuit((3, 2))],
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
