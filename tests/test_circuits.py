import hashlib

import numpy as np
import pytest

from privgraph.circuits import (
    SCORE_BITS,
    CircuitBuilder,
    bitonic_schedule,
    bits_to_int,
    build_sort_circuit,
    comparator_count,
    int_to_bits,
    simulate,
)


def run_single(circuit, **inputs):
    arrays = {k: np.array([v], dtype=bool) for k, v in inputs.items()}
    return simulate(circuit, arrays)[0]


class TestBuilder:
    def test_xor_and_inv(self):
        b = CircuitBuilder()
        x = b.input_bundle("x", 2)
        b.mark_outputs([b.xor(*x), b.and_(*x), b.inv(x[0])])
        c = b.build()
        for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
            out = run_single(c, x=bits)
            assert out[0] == bits[0] ^ bits[1]
            assert out[1] == (bits[0] & bits[1])
            assert out[2] == (not bits[0])

    def test_and_count(self):
        b = CircuitBuilder()
        x = b.input_bundle("x", 2)
        b.and_(*x)
        b.xor(*x)
        b.and_(*x)
        assert b.build().and_count == 2


class TestAdder:
    def test_exhaustive_small(self):
        b = CircuitBuilder()
        xa = b.input_bundle("a", 4)
        xb = b.input_bundle("b", 4)
        b.mark_outputs(b.add_mod(xa, xb))
        c = b.build()
        for x in range(16):
            for y in range(16):
                out = run_single(c, a=int_to_bits(x, 4), b=int_to_bits(y, 4))
                assert bits_to_int(out) == (x + y) % 16

    def test_31_bit_random(self):
        b = CircuitBuilder()
        xa = b.input_bundle("a", SCORE_BITS)
        xb = b.input_bundle("b", SCORE_BITS)
        b.mark_outputs(b.add_mod(xa, xb))
        c = b.build()
        rng = np.random.default_rng(1)
        xs = rng.integers(0, 1 << 31, size=1000)
        ys = rng.integers(0, 1 << 31, size=1000)
        a_bits = np.array([int_to_bits(int(x), SCORE_BITS) for x in xs], dtype=bool)
        b_bits = np.array([int_to_bits(int(y), SCORE_BITS) for y in ys], dtype=bool)
        outs = simulate(c, {"a": a_bits, "b": b_bits})
        got = [bits_to_int(row) for row in outs]
        assert got == [int((x + y) % (1 << 31)) for x, y in zip(xs, ys)]

    def test_and_count_is_width_minus_one(self):
        b = CircuitBuilder()
        xa = b.input_bundle("a", SCORE_BITS)
        xb = b.input_bundle("b", SCORE_BITS)
        b.add_mod(xa, xb)
        assert b.build().and_count == SCORE_BITS - 1


class TestLessThan:
    def test_exhaustive_small(self):
        b = CircuitBuilder()
        xa = b.input_bundle("a", 4)
        xb = b.input_bundle("b", 4)
        b.mark_outputs([b.less_than(xa, xb)])
        c = b.build()
        for x in range(16):
            for y in range(16):
                out = run_single(c, a=int_to_bits(x, 4), b=int_to_bits(y, 4))
                assert bool(out[0]) == (x < y)

    def test_and_count_is_width(self):
        b = CircuitBuilder()
        xa = b.input_bundle("a", SCORE_BITS)
        xb = b.input_bundle("b", SCORE_BITS)
        b.less_than(xa, xb)
        assert b.build().and_count == SCORE_BITS


class TestCondSwap:
    def test_swap_and_identity(self):
        b = CircuitBuilder()
        s = b.input_bundle("s", 1)
        xa = b.input_bundle("a", 3)
        xb = b.input_bundle("b", 3)
        hi, lo = b.cond_swap(s[0], xa, xb)
        b.mark_outputs(hi + lo)
        c = b.build()
        out = run_single(c, s=[0], a=int_to_bits(5, 3), b=int_to_bits(2, 3))
        assert bits_to_int(out[:3]) == 5 and bits_to_int(out[3:]) == 2
        out = run_single(c, s=[1], a=int_to_bits(5, 3), b=int_to_bits(2, 3))
        assert bits_to_int(out[:3]) == 2 and bits_to_int(out[3:]) == 5


class TestSchedule:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128])
    def test_comparator_count(self, n):
        assert len(bitonic_schedule(n)) == comparator_count(n)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            bitonic_schedule(6)

    def test_data_independence(self):
        # the schedule is a pure function of n
        assert bitonic_schedule(16) == bitonic_schedule(16)


class TestSortCircuit:
    def _run(self, scores, payloads, k=None, pw=8, seed=3):
        k = k if k is not None else len(scores)
        sc = build_sort_circuit(k, pw)
        rng = np.random.default_rng(seed)
        g, e = [], []
        for s in scores + [0] * (sc.n - len(scores)):
            g_share = int(rng.integers(0, 1 << 31))
            e_share = (s - g_share) % (1 << 31)
            g.extend(int_to_bits(g_share, SCORE_BITS))
            e.extend(int_to_bits(e_share, SCORE_BITS))
        p = []
        for v in payloads + [0] * (sc.n - len(payloads)):
            p.extend(int_to_bits(v, pw))
        inputs = {
            "garbler_shares": np.array([g], dtype=bool),
            "evaluator_shares": np.array([e], dtype=bool),
            "valid": np.array([[1] * len(scores) + [0] * (sc.n - len(scores))], dtype=bool),
            "payloads": np.array([p], dtype=bool),
        }
        out = simulate(sc.circuit, inputs)[0]
        return sc.decode_outputs(out)

    def test_sorts_descending(self):
        scores, payloads = self._run([5, 9, 2], [1, 2, 3])
        assert scores[:3] == [9, 5, 2]
        assert payloads[:3] == [2, 1, 3]
        assert (scores[3], payloads[3]) == (0, 0)  # sentinel pad

    def test_score_zero_sorts_ahead_of_sentinels(self):
        # a real 0 ties with the sentinels on score; the validity bit below
        # it keeps the real entries in the first k outputs
        scores, payloads = self._run([0, 0, 3], [1, 2, 3])
        assert scores == [3, 0, 0, 0]
        assert payloads[0] == 3 and sorted(payloads[1:3]) == [1, 2]
        assert payloads[3] == 0

    def test_single_element(self):
        scores, payloads = self._run([7], [1])
        assert scores == [7] and payloads == [1]

    def test_ties_keep_multiset(self):
        scores, _ = self._run([7, 7, 7, 7], [1, 2, 3, 4])
        assert sorted(scores) == [7, 7, 7, 7]

    def test_random_vs_python_sort(self):
        rng = np.random.default_rng(11)
        scores = [int(x) for x in rng.integers(1, 1000, size=13)]
        got, payloads = self._run(scores, list(range(1, 14)))
        # pads sort to the tail; the first 13 are the real entries
        assert got[:13] == sorted(scores, reverse=True)
        assert [scores[p - 1] for p in payloads[:13]] == sorted(scores, reverse=True)

    def test_max_k_enforced(self):
        with pytest.raises(ValueError, match="truncate"):
            build_sort_circuit(2048, 8)

    def test_comparator_law_in_and_count(self):
        # total ANDs = adders n*(31-1) + comparators * (32 + 32 + payload),
        # the key being the score and the validity bit below it
        pw = 8
        sc = build_sort_circuit(8, pw)
        expected = 8 * 30 + comparator_count(8) * (32 + 32 + pw)
        assert sc.and_count == expected


class TestBitonicBuilder:
    # SHA-256 of the gate rows, input wires, output wires and wire count:
    # sorts as built since they key on (score, validity bit) with no mask
    # input, merges (k entries in two runs of k - k // 2 and k // 2)
    # as built since the merge is a bitonic merge of the runs
    PINNED = {
        ("sort", 1): "c233d5c2bc09e83cc6fe74f22172f95a46def5450e1f3aaea03d10065db15f2b",
        ("sort", 3): "51d41e695f7c683fa13f1a5116046ea177f3e624595bc7b93b7bacb8a48b9858",
        ("sort", 8): "18e53b77581c5f5f55be3ae3f40c40a2257c65da55d404497f0bc90f63ecb584",
        ("sort", 13): "ca26dfc319c5170328da74f76d1cd5b9860f70f14cd0bf567cbcca86289619df",
        ("merge", 2): "b60897d6f3103f8283293078ca879f3b5c51f137d98869e05218114d3ee853b7",
        ("merge", 5): "2ba345c5340491c67fd63e9a1e341ffa8f14c0ca96d12db7f0200afcb275e277",
        ("merge", 12): "ccd38fefbfba431aedbba9d2bc54a5936db23c82999476e550b5d1c5a40a5fe5",
    }

    @pytest.mark.parametrize("kind,k", sorted(PINNED))
    def test_gate_lists_unchanged(self, kind, k):
        from privgraph.sorting import build_merge_circuit

        if kind == "sort":
            circuit = build_sort_circuit(k, max(k.bit_length(), 1)).circuit
        else:
            circuit = build_merge_circuit((k - k // 2, k // 2), 5).circuit
        h = hashlib.sha256()
        h.update(np.asarray(circuit.gates, dtype="<i4").tobytes())
        for name, wires in circuit.inputs.items():
            h.update(name.encode())
            h.update(np.asarray(wires, dtype="<i4").tobytes())
        h.update(np.asarray(circuit.outputs, dtype="<i4").tobytes())
        h.update(str(circuit.n_wires).encode())
        assert h.hexdigest() == self.PINNED[(kind, k)]
