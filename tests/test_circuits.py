import hashlib

import numpy as np
import pytest

from conftest import bit_rows, evaluate_rows, zero_one_sorted
from privgraph.circuits import (
    AND,
    CircuitBuilder,
    bits_to_int,
    build_sort_circuit,
    int_to_bits,
    merge_exchange,
    odd_even_merge,
    simulate,
)
from privgraph.crypto import SCORE_BITS


def run_single(circuit, **inputs):
    arrays = {k: np.array([v], dtype=bool) for k, v in inputs.items()}
    return simulate(circuit, arrays)[0]


class TestBuilder:
    def test_xor_and(self):
        b = CircuitBuilder()
        x = b.input_bundle("x", 2)
        b.mark_outputs([b.xor(*x), b.and_(*x)])
        c = b.build()
        for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
            out = run_single(c, x=bits)
            assert out[0] == bits[0] ^ bits[1]
            assert out[1] == (bits[0] & bits[1])

    def test_and_count(self):
        b = CircuitBuilder()
        x = b.input_bundle("x", 2)
        b.mark_outputs([b.and_(*x), b.xor(*x), b.and_(*x)])
        assert b.build().and_count == 2


class TestStamp:
    def test_copies_match_a_gate_by_gate_build(self):
        # three adders stamped at once are the gates, wires and levels of
        # three built one gate at a time
        template = CircuitBuilder()
        template.mark_outputs(template.add_mod(*np.split(np.array(template.input_bundle("x", 8)), 2)))
        stamped, scalar = CircuitBuilder(), CircuitBuilder()
        rows = np.reshape(stamped.input_bundle("x", 24), (3, 8))
        stamped.mark_outputs(stamped.stamp(template.build(), rows).ravel().tolist())
        for row in np.reshape(scalar.input_bundle("x", 24), (3, 8)).tolist():
            scalar.mark_outputs(scalar.add_mod(row[:4], row[4:]))
        a, b = stamped.build(), scalar.build()
        assert np.array_equal(a.gates, b.gates) and np.array_equal(a.levels, b.levels)
        assert a.outputs == b.outputs and a.n_wires == b.n_wires

    def test_each_copy_starts_above_its_latest_input(self):
        # the template's first gate reads only input 0, yet in the copy
        # whose input 1 comes from a gate it waits for that gate
        template = CircuitBuilder()
        x = template.input_bundle("x", 2)
        template.mark_outputs([template.and_(template.xor(x[0], x[0]), x[1])])
        b = CircuitBuilder()
        x = b.input_bundle("x", 4)
        copies = b.stamp(template.build(), [[x[0], x[1]], [x[2], b.and_(x[2], x[3])]])
        b.mark_outputs(copies.ravel().tolist())
        assert b.build().levels.tolist() == [1, 1, 1, 2, 2]

    def test_rows_must_feed_every_input(self):
        template = CircuitBuilder()
        template.mark_outputs([template.and_(*template.input_bundle("x", 2))])
        b = CircuitBuilder()
        with pytest.raises(ValueError):
            b.stamp(template.build(), [b.input_bundle("x", 3)])


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
        b.mark_outputs(b.add_mod(xa, xb))
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
        b.mark_outputs([b.less_than(xa, xb)])
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


def batcher_law(k: int) -> int:
    """Comparators of Batcher's merge exchange for k = 2^m lines."""
    m = k.bit_length() - 1
    return (m * m - m + 4) * 2 ** m // 4 - 1


class TestSchedule:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128])
    def test_comparator_count(self, n):
        assert len(merge_exchange(n)) == batcher_law(n)

    def test_data_independence(self):
        # each schedule is a pure function of its counts
        assert merge_exchange(13) == merge_exchange(13)
        assert odd_even_merge(7, 5) == odd_even_merge(7, 5)

    def test_merge_exchange_sorts_every_01_input(self):
        # the 0-1 principle, exhaustively: every k <= 16, every input
        for k in range(1, 17):
            rows = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
            assert zero_one_sorted(merge_exchange(k), list(range(k)), rows), k

    def test_odd_even_merge_merges_every_pair_of_runs(self):
        # the 0-1 principle for merging: runs of 0..12 and 0..12 entries,
        # each descending, so i ones then zeros, and j ones then zeros
        for a in range(13):
            for b in range(13):
                schedule, order = odd_even_merge(a, b)
                assert sorted(order) == list(range(a + b))
                rows = [[1] * i + [0] * (a - i) + [1] * j + [0] * (b - j)
                        for i in range(a + 1) for j in range(b + 1)]
                assert zero_one_sorted(schedule, order, np.reshape(rows, (len(rows), a + b))), (a, b)

    def test_counts_against_the_best_known_networks(self):
        # merge exchange is optimal for k <= 8 and within 4 of the best
        # known networks (25, 29, 35, 39, 45, 51, 56, 60) for k = 9..16
        assert [len(merge_exchange(k)) for k in range(1, 17)] == [
            0, 1, 3, 5, 9, 12, 16, 19, 26, 31, 37, 41, 48, 53, 59, 63]
        assert [len(odd_even_merge(a, b)[0]) for a, b in ((10, 10), (7, 8), (6, 2), (12, 4))] == [
            35, 24, 9, 25]


class TestSortCircuit:
    def _run(self, scores, payloads, seed=3):
        sc = build_sort_circuit(len(scores), width=SCORE_BITS)
        rng = np.random.default_rng(seed)
        g, e = [], []
        for s in scores:
            g_share = int(rng.integers(0, 1 << 31))
            e_share = (s - g_share) % (1 << 31)
            g.extend(int_to_bits(g_share, SCORE_BITS))
            e.extend(int_to_bits(e_share, SCORE_BITS))
        p = []
        for v in payloads:
            p.extend(int_to_bits(v, sc.payload_width))
        inputs = {
            "garbler_shares": np.array([g], dtype=bool),
            "evaluator_shares": np.array([e], dtype=bool),
            "payloads": np.array([p], dtype=bool),
        }
        out = simulate(sc.circuit, inputs)[0]
        return sc.decode_outputs(out)

    def test_sorts_descending(self):
        scores, payloads = self._run([5, 9, 2], [1, 2, 3])
        assert scores == [9, 5, 2]
        assert payloads == [2, 1, 3]

    def test_score_zero_sorts_as_an_entry(self):
        # a real 0 is a score like any other: all k outputs are entries
        scores, payloads = self._run([0, 0, 3], [1, 2, 3])
        assert scores == [3, 0, 0]
        assert payloads[0] == 3 and sorted(payloads[1:]) == [1, 2]

    def test_single_element(self):
        scores, payloads = self._run([7], [1])
        assert scores == [7] and payloads == [1]

    def test_ties_keep_multiset(self):
        scores, _ = self._run([7, 7, 7, 7], [1, 2, 3, 4])
        assert sorted(scores) == [7, 7, 7, 7]

    def test_random_vs_python_sort(self):
        rng = np.random.default_rng(11)
        scores = [int(x) for x in rng.integers(1, 1000, size=13)]
        got, payloads = self._run(scores, list(range(13)))
        assert got == sorted(scores, reverse=True)
        assert [scores[p] for p in payloads] == sorted(scores, reverse=True)

    def test_max_k_enforced(self):
        with pytest.raises(ValueError, match="truncate"):
            build_sort_circuit(2048, width=SCORE_BITS)

    def test_comparator_law_in_and_count(self):
        # total ANDs = adders k*(31-1) + comparators * (31 + 31 + payload)
        for k in (5, 8, 13):
            sc = build_sort_circuit(k, width=SCORE_BITS)
            assert sc.and_count == k * 30 + len(merge_exchange(k)) * (31 + 31 + sc.payload_width)

    def test_sorts_ties_under_simulate(self):
        # scores from a set of three, so most inputs tie: the scores come
        # out descending and the payloads are a permutation that carries
        # each entry's own score
        rng = np.random.default_rng(5)
        for k in (2, 5, 9, 16):
            sc = build_sort_circuit(k, width=SCORE_BITS)
            scores = rng.choice([0, 7, 1 << 30], size=(30, k))
            g = rng.integers(0, 1 << 31, size=(30, k))
            out = simulate(sc.circuit, {
                "garbler_shares": bit_rows(g, SCORE_BITS),
                "evaluator_shares": bit_rows((scores - g) % (1 << 31), SCORE_BITS),
                "payloads": bit_rows(np.tile(np.arange(k), (30, 1)), sc.payload_width),
            })
            for row, want in zip(out, scores):
                got, payloads = sc.decode_outputs(row)
                assert got == sorted(want.tolist(), reverse=True)
                assert sorted(payloads) == list(range(k))
                assert [want[p] for p in payloads] == got


class TestLevels:
    # garbling and evaluation take one vectorised step per level and op, so
    # a network of fewer entries should need no more AND levels than that
    # of the next power of two
    @staticmethod
    def and_levels(circuit):
        return len(set(circuit.levels[circuit.gates[:, 0] == AND].tolist()))

    def test_fewer_entries_add_no_and_levels(self):
        from privgraph.sorting import build_merge_circuit

        full = self.and_levels(build_sort_circuit(8, width=SCORE_BITS).circuit)
        assert all(self.and_levels(build_sort_circuit(k, width=SCORE_BITS).circuit) <= full
                   for k in (5, 6, 7))
        full = self.and_levels(build_merge_circuit((8, 8), width=SCORE_BITS).circuit)
        assert self.and_levels(build_merge_circuit((3, 7), width=SCORE_BITS).circuit) <= full

    def test_each_gate_above_its_inputs(self):
        # a level runs its XORs, then its ANDs, so a gate must come after
        # each input in (level, op) order; inputs come first
        for c in (build_sort_circuit(k, width=SCORE_BITS).circuit for k in (7, 13)):
            wire_stage = np.full(c.n_wires, -1, dtype=np.int64)
            stage = (c.levels.astype(np.int64) - 1) * 2 + c.gates[:, 0]
            wire_stage[c.gates[:, 3]] = stage
            assert (stage > wire_stage[c.gates[:, 1]]).all()
            assert (stage > wire_stage[c.gates[:, 2]]).all()
            assert c.levels.dtype == np.int32 and c.levels.min() == 1

    @pytest.mark.parametrize(
        "kind,shape,levels,and_levels",
        [("sort", 8, 201, 195), ("sort", 13, 333, 323), ("merge", (8, 8), 133, 128),
         ("sort", 2, 36, 35)],
    )
    def test_one_level_per_and_layer(self, kind, shape, levels, and_levels):
        # each carry bit's AND inputs are one XOR from the previous AND, and
        # that XOR shares the next AND's level, so almost every level has
        # ANDs; a local sort's first comparators run in lockstep with its
        # share adders, 28 levels fewer than after them (sort 2: 64 -> 36)
        from privgraph.sorting import build_merge_circuit

        build = build_sort_circuit if kind == "sort" else build_merge_circuit
        c = build(shape, width=SCORE_BITS).circuit
        assert (int(c.levels.max()), self.and_levels(c)) == (levels, and_levels)


class TestAndCounts:
    # build_sort_circuit(k).and_count for k = 1..20: k adders of 30 ANDs
    # and merge exchange's 0, 1, 3, 5, 9, ... comparators of 31 + 31 +
    # k.bit_length() ANDs
    PINNED = [30, 124, 282, 445, 735, 960, 1250, 1494, 1986, 2346, 2772, 3066, 3558,
              3918, 4344, 4701, 5468, 6034, 6667, 7099]

    def test_sort_and_counts_unchanged(self):
        ands = [build_sort_circuit(k, width=SCORE_BITS).and_count for k in range(1, 21)]
        assert ands == self.PINNED


class TestBitonicBuilder:
    # SHA-256 of the gate rows, input wires, output wires and wire count:
    # sorts and merges (k entries in two runs of k - k // 2 and k // 2) as
    # built from Batcher's merge exchange and odd-even merge, each
    # comparator one template, with the INV-free carry chains of add_mod
    # and less_than, a layer of comparators stamped at once; a local sort's
    # first layer stamps each pair's two adders and comparator as one
    # template; a merge keeps only its payload outputs' cone; the gates in
    # schedule order, by level, a level's XORs before its ANDs, and the
    # wires numbered inputs first, then each gate's output in that order
    # (sort 1 and merge 2, one comparator or none, kept their digests)
    PINNED = {
        ("sort", 1): "242e87225e280255bd016529ac109c89278955f789f6a788a15574a7f5027924",
        ("sort", 3): "ca6918e81870abf4ced1745625660fe056ff647fb0fcb1b9744702e4239c8d6d",
        ("sort", 8): "2a476338c3c9b2bd925749c943c4be02cd930d2221f0ec5df9aed0caead81292",
        ("sort", 13): "c864c6e74a12cb63d0fff477329f7353c17e0f695aa5b51e18a115494cb7830a",
        ("merge", 2): "79b9f671020a93a541e40230c8d4ea99eaf3244cfb69e01fad9a0f630be46f06",
        ("merge", 5): "864655a57a4e52cbb1e6fed64a103ff2404a088895c34937f9bfdd26e81db50f",
        ("merge", 12): "751d1df3443368ed0a745dd847f95f444537b2ac42ef817731cbb821ec9b5033",
    }

    @pytest.mark.parametrize("kind,k", sorted(PINNED))
    def test_gate_lists_unchanged(self, kind, k):
        from privgraph.sorting import build_merge_circuit

        if kind == "sort":
            circuit = build_sort_circuit(k, width=SCORE_BITS).circuit
        else:
            circuit = build_merge_circuit((k - k // 2, k // 2), width=SCORE_BITS).circuit
        h = hashlib.sha256()
        h.update(np.asarray(circuit.gates, dtype="<i4").tobytes())
        for name, wires in circuit.inputs.items():
            h.update(name.encode())
            h.update(np.asarray(wires, dtype="<i4").tobytes())
        h.update(np.asarray(circuit.outputs, dtype="<i4").tobytes())
        h.update(str(circuit.n_wires).encode())
        assert h.hexdigest() == self.PINNED[(kind, k)]


def cone(circuit):
    """The gates in some output's cone, by a gate-by-gate walk back."""
    needed = set(circuit.outputs)
    kept = set()
    for g in range(len(circuit.gates) - 1, -1, -1):
        _, a, b, out = circuit.gates[g].tolist()
        if out in needed:
            kept.add(g)
            needed.update((a, b))
    return kept


class TestLiveness:
    # CircuitBuilder.build keeps only the gates that some output reads
    @staticmethod
    def pruned():
        from privgraph.sorting import build_merge_circuit

        return [build_sort_circuit(13, 4, width=SCORE_BITS).circuit,
                build_sort_circuit(9, 1, width=SCORE_BITS).circuit,
                build_merge_circuit((5, 3, 1), 3, width=SCORE_BITS).circuit,
                build_merge_circuit((6, 6), width=SCORE_BITS).circuit]

    def test_every_kept_gate_lies_in_an_output_cone(self):
        for c in self.pruned():
            assert cone(c) == set(range(len(c.gates)))
            # wires renumbered densely: inputs, then one per gate
            assert c.n_wires == len(c.gates) + sum(map(len, c.inputs.values()))
            assert sorted(c.gates[:, 3].tolist() + sum(c.inputs.values(), [])) == list(
                range(c.n_wires)
            )
            # a level with no gate left is compacted away
            assert np.unique(c.levels).tolist() == list(range(1, int(c.levels.max()) + 1))

    def test_dead_gates_are_dropped(self):
        b = CircuitBuilder()
        x = b.input_bundle("x", 3)
        dead = b.and_(x[0], x[1])
        b.xor(dead, x[2])  # reads only a dead gate: a sink
        b.mark_outputs([b.and_(b.xor(x[0], x[2]), x[1])])
        c = b.build()
        assert c.gates.tolist() == [[0, 0, 2, 3], [1, 3, 1, 4]]
        assert (c.outputs, c.n_wires, c.levels.tolist()) == ([4], 5, [1, 1])
        for bits in range(8):
            row = int_to_bits(bits, 3)
            assert run_single(c, x=row)[0] == ((row[0] ^ row[2]) & row[1])

    @pytest.mark.parametrize("k", [3, 5, 12, 17])
    def test_sort_keeping_every_output_keeps_every_gate(self, k):
        full = build_sort_circuit(k, width=SCORE_BITS).circuit
        for t in (k, k + 5):
            c = build_sort_circuit(k, t, width=SCORE_BITS).circuit
            assert np.array_equal(c.gates, full.gates) and np.array_equal(c.levels, full.levels)
            assert (c.outputs, c.n_wires) == (full.outputs, full.n_wires)

    def test_kept_outputs_match_the_full_network(self):
        # the first t outputs of a pruned sort are the full sort's, bit for
        # bit, in plaintext and garbled
        from privgraph.garble import garble

        rng = np.random.default_rng(21)
        for k, t in ((13, 4), (9, 1), (6, 5)):
            full = build_sort_circuit(k, width=SCORE_BITS)
            top = build_sort_circuit(k, t, width=SCORE_BITS)
            assert len(top.circuit.gates) < len(full.circuit.gates)
            inputs = {name: rng.integers(0, 2, size=(20, len(w)), dtype=np.uint8)
                      for name, w in full.circuit.inputs.items()}
            want = simulate(full.circuit, {n: v.astype(bool) for n, v in inputs.items()})
            plain = simulate(top.circuit, {n: v.astype(bool) for n, v in inputs.items()})
            assert np.array_equal(plain, want[:, : len(top.circuit.outputs)])
            gc, label_map, delta = garble(top.circuit)
            got = evaluate_rows(top.circuit, gc, label_map, delta, inputs)
            assert np.array_equal(got.astype(bool), plain)

    def test_a_template_that_loses_gates_stamps(self):
        # stamp reads a template's input count as n_wires - len(gates)
        template = CircuitBuilder()
        x = template.input_bundle("x", 2)
        template.and_(x[0], x[1])  # dead
        template.mark_outputs([template.xor(x[0], x[1])])
        template = template.build()
        assert template.n_wires - len(template.gates) == 2
        b = CircuitBuilder()
        rows = np.reshape(b.input_bundle("x", 4), (2, 2))
        b.mark_outputs(b.stamp(template, rows).ravel().tolist())
        c = b.build()
        assert run_single(c, x=[1, 0, 1, 1]).tolist() == [1, 0]
