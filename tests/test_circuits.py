import hashlib

import numpy as np
import pytest

from conftest import comparator_count, evaluate_rows
from privgraph.circuits import (
    AND,
    SCORE_BITS,
    CircuitBuilder,
    bitonic_schedule,
    bits_to_int,
    build_sort_circuit,
    int_to_bits,
    simulate,
)


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
    def _run(self, scores, payloads, seed=3):
        sc = build_sort_circuit(len(scores))
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
        assert scores == [9, 5, 2]  # the sentinel pad is no output
        assert payloads == [2, 1, 3]

    def test_score_zero_sorts_ahead_of_sentinels(self):
        # a real 0 sorts above the sentinel, so all k outputs are entries
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
            build_sort_circuit(2048)

    def test_comparator_law_in_and_count(self):
        # total ANDs = adders n*(31-1) + comparators * (31 + 31 + payload)
        # for a power of two, which has no sentinel to prune
        sc = build_sort_circuit(8)
        expected = 8 * 30 + comparator_count(8) * (31 + 31 + sc.payload_width)
        assert sc.and_count == expected


class TestLevels:
    # garbling and evaluation take one vectorised step per level and op, so
    # a network with sentinels should need no more AND levels than the full
    # network of its width
    @staticmethod
    def and_levels(circuit):
        return len(set(circuit.levels[circuit.gates[:, 0] == AND].tolist()))

    def test_sentinels_add_no_and_levels(self):
        from privgraph.sorting import build_merge_circuit

        full = self.and_levels(build_sort_circuit(8).circuit)
        assert [self.and_levels(build_sort_circuit(k).circuit) for k in (5, 6, 7)] == [full] * 3
        full = self.and_levels(build_merge_circuit((8, 8)).circuit)
        assert self.and_levels(build_merge_circuit((3, 7)).circuit) == full

    def test_each_gate_above_its_inputs(self):
        # a level runs its XORs, then its ANDs, so a gate must come after
        # each input in (level, op) order; inputs come first
        for c in (build_sort_circuit(7).circuit, build_sort_circuit(13).circuit):
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

        c = (build_sort_circuit(shape) if kind == "sort" else build_merge_circuit(shape)).circuit
        assert (int(c.levels.max()), self.and_levels(c)) == (levels, and_levels)


class TestAndCounts:
    # build_sort_circuit(k).and_count for k = 1..20 before the first layer
    # ran its comparators in lockstep with the share adders: that change
    # moves gates between levels, never adds or removes one
    PINNED = [30, 124, 282, 510, 865, 1155, 1380, 1824, 2712, 3072, 3366, 3924, 4152,
              4644, 5070, 5840, 8081, 8513, 8878, 9578]

    def test_sort_and_counts_unchanged(self):
        assert [build_sort_circuit(k).and_count for k in range(1, 21)] == self.PINNED


class TestBitonicBuilder:
    # SHA-256 of the gate rows, input wires, output wires and wire count:
    # sorts and merges (k entries in two runs of k - k // 2 and k // 2) as
    # built since sentinels are wire crossings, not inputs, and an ascending
    # comparator is the one template with its operands exchanged, with the
    # INV-free carry chains of add_mod and less_than; a local sort's first
    # layer stamps each pair's two adders and comparator as one template; a
    # merge keeps only its payload outputs' cone, its wires renumbered
    PINNED = {
        ("sort", 1): "6a711a61b6c3363032d25d6a13dfea2b835d3c51a101dbd73b7ec9b5eca6efb4",
        ("sort", 3): "7c0553fa0fdd7784531795d7439dc9aae34ec9b411f5ccf51e6e07ba2fae9d96",
        ("sort", 8): "d06915fec32b5f0c580417ec4f14b6c598540c7144edc3f276fbf08f9b1383b2",
        ("sort", 13): "9d535447584b3d5ac79d86239750675ee495e628da16cf9d7dfe93675d7ae5fd",
        ("merge", 2): "95fd2bf8bab10fe9bd169d809effcf1378c5f2131bd1f5d6f20da16f7fbd2538",
        ("merge", 5): "004df62facbd0cecd08a536cec2582682b05dd0108ea5d90db61f51fc8318963",
        ("merge", 12): "412f42471d4399da1bcbc7d91cfec031eb6b77ae1c6d6043efd8aaaf359bc567",
    }

    @pytest.mark.parametrize("kind,k", sorted(PINNED))
    def test_gate_lists_unchanged(self, kind, k):
        from privgraph.sorting import build_merge_circuit

        if kind == "sort":
            circuit = build_sort_circuit(k).circuit
        else:
            circuit = build_merge_circuit((k - k // 2, k // 2)).circuit
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

        return [build_sort_circuit(13, 4).circuit, build_sort_circuit(9, 1).circuit,
                build_merge_circuit((5, 3, 1), 3).circuit, build_merge_circuit((6, 6)).circuit]

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
        full = build_sort_circuit(k).circuit
        for t in (k, k + 5):
            c = build_sort_circuit(k, t).circuit
            assert np.array_equal(c.gates, full.gates) and np.array_equal(c.levels, full.levels)
            assert (c.outputs, c.n_wires) == (full.outputs, full.n_wires)

    def test_kept_outputs_match_the_full_network(self):
        # the first t outputs of a pruned sort are the full sort's, bit for
        # bit, in plaintext and garbled
        from privgraph.garble import garble

        rng = np.random.default_rng(21)
        for k, t in ((13, 4), (9, 1), (6, 5)):
            full, top = build_sort_circuit(k), build_sort_circuit(k, t)
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
