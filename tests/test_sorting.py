import itertools
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import privgraph.sorting as sorting
from conftest import bit_rows, last_comparators, loopback_pair, merge_tree_schedule
from privgraph.circuits import merge_exchange, simulate
from privgraph.crypto import SCORE_BITS, SHARE_MODULUS, GroupContext
from privgraph.ot import OTError, OTPair, encode_ot_extend
from privgraph.sorting import (
    SortError,
    _sort_circuit,
    build_merge_circuit,
    global_sort_evaluator,
    global_sort_garbler,
    local_sort_evaluator,
    local_sort_garbler,
)
from privgraph.transport import MSG, ChannelClosed, Frame, Transcript, TransportError


def run_session(garbler_fn, evaluator_fn, transcript=None):
    chan_g, chan_e = loopback_pair("sort")
    for chan, party in ((chan_g, "g"), (chan_e, "e")):
        chan.transcript, chan.party = transcript, party
    out = {}
    errors = []

    def run(role, fn, chan):
        try:
            out[role] = fn(chan)
        except Exception as exc:
            errors.append(exc)
            chan.close()  # as IndexServer does: the peer fails at once

    threads = [
        threading.Thread(target=run, args=("g", garbler_fn, chan_g)),
        threading.Thread(target=run, args=("e", evaluator_fn, chan_e)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    for chan in (chan_g, chan_e):
        chan.close()  # the byte counters stay readable
    if errors:
        raise errors[0]
    return out["g"], out["e"], chan_g


def unmask(masked, masks):
    """The true scores of a local sort's output positions."""
    return [m ^ r for m, r in zip(masked, masks, strict=True)]


def split_shares(scores, rng):
    g = [int(rng.integers(0, SHARE_MODULUS)) for _ in scores]
    e = [(s - gs) % SHARE_MODULUS for s, gs in zip(scores, g)]
    return g, e


class TestLocalSort:
    def _sort(self, scores, seed=0):
        rng = np.random.default_rng(seed)
        g, e = split_shares(scores, rng)
        masks, (masked, order), _ = self._run(g, e)
        return masks, masked, order

    def _run(self, g, e):
        pair_g, pair_e = OTPair(GroupContext()), OTPair(GroupContext())
        masks, result, chan = run_session(
            lambda ch: local_sort_garbler(ch, 1, g, pair_g, width=SCORE_BITS),
            lambda ch: local_sort_evaluator(ch, 1, e, pair_e, width=SCORE_BITS),
        )
        return masks, result, chan

    def test_example(self):
        masks, masked, order = self._sort([5, 9, 2])
        assert order == [1, 0, 2]
        assert unmask(masked, masks) == [9, 5, 2]

    def test_all_equal(self):
        masks, masked, order = self._sort([7, 7, 7])
        assert sorted(order) == [0, 1, 2]
        assert unmask(masked, masks) == [7, 7, 7]

    def test_single_element(self):
        masks, masked, order = self._sort([42])
        assert order == [0] and unmask(masked, masks) == [42]

    def test_random_vectors(self):
        rng = np.random.default_rng(4)
        for trial in range(3):
            scores = [int(x) for x in rng.integers(1, 100, size=int(rng.integers(2, 20)))]
            masks, masked, order = self._sort(scores, seed=trial)
            assert unmask(masked, masks) == sorted(scores, reverse=True)
            assert [scores[i] for i in order] == sorted(scores, reverse=True)

    def test_masked_scores_hide_score_differences(self):
        # each output position has its own mask: equal true scores get
        # different masked scores, and no two masked scores XOR to their
        # true scores' XOR, so the evaluator learns only the ranks
        scores = [34, 1000, 34, 77, 34, 123456, 5]
        _, masked, order = self._sort(scores, seed=14)
        true = [scores[i] for i in order]
        assert len({m for m, s in zip(masked, true) if s == 34}) == 3
        for a, b in itertools.combinations(range(len(scores)), 2):
            assert masked[a] ^ masked[b] != true[a] ^ true[b], (true[a], true[b])

    def test_mask_hides_scores(self):
        # the evaluator's view differs across sessions with equal inputs
        rng = np.random.default_rng(5)
        g, e = split_shares([10, 20, 30], rng)
        _, (masked_a, _), _ = self._run(g, e)
        _, (masked_b, _), _ = self._run(g, e)
        assert masked_a != masked_b

    def test_share_count_mismatch(self):
        rng = np.random.default_rng(6)
        g, e = split_shares([1, 2, 3], rng)
        with pytest.raises(SortError):
            run_session(
                lambda ch: local_sort_garbler(ch, 1, g, OTPair(GroupContext()), width=SCORE_BITS),
                lambda ch: local_sort_evaluator(
                    ch, 1, e[:2], OTPair(GroupContext()), width=SCORE_BITS),
            )

    def test_empty_rejected(self):
        a, b = loopback_pair("x")
        try:
            with pytest.raises(SortError):
                local_sort_garbler(a, 1, [], OTPair(GroupContext()), width=SCORE_BITS)
        finally:
            a.close()
            b.close()


class TestGlobalSort:
    def _merge(self, vectors, seed=0, shard_order=None):
        """vectors: list of per-shard true score lists, empty ones included.
        Runs the local sorts, then the coordinator merge over every shard's
        contribution, handed over in shard_order (shard order by default);
        returns global (shard, index) order."""
        rng = np.random.default_rng(seed)
        contributions, masks = [], []
        for j, scores in enumerate(vectors):
            shard_masks, masked, order = [], [], []  # an empty shard's MASKS/CONTRIB
            if scores:
                g, e = split_shares(scores, rng)
                shard_masks, (masked, order), _ = run_session(
                    lambda ch, g=g: local_sort_garbler(
                        ch, j, g, OTPair(GroupContext()), width=SCORE_BITS),
                    lambda ch, e=e: local_sort_evaluator(
                        ch, j, e, OTPair(GroupContext()), width=SCORE_BITS),
                )
            masks.append(shard_masks)
            contributions.append((j, len(scores), masked, order))
        if shard_order is not None:
            contributions = [contributions[j] for j in shard_order]
        _, order, _ = run_session(
            lambda ch: global_sort_garbler(
                ch, 99, contributions, OTPair(GroupContext()), width=SCORE_BITS),
            lambda ch: global_sort_evaluator(
                ch, 99, masks, OTPair(GroupContext()), width=SCORE_BITS),
        )
        return order

    def test_two_shards(self):
        order = self._merge([[9, 5], [8, 1]])
        assert order == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_single_shard_degenerate(self):
        order = self._merge([[3, 14, 7]])
        assert order == [(0, 1), (0, 2), (0, 0)]

    def test_three_shard_merge_oracle(self):
        rng = np.random.default_rng(8)
        vectors = [
            [int(x) for x in rng.integers(1, 1000, size=5)] for _ in range(3)
        ]
        order = self._merge(vectors, seed=9)
        got = [vectors[j][i] for j, i in order]
        flat = sorted((s for v in vectors for s in v), reverse=True)
        assert got == flat

    def test_truncation_top_10(self):
        rng = np.random.default_rng(10)
        vectors = [
            [int(x) for x in rng.integers(1, 10_000, size=10)] for _ in range(3)
        ]
        order = self._merge(vectors, seed=11)
        top = [vectors[j][i] for j, i in order[:10]]
        flat = sorted((s for v in vectors for s in v), reverse=True)
        assert top == flat[:10]

    def test_empty_middle_shard(self):
        order = self._merge([[4, 9], [], [7, 1, 8]])
        assert order == [(0, 1), (2, 2), (2, 0), (0, 0), (2, 1)]

    def test_contributions_out_of_shard_order(self):
        vectors = [[12, 3], [8, 30, 5], [1], [20, 9]]
        order = self._merge(vectors, shard_order=(2, 0, 3, 1))
        assert [vectors[j][i] for j, i in order] == [30, 20, 12, 9, 8, 5, 3, 1]

    def test_empty_contributions_rejected(self):
        a, b = loopback_pair("x")
        try:
            with pytest.raises(SortError):
                global_sort_garbler(a, 1, [], OTPair(GroupContext()), width=SCORE_BITS)
        finally:
            a.close()
            b.close()

    @pytest.mark.parametrize(
        "contributions",
        [
            [(0, 2, [5, 6], [0, 0]), (1, 1, [7], [0])],  # a repeated index
            [(0, 2, [5, 6], [0, 2]), (1, 1, [7], [0])],  # an index past k - 1
            [(0, 2, [5, 6], [1, 0]), (0, 1, [7], [0])],  # a shard named twice
            [(0, 2, [5, 6], [1, 0]), (2, 1, [7], [0])],  # shard 1 missing
        ],
        ids=["repeated-index", "index-past-k", "shard-twice", "shard-missing"],
    )
    def test_malformed_contributions_rejected(self, contributions):
        # with dense payloads a stray index would alias another shard's entry
        a, b = loopback_pair("x")
        try:
            with pytest.raises(SortError):
                global_sort_garbler(a, 1, contributions, OTPair(GroupContext()), width=SCORE_BITS)
            assert a.bytes_sent == 0  # refused before the session opens
        finally:
            a.close()
            b.close()

    def test_header_counts_must_match_masks(self):
        contributions = [(0, 2, [5, 6], [1, 0]), (1, 1, [7], [0])]
        with pytest.raises(SortError, match="counts"):
            run_session(
                lambda ch: global_sort_garbler(
                    ch, 1, contributions, OTPair(GroupContext()), width=SCORE_BITS),
                lambda ch: global_sort_evaluator(
                    ch, 1, [[0], [0, 0]], OTPair(GroupContext()), width=SCORE_BITS),
            )


# (frame, payload bytes) each party sends in a k = 5, 3 and 1 local sort and
# in the 3-shard merge of their results. SORT_INIT holds one u32 count per
# shard. The evaluator opens its extension before the garbler garbles, so
# the garbler answers the OT's set-up first, then sends the circuit, its
# labels in one GARBLER_LABELS frame and the OT's corrections in one flight.
# A sort of t entries takes t·31 transfers, each a correlated OT of one
# 16-byte correction, so OT_PAYLOAD = 31 · 16 · t bytes. A local sort runs
# k adders of 30 ANDs and merge exchange's comparators (k = 5: 9, k = 3:
# 3), each of 31 + 31 + payload ANDs; its labels are 31 share and payload
# bits an entry. The merge's payloads are numbered densely over its 9
# entries (4 bits); its tree's odd-even merges keep 10 + 8 comparators of
# 31 + 31 + 4 ANDs, less the 31 score-swap ANDs of each of the 4 that no
# later comparator follows, whose scores no output reads, and its labels
# are 31 masked-score and 4 payload bits an entry. Under half-gates an AND
# costs 32 bytes, so CIRCUIT_BLOB = 12 + 32 · ANDs + ⌈outputs / 8⌉ (k = 5:
# 735 ANDs and 5 · 34 outputs). Each session here is a pair's first, so
# it sets up: the evaluator sends the base OT's point A (33 bytes,
# compressed) and 128 ciphertext pairs, the garbler 128 points B.
# OT_EXTEND carries the 20-byte header that names its state and block
# range.
_EVALUATOR_OT = [("OT_SETUP", 33), ("OT_SETUP", 4096)]
PINNED_FRAMES = [
    (  # local, k = 5
        [("SORT_INIT", 4), ("OT_SETUP", 4224), ("CIRCUIT_BLOB", 23554),
         ("GARBLER_LABELS", 2480 + 240), ("OT_PAYLOAD", 2480)],
        _EVALUATOR_OT + [("OT_EXTEND", 20 + 2560)],
    ),
    (  # local, k = 3
        [("SORT_INIT", 4), ("OT_SETUP", 4224), ("CIRCUIT_BLOB", 9049),
         ("GARBLER_LABELS", 1488 + 96), ("OT_PAYLOAD", 1488)],
        _EVALUATOR_OT + [("OT_EXTEND", 20 + 1536)],
    ),
    (  # local, k = 1
        [("SORT_INIT", 4), ("OT_SETUP", 4224), ("CIRCUIT_BLOB", 976),
         ("GARBLER_LABELS", 496 + 16), ("OT_PAYLOAD", 496)],
        _EVALUATOR_OT + [("OT_EXTEND", 20 + 512)],
    ),
    (  # merge of 9 entries from 3 shards
        [("SORT_INIT", 12), ("OT_SETUP", 4224), ("CIRCUIT_BLOB", 34065),
         ("GARBLER_LABELS", 4464 + 576), ("OT_PAYLOAD", 4464)],
        _EVALUATOR_OT + [("OT_EXTEND", 20 + 4480)],
    ),
]

# The same sorts at the sort key's 7 bits (scoring.score_width(None)): an
# adder has 6 ANDs and a comparator 7 + 7 + payload, so k = 5 takes 5·6 +
# 9·17 = 183 ANDs and 5 · 10 outputs, k = 3 66 ANDs, k = 1 6, and the merge
# 18·18 - 4·7 = 296. A transfer, a share's and a mask's labels and a
# masked score's are 7 an entry; OT_EXTEND's matrix is 128 columns of
# ⌈transfers / 8⌉ bytes.
PINNED_FRAMES_7 = [
    (  # local, k = 5
        [("SORT_INIT", 4), ("OT_SETUP", 4224), ("CIRCUIT_BLOB", 12 + 32 * 183 + 7),
         ("GARBLER_LABELS", 560 + 240), ("OT_PAYLOAD", 560)],
        _EVALUATOR_OT + [("OT_EXTEND", 20 + 128 * 5)],
    ),
    (  # local, k = 3
        [("SORT_INIT", 4), ("OT_SETUP", 4224), ("CIRCUIT_BLOB", 12 + 32 * 66 + 4),
         ("GARBLER_LABELS", 336 + 96), ("OT_PAYLOAD", 336)],
        _EVALUATOR_OT + [("OT_EXTEND", 20 + 128 * 3)],
    ),
    (  # local, k = 1
        [("SORT_INIT", 4), ("OT_SETUP", 4224), ("CIRCUIT_BLOB", 12 + 32 * 6 + 1),
         ("GARBLER_LABELS", 112 + 16), ("OT_PAYLOAD", 112)],
        _EVALUATOR_OT + [("OT_EXTEND", 20 + 128 * 1)],
    ),
    (  # merge of 9 entries from 3 shards
        [("SORT_INIT", 12), ("OT_SETUP", 4224), ("CIRCUIT_BLOB", 12 + 32 * 296 + 5),
         ("GARBLER_LABELS", 1008 + 576), ("OT_PAYLOAD", 1008)],
        _EVALUATOR_OT + [("OT_EXTEND", 20 + 128 * 8)],
    ),
]


def wire_sequence(width: int) -> tuple:
    """The (frame, payload bytes) each party sends in k = 5, 3 and 1 local
    sorts at this score width and in the 3-shard merge of their results."""
    rng = np.random.default_rng(12)
    transcripts = [Transcript() for _ in range(4)]
    masks, contributions = [], []
    for shard, k in enumerate([5, 3, 1]):
        g, e = split_shares([int(x) for x in rng.integers(1, 101, size=k)], rng)
        shard_masks, (masked, order), _ = run_session(
            lambda ch, g=g, j=shard: local_sort_garbler(
                ch, j, g, OTPair(GroupContext()), width=width),
            lambda ch, e=e, j=shard: local_sort_evaluator(
                ch, j, e, OTPair(GroupContext()), width=width),
            transcripts[shard],
        )
        masks.append(shard_masks)
        contributions.append((shard, k, masked, order))
    run_session(
        lambda ch: global_sort_garbler(ch, 9, contributions, OTPair(GroupContext()), width=width),
        lambda ch: global_sort_evaluator(ch, 9, masks, OTPair(GroupContext()), width=width),
        transcripts[3],
    )
    return tuple(
        tuple(
            [(f.name, len(f.payload)) for p, d, f in transcript.entries
             if d == "send" and p == party]
            for party in ("g", "e")
        )
        for transcript in transcripts
    )


class TestWireSequence:
    def test_frames_pinned(self):
        assert wire_sequence(SCORE_BITS) == tuple(PINNED_FRAMES)

    def test_frames_pinned_at_7_bits(self):
        assert wire_sequence(7) == tuple(PINNED_FRAMES_7)

    def test_single_run_merge_sends_no_score_or_mask_labels(self):
        # a merge of one shard's run compares nothing, so its circuit reads
        # no score and no mask: the garbler sends only payload labels, the
        # evaluator takes no label by OT and sends no frame at all, and it
        # still decodes the run's order
        transcript = Transcript()
        _, order, _ = run_session(
            lambda ch: global_sort_garbler(ch, 9, [(0, 3, [11, 5, 9], [2, 0, 1])],
                                           OTPair(GroupContext()), width=SCORE_BITS),
            lambda ch: global_sort_evaluator(
                ch, 9, [[1, 2, 3]], OTPair(GroupContext()), width=SCORE_BITS),
            transcript,
        )
        assert order == [(0, 2), (0, 0), (0, 1)]
        sent = [
            [(f.name, len(f.payload)) for p, d, f in transcript.entries
             if d == "send" and p == party]
            for party in ("g", "e")
        ]
        # 3 entries with 2-bit payloads: no tables, 6 decode bits
        assert sent == [
            [("SORT_INIT", 4), ("CIRCUIT_BLOB", 12 + 1), ("GARBLER_LABELS", 16 * 3 * 2)],
            [],
        ]


def _garbler_fails_at(name, edit=None):
    """Make a garbler's channel fail at its first name frame: close the
    channel there, or with edit send the frame's payload rewritten."""

    def fail(chan):
        real_send = chan.send

        def send(frame):
            if frame.name == name:
                if edit is None:
                    chan.close()
                    raise ChannelClosed(f"the garbler gave up before {name}")
                frame = Frame(frame.type, frame.session, edit(frame.payload))
            real_send(frame)

        chan.send = send
        return chan

    return fail


class TestEarlyExtension:
    """The evaluator sends its OT_EXTEND before the garbler garbles, and
    the garbler answers in one flight."""

    @pytest.mark.parametrize(
        "fail",
        [_garbler_fails_at("CIRCUIT_BLOB"), _garbler_fails_at("OT_PAYLOAD", lambda p: p[:-16])],
        ids=["channel-closed", "short-payload"],
    )
    def test_failure_after_the_extension_drops_the_receiver_state(self, fail):
        pair_g, pair_e = OTPair(GroupContext()), OTPair(GroupContext())
        g, e = split_shares([5, 9, 2], np.random.default_rng(15))

        def sort(transcript=None):
            return run_session(
                lambda ch: local_sort_garbler(ch, 1, g, pair_g, width=SCORE_BITS),
                lambda ch: local_sort_evaluator(ch, 1, e, pair_e, width=SCORE_BITS),
                transcript,
            )

        sort()
        assert pair_e._state is not None
        evaluator_errors = []

        def evaluator(ch):
            try:
                return local_sort_evaluator(ch, 1, e, pair_e, width=SCORE_BITS)
            except Exception as exc:
                evaluator_errors.append(exc)
                raise

        with pytest.raises(TransportError):
            run_session(
                lambda ch: local_sort_garbler(fail(ch), 1, g, pair_g, width=SCORE_BITS), evaluator
            )
        assert len(evaluator_errors) == 1 and isinstance(evaluator_errors[0], TransportError)
        assert pair_e._state is None  # dropped: the next session sets up afresh
        transcript = Transcript()
        masks, (masked, order), _ = sort(transcript)
        assert order == [1, 0, 2] and unmask(masked, masks) == [9, 5, 2]
        evaluator_setup = [f for p, d, f in transcript.entries
                           if p == "e" and d == "send" and f.name == "OT_SETUP"]
        assert len(evaluator_setup) == 2

    def test_garbler_checks_the_transfer_count_before_it_garbles(self, monkeypatch):
        # an evaluator that opens an extension of 8 transfers, where the
        # circuit's evaluator bundle is 3 shares of 31 bits
        garbled = []
        monkeypatch.setattr(sorting, "garble", lambda *a, **k: garbled.append(a))

        def evaluator(ch):
            ch.expect("SORT_INIT")
            ch.send(Frame(MSG["OT_EXTEND"], 1, encode_ot_extend(b"\0" * 8, 0, 8, bytes(128))))
            ch.recv()  # the garbler closes the session

        with pytest.raises(OTError, match="8 transfers, expected 93"):
            run_session(
                lambda ch: local_sort_garbler(
                    ch, 1, [1, 2, 3], OTPair(GroupContext()), width=SCORE_BITS),
                evaluator,
            )
        assert garbled == []

    def test_large_sort_over_a_socket_pair(self):
        # k = 256: a ~124 KB OT_EXTEND, then an ~11 MB CIRCUIT_BLOB; each
        # party sends only while its peer reads, so neither blocks
        scores = [int(x) for x in np.random.default_rng(16).integers(0, 1000, size=256)]
        g, e = split_shares(scores, np.random.default_rng(17))
        masks, (masked, order), _ = run_session(
            lambda ch: local_sort_garbler(ch, 1, g, OTPair(GroupContext()), width=SCORE_BITS),
            lambda ch: local_sort_evaluator(ch, 1, e, OTPair(GroupContext()), width=SCORE_BITS),
        )
        assert unmask(masked, masks) == sorted(scores, reverse=True)
        assert [scores[i] for i in order] == sorted(scores, reverse=True)


class TestCircuitCache:
    def test_one_circuit_per_shape(self):
        # a sort's shape is its count split and score width: one circuit
        # for each
        def sort(counts, width=SCORE_BITS):
            return _sort_circuit(counts, width=width)

        def merge(counts, width=SCORE_BITS):
            return build_merge_circuit(counts, width=width)

        assert sort((5,)) is sort((5,))
        assert sort((5,)).circuit is not sort((7,)).circuit
        assert (sort((5,)).k, sort((7,)).k) == (5, 7)
        assert merge((3, 3)).circuit is not merge((4, 2)).circuit
        assert merge((3, 3)).k == 6
        assert merge((4, 4)).circuit is not sort((8,)).circuit
        assert sort((5,), 7) is sort((5,), 7) and sort((5,), 7).circuit is not sort((5,)).circuit
        assert merge((3, 3), 7).circuit is not merge((3, 3)).circuit
        assert (sort((5,), 7).width, merge((3, 3), 7).width, sort((5,)).width) == (7, 7, SCORE_BITS)

    @pytest.mark.parametrize(
        "builder,lookup,counts",
        [("build_sort_circuit", _sort_circuit, (29,)),
         ("_merge_network", build_merge_circuit, (13, 11, 2))],
        ids=["sort", "merge"],
    )
    def test_concurrent_misses_share_one_circuit(self, monkeypatch, builder, lookup, counts):
        # the first lookup is held inside its build while seven more look
        # the same fresh shape up: they must wait for the build, not repeat it
        lookup.cache_clear()
        building, builds = threading.Event(), []
        build = getattr(sorting, builder)

        def slow_build(*shape, **width):
            builds.append(shape)
            building.set()
            time.sleep(0.5)
            return build(*shape, **width)

        monkeypatch.setattr(sorting, builder, slow_build)
        got = []
        threads = [threading.Thread(target=lambda: got.append(lookup(counts, width=SCORE_BITS)))
                   for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads[0].start()
            assert building.wait(timeout=60)
            for t in threads[1:]:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(builds) == 1
        assert len(got) == 8 and all(sc.circuit is got[0].circuit for sc in got)


def merge_ands(counts) -> int:
    """ANDs of the merge tree over runs of these counts: its comparators'
    31-bit score compare, score swap and payload swap, less the score
    swap of each comparator that no later one follows, since the merge
    outputs payloads only."""
    schedule = merge_tree_schedule(counts)
    pw = sum(counts).bit_length()
    return len(schedule) * (2 * SCORE_BITS + pw) - last_comparators(schedule) * SCORE_BITS


class TestMergeCircuit:
    def test_comparator_count_in_ands(self):
        # one odd-even merge of n - 3 and 3 entries: (5, 3), (13, 3) and
        # (29, 3) take 10, 24 and 52 comparators, of which 3, 7 and 15 are
        # last on both their lines
        for n, comparators in ((8, 10), (16, 24), (32, 52)):
            sc = build_merge_circuit((n - 3, 3), width=SCORE_BITS)
            assert len(merge_tree_schedule((n - 3, 3))) == comparators
            assert sc.and_count == merge_ands((n - 3, 3)), n

    def test_tree_comparators_in_ands(self):
        # (5, 3) merge in 10 comparators, then their 8 entries and shard
        # 2's one in 8 more; the root's last 4 swap no score
        sc = build_merge_circuit((5, 3, 1), width=SCORE_BITS)
        schedule = merge_tree_schedule((5, 3, 1))
        assert (len(schedule), last_comparators(schedule)) == (10 + 8, 4)
        assert sc.and_count == 18 * (2 * SCORE_BITS + 4) - 4 * SCORE_BITS
        # one run: nothing to merge
        assert build_merge_circuit((7,), width=SCORE_BITS).and_count == 0

    def test_tree_costs_no_more_than_a_full_sort(self):
        # the root merges 9 and 7 entries
        counts = (3,) * 5 + (1,)
        sc = build_merge_circuit(counts, width=SCORE_BITS)
        assert sc.and_count == 57 * (2 * SCORE_BITS + 5) - 7 * SCORE_BITS
        assert 57 <= len(merge_exchange(16))
        # the shards' layouts: two runs of any lengths, and equal runs; a
        # tree of many unequal runs can cost more (test_transport's cap)
        for a in range(1, 33):
            for b in range(1, 33):
                assert len(merge_tree_schedule((a, b))) <= len(merge_exchange(a + b)), (a, b)
        for r in range(1, 9):
            for n in range(2, 64 // r + 1):
                assert len(merge_tree_schedule((r,) * n)) <= len(merge_exchange(r * n)), (r, n)

    @pytest.mark.parametrize("counts", [(4, 4), (7, 2), (5, 3, 1), (1, 6, 2, 5)])
    def test_merges_ties_under_simulate(self, counts):
        # scores from a set of three, so most entries tie: each run comes
        # in descending, and the payloads come out in an order that
        # descends by score
        rng = np.random.default_rng(sum(counts))
        sc = build_merge_circuit(counts, width=SCORE_BITS)
        total, pw = sum(counts), sc.payload_width
        scores = np.concatenate(
            [-np.sort(-rng.choice([0, 5, 1 << 30], size=(30, c)), axis=1) for c in counts], axis=1
        )
        masks = rng.integers(0, 1 << 31, size=(30, total))
        out = simulate(sc.circuit, {
            "masked_scores": bit_rows(scores ^ masks, SCORE_BITS),
            "masks": bit_rows(masks, SCORE_BITS),
            "payloads": bit_rows(np.tile(np.arange(total), (30, 1)), pw),
        })
        orders = (out.reshape(30, total, pw).astype(int) << np.arange(pw)).sum(axis=2)
        for row, order in zip(scores, orders):
            assert sorted(order.tolist()) == list(range(total))
            assert row[order].tolist() == sorted(row.tolist(), reverse=True)

    def test_oversize_rejected(self):
        with pytest.raises(ValueError):
            build_merge_circuit((5000,), width=SCORE_BITS)


class TestLocalSortNetwork:
    @pytest.mark.parametrize("k", [3, 5, 12, 17])
    def test_pruned_comparators_in_ands(self, k):
        # adders k·(31 - 1), merge exchange's comparators of 31 + 31 +
        # payload ANDs each
        pw = k.bit_length()
        ands = _sort_circuit((k,), width=SCORE_BITS).and_count
        assert ands == k * (SCORE_BITS - 1) + len(merge_exchange(k)) * (2 * SCORE_BITS + pw)


# a score drawn from the edges of the 31-bit range, or anywhere in it
_SCORES = st.one_of(
    st.sampled_from([0, 1, SHARE_MODULUS - 1]), st.integers(0, SHARE_MODULUS - 1)
)


class TestMergeOracle:
    """The garbled merge against a plaintext oracle: each shard's CONTRIB
    made directly (scores in rank order, each masked with its position's
    mask, with their local indices), the decoded order checked against the
    descending sort of every score."""

    @pytest.fixture(scope="class")
    def pairs(self):
        """One OT pair per side for every merge here: the base OT runs once."""
        return OTPair(GroupContext()), OTPair(GroupContext())

    def _merge(self, pairs, vectors, rng):
        contributions, masks = [], []
        for shard, scores in enumerate(vectors):
            shard_masks = [int(m) for m in rng.integers(0, SHARE_MODULUS, size=len(scores))]
            order = sorted(range(len(scores)), key=lambda i: -scores[i])
            masked = [scores[i] ^ m for i, m in zip(order, shard_masks)]
            contributions.append((shard, len(scores), masked, order))
            masks.append(shard_masks)
        pair_g, pair_e = pairs
        _, order, _ = run_session(
            lambda ch: global_sort_garbler(ch, 7, contributions, pair_g, width=SCORE_BITS),
            lambda ch: global_sort_evaluator(ch, 7, masks, pair_e, width=SCORE_BITS),
        )
        assert sorted(order) == [(j, i) for j, v in enumerate(vectors) for i in range(len(v))]
        flat = sorted((s for v in vectors for s in v), reverse=True)
        assert [vectors[j][i] for j, i in order] == flat

    @seed(20261018)
    @settings(max_examples=40, deadline=None, database=None)
    @given(
        vectors=st.lists(st.lists(_SCORES, max_size=9), min_size=1, max_size=4).filter(
            lambda vs: any(vs)
        ),
        salt=st.integers(0, 2**32 - 1),
    )
    def test_matches_oracle(self, pairs, vectors, salt):
        self._merge(pairs, vectors, np.random.default_rng(salt))

    def test_score_zero_entries_survive_the_tree(self, pairs):
        # real zeros tie within and across runs, and every zero is among
        # the (2, 3) node's 5 entries that the root merges on
        self._merge(pairs, [[5, 0], [0, 0, 0], [7, 0, 0]], np.random.default_rng(13))


class TestLocalSortOracle:
    """The garbled local sort against a plaintext oracle, real scores of 0
    and ties included: the evaluator's order descends by true score, and
    unmasking each output position with the garbler's mask for it gives
    the sorted scores."""

    @pytest.fixture(scope="class")
    def pairs(self):
        """One OT pair per side for every sort here: the base OT runs once."""
        return OTPair(GroupContext()), OTPair(GroupContext())

    @seed(20261019)
    @settings(max_examples=40, deadline=None, database=None)
    @given(scores=st.lists(_SCORES, min_size=1, max_size=17), salt=st.integers(0, 2**32 - 1))
    def test_matches_oracle(self, pairs, scores, salt):
        g, e = split_shares(scores, np.random.default_rng(salt))
        pair_g, pair_e = pairs
        masks, (masked, order), _ = run_session(
            lambda ch: local_sort_garbler(ch, 3, g, pair_g, width=SCORE_BITS),
            lambda ch: local_sort_evaluator(ch, 3, e, pair_e, width=SCORE_BITS),
        )
        want = sorted(scores, reverse=True)
        assert sorted(order) == list(range(len(scores)))
        assert [scores[i] for i in order] == want
        assert unmask(masked, masks) == want


class TestTopK:
    """Sorts that keep only their first t entries: each shard contributes
    its top min(k, t), and the merge of those returns the first t of the
    descending sort of every score, ties included."""

    @pytest.fixture(scope="class")
    def pairs(self):
        return OTPair(GroupContext()), OTPair(GroupContext())

    @seed(20261020)
    @settings(max_examples=40, deadline=None, database=None)
    @given(
        # scores from a small range, so that ties straddle the cut
        vectors=st.lists(st.lists(st.integers(0, 5), max_size=9), min_size=1, max_size=4).filter(
            lambda vs: any(vs)
        ),
        t=st.integers(1, 12),
        salt=st.integers(0, 2**32 - 1),
    )
    def test_top_t_merge_matches_oracle(self, pairs, vectors, t, salt):
        rng = np.random.default_rng(salt)
        contributions, masks = [], []
        for shard, scores in enumerate(vectors):
            order = sorted(range(len(scores)), key=lambda i: -scores[i])[:t]
            shard_masks = [int(m) for m in rng.integers(0, SHARE_MODULUS, size=len(order))]
            masked = [scores[i] ^ m for i, m in zip(order, shard_masks)]
            contributions.append((shard, len(scores), masked, order))
            masks.append(shard_masks)
        pair_g, pair_e = pairs
        _, order, _ = run_session(
            lambda ch: global_sort_garbler(ch, 7, contributions, pair_g, t, width=SCORE_BITS),
            lambda ch: global_sort_evaluator(ch, 7, masks, pair_e, t, width=SCORE_BITS),
        )
        flat = sorted((s for v in vectors for s in v), reverse=True)
        assert len(set(order)) == len(order) == min(t, len(flat))
        assert all(i in c[3] for j, i in order for c in contributions if c[0] == j)
        assert [vectors[j][i] for j, i in order] == flat[:t]

    @pytest.mark.parametrize("scores,t", [([5, 9, 2, 9, 7], 2), ([4, 4, 4], 1), ([3, 8], 5)])
    def test_local_sort_keeps_its_first_t(self, pairs, scores, t):
        g, e = split_shares(scores, np.random.default_rng(len(scores)))
        pair_g, pair_e = pairs
        masks, (masked, order), _ = run_session(
            lambda ch: local_sort_garbler(ch, 3, g, pair_g, t, width=SCORE_BITS),
            lambda ch: local_sort_evaluator(ch, 3, e, pair_e, t, width=SCORE_BITS),
        )
        want = sorted(scores, reverse=True)[:t]
        assert len(masks) == len(order) == len(set(order)) == min(t, len(scores))
        assert [scores[i] for i in order] == want and unmask(masked, masks) == want

    @pytest.mark.parametrize("t_g,t_e", [(2, 3), (3, 4)])
    def test_halves_must_agree_on_t(self, t_g, t_e):
        # the evaluator checks the circuit against its own t: t = 3 and 4
        # of 4 entries differ in no AND gate, only in their decode bits
        g, e = split_shares([5, 9, 2, 7], np.random.default_rng(2))
        with pytest.raises(TransportError, match="circuit has"):
            run_session(
                lambda ch: local_sort_garbler(
                    ch, 3, g, OTPair(GroupContext()), t_g, width=SCORE_BITS),
                lambda ch: local_sort_evaluator(
                    ch, 3, e, OTPair(GroupContext()), t_e, width=SCORE_BITS),
            )

    def test_merge_counts_must_truncate_to_the_masks(self):
        # shard 0 holds 4 results; its MASKS must bring min(4, t = 2) masks
        contributions = [(0, 4, [5, 6], [1, 0]), (1, 1, [7], [0])]
        with pytest.raises(SortError, match="counts"):
            run_session(
                lambda ch: global_sort_garbler(
                    ch, 1, contributions, OTPair(GroupContext()), 2, width=SCORE_BITS),
                lambda ch: global_sort_evaluator(
                    ch, 1, [[0, 0, 0], [0]], OTPair(GroupContext()), 2, width=SCORE_BITS
                ),
            )

    def test_truncated_contribution_checked(self):
        # with t = 2 a shard of 4 results contributes exactly 2 distinct
        # indices below 4
        a, b = loopback_pair("x")
        try:
            for entries in (([5], [3]), ([5, 6, 7], [3, 0, 1]), ([5, 6], [3, 4])):
                with pytest.raises(SortError):
                    global_sort_garbler(
                        a, 1, [(0, 4, *entries)], OTPair(GroupContext()), 2, width=SCORE_BITS)
            assert a.bytes_sent == 0
        finally:
            a.close()
            b.close()

    def test_top_t_shares_the_full_circuit_when_it_keeps_everything(self):
        assert _sort_circuit((5,), 5, width=SCORE_BITS) is _sort_circuit((5,), width=SCORE_BITS)
        assert build_merge_circuit((3, 2), 9, width=SCORE_BITS) is build_merge_circuit(
            (3, 2), width=SCORE_BITS)
        assert build_merge_circuit((3, 2), 4, width=SCORE_BITS).t == 4
        # a merge of the first 2 of (5, 3, 1) keeps fewer gates than of all
        top = build_merge_circuit((5, 3, 1), 2, width=SCORE_BITS)
        full = build_merge_circuit((5, 3, 1), width=SCORE_BITS)
        assert top.and_count < full.and_count
