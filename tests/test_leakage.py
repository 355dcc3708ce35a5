import numpy as np
import pytest

from conftest import random_graph
from privgraph import crypto
from privgraph.builder import PartitionConfig, build_edb
from privgraph.cluster import LocalCluster
from privgraph.crypto import SHARE_MODULUS, hash_to_shard
from privgraph.graph import PlaintextEngine, build_inverted_index
from privgraph.leakage import (
    QueryRecord,
    _contrib_leak,
    audit_transcript,
    check_transcript_consistency,
    compute_leakage,
)
from privgraph.server import _decode_contrib, _encode_contrib
from privgraph.sexpr import parse_sexpr
from privgraph.transport import MSG, Frame, Transcript

KEYS = crypto.MasterKeyBundle(*(bytes([i + 9]) * 16 for i in range(5)))


@pytest.fixture(scope="module")
def corpus():
    graph = random_graph(30, 200, seed=77)
    index = build_inverted_index(graph)
    return index, PlaintextEngine(index)


def terms_by_size(index, n):
    return sorted(index, key=lambda t: -len(index[t]))[:n]


class TestProfile:
    def test_single_term_query(self, corpus):
        index, _ = corpus
        term = terms_by_size(index, 1)[0]
        profile = compute_leakage(index, [QueryRecord.make(f"(term {term})")])
        assert profile.n_total == sum(len(p) for p in index.values())
        assert profile.sp == [[[len(index[term])]]]
        assert profile.xp == [[0]]
        assert profile.phi_shapes == [[""]]
        assert profile.rp == {}
        assert profile.ranks == [None]

    def test_repeat_pattern(self, corpus):
        index, _ = corpus
        t = terms_by_size(index, 2)
        queries = [
            QueryRecord.make(f"(and {t[0]} {t[1]})"),
            QueryRecord.make(f"(and {t[0]} {t[1]})"),
            QueryRecord.make(f"(term {t[1]})"),
        ]
        profile = compute_leakage(index, queries)
        # the second query re-uses the first query's s-term slot
        assert profile.s_bar[0] == [0]
        assert profile.s_bar[1] == [0]

    def test_rp_is_pairwise_conjunction(self, corpus):
        index, engine = corpus
        t = terms_by_size(index, 2)
        profile = compute_leakage(index, [QueryRecord.make(f"(and {t[0]} {t[1]})")])
        (key,) = profile.rp
        s_term, x_term = key
        want = index[s_term].ids() & index[x_term].ids()
        assert set(profile.rp[key]) == want

    def test_ip_same_xterms_different_sterm(self, corpus):
        index, _ = corpus
        t = terms_by_size(index, 3)
        queries = [
            QueryRecord.make(f"(difference {t[0]} {t[2]})"),
            QueryRecord.make(f"(difference {t[1]} {t[2]})"),
        ]
        profile = compute_leakage(index, queries)
        assert (0, 1) in profile.ip
        assert set(profile.ip[(0, 1)]) == index[t[0]].ids() & index[t[1]].ids()

    def test_block_counts_derivable(self, corpus):
        # a TSet shard's clear block counters, ceil(SP / B), follow from SP
        index, _ = corpus
        term = terms_by_size(index, 1)[0]
        profile = compute_leakage(index, [QueryRecord.make(f"(term {term})")])
        assert profile.sp == [[[len(index[term])]]]

    def test_matches_independent_recomputation(self, corpus):
        """Dual-path check: recompute SP and survivor counts by brute-force
        set algebra, no shared code path."""
        index, _ = corpus
        t = terms_by_size(index, 3)
        shards = 2
        queries = [
            QueryRecord.make(f"(and {t[1]} {t[0]})"),
            QueryRecord.make(f"(or {t[0]} {t[1]} {t[2]})"),
        ]
        profile = compute_leakage(index, queries, n_shards=shards)
        # query 0: smaller posting list is traversed
        s = t[1] if len(index[t[1]]) <= len(index[t[0]]) else t[0]
        x = t[0] if s == t[1] else t[1]
        sp0 = [0, 0]
        surv0 = [0, 0]
        for _, eid in index[s].entries:
            j = hash_to_shard(eid, shards)
            sp0[j] += 1
            if eid in index[x].ids():
                surv0[j] += 1
        assert profile.sp[0] == [sp0]
        assert profile.result_counts[0] == [surv0]
        # query 1: three disjoint subqueries whose survivors union the or
        total = sum(sum(c) for c in profile.result_counts[1])
        assert total == len(index[t[0]].ids() | index[t[1]].ids() | index[t[2]].ids())


@pytest.fixture(scope="module")
def run():
    graph = random_graph(30, 200, seed=77)
    index = build_inverted_index(graph)
    engine = PlaintextEngine(index)
    edb = build_edb(
        index, KEYS, crypto.GroupContext(),
        PartitionConfig(shards_per_cluster=2, seed=77),
    )
    transcript = Transcript()
    t = terms_by_size(index, 3)
    queries = [
        QueryRecord.make(f"(term {t[0]})"),
        QueryRecord.make(f"(and {t[0]} {t[1]})"),
        QueryRecord.make(f"(and {t[0]} {t[1]})"),  # repeat
        QueryRecord.make(f"(or {t[0]} {t[1]} {t[2]})", sort=True),
    ]
    with LocalCluster(edb, transcript=transcript, timeout=30.0) as cluster:
        fe = cluster.front_end(KEYS, lengths=engine.lengths, timeout=60.0)
        for record in queries:
            fe.query(record.expr, sort=record.sort)
    profile = compute_leakage(index, queries, n_shards=2)
    return index, transcript, profile


class TestAudit:
    def test_honest_run_audits_clean(self, run):
        _, transcript, _ = run
        report = audit_transcript(transcript, forbidden=tuple(KEYS.__dict__.values()))
        assert not report.violations, report.violations
        assert "stag + formula shape + x-term count (XP) + top k" in report.class_counts
        assert "tuple counts (SP)" in report.class_counts
        assert "ranks" in report.class_counts

    def test_consistent_with_profile(self, run):
        _, transcript, profile = run
        verdict = check_transcript_consistency(profile, transcript)
        assert not verdict.violations, verdict.violations

    def test_injected_key_material_detected(self, run):
        _, transcript, _ = run
        leaky = Transcript(entries=list(transcript.entries))
        leaky.record(
            "is00", "send",
            Frame(MSG["ERROR"], 1, b"debug dump: " + KEYS.k_stag),
        )
        report = audit_transcript(leaky, forbidden=(KEYS.k_stag,))
        assert report.violations
        assert any("forbidden" in v for v in report.violations)

    def test_key_material_cut_across_frames_detected(self, run):
        # 12 bytes from the middle of a key, as a nonce might carry them:
        # the key never appears whole, 8 bytes of it in a row do
        _, transcript, _ = run
        key = KEYS.k_x
        leaky = Transcript(entries=list(transcript.entries))
        leaky.record("is00", "send", Frame(MSG["ERROR"], 1, b"nonce:" + key[2:14]))
        report = audit_transcript(leaky, forbidden=(key,))
        assert any("forbidden" in v for v in report.violations), report.violations
        seven = Transcript(entries=list(transcript.entries))
        seven.record("is00", "send", Frame(MSG["ERROR"], 1, key[:7] + b"." + key[8:15]))
        assert not audit_transcript(seven, forbidden=(key,)).violations

    def test_injected_plaintext_result_detected(self, run):
        _, transcript, _ = run
        leaky = Transcript(entries=list(transcript.entries))
        # a RESULT frame whose body is not whole ciphertexts
        leaky.record(
            "is01", "send",
            Frame(MSG["RESULT"], 2, b"\x00\x01" + b"\x00\x00\x00\x02" + b"ids:4,9"),
        )
        report = audit_transcript(leaky)
        assert any("RESULT" in v for v in report.violations)

    def test_tampered_ranking_flagged(self, run):
        index, transcript, profile = run
        import copy

        wrong = copy.deepcopy(profile)
        if wrong.ranks[3]:
            wrong.ranks[3] = list(reversed(wrong.ranks[3]))
            if wrong.ranks[3] == profile.ranks[3]:
                wrong.ranks[3] = wrong.ranks[3] + [1]
        verdict = check_transcript_consistency(wrong, transcript)
        assert verdict.violations

    def test_one_mask_per_shard_flagged(self, run):
        # a CONTRIB whose scores share one mask reveals every XOR of two
        # true scores; the honest one masks each position afresh
        _, transcript, profile = run
        entries, rewritten = [], 0
        for party, direction, frame in transcript.entries:
            if frame.type == MSG["CONTRIB"] and direction == "send":
                shard, status, contrib, count = _decode_contrib(frame.payload)
                true = profile.survivor_scores[3][shard]
                one_mask = [(true[i] ^ 0x5A5A5A5, i) for _, i in contrib]
                frame = Frame(
                    frame.type, frame.session, _encode_contrib(shard, status, one_mask, count)
                )
                rewritten += len(contrib) > 1
            entries.append((party, direction, frame))
        assert rewritten
        verdict = check_transcript_consistency(profile, Transcript(entries=entries))
        assert any("CONTRIB" in v for v in verdict.violations), verdict.violations


SCORES = ["(mul key key)", "(mul key -1)", "(add (mul key -1) 200)"]


@pytest.fixture(scope="module")
def scored_run():
    """Three honest sorted sessions of one disjunction, one per formula."""
    graph = random_graph(30, 200, seed=79)
    index = build_inverted_index(graph)
    engine = PlaintextEngine(index)
    edb = build_edb(
        index, KEYS, crypto.GroupContext(),
        PartitionConfig(shards_per_cluster=2, seed=79),
    )
    t = terms_by_size(index, 3)
    text = f"(or {t[0]} {t[1]} {t[2]})"
    queries = [QueryRecord.make(text, sort=True, score=score) for score in SCORES]
    transcript = Transcript()
    with LocalCluster(edb, transcript=transcript, timeout=30.0) as cluster:
        fe = cluster.front_end(KEYS, lengths=engine.lengths, timeout=60.0)
        for record in queries:
            fe.query(record.expr, sort=True, score=record.score)
    keys = [sk for sk, _ in engine.query(parse_sexpr(text), sort=True)]
    return index, transcript, queries, keys


class TestScoredQueries:
    """A scored query's profile holds its formula's values, mod 2^31: the
    scores its sorts compared."""

    def test_honest_sessions_consistent(self, scored_run):
        index, transcript, queries, keys = scored_run
        assert not audit_transcript(transcript, forbidden=tuple(KEYS.__dict__.values())).violations
        profile = compute_leakage(index, queries, n_shards=2)
        assert profile.ranks == [
            sorted((sk * sk for sk in keys), reverse=True),
            sorted((SHARE_MODULUS - sk for sk in keys), reverse=True),
            sorted((200 - sk for sk in keys), reverse=True),
        ]
        verdict = check_transcript_consistency(profile, transcript)
        assert not verdict.violations, verdict.violations

    def test_one_mask_per_shard_flagged(self, scored_run):
        # (mul key key) compares 14 bits: one mask shared by 4 entries of a
        # CONTRIB shows 3 true XORs of 14 bits each, 42 >= 31 bits
        index, transcript, queries, _ = scored_run
        profile = compute_leakage(index, queries, n_shards=2)
        first = next(f.session for p, d, f in transcript.entries
                     if p == "frontend" and f.type == MSG["QUERY_INIT"])
        entries, longest = [], 0
        for party, direction, frame in transcript.entries:
            if frame.type == MSG["CONTRIB"] and direction == "send" and frame.session == first:
                shard, status, contrib, count = _decode_contrib(frame.payload)
                true = profile.survivor_scores[0][shard]
                one_mask = [(true[i] ^ 0x2A5A, i) for _, i in contrib]
                frame = Frame(
                    frame.type, frame.session, _encode_contrib(shard, status, one_mask, count)
                )
                longest = max(longest, len(contrib))
            entries.append((party, direction, frame))
        assert longest >= 4
        verdict = check_transcript_consistency(profile, Transcript(entries=entries))
        assert any("query 0: CONTRIB" in v for v in verdict.violations), verdict.violations

    def test_other_formula_flagged(self, scored_run):
        index, transcript, queries, _ = scored_run
        swapped = [QueryRecord.make(r.expr, sort=True, score=s)
                   for r, s in zip(queries, [SCORES[1], SCORES[0], None])]
        violations = check_transcript_consistency(
            compute_leakage(index, swapped, n_shards=2), transcript
        ).violations
        for qi in range(3):
            assert any(f"query {qi}: QUERY_INIT names score" in v for v in violations), violations


class TestTopK:
    def test_top_2_transcript_consistent_and_wrong_t_flagged(self):
        # a top-2 sorted query: QUERY_INIT names t = 2, each CONTRIB holds
        # min(k, 2) entries and GLOBAL_RESULT the 2 first ranks
        graph = random_graph(30, 200, seed=78)
        index = build_inverted_index(graph)
        engine = PlaintextEngine(index)
        edb = build_edb(
            index, KEYS, crypto.GroupContext(),
            PartitionConfig(shards_per_cluster=2, seed=78),
        )
        t = terms_by_size(index, 2)
        record = QueryRecord.make(f"(or {t[0]} {t[1]})", sort=True, top_k=2)
        transcript = Transcript()
        with LocalCluster(edb, transcript=transcript, timeout=30.0) as cluster:
            fe = cluster.front_end(KEYS, lengths=engine.lengths, timeout=60.0)
            assert len(fe.query(record.expr, sort=True, top_k=2)) == 2
        assert not audit_transcript(transcript, forbidden=tuple(KEYS.__dict__.values())).violations
        profile = compute_leakage(index, [record], n_shards=2)
        assert profile.tops == [2] and len(profile.ranks[0]) == 2
        assert max(map(len, profile.survivor_scores[0])) > 2  # the shards truncate
        verdict = check_transcript_consistency(profile, transcript)
        assert not verdict.violations, verdict.violations
        for wrong in (3, None):
            bad = compute_leakage(
                index, [QueryRecord.make(record.expr, sort=True, top_k=wrong)], n_shards=2
            )
            violations = check_transcript_consistency(bad, transcript).violations
            assert any("t = 2" in v for v in violations), violations
            assert any("CONTRIB" in v for v in violations), violations


class TestContribLeak:
    """_contrib_leak on synthetic CONTRIBs: true scores below 2^w, each
    entry (masked score, local index) in rank order."""

    @staticmethod
    def runs(true, masks, sizes):
        """One run per size, its entries masked by consecutive masks."""
        out, used = [], 0
        for size in sizes:
            entries = [(true[i] ^ masks[used + i], i) for i in range(size)]
            out.append((true, entries))
            used += size
        return out

    @pytest.mark.parametrize("sizes", [[6], [3, 4], [2, 2, 2, 2, 2]])
    def test_mask_shared_over_six_entries_at_7_bits_flagged(self, sizes):
        # 5 or more pairs of 7 bits: at least 35 >= 31 bits of evidence
        rng = np.random.default_rng(len(sizes))
        true = rng.integers(1, 101, size=6).tolist()
        one_mask = [int(rng.integers(0, 128))] * sum(sizes)
        assert _contrib_leak(self.runs(true, one_mask, sizes), 7)

    def test_shorter_runs_cannot_tell(self):
        # 4 pairs of 7 bits coincide by chance once in 2^28: not flagged
        true = [100, 99, 64, 3, 1]
        assert _contrib_leak(self.runs(true, [77] * 5, [5]), 7) is None
        assert _contrib_leak(self.runs(true, [77] * 5, [5]), 8)  # 32 bits
        assert _contrib_leak(self.runs(true, [77] * 2, [2]), 31)

    def test_fresh_masks_never_flagged(self):
        # 10,000 queries of 7-bit scores, fresh masks per entry
        rng = np.random.default_rng(27)
        for _ in range(10_000):
            sizes = rng.integers(0, 11, size=int(rng.integers(1, 4))).tolist()
            true = rng.integers(1, 101, size=max(sizes)).tolist()
            masks = rng.integers(0, 128, size=sum(sizes)).tolist()
            assert _contrib_leak(self.runs(true, masks, sizes), 7) is None

    def test_one_shard_sharing_a_mask_flagged(self):
        # shard 1 shares one mask over 6 entries; shard 0's are fresh
        rng = np.random.default_rng(3)
        true = rng.integers(1, 101, size=6).tolist()
        fresh = self.runs(true, rng.integers(0, 128, size=6).tolist(), [6])
        shared = self.runs(true, [9] * 6, [6])
        assert _contrib_leak(fresh, 7) is None
        assert _contrib_leak(fresh + shared, 7)

    def test_one_pair_that_coincides_is_not_a_leak(self):
        # at w = 7 a fresh pair coincides once in 128: only a run counts
        true = [90, 40, 7]
        entries = [(true[0] ^ 5, 0), (true[1] ^ 5, 1), (true[2] ^ 6, 2)]
        assert _contrib_leak([(true, entries)], 7) is None
