"""System-level acceptance checks, one test per criterion.

Each test records a single verdict line (printed in the terminal summary)
covering: oracle equivalence at scale, work-independence and per-x-term
linearity of server exponentiation counts, the disjunction rewrite,
secure share arithmetic, garbled sorting, partition invariance, the
two-round recommendation workflow, the leakage audit, security hygiene,
and the throughput report.
"""

import functools
import random
import threading
import time

import numpy as np
import pytest

from conftest import (
    evaluate_rows,
    loopback_pair,
    random_graph,
    record_acceptance,
    server_exps,
)
from privgraph import crypto
from privgraph import planner as planner_mod
from privgraph.builder import (
    EncryptedTuple,
    PartitionConfig,
    build_edb,
    emit_edb,
    partition,
)
from privgraph.circuits import build_sort_circuit, merge_exchange, simulate
from privgraph.cluster import LocalCluster
from privgraph.crypto import SCORE_BITS, GroupContext, hash_to_shard
from privgraph.garble import garble
from privgraph.graph import (
    SORT_KEY_MAX,
    SORT_KEY_MIN,
    Edge,
    Graph,
    PlaintextEngine,
    build_inverted_index,
)
from privgraph.leakage import (
    QueryRecord,
    audit_transcript,
    check_transcript_consistency,
    compute_leakage,
)
from privgraph.ot import OTPair, OTReceiver, OTSender
from privgraph.oxt import IntegrityError, compile_query
from privgraph.scoring import score_width
from privgraph.sexpr import parse_sexpr
from privgraph.shares import (
    SHARE_MODULUS,
    add,
    dealer_triple_gen,
    mul,
    rec,
    shr,
    triple_gen_cot,
)
from privgraph.sorting import local_sort_evaluator, local_sort_garbler
from privgraph.transport import MSG, Frame, Transcript

KEYS = crypto.MasterKeyBundle(*(bytes([i + 11]) * 16 for i in range(5)))


def criterion(label, title):
    """Record one PASS/FAIL verdict line per acceptance criterion."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                record_acceptance(f"{label} {title}: FAIL")
                raise
            line = f"{label} {title}: PASS"
            if detail:
                line += f"  [{detail}]"
            record_acceptance(line)
            print(line)

        return wrapper

    return deco


def assert_ranked(got_ids, oracle_ranked):
    """Tie-aware ranking check: returned ids must be distinct members of the
    oracle result carrying exactly the oracle's descending score prefix."""
    score_of = {eid: sk for sk, eid in oracle_ranked}
    assert len(got_ids) == len(set(got_ids))
    assert len(got_ids) <= len(oracle_ranked)
    got_scores = [score_of[i] for i in got_ids]
    assert got_scores == [sk for sk, _ in oracle_ranked[: len(got_ids)]]


def run_two_party(fn0, fn1, name="acc", join=300):
    chan0, chan1 = loopback_pair(name)
    out = {}
    errors = []

    def run(party, fn, chan):
        try:
            out[party] = fn(chan)
        except Exception as exc:  # propagate to the main thread
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(0, fn0, chan0)),
        threading.Thread(target=run, args=(1, fn1, chan1)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=join)
    for chan in (chan0, chan1):
        chan.close()  # the byte counters stay readable
    if errors:
        raise errors[0]
    return out[0], out[1], chan0


def terms_by_size(index, descending=True):
    return sorted(index, key=lambda t: (-len(index[t]) if descending else len(index[t]), t))


# ---------------------------------------------------------------------------
# 1. Oracle equivalence over random graphs and the full operator mix
# ---------------------------------------------------------------------------


@criterion("[AC1]", "oracle equivalence (20 graphs, 500 queries, 5 operators)")
def test_ac01_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(4101)
    n_graphs, per_graph = 20, 25
    ran = {"term": 0, "and": 0, "or": 0, "difference": 0, "apply": 0}
    n_sorted = 0

    for gi in range(n_graphs):
        graph = random_graph(200, 2000, seed=5000 + gi)
        index = build_inverted_index(graph)
        engine = PlaintextEngine(index)
        edb = build_edb(
            index, KEYS, GroupContext(),
            PartitionConfig(shards_per_cluster=1, seed=gi),
        )
        by_size = terms_by_size(index)
        big = by_size[:40]
        small = [t for t in by_size if 3 <= len(index[t]) <= 6]
        plan = (
            ["term"] * 6 + ["and"] * 6 + ["or"] * 5 + ["difference"] * 5
            + ["apply"] + ["sorted-term", "sorted-or"]
        )
        assert len(plan) == per_graph
        with LocalCluster(edb, timeout=60.0) as cluster:
            fe = cluster.front_end(KEYS, lengths=engine.lengths, timeout=120.0)
            for op in plan:
                sort = op.startswith("sorted")
                if op == "term":
                    text = f"(term {rng.choice(big)})"
                elif op == "and":
                    text = f"(and {rng.choice(small)} {rng.choice(big)})"
                elif op == "difference":
                    text = f"(difference {rng.choice(small)} {rng.choice(big)})"
                elif op == "or":
                    a, b = rng.sample(small, 2)
                    text = f"(or {a} {b})"
                elif op == "apply":
                    text = f"(apply friend: (term {rng.choice(small)}))"
                elif op == "sorted-term":
                    text = f"(term {rng.choice(small)})"
                else:  # sorted-or
                    a, b = rng.sample(small, 2)
                    text = f"(or {a} {b})"
                expr = parse_sexpr(text)
                ran[expr.op] += 1
                n_sorted += sort

                if expr.op == "apply":
                    # keep every nested result so truncation cannot straddle
                    # a tie group and legitimately diverge from the oracle
                    with pytest.MonkeyPatch.context() as patch:
                        patch.setattr(planner_mod, "NESTED_TOP_K", 10**6)
                        got = fe.query(expr, sort=sort)
                    oracle = engine.apply_query(expr, sort=sort, nested_top_k=10**6)
                else:
                    got = fe.query(expr, sort=sort)
                    oracle = engine.query(expr, sort=sort)

                assert sorted(got) == sorted(eid for _, eid in oracle), text
                if sort:
                    assert_ranked(got, oracle)

    elapsed = time.perf_counter() - started
    assert sum(ran.values()) == n_graphs * per_graph >= 500
    assert all(ran[op] > 0 for op in ran)
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    return (
        f"{sum(ran.values())} queries / {n_graphs} graphs, {n_sorted + ran['apply']} "
        f"ranked, each exactly the oracle's, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 2-3. Server work: independent of x-term selectivity, linear in x-term count
# ---------------------------------------------------------------------------

S_SELECTIVITY = 130  # traversed posting-list length held fixed


def _work_graph():
    edges = [Edge(0, 200 + i, "friend", 1 + i % 100) for i in range(S_SELECTIVITY)]
    # one group per swept x-term selectivity
    for gi, size in enumerate((1, 2, 5, 13, 32, 64, 130, 251, 502)):
        edges += [Edge(1000 + gi, 200 + j, "group", 1) for j in range(size)]
    # five same-sized groups for the x-term count sweep
    for gi in range(5):
        edges += [Edge(2000 + gi, 200 + j, "group", 1) for j in range(16)]
    return Graph(edges)


@pytest.fixture(scope="module")
def work_cluster():
    index = build_inverted_index(_work_graph())
    edb = build_edb(
        index, KEYS, GroupContext(), PartitionConfig(shards_per_cluster=1, seed=2)
    )
    with LocalCluster(edb, timeout=30.0) as cluster:
        # no frequency metadata: the first conjunct stays the traversed term
        fe = cluster.front_end(KEYS, lengths=None, timeout=60.0)
        yield index, cluster, fe


@criterion("[AC2]", "work independence: exps = 130x1 across x-selectivity 1..502")
def test_ac02_work_independent_of_x_selectivity(work_cluster):
    index, cluster, fe = work_cluster
    sweep = [t for t in index if t.startswith("group:1")]
    sweep.sort(key=lambda t: len(index[t]))
    sizes = [len(index[t]) for t in sweep]
    assert sizes[0] == 1 and sizes[-1] == 502
    for x_term in sweep:
        got, counts = server_exps(cluster, lambda: set(fe.query(f"(and friend:0 {x_term})")))
        assert got == index["friend:0"].ids() & index[x_term].ids()
        assert all(c == S_SELECTIVITY * 1 for c in counts.values()), counts
    return (
        f"every server spent exactly {S_SELECTIVITY} exponentiations per query "
        f"while x-term selectivity swept {sizes[0]}..{sizes[-1]} "
        "(published reference: ~20 ms, kept invariable)"
    )


@criterion("[AC3]", "per-x-term linearity: exps = 130xn for n = 1..5")
def test_ac03_work_linear_in_x_terms(work_cluster):
    index, cluster, fe = work_cluster
    groups = sorted(t for t in index if t.startswith("group:2"))
    assert len(groups) == 5
    for n in range(1, 6):
        query = "(and friend:0 " + " ".join(groups[:n]) + ")"
        _, counts = server_exps(cluster, lambda: fe.query(query))
        assert all(c == S_SELECTIVITY * n for c in counts.values()), (n, counts)
    return (
        f"server exponentiations grew {S_SELECTIVITY}, "
        + ", ".join(str(S_SELECTIVITY * n) for n in range(2, 6))
        + " (published reference: ~20 ms per added x-term)"
    )


# ---------------------------------------------------------------------------
# 4. Disjunction rewrite
# ---------------------------------------------------------------------------


@criterion("[AC4]", "disjunction rewrite: n disjoint subqueries, exact union")
def test_ac04_disjunction_rewrite():
    rng = random.Random(44)
    index = build_inverted_index(random_graph(120, 900, seed=44))
    engine = PlaintextEngine(index)
    terms = terms_by_size(index)[:40]
    n_checked = 0
    for _ in range(100):
        n = rng.randint(2, 6)
        chosen = rng.sample(terms, n)
        expr = parse_sexpr("(or " + " ".join(chosen) + ")")
        subqueries = compile_query(expr, engine.lengths)
        assert len(subqueries) == n
        results = [
            {eid for _, eid in
             engine.eval_boolean(sq.s_term, list(sq.x_terms), sq.formula, sq.negate)}
            for sq in subqueries
        ]
        for i in range(n):
            for j in range(i + 1, n):
                assert not results[i] & results[j], (chosen, i, j)
        union = set().union(*results)
        assert union == set().union(*(index[t].ids() for t in chosen))
        n_checked += 1
    # spot-check the rewrite end to end on the encrypted path
    edb = build_edb(
        index, KEYS, GroupContext(), PartitionConfig(shards_per_cluster=1, seed=44)
    )
    with LocalCluster(edb, timeout=30.0) as cluster:
        fe = cluster.front_end(KEYS, lengths=engine.lengths, timeout=60.0)
        for _ in range(5):
            chosen = rng.sample(terms, 3)
            got = fe.query("(or " + " ".join(chosen) + ")")
            assert len(got) == len(set(got))  # subquery results stay disjoint
            assert set(got) == set().union(*(index[t].ids() for t in chosen))
    return f"{n_checked} random disjunctions, plus 5 end-to-end encrypted runs"


# ---------------------------------------------------------------------------
# 5. Secure share arithmetic
# ---------------------------------------------------------------------------


@criterion("[AC5]", "secure arithmetic: 10^4 add/mul cases, 1000 COT triples")
def test_ac05_secure_arithmetic():
    rng = np.random.default_rng(55)
    n = 10_000
    xs = rng.integers(0, SHARE_MODULUS, size=n, dtype=np.int64)
    ys = rng.integers(0, SHARE_MODULUS, size=n, dtype=np.int64)
    x0, x1 = shr(xs, rng)
    y0, y1 = shr(ys, rng)

    t_add = time.perf_counter()
    got_add = rec(add(x0, y0), add(x1, y1))
    t_add = time.perf_counter() - t_add
    assert np.array_equal(got_add, np.mod(xs + ys, SHARE_MODULUS))

    d0, d1 = dealer_triple_gen((n,), seed=550)
    t_mul = time.perf_counter()
    r0, r1, _ = run_two_party(
        lambda ch: mul(x0, y0, d0, ch),
        lambda ch: mul(x1, y1, d1, ch),
    )
    t_mul = time.perf_counter() - t_mul
    assert np.array_equal(rec(r0, r1), np.mod(xs * ys, SHARE_MODULUS))

    # every COT-generated triple must satisfy z = x*y mod 2^31
    n_triples = 1000

    def party(p):
        def run(chan):
            pair = OTPair(GroupContext())
            return triple_gen_cot(p, (n_triples,), OTSender(pair, chan), OTReceiver(pair, chan))

        return run

    c0, c1, _ = run_two_party(party(0), party(1))
    tx = np.mod(c0.x + c1.x, SHARE_MODULUS)
    ty = np.mod(c0.y + c1.y, SHARE_MODULUS)
    tz = np.mod(c0.z + c1.z, SHARE_MODULUS)
    assert np.array_equal(tz, np.mod(tx * ty, SHARE_MODULUS))
    return (
        f"{n} add in {t_add * 1000:.1f} ms, {n} mul in {t_mul * 1000:.1f} ms "
        "(published references: ~2 ms add, ~80 ms mul), "
        f"{n_triples} COT triples all valid"
    )


# ---------------------------------------------------------------------------
# 6. Sorting: comparator law, garbled = plaintext, sharded merge, cost report
# ---------------------------------------------------------------------------

SORT_SIZES = (2, 4, 8, 16, 32, 64, 128)


@criterion("[AC6a]", "sorting: comparators = (m^2 - m + 4)*2^(m-2) - 1 for k = 2^m, as built")
def test_ac06a_comparator_count():
    for k in SORT_SIZES:
        m = k.bit_length() - 1
        comparators = (m * m - m + 4) * 2 ** m // 4 - 1
        assert len(merge_exchange(k)) == comparators, k
        ands = build_sort_circuit(k, width=SCORE_BITS).and_count
        assert ands == k * 30 + comparators * (62 + k.bit_length()), k
    return "k in {2,4,8,16,32,64,128}: 1, 5, 19, 63, 191, 543, 1471 comparators"


@criterion("[AC6b]", "sorting: garbled evaluation = plaintext simulation")
def test_ac06b_garbled_matches_simulation():
    rng = np.random.default_rng(66)
    batch = 100
    for k in SORT_SIZES:
        sc = build_sort_circuit(k, width=SCORE_BITS)
        circuit = sc.circuit
        gc, label_map, delta = garble(circuit)
        inputs = {
            name: rng.integers(0, 2, size=(batch, len(wires)), dtype=np.uint8)
            for name, wires in circuit.inputs.items()
        }
        got = evaluate_rows(circuit, gc, label_map, delta, inputs)
        plain = simulate(circuit, {n: b.astype(bool) for n, b in inputs.items()})
        assert np.array_equal(got.astype(bool), plain), k
    return f"{batch} random inputs per size, all sizes bit-exact"


@criterion("[AC6c]", "sorting: 3-shard local+global merge matches plaintext")
def test_ac06c_sharded_merge():
    index = build_inverted_index(random_graph(60, 420, seed=63))
    engine = PlaintextEngine(index)
    edb = build_edb(
        index, KEYS, GroupContext(), PartitionConfig(shards_per_cluster=3, seed=63)
    )
    t = terms_by_size(index)[:3]
    text = f"(or {t[0]} {t[1]} {t[2]})"
    oracle = engine.query(parse_sexpr(text), sort=True)
    shards_hit = {hash_to_shard(eid, 3) for _, eid in oracle}
    assert shards_hit == {0, 1, 2}  # the merge really spans all shards
    with LocalCluster(edb, timeout=60.0) as cluster:
        fe = cluster.front_end(KEYS, lengths=engine.lengths, timeout=120.0)
        got = fe.query(text, sort=True)
    assert set(got) == {eid for _, eid in oracle}
    assert_ranked(got, oracle)
    return f"{len(got)} results merged across 3 shards in oracle order"


@criterion("[AC6d]", "sorting cost report at k=128 (report-only)")
def test_ac06d_cost_report():
    # the sort keys themselves, compared in their public width
    k, width = 128, score_width(None)
    rng = np.random.default_rng(68)
    scores = [int(v) for v in rng.integers(SORT_KEY_MIN, SORT_KEY_MAX + 1, size=k)]
    g = [int(v) for v in rng.integers(0, SHARE_MODULUS, size=k)]
    e = [(s - gs) % SHARE_MODULUS for s, gs in zip(scores, g)]
    pair_g, pair_e = OTPair(GroupContext()), OTPair(GroupContext())
    masks, (masked, order), chan = run_two_party(
        lambda ch: local_sort_garbler(ch, 1, g, pair_g, width=width),
        lambda ch: local_sort_evaluator(ch, 1, e, pair_e, width=width),
        name="sort128",
    )
    assert [m ^ r for m, r in zip(masked, masks)] == sorted(scores, reverse=True)
    session_bytes = chan.bytes_sent + chan.bytes_received
    ands = build_sort_circuit(k, width=width).and_count
    widest = build_sort_circuit(k, width=SCORE_BITS).and_count
    return (
        f"k=128 sort of {width}-bit sort keys: {ands} AND gates, "
        f"{session_bytes / 1e6:.2f} MB per session; {widest} AND gates at {SCORE_BITS} bits "
        "(published references: 446336 gates, 9.80 MB; no pass/fail threshold)"
    )


# ---------------------------------------------------------------------------
# 7. Partition invariance and shard recombination
# ---------------------------------------------------------------------------


@criterion("[AC7]", "partition invariance across 1/2/3 shards + recombination")
def test_ac07_partition_invariance():
    index = build_inverted_index(random_graph(50, 320, seed=70))
    engine = PlaintextEngine(index)
    t = terms_by_size(index)[:3]
    texts = [
        f"(term {t[0]})",
        f"(and {t[0]} {t[1]})",
        f"(or {t[1]} {t[2]})",
    ]
    oracles = {text: engine.query(parse_sexpr(text), sort=True) for text in texts}
    for shards in (1, 2, 3):
        edb = build_edb(
            index, KEYS, GroupContext(),
            PartitionConfig(shards_per_cluster=shards, seed=70),
        )
        with LocalCluster(edb, timeout=60.0) as cluster:
            fe = cluster.front_end(KEYS, lengths=engine.lengths, timeout=120.0)
            for text in texts:
                assert set(fe.query(text)) == {e for _, e in oracles[text]}
                assert_ranked(fe.query(text, sort=True), oracles[text])
    # recombining the shard partitions reproduces every posting list exactly
    for shards in (2, 3):
        parts = partition(index, PartitionConfig(shards_per_cluster=shards, seed=70))
        for term, plist in index.items():
            merged = []
            for part in parts:
                if term in part:
                    merged.extend(part[term].entries)
            assert sorted(merged) == sorted(plist.entries), (shards, term)
    return f"{len(texts)} queries identical across shard counts 1, 2, 3"


# ---------------------------------------------------------------------------
# 8. Two-round friend recommendation on a 10k-node graph
# ---------------------------------------------------------------------------


@criterion("[AC8]", "friend recommendation on 10k nodes in under 30 s")
def test_ac08_recommendation_workflow():
    rng = random.Random(80)
    base = random_graph(10_000, 20_000, seed=80)
    # the seed user gets 40 friends with pairwise-distinct weights so the
    # nested top-10 cut never straddles a tie group
    edges = [e for e in base.edges if not (e.src == 0 and e.edge_type == "friend")]
    weights = rng.sample(range(1, 101), 40)
    friends = rng.sample(range(1, 10_000), 40)
    edges += [Edge(0, v, "friend", w) for v, w in zip(friends, weights)]
    index = build_inverted_index(Graph(edges))
    engine = PlaintextEngine(index)
    edb = build_edb(
        index, KEYS, GroupContext(), PartitionConfig(shards_per_cluster=1, seed=80)
    )
    text = "(apply friend: (term friend:0))"
    oracle = engine.apply_query(parse_sexpr(text), sort=True, nested_top_k=10)
    with LocalCluster(edb, timeout=60.0) as cluster:
        fe = cluster.front_end(KEYS, lengths=engine.lengths, timeout=120.0)
        started = time.perf_counter()
        got = fe.query(text, sort=True)
        elapsed = time.perf_counter() - started
    assert set(got) == {eid for _, eid in oracle}
    assert_ranked(got, oracle)
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    return (
        f"{len(index)} posting lists, {len(edges)} edges; two-round query "
        f"matched the oracle in {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 9. Leakage audit
# ---------------------------------------------------------------------------


@criterion("[AC9]", "leakage audit: clean transcript, profile-consistent, leak detector fires")
def test_ac09_leakage_audit():
    index = build_inverted_index(random_graph(30, 200, seed=90))
    engine = PlaintextEngine(index)
    edb = build_edb(
        index, KEYS, GroupContext(),
        PartitionConfig(shards_per_cluster=2, seed=90),
    )
    t = terms_by_size(index)[:3]
    queries = [
        QueryRecord.make(f"(term {t[0]})"),
        QueryRecord.make(f"(and {t[0]} {t[1]})"),
        QueryRecord.make(f"(and {t[0]} {t[1]})"),  # repetition pattern
        QueryRecord.make(f"(difference {t[1]} {t[2]})"),
        QueryRecord.make(f"(or {t[0]} {t[2]})", sort=True),
    ]
    transcript = Transcript()
    with LocalCluster(edb, transcript=transcript, timeout=60.0) as cluster:
        fe = cluster.front_end(KEYS, lengths=engine.lengths, timeout=120.0)
        for q in queries:
            fe.query(q.expr, sort=q.sort)

    forbidden = tuple(KEYS.__dict__.values())
    report = audit_transcript(transcript, forbidden=forbidden)
    assert not report.violations, report.violations
    n_frames = sum(report.class_counts.values())

    profile = compute_leakage(index, queries, n_shards=2)
    verdict = check_transcript_consistency(profile, transcript)
    assert not verdict.violations, verdict.violations

    # detector sensitivity: planted leaks must be flagged
    leaky = Transcript(entries=list(transcript.entries))
    leaky.record("is00", "send", Frame(MSG["ERROR"], 7, b"dump " + KEYS.k_stag))
    leaky.record(
        "is01", "send",
        Frame(MSG["RESULT"], 7, b"\x00\x01\x00\x00\x00\x01plain:42"),
    )
    bad = audit_transcript(leaky, forbidden=forbidden)
    assert any("forbidden" in v for v in bad.violations)
    assert any("RESULT" in v for v in bad.violations)
    return (
        f"{n_frames} frames, every class in the leakage alphabet, "
        "0 violations; both planted leaks detected"
    )


# ---------------------------------------------------------------------------
# 10. Security hygiene
# ---------------------------------------------------------------------------


@criterion("[AC10]", "hygiene: no plaintext ids in EDB, keyless servers, tamper detection")
def test_ac10_security_hygiene(tmp_path):
    magic = 3_735_928_559  # a distinctive result id planted in the graph
    edges = [Edge(77, magic, "friend", 50)] + [
        Edge(77, i, "friend", i % 100 + 1) for i in range(1, 9)
    ]
    index = build_inverted_index(Graph(edges))
    edb = build_edb(
        index, KEYS, GroupContext(), PartitionConfig(shards_per_cluster=1, seed=10)
    )
    emit_edb(edb, tmp_path / "edb")
    needles = [
        str(magic).encode(),
        magic.to_bytes(4, "big"),
        magic.to_bytes(4, "little"),
        b"friend:77",
    ]
    blobs = [p.read_bytes() for p in sorted((tmp_path / "edb").rglob("*")) if p.is_file()]
    assert blobs
    for blob in blobs:
        for needle in needles:
            assert needle not in blob

    # structural: the server implementation has no path to the keystore
    import inspect

    import privgraph.server as server_module

    source = inspect.getsource(server_module)
    for symbol in ("load_keystore", "save_keystore", "MasterKeyBundle"):
        assert symbol not in source
        assert not hasattr(server_module, symbol)

    # tampering with a stored ciphertext surfaces as an integrity error
    shard = edb.clusters[0][0]
    key = next(iter(shard.tset.blocks))
    tup = shard.tset.blocks[key][0]
    shard.tset.blocks[key][0] = EncryptedTuple(
        tup.sortkey_share, tup.e_id[:-1] + bytes([tup.e_id[-1] ^ 1]), tup.y
    )
    with LocalCluster(edb, timeout=30.0) as cluster:
        fe = cluster.front_end(KEYS, lengths=None, timeout=60.0)
        with pytest.raises(IntegrityError):
            fe.query("(term friend:77)")
    return f"{len(blobs)} emitted files scanned; tampered ciphertext rejected"


# ---------------------------------------------------------------------------
# 11. Throughput report (report-only)
# ---------------------------------------------------------------------------


@criterion("[AC11]", "throughput report: encrypted vs plaintext baseline (report-only)")
def test_ac11_throughput_report():
    index = build_inverted_index(random_graph(60, 320, seed=111))
    engine = PlaintextEngine(index)
    edb = build_edb(
        index, KEYS, GroupContext(), PartitionConfig(shards_per_cluster=1, seed=111)
    )
    t = terms_by_size(index)
    small = [x for x in t if len(index[x]) <= 5][:6]
    workload = {
        "term": [(f"(term {x})", False) for x in t[:6]],
        "and": [(f"(and {a} {b})", False) for a, b in zip(t[:6], t[6:12])],
        "or": [(f"(or {a} {b})", False) for a, b in zip(t[:6], t[6:12])],
        "difference": [(f"(difference {a} {b})", False) for a, b in zip(t[:6], t[6:12])],
        "term+sort": [(f"(term {x})", True) for x in small[:4]],
        "or+sort": [(f"(or {a} {b})", True) for a, b in zip(small[:2], small[2:4])],
    }
    lines = []
    with LocalCluster(edb, timeout=60.0) as cluster:
        fe = cluster.front_end(KEYS, lengths=engine.lengths, timeout=120.0)
        for label, queries in workload.items():
            t0 = time.perf_counter()
            for text, sort in queries:
                engine.query(parse_sexpr(text), sort=sort)
            baseline = len(queries) / max(time.perf_counter() - t0, 1e-9)
            t0 = time.perf_counter()
            for text, sort in queries:
                fe.query(text, sort=sort)
            encrypted = len(queries) / max(time.perf_counter() - t0, 1e-9)
            assert encrypted > 0 and baseline > 0
            lines.append(f"{label} {encrypted:.1f}/{baseline:.0f} q/s")
    return (
        "; ".join(lines)
        + " (published references: 38%-49% throughput decrease unsorted; "
        "~80 q/s global-sort constant)"
    )
