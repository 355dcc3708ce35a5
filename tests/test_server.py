"""End-to-end encrypted query pipeline over the in-process cluster."""

import importlib.util
import os
import secrets
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import loopback_pair, off_curve_x, random_graph, server_exps, store_fingerprint
from privgraph import crypto
from privgraph import planner as planner_mod
from privgraph import server as server_mod
from privgraph.builder import PartitionConfig, build_edb, hash_to_shard
from privgraph.circuits import MAX_SORT_K
from privgraph.cluster import LocalCluster
from privgraph.crypto import SCORE_BITS, SHARE_MODULUS
from privgraph.graph import Edge, Graph, PlaintextEngine, build_inverted_index
from privgraph.oxt import IntegrityError
from privgraph.planner import QueryError
from privgraph.server import (
    IndexServer,
    QuerySpec,
    ServerError,
    SubquerySpec,
    decode_global_result,
    decode_query_init,
    decode_result,
    encode_global_result,
    encode_query_init,
    encode_result,
    server_name,
)
from privgraph.sexpr import BoolFormula, parse_sexpr
from privgraph.transport import ChannelClosed, Topology, Transcript, TransportError


KEYS = crypto.MasterKeyBundle(*(bytes([i + 3]) * 16 for i in range(5)))


def assert_ranked(got_ids, oracle_ranked):
    """Tie-aware ranking check: the returned ids must carry exactly the
    oracle's descending score sequence (prefix when truncated) and be
    distinct ids drawn from the oracle result set."""
    score_of = {eid: sk for sk, eid in oracle_ranked}
    assert len(got_ids) == len(set(got_ids))
    assert len(got_ids) <= len(oracle_ranked)
    got_scores = [score_of[i] for i in got_ids]
    assert got_scores == [sk for sk, _ in oracle_ranked[: len(got_ids)]]


@pytest.fixture(scope="module")
def setup():
    graph = random_graph(40, 260, seed=21)
    index = build_inverted_index(graph)
    ctx = crypto.GroupContext()
    edb = build_edb(index, KEYS, ctx, PartitionConfig(shards_per_cluster=2, seed=21))
    transcript = Transcript()
    cluster = LocalCluster(edb, transcript=transcript, timeout=30.0)
    engine = PlaintextEngine(index)
    fe = cluster.front_end(KEYS, lengths=engine.lengths, timeout=60.0)
    yield index, engine, cluster, fe
    cluster.stop()


def top_terms(index, n):
    return sorted(index, key=lambda t: -len(index[t]))[:n]


class TestCodecs:
    def test_query_init_round_trip(self):
        formula = BoolFormula.variable(0).and_(BoolFormula.variable(1))
        spec = QuerySpec(
            [
                SubquerySpec(b"\x01" * 16, True, 2, formula),
                SubquerySpec(b"\x02" * 16, False, 0, BoolFormula.true()),
            ],
            sort=True,
            score="(mul key key)",
        )
        got = decode_query_init(encode_query_init(spec))
        assert got.sort and got.score == "(mul key key)"
        assert len(got.subqueries) == 2
        assert got.subqueries[0].stag == b"\x01" * 16
        assert got.subqueries[0].negate and got.subqueries[0].n_xterms == 2
        assert got.subqueries[0].formula.shape() == formula.shape()
        assert not got.subqueries[1].negate

    def test_result_round_trip(self):
        e_ids = [bytes([i]) * 36 for i in range(5)]
        counts, got = decode_result(encode_result([2, 0, 3], e_ids))
        assert counts == [2, 0, 3] and got == e_ids
        counts, got = decode_result(encode_result([2, 3], None))
        assert counts == [2, 3] and got is None

    def test_global_result_round_trip(self):
        order = [(0, 5), (2, 1), (1, 0)]
        assert decode_global_result(encode_global_result(order)) == order


class TestUnsorted:
    def test_term(self, setup):
        index, engine, cluster, fe = setup
        term = top_terms(index, 1)[0]
        assert set(fe.query(f"(term {term})")) == index[term].ids()

    def test_absent_term(self, setup):
        _, _, _, fe = setup
        assert fe.query("(term friend:999)") == []

    def test_and(self, setup):
        index, engine, _, fe = setup
        t = top_terms(index, 2)
        text = f"(and {t[0]} {t[1]})"
        want = {eid for _, eid in engine.query(parse_sexpr(text))}
        assert set(fe.query(text)) == want

    def test_difference(self, setup):
        index, engine, _, fe = setup
        t = top_terms(index, 2)
        text = f"(difference {t[0]} {t[1]})"
        want = {eid for _, eid in engine.query(parse_sexpr(text))}
        assert set(fe.query(text)) == want

    def test_or(self, setup):
        index, engine, _, fe = setup
        t = top_terms(index, 3)
        text = f"(or {t[0]} {t[1]} {t[2]})"
        want = {eid for _, eid in engine.query(parse_sexpr(text))}
        got = fe.query(text)
        assert len(got) == len(set(got))  # rewrite keeps subqueries disjoint
        assert set(got) == want

    def test_nested_boolean(self, setup):
        index, engine, _, fe = setup
        t = top_terms(index, 3)
        text = f"(and {t[0]} (or {t[1]} {t[2]}))"
        want = {eid for _, eid in engine.query(parse_sexpr(text))}
        assert set(fe.query(text)) == want

    def test_top_k_truncation(self, setup):
        index, _, _, fe = setup
        term = top_terms(index, 1)[0]
        got = fe.query(f"(term {term})", top_k=3)
        assert len(got) == 3 and set(got) <= index[term].ids()


class TestSorted:
    def test_term_ranked(self, setup):
        index, engine, _, fe = setup
        term = top_terms(index, 1)[0]
        got = fe.query(f"(term {term})", sort=True)
        assert_ranked(got, engine.query(parse_sexpr(f"(term {term})"), sort=True))

    def test_or_ranked_multi_shard(self, setup):
        index, engine, _, fe = setup
        t = top_terms(index, 3)
        text = f"(or {t[0]} {t[1]} {t[2]})"
        got = fe.query(text, sort=True)
        assert_ranked(got, engine.query(parse_sexpr(text), sort=True))

    def test_and_ranked_top_k(self, setup):
        index, engine, _, fe = setup
        t = top_terms(index, 2)
        text = f"(and {t[0]} {t[1]})"
        got = fe.query(text, sort=True, top_k=2)
        assert_ranked(got, engine.query(parse_sexpr(text), sort=True))

    def test_empty_sorted(self, setup):
        _, _, _, fe = setup
        assert fe.query("(term friend:999)", sort=True) == []

    def test_top_k_travels_to_the_servers(self, setup):
        # QUERY_INIT carries t = top_k, clamped to MAX_SORT_K, and the
        # servers rank only the first t
        index, engine, _, fe = setup
        t = top_terms(index, 3)
        text = f"(or {t[0]} {t[1]} {t[2]})"
        oracle = engine.query(parse_sexpr(text), sort=True)
        assert len(oracle) > 4
        kept, fe.transcript = fe.transcript, Transcript()
        try:
            got = fe.query(text, sort=True, top_k=2)
            every = fe.query(text, sort=True, top_k=10**6)
            seen = fe.transcript.entries
        finally:
            fe.transcript = kept
        assert len(got) == 2 and len(every) == len(oracle)
        assert_ranked(got, oracle)
        assert_ranked(every, oracle)
        tops = {decode_query_init(f.payload).top_k
                for _, d, f in seen if d == "send" and f.name == "QUERY_INIT"}
        assert tops == {2, MAX_SORT_K}
        ranks = [decode_global_result(f.payload)
                 for _, d, f in seen if d == "recv" and f.name == "GLOBAL_RESULT"]
        assert [len(r) for r in ranks] == [2, len(oracle)]

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_top_k_below_one_rejected(self, setup, top_k):
        # out[:-1] would quietly drop the last result
        _, _, _, fe = setup
        for sort in (False, True):
            with pytest.raises(QueryError, match="top_k"):
                fe.query("(term friend:1)", sort=sort, top_k=top_k)

    @pytest.mark.parametrize("sort", [False, True])
    def test_only_returned_ids_are_decrypted(self, setup, monkeypatch, sort):
        # one term key for each shard's ids of the one term, and only the
        # ids returned
        index, _, _, fe = setup
        term = top_terms(index, 1)[0]
        real, calls = planner_mod.decrypt_ids, []

        def decrypt_ids(key, ciphertexts):
            calls.append(len(ciphertexts))
            return real(key, ciphertexts)

        monkeypatch.setattr(planner_mod, "decrypt_ids", decrypt_ids)
        got = fe.query(f"(term {term})", sort=sort, top_k=3)
        assert len(got) == sum(calls) == 3 and len(calls) <= 2

    def test_scored_ranking(self, setup):
        # (add key key) doubles every score: ranking matches the plain sort
        index, engine, _, fe = setup
        term = top_terms(index, 1)[0]
        got = fe.query(f"(term {term})", sort=True, score="(add key key)")
        oracle = [
            (2 * sk, eid)
            for sk, eid in engine.query(parse_sexpr(f"(term {term})"), sort=True)
        ]
        assert_ranked(got, oracle)

    def test_score_requires_sort(self, setup):
        _, _, _, fe = setup
        with pytest.raises(QueryError, match="sorted"):
            fe.query("(term friend:1)", score="(add key key)")

    @pytest.mark.parametrize("score", ["(mul key", "(mul key foo)", "(pow key 2)"])
    def test_bad_score_sends_no_frame(self, setup, score):
        index, _, cluster, fe = setup
        term = top_terms(index, 1)[0]
        sent = len(cluster.transcript.entries)
        with pytest.raises(QueryError, match="bad score formula"):
            fe.query(f"(term {term})", sort=True, top_k=5, score=score)
        assert len(cluster.transcript.entries) == sent


class TestWidthBoundaries:
    """Sorts compare scores in scoring.score_width bits: 7 for the sort key
    (1..100) and 14 for (mul key key) (up to 10,000). Rankings at the top
    of each range, with ties, across a merge of two shards."""

    KEYS = [100, 99, 100, 1, 99, 64, 63, 100, 2, 1, 98, 65]

    @pytest.fixture(scope="class")
    def boundary(self):
        edges = [Edge(1, 10 + i, "friend", key) for i, key in enumerate(self.KEYS)]
        index = build_inverted_index(Graph(edges))
        edb = build_edb(
            index, KEYS, crypto.GroupContext(), PartitionConfig(shards_per_cluster=2, seed=5)
        )
        assert {hash_to_shard(10 + i, 2) for i in range(len(self.KEYS))} == {0, 1}
        engine = PlaintextEngine(index)
        with LocalCluster(edb, timeout=30.0) as cluster:
            yield engine, cluster.front_end(KEYS, lengths=engine.lengths, timeout=60.0)

    @pytest.mark.parametrize("top_k", [None, 4])
    def test_unscored_keys_100_99_and_ties(self, boundary, top_k):
        engine, fe = boundary
        oracle = engine.query(parse_sexpr("(term friend:1)"), sort=True)
        assert [sk for sk, _ in oracle[:5]] == [100, 100, 100, 99, 99]
        got = fe.query("(term friend:1)", sort=True, top_k=top_k)
        assert len(got) == (top_k or len(self.KEYS))
        assert_ranked(got, oracle)

    @pytest.mark.parametrize("top_k", [None, 4])
    def test_squared_keys_10000_9801_and_ties(self, boundary, top_k):
        engine, fe = boundary
        oracle = [(sk * sk, eid)
                  for sk, eid in engine.query(parse_sexpr("(term friend:1)"), sort=True)]
        assert [sk for sk, _ in oracle[:5]] == [10_000] * 3 + [9_801] * 2
        got = fe.query("(term friend:1)", sort=True, top_k=top_k, score="(mul key key)")
        assert len(got) == (top_k or len(self.KEYS))
        assert_ranked(got, oracle)


class TestApply:
    def test_apply_matches_oracle(self, setup, monkeypatch):
        index, engine, _, fe = setup
        seed_term = top_terms(index, 1)[0]
        text = f"(apply friend: (term {seed_term}))"
        # avoid tie-truncation ambiguity: keep every nested result
        n = len(index[seed_term])
        monkeypatch.setattr(planner_mod, "NESTED_TOP_K", n)
        got = fe.query(text, sort=True)
        oracle = engine.apply_query(parse_sexpr(text), nested_top_k=n)
        assert_ranked(got, oracle)

    def test_apply_empty_nested(self, setup):
        _, _, _, fe = setup
        assert fe.query("(apply friend: (term friend:999))", sort=True) == []


class TestWorkMetering:
    def test_exponentiations_scale_with_posting_list_only(self, setup):
        index, engine, cluster, fe = setup
        t = top_terms(index, 3)
        s_term = min(t, key=lambda x: len(index[x]))
        for n_x in (1, 2):
            text = "(and " + " ".join([s_term] + [x for x in t if x != s_term][:n_x]) + ")"
            _, counts = server_exps(cluster, lambda: fe.query(text))
            total = sum(counts.values())
            assert total == 2 * len(index[s_term]) * n_x


class TestDegraded:
    @pytest.fixture
    def small(self):
        graph = random_graph(20, 80, seed=5)
        index = build_inverted_index(graph)
        edb = build_edb(
            index, KEYS, crypto.GroupContext(), PartitionConfig(shards_per_cluster=2, seed=5)
        )
        cluster = LocalCluster(edb, timeout=5.0)
        engine = PlaintextEngine(index)
        yield index, engine, cluster
        cluster.stop()

    def test_counterpart_down(self, small):
        index, engine, cluster = small
        fe = cluster.front_end(KEYS, lengths=engine.lengths, timeout=20.0)
        term = top_terms(index, 1)[0]
        cluster.servers.pop(server_name(1, 1)).stop()
        # set operations still work off cluster 0
        assert set(fe.query(f"(term {term})")) == index[term].ids()
        # ranking needs both clusters
        with pytest.raises(QueryError, match="degraded"):
            fe.query(f"(term {term})", sort=True)


class TestStop:
    @pytest.mark.parametrize("form", ["tcp", "unix"])
    def test_stopped_server_refuses_at_once(self, setup, tmp_path, form):
        _, _, cluster, _ = setup
        addr = ("127.0.0.1", 0) if form == "tcp" else str(tmp_path / "is00")
        topology = Topology({"is00": addr})
        server = IndexServer(0, 0, 1, cluster.server(0, 0).data, topology)
        running = set(threading.enumerate())
        server.start()
        (accept_thread,) = set(threading.enumerate()) - running
        topology.connect("is00", 5.0).close()  # reachable while it runs
        server.stop()
        accept_thread.join(timeout=1)
        assert not accept_thread.is_alive()
        with pytest.raises(TransportError, match="refused"):
            topology.connect("is00", 5.0)

    def test_connection_accepted_as_server_stops_is_closed(self, setup, monkeypatch):
        _, _, cluster, _ = setup
        client, late = loopback_pair("late", timeout=1.0)

        class Listener:  # hands out one connection the stop raced with
            def accept(self):
                return late

        server = IndexServer(0, 0, 1, cluster.server(0, 0).data, topology=None)
        server._listener = Listener()
        dispatched = []
        monkeypatch.setattr(server, "_dispatch", dispatched.append)
        server._accept_loop()  # not running: the loop closes it and ends
        assert dispatched == []
        with pytest.raises(ChannelClosed):
            client.recv()
        client.close()

    def test_local_cluster_leaves_no_socket_behind(self, setup):
        index, *_ = setup
        edb = build_edb(
            index, KEYS, crypto.GroupContext(), PartitionConfig(shards_per_cluster=1, seed=21)
        )
        cluster = LocalCluster(edb)
        socket_dir = Path(cluster.socket_dir)
        assert sorted(p.name for p in socket_dir.iterdir()) == ["is00", "is10"]
        cluster.stop()
        assert not socket_dir.exists()


def threads_in_channel_calls(cluster) -> list[str]:
    """The cluster's threads now blocked in a channel send or receive."""
    servers = {id(s) for s in cluster.servers.values()}
    frames = sys._current_frames()
    busy = []
    for thread in threading.enumerate():
        frame = frames.get(thread.ident)
        stack = []
        while frame is not None:
            stack.append(frame)
            frame = frame.f_back
        ours = any(id(f.f_locals.get("self")) in servers for f in stack)
        if ours and any(
            f.f_code.co_filename.endswith("transport.py") and f.f_code.co_name in ("send", "recv")
            for f in stack
        ):
            busy.append(thread.name)
    return busy


def wait_sessions_drained(cluster, within=5.0):
    """Every server's session queues empty out, and no server thread is left
    in a channel call, once the query's threads end."""
    deadline = time.monotonic() + within
    while time.monotonic() < deadline:
        sessions = {n: list(s._sessions) for n, s in cluster.servers.items() if s._sessions}
        busy = threads_in_channel_calls(cluster)
        if not sessions and not busy:
            return
        time.sleep(0.01)
    assert (sessions, busy) == ({}, [])


def open_fds() -> int | None:
    try:
        return len(os.listdir("/proc/self/fd"))
    except FileNotFoundError:
        return None


def fail_boolean_query(monkeypatch):
    """Make boolean_query raise on the servers whose TSet is in the returned list."""
    real = server_mod.boolean_query
    failing_tsets = []

    def boolean_query(tset, *args):
        if any(tset is t for t in failing_tsets):
            raise RuntimeError("injected query failure")
        return real(tset, *args)

    monkeypatch.setattr(server_mod, "boolean_query", boolean_query)
    return failing_tsets


def conjunction_on_both_shards(index):
    """An (and a b) with results on both shards of a 2-shard EDB, so that
    both counterpart pairs run a local sort."""
    terms = top_terms(index, 10)
    for a in terms:
        for b in terms:
            both = index[a].ids() & index[b].ids()
            if a < b and {hash_to_shard(eid, 2) for eid in both} == {0, 1}:
                return f"(and {a} {b})"
    raise AssertionError("no conjunction with results on both shards")


class TestFailFast:
    @pytest.mark.parametrize(
        "role,party,after_call,match",
        [
            pytest.param("local_sort_garbler", "is01", False, "shard 1 degraded",
                         id="local_sort_garbler-is01"),
            pytest.param("local_sort_evaluator", "is11", False, "shard 1 degraded",
                         id="local_sort_evaluator-is11"),
            # is01 has reported its mask as sent, so only cluster 1 knows of
            # the failure: its coordinator closes the merge session at once
            pytest.param("local_sort_evaluator", "is11", True, "closed the merge",
                         id="local_sort_evaluator-is11-after-sorting"),
            # the cluster-1 coordinator fails its own sort phase
            pytest.param("local_sort_evaluator", "is10", False, "shard 0 degraded",
                         id="local_sort_evaluator-is10"),
        ],
    )
    def test_failed_local_sort_reported_at_once(
        self, setup, monkeypatch, role, party, after_call, match
    ):
        index, engine, _, _ = setup
        edb = build_edb(
            index, KEYS, crypto.GroupContext(), PartitionConfig(shards_per_cluster=2, seed=21)
        )
        real = getattr(server_mod, role)

        def failing(channel, *args, **width):
            if channel.party != party:
                return real(channel, *args, **width)
            if after_call:
                real(channel, *args, **width)
            raise RuntimeError("injected local-sort failure")

        monkeypatch.setattr(server_mod, role, failing)
        term = top_terms(index, 1)[0]
        with LocalCluster(edb) as cluster:  # the default 60 s server timeout
            fe = cluster.front_end(KEYS, lengths=engine.lengths)
            assert all(edb.clusters[0][j].tset.retrieve(crypto.stag_derive(KEYS, term))
                       for j in (0, 1))
            t0 = time.perf_counter()
            with pytest.raises(QueryError, match=match):
                fe.query(f"(term {term})", sort=True)
            assert time.perf_counter() - t0 < 5
            # the servers are still usable afterwards
            assert set(fe.query(f"(term {term})")) == index[term].ids()
            wait_sessions_drained(cluster)

    def test_stalled_garbler_releases_its_counterpart_within_the_timeout(
        self, setup, monkeypatch
    ):
        # is01 opens its local sort and then sends nothing: the query fails
        # on the coordinator's wait for its masks, and is11's evaluator gives
        # the session up on the servers' 2 s timeout, not on a longer one
        index, engine, _, _ = setup
        edb = build_edb(
            index, KEYS, crypto.GroupContext(), PartitionConfig(shards_per_cluster=2, seed=21)
        )
        release = threading.Event()
        real_garbler = server_mod.local_sort_garbler
        real_evaluator = server_mod.local_sort_evaluator
        evaluated = {}

        def stalled(channel, *args, **width):
            if channel.party != "is01":
                return real_garbler(channel, *args, **width)
            release.wait(40)
            raise RuntimeError("stalled garbler released")

        def timed(channel, *args, **width):
            if channel.party != "is11":
                return real_evaluator(channel, *args, **width)
            evaluated["called"] = time.perf_counter()
            try:
                return real_evaluator(channel, *args, **width)
            except Exception as exc:
                evaluated["raised"] = exc
                raise
            finally:
                evaluated["ended"] = time.perf_counter()

        monkeypatch.setattr(server_mod, "local_sort_garbler", stalled)
        monkeypatch.setattr(server_mod, "local_sort_evaluator", timed)
        term = top_terms(index, 1)[0]
        with LocalCluster(edb, timeout=2.0) as cluster:
            try:
                fe = cluster.front_end(KEYS, lengths=engine.lengths)
                t0 = time.perf_counter()
                with pytest.raises(QueryError):
                    fe.query(f"(term {term})", sort=True)
                assert time.perf_counter() - t0 < 5
                deadline = t0 + 10
                while "ended" not in evaluated and time.perf_counter() < deadline:
                    time.sleep(0.01)
                assert isinstance(evaluated.get("raised"), TransportError)
                assert evaluated["ended"] - evaluated["called"] < 5
                wait_sessions_drained(cluster)
            finally:
                release.set()

    @pytest.mark.parametrize(
        "codec,match",
        [("_encode_contrib", "closed the merge"), ("_encode_masks", r"outside Z_\{2\^7\}")],
        ids=["contrib", "masks"],
    )
    def test_word_at_or_above_the_width_refused(self, setup, monkeypatch, codec, match):
        # an unscored sort compares 7 bits: a shard that reports a masked
        # score or mask of 128 would merge as another score, so its
        # coordinator refuses the report and the query fails at once
        index, engine, _, _ = setup
        edb = build_edb(
            index, KEYS, crypto.GroupContext(), PartitionConfig(shards_per_cluster=2, seed=21)
        )
        real = getattr(server_mod, codec)

        def widened(shard, status, words, *count):
            if shard == 1 and words:
                words = [(128, words[0][1]) if count else 128] + words[1:]
            return real(shard, status, words, *count)

        monkeypatch.setattr(server_mod, codec, widened)
        text = conjunction_on_both_shards(index)
        with LocalCluster(edb) as cluster:  # the default 60 s server timeout
            fe = cluster.front_end(KEYS, lengths=engine.lengths)
            t0 = time.perf_counter()
            with pytest.raises(QueryError, match=match):
                fe.query(text, sort=True)
            assert time.perf_counter() - t0 < 5
            wait_sessions_drained(cluster)
            monkeypatch.setattr(server_mod, codec, real)
            assert_ranked(fe.query(text, sort=True), engine.query(parse_sexpr(text), sort=True))

    def test_late_session_closed_on_arrival(self, setup):
        _, _, cluster, _ = setup
        server = cluster.server(1, 0)
        key = ("sort", secrets.randbits(64))
        early_peer, early = loopback_pair("early", timeout=1.0)
        late_peer, late = loopback_pair("late", timeout=1.0)
        try:
            server._deliver(key, early)  # delivered, then never consumed
            server._drop(key)
            server._deliver(key, late)
            assert key not in server._sessions
            for peer in (early_peer, late_peer):
                with pytest.raises(ChannelClosed):
                    peer.recv()
        finally:
            for chan in (early_peer, early, late_peer, late):
                chan.close()

    def test_masks_from_unknown_shard_refused(self, setup):
        _, _, cluster, _ = setup
        server = IndexServer(0, 0, 1, cluster.server(0, 0).data, topology=None)
        qid = secrets.randbits(64)
        server._deliver(("masks", qid), (3, server_mod.STATUS_OK, [0]))
        chan, peer = loopback_pair("fe")
        try:
            with pytest.raises(ServerError, match="shard 3"):
                server._coordinate_masks(chan, qid, None, SCORE_BITS)
            assert ("gsort", qid) in server._dropped  # the merge is closed on arrival
        finally:
            chan.close()
            peer.close()

    def test_stray_frames_held_within_bound(self, setup):
        # frames for sessions the server never runs, such as a dead
        # front-end's: the oldest unclaimed queues are discarded, channels
        # closed, and queries still run
        index, engine, _, _ = setup
        edb = build_edb(
            index, KEYS, crypto.GroupContext(), PartitionConfig(shards_per_cluster=2, seed=21)
        )
        with LocalCluster(edb, timeout=10.0) as cluster:
            server = cluster.server(0, 0)
            channels = [loopback_pair("stray", timeout=1.0) for _ in range(3)]
            try:
                for peer, chan in channels:
                    server._deliver(("gsort", secrets.randbits(64)), chan)
                for _ in range(2000 - len(channels)):
                    server._deliver(("masks", secrets.randbits(64)), (1, server_mod.STATUS_OK, [5]))
                assert len(server._sessions) == server_mod.UNCLAIMED_KEPT
                for peer, _ in channels:
                    with pytest.raises(ChannelClosed):
                        peer.recv()
            finally:
                for pair in channels:
                    for chan in pair:
                        chan.close()
            fe = cluster.front_end(KEYS, lengths=engine.lengths)
            text = conjunction_on_both_shards(index)
            assert_ranked(fe.query(text, sort=True), engine.query(parse_sexpr(text), sort=True))
            assert len(server._sessions) <= server_mod.UNCLAIMED_KEPT

    @pytest.mark.parametrize("party", ["is11", "is10", "is01", "is00"])
    def test_failed_query_releases_every_session(self, setup, monkeypatch, party):
        # the server fails before its RESULT, so its sort phase never starts
        index, engine, _, _ = setup
        edb = build_edb(
            index, KEYS, crypto.GroupContext(), PartitionConfig(shards_per_cluster=2, seed=21)
        )
        failing_tsets = fail_boolean_query(monkeypatch)
        text = conjunction_on_both_shards(index)
        with LocalCluster(edb) as cluster:  # the default 60 s server timeout
            fe = cluster.front_end(KEYS, lengths=engine.lengths)
            failing_tsets.append(cluster.servers[party].data.tset)
            t0 = time.perf_counter()
            with pytest.raises(QueryError):
                fe.query(text, sort=True)
            assert time.perf_counter() - t0 < 5
            wait_sessions_drained(cluster)

    def test_no_descriptor_outlives_its_query(self, setup, monkeypatch):
        index, engine, _, _ = setup
        if open_fds() is None:
            pytest.skip("no /proc/self/fd")
        edb = build_edb(
            index, KEYS, crypto.GroupContext(), PartitionConfig(shards_per_cluster=2, seed=21)
        )
        failing_tsets = fail_boolean_query(monkeypatch)
        text = conjunction_on_both_shards(index)
        parties = ["is00", "is01", "is10", "is11"]
        with LocalCluster(edb, timeout=10.0) as cluster:
            fe = cluster.front_end(KEYS, lengths=engine.lengths)
            before = open_fds()
            for i in range(20):
                failing_tsets[:] = [cluster.servers[parties[i // 5]].data.tset] if i % 5 == 4 else []
                try:
                    fe.query(text, sort=True)
                except QueryError:
                    assert i % 5 == 4
                else:
                    assert i % 5 != 4
            wait_sessions_drained(cluster)
            deadline = time.monotonic() + 5
            while open_fds() != before and time.monotonic() < deadline:
                time.sleep(0.01)
            assert open_fds() == before


class TestSecureMode:
    def test_scored_query_with_cot_triples(self, setup):
        index, engine, _, _ = setup
        edb = build_edb(
            index, KEYS, crypto.GroupContext(), PartitionConfig(shards_per_cluster=1, seed=21)
        )
        with LocalCluster(edb, run_mode="secure", timeout=60.0) as cluster:
            fe = cluster.front_end(KEYS, lengths=engine.lengths, timeout=120.0)
            term = min(top_terms(index, 8), key=lambda t: len(index[t]))
            got = fe.query(f"(term {term})", sort=True, score="(mul key key)")
            oracle = [
                (sk * sk, eid)
                for sk, eid in sorted(
                    index[term].entries, key=lambda e: (-(e[0] ** 2), e[1])
                )
            ]
            assert_ranked(got, oracle)

    def test_two_multiplications_on_one_triple_source(self, setup):
        # both triples come from one OT pair, so its second extension must
        # continue the seed streams where the first one stopped
        index, engine, _, _ = setup
        edb = build_edb(
            index, KEYS, crypto.GroupContext(), PartitionConfig(shards_per_cluster=1, seed=21)
        )
        with LocalCluster(edb, run_mode="secure", timeout=60.0) as cluster:
            fe = cluster.front_end(KEYS, lengths=engine.lengths, timeout=120.0)
            term = min(top_terms(index, 8), key=lambda t: len(index[t]))
            got = fe.query(f"(term {term})", sort=True, score="(mul (mul key key) key)")
            oracle = sorted(
                ((sk**3 % SHARE_MODULUS, eid) for sk, eid in index[term].entries),
                key=lambda e: (-e[0], e[1]),
            )
            assert_ranked(got, oracle)


    def _scored_oracle(self, engine, text):
        return sorted(
            ((sk * sk % SHARE_MODULUS, eid)
             for sk, eid in engine.query(parse_sexpr(text), sort=True)),
            key=lambda e: -e[0],
        )

    def test_steady_state_runs_no_base_ot(self, setup):
        # the first sorted and scored query sets up every pair's OT state;
        # later ones only extend it
        index, engine, _, _ = setup
        edb = build_edb(
            index, KEYS, crypto.GroupContext(), PartitionConfig(shards_per_cluster=2, seed=21)
        )
        t = top_terms(index, 3)
        text = f"(or {t[0]} {t[1]} {t[2]})"
        transcript = Transcript()
        with LocalCluster(edb, transcript=transcript, timeout=60.0) as cluster:
            assert {s.run_mode for s in cluster.servers.values()} == {"secure"}
            fe = cluster.front_end(KEYS, lengths=engine.lengths, timeout=120.0)

            def run_query():
                with transcript.lock:
                    transcript.entries.clear()
                got = fe.query(text, sort=True, score="(mul key key)")
                assert_ranked(got, self._scored_oracle(engine, text))
                return {f.name for _, d, f in transcript.entries if d == "send"}

            assert {"OT_SETUP", "OT_EXTEND"} <= run_query()
            exps = {name: s.ot_ctx.exp_count for name, s in cluster.servers.items()}
            assert all(exps.values())
            for _ in range(2):
                sent = run_query()
                assert "OT_EXTEND" in sent and "OT_SETUP" not in sent
                assert {n: s.ot_ctx.exp_count for n, s in cluster.servers.items()} == exps

    def test_scoring_sends_only_ot_and_mul_frames(self, setup):
        # in steady state each multiplication costs the counterpart pair one
        # correlated-OT extension each way and one Beaver exchange each way
        index, engine, _, _ = setup
        edb = build_edb(
            index, KEYS, crypto.GroupContext(), PartitionConfig(shards_per_cluster=2, seed=21)
        )
        t = top_terms(index, 3)
        text = f"(or {t[0]} {t[1]} {t[2]})"
        query_and_sort = {"TUPLE_COUNT", "RESULT", "SORT_INIT", "CIRCUIT_BLOB",
                          "GARBLER_LABELS", "MASKS", "CONTRIB"}
        transcript = Transcript()
        with LocalCluster(edb, transcript=transcript, timeout=60.0) as cluster:
            fe = cluster.front_end(KEYS, lengths=engine.lengths, timeout=120.0)
            fe.query(text, sort=True, score="(mul key key)")  # sets up every pair
            for score, muls in (("(mul key key)", 1), ("(mul (mul key key) key)", 2)):
                with transcript.lock:
                    transcript.entries.clear()
                assert fe.query(text, sort=True, score=score)
                sent = {
                    party: [f.name for p, d, f in transcript.entries
                            if p == party and d == "send" and f.name not in query_and_sort]
                    for party in ("is01", "is11")  # shard 1 does no coordinating
                }
                # each list ends with the local sort's one label transfer
                assert sent["is01"] == ["OT_PAYLOAD", "OT_EXTEND", "MUL_EXCHANGE"] * muls + [
                    "OT_PAYLOAD"]
                assert sent["is11"] == ["OT_EXTEND", "OT_PAYLOAD", "MUL_EXCHANGE"] * muls + [
                    "OT_EXTEND"]

    def test_only_secret_products_spend_triples(self, setup):
        # in steady state, a multiplication of two secret sub-formulas costs
        # each of the two counterpart pairs one MUL_EXCHANGE each way; a
        # sub-formula of constants alone is public, so (mul (add 2 3) key)
        # sends what (mul key 5) sends, bar its longer QUERY_INIT
        index, engine, _, _ = setup
        edb = build_edb(
            index, KEYS, crypto.GroupContext(), PartitionConfig(shards_per_cluster=2, seed=21)
        )
        t = top_terms(index, 3)
        text = f"(or {t[0]} {t[1]} {t[2]})"
        muls = {
            "(mul key key)": 4,
            "(mul (mul key key) key)": 8,
            "(add (mul key 3) 7)": 0,
            "(mul (add key 1) (add key 2))": 4,
            "(mul (add 2 3) key)": 0,
            "(mul key 5)": 0,
        }
        frames = {}
        transcript = Transcript()
        with LocalCluster(edb, transcript=transcript, timeout=60.0) as cluster:
            fe = cluster.front_end(KEYS, lengths=engine.lengths, timeout=120.0)
            fe.query(text, sort=True, score="(mul key key)")  # sets up every pair
            for score in muls:
                with transcript.lock:
                    transcript.entries.clear()
                assert fe.query(text, sort=True, score=score)
                frames[score] = Counter(
                    (f.name, len(f.payload)) for _, d, f in transcript.entries
                    if d == "send" and f.name != "QUERY_INIT"
                )
        assert {
            score: sum(n for (name, _), n in sent.items() if name == "MUL_EXCHANGE")
            for score, sent in frames.items()
        } == muls
        assert frames["(mul (add 2 3) key)"] == frames["(mul key 5)"]

    def test_shares_come_from_the_csprng(self, setup, monkeypatch):
        index, engine, _, _ = setup
        edb = build_edb(
            index, KEYS, crypto.GroupContext(), PartitionConfig(shards_per_cluster=1, seed=21)
        )

        def refuse(*args, **kwargs):
            raise AssertionError("numpy's generator is no CSPRNG")

        text = f"(term {top_terms(index, 1)[0]})"
        with LocalCluster(edb, timeout=60.0) as cluster:
            fe = cluster.front_end(KEYS, lengths=engine.lengths, timeout=120.0)
            monkeypatch.setattr(np.random, "default_rng", refuse)
            got = fe.query(text, sort=True, score="(mul key key)")
        assert_ranked(got, self._scored_oracle(engine, text))

    def test_concurrent_front_ends(self, setup):
        index, engine, _, _ = setup
        edb = build_edb(
            index, KEYS, crypto.GroupContext(), PartitionConfig(shards_per_cluster=2, seed=21)
        )
        t = top_terms(index, 4)
        queries = [
            (f"(or {t[0]} {t[1]})", None),
            (f"(term {t[2]})", "(mul key key)"),
            (f"(or {t[1]} {t[3]})", "(mul key key)"),
            (f"(term {t[0]})", None),
        ]
        errors = []
        with LocalCluster(edb, timeout=60.0) as cluster:

            def client(order):
                fe = cluster.front_end(KEYS, lengths=engine.lengths, timeout=120.0)
                try:
                    for text, score in order:
                        got = fe.query(text, sort=True, score=score)
                        if score:
                            want = self._scored_oracle(engine, text)
                        else:
                            want = engine.query(parse_sexpr(text), sort=True)
                        assert_ranked(got, want)
                        assert len(got) == len(want)
                except Exception as exc:  # re-raised in the test thread
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(order,))
                for order in (queries, queries[::-1])
            ]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=240)
            assert not any(th.is_alive() for th in threads)
        assert errors == []


class TestPartitionInvariance:
    def test_results_match_across_shardings(self, setup):
        index, engine, *_ = setup
        t = top_terms(index, 2)
        text = f"(or {t[0]} {t[1]})"
        oracle_ranked = engine.query(parse_sexpr(text), sort=True)
        want = {eid for _, eid in oracle_ranked}
        for shards in (1, 2, 3):
            edb = build_edb(
                index,
                KEYS,
                crypto.GroupContext(),
                PartitionConfig(shards_per_cluster=shards, seed=33),
            )
            with LocalCluster(edb, timeout=30.0) as cluster:
                fe = cluster.front_end(KEYS, lengths=engine.lengths, timeout=60.0)
                assert set(fe.query(text)) == want
                assert_ranked(fe.query(text, sort=True), oracle_ranked)


class TestHygiene:
    def test_store_fingerprint_stable_across_queries(self, setup):
        index, _, cluster, fe = setup
        server = cluster.server(0, 0)
        before = store_fingerprint(server)
        fe.query(f"(term {top_terms(index, 1)[0]})", sort=True)
        assert store_fingerprint(server) == before

    def test_query_ids_are_full_width(self, setup):
        # server session maps key on query ids, so they must not share a
        # prefix across front-ends
        index, engine, cluster, _ = setup
        transcript = Transcript()
        term = top_terms(index, 1)[0]
        for _ in range(64):
            fe = cluster.front_end(KEYS, lengths=engine.lengths, transcript=transcript)
            fe.query(f"(term {term})")
        ids = {f.session for _, _, f in transcript.entries if f.name == "QUERY_INIT"}
        assert len(ids) == 64
        assert max(ids) >= 1 << 56

    def test_tampered_result_raises(self, setup):
        index, engine, _, _ = setup
        edb = build_edb(
            index, KEYS, crypto.GroupContext(), PartitionConfig(shards_per_cluster=1, seed=21)
        )
        term = top_terms(index, 1)[0]
        stag = crypto.stag_derive(KEYS, term)
        shard = edb.clusters[0][0]
        key = next(k for k in shard.tset.blocks if k.startswith(stag))
        from privgraph.builder import EncryptedTuple

        tup = shard.tset.blocks[key][0]
        shard.tset.blocks[key][0] = EncryptedTuple(
            tup.sortkey_share, tup.e_id[:-1] + bytes([tup.e_id[-1] ^ 1]), tup.y
        )
        with LocalCluster(edb, timeout=10.0) as cluster:
            fe = cluster.front_end(KEYS, lengths=engine.lengths)
            with pytest.raises(IntegrityError):
                fe.query(f"(term {term})")


class TestMalformedXtokens:
    def test_off_curve_xtoken_gets_error_and_server_keeps_serving(self, setup, monkeypatch):
        index, engine, cluster, fe = setup
        t = top_terms(index, 2)
        text = f"(and {t[0]} {t[1]})"
        honest = planner_mod.encode_xtoken_batch
        monkeypatch.setattr(
            planner_mod, "encode_xtoken_batch",
            lambda rows: honest([[off_curve_x()] + row[1:] for row in rows]),
        )
        transcript = cluster.transcript
        seen = len(transcript.entries)
        with pytest.raises(QueryError, match="P-256"):
            fe.query(text)
        errors = [(party, f.payload) for party, d, f in transcript.entries[seen:]
                  if d == "send" and f.name == "ERROR"]
        assert errors and all(party.startswith("is") for party, _ in errors)
        monkeypatch.undo()
        want = {eid for _, eid in engine.query(parse_sexpr(text))}
        assert set(fe.query(text)) == want


class TestBenchmarkHooks:
    def test_tracer_finds_every_hook(self, setup):
        """perfbench/tracing.py wraps program functions by name from
        outside; each one it looks for must still exist, and the sort
        layer's circuit lookups and garbling must still run inside the
        four sort functions, where its per-layer metrics attribute them."""
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        index, _, cluster, fe = setup
        tracer = tracing.Tracer(cluster)
        tracer.install()
        try:
            assert tracer.missing == []
            t = top_terms(index, 3)
            fe.query(f"(or {t[0]} {t[1]} {t[2]})", sort=True)
        finally:
            tracer.uninstall()
        sorts = {f"sorting.{side}_sort_{role}" for side in ("local", "global")
                 for role in ("garbler", "evaluator")}
        inner = [sp for sp in tracer.spans if sp.layer in ("circuits", "garble")]
        assert {sp.parent.name for sp in inner} == sorts
