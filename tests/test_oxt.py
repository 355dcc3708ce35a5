import pytest

from conftest import random_graph
from privgraph import crypto, oxt
from privgraph.builder import PartitionConfig, build_edb
from privgraph.graph import PlaintextEngine, build_inverted_index
from privgraph.planner import FrontEnd
from privgraph.sexpr import parse_sexpr


@pytest.fixture
def keys():
    return crypto.MasterKeyBundle(*(bytes([i + 7]) * 16 for i in range(5)))


@pytest.fixture
def ctx():
    return crypto.GroupContext()


def make_setup(keys, ctx, n_nodes=30, n_edges=200, shards=1, seed=0):
    graph = random_graph(n_nodes, n_edges, seed=seed)
    index = build_inverted_index(graph)
    config = PartitionConfig(shards_per_cluster=shards, seed=seed)
    edb = build_edb(index, keys, ctx, config)
    return index, edb


def points(rows):
    """Front-end xtoken rows as the points a server decodes them to."""
    return [[crypto.decode_element(token) for token in row] for row in rows]


def run_subquery(sub, keys, ctx, edb, cluster=0):
    """Evaluate one subquery over every shard; decrypted id set."""
    stag = oxt.stag_for(keys, sub)
    fe = FrontEnd(keys, None, len(edb.clusters[cluster]))
    ids = []
    for j, shard in enumerate(edb.clusters[cluster]):
        tuples = shard.tset.retrieve(stag)
        rows = points(oxt.xtoken_rows(keys, ctx, sub.s_term, len(tuples), sub.x_terms))
        survivors = oxt.boolean_query(
            shard.tset, shard.xset, ctx, stag, rows, sub.formula, sub.negate
        )
        ids.extend(fe._decrypt(sub.s_term, [t.e_id for _, t in survivors], j))
    return set(ids)


def run_query(text, keys, ctx, edb, index):
    engine = PlaintextEngine(index)
    got = set()
    for sub in oxt.compile_query(parse_sexpr(text), engine.lengths):
        got |= run_subquery(sub, keys, ctx, edb)
    return got


class TestIndexAccess:
    def test_term_round_trip(self, keys, ctx):
        index, edb = make_setup(keys, ctx, shards=3)
        term = max(index, key=lambda t: len(index[t]))
        got = run_query(f"(term {term})", keys, ctx, edb, index)
        assert got == index[term].ids()

    def test_absent_term_empty(self, keys, ctx):
        index, edb = make_setup(keys, ctx)
        assert run_query("(term friend:9999)", keys, ctx, edb, index) == set()


class TestBooleanQuery:
    def test_and_example(self, keys, ctx):
        from privgraph.graph import Graph, Edge

        edges = [Edge(1, d, "friend", 10) for d in (2, 3, 4)]
        edges += [Edge(2, d, "friend", 20) for d in (3, 4, 5)]
        index = build_inverted_index(Graph(edges))
        edb = build_edb(index, keys, ctx, PartitionConfig())
        got = run_query("(and friend:1 friend:2)", keys, ctx, edb, index)
        assert got == {3, 4}

    def test_difference_example(self, keys, ctx):
        from privgraph.graph import Graph, Edge

        edges = [Edge(1, d, "friend", 10) for d in (2, 3, 4)]
        edges += [Edge(2, d, "friend", 20) for d in (3, 4, 5)]
        edges += [Edge(3, d, "friend", 30) for d in (2, 3, 7)]
        index = build_inverted_index(Graph(edges))
        edb = build_edb(index, keys, ctx, PartitionConfig())
        got = run_query(
            "(difference friend:3 (and friend:1 friend:2))", keys, ctx, edb, index
        )
        assert got == {2, 7}

    def test_random_oracle_equivalence(self, keys, ctx):
        index, edb = make_setup(keys, ctx, seed=5)
        engine = PlaintextEngine(index)
        terms = sorted(index, key=lambda t: -len(index[t]))[:4]
        for text in (
            f"(and {terms[0]} {terms[1]})",
            f"(and {terms[0]} {terms[1]} {terms[2]})",
            f"(difference {terms[0]} {terms[1]})",
            f"(and {terms[0]} (or {terms[1]} {terms[2]}))",
            f"(or {terms[0]} {terms[1]} {terms[2]} {terms[3]})",
        ):
            expr = parse_sexpr(text)
            want = {eid for _, eid in engine.query(expr)}
            assert run_query(text, keys, ctx, edb, index) == want, text

    def test_row_count_mismatch_rejected(self, keys, ctx):
        index, edb = make_setup(keys, ctx)
        term = max(index, key=lambda t: len(index[t]))
        sub = oxt.compile_query(parse_sexpr(f"(term {term})"))[0]
        stag = oxt.stag_for(keys, sub)
        from privgraph.sexpr import BoolFormula

        with pytest.raises(ValueError, match="rows"):
            oxt.boolean_query(
                edb.clusters[0][0].tset,
                edb.clusters[0][0].xset,
                ctx,
                stag,
                [[]] * 999,
                BoolFormula.true(),
                False,
            )


class TestWorkIndependence:
    def test_exponentiation_law(self, keys, ctx):
        index, edb = make_setup(keys, ctx, seed=6)
        engine = PlaintextEngine(index)
        terms = sorted(index, key=lambda t: -len(index[t]))[:5]
        s_term = terms[0]
        count = len(index[s_term])
        for n_x in range(1, 5):
            text = "(and " + " ".join(terms[: n_x + 1]) + ")"
            sub = oxt.compile_query(parse_sexpr(text), {s_term: 0})[0]
            assert sub.s_term == s_term
            stag = oxt.stag_for(keys, sub)
            rows = points(oxt.xtoken_rows(keys, ctx, s_term, count, sub.x_terms))
            shard = edb.clusters[0][0]
            ctx.exp_count = 0
            oxt.boolean_query(
                shard.tset, shard.xset, ctx, stag, rows, sub.formula, sub.negate
            )
            assert ctx.exp_count == count * n_x


class TestXtokenRows:
    def test_rows_equal_per_cell_xtokens(self, keys, ctx):
        x_terms = ("friend:2", "follow:7", "friend:9")
        rows = oxt.xtoken_rows(keys, ctx, "friend:1", 4, x_terms)
        assert rows == [
            [crypto.xtoken_compute(keys, ctx, "friend:1", c, xl) for xl in x_terms]
            for c in range(1, 5)
        ]

    def test_one_fixed_base_multiplication_per_cell(self, keys, ctx):
        ctx.exp_count = 0
        oxt.xtoken_rows(keys, ctx, "friend:1", 5, ("friend:2", "friend:3"))
        assert ctx.exp_count == 10


class TestOrRewrite:
    def test_shape(self):
        subs = oxt.or_rewrite(["friend:1", "friend:2", "friend:3"])
        assert len(subs) == 3
        assert subs[0].s_term == "friend:1" and subs[0].negate
        assert subs[0].x_terms == ("friend:2", "friend:3")
        assert subs[1].x_terms == ("friend:3",)
        assert not subs[2].negate and subs[2].x_terms == ()

    def test_single_term(self):
        subs = oxt.or_rewrite(["friend:1"])
        assert len(subs) == 1 and not subs[0].negate

    def test_empty(self):
        assert oxt.or_rewrite([]) == []

    def test_disjoint_union_random(self, keys, ctx):
        index, edb = make_setup(keys, ctx, seed=7)
        engine = PlaintextEngine(index)
        terms = sorted(index, key=lambda t: -len(index[t]))[:3]
        subs = oxt.or_rewrite(terms)
        results = [run_subquery(s, keys, ctx, edb) for s in subs]
        for a in range(len(results)):
            for b in range(a + 1, len(results)):
                assert not results[a] & results[b]
        union = set().union(*results)
        want = set().union(*(index[t].ids() for t in terms if t in index))
        assert union == want


class TestDecrypt:
    def test_tampered_tuple(self, keys, ctx):
        index, edb = make_setup(keys, ctx)
        term = max(index, key=lambda t: len(index[t]))
        stag = crypto.stag_derive(keys, term)
        tuples = edb.clusters[0][0].tset.retrieve(stag)
        from privgraph.builder import EncryptedTuple

        bad = EncryptedTuple(
            tuples[0].sortkey_share,
            tuples[0].e_id[:-1] + bytes([tuples[0].e_id[-1] ^ 1]),
            tuples[0].y,
        )
        with pytest.raises(oxt.IntegrityError, match="shard 0"):
            FrontEnd(keys, None, 1)._decrypt(term, [tuples[1].e_id, bad.e_id], 0)
