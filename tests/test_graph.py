import pytest

from conftest import random_graph
from privgraph.graph import (
    EdgeListError,
    PlaintextEngine,
    build_inverted_index,
    load_edge_list,
    select_s_term,
)
from privgraph.sexpr import parse_sexpr


def make_index(lists):
    """Build an index from {term: [(sort_key, id), ...]}."""
    from privgraph.graph import PostingList

    return {t: PostingList(t, list(entries)) for t, entries in lists.items()}


class TestLoadEdgeList:
    def test_small_file(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("1 2 10\n1 3 20\n2 3 30\n")
        graph = load_edge_list(path, "friend")
        assert len(graph) == 3
        index = build_inverted_index(graph)
        assert {eid for _, eid in index["friend:1"].entries} == {2, 3}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("1 2 10\nnot an edge\n")
        with pytest.raises(EdgeListError) as exc:
            load_edge_list(path, "friend")
        assert ":2" in str(exc.value)

    def test_duplicate_keeps_first(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("1 2 10\n1 2 99\n")
        graph = load_edge_list(path, "friend")
        assert len(graph) == 1
        assert graph.edges[0].sort_key == 10

    def test_seeded_random_weights(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("1 2\n1 3\n2 3\n")
        g1 = load_edge_list(path, "friend", "uniform_random", seed=5)
        g2 = load_edge_list(path, "friend", "uniform_random", seed=5)
        assert [e.sort_key for e in g1.edges] == [e.sort_key for e in g2.edges]
        assert all(1 <= e.sort_key <= 100 for e in g1.edges)


class TestInvertedIndex:
    def test_conservation(self):
        graph = random_graph(50, 400, edge_types=("friend", "follow"), seed=1)
        index = build_inverted_index(graph)
        assert sum(len(p) for p in index.values()) == len(graph)

    def test_empty_graph(self):
        from privgraph.graph import Graph

        assert build_inverted_index(Graph([])) == {}


class TestPlaintextEngine:
    def test_and_intersection(self):
        index = make_index(
            {
                "friend:1": [(10, 2), (20, 3), (30, 4)],
                "friend:2": [(10, 3), (20, 4), (30, 5)],
            }
        )
        engine = PlaintextEngine(index)
        result = engine.query(parse_sexpr("(and friend:1 friend:2)"))
        assert {eid for _, eid in result} == {3, 4}

    def test_difference(self):
        index = make_index(
            {
                "friend:1": [(10, 2), (20, 3), (30, 4)],
                "friend:2": [(10, 3), (20, 4), (30, 5)],
                "friend:3": [(5, 2), (6, 3), (7, 7)],
            }
        )
        engine = PlaintextEngine(index)
        result = engine.query(parse_sexpr("(difference friend:3 (and friend:1 friend:2))"))
        assert {eid for _, eid in result} == {2, 7}

    def test_unknown_term_empty(self):
        engine = PlaintextEngine({})
        assert engine.query(parse_sexpr("(term friend:1)")) == []

    def test_or_union(self):
        index = make_index(
            {
                "friend:1": [(10, 2), (20, 3)],
                "friend:2": [(30, 3), (40, 5)],
            }
        )
        engine = PlaintextEngine(index)
        result = engine.query(parse_sexpr("(or friend:1 friend:2)"))
        assert {eid for _, eid in result} == {2, 3, 5}
        # id 3 charged to the last containing term per the rewrite identity
        assert dict((eid, sk) for sk, eid in result)[3] == 30

    def test_sorted_ranking(self):
        index = make_index({"friend:1": [(10, 5), (30, 2), (30, 9), (20, 4)]})
        engine = PlaintextEngine(index)
        result = engine.query(parse_sexpr("(term friend:1)"), sort=True)
        assert result == [(30, 2), (30, 9), (20, 4), (10, 5)]

    def test_top_k(self):
        index = make_index({"friend:1": [(i, 100 + i) for i in range(1, 21)]})
        engine = PlaintextEngine(index)
        result = engine.query(parse_sexpr("(term friend:1)"), sort=True, top_k=5)
        assert [eid for _, eid in result] == [120, 119, 118, 117, 116]

    def test_apply_friends_of_friends(self):
        index = make_index(
            {
                "friend:1": [(10, 2), (20, 3)],
                "friend:2": [(10, 4)],
                "friend:3": [(10, 4), (20, 5)],
            }
        )
        engine = PlaintextEngine(index)
        result = engine.query(parse_sexpr("(apply friend: friend:1)"), sort=True)
        assert {eid for _, eid in result} == {4, 5}

    def test_apply_empty_nested(self):
        engine = PlaintextEngine({})
        assert engine.query(parse_sexpr("(apply friend: friend:99)")) == []

    def test_or_self_consistency(self):
        graph = random_graph(30, 200, seed=11)
        index = build_inverted_index(graph)
        engine = PlaintextEngine(index)
        t1, t2 = "friend:1", "friend:2"
        union = {e for _, e in engine.query(parse_sexpr(f"(or {t1} {t2})"))}
        ids1 = {e for _, e in engine.query(parse_sexpr(f"(term {t1})"))}
        ids2 = {e for _, e in engine.query(parse_sexpr(f"(term {t2})"))}
        assert union == ids1 | ids2

    def test_s_term_selection(self):
        lengths = {"a:1": 5, "b:1": 2, "c:1": 9}
        assert select_s_term(["a:1", "b:1", "c:1"], lengths) == 1
        assert select_s_term(["a:1", "b:1"], None) == 0
