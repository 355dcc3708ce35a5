import pytest

from privgraph.oxt import compile_query
from privgraph.planner import FrontEnd, QueryError
from privgraph.sexpr import NESTED_TOP_K, parse_sexpr


def recorded(monkeypatch, answer=(5,)):
    """A front-end whose protocol sessions are recorded, not run: each
    returns answer. Returns it and the list of (s-terms, sort, top_k,
    score), one per session."""
    fe = FrontEnd(None, topology=None, n_shards=1)
    rounds = []

    def execute(subqueries, sort, top_k, score):
        rounds.append(([s.s_term for s in subqueries], sort, top_k, score))
        return list(answer)

    monkeypatch.setattr(fe, "_execute", execute)
    return fe, rounds


class TestPlanSteps:
    """The one decomposition the front-end runs: compile_query's subqueries
    (one index access each) and one protocol session per round."""

    def test_term(self):
        (sub,) = compile_query(parse_sexpr("(term friend:1)"))
        assert (sub.s_term, sub.x_terms, sub.negate) == ("friend:1", (), False)

    def test_term_sorted(self, monkeypatch):
        fe, rounds = recorded(monkeypatch)
        assert fe.query("(term friend:1)", sort=True) == [5]
        assert rounds == [(["friend:1"], True, None, None)]

    def test_and(self):
        (sub,) = compile_query(parse_sexpr("(and friend:1 friend:2)"))
        assert (sub.s_term, sub.x_terms) == ("friend:1", ("friend:2",))
        assert sub.formula.shape() == "v0" and not sub.negate

    def test_and_uses_frequency_metadata(self):
        expr = parse_sexpr("(and friend:1 friend:2)")
        (sub,) = compile_query(expr, {"friend:1": 9, "friend:2": 2})
        assert (sub.s_term, sub.x_terms) == ("friend:2", ("friend:1",))

    def test_difference_negates(self):
        (sub,) = compile_query(parse_sexpr("(difference friend:1 friend:2)"))
        assert (sub.s_term, sub.x_terms, sub.negate) == ("friend:1", ("friend:2",), True)

    def test_or_one_access_per_term(self):
        subs = compile_query(parse_sexpr("(or friend:1 friend:2 friend:3)"))
        assert [s.s_term for s in subs] == ["friend:1", "friend:2", "friend:3"]
        assert [s.n_xterms for s in subs] == [2, 1, 0]

    def test_score_adds_arithmetic(self, monkeypatch):
        fe, rounds = recorded(monkeypatch)
        fe.query("(term friend:1)", sort=True, top_k=3, score="(mul key key)")
        assert rounds == [(["friend:1"], True, 3, "(mul key key)")]

    def test_apply_two_rounds(self, monkeypatch):
        # the nested round is always ranked and cut to nested_top_k, then
        # the instantiated outer round runs as asked
        fe, rounds = recorded(monkeypatch, answer=(5, 7))
        fe.query("(apply friend: (term friend:1))", sort=True, score="key")
        assert rounds == [
            (["friend:1"], True, NESTED_TOP_K, None),
            (["friend:5", "friend:7"], True, None, "key"),
        ]

    def test_accepts_parsed_expression(self, monkeypatch):
        fe, rounds = recorded(monkeypatch)
        fe.query(parse_sexpr("(and friend:1 friend:2)"))
        assert rounds == [(["friend:1"], False, None, None)]


class TestScoreCheck:
    """A malformed score formula is refused before any session starts."""

    @pytest.mark.parametrize(
        "score, error",
        [
            ("(mul key", "unbalanced"),
            ("(mul key foo)", "unknown score variable 'foo'"),
            ("(pow key 2)", "unknown scoring operator 'pow'"),
            ("(add " * 2000 + "key 1" + ")" * 2000, "nested too deeply"),
        ],
    )
    def test_refused_before_any_session(self, monkeypatch, score, error):
        fe, rounds = recorded(monkeypatch)
        with pytest.raises(QueryError, match=error):
            fe.query("(term friend:1)", sort=True, top_k=5, score=score)
        with pytest.raises(QueryError, match=error):  # not even the nested round
            fe.query("(apply friend: (term friend:1))", sort=True, score=score)
        assert rounds == []
