import struct

import pytest

from privgraph.sexpr import BoolFormula, ParseError, formula_from_sexpr, parse_sexpr
from privgraph.transport import TransportError


class TestParse:
    def test_and(self):
        expr = parse_sexpr("(and friend:1 friend:2)")
        assert expr.op == "and"
        assert [a.term for a in expr.args] == ["friend:1", "friend:2"]

    def test_term(self):
        expr = parse_sexpr("(term friend:1)")
        assert expr.is_term() and expr.term == "friend:1"

    def test_bare_term(self):
        assert parse_sexpr("friend:1").term == "friend:1"

    def test_apply(self):
        expr = parse_sexpr("(apply friend: friend:1)")
        assert expr.op == "apply"
        assert expr.prefix == "friend:"
        assert expr.args[0].term == "friend:1"

    def test_nested_difference(self):
        expr = parse_sexpr("(difference friend:3 (and friend:1 friend:2))")
        assert expr.op == "difference"
        assert expr.args[0].term == "friend:3"
        assert expr.args[1].op == "and"

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            parse_sexpr("(and friend:1")

    def test_unknown_operator(self):
        with pytest.raises(ParseError) as exc:
            parse_sexpr("(union friend:1 friend:2)")
        assert "union" in str(exc.value)

    def test_bad_arity(self):
        with pytest.raises(ParseError):
            parse_sexpr("(and friend:1)")

    def test_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_sexpr("(and friend:1 ))")
        assert exc.value.pos >= 0


class TestBoolFormula:
    def test_true_formula(self):
        assert BoolFormula.true().evaluate([]) is True

    def test_wire_round_trip(self):
        f = BoolFormula.variable(0).or_(BoolFormula.variable(1)).and_(BoolFormula.variable(2))
        g = BoolFormula.from_bytes(f.to_bytes())
        assert g == f
        for v in range(8):
            bits = [(v >> i) & 1 for i in range(3)]
            assert g.evaluate(bits) == f.evaluate(bits)

    def test_not_opcode_refused(self):
        # a difference negates a whole subquery; no formula carries NOT (0x04)
        data = BoolFormula.variable(0).to_bytes()
        not_v0 = struct.pack(">HH", 2, 1) + data[4:] + struct.pack(">BH", 0x04, 0)
        with pytest.raises(TransportError, match="opcode 0x4"):
            BoolFormula.from_bytes(not_v0)

    def test_arity_mismatch(self):
        f = BoolFormula.variable(2)
        with pytest.raises(ValueError):
            f.evaluate([True])

    def test_from_sexpr(self):
        expr = parse_sexpr("(and friend:1 (or friend:2 friend:3))")
        var_of = {"friend:1": 0, "friend:2": 1, "friend:3": 2}
        f = formula_from_sexpr(expr, var_of)
        assert f.evaluate([True, False, True]) is True
        assert f.evaluate([True, False, False]) is False
        assert "v0" in f.shape()
