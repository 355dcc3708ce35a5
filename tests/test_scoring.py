import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import loopback_pair
from privgraph.scoring import ScoreError, eval_score, parse_score, score_value, score_width
from privgraph.crypto import SCORE_BITS, SHARE_MODULUS
from privgraph.shares import dealer_triple_gen, shr


class TestParse:
    def test_shapes(self):
        assert parse_score("key") == ("var", "key")
        assert parse_score("7") == ("const", 7)
        assert parse_score("(add key 1)") == ("add", ("var", "key"), ("const", 1))
        assert parse_score("(mul (add key 1) 2)") == (
            "mul",
            ("add", ("var", "key"), ("const", 1)),
            ("const", 2),
        )

    def test_variables(self):
        # key is the only variable: any other name is refused in parsing
        with pytest.raises(ScoreError, match="unknown score variable 'b'"):
            parse_score("(add key (mul b 3))")

    @pytest.mark.parametrize(
        "text",
        ["", "(sub a b)", "(add a", "(add a b) c", ")",
         "(sub key key)", "(add key", "(add key 1) key"],
    )
    def test_rejects(self, text):
        with pytest.raises(ScoreError):
            parse_score(text)

    def test_nesting_depth_refused(self):
        deep = "(add " * 101 + "key" + " 1)" * 101
        with pytest.raises(ScoreError, match="nested too deeply"):
            parse_score(deep)
        assert score_value(parse_score("(add " * 100 + "key" + " 1)" * 100), 5) == 105


def run_formula(text, keys, seed=0):
    """Evaluate a formula two-party over fresh shares of the keys;
    reconstruct."""
    rng = np.random.default_rng(seed)
    shares = shr(np.asarray(keys), rng)
    ast = parse_score(text)
    chan0, chan1 = loopback_pair("score")
    counters = {0: 0, 1: 0}
    out = {}
    errors = []

    def party(i, chan):
        def take_triple(shape):
            t = dealer_triple_gen(shape, 1000 + counters[i])[i]
            counters[i] += 1
            return t

        try:
            out[i] = eval_score(ast, shares[i].values, i, chan, take_triple)
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=party, args=(i, c)) for i, c in ((0, chan0), (1, chan1))]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        chan0.close()
        chan1.close()
    if errors:
        raise errors[0]
    return np.mod(out[0] + out[1], SHARE_MODULUS), counters[0]


class TestEval:
    def test_identity(self):
        got, triples = run_formula("key", [5, 9, 100])
        assert got.tolist() == [5, 9, 100] and triples == 0

    def test_add_two_vectors(self):
        got, triples = run_formula("(add key (mul key 3))", [3, 50, 7])
        assert got.tolist() == [12, 200, 28] and triples == 0

    def test_const_mul_is_local(self):
        got, triples = run_formula("(mul key 3)", [2, 10])
        assert got.tolist() == [6, 30] and triples == 0

    def test_secret_mul(self):
        got, triples = run_formula("(mul key (add key 1))", [3, 7, 11])
        assert got.tolist() == [12, 56, 132] and triples == 1

    def test_square_plus_const(self):
        got, _ = run_formula("(add (mul key key) 1)", [9, 4, 30])
        assert got.tolist() == [82, 17, 901]

    def test_wraparound(self):
        big = SHARE_MODULUS - 2
        got, _ = run_formula("(add key 5)", [big])
        assert got.tolist() == [3]

    def test_random_against_plaintext(self):
        rng = np.random.default_rng(11)
        keys = rng.integers(0, SHARE_MODULUS, size=20).tolist()
        got, triples = run_formula("(add (mul key (add key 5)) (mul key 7))", keys, seed=3)
        want = [(x * (x + 5) + x * 7) % SHARE_MODULUS for x in keys]
        assert got.tolist() == want and triples == 1

    def test_unknown_variable(self):
        with pytest.raises(ScoreError, match="unknown score variable"):
            run_formula("missing", [1])

    def test_no_variables(self):
        # a formula of constants alone: party 0 carries its value
        got, triples = run_formula("(mul 2 (add 1 1))", [1, 2, 3])
        assert got.tolist() == [4, 4, 4] and triples == 0

    @pytest.mark.parametrize(
        "text,want",
        [
            ("(mul (add 2 3) key)", [5, 10, 15]),
            ("(mul key (mul 2 -3))", [SHARE_MODULUS - 6, SHARE_MODULUS - 12, SHARE_MODULUS - 18]),
            ("(add (mul 3000000000 0) key)", [1, 2, 3]),
        ],
    )
    def test_public_subformula_spends_no_triple(self, text, want):
        # constants alone stay a public integer: a multiplication by one is
        # local, whatever the constants were combined from
        got, triples = run_formula(text, [1, 2, 3])
        assert got.tolist() == want and triples == 0


class TestScoreWidth:
    # the bit length of the formula's largest value over keys 1..100, at
    # least 1; the share modulus' 31 bits with a negative constant or a
    # bound of 2^31 or more
    @pytest.mark.parametrize(
        "score,width",
        [
            (None, 7),
            ("key", 7),
            ("(add key 1)", 7),
            ("(mul key 3)", 9),
            ("(mul key key)", 14),
            ("(mul (mul key key) key)", 20),
            ("(mul key 0)", 1),
            ("(add key -1)", SCORE_BITS),
            ("(mul key 30000000)", SCORE_BITS),
        ],
    )
    def test_table(self, score, width):
        assert score_width(score) == width


LEAF = st.sampled_from(["key", *map(str, range(-3, 4)), "40000", "3000000000"])


@st.composite
def formulas(draw, leaves=None):
    """A formula of at most 6 leaves over key and small and large constants."""
    n = draw(st.integers(1, 6)) if leaves is None else leaves
    if n == 1:
        return draw(LEAF)
    left = draw(st.integers(1, n - 1))
    op = draw(st.sampled_from(["add", "mul"]))
    return f"({op} {draw(formulas(left))} {draw(formulas(n - left))})"


class TestOneDefinition:
    """score_value is the formula: its values mod 2^31 fit score_width, and
    the two parties' shares reconstruct them."""

    KEYS = range(1, 101)

    @settings(max_examples=50, deadline=None)
    @given(formulas())
    def test_values_fit_the_width(self, text):
        ast, width = parse_score(text), score_width(text)
        assert all(score_value(ast, key) % SHARE_MODULUS < 1 << width for key in self.KEYS)

    @settings(max_examples=50, deadline=None)
    @given(formulas(), st.integers(0, 2**32))
    def test_shares_compute_the_value(self, text, seed):
        ast = parse_score(text)
        got, _ = run_formula(text, list(self.KEYS), seed)
        assert got.tolist() == [score_value(ast, key) % SHARE_MODULUS for key in self.KEYS]
