import threading

import numpy as np
import pytest

from conftest import loopback_pair
from privgraph.scoring import ScoreError, eval_score, parse_score, score_variables
from privgraph.crypto import SHARE_MODULUS
from privgraph.shares import dealer_triple_gen, shr


class TestParse:
    def test_shapes(self):
        assert parse_score("key") == ("var", "key")
        assert parse_score("7") == ("const", 7)
        assert parse_score("(add key 1)") == ("add", ("var", "key"), ("const", 1))
        assert parse_score("(mul (add a b) 2)") == (
            "mul",
            ("add", ("var", "a"), ("var", "b")),
            ("const", 2),
        )

    def test_variables(self):
        assert score_variables(parse_score("(add a (mul b 3))")) == {"a", "b"}

    @pytest.mark.parametrize(
        "text", ["", "(sub a b)", "(add a", "(add a b) c", ")"]
    )
    def test_rejects(self, text):
        with pytest.raises(ScoreError):
            parse_score(text)


def run_formula(text, plain_vars, seed=0):
    """Evaluate a formula two-party over fresh shares; reconstruct."""
    rng = np.random.default_rng(seed)
    shares = {0: {}, 1: {}}
    for name, values in plain_vars.items():
        s0, s1 = shr(np.asarray(values), rng)
        shares[0][name] = s0.values
        shares[1][name] = s1.values
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
            out[i] = eval_score(ast, shares[i], i, chan, take_triple)
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
    return np.mod(out[0] + out[1], SHARE_MODULUS)


class TestEval:
    def test_identity(self):
        got = run_formula("key", {"key": [5, 9, 100]})
        assert got.tolist() == [5, 9, 100]

    def test_add_two_vectors(self):
        a = [3, 50, 7]
        b = [4, 1, 9]
        got = run_formula("(add a b)", {"a": a, "b": b})
        assert got.tolist() == [7, 51, 16]

    def test_const_mul_is_local(self):
        got = run_formula("(mul key 3)", {"key": [2, 10]})
        assert got.tolist() == [6, 30]

    def test_secret_mul(self):
        a = [3, 7, 11]
        b = [5, 2, 4]
        got = run_formula("(mul a b)", {"a": a, "b": b})
        assert got.tolist() == [15, 14, 44]

    def test_square_plus_const(self):
        key = [9, 4, 30]
        got = run_formula("(add (mul key key) 1)", {"key": key})
        assert got.tolist() == [82, 17, 901]

    def test_wraparound(self):
        big = SHARE_MODULUS - 2
        got = run_formula("(add key 5)", {"key": [big]})
        assert got.tolist() == [3]

    def test_random_against_plaintext(self):
        rng = np.random.default_rng(11)
        a = rng.integers(0, SHARE_MODULUS, size=20).tolist()
        b = rng.integers(0, SHARE_MODULUS, size=20).tolist()
        got = run_formula("(add (mul a b) (mul a 7))", {"a": a, "b": b}, seed=3)
        want = [(x * y + x * 7) % SHARE_MODULUS for x, y in zip(a, b)]
        assert got.tolist() == want

    def test_unknown_variable(self):
        with pytest.raises(ScoreError, match="unknown score variable"):
            run_formula("missing", {"key": [1]})

    def test_no_variables(self):
        with pytest.raises(ScoreError):
            eval_score(parse_score("5"), {}, 0, None, None)
