"""Scoring formulas over a sorted query's secret-shared sort keys.

A formula is a small arithmetic s-expression over the one variable key
(each survivor's sort key), integer constants, add and mul, e.g.
``(add key (mul key 3))``: exactly what QUERY_INIT can carry. This module
is the one definition of what a formula means. score_value gives its
exact value at a plaintext key; a sort compares that value mod 2^31, in
score_width bits. eval_score computes the same values on the two
clusters' additive shares of the keys: both counterpart servers walk the
tree in lockstep, a sub-formula of constants alone stays a public
integer, additions and multiplications by a public value are local, and
each multiplication of two secret sub-formulas spends one Beaver triple
and one communication round.
"""

from __future__ import annotations

import numpy as np

from .crypto import SCORE_BITS, SHARE_MODULUS
from .graph import SORT_KEY_MAX
from .shares import ShareMatrix, add, mul

__all__ = [
    "ScoreError",
    "parse_score",
    "score_value",
    "score_width",
    "eval_score",
]

# the deepest nesting a formula may have, so that every walk of one stays
# far inside the interpreter's recursion limit
MAX_DEPTH = 100


class ScoreError(ValueError):
    pass


def _tokenize(text: str):
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_score(text: str):
    """Parse into nested tuples: ("var", "key") | ("const", value) |
    ("add"|"mul", left, right). Anything else, or nesting deeper than
    MAX_DEPTH, raises ScoreError."""
    tokens = _tokenize(text)
    if not tokens:
        raise ScoreError("empty scoring formula")
    ast, rest = _parse(tokens, 0, 0)
    if rest != len(tokens):
        raise ScoreError("trailing input after scoring formula")
    return ast


def _parse(tokens, i, depth):
    if i >= len(tokens):
        raise ScoreError("unbalanced parentheses in scoring formula")
    tok = tokens[i]
    if tok == ")":
        raise ScoreError("unexpected ')' in scoring formula")
    if tok != "(":
        if tok == "key":
            return ("var", tok), i + 1
        try:
            return ("const", int(tok)), i + 1
        except ValueError:
            raise ScoreError(f"unknown score variable {tok!r}") from None
    if depth == MAX_DEPTH:
        raise ScoreError("scoring formula nested too deeply")
    if i + 1 >= len(tokens):
        raise ScoreError("unbalanced parentheses in scoring formula")
    op = tokens[i + 1]
    if op not in ("add", "mul"):
        raise ScoreError(f"unknown scoring operator {op!r}")
    left, i = _parse(tokens, i + 2, depth + 1)
    right, i = _parse(tokens, i, depth + 1)
    if i >= len(tokens) or tokens[i] != ")":
        raise ScoreError("unbalanced parentheses in scoring formula")
    return (op, left, right), i + 1


def score_value(ast, key: int) -> int:
    """The formula's exact integer value at a sort key. A sort compares
    it mod SHARE_MODULUS."""
    kind = ast[0]
    if kind == "var":
        return key
    if kind == "const":
        return ast[1]
    left, right = score_value(ast[1], key), score_value(ast[2], key)
    return left + right if kind == "add" else left * right


def _negative(ast) -> bool:
    """Whether the formula has a negative constant."""
    if ast[0] == "const":
        return ast[1] < 0
    return ast[0] != "var" and (_negative(ast[1]) or _negative(ast[2]))


def score_width(score: str | None) -> int:
    """The bits in which a sorted query's scores are compared: the bit
    length of its formula's value at key = SORT_KEY_MAX, at least 1 (the
    sort key itself without a formula). With no negative constant a
    formula is a polynomial in key with coefficients of at least 0, so
    that is its largest value over the keys SORT_KEY_MIN..SORT_KEY_MAX. A
    formula with a negative constant, or whose value there reaches
    2^SCORE_BITS, is compared in SCORE_BITS bits, mod the share modulus.
    A function of public facts alone: the formula, which QUERY_INIT
    carries, and the schema's key range."""
    ast = parse_score(score or "key")
    top = score_value(ast, SORT_KEY_MAX)
    if _negative(ast) or top >= SHARE_MODULUS:
        return SCORE_BITS
    return max(1, top.bit_length())


def _public(value: int, party: int, shape) -> ShareMatrix:
    # a public value: party 0 carries it
    return ShareMatrix(np.full(shape, value % SHARE_MODULUS if party == 0 else 0), party)


def eval_score(ast, key_shares, party: int, channel, take_triple, session: int = 0) -> np.ndarray:
    """This party's shares of the formula's values at the keys that
    key_shares share, mod SHARE_MODULUS. take_triple is called with the
    vector shape for every multiplication of two secret sub-formulas, in
    the same tree order on both parties."""
    keys = ShareMatrix(key_shares, party)

    def walk(node):
        kind = node[0]
        if kind == "var":
            return keys
        if kind == "const":
            return node[1]
        left, right = walk(node[1]), walk(node[2])
        if isinstance(left, int) and isinstance(right, int):
            return left + right if kind == "add" else left * right
        if isinstance(left, int):
            left, right = right, left
        if kind == "add":
            if isinstance(right, int):
                right = _public(right, party, keys.shape)
            return add(left, right)
        if isinstance(right, int):
            return ShareMatrix(left.values * (right % SHARE_MODULUS), party)
        return mul(left, right, take_triple(keys.shape), channel, session)

    result = walk(ast)
    if isinstance(result, int):
        result = _public(result, party, keys.shape)
    return result.values
