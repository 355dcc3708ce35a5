"""Scoring formulas over secret-shared vectors.

A formula is a small arithmetic s-expression over named share vectors,
integer constants, add, and mul, e.g. ``(add key (mul key 3))``. Both
counterpart servers evaluate the same tree in lockstep: additions and
constant multiplications are local; share-by-share multiplications spend
one Beaver triple and one communication round each.
"""

from __future__ import annotations

import numpy as np

from .crypto import SHARE_MODULUS
from .shares import ShareMatrix, add, mul

__all__ = ["ScoreError", "parse_score", "score_variables", "check_score", "eval_score"]

# the one share vector a query's formula reads: its tuples' sort keys
SCORE_VARIABLE = "key"


class ScoreError(ValueError):
    pass


def _tokenize(text: str):
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_score(text: str):
    """Parse into nested tuples: ("var", name) | ("const", value) |
    ("add"|"mul", left, right)."""
    tokens = _tokenize(text)
    if not tokens:
        raise ScoreError("empty scoring formula")
    ast, rest = _parse(tokens, 0)
    if rest != len(tokens):
        raise ScoreError("trailing input after scoring formula")
    return ast


def _parse(tokens, i):
    if i >= len(tokens):
        raise ScoreError("unbalanced parentheses in scoring formula")
    tok = tokens[i]
    if tok == ")":
        raise ScoreError("unexpected ')' in scoring formula")
    if tok != "(":
        try:
            return ("const", int(tok)), i + 1
        except ValueError:
            return ("var", tok), i + 1
    if i + 1 >= len(tokens):
        raise ScoreError("unbalanced parentheses in scoring formula")
    op = tokens[i + 1]
    if op not in ("add", "mul"):
        raise ScoreError(f"unknown scoring operator {op!r}")
    left, i = _parse(tokens, i + 2)
    right, i = _parse(tokens, i)
    if i >= len(tokens) or tokens[i] != ")":
        raise ScoreError("unbalanced parentheses in scoring formula")
    return (op, left, right), i + 1


def score_variables(ast) -> set[str]:
    kind = ast[0]
    if kind == "var":
        return {ast[1]}
    if kind == "const":
        return set()
    return score_variables(ast[1]) | score_variables(ast[2])


def check_score(text: str) -> None:
    """Parse a query's scoring formula, which may read SCORE_VARIABLE only."""
    try:
        ast = parse_score(text)
        unknown = score_variables(ast) - {SCORE_VARIABLE}
    except RecursionError:
        raise ScoreError("scoring formula nested too deeply") from None
    if unknown:
        raise ScoreError(f"unknown score variable {min(unknown)!r}")


def eval_score(
    ast,
    variables: dict[str, np.ndarray],
    party: int,
    channel,
    take_triple,
    session: int = 0,
) -> np.ndarray:
    """Evaluate a formula over this party's share vectors. take_triple is
    called with the vector shape for every share-by-share multiplication,
    in deterministic tree order on both parties."""
    if not variables:
        raise ScoreError("scoring needs at least one share vector")
    shape = next(iter(variables.values())).shape

    def walk(node):
        kind = node[0]
        if kind == "var":
            if node[1] not in variables:
                raise ScoreError(f"unknown score variable {node[1]!r}")
            return ShareMatrix(variables[node[1]], party)
        if kind == "const":
            # public constant: party 0 carries the value
            value = node[1] % SHARE_MODULUS if party == 0 else 0
            return ("const", node[1], ShareMatrix(np.full(shape, value), party))
        left = walk(node[1])
        right = walk(node[2])
        l_const = isinstance(left, tuple)
        r_const = isinstance(right, tuple)
        if kind == "add":
            a = left[2] if l_const else left
            b = right[2] if r_const else right
            return add(a, b)
        # mul: by a public constant -> local; otherwise Beaver
        if l_const and r_const:
            return ("const", left[1] * right[1], ShareMatrix(
                np.full(shape, (left[1] * right[1]) % SHARE_MODULUS if party == 0 else 0),
                party,
            ))
        if l_const or r_const:
            c = left[1] if l_const else right[1]
            s = right if l_const else left
            return ShareMatrix(s.values * (c % SHARE_MODULUS), party)
        triple = take_triple(shape)
        return mul(left, right, triple, channel, session)

    result = walk(ast)
    if isinstance(result, tuple):
        result = result[2]
    return result.values
