"""The online encrypted-search protocol pieces: front-end token
generation (stags, xtoken streams, residual formulas, the disjunction
rewrite) and server-side evaluation (index access and the boolean filter
against the XSet).

A query expression compiles into one or more subqueries, each traversing
one s-term posting list and filtering each tuple by a residual boolean
formula over XSet membership bits of the x-terms. Difference queries run
the identical path with a negate flag; disjunctions are rewritten into
disjoint difference/term subqueries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .builder import EncryptedTuple, TSetShard, XSetFilter
from .crypto import (
    GroupContext,
    MasterKeyBundle,
    counter_exponent,
    stag_derive,
    xterm_exponent,
)
from .graph import split_conjunctive
from .sexpr import BoolFormula, SExpr

__all__ = [
    "Subquery",
    "IntegrityError",
    "compile_query",
    "or_rewrite",
    "xtoken_rows",
    "boolean_query",
    "stag_for",
]


class IntegrityError(Exception):
    """A returned ciphertext failed authenticated decryption."""


@dataclass(frozen=True)
class Subquery:
    """One server-side traversal: filter TSet(s_term) by the residual
    formula over the x-terms' membership bits."""

    s_term: str
    x_terms: tuple
    formula: BoolFormula
    negate: bool = False

    @property
    def n_xterms(self) -> int:
        return len(self.x_terms)


def compile_query(expr: SExpr, lengths: dict[str, int] | None = None) -> list[Subquery]:
    """Compile an operator expression into its subqueries.

    term -> one trivial subquery; and/difference -> one boolean subquery;
    or -> the disjunction rewrite. apply is handled a round at a time by
    the planner and never reaches this function.
    """
    if expr.is_term():
        return [Subquery(expr.term, (), BoolFormula.true(), False)]
    if expr.op in ("and", "difference"):
        s_term, x_terms, formula, negate = split_conjunctive(expr, lengths)
        return [Subquery(s_term, tuple(x_terms), formula, negate)]
    if expr.op == "or":
        terms = []
        for arg in expr.args:
            if not arg.is_term():
                raise ValueError("or arguments must be plain terms")
            terms.append(arg.term)
        return or_rewrite(terms)
    raise ValueError(f"operator {expr.op!r} has no single-round compilation")


def or_rewrite(terms: list[str]) -> list[Subquery]:
    """Rewrite an n-term disjunction into n disjoint subqueries: n-1
    difference subqueries (strip ids appearing in any later term) plus a
    final plain term subquery."""
    out = []
    for i, t in enumerate(terms):
        rest = terms[i + 1 :]
        if rest:
            formula = BoolFormula.variable(0)
            for v in range(1, len(rest)):
                formula = formula.or_(BoolFormula.variable(v))
            out.append(Subquery(t, tuple(rest), formula, True))
        else:
            out.append(Subquery(t, (), BoolFormula.true(), False))
    return out


def xtoken_rows(
    keys: MasterKeyBundle,
    ctx: GroupContext,
    s_term: str,
    count: int,
    x_terms,
) -> list[list[bytes]]:
    """One xtoken row per tuple counter 1..count, one column per x-term:
    crypto.xtoken_compute of each cell, with each x_t and each z_c drawn
    once."""
    x_ts = [xterm_exponent(keys, xl) for xl in x_terms]
    rows = []
    for c in range(1, count + 1):
        z_c = counter_exponent(keys, s_term, c)
        rows.append([ctx.g_exp(z_c * x_t % ctx.n) for x_t in x_ts])
    return rows


def boolean_query(
    tset: TSetShard,
    xset: XSetFilter,
    ctx: GroupContext,
    stag: bytes,
    rows: list[list],
    formula: BoolFormula,
    negate: bool,
) -> list[tuple[int, EncryptedTuple]]:
    """Filter the s-term tuples by the residual formula; rows holds the
    xtokens as points (server.decode_xtoken_batch).

    Performs exactly len(tuples) * n_xterms scalar multiplications (ECDH)
    regardless of the x-terms' selectivity, each tuple's by its y as one
    key made for this call. Returns surviving (tuple index, tuple) pairs in
    stored order.
    """
    tuples = tset.retrieve(stag)  # absent terms yield no tuples
    if len(rows) != len(tuples):
        raise ValueError(
            f"xtoken stream has {len(rows)} rows for {len(tuples)} tuples"
        )
    survivors = []
    for c, (tup, row) in enumerate(zip(tuples, rows)):
        y = ctx.key(tup.y)
        values = [xset.contains(ctx.exp(token, y)) for token in row]
        keep = formula.evaluate(values)
        if negate:
            keep = not keep
        if keep:
            survivors.append((c, tup))
    return survivors


def stag_for(keys: MasterKeyBundle, subquery: Subquery) -> bytes:
    return stag_derive(keys, subquery.s_term)
