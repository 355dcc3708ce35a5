"""Plaintext social graph: dataset ingestion, inverted-index construction,
and the reference query engine used as the correctness oracle and the
throughput baseline.

The graph is an edge-labeled directed graph.  Each (edge_type, src) pair
owns a posting list of (sort_key, dst) entries; posting lists are indexed
by the term ``edge-type:src``.  Everything is immutable after load.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field

from .sexpr import NESTED_TOP_K, SExpr, formula_from_sexpr, BoolFormula

log = logging.getLogger(__name__)

__all__ = [
    "Edge",
    "PostingList",
    "Graph",
    "load_edge_list",
    "build_inverted_index",
    "select_s_term",
    "split_conjunctive",
    "ranked",
    "PlaintextEngine",
]

SORT_KEY_MIN, SORT_KEY_MAX = 1, 100


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    edge_type: str
    sort_key: int


@dataclass
class PostingList:
    term: str
    entries: list = field(default_factory=list)  # (sort_key, id)

    def ids(self) -> set:
        return {eid for _, eid in self.entries}

    def __len__(self):
        return len(self.entries)


class Graph:
    def __init__(self, edges: list[Edge]):
        self.edges = edges

    def __len__(self):
        return len(self.edges)


class EdgeListError(ValueError):
    pass


def load_edge_list(path, edge_type: str, weight_policy="from_file", seed: int | None = 0) -> Graph:
    """Load a text edge list, one ``src dst [weight]`` per line.

    weight_policy is either "from_file" (third column required) or
    "uniform_random" (weights drawn in [1, 100] in file order from the
    given seed, so reloading reproduces the graph, or from the OS when
    seed is None).  Duplicate (src, dst) edges keep the first occurrence.
    """
    rng = random.Random(seed)
    edges = []
    seen = set()
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                src, dst = int(parts[0]), int(parts[1])
            except (ValueError, IndexError):
                raise EdgeListError(f"{path}:{lineno}: malformed edge line {line!r}") from None
            if weight_policy == "from_file":
                if len(parts) < 3:
                    raise EdgeListError(f"{path}:{lineno}: missing weight column")
                try:
                    weight = int(parts[2])
                except ValueError:
                    raise EdgeListError(f"{path}:{lineno}: bad weight {parts[2]!r}") from None
            elif weight_policy == "uniform_random":
                weight = rng.randint(SORT_KEY_MIN, SORT_KEY_MAX)
            else:
                raise ValueError(f"unknown weight policy {weight_policy!r}")
            if not SORT_KEY_MIN <= weight <= SORT_KEY_MAX:
                raise EdgeListError(f"{path}:{lineno}: weight {weight} outside [1, 100]")
            if (src, dst) in seen:
                log.warning("%s:%d: duplicate edge (%d, %d) ignored", path, lineno, src, dst)
                continue
            seen.add((src, dst))
            edges.append(Edge(src, dst, edge_type, weight))
    return Graph(edges)


def build_inverted_index(graph: Graph) -> dict[str, PostingList]:
    """One posting list per (edge_type, src); total entries = edge count."""
    index: dict[str, PostingList] = {}
    for edge in graph.edges:
        term = f"{edge.edge_type}:{edge.src}"
        plist = index.get(term)
        if plist is None:
            plist = index[term] = PostingList(term)
        plist.entries.append((edge.sort_key, edge.dst))
    return index


def select_s_term(terms: list[str], lengths: dict[str, int] | None) -> int:
    """Pick the traversed term of a conjunction: the one with the smallest
    known posting list, else the first.  Shared by the planner and the
    oracle so rankings agree."""
    if not lengths:
        return 0
    best = 0
    for i, t in enumerate(terms):
        if lengths.get(t, 0) < lengths.get(terms[best], 0):
            best = i
    return best


def split_conjunctive(expr: SExpr, lengths: dict[str, int] | None):
    """Decompose an and/difference expression into (s_term, x_terms,
    residual formula, negate flag).  Shared by the planner and the oracle
    so both traverse the same posting list."""
    if expr.op == "and":
        term_args = [a for a in expr.args if a.is_term()]
        if not term_args:
            raise ValueError("and-query needs at least one plain term for the s-term")
        names = [a.term for a in term_args]
        s_idx = select_s_term(names, lengths)
        s_term = names[s_idx]
        rest = [a for a in expr.args if not (a.is_term() and a.term == s_term)]
        negate = False
    elif expr.op == "difference":
        head = expr.args[0]
        if not head.is_term():
            raise ValueError("difference head must be a plain term")
        s_term = head.term
        rest = list(expr.args[1:])
        negate = True
    else:
        raise ValueError(f"not a conjunctive operator: {expr.op!r}")
    x_terms = []
    for arg in rest:
        x_terms.extend(arg.terms())
    var_of_term = {t: i for i, t in enumerate(dict.fromkeys(x_terms))}
    x_terms = list(var_of_term)
    if rest:
        formula = formula_from_sexpr(rest[0], var_of_term)
        for arg in rest[1:]:
            formula = formula.and_(formula_from_sexpr(arg, var_of_term))
    else:
        formula = BoolFormula.true()
    return s_term, x_terms, formula, negate


def ranked(entries):
    """Descending sort_key, ascending id on ties: the canonical ranking,
    and the order in which the EDB stores each posting list."""
    return sorted(entries, key=lambda e: (-e[0], e[1]))


class PlaintextEngine:
    """Direct set-algebra evaluation of query operators over the plaintext
    index.  This is the oracle for every encrypted-path test."""

    def __init__(self, index: dict[str, PostingList]):
        self.index = index
        self.lengths = {t: len(p) for t, p in index.items()}

    def posting(self, term: str):
        plist = self.index.get(term)
        return list(plist.entries) if plist else []

    def eval_boolean(self, s_term: str, x_terms: list[str], formula: BoolFormula, negate: bool):
        """Survivors of TSet(s_term) under the residual formula; mirrors the
        server-side filter but by direct set membership."""
        member_sets = [self.index[t].ids() if t in self.index else set() for t in x_terms]
        out = []
        for sort_key, eid in self.posting(s_term):
            values = [eid in s for s in member_sets]
            keep = formula.evaluate(values)
            if negate:
                keep = not keep
            if keep:
                out.append((sort_key, eid))
        return out

    def evaluate(self, expr: SExpr):
        """Result entries (sort_key, id) of an operator expression, unranked."""
        if expr.is_term():
            return self.posting(expr.term)
        if expr.op in ("and", "difference"):
            return self._eval_conjunctive(expr)
        if expr.op == "or":
            return self._eval_or(expr)
        if expr.op == "apply":
            raise ValueError("apply needs filters; use apply_query()")
        raise ValueError(f"unknown operator {expr.op!r}")

    def _eval_conjunctive(self, expr: SExpr):
        s_term, x_terms, formula, negate = split_conjunctive(expr, self.lengths)
        return self.eval_boolean(s_term, x_terms, formula, negate)

    def _eval_or(self, expr: SExpr):
        terms = []
        for arg in expr.args:
            if not arg.is_term():
                raise ValueError("or arguments must be plain terms")
            terms.append(arg.term)
        # disjunction rewrite semantics: (diff t1 (or t2..tn)) strips ids
        # present in any later term, so each id is charged to the last term
        # whose posting list contains it
        seen = set()
        charged = {}
        for t in reversed(terms):
            for sort_key, eid in self.posting(t):
                if eid not in seen:
                    seen.add(eid)
                    charged[eid] = sort_key
        out = []
        for t in terms:
            for _, eid in self.posting(t):
                if eid in charged:
                    out.append((charged.pop(eid), eid))
        return out

    def query(self, expr: SExpr, sort: bool = False, top_k: int | None = None):
        """Evaluate and optionally rank/truncate; returns (sort_key, id) list."""
        if expr.op == "apply":
            return self.apply_query(expr, sort=sort, top_k=top_k)
        entries = self.evaluate(expr)
        if sort:
            entries = ranked(entries)
        if top_k is not None:
            entries = entries[:top_k]
        return entries

    def apply_query(
        self,
        expr: SExpr,
        sort: bool = True,
        top_k: int | None = None,
        nested_top_k: int | None = NESTED_TOP_K,
    ):
        """Two-round apply: evaluate the nested expression, rank and truncate,
        then run the or-query over prefix-instantiated terms."""
        nested = self.query(expr.args[0], sort=True, top_k=nested_top_k)
        if not nested:
            return []
        terms = [f"{expr.prefix}{eid}" for _, eid in nested]
        if len(terms) == 1:
            outer = SExpr(op="term", term=terms[0])
        else:
            outer = SExpr(op="or", args=tuple(SExpr(op="term", term=t) for t in terms))
        return self.query(outer, sort=sort, top_k=top_k)
