"""Workload recipes: one heavy-tailed graph, three query mixes.

Every workload shares one graph recipe. Node out-degrees follow a Zipf
law over rank (rank r owns a posting list of max(2, round(320 / r))
entries), so posting lists run from two entries to a few hundred. The
list length at a given rank, and how the list splits over the two shards
(evenly, or 3:1 for the ranks in SKEWED_RANKS), are the same for every
seed: sort sizes are padded to powers of two per shard, so a split left
to chance would swing a sorted query's cost by 2x from seed to seed. The
seed draws everything else: which node holds each rank, every edge's
destination (within the shard quota) and sort key, and the master keys
(``builder.make_rng``, as ``privgraph setup`` does).

Each mix is a fixed list of query shapes. A shape names its operator and
the ranks of its terms, so the work a query does (tuples scanned, x-terms,
sort sizes) is part of the workload's definition and barely moves with
the seed, while the data behind it does. One pass over the list is the
unit a run repeats; see run.py.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from privgraph.builder import PartitionConfig, make_rng
from privgraph.crypto import MasterKeyBundle, hash_to_shard
from privgraph.graph import Edge, Graph, PlaintextEngine, build_inverted_index
from privgraph.oxt import compile_query
from privgraph.sexpr import parse_sexpr

N_NODES = 800
TOP_DEGREE = 320
N_SHARDS = 2
TOP_K = 10
SCORE = "(mul key key)"
SKEWED_RANKS = (20, 40)
# the nested rounds of the apply queries pick friends of degree 2, so the
# outer disjunction costs the same for every seed
APPLY_RANKS = (23, 31)
# the terms of the sorted and scored disjunctions share no friend, so
# their result totals, and with them the sort sizes, are the same for
# every seed
DISJOINT_RANKS = (53, 64, 80, 107, 160)


def degree(rank: int) -> int:
    return max(2, round(TOP_DEGREE / rank))


@dataclass(frozen=True)
class Query:
    op: str  # label of the operator matrix: term, sorted-or, scored-term, ...
    text: str
    sort: bool = False
    top_k: int | None = None
    score: str | None = None


@dataclass
class Workload:
    name: str
    run_mode: str
    index: dict
    keys: MasterKeyBundle
    config: PartitionConfig
    queries: list
    check_work_law: bool

    @property
    def lengths(self) -> dict:
        return {t: len(p) for t, p in self.index.items()}


def make_graph(seed: int):
    """The shared graph recipe; returns (inverted index, term of each rank)."""
    rng = random.Random(f"privgraph-bench-graph-{seed}")
    nodes = list(range(1, N_NODES + 1))
    by_rank = rng.sample(nodes, N_NODES)
    shard_of = {v: hash_to_shard(v, N_SHARDS) for v in nodes}
    plain = [v for r, v in enumerate(by_rank, start=1) if degree(r) == 2]
    edges = []
    taken = set()  # friends of the DISJOINT_RANKS drawn so far
    for rank, src in enumerate(by_rank, start=1):
        deg = degree(rank)
        on_0 = round(deg * 0.75) if rank in SKEWED_RANKS else deg // 2
        candidates = plain if rank in APPLY_RANKS else nodes
        avoid = taken if rank in DISJOINT_RANKS else ()
        dsts = []
        for shard, quota in ((0, on_0), (1, deg - on_0)):
            pool = [
                v for v in candidates
                if v != src and shard_of[v] == shard and v not in avoid
            ]
            dsts += rng.sample(pool, quota)
        if rank in DISJOINT_RANKS:
            taken.update(dsts)
        # distinct keys within a list wherever the 1..100 key range allows,
        # so a top-k cut inside one posting list never splits a tie
        if deg <= 100:
            keys = rng.sample(range(1, 101), deg)
        else:
            keys = [rng.randint(1, 100) for _ in range(deg)]
        edges += [Edge(src, d, "friend", k) for d, k in zip(dsts, keys)]
    index = build_inverted_index(Graph(edges))
    term_of_rank = {r: f"friend:{src}" for r, src in enumerate(by_rank, start=1)}
    return index, term_of_rank


# -- query shapes: (op, ranks); fixed, so every seed runs the same mix


def traversal_work(text: str, lengths: dict) -> int:
    """The work law: the exponentiations one cluster's shards spend on a
    query, one per (s-term tuple, x-term) of every subquery."""
    subs = compile_query(parse_sexpr(text), lengths)
    return sum(lengths.get(s.s_term, 0) * s.n_xterms for s in subs)


def _set_mix_shapes():
    """25 each of term, and (2-3 terms), or (2-4 terms) and difference
    (2-3 terms), ranks log-uniform over 1..107 (lists of 3..320 entries).
    Shapes whose traversal work exceeds 160 are redrawn, keeping queries
    in the milliseconds range."""
    rng = random.Random("privgraph-bench-set-mix")
    lengths = {f"friend:{r}": degree(r) for r in range(1, 108)}

    def ranks(n):
        out = set()
        while len(out) < n:
            out.add(round(math.exp(rng.uniform(0.0, math.log(107)))))
        return sorted(out)

    shapes = []
    arity = {"term": (1, 1), "and": (2, 3), "or": (2, 4), "difference": (2, 3)}
    for _ in range(25):
        for op in ("term", "and", "or", "difference"):
            while True:
                rs = ranks(rng.randint(*arity[op]))
                rng.shuffle(rs)
                text = _query(op, [f"friend:{r}" for r in rs]).text
                if traversal_work(text, lengths) <= 160:
                    break
            shapes.append((op, rs))
    return shapes


# total result counts 6..20 (ranks 40 and 20 split 3:1), padded merges of
# 8, 16 and 32; the apply queries' nested rounds sort 14 and 10. A
# 40-result sort (merge padded to 64) takes about 10 s here, too long for
# a pass.
_RANKED_SHAPES = [
    ("sorted-term", [53]),
    ("sorted-term", [40]),
    ("sorted-term", [27]),
    ("sorted-term", [20]),
    ("sorted-term", [16]),
    ("sorted-or", [64, 53]),
    ("sorted-or", [80, 64, 53]),
    ("apply", [23]),
    ("apply", [31]),
]

# k = 2..6 and 8 for scored terms, the scored or totals 5; unscored sorts
# of 4, 6 and 8 in the same run mode separate scoring from sorting
_SCORED_SHAPES = [
    ("sorted-term", [80]),
    ("sorted-term", [53]),
    ("sorted-term", [40]),
    ("scored-term", [160]),
    ("scored-term", [107]),
    ("scored-term", [80]),
    ("scored-term", [64]),
    ("scored-term", [53]),
    ("scored-term", [40]),
    ("scored-or", [160, 107]),
]


def _query(op: str, terms: list[str]) -> Query:
    base = op.split("-")[-1]  # sorted-or -> or, scored-term -> term
    if base == "term":
        text = f"(term {terms[0]})"
    elif base == "apply":
        text = f"(apply friend: (term {terms[0]}))"
    else:
        text = f"({base} {' '.join(terms)})"
    sort = op.startswith(("sorted", "scored"))
    return Query(
        op,
        text,
        sort=sort,
        top_k=TOP_K if sort else None,
        score=SCORE if op.startswith("scored") else None,
    )


WORKLOADS = {
    # name: (run mode, shapes, check the server work law)
    "set-mix": ("dealer", _set_mix_shapes, True),
    "ranked": ("dealer", lambda: _RANKED_SHAPES, False),
    "scored-secure": ("secure", lambda: _SCORED_SHAPES, False),
}


def make_workload(name: str, seed: int) -> Workload:
    run_mode, shapes, law = WORKLOADS[name]
    index, term_of_rank = make_graph(seed)
    queries = [_query(op, [term_of_rank[r] for r in rs]) for op, rs in shapes()]
    return Workload(
        name=name,
        run_mode=run_mode,
        index=index,
        keys=MasterKeyBundle.generate(make_rng(seed)),
        config=PartitionConfig(shards_per_cluster=N_SHARDS, seed=seed),
        queries=queries,
        check_work_law=law,
    )


class Oracle:
    """Expected answers from graph.PlaintextEngine, with the frequency
    metadata the front-end gets, so both pick the same s-terms."""

    def __init__(self, index: dict):
        self.engine = PlaintextEngine(index)

    def expected(self, query: Query):
        expr = parse_sexpr(query.text)
        if expr.op == "apply":
            return self.engine.apply_query(expr, sort=query.sort, top_k=None)
        return self.engine.query(expr, sort=query.sort)

    def server_exps(self, query: Query) -> int:
        """Exponentiations of all servers of both clusters."""
        return 2 * traversal_work(query.text, self.engine.lengths)

    @staticmethod
    def mismatch(query: Query, got: list, expected: list) -> str | None:
        """None when got is a correct answer. Unsorted answers must equal
        the expected id set. Sorted answers must hold min(top_k, |expected|)
        distinct expected ids whose keys are the expected descending key
        prefix: ties may be broken either way, as in the acceptance tests'
        assert_ranked. Scoring with (mul key key) keeps the key order."""
        want = {eid for _, eid in expected}
        if not query.sort:
            if len(got) != len(want) or set(got) != want:
                return f"ids differ: {len(set(got) ^ want)} wrong of {len(want)}"
            return None
        n = len(expected) if query.top_k is None else min(query.top_k, len(expected))
        if len(got) != n or len(set(got)) != n:
            return f"expected {n} distinct ranked ids, got {len(got)}"
        if not set(got) <= want:
            return "ranked ids outside the expected result"
        key_of = {eid: key for key, eid in expected}
        if [key_of[e] for e in got] != [key for key, _ in expected[:n]]:
            return "ranking order differs from the oracle"
        return None
