"""The trusted front-end: query planning and protocol driving.

The front-end holds the master keys. Its plan is the one it runs:
compile_query splits an s-expression into subqueries, and a scoring
formula is parsed and checked before any server sees the query. It then
derives stags and streams xtokens sized by each server's announced tuple
count, collects encrypted results from cluster 0, and for sorted queries
reads the global ranking from the cluster-0 coordinator.
A sorted query's top_k travels in QUERY_INIT as t, so the servers sort,
merge and rank only the first t. The front-end decrypts locally only the
result ids it returns, under one term key per subquery and shard; servers
never see keys or plaintext ids.

Results returned to callers are plaintext entity ids, ranked when a sort
was requested. Multi-round traversals (apply) run the nested expression
ranked and cut to its first NESTED_TOP_K, instantiate prefix terms from
its ids, and run the resulting disjunction as the outer round.
"""

from __future__ import annotations

import logging
import secrets

from .crypto import DecryptError, GroupContext, MasterKeyBundle, decrypt_ids, term_key
from .oxt import IntegrityError, Subquery, compile_query, stag_for, xtoken_rows
from .scoring import ScoreError, parse_score
from .server import (
    QuerySpec,
    SubquerySpec,
    decode_global_result,
    decode_result,
    decode_tuple_count,
    encode_query_init,
    encode_xtoken_batch,
    server_name,
    wire_top_k,
)
from .sexpr import NESTED_TOP_K, SExpr, parse_sexpr
from .transport import MSG, Frame, Transcript, TransportError

log = logging.getLogger(__name__)

__all__ = ["QueryError", "FrontEnd"]


class QueryError(Exception):
    pass


class FrontEnd:
    """Drives query sessions against both clusters over a topology; timeout
    bounds every send and receive on its channels to the servers."""

    def __init__(
        self,
        keys: MasterKeyBundle,
        topology,
        n_shards: int,
        *,
        lengths: dict[str, int] | None = None,
        timeout: float = 120.0,
        transcript: Transcript | None = None,
    ):
        self.keys = keys
        self.topology = topology
        self.n_shards = n_shards
        self.lengths = lengths
        self.timeout = timeout
        self.transcript = transcript
        self.ctx = GroupContext()

    def query(
        self,
        query,
        sort: bool = False,
        top_k: int | None = None,
        score: str | None = None,
    ) -> list[int]:
        """Run a query; returns plaintext ids, ranked when sort is set, the
        first top_k of them if top_k is given. A score formula is checked
        before any server sees the query."""
        if top_k is not None and top_k < 1:
            raise QueryError(f"top_k must be at least 1, not {top_k}")
        if score:
            try:
                parse_score(score)
            except ScoreError as exc:
                raise QueryError(f"bad score formula {score!r}: {exc}") from None
        expr = parse_sexpr(query) if isinstance(query, str) else query
        if expr.op == "apply":
            return self._apply(expr, sort, top_k, score)
        subqueries = compile_query(expr, self.lengths)
        return self._execute(subqueries, sort, top_k, score)

    def _apply(self, expr: SExpr, sort, top_k, score) -> list[int]:
        nested = self.query(expr.args[0], sort=True, top_k=NESTED_TOP_K)
        if not nested:
            return []
        terms = [SExpr(op="term", term=f"{expr.prefix}{eid}") for eid in nested]
        outer = terms[0] if len(terms) == 1 else SExpr(op="or", args=tuple(terms))
        return self.query(outer, sort=sort, top_k=top_k, score=score)

    # -- one protocol session

    def _execute(
        self,
        subqueries: list[Subquery],
        sort: bool,
        top_k: int | None,
        score: str | None,
    ) -> list[int]:
        if not subqueries:
            return []
        if score and not sort:
            raise QueryError("scoring requires a sorted query")
        t = wire_top_k(sort, top_k)  # the servers keep the first t results only
        qid = secrets.randbits(64)  # server session maps key on it
        chans = self._connect(sort)
        try:
            spec = QuerySpec(
                [
                    SubquerySpec(
                        stag_for(self.keys, s), s.negate, s.n_xterms, s.formula
                    )
                    for s in subqueries
                ],
                sort,
                score,
                t,
            )
            init = Frame(MSG["QUERY_INIT"], qid, encode_query_init(spec))
            for ch in chans.values():
                ch.send(init)
            shard_counts, shard_eids = self._run_subqueries(chans, qid, subqueries)
            if sort:
                picked = self._global_order(chans[(0, 0)], t)
            else:
                picked = [(j, i) for j in range(self.n_shards) for i in range(len(shard_eids[j]))]
            picked = picked[:top_k]
            # the picked ids' ciphertexts, by shard and term
            groups: dict = {}
            for n, (j, i) in enumerate(picked):
                if j >= self.n_shards or i >= len(shard_eids[j]):
                    raise QueryError(f"global ranking points outside shard {j}")
                sub = self._sub_at(subqueries, shard_counts[j], i, j)
                groups.setdefault((j, sub.s_term), []).append(n)
            out = [0] * len(picked)
            for (j, s_term), at in groups.items():
                ids = self._decrypt(s_term, [shard_eids[j][picked[n][1]] for n in at], j)
                for n, eid in zip(at, ids):
                    out[n] = eid
            return out
        finally:
            for ch in chans.values():
                ch.close()

    def _connect(self, sort: bool) -> dict:
        chans = {}
        missing = []
        try:
            for cluster in (0, 1):
                for j in range(self.n_shards):
                    name = server_name(cluster, j)
                    try:
                        ch = self.topology.connect(name, self.timeout)
                    except TransportError:
                        if cluster == 1:
                            missing.append(name)
                            continue
                        raise QueryError(f"index server {name} unreachable")
                    ch.transcript = self.transcript
                    ch.party = "frontend"
                    chans[(cluster, j)] = ch
            if missing:
                log.warning("degraded: %s unreachable", ", ".join(missing))
                if sort:
                    raise QueryError(
                        f"degraded: {', '.join(missing)} unreachable; "
                        "sorted queries need both clusters"
                    )
        except QueryError:
            for ch in chans.values():  # the servers' sessions end at once
                ch.close()
            raise
        return chans

    def _recv(self, chan, expected: str) -> Frame:
        frame = chan.recv()
        if frame.type == MSG["ERROR"]:
            raise QueryError(f"server error: {frame.payload.decode(errors='replace')}")
        if frame.type != MSG[expected]:
            raise QueryError(f"expected {expected}, got {frame.name}")
        return frame

    def _run_subqueries(self, chans, qid, subqueries):
        """Per subquery: gather tuple counts, stream the sized xtoken
        batches; then collect cluster-0 ciphertexts and cross-check counts."""
        for sub in subqueries:
            counts = {}
            for key, ch in chans.items():
                frame = self._recv(ch, "TUPLE_COUNT")
                counts[key] = decode_tuple_count(frame.payload)
            for j in range(self.n_shards):
                c1 = counts.get((1, j))
                if c1 is not None and counts[(0, j)] != c1:
                    raise QueryError(f"clusters disagree on shard {j} tuple count")
            if sub.n_xterms:
                for j in range(self.n_shards):
                    rows = xtoken_rows(
                        self.keys, self.ctx, sub.s_term, counts[(0, j)], sub.x_terms
                    )
                    payload = encode_xtoken_batch(rows)
                    for cluster in (0, 1):
                        ch = chans.get((cluster, j))
                        if ch is not None:
                            ch.send(Frame(MSG["XTOKEN_BATCH"], qid, payload))
        shard_counts = {}
        shard_eids = {}
        for (cluster, j), ch in sorted(chans.items()):
            frame = self._recv(ch, "RESULT")
            sub_counts, e_ids = decode_result(frame.payload)
            if cluster == 0:
                if e_ids is None and sum(sub_counts):
                    raise QueryError(f"cluster 0 shard {j} returned no ciphertexts")
                shard_counts[j] = sub_counts
                shard_eids[j] = e_ids or []
            elif sub_counts != shard_counts[j]:
                raise QueryError(f"clusters disagree on shard {j} survivor counts")
        return shard_counts, shard_eids

    def _global_order(self, coord_chan, t: int | None) -> list[tuple[int, int]]:
        frame = self._recv(coord_chan, "GLOBAL_RESULT")
        return decode_global_result(frame.payload, t)

    @staticmethod
    def _sub_at(subqueries, counts, index, shard) -> Subquery:
        for sub, count in zip(subqueries, counts):
            if index < count:
                return sub
            index -= count
        raise QueryError(f"result index outside shard {shard} survivor vector")

    def _decrypt(self, s_term: str, e_ids: list[bytes], shard: int) -> list[int]:
        """The ids of one shard's result tuples of one term, under one key."""
        try:
            return decrypt_ids(term_key(self.keys, s_term), e_ids)
        except DecryptError as exc:
            raise IntegrityError(
                f"undecryptable result tuple from shard {shard}: {exc}"
            ) from exc
