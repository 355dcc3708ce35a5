"""The index-server daemon and the wire codecs of the query protocol.

Each server holds one shard of one cluster's encrypted database. A query
session walks these phases on the front-end channel:

    QUERY_INIT -> per subquery: TUPLE_COUNT / XTOKEN_BATCH -> RESULT

For sorted queries the counterpart pair then runs an optional scoring
round and the garbled local sort (cluster 0 garbles), each shard reports
MASKS (cluster 0) or CONTRIB (cluster 1) to its cluster coordinator
(shard 0), the cluster-1 coordinator garbles the global merge for the
cluster-0 coordinator, and the cluster-0 coordinator answers the
front-end with GLOBAL_RESULT.

Servers never see the keystore: they operate on stags, xtokens, and
ciphertexts supplied by the front-end.
"""

from __future__ import annotations

import hashlib
import logging
import queue
import struct
import threading
from collections import OrderedDict

from .builder import ShardData, load_edb
from .circuits import MAX_SORT_K
from .crypto import (
    CIPHERTEXT_BYTES,
    ELEMENT_BYTES,
    SCORE_BITS,
    GroupContext,
    decode_element,
)
from .oxt import boolean_query
from .ot import OTPair, OTReceiver, OTSender
from .scoring import ScoreError, eval_score, parse_score, score_width
from .sexpr import BoolFormula
from .shares import dealer_triple_gen, triple_gen_cot
from .sorting import (
    global_sort_evaluator,
    global_sort_garbler,
    local_sort_evaluator,
    local_sort_garbler,
)
from .transport import (
    MSG,
    SERVER_TIMEOUT,
    Channel,
    ChannelClosed,
    Frame,
    Transcript,
    TransportError,
)

log = logging.getLogger(__name__)

__all__ = [
    "ServerError",
    "server_name",
    "IndexServer",
    "encode_query_init",
    "decode_query_init",
    "encode_tuple_count",
    "decode_tuple_count",
    "encode_xtoken_batch",
    "decode_xtoken_batch",
    "encode_result",
    "decode_result",
    "encode_global_result",
    "decode_global_result",
    "QuerySpec",
    "SubquerySpec",
    "wire_top_k",
]

FLAG_SORT = 0x01
FLAG_SCORE = 0x02
FLAG_TOP = 0x04  # a sorted query's t = top_k follows the header

# MASKS/CONTRIB status codes
STATUS_OK = 0
STATUS_FAILED = 1

# ended sessions remembered so that a late frame for one is discarded
DROPPED_KEPT = 4096
# queues that frames made and no session has claimed yet, kept for the
# sessions still to start; beyond this the oldest is discarded, so frames
# for sessions this server never runs cannot pile up
UNCLAIMED_KEPT = 1024

# the seed of dealer-mode triples; every server knows it, which is why
# dealer mode is for single-process runs only
DEALER_SEED = 0


class ServerError(Exception):
    pass


def server_name(cluster: int, shard: int) -> str:
    return f"is{cluster}{shard}"


# ---------------------------------------------------------------------------
# Wire codecs


class SubquerySpec:
    """Wire form of one subquery: everything a server needs, nothing more."""

    def __init__(self, stag: bytes, negate: bool, n_xterms: int, formula: BoolFormula):
        self.stag = stag
        self.negate = negate
        self.n_xterms = n_xterms
        self.formula = formula


def wire_top_k(sort: bool, top_k: int | None) -> int | None:
    """The t that a query's QUERY_INIT names: a sorted query's top_k, at
    most MAX_SORT_K, since no shard sorts more."""
    return min(top_k, MAX_SORT_K) if sort and top_k is not None else None


class QuerySpec:
    """top_k: a sorted query's t (wire_top_k), the servers keeping its
    first t results only; None to keep them all."""

    def __init__(
        self,
        subqueries: list[SubquerySpec],
        sort: bool,
        score: str | None,
        top_k: int | None = None,
    ):
        self.subqueries = subqueries
        self.sort = sort
        self.score = score
        self.top_k = top_k


def encode_query_init(spec: QuerySpec) -> bytes:
    flags = (FLAG_SORT if spec.sort else 0) | (FLAG_SCORE if spec.score else 0)
    parts = [struct.pack(">BH", flags, len(spec.subqueries))]
    if spec.top_k is not None:
        if not spec.sort or not 1 <= spec.top_k <= MAX_SORT_K:
            raise ValueError(f"top k {spec.top_k} of a query that sort={spec.sort}")
        parts[0] = struct.pack(">BHH", flags | FLAG_TOP, len(spec.subqueries), spec.top_k)
    for sub in spec.subqueries:
        formula = sub.formula.to_bytes()
        parts.append(sub.stag)
        parts.append(struct.pack(">BHH", int(sub.negate), sub.n_xterms, len(formula)))
        parts.append(formula)
    score = (spec.score or "").encode()
    parts.append(struct.pack(">H", len(score)) + score)
    return b"".join(parts)


def decode_query_init(payload: bytes) -> QuerySpec:
    """Strict: canonical flag and negate bytes, a t in 1..MAX_SORT_K and
    only for a sorted query, each formula over exactly its subquery's
    x-terms, a UTF-8 score that parse_score accepts and no trailing bytes."""
    end = len(payload)
    if end < 5:
        raise TransportError("QUERY_INIT shorter than its header")
    flags, n_sub = struct.unpack_from(">BH", payload)
    if flags & ~(FLAG_SORT | FLAG_SCORE | FLAG_TOP):
        raise TransportError(f"QUERY_INIT has unknown flags {flags:#04x}")
    off, top_k = 3, None
    if flags & FLAG_TOP:
        if not flags & FLAG_SORT:
            raise TransportError("QUERY_INIT names a top k for an unsorted query")
        (top_k,), off = struct.unpack_from(">H", payload, off), off + 2
        if not 1 <= top_k <= MAX_SORT_K:
            raise TransportError(f"QUERY_INIT top k {top_k} outside 1..{MAX_SORT_K}")
    if off + 2 + 21 * n_sub > end:
        raise TransportError(f"QUERY_INIT too short for {n_sub} subqueries")
    subs = []
    for _ in range(n_sub):
        if off + 21 > end:
            raise TransportError("QUERY_INIT subquery truncated")
        stag = payload[off : off + 16]
        negate, n_xterms, flen = struct.unpack_from(">BHH", payload, off + 16)
        off += 21
        if negate > 1 or off + flen > end:
            raise TransportError("QUERY_INIT subquery malformed")
        formula = BoolFormula.from_bytes(payload[off : off + flen])
        off += flen
        if formula.n_vars != n_xterms:
            raise TransportError(
                f"QUERY_INIT formula over {formula.n_vars} variables for {n_xterms} x-terms"
            )
        subs.append(SubquerySpec(stag, bool(negate), n_xterms, formula))
    if off + 2 > end:
        raise TransportError("QUERY_INIT score field truncated")
    (slen,) = struct.unpack_from(">H", payload, off)
    if off + 2 + slen != end:
        raise TransportError("QUERY_INIT length disagrees with its score field")
    try:
        score = payload[off + 2 :].decode()
    except UnicodeDecodeError:
        raise TransportError("QUERY_INIT score is not UTF-8") from None
    if bool(flags & FLAG_SCORE) != bool(score):
        raise TransportError("QUERY_INIT score flag disagrees with its score")
    if score:
        try:
            parse_score(score)
        except ScoreError as exc:
            raise TransportError(f"QUERY_INIT score refused: {exc}") from None
    return QuerySpec(subs, bool(flags & FLAG_SORT), score or None, top_k)


def encode_tuple_count(count: int) -> bytes:
    return struct.pack(">I", count)


def decode_tuple_count(payload: bytes) -> int:
    if len(payload) != 4:
        raise TransportError("TUPLE_COUNT payload is not a single count")
    return struct.unpack(">I", payload)[0]


def encode_xtoken_batch(rows: list[list[bytes]]) -> bytes:
    width = len(rows[0]) if rows else 0
    return struct.pack(">IH", len(rows), width) + b"".join(b"".join(row) for row in rows)


def decode_xtoken_batch(payload: bytes) -> list[list]:
    """The xtoken rows as points. Strict: each token must be the
    x-coordinate of a point of P-256."""
    if len(payload) < 6:
        raise TransportError("XTOKEN_BATCH shorter than its header")
    count, width = struct.unpack_from(">IH", payload)
    # an empty batch is (0, 0); otherwise both are positive, so the row
    # count is bounded by the payload length
    if len(payload) != 6 + count * width * ELEMENT_BYTES or bool(count) != bool(width):
        raise TransportError("XTOKEN_BATCH size disagrees with its header")
    try:
        tokens = [
            decode_element(payload[off : off + ELEMENT_BYTES])
            for off in range(6, len(payload), ELEMENT_BYTES)
        ]
    except ValueError as exc:
        raise TransportError(f"XTOKEN_BATCH: {exc}") from None
    return [tokens[r * width : (r + 1) * width] for r in range(count)]


def encode_result(counts: list[int], e_ids: list[bytes] | None) -> bytes:
    parts = [struct.pack(">H", len(counts))]
    parts.extend(struct.pack(">I", c) for c in counts)
    if e_ids is not None:
        parts.extend(e_ids)
    return b"".join(parts)


def decode_result(payload: bytes) -> tuple[list[int], list[bytes] | None]:
    """Survivor counts per subquery, then either no ciphertexts (cluster 1)
    or exactly one per survivor (cluster 0)."""
    if len(payload) < 2:
        raise TransportError("RESULT shorter than its header")
    (n_sub,) = struct.unpack_from(">H", payload)
    off = 2 + 4 * n_sub
    if len(payload) < off:
        raise TransportError("RESULT shorter than its counts")
    counts = list(struct.unpack_from(f">{n_sub}I", payload, 2))
    rest = payload[off:]
    if not rest:
        return counts, None
    if len(rest) != sum(counts) * CIPHERTEXT_BYTES:
        raise TransportError("RESULT size disagrees with its counts")
    return counts, [
        rest[i : i + CIPHERTEXT_BYTES] for i in range(0, len(rest), CIPHERTEXT_BYTES)
    ]


def encode_global_result(order: list[tuple[int, int]]) -> bytes:
    parts = [struct.pack(">I", len(order))]
    parts.extend(struct.pack(">HI", shard, idx) for shard, idx in order)
    return b"".join(parts)


def decode_global_result(payload: bytes, t: int | None = None) -> list[tuple[int, int]]:
    """The ranking, of at most t entries (MAX_SORT_K without t)."""
    if len(payload) < 4 or len(payload) != 4 + 6 * struct.unpack_from(">I", payload)[0]:
        raise TransportError("GLOBAL_RESULT size disagrees with its header")
    limit = MAX_SORT_K if t is None else t
    if (len(payload) - 4) // 6 > limit:
        raise TransportError(f"GLOBAL_RESULT of {(len(payload) - 4) // 6} entries, over {limit}")
    return list(struct.iter_unpack(">HI", payload[4:]))


# A shard's report to its coordinator, its first min(k, t) entries in rank
# order, k its result count: MASKS is shard u16, status u8, then one u32
# mask per entry; CONTRIB is shard, status, k as a u32, then (masked score,
# local index) u32 pairs.
def _check_report(frame: str, status: int, count: int) -> None:
    """A MASKS or CONTRIB header: a known status and at most MAX_SORT_K
    entries, checked before the entries are unpacked."""
    if status not in (STATUS_OK, STATUS_FAILED):
        raise TransportError(f"{frame} status byte {status}")
    if count > MAX_SORT_K:
        raise TransportError(f"{frame} of {count} entries, over {MAX_SORT_K}")


def _check_scores(frame: str, scores, width: int = SCORE_BITS) -> None:
    """Masks and masked scores lie below 2^width: the merge reads the low
    width bits of each, so a wider word would be merged as another score.
    The decoders check SCORE_BITS, the widest sort's width; a coordinator
    checks its query's (scoring.score_width)."""
    if any(score >> width for score in scores):
        raise TransportError(f"{frame} score outside Z_{{2^{width}}}")


def _encode_masks(shard: int, status: int, masks: list[int]) -> bytes:
    return struct.pack(f">HB{len(masks)}I", shard, status, *masks)


def _decode_masks(payload: bytes):
    if len(payload) < 3 or (len(payload) - 3) % 4:
        raise TransportError(f"MASKS of {len(payload)} bytes is not whole masks")
    shard, status = struct.unpack_from(">HB", payload)
    count = (len(payload) - 3) // 4
    _check_report("MASKS", status, count)
    masks = list(struct.unpack_from(f">{count}I", payload, 3))
    _check_scores("MASKS", masks)
    return shard, status, masks


def _encode_contrib(shard: int, status: int, entries: list[tuple[int, int]], count: int) -> bytes:
    parts = [struct.pack(">HBI", shard, status, count)]
    parts.extend(struct.pack(">II", m, p) for m, p in entries)
    return b"".join(parts)


def _decode_contrib(payload: bytes):
    """(shard, status, entries, the shard's result count)."""
    if len(payload) < 7 or (len(payload) - 7) % 8:
        raise TransportError(f"CONTRIB of {len(payload)} bytes is not whole entries")
    shard, status, count = struct.unpack_from(">HBI", payload)
    _check_report("CONTRIB", status, count)
    if (len(payload) - 7) // 8 > count:
        raise TransportError(f"CONTRIB of more entries than its count {count}")
    entries = list(struct.iter_unpack(">II", payload[7:]))
    _check_scores("CONTRIB", (masked for masked, _ in entries))
    return shard, status, entries, count


def _discard(item) -> None:
    """Release an item no session will consume: a session channel is closed."""
    if isinstance(item, Channel):
        item.close()


def _discard_queued(q: queue.Queue) -> None:
    """Release every item left in a queue no session will read."""
    while not q.empty():
        _discard(q.get_nowait())


# ---------------------------------------------------------------------------
# The server


class IndexServer:
    """One shard server. start() spawns the accept loop; every accepted
    connection is read once and routed by its first frame: new query
    sessions spawn a worker, sort/aggregation frames are delivered to the
    waiting session by (kind, query id). timeout bounds every send, receive
    and rendezvous of the server's sessions."""

    def __init__(
        self,
        cluster: int,
        shard: int,
        n_shards: int,
        data: ShardData,
        topology,
        *,
        run_mode: str = "secure",
        transcript: Transcript | None = None,
        timeout: float = SERVER_TIMEOUT,
    ):
        if run_mode not in ("dealer", "secure"):
            raise ServerError(f"unknown run mode {run_mode!r}")
        self.cluster = cluster
        self.shard = shard
        self.n_shards = n_shards
        self.data = data
        self.topology = topology
        self.run_mode = run_mode
        self.transcript = transcript
        self.timeout = timeout
        self.name = server_name(cluster, shard)
        self.counterpart = server_name(1 - cluster, shard)
        self.coordinator = server_name(cluster, 0)
        self.is_coordinator = shard == 0
        # the query work's scalar multiplications are metered separately
        # from the base OT's, in the same group
        self.ctx = GroupContext()
        self.ot_ctx = GroupContext()
        self._ot_pairs: dict[str, OTPair] = {}  # by the other server's name
        self._sessions: dict = {}
        self._dropped: OrderedDict = OrderedDict()  # recently ended sessions
        self._unclaimed: OrderedDict = OrderedDict()  # queues no session awaited yet
        self._lock = threading.Lock()
        self._listener = None
        self._running = False

    # -- lifecycle

    def start(self) -> None:
        self._listener = self.topology.listen(self.name, self.timeout)
        self._running = True
        threading.Thread(target=self._accept_loop, name=self.name, daemon=True).start()

    def stop(self) -> None:
        self._running = False
        if self._listener is not None:
            self._listener.close()

    @classmethod
    def from_edb_dir(cls, edb_dir, cluster: int, shard: int, topology, **kwargs):
        """Load this server's shard with checksum verification; a tampered
        store refuses to start."""
        edb = load_edb(edb_dir)
        if shard >= edb.shards_per_cluster:
            raise ServerError(f"no shard {shard} in {edb_dir}")
        return cls(
            cluster, shard, edb.shards_per_cluster, edb.clusters[cluster][shard],
            topology, **kwargs,
        )

    def _ot_pair(self, peer: str) -> OTPair:
        """The OT state kept with another server, made on first use; its
        base OT runs in the first session that extends it."""
        with self._lock:
            pair = self._ot_pairs.get(peer)
            if pair is None:
                pair = self._ot_pairs[peer] = OTPair(self.ot_ctx, self.timeout)
            return pair

    # -- connection routing

    def _accept_loop(self) -> None:
        while True:
            try:
                chan = self._listener.accept()
            except TransportError:
                break
            if not self._running:  # accepted as the server stopped
                chan.close()
                break
            chan.transcript = self.transcript
            chan.party = self.name
            t = threading.Thread(target=self._dispatch, args=(chan,), daemon=True)
            t.start()

    def _dispatch(self, chan: Channel) -> None:
        try:
            first = chan.recv()
        except TransportError:
            chan.close()
            return
        try:
            if first.type == MSG["QUERY_INIT"]:
                self._handle_query(chan, first)
            elif first.type == MSG["SORT_INIT"]:
                kind = "gsort" if self.cluster == 0 else "sort"
                self._deliver((kind, first.session), chan)
            elif first.type == MSG["MASKS"]:
                self._deliver(("masks", first.session), _decode_masks(first.payload))
                chan.close()
            elif first.type == MSG["CONTRIB"]:
                self._deliver(("contrib", first.session), _decode_contrib(first.payload))
                chan.close()
            else:
                log.warning("%s: unexpected opening frame %s", self.name, first.name)
                chan.close()
        except Exception:
            log.exception("%s: connection handler failed", self.name)
            chan.close()

    def _queue(self, key) -> queue.Queue:
        """The session's queue, made on first use; the caller holds the lock."""
        q = self._sessions.get(key)
        if q is None:
            q = self._sessions[key] = queue.Queue()
        return q

    def _deliver(self, key, item) -> None:
        """Queue item for the session key, unless it has ended. A queue
        made here is unclaimed until the session awaits it, and the oldest
        unclaimed queue beyond UNCLAIMED_KEPT is discarded."""
        evicted = None
        with self._lock:
            late = key in self._dropped
            if not late:
                if key not in self._sessions:
                    self._unclaimed[key] = None
                self._queue(key).put(item)
                if len(self._unclaimed) > UNCLAIMED_KEPT:
                    oldest, _ = self._unclaimed.popitem(last=False)
                    evicted = self._sessions.pop(oldest)
        if late:
            _discard(item)  # a late arrival for a session already over
        if evicted is not None:
            _discard_queued(evicted)

    def _await(self, key):
        with self._lock:
            self._unclaimed.pop(key, None)
            q = None if key in self._dropped else self._queue(key)
        if q is not None:
            try:
                return q.get(timeout=self.timeout)
            except queue.Empty:
                pass
        raise TransportError(f"{self.name}: timed out waiting for {key[0]}")

    def _drop(self, key) -> None:
        """End a session: what it has not consumed is discarded, and what
        arrives for it later is discarded on arrival."""
        with self._lock:
            q = self._sessions.pop(key, None)
            self._unclaimed.pop(key, None)
            self._dropped[key] = None
            while len(self._dropped) > DROPPED_KEPT:
                self._dropped.popitem(last=False)
        if q is not None:
            _discard_queued(q)

    # -- query sessions

    def _handle_query(self, chan: Channel, init: Frame) -> None:
        qid = init.session
        spec = survivors = None
        try:
            spec = decode_query_init(init.payload)
            survivors = self._select(chan, qid, spec)
            if spec.sort:
                self._sort_phase(chan, qid, survivors, spec)
        except Exception as exc:
            log.exception("%s: query %d failed", self.name, qid)
            try:
                chan.send(Frame(MSG["ERROR"], qid, str(exc).encode()))
            except TransportError:
                pass
            if spec is not None and spec.sort and survivors is None:
                # the peers of a sorted query this server failed are
                # released at once instead of waiting out their timeouts
                self._sort_phase(chan, qid, None, spec)
        finally:
            chan.close()

    def _select(self, chan: Channel, qid: int, spec: QuerySpec) -> list:
        """The survivors of every subquery, reported to the front-end."""
        survivors = []
        counts = []
        for sub in spec.subqueries:
            tuples = self.data.tset.retrieve(sub.stag)
            chan.send(Frame(MSG["TUPLE_COUNT"], qid, encode_tuple_count(len(tuples))))
            if sub.n_xterms:
                batch = chan.expect("XTOKEN_BATCH")
                rows = decode_xtoken_batch(batch.payload)
                kept = boolean_query(
                    self.data.tset, self.data.xset, self.ctx,
                    sub.stag, rows, sub.formula, sub.negate,
                )
            else:
                kept = list(enumerate(tuples))
            counts.append(len(kept))
            survivors.extend(t for _, t in kept)
        e_ids = [t.e_id for t in survivors] if self.cluster == 0 else None
        chan.send(Frame(MSG["RESULT"], qid, encode_result(counts, e_ids)))
        return survivors

    def _connect(self, name: str) -> Channel:
        """A channel to another server, recorded as this party's."""
        chan = self.topology.connect(name, self.timeout)
        chan.transcript = self.transcript
        chan.party = self.name
        return chan

    def _report(self, frame_type: str, payload: bytes, session: int) -> None:
        """One-shot frame to this cluster's coordinator."""
        chan = self._connect(self.coordinator)
        try:
            chan.send(Frame(MSG[frame_type], session, payload))
        finally:
            chan.close()

    def _sort_phase(self, chan: Channel, qid: int, survivors, spec: QuerySpec) -> None:
        """The local sort with the counterpart, the report of its first
        spec.top_k entries to the coordinator and, on shard 0, the
        coordinator's duties. survivors is None when this server failed the
        query: the counterpart session is then released and the
        coordinator told at once."""
        shares = None if survivors is None else [t.sortkey_share for t in survivors]
        width = score_width(spec.score)
        if self.cluster == 0:
            self._sort_phase_garbler(chan, qid, shares, spec.score, spec.top_k, width)
        else:
            self._sort_phase_evaluator(qid, shares, spec.score, spec.top_k, width)

    def _sort_phase_garbler(self, chan, qid, shares, score, top_k, width):
        status, masks = STATUS_OK, []
        if shares != []:
            try:
                cchan = self._connect(self.counterpart)
                try:
                    cchan.send(Frame(MSG["SORT_INIT"], qid, b""))  # session handshake
                    if shares is None:
                        status = STATUS_FAILED  # closing the session releases the peer
                    else:
                        if score:
                            shares = self._score(cchan, qid, shares, score, party=0)
                        masks = local_sort_garbler(
                            cchan, qid, shares, self._ot_pair(self.counterpart), top_k,
                            width=width,
                        )
                finally:
                    cchan.close()
            except Exception:
                # the coordinator learns of the failure at once instead of
                # waiting out its timeout for this shard's masks
                log.exception("%s: local sort of query %d failed", self.name, qid)
                status, masks = STATUS_FAILED, []
        self._report("MASKS", _encode_masks(self.shard, status, masks), qid)
        if self.is_coordinator:
            self._coordinate_masks(chan, qid, top_k, width)

    def _sort_phase_evaluator(self, qid, shares, score, top_k, width):
        status, entries = STATUS_OK, []
        try:
            if shares is None:
                status = STATUS_FAILED
            elif shares:
                cchan = self._await(("sort", qid))
                try:
                    if score:
                        shares = self._score(cchan, qid, shares, score, party=1)
                    masked, order = local_sort_evaluator(
                        cchan, qid, shares, self._ot_pair(self.counterpart), top_k,
                        width=width,
                    )
                finally:
                    cchan.close()
                entries = list(zip(masked, order))
        except Exception:
            log.exception("%s: local sort of query %d failed", self.name, qid)
            status = STATUS_FAILED
        finally:
            # a garbler's session that is still to come is closed on arrival
            self._drop(("sort", qid))
        count = len(shares) if status == STATUS_OK else 0
        self._report("CONTRIB", _encode_contrib(self.shard, status, entries, count), qid)
        if self.is_coordinator:
            self._coordinate_contribs(qid, top_k, width)

    # -- coordinator duties

    def _coordinate_masks(self, chan: Channel, qid: int, top_k: int | None, width: int) -> None:
        """Cluster-0 coordinator: gather every shard's width-bit masks,
        evaluate the global merge fed by the cluster-1 coordinator, answer
        the front-end. The cluster-1 coordinator opens the merge session of
        every sorted query, so it is always consumed here; when the answer
        is already known (a failed shard, or nothing to sort) it is sent
        first."""
        masks = [[] for _ in range(self.n_shards)]
        failed = None
        try:
            for _ in range(self.n_shards):
                shard, status, shard_masks = self._await(("masks", qid))
                if shard >= self.n_shards:
                    raise ServerError(f"MASKS from shard {shard} of {self.n_shards}")
                _check_scores("MASKS", shard_masks, width)
                if status != STATUS_OK:
                    failed = shard
                masks[shard] = shard_masks
        except (TransportError, ServerError):
            self._drop(("gsort", qid))  # the merge session is closed on arrival
            raise
        finally:
            self._drop(("masks", qid))
        total = sum(map(len, masks))
        answered = failed is not None or total == 0
        try:
            if failed is not None:
                message = f"shard {failed} degraded: sorted queries unavailable"
                chan.send(Frame(MSG["ERROR"], qid, message.encode()))
            elif total == 0:
                chan.send(Frame(MSG["GLOBAL_RESULT"], qid, encode_global_result([])))
        except TransportError:
            log.warning("%s: the front-end left query %d", self.name, qid)
        try:
            gchan = self._await(("gsort", qid))
        except TransportError:
            if not answered:
                raise
            log.warning("%s: no merge session for query %d", self.name, qid)
            return
        finally:
            self._drop(("gsort", qid))
        try:
            if not answered:
                try:
                    order = global_sort_evaluator(
                        gchan, qid, masks, self._ot_pair(server_name(1, 0)), top_k,
                        width=width,
                    )
                except ChannelClosed:
                    raise ServerError(
                        "the cluster-1 coordinator closed the merge: "
                        "sorted queries unavailable"
                    ) from None
                chan.send(Frame(MSG["GLOBAL_RESULT"], qid, encode_global_result(order)))
        finally:
            gchan.close()

    def _coordinate_contribs(self, qid: int, top_k: int | None, width: int) -> None:
        """Cluster-1 coordinator: gather every shard's masked vector, empty
        ones included, and garble the global merge for the cluster-0
        coordinator. The merge session is opened even when a shard failed,
        a contribution never came or was refused (_check_scores at width)
        or nothing is to be merged, and then closed at once, so the
        cluster-0 coordinator never waits out its timeout for it."""
        contributions = []
        failed = False
        try:
            for _ in range(self.n_shards):
                shard, status, entries, count = self._await(("contrib", qid))
                failed |= status != STATUS_OK
                masked = [m for m, _ in entries]
                _check_scores("CONTRIB", masked, width)
                contributions.append((shard, count, masked, [p for _, p in entries]))
        except TransportError as exc:
            log.warning("%s: query %d's contributions: %s", self.name, qid, exc)
            failed = True
        finally:
            self._drop(("contrib", qid))
        gchan = self._connect(server_name(0, 0))
        try:
            gchan.send(Frame(MSG["SORT_INIT"], qid, b""))  # session handshake
            if not failed and any(count for _, count, _, _ in contributions):
                global_sort_garbler(
                    gchan, qid, contributions, self._ot_pair(server_name(0, 0)), top_k,
                    width=width,
                )
        finally:
            gchan.close()

    # -- scoring

    def _score(self, channel, qid, shares, formula_text, party):
        take_triple = self._triple_source(channel, qid, party)
        values = eval_score(parse_score(formula_text), shares, party, channel, take_triple, qid)
        return [int(v) for v in values]

    def _triple_source(self, channel, qid, party):
        if self.run_mode == "secure":
            # both extension roles on the counterpart pair's OT state
            ot = self._ot_pair(self.counterpart)
            sender, receiver = OTSender(ot, channel, qid), OTReceiver(ot, channel, qid)
            return lambda shape: triple_gen_cot(party, shape, sender, receiver)
        counter = {"n": 0}

        def dealer(shape):
            seed_bytes = hashlib.sha256(
                struct.pack(">QQQI", DEALER_SEED, qid, counter["n"], self.shard)
            ).digest()
            counter["n"] += 1
            seed = int.from_bytes(seed_bytes[:8], "big")
            pair = dealer_triple_gen(shape, seed)
            return pair[party]

        return dealer
