"""In-memory layer tracing from outside the program.

Tracer.install() replaces each layer's functions under the names their
callers look them up by (``privgraph.sorting.garble``,
``privgraph.server.boolean_query``, ``IndexServer._handle_query``, ...)
with wrappers that record one span per call: name, layer, party, query
id, start, end and the parent span on the same thread. uninstall() puts
the originals back.

Three kinds of span:

* ``layer``: work of one layer (token generation, the XSet filter, codecs,
  circuit lookups, garbling, OT, Beaver arithmetic, ...).
* ``container``: a session on one party (FrontEnd._execute,
  IndexServer._dispatch/_handle_query/_coordinate_*). They name the party
  for the layer spans inside them and are never counted as layer time,
  since they include waiting.
* ``wait``: the front-end blocked on a server reply (FrontEnd._recv).

The hottest leaves (GroupContext.exp, XSetFilter.contains and
FrontEnd._decrypt, up to thousands of calls per query) are metered instead
of spanned: their time and count go to per-query counters and are charged
to the enclosing span as child time, so self times stay exact without a
record per call.

A party is read from the call where the arguments tell it (an IndexServer
or FrontEnd method, the TSet a server owns, a channel's party), else it is
inherited from the enclosing span on the thread. The query id is the
benchmark's current query: one client in a closed loop has one query in
flight.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import threading
from collections import defaultdict
from time import perf_counter

import privgraph.circuits as circuits_mod
import privgraph.garble as garble_mod
import privgraph.planner as planner_mod
import privgraph.scoring as scoring_mod
import privgraph.server as server_mod
import privgraph.sorting as sorting_mod
from privgraph.builder import XSetFilter
from privgraph.crypto import GroupContext
from privgraph.ot import OTReceiver, OTSender
from privgraph.planner import FrontEnd
from privgraph.server import IndexServer

LAYERS = (
    "planner", "crypto", "oxt", "bloom", "server", "circuits", "garble",
    "sorting", "ot", "shares", "scoring",
)


class Span:
    __slots__ = (
        "name", "layer", "kind", "party", "qid", "start", "end", "parent",
        "child", "info",
    )

    def __init__(self, name, layer, kind, party, qid, parent):
        self.name = name
        self.layer = layer
        self.kind = kind
        self.party = party
        self.qid = qid
        self.parent = parent
        self.child = 0.0  # seconds covered by child spans and metered leaves
        self.info = None
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _self_party(args):
    return args[0].name


def _frontend(args):
    return "frontend"


def _channel_party(args):
    return getattr(args[0], "party", None) or None


def _ot_party(args):
    return getattr(args[0].channel, "party", None) or None


class Tracer:
    def __init__(self, cluster):
        self.qid = None
        self.spans: list[Span] = []
        self.counts = defaultdict(float)  # (qid, key) -> value
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []
        self.missing: list[str] = []
        self.traced_misses = 0
        self._tset_party = {
            id(s.data.tset): name for name, s in cluster.servers.items()
        }
        # every memoised builder of the circuit layer, by the module-level
        # name its callers use: (module, attribute, the cached function)
        self.caches = [
            (mod, attr, fn)
            for mod in (circuits_mod, garble_mod, sorting_mod)
            for attr, fn in vars(mod).items()
            if callable(getattr(fn, "cache_info", None))
        ]

    # -- recording

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, qid, key, value) -> None:
        with self._lock:
            self.counts[(qid, key)] += value

    @contextlib.contextmanager
    def suppressed(self):
        """Context in which this thread's calls are not traced."""
        self._local.off = True
        try:
            yield
        finally:
            self._local.off = False

    def span(self, name, layer, kind, party):
        """Open a span by hand (the benchmark's per-query root)."""
        stack = self._stack()
        span = Span(name, layer, kind, party, self.qid, stack[-1] if stack else None)
        stack.append(span)
        span.start = perf_counter()
        return span

    def close(self, span) -> None:
        span.end = perf_counter()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child += span.duration
        with self._lock:
            self.spans.append(span)

    # -- wrapping

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr, layer, kind="layer", party=None, after=None,
             before=None):
        """Span every call of owner.attr. before(args) runs ahead of the
        call and its value is handed to after(tracer, span, args, result,
        pre). A name the program no longer has is skipped and listed in
        self.missing, so the benchmark keeps running across refactors."""
        fn = owner.__dict__.get(attr)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        name = f"{layer}.{attr.lstrip('_')}"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if getattr(tracer._local, "off", False):
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            who = party(args) if party is not None else None
            if who is None and parent is not None:
                who = parent.party
            span = Span(name, layer, kind, who, tracer.qid, parent)
            pre = before(args) if before is not None else None
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.add(None, f"{layer}.errors", 1)
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child += span.end - span.start
                with tracer._lock:
                    tracer.spans.append(span)
            if after is not None:
                after(tracer, span, args, result, pre)
            return result

        self._patch(owner, attr, wrapper)

    def meter(self, owner, attr, layer, metric, hits=False):
        """Aggregate a hot leaf: count, seconds (and true results)."""
        fn = owner.__dict__.get(attr)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args):
            if getattr(tracer._local, "off", False):
                return fn(*args)
            t0 = perf_counter()
            try:
                result = fn(*args)
            except Exception:
                tracer.add(None, f"{layer}.errors", 1)
                raise
            finally:
                dt = perf_counter() - t0
                stack = tracer._stack()
                top = stack[-1] if stack else None
                if top is not None:
                    top.child += dt
                qid = tracer.qid
                with tracer._lock:
                    counts = tracer.counts
                    counts[(qid, f"{metric}_s")] += dt
                    counts[(qid, f"{metric}_n")] += 1
                    counts[(qid, f"self.{layer}")] += dt
                    if top is None or top.kind != "layer":
                        counts[(qid, "coverage.leaf_s")] += dt
            if hits and result:
                tracer.add(qid, f"{metric}_hits", 1)
            return result

        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        w, m = self.wrap, self.meter
        # planner (front-end)
        w(FrontEnd, "_execute", "planner", "container", _frontend)
        w(FrontEnd, "_recv", "planner", "wait", _frontend)
        w(planner_mod, "stag_for", "planner")
        w(planner_mod, "xtoken_rows", "planner", after=_after_xtokens)
        m(FrontEnd, "_decrypt", "planner", "planner.decrypt")
        # crypto and the XSet filter
        m(GroupContext, "exp", "crypto", "crypto.exp")
        w(server_mod, "boolean_query", "oxt",
          party=lambda a: self._tset_party.get(id(a[0])), after=_after_filter)
        m(XSetFilter, "contains", "bloom", "bloom.probe", hits=True)
        # server sessions and the wire codecs on both ends
        for attr in ("_dispatch", "_handle_query", "_coordinate_masks",
                     "_coordinate_contribs"):
            w(IndexServer, attr, "server", "container", _self_party)
        for mod, attrs in (
            (planner_mod, ("encode_query_init", "encode_xtoken_batch",
                           "decode_result", "decode_global_result")),
            (server_mod, ("decode_query_init", "decode_xtoken_batch",
                          "encode_result", "encode_global_result",
                          "_encode_masks", "_decode_masks", "_encode_contrib",
                          "_decode_contrib")),
        ):
            for attr in attrs:
                w(mod, attr, "server")
        # circuits, garbling and the two sort protocols
        for mod, attr, fn in self.caches:
            w(mod, attr, "circuits", before=_misses_of(fn), after=_after_lookup(fn))
        w(sorting_mod, "garble", "garble", after=_after_garble)
        w(sorting_mod, "evaluate", "garble")
        for attr in ("local_sort_garbler", "local_sort_evaluator",
                     "global_sort_garbler", "global_sort_evaluator"):
            w(server_mod, attr, "sorting", party=_channel_party)
        # oblivious transfer
        for cls in (OTSender, OTReceiver):
            w(cls, "setup", "ot", party=_ot_party)
        w(OTSender, "send_messages", "ot", party=_ot_party, after=_after_transfer)
        w(OTSender, "send_correlated", "ot", party=_ot_party, after=_after_transfer)
        w(OTReceiver, "recv_messages", "ot", party=_ot_party)
        w(OTReceiver, "recv_correlated", "ot", party=_ot_party)
        # shares and scoring
        w(server_mod, "triple_gen_cot", "shares")
        w(server_mod, "dealer_triple_gen", "shares")
        w(scoring_mod, "mul", "shares")
        w(server_mod, "eval_score", "scoring")
        self._misses_at_install = self.cache_misses()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.traced_misses += self.cache_misses() - self._misses_at_install

    def cache_misses(self) -> int:
        return sum(fn.cache_info().misses for _, _, fn in self.caches)


# -- per-call facts recorded next to the span


def _after_xtokens(tracer, span, args, rows, pre):
    tracer.add(span.qid, "planner.xtokens", sum(len(r) for r in rows))


def _after_filter(tracer, span, args, kept, pre):
    tracer.add(span.qid, "oxt.tuples_scanned", len(args[4]))
    tracer.add(span.qid, "oxt.survivors", len(kept))


def _misses_of(cached):
    return lambda args: cached.cache_info().misses


def _after_lookup(cached):
    def after(tracer, span, args, circuit, misses_before):
        # a lookup during which the cache missed built the circuit; two
        # threads missing on one key at once both build, and both count
        span.info = (
            getattr(circuit, "k", 0),
            getattr(circuit, "n", 0),
            cached.cache_info().misses > misses_before,
        )

    return after


def _after_garble(tracer, span, args, result, pre):
    gc = result[0]
    span.info = (gc.and_count, gc.tables.nbytes)


def _after_transfer(tracer, span, args, result, pre):
    tracer.add(span.qid, "ot.transfers", len(args[1]))


# -- per-layer metrics of a traced phase


def _union(intervals) -> float:
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def summarize(tracer, traced, untraced, meter, *, build_s, bytes_per_tuple,
              leakage_violations, tail_pct, failed_frac, operators, frames):
    """Per-layer metrics, per query of the traced phase unless named a
    ratio, a total (errors, violations, spans without a party) or a count
    of distinct sizes."""
    n = len(traced)
    qids = {s.qid for s in traced}
    spans = [sp for sp in tracer.spans if sp.qid in qids]
    counts = tracer.counts

    def total(key):
        return sum(v for (q, k), v in counts.items() if k == key and q in qids)

    def ms(names=None, pred=None):
        return 1e3 * sum(
            sp.duration for sp in spans
            if (names is None or sp.name in names) and (pred is None or pred(sp))
        ) / n

    def parent_name(sp):
        return sp.parent.name if sp.parent is not None else ""

    local = ("sorting.local_sort_garbler", "sorting.local_sort_evaluator")
    glob = ("sorting.global_sort_garbler", "sorting.global_sort_evaluator")
    garbles = [sp for sp in spans if sp.name == "garble.garble" and sp.info]
    lookups = [sp for sp in spans if sp.layer == "circuits" and sp.info]
    garbler_lookups = [sp for sp in lookups if parent_name(sp).endswith("_garbler")]

    by_q: dict = {}
    for sp in spans:
        by_q.setdefault(sp.qid, []).append(sp)
    local_ms = global_ms = skew_ms = covered = wall = 0.0
    for q, qs in by_q.items():
        local_ms += _union((sp.start, sp.end) for sp in qs if sp.name in local)
        global_ms += _union((sp.start, sp.end) for sp in qs if sp.name in glob)
        per_shard: dict = {}
        for sp in qs:
            if sp.name in local:
                a, b = per_shard.get(sp.party[3:], (sp.start, sp.end))
                per_shard[sp.party[3:]] = (min(a, sp.start), max(b, sp.end))
        if len(per_shard) > 1:
            lengths = [b - a for a, b in per_shard.values()]
            skew_ms += max(lengths) - min(lengths)
        for root in (sp for sp in qs if sp.kind == "root"):
            wall += root.duration
            covered += _union(
                (max(sp.start, root.start), min(sp.end, root.end))
                for sp in qs
                if sp.kind == "layer" and sp.end > root.start and sp.start < root.end
            )
            covered += counts.get((q, "coverage.leaf_s"), 0.0)

    scanned = total("oxt.tuples_scanned")
    probes = total("bloom.probe_n")
    padded = sum(sp.info[1] for sp in garbler_lookups)
    sessions = [x for s in traced for x in s.sessions]
    frame_bytes = meter.by_frame(sessions, meter.bytes)
    per_frame = {f: frame_bytes.get(f, 0) for f in frames}  # frames ends with "other"
    per_frame["other"] += sum(v for f, v in frame_bytes.items() if f not in per_frame)
    lat_traced = statistics.median(s.latency for s in traced)
    lat_untraced = statistics.median(s.latency for s in untraced)

    m = {
        "planner.token_ms": ms(("planner.stag_for", "planner.xtoken_rows")),
        "planner.xtokens": total("planner.xtokens") / n,
        "planner.decrypt_ms": 1e3 * total("planner.decrypt_s") / n,
        "planner.wait_ms": ms(pred=lambda sp: sp.kind == "wait"),
        "crypto.fe_exps": sum(s.exps[0] for s in traced) / n,
        "crypto.server_exps": sum(s.exps[1] for s in traced) / n,
        "crypto.exp_ms": 1e3 * total("crypto.exp_s") / n,
        "crypto.ot_exps": sum(s.exps[2] for s in traced) / n,
        "oxt.filter_ms": ms(("oxt.boolean_query",)),
        "oxt.tuples_scanned": scanned / n,
        "oxt.survivor_ratio": total("oxt.survivors") / scanned if scanned else 0.0,
        "bloom.probes": probes / n,
        "bloom.hit_ratio": total("bloom.probe_hits") / probes if probes else 0.0,
        "server.codec_ms": ms(pred=lambda sp: sp.layer == "server" and sp.kind == "layer"),
        "transport.frames": sum(meter.by_frame(sessions, meter.frames).values()) / n,
        **{f"transport.bytes.{f}": v / n for f, v in per_frame.items()},
        "circuits.build_ms": ms(pred=lambda sp: sp.layer == "circuits" and sp.info and sp.info[2]),
        "circuits.cache_misses": tracer.traced_misses / n,
        "circuits.and_gates": sum(sp.info[0] for sp in garbles) / n,
        "garble.garble_ms": ms(("garble.garble",)),
        "garble.evaluate_ms": ms(("garble.evaluate",)),
        "garble.table_bytes": sum(sp.info[1] for sp in garbles) / n,
        "sorting.local_ms": 1e3 * local_ms / n,
        "sorting.global_ms": 1e3 * global_ms / n,
        "sorting.merge_and_gates": sum(
            sp.info[0] for sp in garbles if parent_name(sp) == "sorting.global_sort_garbler"
        ) / n,
        "sorting.pad_ratio": (
            sum(sp.info[0] for sp in garbler_lookups) / padded if padded else 0.0
        ),
        "sorting.shard_skew_ms": 1e3 * skew_ms / n,
        "sorting.local_sizes": len({
            sp.info[0] for sp in garbler_lookups if parent_name(sp) == "sorting.local_sort_garbler"
        }),
        "sorting.merge_sizes": len({
            sp.info[0] for sp in garbler_lookups if parent_name(sp) == "sorting.global_sort_garbler"
        }),
        "ot.base_setup_ms": ms(("ot.setup",)),
        "ot.base_setups": sum(1 for sp in spans if sp.name == "ot.setup") / n,
        "ot.extension_ms": ms(("ot.send_messages", "ot.send_correlated",
                               "ot.recv_messages", "ot.recv_correlated")),
        "ot.transfers": total("ot.transfers") / n,
        "shares.triple_gen_ms": ms(("shares.triple_gen_cot", "shares.dealer_triple_gen")),
        "shares.mul_ms": ms(("shares.mul",)),
        "scoring.eval_ms": ms(("scoring.eval_score",)),
        "builder.build_s": build_s,
        "builder.bytes_per_tuple": bytes_per_tuple,
        "leakage.violations": leakage_violations,
        "trace.overhead_frac": lat_traced / lat_untraced - 1.0,
        "trace.coverage": covered / wall if wall else 0.0,
        "trace.spans": len(spans) / n,
        "trace.unattributed_spans": sum(
            1 for sp in tracer.spans if sp.party is None or sp.qid is None
        ),
        "latency.tail_percentile": tail_pct,
        "latency.samples": len(untraced),
        "queries.failed_frac": failed_frac,
    }
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = 1e3 * (
            sum(sp.duration - sp.child for sp in spans
                if sp.layer == layer and sp.kind == "layer")
            + total(f"self.{layer}")
        ) / n
        m[f"{layer}.errors"] = sum(
            v for (_, k), v in counts.items() if k == f"{layer}.errors"
        )
    for op in operators:
        lat = [s.latency for s in untraced if s.op == op]
        m[f"op.{op}.p50_ms"] = 1e3 * statistics.median(lat) if lat else 0.0
    return m


def write_spans(tracer, path) -> None:
    """Every recorded span as one JSON line, times relative to the first."""
    path.parent.mkdir(parents=True, exist_ok=True)
    index = {id(sp): i for i, sp in enumerate(tracer.spans)}
    t0 = min((sp.start for sp in tracer.spans), default=0.0)
    with open(path, "w") as fh:
        for i, sp in enumerate(tracer.spans):
            fh.write(json.dumps({
                "id": i, "name": sp.name, "kind": sp.kind, "party": sp.party,
                "qid": sp.qid, "start_us": round((sp.start - t0) * 1e6),
                "end_us": round((sp.end - t0) * 1e6),
                "parent": index.get(id(sp.parent)) if sp.parent is not None else None,
            }) + "\n")
