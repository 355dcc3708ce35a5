"""The two garbled-sort protocols between counterpart servers.

Local sort (per shard): the cluster-0 server garbles, the cluster-1
server evaluates. The circuit reconstructs each score from the two
additive shares and sorts descending. The garbler masks output e's score
with a fresh R_e by flipping its decode bits: the evaluator learns the
ranks within its shard and s_e XOR R_e only, the garbler keeps the R_e.

Global sort (coordinators, roles switched): the cluster-1 coordinator
garbles over all shards' masked vectors; the cluster-0 coordinator feeds
the masks in by OT, evaluates, and decodes the global payload order
without ever seeing a score. It merges rather than sorts: each shard's
CONTRIB already arrives in descending order, so two runs laid out as one
descending, then padding, then the other reversed form a bitonic sequence,
which Batcher's bitonic merge sorts in log2 n layers of n/2 comparators
instead of a full sort's log2 n (log2 n + 1) / 2. More runs merge pairwise
in a tree, each node passing on its real entries. In both sorts the
padding lines carry sentinels that sort below every score, a real score of
0 included. Their places are public at every layer, so a comparator one
enters is a fixed wire crossing with no gates (CircuitBuilder.bitonic_sort)
and a sentinel is no circuit input: each sort's inputs are its entries
only. The network's shape is a function of the per-shard counts only,
which SORT_INIT already publishes, so the merge leaks nothing a full sort
did not.

A sorted query with a top_k sorts only its first t = top_k results, t
being public (QUERY_INIT). Each local sort outputs its first min(k, t)
entries, so a shard's MASKS and CONTRIB hold that many; the merge runs
over those truncated runs, each tree node passes on its first t, and the
merge outputs the first t payloads. Its payloads still number the
entries densely over the shards' full counts, which its SORT_INIT
carries. A sort keeps only the gates its kept outputs read
(CircuitBuilder.build), so the cut costs no gate past it.

Both sorts run one session, written once as _garble_session and
_evaluate_session. The garbler speaks first: its SORT_INIT carries only
the sort's per-shard counts, which both halves already hold, and each half
works the sort's shape out of them by one rule, _layout. The evaluator
then takes its own labels by correlated OT, as extension receiver, and
opens the extension at once: it knows its bits before any circuit
exists, so it sends its OT_EXTEND (after the base OT's OT_SETUP on a
pair's first session) before the garbler garbles. Each sort function's ot
is the pair's OTPair, whose base OT an earlier session may already have
run. The garbler reads the extension first; its pads are the zero-labels
of the evaluator's bundle, which garble takes as given. It then answers
in one flight: CIRCUIT_BLOB, the labels of its own input bundles in one
GARBLER_LABELS frame (_LOCAL_LABELS, _MERGE_LABELS), and OT_PAYLOAD, one
16-byte correction per transfer. A bundle that no gate reads and no
output names, such as the scores and masks of a single run's merge, sends
no labels either way.
"""

from __future__ import annotations

import functools
import secrets
import struct
import threading

import numpy as np

from .circuits import (
    MAX_SORT_K,
    CircuitBuilder,
    SortCircuit,
    bits_to_int,
    build_sort_circuit,
    int_to_bits,
    padded_size,
)
from .crypto import SCORE_BITS, SHARE_MODULUS
from .garble import GarbledCircuit, decode, evaluate, garble, level_schedule, select_labels
from .ot import OTPair, OTReceiver, OTSender
from .transport import MSG, Channel, Frame, TransportError

__all__ = [
    "SortError",
    "encode_sort_init",
    "decode_sort_init",
    "build_merge_circuit",
    "local_sort_garbler",
    "local_sort_evaluator",
    "global_sort_garbler",
    "global_sort_evaluator",
]

class SortError(Exception):
    pass


# SORT_INIT: an empty payload opens a counterpart session; the garbler's
# header then holds the sort's per-shard counts, one u32 each: [k] for a
# local sort, every shard's result count (zeros included) for the merge,
# whose runs are the first min(k, t) of them.
_MAX_SHARDS = 1 << 16  # shard numbers are u16 on the wire


def encode_sort_init(counts: list[int]) -> bytes:
    return struct.pack(f">{len(counts)}I", *counts)


def decode_sort_init(payload: bytes) -> list[int] | None:
    """None for the session opener, else the per-shard counts."""
    if not payload:
        return None
    if len(payload) % 4 or len(payload) > 4 * _MAX_SHARDS:
        raise TransportError(f"SORT_INIT of {len(payload)} bytes")
    counts = list(struct.unpack(f">{len(payload) // 4}I", payload))
    if not sum(counts) or max(counts) > MAX_SORT_K:
        raise TransportError(f"SORT_INIT announces counts {counts[:8]}")
    return counts


def _built_once(build):
    """build(counts, t), memoised over the last 32 shapes. Both halves of
    a sort look its shape up at once, in one process; a lookup holds the
    lock while it builds, so they get one circuit and so one level
    schedule (garble.level_schedule). A t that keeps every entry becomes
    None, so a full sort has one shape however its t was given. Shapes
    repeat as far as survivor counts do; a build stamps templates a layer
    at a time, so a miss, build and schedule, costs about one garbling and
    evaluation of its circuit."""
    cached = functools.lru_cache(maxsize=32)(build)
    lock = threading.Lock()

    @functools.wraps(build)
    def lookup(counts, t=None):
        counts = tuple(counts)
        if t is not None and t >= sum(counts):
            t = None
        with lock:
            return cached(counts, t)

    lookup.cache_info = cached.cache_info
    lookup.cache_clear = cached.cache_clear
    return lookup


@_built_once
def _sort_circuit(counts: tuple[int], t: int | None) -> SortCircuit:
    (k,) = counts
    return build_sort_circuit(k, t)


def _merge_network(counts: tuple[int, ...], t: int | None = None) -> SortCircuit:
    """Global-sort circuit merging the first min(count, t) entries of runs
    of these counts, each run's its top ones, and keeping the first t
    outputs (all without t). Its inputs are the entries in shard-major rank
    order, as CONTRIB and MASKS deliver them. Per entry, unmask score =
    masked XOR mask (free). Runs are halved down to single runs; a node
    lays its runs of a and b entries out in width m = padded_size(a + b)
    as the left run, m - a - b sentinels, then the right run reversed, a
    bitonic sequence that one merge stage sorts, and passes on its first t.
    Outputs the payload bits of the first t merged entries, numbered
    densely over all the counts' entries. A single run is already merged:
    its circuit reads no score and no mask."""
    runs = [count if t is None else min(count, t) for count in counts]
    total = sum(runs)
    padded_size(total)  # rejects totals outside 1..MAX_SORT_K
    t = total if t is None else min(t, total)
    pw = sum(counts).bit_length()
    b = CircuitBuilder()
    masked = b.input_bundle("masked_scores", total * SCORE_BITS)
    masks = b.input_bundle("masks", total * SCORE_BITS)
    payloads = np.reshape(b.input_bundle("payloads", total * pw), (total, -1))
    if len(runs) == 1:
        b.mark_outputs(payloads.ravel().tolist())
        return SortCircuit(b.build(), total, t, pw)
    scores = np.reshape([b.xor(x, r) for x, r in zip(masked, masks)], (total, -1))
    entries = iter(np.concatenate([scores, payloads], axis=1))

    def merged(runs):
        if len(runs) == 1:
            return [next(entries) for _ in range(runs[0])]
        h = (len(runs) + 1) // 2
        lo, hi = merged(runs[:h]), merged(runs[h:])
        pad = [None] * (padded_size(len(lo) + len(hi)) - len(lo) - len(hi))
        return b.bitonic_sort(lo + pad + hi[::-1], merge=True)[:t]

    for entry in merged(runs):
        b.mark_outputs(entry[SCORE_BITS:].tolist())
    return SortCircuit(b.build(), total, t, pw)


@_built_once
def build_merge_circuit(counts: tuple[int, ...], t: int | None) -> SortCircuit:
    """The global-sort circuit merging runs of these counts, the non-empty
    shards' in shard order, keeping the first t entries of each and of the
    merge (all without t)."""
    return _merge_network(counts, t)


# The garbler's input bundles of each sort, in the order its one
# GARBLER_LABELS frame concatenates their labels. The one circuit input not
# named is the evaluator's own, chosen by OT.
_LOCAL_LABELS = ("garbler_shares", "payloads")
_MERGE_LABELS = ("masked_scores", "payloads")


def _layout(build, counts: list[int], t: int | None):
    """The circuit and entries of a sort over per-shard counts, keeping
    the first t of each count and of the sort, worked out alike by both
    halves. entries[v] is the (shard, local index) that carries payload v
    = offset[shard] + index, shard-major, so the payloads run densely over
    0..sum(counts)-1 in sum(counts).bit_length() bits."""
    entries = [(shard, idx) for shard, count in enumerate(counts) for idx in range(count)]
    if not entries:
        raise SortError("nothing to sort")
    return build(tuple(count for count in counts if count), t), entries


def _bits(values, width: int) -> list[int]:
    """Each value as width little-endian bits."""
    bits = []
    for value in values:
        bits.extend(int_to_bits(value, width))
    return bits


def _garble_session(channel, session, counts, sc, bundles, bits, ot, flips=0) -> None:
    """Garbler half of a sort: the SORT_INIT counts; then, if the circuit
    reads the evaluator's bundle, the evaluator's extension, as sender on
    ot, whose pads are that bundle's zero-labels; then in one flight the
    circuit with flips XORed into its decode bits, the labels of the
    garbler's bits (bundle -> bits) of the bundles the circuit reads, in
    bundles' order, and the OT's corrections."""
    channel.send(Frame(MSG["SORT_INIT"], session, encode_sort_init(counts)))
    sched, inputs = level_schedule(sc.circuit), sc.circuit.inputs
    (own,) = inputs.keys() - bits.keys()  # the evaluator's bundle
    sender, zero = OTSender(ot, channel, session), {}
    if sched.reads(own):
        zero[own] = sender.extend(len(inputs[own]))
    gc, label_map, delta = garble(sc.circuit, zero=zero)
    gc.dec ^= np.asarray(flips, dtype=np.uint8)
    channel.send(Frame(MSG["CIRCUIT_BLOB"], session, gc.to_bytes()))
    labels = [select_labels(label_map[b], delta, bits[b]).tobytes()
              for b in bundles if sched.reads(b)]
    channel.send(Frame(MSG["GARBLER_LABELS"], session, b"".join(labels)))
    if zero:
        sender.send_messages(zero[own], delta)


def _evaluate_session(channel, session, agree, build, t, bundles, own_bits, ot):
    """Evaluator half of a sort: reads the SORT_INIT counts, which
    agree(counts) checks against this party's own, and works the sort's
    layout out of them (_layout(build, counts, t)); if the circuit reads
    own_bits, opens their extension as receiver on ot before the garbler
    garbles; then reads the circuit, the garbler's labels of the bundles
    the circuit reads and the OT's corrections, evaluates and returns
    (circuit, entries, the decoded output bits). A failure after the
    extension opened drops the pair's receiver state."""
    counts = decode_sort_init(channel.expect("SORT_INIT").payload)
    if counts is None or not agree(counts):
        raise SortError("the garbler's SORT_INIT counts differ from this party's")
    sc, entries = _layout(build, counts, t)
    sched, inputs = level_schedule(sc.circuit), sc.circuit.inputs
    (own,) = inputs.keys() - set(bundles)
    bundles = [b for b in bundles if sched.reads(b)]
    sizes = [len(inputs[b]) for b in bundles]
    with OTReceiver(ot, channel, session) as receiver:
        if sched.reads(own):
            receiver.extend(own_bits)
        gc = GarbledCircuit.from_bytes(channel.expect("CIRCUIT_BLOB").payload)
        payload = channel.expect("GARBLER_LABELS").payload
        if len(payload) != 16 * sum(sizes):
            raise TransportError(
                f"GARBLER_LABELS: expected {sum(sizes)} labels, got {len(payload)} bytes"
            )
        rows = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 16)
        labels = dict(zip(bundles, np.split(rows, np.cumsum(sizes)[:-1])))
        if sched.reads(own):
            labels[own] = receiver.recv_messages()
    return sc, entries, decode(gc, evaluate(sc.circuit, gc, labels))


def local_sort_garbler(
    channel: Channel,
    session: int,
    shares: list[int],
    ot: OTPair,
    t: int | None = None,
) -> list[int]:
    """Garbler (cluster 0) side of a local sort that keeps its first t
    outputs (all without t). Returns the fresh masks R_e of its output
    positions e < min(k, t)."""
    sc, _ = _layout(_sort_circuit, [len(shares)], t)
    masks = [secrets.randbelow(SHARE_MODULUS) for _ in range(sc.t)]
    bits = {
        "garbler_shares": _bits(shares, SCORE_BITS),
        "payloads": _bits(range(sc.k), sc.payload_width),
    }
    # output e is its score's bits, then its payload's: mask the former
    flips = _bits(masks, SCORE_BITS + sc.payload_width)
    _garble_session(channel, session, [sc.k], sc, _LOCAL_LABELS, bits, ot, flips)
    return masks


def local_sort_evaluator(
    channel: Channel,
    session: int,
    shares: list[int],
    ot: OTPair,
    t: int | None = None,
) -> tuple[list[int], list[int]]:
    """Evaluator (cluster 1) side. Returns (masked scores, payload order)
    of its first min(k, t) entries (all k without t), descending by true
    score, payloads 0-based."""
    sc, _, bits = _evaluate_session(
        channel, session, lambda counts: counts == [len(shares)], _sort_circuit, t,
        _LOCAL_LABELS, _bits(shares, SCORE_BITS), ot,
    )
    return sc.decode_outputs(bits)


def global_sort_garbler(
    channel: Channel,
    session: int,
    contributions: list[tuple[int, int, list[int], list[int]]],
    ot: OTPair,
    t: int | None = None,
) -> None:
    """Garbler (cluster-1 coordinator) side of the global sort that keeps
    the first t entries (all without t). Each shard, empty ones included
    and in any order, contributes (shard, its result count k, masked
    scores, local indices) in its CONTRIB (rank) order: its first min(k, t)
    entries. Sends everything; returns nothing."""
    contributions = sorted(contributions, key=lambda c: c[0])
    if [c[0] for c in contributions] != list(range(len(contributions))):
        raise SortError("the contributions do not name each shard once")
    counts = [count for _, count, _, _ in contributions]
    masked, payloads, offset = [], [], 0
    for shard, count, scores, indices in contributions:
        kept = count if t is None else min(count, t)
        if not len(scores) == len(indices) == len(set(indices)) == kept or any(
            not 0 <= idx < count for idx in indices
        ):
            raise SortError(f"shard {shard}'s indices are not {kept} of its {count} entries")
        payloads += [offset + idx for idx in indices]
        masked += scores
        offset += count
    sc, _ = _layout(build_merge_circuit, counts, t)
    bits = {
        "masked_scores": _bits(masked, SCORE_BITS),
        "payloads": _bits(payloads, sc.payload_width),
    }
    _garble_session(channel, session, counts, sc, _MERGE_LABELS, bits, ot)


def global_sort_evaluator(
    channel: Channel,
    session: int,
    masks: list[list[int]],
    ot: OTPair,
    t: int | None = None,
) -> list[tuple[int, int]]:
    """Evaluator (cluster-0 coordinator) side of the global sort that
    keeps the first t entries (all without t): masks holds each shard's
    masks in rank order, by shard, as its MASKS brought them, min(k, t) of
    a shard of k results. The garbler's SORT_INIT gives each shard's k.
    Feeds the masks in by OT and returns the global descending order as
    (shard, local index)."""
    runs = [len(shard_masks) for shard_masks in masks]

    def agree(counts):
        return runs == [count if t is None else min(count, t) for count in counts]

    own = _bits([mask for shard_masks in masks for mask in shard_masks], SCORE_BITS)
    sc, entries, bits = _evaluate_session(
        channel, session, agree, build_merge_circuit, t, _MERGE_LABELS, own, ot
    )
    width, order = sc.payload_width, []
    for e in range(0, len(bits), width):
        payload = bits_to_int(bits[e : e + width])
        if payload >= len(entries):
            raise SortError(f"the merge outputs payload {payload} of {len(entries)} entries")
        order.append(entries[payload])
    return order
