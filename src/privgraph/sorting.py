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
in a tree (_merge_tree) that keeps only the real entries between levels.
Both sorts key on the score with a validity bit below it, 1 for an entry
and 0 for padding, so padding sorts strictly after every real entry, a
real score of 0 included: a local sort's entries are its first k outputs
and each tree node may keep only its own. The network's shape is a
function of the per-shard counts only, which SORT_INIT already publishes,
so the merge leaks nothing a full sort did not.

Both sorts run one session, written once as _garble_session and
_evaluate_session. Its SORT_INIT carries only the sort's per-shard counts,
which both halves already hold, and each half works the sort's shape out
of them by one rule, _layout. The garbler sends all its input bundles in
one GARBLER_LABELS frame (_LOCAL_LABELS, _MERGE_LABELS); the evaluator
takes its own labels by OT, the garbler as extension sender: each sort
function's ot is the pair's OTPair, whose base OT an earlier session may
already have run.

Payload values are 1-based on the wire; 0 marks padding sentinels.
"""

from __future__ import annotations

import functools
import secrets
import struct
import weakref

import numpy as np

from .circuits import (
    MAX_SORT_K,
    SCORE_BITS,
    CircuitBuilder,
    SortCircuit,
    bits_to_int,
    build_sort_circuit,
    int_to_bits,
    padded_size,
)
from .crypto import SHARE_MODULUS
from .garble import GarbledCircuit, decode, evaluate, garble, select_labels
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
# local sort, every shard's count (zeros included) for the merge.
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
    if not 1 <= sum(counts) <= MAX_SORT_K:
        raise TransportError(f"SORT_INIT announces {sum(counts)} entries")
    return counts


# Every sort of one shape and payload width shares one circuit (and so one
# garbling schedule): a local sort's shape is its padded width n, a merge's
# that of its tree, one per padded width for any two runs. A shape's circuit
# lives while a cached SortCircuit holds it.
_networks: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _network(build, shape, payload_width: int):
    """build(shape, payload_width), once per shape while it is in use."""
    key = (build, shape, payload_width)
    circuit = _networks.get(key)
    if circuit is None:
        circuit = _networks.setdefault(key, build(shape, payload_width))
    return circuit


def _sort_network(n: int, payload_width: int):
    return build_sort_circuit(n, payload_width).circuit


@functools.lru_cache(maxsize=32)
def _sort_circuit(counts: tuple[int], payload_width: int) -> SortCircuit:
    (k,) = counts
    n = padded_size(k)
    return SortCircuit(_network(_sort_network, n, payload_width), k, n, payload_width)


def _merge_tree(runs: list[list]):
    """The merge tree over runs, each a list of entries in descending
    order, halved down to single runs. Returns (shape, slots, merged):
    slots are the input slots the tree reads, each an entry or None for a
    sentinel, and merged holds its entries in any order.

    A node merges runs of a and b entries in the padded width m =
    padded_size(a + b), laid out as the left run, m - a - b sentinels,
    then the right run reversed: descending then ascending, a bitonic
    sequence for any split, which one merge stage sorts. Its shape is (m,
    left, right). A child that is a single run is None there, its entries
    being among the node's own slots, so a two-run merge's circuit depends
    on m alone; a subtree is (its shape, a), and its first a outputs enter
    the node. A node's own slots follow its subtrees'."""
    if len(runs) == 1:
        return None, [], runs[0]
    h = (len(runs) + 1) // 2
    left, left_slots, a = _merge_tree(runs[:h])
    right, right_slots, b = _merge_tree(runs[h:])
    m = padded_size(len(a) + len(b))
    own = (a if left is None else []) + [None] * (m - len(a) - len(b))
    own += b[::-1] if right is None else []
    shape = (m, left and (left, len(a)), right and (right, len(b)))
    return shape, left_slots + right_slots + own, a + b


def _merge_plan(runs: list[list]):
    """(shape, slots) of the merge tree over runs. A single run is not
    merged: its shape is its count and its entries are the slots."""
    shape, slots, merged = _merge_tree(runs)
    return (shape, slots) if shape else (len(merged), merged)


def _merge_network(plan, payload_width: int):
    """Global-sort circuit of a merge tree, plan being (its shape, its n
    input slots). Per slot, unmask score = masked XOR mask (free) and key
    it with the validity bit below. Each node is one bitonic merge stage
    and passes on only its real entries. Outputs the payload bits of the
    root's slots (of the single run's, unmerged)."""
    shape, n = plan
    b = CircuitBuilder()
    masked = b.input_bundle("masked_scores", n * SCORE_BITS)
    masks = b.input_bundle("masks", n * SCORE_BITS)
    valid = b.input_bundle("valid", n)
    payloads = b.input_bundle("payloads", n * payload_width)
    slots = iter([
        (
            [valid[e]] + [
                b.xor(masked[e * SCORE_BITS + i], masks[e * SCORE_BITS + i])
                for i in range(SCORE_BITS)
            ],
            payloads[e * payload_width : (e + 1) * payload_width],
        )
        for e in range(n)
    ])

    def merged(node):
        m, left, right = node
        lo = merged(left[0])[: left[1]] if left else []
        hi = merged(right[0])[: right[1]] if right else []
        own = [next(slots) for _ in range(m - len(lo) - len(hi))]
        return b.bitonic_sort(lo + own + hi[::-1], merge=True)

    root = list(slots) if isinstance(shape, int) else merged(shape)
    for _, payload in root:
        b.mark_outputs(payload)
    return b.build()


@functools.lru_cache(maxsize=32)
def build_merge_circuit(counts: tuple[int, ...], payload_width: int) -> SortCircuit:
    """The global-sort circuit merging runs of these counts, the non-empty
    shards' in shard order. Two-run merges of one padded width share one
    circuit."""
    k = sum(counts)
    padded_size(k)  # rejects k outside 1..MAX_SORT_K
    shape, slots = _merge_plan([[None] * count for count in counts])
    circuit = _network(_merge_network, (shape, len(slots)), payload_width)
    return SortCircuit(circuit, k, len(slots), payload_width)


# The garbler's input bundles of each sort, in the order its one
# GARBLER_LABELS frame concatenates their labels. The one circuit input not
# named is the evaluator's own, chosen by OT.
_LOCAL_LABELS = ("garbler_shares", "valid", "payloads")
_MERGE_LABELS = ("masked_scores", "valid", "payloads")


def _layout(build, counts: list[int]):
    """The circuit, entries and slots of a sort over per-shard counts,
    worked out alike by both halves. entries[v - 1] is the (shard, local
    index) that carries payload v = offset[shard] + index + 1, shard-major,
    so the payloads run densely over 1..t in t.bit_length() bits. slots[i]
    is the (shard, rank) whose CONTRIB entry feeds the merge's input slot
    i, or None for a sentinel (_merge_tree); a local sort's one run fills
    its slots in rank order."""
    entries = [(shard, idx) for shard, count in enumerate(counts) for idx in range(count)]
    if not entries:
        raise SortError("nothing to sort")
    runs = [[(shard, r) for r in range(count)] for shard, count in enumerate(counts) if count]
    t = len(entries)
    return build(tuple(map(len, runs)), t.bit_length()), entries, _merge_plan(runs)[1]


def _bits(values, width: int, n: int) -> list[int]:
    """Each value as width little-endian bits, zero-padded to n values."""
    bits = []
    for value in values:
        bits.extend(int_to_bits(value, width))
    return bits + [0] * ((n - len(values)) * width)


def _garble_session(channel, session, counts, sc, bundles, bits, ot, flips=0) -> None:
    """Garbler half of a sort: the SORT_INIT counts, the circuit with flips
    XORed into its decode bits, the labels of the garbler's bits (bundle ->
    bits) in bundles' order, the evaluator's bundle by OT as sender on ot."""
    channel.send(Frame(MSG["SORT_INIT"], session, encode_sort_init(counts)))
    gc, label_map, delta = garble(sc.circuit)
    gc.dec ^= np.asarray(flips, dtype=np.uint8)
    channel.send(Frame(MSG["CIRCUIT_BLOB"], session, gc.to_bytes()))
    labels = [select_labels(label_map[b], delta, bits[b]).tobytes() for b in bundles]
    channel.send(Frame(MSG["GARBLER_LABELS"], session, b"".join(labels)))
    (own,) = label_map.keys() - bits.keys()  # the evaluator's bundle
    zero = label_map[own]
    sender = OTSender(ot, channel, session)
    sender.send_messages([bytes(z) for z in zero], [bytes(o) for o in zero ^ delta])


def _evaluate_session(channel, session, counts, sc, bundles, own_bits, ot) -> np.ndarray:
    """Evaluator half of a sort: checks the SORT_INIT counts against its
    own, reads the circuit and the garbler's labels, takes the labels of
    own_bits by OT as extension receiver on ot, evaluates and returns the
    decoded output bits."""
    if decode_sort_init(channel.expect("SORT_INIT").payload) != counts:
        raise SortError("the garbler's SORT_INIT counts differ from this party's")
    gc = GarbledCircuit.from_bytes(channel.expect("CIRCUIT_BLOB").payload)
    inputs = sc.circuit.inputs
    sizes = [len(inputs[b]) for b in bundles]
    payload = channel.expect("GARBLER_LABELS").payload
    if len(payload) != 16 * sum(sizes):
        raise TransportError(
            f"GARBLER_LABELS: expected {sum(sizes)} labels, got {len(payload)} bytes"
        )
    rows = np.frombuffer(payload, dtype=np.uint8).reshape(1, -1, 16)
    labels = dict(zip(bundles, np.split(rows, np.cumsum(sizes)[:-1], axis=1)))
    (own,) = inputs.keys() - labels.keys()
    received = b"".join(OTReceiver(ot, channel, session).recv_messages(own_bits))
    labels[own] = np.frombuffer(received, dtype=np.uint8).reshape(1, -1, 16)
    return decode(gc, evaluate(sc.circuit, gc, labels))[0]


def local_sort_garbler(
    channel: Channel,
    session: int,
    shares: list[int],
    ot: OTPair,
) -> list[int]:
    """Garbler (cluster 0) side of a local sort. Returns the fresh masks
    R_e of its output positions e < k."""
    sc, _, _ = _layout(_sort_circuit, [len(shares)])
    masks = [secrets.randbelow(SHARE_MODULUS) for _ in range(sc.k)]
    bits = {
        "garbler_shares": _bits(shares, SCORE_BITS, sc.n),
        "valid": _bits([1] * sc.k, 1, sc.n),
        "payloads": _bits(range(1, sc.k + 1), sc.payload_width, sc.n),
    }
    # output e is its score's bits, then its payload's: mask the former
    flips = _bits(masks, SCORE_BITS + sc.payload_width, sc.n)
    _garble_session(channel, session, [sc.k], sc, _LOCAL_LABELS, bits, ot, flips)
    return masks


def local_sort_evaluator(
    channel: Channel,
    session: int,
    shares: list[int],
    ot: OTPair,
) -> tuple[list[int], list[int]]:
    """Evaluator (cluster 1) side. Returns (masked scores, payload order)
    of its k entries, descending by true score, payloads 0-based."""
    sc, _, _ = _layout(_sort_circuit, [len(shares)])
    own_bits = _bits(shares, SCORE_BITS, sc.n)
    bits = _evaluate_session(channel, session, [sc.k], sc, _LOCAL_LABELS, own_bits, ot)
    masked, payloads = sc.decode_outputs(bits)
    return masked[: sc.k], [p - 1 for p in payloads[: sc.k]]


def global_sort_garbler(
    channel: Channel,
    session: int,
    contributions: list[tuple[int, list[int], list[int]]],
    ot: OTPair,
) -> None:
    """Garbler (cluster-1 coordinator) side of the global sort. Each
    shard, empty ones included and in any order, contributes (shard, masked
    scores, local indices) in its CONTRIB (rank) order. Sends everything;
    returns nothing."""
    contributions = sorted(contributions, key=lambda c: c[0])
    if [shard for shard, _, _ in contributions] != list(range(len(contributions))):
        raise SortError("the contributions do not name each shard once")
    counts = [len(masked) for _, masked, _ in contributions]
    sc, entries, slots = _layout(build_merge_circuit, counts)
    payload_of = {entry: value for value, entry in enumerate(entries, 1)}
    fed = {None: (0, 0)}  # (masked score, payload) of each slot's content
    for shard, scores, indices in contributions:
        if sorted(indices) != list(range(len(scores))):
            raise SortError(f"shard {shard}'s indices are not a permutation")
        for rank, (score, idx) in enumerate(zip(scores, indices)):
            fed[shard, rank] = score, payload_of[shard, idx]
    masked, payloads = zip(*(fed[slot] for slot in slots))
    bits = {
        "masked_scores": _bits(masked, SCORE_BITS, sc.n),
        "valid": [int(slot is not None) for slot in slots],
        "payloads": _bits(payloads, sc.payload_width, sc.n),
    }
    _garble_session(channel, session, counts, sc, _MERGE_LABELS, bits, ot)


def global_sort_evaluator(
    channel: Channel,
    session: int,
    masks: list[list[int]],
    ot: OTPair,
) -> list[tuple[int, int]]:
    """Evaluator (cluster-0 coordinator) side: masks holds each shard's
    masks in rank order, by shard, as its MASKS brought them; their counts
    are the shards' result counts. Feeds the masks in by OT and returns
    the global descending order as (shard, local index)."""
    counts = [len(shard_masks) for shard_masks in masks]
    sc, entries, slots = _layout(build_merge_circuit, counts)
    own = [0 if slot is None else masks[slot[0]][slot[1]] for slot in slots]
    bits = _evaluate_session(
        channel, session, counts, sc, _MERGE_LABELS, _bits(own, SCORE_BITS, sc.n), ot
    )
    width = sc.payload_width
    values = (bits_to_int(bits[e : e + width]) for e in range(0, len(bits), width))
    return [entries[value - 1] for value in values if value]
