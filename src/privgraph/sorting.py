"""The two garbled-sort protocols between counterpart servers.

Local sort (per shard): the cluster-0 server garbles, the cluster-1
server evaluates. The circuit reconstructs each score from the two
additive shares, sorts descending, and XORs a session mask R into every
output score; the evaluator learns the payload order and masked scores
only, the garbler keeps R.

Global sort (coordinators, roles switched): the cluster-1 coordinator
garbles over all shards' masked vectors; the cluster-0 coordinator feeds
the masks in by OT, evaluates, and decodes the global payload order
without ever seeing a score.

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


# Every k with one padded width n and payload width shares one circuit (and
# so one garbling schedule); a shape's circuit lives while a cached
# SortCircuit of some k holds it.
_networks: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _network(build, n: int, payload_width: int):
    """build(n, payload_width), once per shape while it is in use."""
    key = (build, n, payload_width)
    circuit = _networks.get(key)
    if circuit is None:
        circuit = _networks.setdefault(key, build(n, payload_width))
    return circuit


def _sort_network(n: int, payload_width: int):
    return build_sort_circuit(n, payload_width).circuit


@functools.lru_cache(maxsize=32)
def _sort_circuit(k: int, payload_width: int) -> SortCircuit:
    n = padded_size(k)
    return SortCircuit(_network(_sort_network, n, payload_width), k, n, payload_width)


def _merge_network(n: int, payload_width: int):
    """Global-sort circuit: per element, unmask score = masked XOR mask
    (free), bitonic descending sort, output payload bits only."""
    b = CircuitBuilder()
    masked = b.input_bundle("masked_scores", n * SCORE_BITS)
    masks = b.input_bundle("masks", n * SCORE_BITS)
    payloads = b.input_bundle("payloads", n * payload_width)
    elems = []
    for e in range(n):
        score = [
            b.xor(masked[e * SCORE_BITS + i], masks[e * SCORE_BITS + i])
            for i in range(SCORE_BITS)
        ]
        elems.append((score, payloads[e * payload_width : (e + 1) * payload_width]))
    for _, payload in b.bitonic_sort(elems):
        b.mark_outputs(payload)
    return b.build()


@functools.lru_cache(maxsize=32)
def build_merge_circuit(k: int, payload_width: int) -> SortCircuit:
    """The global-sort circuit for k entries."""
    n = padded_size(k)
    return SortCircuit(_network(_merge_network, n, payload_width), k, n, payload_width)


# The garbler's input bundles of each sort, in the order its one
# GARBLER_LABELS frame concatenates their labels. The one circuit input not
# named is the evaluator's own, chosen by OT.
_LOCAL_LABELS = ("garbler_shares", "payloads", "mask")
_MERGE_LABELS = ("masked_scores", "payloads")


def _layout(build, counts: list[int]):
    """The circuit and entries of a sort over per-shard counts, worked out
    alike by both halves. The circuit's inputs are shard-major, each
    shard's in its rank (CONTRIB) order, and entries[v - 1] is the (shard,
    local index) that carries payload v = offset[shard] + index + 1: the
    payloads run densely over 1..t in t.bit_length() bits."""
    entries = [(shard, idx) for shard, count in enumerate(counts) for idx in range(count)]
    if not entries:
        raise SortError("nothing to sort")
    t = len(entries)
    return build(t, t.bit_length()), entries


def _bits(values, width: int, n: int) -> list[int]:
    """Each value as width little-endian bits, zero-padded to n values."""
    bits = []
    for value in values:
        bits.extend(int_to_bits(value, width))
    return bits + [0] * ((n - len(values)) * width)


def _garble_session(channel, session, counts, sc, bundles, bits, ot) -> None:
    """Garbler half of a sort: the SORT_INIT counts, the circuit, the
    labels of the garbler's bits (bundle -> bits) in the order of bundles,
    then the evaluator's bundle by OT, as extension sender on ot."""
    channel.send(Frame(MSG["SORT_INIT"], session, encode_sort_init(counts)))
    gc, label_map, delta = garble(sc.circuit)
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
) -> int:
    """Garbler (cluster 0) side of a local sort. Returns the mask R."""
    sc, _ = _layout(_sort_circuit, [len(shares)])
    mask = secrets.randbelow(SHARE_MODULUS)
    bits = {
        "garbler_shares": _bits(shares, SCORE_BITS, sc.n),
        "payloads": _bits(range(1, sc.k + 1), sc.payload_width, sc.n),
        "mask": _bits([mask], SCORE_BITS, 1),
    }
    _garble_session(channel, session, [sc.k], sc, _LOCAL_LABELS, bits, ot)
    return mask


def local_sort_evaluator(
    channel: Channel,
    session: int,
    shares: list[int],
    ot: OTPair,
) -> tuple[list[int], list[int]]:
    """Evaluator (cluster 1) side. Returns (masked scores, payload order),
    both descending by true score, sentinels dropped, payloads 0-based."""
    sc, _ = _layout(_sort_circuit, [len(shares)])
    own_bits = _bits(shares, SCORE_BITS, sc.n)
    bits = _evaluate_session(channel, session, [sc.k], sc, _LOCAL_LABELS, own_bits, ot)
    kept = [(s, p - 1) for s, p in zip(*sc.decode_outputs(bits)) if p]
    return [s for s, _ in kept], [p for _, p in kept]


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
    sc, entries = _layout(build_merge_circuit, counts)
    payload_of = {entry: value for value, entry in enumerate(entries, 1)}
    masked, payloads = [], []
    for shard, scores, indices in contributions:
        if sorted(indices) != list(range(len(scores))):
            raise SortError(f"shard {shard}'s indices are not a permutation")
        masked.extend(scores)
        payloads.extend(payload_of[shard, idx] for idx in indices)
    bits = {
        "masked_scores": _bits(masked, SCORE_BITS, sc.n),
        "payloads": _bits(payloads, sc.payload_width, sc.n),
    }
    _garble_session(channel, session, counts, sc, _MERGE_LABELS, bits, ot)


def global_sort_evaluator(
    channel: Channel,
    session: int,
    counts: list[int],
    masks: list[int],
    ot: OTPair,
) -> list[tuple[int, int]]:
    """Evaluator (cluster-0 coordinator) side: counts and masks hold each
    shard's result count and mask, by shard, as its MASKS brought them.
    Feeds the masks in by OT and returns the global descending order as
    (shard, local index)."""
    sc, entries = _layout(build_merge_circuit, counts)
    own_bits = _bits([masks[shard] for shard, _ in entries], SCORE_BITS, sc.n)
    bits = _evaluate_session(channel, session, counts, sc, _MERGE_LABELS, own_bits, ot)
    width = sc.payload_width
    values = (bits_to_int(bits[e * width : (e + 1) * width]) for e in range(sc.n))
    return [entries[value - 1] for value in values if value]
