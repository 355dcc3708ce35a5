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
_evaluate_session; a sort supplies only its circuit, header, input bits
and the layout of its label frames (_LOCAL_FRAMES, _MERGE_FRAMES). The
evaluator takes its own labels by OT, the garbler as extension sender: each
sort function's ot is the pair's OTPair, whose base OT an earlier session
may already have run.

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
    "encode_local_sort_init",
    "decode_local_sort_init",
    "encode_global_sort_init",
    "decode_global_sort_init",
    "decode_sort_init",
    "build_merge_circuit",
    "local_sort_garbler",
    "local_sort_evaluator",
    "global_sort_garbler",
    "global_sort_evaluator",
]

class SortError(Exception):
    pass


# SORT_INIT comes in three forms: an empty payload opens a counterpart
# session, then the garbler announces a local or a global header.
_LOCAL_INIT = struct.Struct(">IIH")  # k, network width n, payload width
_GLOBAL_INIT = struct.Struct(">IIHH")  # t, n, payload width, index bits; t u16 shards
_MAX_INDEX_BITS = (MAX_SORT_K - 1).bit_length()


def _local_payload_width(k: int) -> int:
    return max(k.bit_length(), 1)


def _check_network(k: int, n: int) -> None:
    if not 1 <= k <= MAX_SORT_K or padded_size(k) != n:
        raise TransportError(f"SORT_INIT announces {k} entries in a network of {n}")


def encode_local_sort_init(k: int, n: int, payload_width: int) -> bytes:
    return _LOCAL_INIT.pack(k, n, payload_width)


def decode_local_sort_init(payload: bytes) -> tuple[int, int, int]:
    if len(payload) != _LOCAL_INIT.size:
        raise TransportError(f"local SORT_INIT of {len(payload)} bytes")
    k, n, payload_width = _LOCAL_INIT.unpack(payload)
    _check_network(k, n)
    if payload_width != _local_payload_width(k):
        raise TransportError(f"local SORT_INIT payload width {payload_width} for k={k}")
    return k, n, payload_width


def encode_global_sort_init(
    t: int, n: int, payload_width: int, idx_bits: int, shards: list[int]
) -> bytes:
    return _GLOBAL_INIT.pack(t, n, payload_width, idx_bits) + struct.pack(
        f">{len(shards)}H", *shards
    )


def decode_global_sort_init(payload: bytes):
    """(t, n, payload width, index bits, shard of each entry)."""
    if len(payload) < _GLOBAL_INIT.size:
        raise TransportError("global SORT_INIT shorter than its header")
    t, n, payload_width, idx_bits = _GLOBAL_INIT.unpack_from(payload)
    if len(payload) != _GLOBAL_INIT.size + 2 * t:
        raise TransportError(f"global SORT_INIT of {len(payload)} bytes for {t} entries")
    _check_network(t, n)
    # a payload is ((shard << idx_bits) | index) + 1 with a u16 shard
    if not (1 <= idx_bits <= _MAX_INDEX_BITS and 1 <= payload_width <= idx_bits + 17):
        raise TransportError(
            f"global SORT_INIT widths {payload_width}/{idx_bits} out of range"
        )
    shards = list(struct.unpack_from(f">{t}H", payload, _GLOBAL_INIT.size))
    return t, n, payload_width, idx_bits, shards


def decode_sort_init(payload: bytes):
    """Any SORT_INIT: None for the session opener, else the decoded local
    (3 fields) or global (5 fields) header."""
    if not payload:
        return None
    if len(payload) == _LOCAL_INIT.size:
        return decode_local_sort_init(payload)
    return decode_global_sort_init(payload)


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


# The garbler's label frames of each sort, in sending order, each the
# concatenation of the named input bundles. The one circuit input no frame
# names is the evaluator's own, chosen by OT.
_LOCAL_FRAMES = (
    ("GARBLER_LABELS", ("garbler_shares", "payloads")),
    ("MASK_LABELS", ("mask",)),
)
_MERGE_FRAMES = (("GARBLER_LABELS", ("masked_scores", "payloads")),)


def _bits(values, width: int, n: int) -> list[int]:
    """Each value as width little-endian bits, zero-padded to n values."""
    bits = []
    for value in values:
        bits.extend(int_to_bits(value, width))
    return bits + [0] * ((n - len(values)) * width)


def _garble_session(channel, session, sc, header, frames, bits, ot) -> None:
    """Garbler half of a sort: the SORT_INIT header, the circuit, the
    garbler's labels for bits (bundle -> values) in frames, then the
    evaluator's bundle by OT, as extension sender on ot."""
    channel.send(Frame(MSG["SORT_INIT"], session, header))
    gc, label_map, delta = garble(sc.circuit)
    channel.send(Frame(MSG["CIRCUIT_BLOB"], session, gc.to_bytes()))
    for frame, bundles in frames:
        labels = [select_labels(label_map[b], delta, bits[b]).tobytes() for b in bundles]
        channel.send(Frame(MSG[frame], session, b"".join(labels)))
    (own,) = label_map.keys() - bits.keys()  # the evaluator's bundle
    zero = label_map[own]
    sender = OTSender(ot, channel, session)
    sender.send_messages([bytes(z) for z in zero], [bytes(o) for o in zero ^ delta])


def _evaluate_session(channel, session, sc, frames, own_bits, ot) -> np.ndarray:
    """Evaluator half of a sort, after its SORT_INIT: reads the circuit and
    the label frames, takes the labels of own_bits by OT as extension
    receiver on ot, evaluates and returns the decoded output bits."""
    gc = GarbledCircuit.from_bytes(channel.expect("CIRCUIT_BLOB").payload)
    inputs = sc.circuit.inputs
    labels = {}
    for frame, bundles in frames:
        payload = channel.expect(frame).payload
        sizes = [len(inputs[b]) for b in bundles]
        if len(payload) != 16 * sum(sizes):
            raise TransportError(
                f"{frame}: expected {sum(sizes)} labels, got {len(payload)} bytes"
            )
        rows = np.frombuffer(payload, dtype=np.uint8).reshape(1, -1, 16)
        labels.update(zip(bundles, np.split(rows, np.cumsum(sizes)[:-1], axis=1)))
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
    k = len(shares)
    if k < 1:
        raise SortError("nothing to sort")
    payload_width = _local_payload_width(k)
    sc = _sort_circuit(k, payload_width)
    mask = secrets.randbelow(SHARE_MODULUS)
    bits = {
        "garbler_shares": _bits(shares, SCORE_BITS, sc.n),
        "payloads": _bits(range(1, k + 1), payload_width, sc.n),
        "mask": _bits([mask], SCORE_BITS, 1),
    }
    header = encode_local_sort_init(k, sc.n, payload_width)
    _garble_session(channel, session, sc, header, _LOCAL_FRAMES, bits, ot)
    return mask


def local_sort_evaluator(
    channel: Channel,
    session: int,
    shares: list[int],
    ot: OTPair,
) -> tuple[list[int], list[int]]:
    """Evaluator (cluster 1) side. Returns (masked scores, payload order),
    both descending by true score, sentinels dropped, payloads 0-based."""
    k, n, payload_width = decode_local_sort_init(channel.expect("SORT_INIT").payload)
    if k != len(shares):
        raise SortError(f"garbler announced k={k}, have {len(shares)} shares")
    sc = _sort_circuit(k, payload_width)
    own_bits = _bits(shares, SCORE_BITS, n)
    bits = _evaluate_session(channel, session, sc, _LOCAL_FRAMES, own_bits, ot)
    kept = [(s, p - 1) for s, p in zip(*sc.decode_outputs(bits)) if p]
    return [s for s, _ in kept], [p for _, p in kept]


def _encode_payload(shard: int, index: int, idx_bits: int) -> int:
    return ((shard << idx_bits) | index) + 1


def global_sort_garbler(
    channel: Channel,
    session: int,
    contributions: list[tuple[int, list[int], list[int]]],
    ot: OTPair,
) -> None:
    """Garbler (cluster-1 coordinator) side of the global sort over the
    shards' masked vectors. Sends everything; returns nothing."""
    entries = [  # (shard, masked score, local payload index)
        (shard, score, idx)
        for shard, masked, payloads in contributions
        for score, idx in zip(masked, payloads)
    ]
    t = len(entries)
    if t < 1:
        raise SortError("no entries to merge")
    max_shard = max(shard for shard, _, _ in entries)
    max_index = max(idx for _, _, idx in entries)
    idx_bits = max(max_index.bit_length(), 1)
    payload_width = _encode_payload(max_shard, max_index, idx_bits).bit_length()
    sc = build_merge_circuit(t, payload_width)
    payloads = [_encode_payload(shard, idx, idx_bits) for shard, _, idx in entries]
    bits = {
        "masked_scores": _bits([score for _, score, _ in entries], SCORE_BITS, sc.n),
        "payloads": _bits(payloads, payload_width, sc.n),
    }
    header = encode_global_sort_init(
        t, sc.n, payload_width, idx_bits, [shard for shard, _, _ in entries]
    )
    _garble_session(channel, session, sc, header, _MERGE_FRAMES, bits, ot)


def global_sort_evaluator(
    channel: Channel,
    session: int,
    masks: dict[int, int],
    ot: OTPair,
) -> list[tuple[int, int]]:
    """Evaluator (cluster-0 coordinator) side. Feeds per-shard masks in by
    OT and returns the global descending order as (shard, local index)."""
    t, n, payload_width, idx_bits, shard_of_elem = decode_global_sort_init(
        channel.expect("SORT_INIT").payload
    )
    if not set(shard_of_elem) <= masks.keys():
        raise SortError("merge header names a shard that sent no mask")
    sc = build_merge_circuit(t, payload_width)
    own_bits = _bits([masks[shard] for shard in shard_of_elem], SCORE_BITS, n)
    bits = _evaluate_session(channel, session, sc, _MERGE_FRAMES, own_bits, ot)
    order = []
    for e in range(n):
        value = bits_to_int(bits[e * payload_width : (e + 1) * payload_width])
        if value:
            value -= 1
            order.append((value >> idx_bits, value & ((1 << idx_bits) - 1)))
    return order
