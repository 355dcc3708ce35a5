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

Payload values are 1-based on the wire; 0 marks padding sentinels.
"""

from __future__ import annotations

import functools
import secrets
import struct

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
from .crypto import SHARE_MODULUS, GroupContext
from .garble import GarbledCircuit, decode, evaluate, garble, select_labels
from .ot import OTReceiver, OTSender
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


@functools.lru_cache(maxsize=32)
def _sort_circuit(k: int, payload_width: int) -> SortCircuit:
    return build_sort_circuit(k, payload_width)


@functools.lru_cache(maxsize=32)
def build_merge_circuit(k: int, payload_width: int) -> SortCircuit:
    """Global-sort circuit: per element, unmask score = masked XOR mask
    (free), bitonic descending sort, output payload bits only."""
    n = padded_size(k)
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
    return SortCircuit(b.build(), k, n, payload_width)


def _share_bits(shares: list[int], n: int) -> list[int]:
    bits = []
    for e in range(n):
        value = shares[e] if e < len(shares) else 0
        bits.extend(int_to_bits(value, SCORE_BITS))
    return bits


def _labels_from(payload: bytes, n_bits: int) -> np.ndarray:
    if len(payload) != 16 * n_bits:
        raise TransportError(f"expected {n_bits} wire labels, got {len(payload)} bytes")
    return np.frombuffer(payload, dtype=np.uint8).reshape(1, n_bits, 16)


def local_sort_garbler(
    channel: Channel,
    session: int,
    shares: list[int],
    ctx: GroupContext,
    rng=None,
) -> int:
    """Garbler (cluster 0) side of a local sort. Returns the mask R."""
    token = rng if rng is not None else secrets.token_bytes
    k = len(shares)
    if k < 1:
        raise SortError("nothing to sort")
    payload_width = _local_payload_width(k)
    sc = _sort_circuit(k, payload_width)
    channel.send(
        Frame(MSG["SORT_INIT"], session, encode_local_sort_init(k, sc.n, payload_width))
    )
    gc, label_map, delta = garble(sc.circuit, token)
    channel.send(Frame(MSG["CIRCUIT_BLOB"], session, gc.to_bytes()))

    g_bits = _share_bits(shares, sc.n)
    p_bits = []
    for e in range(sc.n):
        p_bits.extend(int_to_bits(e + 1 if e < k else 0, payload_width))
    g_labels = select_labels(label_map["garbler_shares"], delta, g_bits)[0]
    p_labels = select_labels(label_map["payloads"], delta, p_bits)[0]
    channel.send(
        Frame(
            MSG["GARBLER_LABELS"],
            session,
            g_labels.tobytes() + p_labels.tobytes(),
        )
    )
    mask = int.from_bytes(token(4), "big") % SHARE_MODULUS
    m_labels = select_labels(label_map["mask"], delta, int_to_bits(mask, SCORE_BITS))[0]
    channel.send(Frame(MSG["MASK_LABELS"], session, m_labels.tobytes()))

    zero = label_map["evaluator_shares"]
    one = zero ^ delta
    sender = OTSender(ctx, channel, session)
    sender.setup()
    sender.send_messages([bytes(z) for z in zero], [bytes(o) for o in one])
    return mask


def local_sort_evaluator(
    channel: Channel,
    session: int,
    shares: list[int],
    ctx: GroupContext,
) -> tuple[list[int], list[int]]:
    """Evaluator (cluster 1) side. Returns (masked scores, payload order),
    both descending by true score, sentinels dropped, payloads 0-based."""
    k, n, payload_width = decode_local_sort_init(channel.expect("SORT_INIT").payload)
    if k != len(shares):
        raise SortError(f"garbler announced k={k}, have {len(shares)} shares")
    sc = _sort_circuit(k, payload_width)
    gc = GarbledCircuit.from_bytes(channel.expect("CIRCUIT_BLOB").payload)

    glabels = channel.expect("GARBLER_LABELS").payload
    g_n = n * SCORE_BITS
    p_n = n * payload_width
    garbler_labels = _labels_from(glabels[: g_n * 16], g_n)
    payload_labels = _labels_from(glabels[g_n * 16 :], p_n)
    mask_labels = _labels_from(channel.expect("MASK_LABELS").payload, SCORE_BITS)

    e_bits = _share_bits(shares, n)
    receiver = OTReceiver(ctx, channel, session)
    receiver.setup()
    own = receiver.recv_messages(e_bits)
    own_labels = np.frombuffer(b"".join(own), dtype=np.uint8).reshape(1, g_n, 16)

    out_labels = evaluate(
        sc.circuit,
        gc,
        {
            "garbler_shares": garbler_labels,
            "evaluator_shares": own_labels,
            "payloads": payload_labels,
            "mask": mask_labels,
        },
    )
    bits = decode(gc, out_labels)[0]
    masked, payloads = sc.decode_outputs(bits)
    out_scores, out_payloads = [], []
    for score, payload in zip(masked, payloads):
        if payload == 0:
            continue
        out_scores.append(score)
        out_payloads.append(payload - 1)
    return out_scores, out_payloads


def _encode_payload(shard: int, index: int, idx_bits: int) -> int:
    return ((shard << idx_bits) | index) + 1


def global_sort_garbler(
    channel: Channel,
    session: int,
    contributions: list[tuple[int, list[int], list[int]]],
    ctx: GroupContext,
    rng=None,
) -> None:
    """Garbler (cluster-1 coordinator) side of the global sort over the
    shards' masked vectors. Sends everything; returns nothing."""
    token = rng if rng is not None else secrets.token_bytes
    entries = []  # (shard, masked score, local payload index)
    max_shard = max_index = 0
    for shard, masked, payloads in contributions:
        for score, idx in zip(masked, payloads):
            entries.append((shard, score, idx))
            max_shard = max(max_shard, shard)
            max_index = max(max_index, idx)
    t = len(entries)
    if t < 1:
        raise SortError("no entries to merge")
    idx_bits = max(max_index.bit_length(), 1)
    payload_width = max(
        _encode_payload(max_shard, max_index, idx_bits).bit_length(), 1
    )
    sc = build_merge_circuit(t, payload_width)
    header = encode_global_sort_init(
        t, sc.n, payload_width, idx_bits, [shard for shard, _, _ in entries]
    )
    channel.send(Frame(MSG["SORT_INIT"], session, header))
    gc, label_map, delta = garble(sc.circuit, token)
    channel.send(Frame(MSG["CIRCUIT_BLOB"], session, gc.to_bytes()))

    m_bits, p_bits = [], []
    for e in range(sc.n):
        if e < t:
            shard, score, idx = entries[e]
            m_bits.extend(int_to_bits(score, SCORE_BITS))
            p_bits.extend(int_to_bits(_encode_payload(shard, idx, idx_bits), payload_width))
        else:
            m_bits.extend([0] * SCORE_BITS)
            p_bits.extend([0] * payload_width)
    m_labels = select_labels(label_map["masked_scores"], delta, m_bits)[0]
    p_labels = select_labels(label_map["payloads"], delta, p_bits)[0]
    channel.send(
        Frame(
            MSG["GARBLER_LABELS"],
            session,
            m_labels.tobytes() + p_labels.tobytes(),
        )
    )
    zero = label_map["masks"]
    one = zero ^ delta
    sender = OTSender(ctx, channel, session)
    sender.setup()
    sender.send_messages([bytes(z) for z in zero], [bytes(o) for o in one])


def global_sort_evaluator(
    channel: Channel,
    session: int,
    masks: dict[int, int],
    ctx: GroupContext,
) -> list[tuple[int, int]]:
    """Evaluator (cluster-0 coordinator) side. Feeds per-shard masks in by
    OT and returns the global descending order as (shard, local index)."""
    t, n, payload_width, idx_bits, shard_of_elem = decode_global_sort_init(
        channel.expect("SORT_INIT").payload
    )
    if not set(shard_of_elem) <= masks.keys():
        raise SortError("merge header names a shard that sent no mask")
    sc = build_merge_circuit(t, payload_width)
    gc = GarbledCircuit.from_bytes(channel.expect("CIRCUIT_BLOB").payload)
    glabels = channel.expect("GARBLER_LABELS").payload
    m_n = n * SCORE_BITS
    p_n = n * payload_width
    masked_labels = _labels_from(glabels[: m_n * 16], m_n)
    payload_labels = _labels_from(glabels[m_n * 16 :], p_n)

    mask_bits = []
    for e in range(n):
        value = masks[shard_of_elem[e]] if e < t else 0
        mask_bits.extend(int_to_bits(value, SCORE_BITS))
    receiver = OTReceiver(ctx, channel, session)
    receiver.setup()
    own = receiver.recv_messages(mask_bits)
    mask_labels = np.frombuffer(b"".join(own), dtype=np.uint8).reshape(1, m_n, 16)

    out_labels = evaluate(
        sc.circuit,
        gc,
        {
            "masked_scores": masked_labels,
            "masks": mask_labels,
            "payloads": payload_labels,
        },
    )
    bits = decode(gc, out_labels)[0]
    order = []
    for e in range(sc.n):
        value = bits_to_int(bits[e * payload_width : (e + 1) * payload_width])
        if value == 0:
            continue
        value -= 1
        order.append((value >> idx_bits, value & ((1 << idx_bits) - 1)))
    return order
