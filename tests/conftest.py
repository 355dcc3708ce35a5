"""Shared test hooks and helpers: collect acceptance-criterion verdict
lines and print them once, uncaptured, in the terminal summary; seeded
random graphs and in-process channel pairs; count the comparators a
sorting network has, and keeps once its sentinels are pruned; a scalar
reference of the fixed-key hash that garbling and OT share; garbled
evaluation over many input rows, a row at a time; an
x-coordinate that is no point of the group; a LocalCluster's per-server
exponentiation counts and a server's store fingerprint."""

import hashlib
import random
import socket

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from privgraph.circuits import bitonic_schedule, padded_size
from privgraph.crypto import decode_element
from privgraph.garble import decode, evaluate, select_labels
from privgraph.graph import SORT_KEY_MAX, SORT_KEY_MIN, Edge, Graph
from privgraph.transport import Channel

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


def random_graph(
    n_nodes: int, n_edges: int, edge_types=("friend",), seed: int = 0
) -> Graph:
    """A random simple directed graph with uniform sort keys."""
    rng = random.Random(seed)
    edges = []
    seen = set()
    attempts = 0
    while len(edges) < n_edges and attempts < n_edges * 50:
        attempts += 1
        src, dst = rng.randrange(n_nodes), rng.randrange(n_nodes)
        etype = rng.choice(edge_types)
        if src == dst or (src, dst, etype) in seen:
            continue
        seen.add((src, dst, etype))
        edges.append(Edge(src, dst, etype, rng.randint(SORT_KEY_MIN, SORT_KEY_MAX)))
    return Graph(edges)


def loopback_pair(name: str = "") -> tuple[Channel, Channel]:
    """The two ends of an in-process socket pair."""
    a, b = socket.socketpair()
    return Channel(a, f"{name}:a"), Channel(b, f"{name}:b")


def comparator_count(n: int) -> int:
    """Comparators of the full bitonic sorter of n = 2^m lines."""
    m = n.bit_length() - 1
    return n * m * (m + 1) // 4


def track_sentinels(real, merge: bool):
    """Walk bitonic_schedule over layouts, rows of booleans that are True
    for an entry and False for a sentinel. A comparator keeps its gates
    only when both inputs are entries; otherwise the entry moves to its
    max side. Returns (comparators kept per row, final layouts)."""
    real = np.array(real, dtype=bool)
    kept = np.zeros(real.shape[:-1], dtype=int)
    for i, l, descending in bitonic_schedule(real.shape[-1], merge):
        hi, lo = (i, l) if descending else (l, i)
        both = real[..., i] & real[..., l]
        real[..., hi] |= real[..., lo]
        real[..., lo] = both
        kept += both
    return kept, real


def merge_tree_comparators(counts) -> int:
    """Comparators kept by the merge tree over runs of these counts: runs
    halved down to single runs, each node merging its two runs' entries
    laid out as the left run, sentinels up to a power of two, then the
    right run. Asserts that each node's sentinels end last."""
    if len(counts) == 1:
        return 0
    h = (len(counts) + 1) // 2
    a, b = sum(counts[:h]), sum(counts[h:])
    m = padded_size(a + b)
    kept, real = track_sentinels([True] * a + [False] * (m - a - b) + [True] * b, merge=True)
    assert real.tolist() == [True] * (a + b) + [False] * (m - a - b)
    return int(kept) + merge_tree_comparators(counts[:h]) + merge_tree_comparators(counts[h:])


def xor(*blocks: bytes) -> bytes:
    out = bytes(len(blocks[0]))
    for block in blocks:
        out = bytes(x ^ y for x, y in zip(out, block))
    return out


def scalar_hash(key: bytes, x: bytes, i: int) -> bytes:
    """H(x, i) = π(σ(x) ⊕ i) ⊕ σ(x) for one 16-byte block, with one AES
    block call: σ(l, r) = (l ⊕ r, l) over the little-endian u64 halves,
    and i XORed into the low half."""
    l, r = int.from_bytes(x[:8], "little"), int.from_bytes(x[8:], "little")
    sigma = (l ^ r).to_bytes(8, "little") + l.to_bytes(8, "little")
    tweaked = (l ^ r ^ i).to_bytes(8, "little") + l.to_bytes(8, "little")
    pi = Cipher(algorithms.AES(key), modes.ECB()).encryptor().update(tweaked)
    return xor(pi, sigma)


def evaluate_rows(circuit, gc, label_map, delta, inputs) -> np.ndarray:
    """The decoded outputs (rows, n_outputs) of the garbled circuit gc for
    each row of input bits, inputs mapping a bundle to (rows, n_bits):
    labels selected, evaluated and decoded a row at a time."""
    rows = len(next(iter(inputs.values())))
    return np.array([
        decode(gc, evaluate(circuit, gc, {
            name: select_labels(label_map[name], delta, bits[row])
            for name, bits in inputs.items()
        }))
        for row in range(rows)
    ])


def off_curve_x() -> bytes:
    """The smallest x-coordinate, as 32 bytes, of no P-256 point."""
    for x in range(1, 100):
        data = x.to_bytes(32, "big")
        try:
            decode_element(data)
        except ValueError:
            return data
    raise AssertionError("every x below 100 is on the curve")


def server_exps(cluster, run):
    """run()'s result, and the group exponentiations each server of the
    LocalCluster spent while it ran, by name."""
    before = {name: s.ctx.exp_count for name, s in cluster.servers.items()}
    result = run()
    return result, {name: s.ctx.exp_count - before[name] for name, s in cluster.servers.items()}


def store_fingerprint(server) -> str:
    """A hash of a server's resident encrypted store."""
    h = hashlib.sha256()
    h.update(server.data.tset.to_bytes())
    h.update(server.data.xset.to_bytes())
    return h.hexdigest()
