"""Shared test hooks and helpers: collect acceptance-criterion verdict
lines and print them once, uncaptured, in the terminal summary; seeded
random graphs and in-process channel pairs; the merge tree's comparators
over the entries' lines; a 0-1-principle check of a comparator schedule;
integers as rows of bits; a scalar reference of the fixed-key hash that
garbling and OT share; garbled evaluation over many input rows, a row at
a time; an x-coordinate that is no point of the group; a LocalCluster's
per-server exponentiation counts and a server's store fingerprint; what
an encrypted store would show of a key bundle; an XSet blob of earlier
builds."""

import hashlib
import random
import socket
import struct

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from privgraph.circuits import odd_even_merge
from privgraph.crypto import SHARE_MODULUS, decode_element
from privgraph.garble import decode, evaluate, select_labels
from privgraph.graph import SORT_KEY_MAX, SORT_KEY_MIN, Edge, Graph
from privgraph.transport import Channel

ACCEPTANCE_LINES: list[str] = []

# an XSet in the Bloom-filter layout of earlier builds: magic, version,
# false-positive rate, item count, bit count, hash count, then the bits
BLOOM_XSET_BLOB = struct.pack(">4sHdQQI", b"PGBF", 2, 1e-6, 3, 87, 20) + bytes(11)


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


def loopback_pair(name: str = "", timeout: float = 30.0) -> tuple[Channel, Channel]:
    """The two ends of an in-process socket pair, each made with timeout."""
    a, b = socket.socketpair()
    return Channel(a, f"{name}:a", timeout), Channel(b, f"{name}:b", timeout)


def merge_tree_schedule(counts) -> list:
    """The comparators (hi, lo) of the merge tree over runs of these
    counts, on the lines of their entries, shard-major: runs halved down
    to single runs, each node an odd-even merge of its two runs' lines
    (sorting._merge_network with every entry kept)."""
    schedule = []

    def merged(lines, counts):
        if len(counts) == 1:
            return lines
        h = (len(counts) + 1) // 2
        split = sum(counts[:h])
        left, right = merged(lines[:split], counts[:h]), merged(lines[split:], counts[h:])
        node, order = odd_even_merge(len(left), len(right))
        both = left + right
        schedule.extend((both[hi], both[lo]) for hi, lo in node)
        return [both[line] for line in order]

    merged(list(range(sum(counts))), list(counts))
    return schedule


def last_comparators(schedule) -> int:
    """How many comparators of a schedule no later comparator follows on
    either line: a merge reads no score past them, so they swap none."""
    later, last = set(), 0
    for hi, lo in reversed(schedule):
        last += hi not in later and lo not in later
        later.update((hi, lo))
    return last


def zero_one_sorted(schedule, order, rows) -> bool:
    """Whether the schedule leaves every row of 0-1 inputs descending when
    its lines are read in order (the 0-1 principle: a comparator network
    that sorts every 0-1 input sorts every input)."""
    rows = np.array(rows, dtype=bool)
    for hi, lo in schedule:
        rows[:, hi], rows[:, lo] = rows[:, hi] | rows[:, lo], rows[:, hi] & rows[:, lo]
    return bool((np.diff(rows[:, order].astype(np.int8), axis=1) <= 0).all())


def bit_rows(values, width: int) -> np.ndarray:
    """Rows of integers as rows of their width little-endian bits, each
    value's bits in turn."""
    values = np.asarray(values, dtype=np.int64)
    return ((values[..., None] >> np.arange(width)) & 1).reshape(len(values), -1).astype(bool)


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


def key_leaks(keys, blobs, cluster0_shares) -> list:
    """What the stored bytes show of the key bundle: every 8-byte window of
    a key found in a blob, and every cluster-0 sort-key share that equals
    a 4-byte word of a key mod 2^31."""
    keys = list(vars(keys).values())
    windows = {k[i : i + 8] for k in keys for i in range(len(k) - 7)}
    words = {int.from_bytes(k[i : i + 4], "big") % SHARE_MODULUS for k in keys for i in range(0, len(k), 4)}
    return [w for w in windows if any(w in blob for blob in blobs)] + sorted(
        set(cluster0_shares) & words
    )
