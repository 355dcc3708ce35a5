"""The setup pipeline: partition the inverted index by result id, encrypt
posting lists into per-shard TSets, gather per-shard XSets of xtags,
split sort-keys into additive shares, and emit per-server encrypted
databases for both clusters.

Counterpart servers (cluster 0 shard j, cluster 1 shard j) hold identical
TSet/XSet bytes except for the sort-key share field of each tuple.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

from .crypto import (
    CIPHERTEXT_BYTES,
    ELEMENT_BYTES,
    SHARE_MODULUS,
    GroupContext,
    MasterKeyBundle,
    blinding_value,
    encrypt_id,
    hash_to_shard,
    stag_derive,
    term_key,
    xtag_compute,
)
from .graph import SORT_KEY_MAX, SORT_KEY_MIN, PostingList, ranked

__all__ = [
    "PartitionConfig",
    "EncryptedTuple",
    "TSetShard",
    "XSetFilter",
    "EncryptedDatabase",
    "partition",
    "share_sortkeys",
    "build_tset_pair",
    "build_xset",
    "build_edb",
    "emit_edb",
    "load_edb",
    "make_rng",
]

TUPLE_BYTES = 4 + CIPHERTEXT_BYTES + ELEMENT_BYTES  # share | e_id | y


@dataclass(frozen=True)
class PartitionConfig:
    shards_per_cluster: int = 1
    block_size: int = 100
    seed: int | None = None  # of a reproducible test build; None draws from the OS

    def __post_init__(self):
        if self.shards_per_cluster < 1:
            raise ValueError("shards_per_cluster must be >= 1")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")

    def to_dict(self):
        return {
            "shards_per_cluster": self.shards_per_cluster,
            "block_size": self.block_size,
            "shard_hash": "sha256",  # the partition function, hash_to_shard's
            "share_modulus": SHARE_MODULUS,
        }


def make_rng(seed: int, label: bytes = b""):
    """Deterministic byte stream for reproducible test builds: SHA-256 in
    counter mode over the label and the seed. Streams of one seed under
    different labels are unrelated."""
    state = {"counter": 0, "buf": b""}
    seed_bytes = label + struct.pack(">Q", seed & (1 << 64) - 1)

    def draw(n: int) -> bytes:
        while len(state["buf"]) < n:
            block = hashlib.sha256(seed_bytes + struct.pack(">Q", state["counter"])).digest()
            state["counter"] += 1
            state["buf"] += block
        out, state["buf"] = state["buf"][:n], state["buf"][n:]
        return out

    return draw


@dataclass(frozen=True)
class EncryptedTuple:
    sortkey_share: int  # Z_{2^31}, cluster-specific
    e_id: bytes
    y: int  # blinding scalar in Z_n*

    def pack(self) -> bytes:
        return (
            struct.pack(">I", self.sortkey_share)
            + self.e_id
            + self.y.to_bytes(ELEMENT_BYTES, "big")
        )

    @classmethod
    def unpack(cls, data: bytes) -> "EncryptedTuple":
        share = struct.unpack(">I", data[:4])[0]
        e_id = data[4 : 4 + CIPHERTEXT_BYTES]
        y = int.from_bytes(data[4 + CIPHERTEXT_BYTES :], "big")
        return cls(share, e_id, y)


class TSetShard:
    """Key-value map (stag || block counter) -> block of encrypted tuples,
    plus the clear block-counter map that enables parallel block fetches."""

    def __init__(self, block_size: int):
        self.block_size = block_size
        self.blocks: dict[bytes, list[EncryptedTuple]] = {}
        self.counters: dict[bytes, int] = {}

    @staticmethod
    def block_key(stag: bytes, block_index: int) -> bytes:
        return stag + struct.pack(">I", block_index)

    def store(self, stag: bytes, tuples: list[EncryptedTuple]) -> None:
        if not tuples:
            return
        n_blocks = (len(tuples) + self.block_size - 1) // self.block_size
        for b in range(n_blocks):
            chunk = tuples[b * self.block_size : (b + 1) * self.block_size]
            self.blocks[self.block_key(stag, b + 1)] = chunk
        self.counters[stag] = n_blocks

    def retrieve(self, stag: bytes) -> list[EncryptedTuple]:
        count = self.counters.get(stag)
        if count is None:
            return []
        out = []
        for b in range(1, count + 1):
            out.extend(self.blocks[self.block_key(stag, b)])
        return out

    def tuple_count(self) -> int:
        return sum(len(v) for v in self.blocks.values())

    def to_bytes(self) -> bytes:
        parts = [struct.pack(">4sHII", b"PGTS", 1, self.block_size, len(self.counters))]
        for stag in sorted(self.counters):
            parts.append(stag + struct.pack(">I", self.counters[stag]))
        for key in sorted(self.blocks):
            block = self.blocks[key]
            parts.append(key + struct.pack(">H", len(block)))
            parts.extend(tup.pack() for tup in block)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "TSetShard":
        """Strict: a blob cut short, with trailing bytes or with blocks its
        counters do not name raises ValueError."""
        try:
            magic, version, block_size, n_stags = struct.unpack_from(">4sHII", data)
            if magic != b"PGTS" or version != 1:
                raise ValueError("not a TSet blob")
            shard = cls(block_size)
            off = 14
            for _ in range(n_stags):
                stag, count = struct.unpack_from(">16sI", data, off)
                shard.counters[stag] = count
                off += 20
            for _ in range(sum(shard.counters.values())):
                key, n = struct.unpack_from(">20sH", data, off)
                off += 22
                block = []
                for _ in range(n):
                    block.append(EncryptedTuple.unpack(data[off : off + TUPLE_BYTES]))
                    off += TUPLE_BYTES
                shard.blocks[key] = block
        except struct.error:
            raise ValueError("TSet blob truncated") from None
        if off != len(data):  # a tuple cut short, or bytes after the last
            raise ValueError("TSet blob length disagrees with its counts")
        counted = (cls.block_key(s, b) for s, c in shard.counters.items() for b in range(1, c + 1))
        if set(shard.blocks) != set(counted):
            raise ValueError("TSet blob's block keys disagree with its counters")
        return shard


class XSetFilter:
    """The exact set of a shard's xtags, 32-byte x-coordinates. Its blob is
    a magic, a count, then the xtags in ascending byte order: build order
    groups them by term and would show which share a posting list."""

    MAGIC = b"PGXS"

    def __init__(self, xtags):
        self.xtags = frozenset(xtags)

    def contains(self, xtag: bytes) -> bool:
        return xtag in self.xtags

    @property
    def count(self):
        return len(self.xtags)

    def to_bytes(self) -> bytes:
        header = self.MAGIC + struct.pack(">I", len(self.xtags))
        return header + b"".join(sorted(self.xtags))

    @classmethod
    def from_bytes(cls, data: bytes) -> "XSetFilter":
        """Strict: another magic (an XSet of earlier builds was a Bloom
        filter), a length other than its count's, or xtags out of order or
        repeated raise ValueError."""
        if data[:4] != cls.MAGIC:
            raise ValueError("not an XSet blob: rebuild the EDB with this version's setup")
        count = int.from_bytes(data[4:8], "big")
        if len(data) != 8 + ELEMENT_BYTES * count:
            raise ValueError("XSet blob length disagrees with its count")
        xtags = [data[off : off + ELEMENT_BYTES] for off in range(8, len(data), ELEMENT_BYTES)]
        if any(a >= b for a, b in zip(xtags, xtags[1:])):
            raise ValueError("XSet blob's xtags are out of order or repeated")
        return cls(xtags)


def partition(index: dict[str, PostingList], config: PartitionConfig):
    """Split each posting list over shards by hashing on result id.
    Shards are disjoint and their union is the original index."""
    n = config.shards_per_cluster
    shards = [dict() for _ in range(n)]
    for term, plist in index.items():
        for sort_key, eid in plist.entries:
            j = hash_to_shard(eid, n)
            sub = shards[j].get(term)
            if sub is None:
                sub = shards[j][term] = PostingList(term)
            sub.entries.append((sort_key, eid))
    return shards


def share_sortkeys(sort_keys: list[int], rng) -> list[tuple[int, int]]:
    """Split each sort key into two additive shares mod 2^31; the cluster-0
    share is uniform, the cluster-1 share is the difference."""
    out = []
    for key in sort_keys:
        share0 = int.from_bytes(rng(4), "big") % SHARE_MODULUS
        share1 = (key - share0) % SHARE_MODULUS
        out.append((share0, share1))
    return out


def build_tset_pair(
    sub_index: dict[str, PostingList],
    keys: MasterKeyBundle,
    ctx: GroupContext,
    config: PartitionConfig,
    rng,
) -> tuple[TSetShard, TSetShard]:
    """Encrypt one shard's posting lists into the two clusters' TSets.
    e_id and the blinding value y are identical across clusters; only the
    sort-key shares differ."""
    tset0 = TSetShard(config.block_size)
    tset1 = TSetShard(config.block_size)
    for term in sorted(sub_index):
        plist = sub_index[term]
        stag = stag_derive(keys, term)
        k_t = term_key(keys, term)
        # stored ranked, so un-sorted term queries still return a
        # meaningfully ordered list
        entries = ranked(plist.entries)
        shares = share_sortkeys([sk for sk, _ in entries], rng)
        tuples0, tuples1 = [], []
        for c, ((sort_key, eid), (share0, share1)) in enumerate(zip(entries, shares), start=1):
            e_id = encrypt_id(k_t, eid, rng)
            y = blinding_value(keys, ctx, term, c, eid)
            tuples0.append(EncryptedTuple(share0, e_id, y))
            tuples1.append(EncryptedTuple(share1, e_id, y))
        tset0.store(stag, tuples0)
        tset1.store(stag, tuples1)
    return tset0, tset1


def build_xset(
    sub_index: dict[str, PostingList],
    keys: MasterKeyBundle,
    ctx: GroupContext,
) -> XSetFilter:
    return XSetFilter(
        xtag_compute(keys, ctx, term, eid)
        for term, plist in sub_index.items()
        for _, eid in plist.entries
    )


@dataclass
class ShardData:
    tset: TSetShard
    xset: XSetFilter
    manifest: dict = field(default_factory=dict)


@dataclass
class EncryptedDatabase:
    config: PartitionConfig
    clusters: list  # clusters[i][j] -> ShardData

    @property
    def shards_per_cluster(self):
        return self.config.shards_per_cluster


def build_edb(
    index: dict[str, PostingList],
    keys: MasterKeyBundle,
    ctx: GroupContext,
    config: PartitionConfig,
) -> EncryptedDatabase:
    """Both clusters' shards of the index. Its sort keys must lie in
    SORT_KEY_MIN..SORT_KEY_MAX: a sort compares scores in the bits that
    range needs (scoring.score_width). Shares and nonces come from the OS,
    or from the seed's stream under a label of their own, never the keys'."""
    for plist in index.values():
        if any(not SORT_KEY_MIN <= sk <= SORT_KEY_MAX for sk, _ in plist.entries):
            raise ValueError(
                f"{plist.term}: a sort key outside {SORT_KEY_MIN}..{SORT_KEY_MAX}"
            )
    rng = os.urandom if config.seed is None else make_rng(config.seed, b"edb")
    shards = partition(index, config)
    clusters = [[], []]
    for j, sub_index in enumerate(shards):
        tset0, tset1 = build_tset_pair(sub_index, keys, ctx, config, rng)
        xset = build_xset(sub_index, keys, ctx)
        n_entries = sum(len(p) for p in sub_index.values())
        for i, tset in enumerate((tset0, tset1)):
            manifest = {
                "cluster": i,
                "shard": j,
                "config": config.to_dict(),
                "tuple_count": n_entries,
                "xset_count": xset.count,
                "tuple_bytes": TUPLE_BYTES,
            }
            clusters[i].append(ShardData(tset, xset, manifest))
        # both clusters share one XSet object: identical bytes by construction
    return EncryptedDatabase(config, clusters)


def emit_edb(edb: EncryptedDatabase, out_dir) -> None:
    """Write edb/cluster{i}/shard{j}/{tset.bin,xset.bin,manifest.json}."""
    out_dir = Path(out_dir)
    for i in (0, 1):
        for j, shard in enumerate(edb.clusters[i]):
            d = out_dir / f"cluster{i}" / f"shard{j}"
            try:
                d.mkdir(parents=True, exist_ok=True)
                tset_bytes = shard.tset.to_bytes()
                xset_bytes = shard.xset.to_bytes()
                (d / "tset.bin").write_bytes(tset_bytes)
                (d / "xset.bin").write_bytes(xset_bytes)
                manifest = dict(shard.manifest)
                manifest["tset_sha256"] = hashlib.sha256(tset_bytes).hexdigest()
                manifest["xset_sha256"] = hashlib.sha256(xset_bytes).hexdigest()
                manifest["tset_bytes"] = len(tset_bytes)
                manifest["xset_bytes"] = len(xset_bytes)
                shard.manifest = manifest
                (d / "manifest.json").write_text(json.dumps(manifest, indent=2))
            except OSError as exc:
                raise OSError(f"failed writing EDB shard {d}: {exc}") from exc


def load_edb(edb_dir) -> EncryptedDatabase:
    """Strict: each cluster must hold exactly the manifest's shard
    directories, each manifest must name its own directory, and each blob
    must match its checksum and decode, or ValueError is raised."""
    edb_dir = Path(edb_dir)
    first = edb_dir / "cluster0" / "shard0" / "manifest.json"
    if not first.is_file():
        raise ValueError(f"no EDB shards found under {edb_dir}")
    cfg = _field(first, json.loads(first.read_text()), "config")
    n, block_size = (_field(first, cfg, k) for k in ("shards_per_cluster", "block_size"))
    config = PartitionConfig(shards_per_cluster=n, block_size=block_size)
    clusters = [[], []]
    for i in (0, 1):
        cluster_dir = edb_dir / f"cluster{i}"
        found = sorted(p.name for p in cluster_dir.glob("shard*") if p.is_dir())
        if found != sorted(f"shard{j}" for j in range(n)):
            raise ValueError(f"{cluster_dir} holds {found}, its manifest names {n} shards")
        for j in range(n):
            clusters[i].append(_load_shard(cluster_dir / f"shard{j}", i, j))
    return EncryptedDatabase(config, clusters)


def _field(path: Path, record, key: str):
    """record[key] of the manifest at path, or a ValueError naming it."""
    if not isinstance(record, dict) or key not in record:
        raise ValueError(f"{path} has no {key!r}")
    return record[key]


def _load_shard(d: Path, cluster: int, shard: int) -> ShardData:
    path = d / "manifest.json"
    manifest = json.loads(path.read_text())
    named = (_field(path, manifest, "cluster"), _field(path, manifest, "shard"))
    if named != (cluster, shard):
        raise ValueError(f"{path} names cluster {named[0]} shard {named[1]}")
    tset_bytes = (d / "tset.bin").read_bytes()
    xset_bytes = (d / "xset.bin").read_bytes()
    if hashlib.sha256(tset_bytes).hexdigest() != _field(path, manifest, "tset_sha256"):
        raise ValueError(f"checksum mismatch for {d / 'tset.bin'}")
    if hashlib.sha256(xset_bytes).hexdigest() != _field(path, manifest, "xset_sha256"):
        raise ValueError(f"checksum mismatch for {d / 'xset.bin'}")
    return ShardData(
        TSetShard.from_bytes(tset_bytes), XSetFilter.from_bytes(xset_bytes), manifest
    )
