"""Bloom filter membership set with a configurable false-positive rate.

Used to hold the canonical encodings of edge-membership tags so servers
can test candidate tags in memory.  Each item probes k distinct bits,
drawn uniformly without replacement from a SHAKE-256 digest of the item.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np

__all__ = ["BloomFilter"]

_VERSION = 2  # version 1 filters used double hashing and probed other positions


class BloomFilter:
    def __init__(self, expected_items: int, fpr: float):
        if not 0.0 < fpr < 1.0:
            raise ValueError("false-positive rate must be in (0, 1)")
        n = max(expected_items, 1)
        self.fpr = fpr
        self.n_bits = max(8, int(math.ceil(-n * math.log(fpr) / (math.log(2) ** 2))))
        self.n_hashes = max(1, round(self.n_bits / n * math.log(2)))
        self.bits = np.zeros((self.n_bits + 7) // 8, dtype=np.uint8)
        self.count = 0

    def _positions(self, item: bytes):
        """k distinct bit positions, drawn without replacement by a partial
        Fisher-Yates shuffle over one SHAKE-256 digest of the item."""
        m, k = self.n_bits, self.n_hashes
        words = struct.unpack(f">{k}Q", hashlib.shake_256(item).digest(8 * k))
        moved: dict[int, int] = {}  # sparse shuffle: index -> position there
        for i, w in enumerate(words):
            j = i + w % (m - i)
            yield moved.get(j, j)
            moved[j] = moved.get(i, i)

    def add(self, item: bytes) -> None:
        for pos in self._positions(item):
            self.bits[pos >> 3] |= 1 << (pos & 7)
        self.count += 1

    def __contains__(self, item: bytes) -> bool:
        return all(self.bits[pos >> 3] & (1 << (pos & 7)) for pos in self._positions(item))

    def to_bytes(self) -> bytes:
        header = struct.pack(
            ">4sHdQQI", b"PGBF", _VERSION, self.fpr, self.count, self.n_bits, self.n_hashes
        )
        return header + self.bits.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "BloomFilter":
        if len(data) < 34:
            raise ValueError("bloom filter blob shorter than its header")
        magic, version, fpr, count, n_bits, n_hashes = struct.unpack(">4sHdQQI", data[:34])
        if magic != b"PGBF":
            raise ValueError("not a bloom filter blob")
        if version != _VERSION:
            raise ValueError(
                f"bloom filter blob version {version}, need {_VERSION}: "
                "its probe positions differ; rebuild the EDB"
            )
        if not 1 <= n_hashes <= n_bits:
            raise ValueError("bloom filter blob needs 1 <= n_hashes <= n_bits")
        obj = cls.__new__(cls)
        obj.fpr = fpr
        obj.count = count
        obj.n_bits = n_bits
        obj.n_hashes = n_hashes
        obj.bits = np.frombuffer(data[34:], dtype=np.uint8).copy()
        if len(obj.bits) != (n_bits + 7) // 8:
            raise ValueError("bloom filter blob truncated")
        return obj
