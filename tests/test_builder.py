import json
import shutil
import struct

import pytest

from conftest import BLOOM_XSET_BLOB, key_leaks, random_graph
from privgraph import crypto
from privgraph.builder import (
    SHARE_MODULUS,
    EncryptedTuple,
    PartitionConfig,
    TSetShard,
    XSetFilter,
    build_edb,
    emit_edb,
    load_edb,
    make_rng,
    partition,
    share_sortkeys,
)
from privgraph.cluster import LocalCluster
from privgraph.graph import PlaintextEngine, PostingList, build_inverted_index
from privgraph.sexpr import parse_sexpr


@pytest.fixture
def keys():
    return crypto.MasterKeyBundle(*(bytes([i + 1]) * 16 for i in range(5)))


@pytest.fixture
def ctx():
    return crypto.GroupContext()


class TestPartition:
    def test_single_shard_identity(self):
        index = {"friend:1": PostingList("friend:1", [(10, 2), (20, 3)])}
        shards = partition(index, PartitionConfig(shards_per_cluster=1))
        assert shards[0]["friend:1"].entries == index["friend:1"].entries

    def test_disjoint_union(self):
        graph = random_graph(60, 500, seed=9)
        index = build_inverted_index(graph)
        shards = partition(index, PartitionConfig(shards_per_cluster=3))
        for term, plist in index.items():
            pieces = [set(shards[j].get(term, PostingList(term)).entries) for j in range(3)]
            for a in range(3):
                for b in range(a + 1, 3):
                    assert not pieces[a] & pieces[b]
            assert set.union(*pieces) == set(plist.entries)


class TestShareSortkeys:
    def test_reconstruction(self):
        rng = make_rng(1)
        for key in (0, 1, 42, 100, SHARE_MODULUS - 1):
            ((s0, s1),) = share_sortkeys([key], rng)
            assert (s0 + s1) % SHARE_MODULUS == key

    def test_uniform_marginal(self):
        rng = make_rng(2)
        shares = [s0 for s0, _ in share_sortkeys([42] * 10_000, rng)]
        # chi-square sanity over 16 buckets
        buckets = [0] * 16
        for s in shares:
            buckets[s * 16 // SHARE_MODULUS] += 1
        expected = len(shares) / 16
        chi2 = sum((b - expected) ** 2 / expected for b in buckets)
        assert chi2 < 40  # df=15, p~0.0005 cutoff


class TestTSetShard:
    def test_block_segmentation(self):
        shard = TSetShard(block_size=3)
        tuples = [EncryptedTuple(i, bytes(36), i) for i in range(7)]
        shard.store(b"\x01" * 16, tuples)
        assert shard.counters[b"\x01" * 16] == 3
        sizes = [len(shard.blocks[TSetShard.block_key(b"\x01" * 16, c)]) for c in (1, 2, 3)]
        assert sizes == [3, 3, 1]
        assert shard.retrieve(b"\x01" * 16) == tuples

    def test_unknown_stag_empty(self):
        assert TSetShard(10).retrieve(b"\x02" * 16) == []

    def test_serialization_round_trip(self):
        shard = TSetShard(block_size=2)
        shard.store(b"\x03" * 16, [EncryptedTuple(5, bytes(range(36)), 77)] * 3)
        clone = TSetShard.from_bytes(shard.to_bytes())
        assert clone.to_bytes() == shard.to_bytes()
        assert clone.counters == shard.counters

    def test_cut_or_padded_blob_refused(self):
        # every prefix (the header, a stag entry, a block header or a tuple
        # cut short) and trailing bytes raise ValueError, not struct.error
        shard = TSetShard(block_size=2)
        shard.store(b"\x03" * 16, [EncryptedTuple(5, bytes(range(36)), 77)] * 3)
        shard.store(b"\x04" * 16, [EncryptedTuple(6, bytes(36), 78)])
        blob = shard.to_bytes()
        for n in range(len(blob)):
            with pytest.raises(ValueError, match="TSet blob"):
                TSetShard.from_bytes(blob[:n])
        with pytest.raises(ValueError, match="TSet blob"):
            TSetShard.from_bytes(blob + b"\x00")

    def test_counters_must_name_the_blocks(self):
        shard = TSetShard(block_size=2)
        shard.store(b"\x03" * 16, [EncryptedTuple(5, bytes(36), 7)] * 3)
        blob = bytearray(shard.to_bytes())
        blob[14:30] = b"\x09" * 16  # the counter's stag, not the blocks'
        with pytest.raises(ValueError, match="block keys"):
            TSetShard.from_bytes(bytes(blob))


class TestXSetFilter:
    XTAGS = [bytes([i]) * 32 for i in (7, 3, 9)]

    def test_round_trip(self):
        xset = XSetFilter(self.XTAGS)
        clone = XSetFilter.from_bytes(xset.to_bytes())
        assert clone.xtags == xset.xtags and clone.count == 3
        assert clone.contains(bytes([3]) * 32) and not clone.contains(bytes([4]) * 32)

    def test_empty_set(self):
        blob = XSetFilter([]).to_bytes()
        assert blob == b"PGXS" + bytes(4)
        assert XSetFilter.from_bytes(blob).count == 0

    def test_blob_in_ascending_order_not_build_order(self):
        blob = XSetFilter(self.XTAGS).to_bytes()
        assert blob == b"PGXS" + struct.pack(">I", 3) + b"".join(sorted(self.XTAGS))

    def test_cut_blob_refused(self):
        # every prefix and one trailing byte
        blob = XSetFilter(self.XTAGS).to_bytes()
        for n in range(len(blob)):
            with pytest.raises(ValueError, match="XSet blob"):
                XSetFilter.from_bytes(blob[:n])
        with pytest.raises(ValueError, match="length disagrees"):
            XSetFilter.from_bytes(blob + b"\x00")

    @pytest.mark.parametrize("count", [2, 4])
    def test_count_disagreeing_with_length_refused(self, count):
        blob = bytearray(XSetFilter(self.XTAGS).to_bytes())
        blob[4:8] = struct.pack(">I", count)
        with pytest.raises(ValueError, match="length disagrees"):
            XSetFilter.from_bytes(bytes(blob))

    @pytest.mark.parametrize("order", [(1, 0, 2), (0, 0, 2)], ids=["swapped", "repeated"])
    def test_unsorted_or_repeated_xtags_refused(self, order):
        xtags = sorted(self.XTAGS)
        blob = b"PGXS" + struct.pack(">I", 3) + b"".join(xtags[i] for i in order)
        with pytest.raises(ValueError, match="out of order or repeated"):
            XSetFilter.from_bytes(blob)

    def test_bloom_blob_rejected(self):
        # the Bloom-filter XSet of earlier builds
        with pytest.raises(ValueError, match="rebuild the EDB"):
            XSetFilter.from_bytes(BLOOM_XSET_BLOB)


class TestBuildEdb:
    @pytest.fixture
    def edb_setup(self, keys, ctx):
        graph = random_graph(20, 60, seed=4)
        index = build_inverted_index(graph)
        config = PartitionConfig(shards_per_cluster=2, block_size=3, seed=99)
        return graph, index, build_edb(index, keys, ctx, config), config

    def test_share_reconstruction(self, edb_setup, keys, ctx):
        graph, index, edb, _ = edb_setup
        for j in range(2):
            t0, t1 = edb.clusters[0][j].tset, edb.clusters[1][j].tset
            for stag in t0.counters:
                for a, b in zip(t0.retrieve(stag), t1.retrieve(stag)):
                    key = (a.sortkey_share + b.sortkey_share) % SHARE_MODULUS
                    assert 1 <= key <= 100
                    assert a.e_id == b.e_id and a.y == b.y

    def test_tset_decryption_round_trip(self, edb_setup, keys, ctx):
        graph, index, edb, config = edb_setup
        from privgraph.builder import partition as part

        shards = part(index, config)
        for j in range(2):
            for term, plist in shards[j].items():
                stag = crypto.stag_derive(keys, term)
                k_t = crypto.term_key(keys, term)
                tuples = edb.clusters[0][j].tset.retrieve(stag)
                ids = set(crypto.decrypt_ids(k_t, [t.e_id for t in tuples]))
                assert ids == plist.ids()

    def test_y_cross_check(self, edb_setup, keys, ctx):
        graph, index, edb, config = edb_setup
        term = max(index, key=lambda t: len(index[t]))
        stag = crypto.stag_derive(keys, term)
        k_t = crypto.term_key(keys, term)
        for j in range(2):
            tuples = edb.clusters[0][j].tset.retrieve(stag)
            for c, tup in enumerate(tuples, start=1):
                (eid,) = crypto.decrypt_ids(k_t, [tup.e_id])
                for other in list(index)[:3]:
                    token = crypto.xtoken_compute(keys, ctx, term, c, other)
                    expected = crypto.xtag_compute(keys, ctx, other, eid)
                    assert ctx.exp(crypto.decode_element(token), tup.y) == expected

    def test_counterpart_bytes_identical_modulo_shares(self, edb_setup):
        _, _, edb, _ = edb_setup

        def zero_shares(tset):
            clone = TSetShard.from_bytes(tset.to_bytes())
            for block in clone.blocks.values():
                block[:] = [EncryptedTuple(0, tup.e_id, tup.y) for tup in block]
            return clone.to_bytes()

        for j in range(2):
            t0, t1 = edb.clusters[0][j].tset, edb.clusters[1][j].tset
            assert t0.to_bytes() != t1.to_bytes()
            assert zero_shares(t0) == zero_shares(t1)

    def test_descending_stored_order(self, edb_setup, keys):
        graph, index, edb, config = edb_setup
        t0 = edb.clusters[0][0].tset
        t1 = edb.clusters[1][0].tset
        for stag in t0.counters:
            keys_recovered = [
                (a.sortkey_share + b.sortkey_share) % SHARE_MODULUS
                for a, b in zip(t0.retrieve(stag), t1.retrieve(stag))
            ]
            assert keys_recovered == sorted(keys_recovered, reverse=True)

    @pytest.mark.parametrize("key", [0, 101])
    def test_sort_key_outside_the_schema_refused(self, keys, ctx, key):
        # a sort compares scores in the bits that keys 1..100 need
        # (scoring.score_width), so a key outside them would sort wrongly
        index = {"friend:1": PostingList("friend:1", [(50, 2), (key, 3)])}
        with pytest.raises(ValueError, match=r"friend:1: a sort key outside 1\.\.100"):
            build_edb(index, keys, ctx, PartitionConfig())


class TestKeyStream:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_build_never_reads_the_key_stream(self, ctx, seed):
        # keys drawn from make_rng(seed), then an EDB built with that seed:
        # its shares and nonces come from a stream of their own
        index = build_inverted_index(random_graph(15, 40, seed=6))
        keys = crypto.MasterKeyBundle.generate(make_rng(seed))
        edb = build_edb(index, keys, ctx, PartitionConfig(shards_per_cluster=2, seed=seed))
        blobs = [s.tset.to_bytes() + s.xset.to_bytes() for c in edb.clusters for s in c]
        shares = [t.sortkey_share for s in edb.clusters[0]
                  for block in s.tset.blocks.values() for t in block]
        assert len(shares) == sum(len(p) for p in index.values())
        assert key_leaks(keys, blobs, shares) == []


class TestEmitEdb:
    def test_emit_and_reload(self, keys, ctx, tmp_path):
        graph = random_graph(15, 40, seed=6)
        index = build_inverted_index(graph)
        config = PartitionConfig(shards_per_cluster=2, seed=1)
        edb = build_edb(index, keys, ctx, config)
        emit_edb(edb, tmp_path / "edb")
        loaded = load_edb(tmp_path / "edb")
        for i in (0, 1):
            for j in range(2):
                assert (
                    loaded.clusters[i][j].tset.to_bytes()
                    == edb.clusters[i][j].tset.to_bytes()
                )

    def test_manifest_of_earlier_builds_loads_and_answers(self, keys, ctx, tmp_path):
        # the manifest names the shard hash as builds always have, though
        # it is no longer a setting: an EDB emitted before still loads
        graph = random_graph(15, 40, seed=6)
        index = build_inverted_index(graph)
        edb = build_edb(index, keys, ctx, PartitionConfig(shards_per_cluster=2, seed=3))
        emit_edb(edb, tmp_path / "edb")
        path = tmp_path / "edb" / "cluster1" / "shard1" / "manifest.json"
        assert json.loads(path.read_text())["config"] == {
            "shards_per_cluster": 2,
            "block_size": 100,
            "shard_hash": "sha256",
            "share_modulus": 1 << 31,
        }
        engine = PlaintextEngine(index)
        term = max(index, key=lambda t: len(index[t]))
        with LocalCluster(load_edb(tmp_path / "edb")) as cluster:
            fe = cluster.front_end(keys, lengths=engine.lengths)
            got = fe.query(f"(term {term})", sort=True, top_k=3)
        expected = engine.query(parse_sexpr(f"(term {term})"), sort=True)
        score_of = {eid: sk for sk, eid in expected}
        assert [score_of[eid] for eid in got] == [sk for sk, _ in expected[:3]]

    def test_manifest_counts(self, keys, ctx, tmp_path):
        graph = random_graph(15, 40, seed=6)
        index = build_inverted_index(graph)
        config = PartitionConfig(shards_per_cluster=1)
        edb = build_edb(index, keys, ctx, config)
        emit_edb(edb, tmp_path / "edb")
        manifest = edb.clusters[0][0].manifest
        assert manifest["tuple_count"] == len(graph)

    def test_deterministic_rebuild(self, keys, ctx, tmp_path):
        graph = random_graph(15, 40, seed=6)
        index = build_inverted_index(graph)
        config = PartitionConfig(shards_per_cluster=2, seed=77)
        a = build_edb(index, keys, ctx, config)
        b = build_edb(index, keys, ctx, config)
        for i in (0, 1):
            for j in range(2):
                assert a.clusters[i][j].tset.to_bytes() == b.clusters[i][j].tset.to_bytes()
                assert a.clusters[i][j].xset.to_bytes() == b.clusters[i][j].xset.to_bytes()

    def test_checksum_mismatch_detected(self, keys, ctx, tmp_path):
        graph = random_graph(10, 20, seed=2)
        index = build_inverted_index(graph)
        edb = build_edb(index, keys, ctx, PartitionConfig())
        emit_edb(edb, tmp_path / "edb")
        target = tmp_path / "edb" / "cluster0" / "shard0" / "tset.bin"
        data = bytearray(target.read_bytes())
        data[-1] ^= 0xFF
        target.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="checksum"):
            load_edb(tmp_path / "edb")

    @pytest.fixture
    def emitted(self, keys, ctx, tmp_path):
        index = build_inverted_index(random_graph(15, 40, seed=6))
        emit_edb(build_edb(index, keys, ctx, PartitionConfig(shards_per_cluster=2, seed=1)),
                 tmp_path / "edb")
        return tmp_path / "edb"

    def test_missing_shard_refused(self, emitted):
        # it loaded as [2, 1] shards, and serving cluster 1 shard 1 failed
        # with an IndexError
        shutil.rmtree(emitted / "cluster1" / "shard1")
        with pytest.raises(ValueError, match=r"cluster1 holds \['shard0'\], its manifest names 2"):
            load_edb(emitted)

    def test_manifest_of_another_shard_refused(self, emitted):
        cluster = emitted / "cluster0"
        (cluster / "shard0").rename(cluster / "moved")
        (cluster / "shard1").rename(cluster / "shard0")
        (cluster / "moved").rename(cluster / "shard1")
        with pytest.raises(ValueError, match="names cluster 0 shard 1"):
            load_edb(emitted)

    @pytest.mark.parametrize(
        "path",
        [("config",), ("config", "shards_per_cluster"), ("config", "block_size"),
         ("cluster",), ("shard",), ("tset_sha256",), ("xset_sha256",)],
        ids=lambda path: ".".join(path),
    )
    def test_manifest_without_a_field_refused(self, emitted, path):
        # a ValueError that names the manifest, not a bare KeyError
        manifest = emitted / "cluster0" / "shard0" / "manifest.json"
        fields = json.loads(manifest.read_text())
        record = fields
        for key in path[:-1]:
            record = record[key]
        del record[path[-1]]
        manifest.write_text(json.dumps(fields))
        with pytest.raises(ValueError, match=f"{manifest} has no '{path[-1]}'"):
            load_edb(emitted)

    def test_manifest_that_is_not_an_object_refused(self, emitted):
        manifest = emitted / "cluster1" / "shard0" / "manifest.json"
        manifest.write_text("[]")
        with pytest.raises(ValueError, match=f"{manifest} has no 'cluster'"):
            load_edb(emitted)

    def test_no_plaintext_ids_in_edb_bytes(self, keys, ctx, tmp_path):
        # magic 64-bit id patterns must not leak into emitted bytes
        magic_ids = [0xDEADBEEF00000000 + i for i in range(5)]
        from privgraph.graph import Edge, Graph

        edges = [Edge(magic_ids[0], m, "friend", 10 + i) for i, m in enumerate(magic_ids[1:])]
        index = build_inverted_index(Graph(edges))
        edb = build_edb(index, keys, ctx, PartitionConfig())
        emit_edb(edb, tmp_path / "edb")
        for path in (tmp_path / "edb").rglob("*.bin"):
            blob = path.read_bytes()
            for m in magic_ids:
                assert struct.pack(">Q", m) not in blob
