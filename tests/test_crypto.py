import struct

import numpy as np
import pytest
from cryptography.hazmat.primitives.asymmetric import ec
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import off_curve_x, random_graph, scalar_hash
from privgraph import crypto
from privgraph.builder import build_edb, PartitionConfig
from privgraph.graph import build_inverted_index

TEST_KEY = bytes(range(16))


@pytest.fixture
def keys():
    return crypto.MasterKeyBundle(*(bytes([i]) * 16 for i in range(5)))


@pytest.fixture
def ctx():
    return crypto.GroupContext()


class TestPrfExp:
    def test_deterministic(self):
        a = crypto.prf_exp(TEST_KEY, b"friend:1")
        b = crypto.prf_exp(TEST_KEY, b"friend:1")
        assert a == b

    def test_distinct_inputs(self):
        outs = {crypto.prf_exp(TEST_KEY, f"friend:{i}".encode()) for i in range(200)}
        assert len(outs) == 200

    def test_golden_vector(self):
        # frozen when scalars moved to P-256's order; the same two CMAC
        # blocks as the 255-bit draw before it, without its shift
        assert crypto.prf_exp(TEST_KEY, b"friend:1") == int(
            "bb04c7d9f76becd02e65efc122965b028f0bae5f69bc838b4d9656768c6b87f5", 16
        )

    def test_range(self):
        for i in range(50):
            e = crypto.prf_exp(TEST_KEY, f"x{i}".encode())
            assert 0 < e < crypto.GroupContext().n

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            crypto.prf_exp(TEST_KEY, b"")


class TestStag:
    def test_repeat_pattern(self, keys):
        assert crypto.stag_derive(keys, "friend:1") == crypto.stag_derive(keys, "friend:1")

    def test_distinct_terms(self, keys):
        assert crypto.stag_derive(keys, "friend:1") != crypto.stag_derive(keys, "follow:1")

    def test_length(self, keys):
        assert len(crypto.stag_derive(keys, "friend:1")) == 16

    def test_malformed_term(self, keys):
        with pytest.raises(crypto.TermError):
            crypto.stag_derive(keys, "no-colon")
        with pytest.raises(crypto.TermError):
            crypto.stag_derive(keys, "friend:notanumber")


class TestXTagCrossCheck:
    def test_recompute_identical(self, keys, ctx):
        assert crypto.xtag_compute(keys, ctx, "friend:1", 2) == crypto.xtag_compute(
            keys, ctx, "friend:1", 2
        )

    def test_xtoken_blinding_identity(self, keys, ctx):
        # xtoken(t1, c, tl)^{y_c} == xtag(tl, id_c) for matching tuples
        graph = random_graph(10, 5, seed=7)
        for c, edge in enumerate(graph.edges, start=1):
            t1 = f"{edge.edge_type}:{edge.src}"
            tl = f"{edge.edge_type}:{edge.dst}"
            y = crypto.blinding_value(keys, ctx, t1, c, edge.dst)
            token = crypto.decode_element(crypto.xtoken_compute(keys, ctx, t1, c, tl))
            assert ctx.exp(token, y) == crypto.xtag_compute(keys, ctx, tl, edge.dst)

    @settings(max_examples=40, deadline=None)
    @given(
        s_id=st.integers(0, 2**64 - 1),
        x_id=st.integers(0, 2**64 - 1),
        entity_id=st.integers(0, 2**64 - 1),
        counter=st.integers(1, 2**32),
    )
    def test_oxt_identity(self, s_id, x_id, entity_id, counter):
        # [y_c] xtoken(s, c, x) == xtag(x, id_c), for any terms, id and counter
        keys = crypto.MasterKeyBundle(*(bytes([i]) * 16 for i in range(5)))
        ctx = crypto.GroupContext()
        s_term, x_term = f"friend:{s_id}", f"follow:{x_id}"
        y = crypto.blinding_value(keys, ctx, s_term, counter, entity_id)
        token = crypto.xtoken_compute(keys, ctx, s_term, counter, x_term)
        tag = crypto.xtag_compute(keys, ctx, x_term, entity_id)
        assert ctx.exp(crypto.decode_element(token), ctx.key(y)) == tag

    def test_xset_membership(self, keys, ctx):
        graph = random_graph(20, 60, seed=3)
        index = build_inverted_index(graph)
        edb = build_edb(index, keys, ctx, PartitionConfig(shards_per_cluster=1))
        xset = edb.clusters[0][0].xset
        for edge in graph.edges:
            tag = crypto.xtag_compute(keys, ctx, f"{edge.edge_type}:{edge.src}", edge.dst)
            assert xset.contains(tag)
        # the XSet is exact: no non-edge of the graph is a member
        present = {(e.src, e.dst) for e in graph.edges}
        false_members = [
            (u, v)
            for u in range(20)
            for v in range(20)
            if (u, v) not in present
            and xset.contains(crypto.xtag_compute(keys, ctx, f"friend:{u}", v))
        ]
        assert false_members == []

    def test_counter_tokens_distinct(self, keys, ctx):
        t = crypto.xtoken_compute(keys, ctx, "friend:1", 1, "friend:2")
        u = crypto.xtoken_compute(keys, ctx, "friend:1", 2, "friend:2")
        assert t != u


class TestIdEncryption:
    def test_round_trip(self, keys):
        k = crypto.term_key(keys, "friend:1")
        assert crypto.decrypt_ids(k, [crypto.encrypt_id(k, 42), crypto.encrypt_id(k, 7)]) == [42, 7]

    def test_randomised(self, keys):
        k = crypto.term_key(keys, "friend:1")
        assert crypto.encrypt_id(k, 42) != crypto.encrypt_id(k, 42)

    def test_wrong_key(self, keys):
        k1 = crypto.term_key(keys, "friend:1")
        k2 = crypto.term_key(keys, "friend:2")
        ct = crypto.encrypt_id(k1, 42)
        with pytest.raises(crypto.DecryptError):
            crypto.decrypt_ids(k2, [ct])

    def test_tampered(self, keys):
        k = crypto.term_key(keys, "friend:1")
        ct = bytearray(crypto.encrypt_id(k, 42))
        ct[-1] ^= 1
        with pytest.raises(crypto.DecryptError, match="ciphertext 1"):
            crypto.decrypt_ids(k, [crypto.encrypt_id(k, 41), bytes(ct)])


class TestShardHash:
    def test_single_shard(self):
        assert crypto.hash_to_shard(12345, 1) == 0

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            crypto.hash_to_shard(1, 0)

    def test_distribution(self):
        counts = [0, 0, 0]
        for i in range(100_000):
            counts[crypto.hash_to_shard(i, 3)] += 1
        for c in counts:
            assert abs(c / 100_000 - 1 / 3) < 0.05


def _keystore_file(*keys, version=1):
    return b"PGKS" + struct.pack(">H", version) + b"".join(
        struct.pack(">H", len(k)) + k for k in keys
    )


class TestKeystore:
    def test_round_trip(self, keys, tmp_path):
        path = tmp_path / "keys.bin"
        crypto.save_keystore(keys, path)
        assert crypto.load_keystore(path) == keys

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "keys.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(ValueError):
            crypto.load_keystore(path)

    def test_layout(self, tmp_path):
        path = tmp_path / "keys.bin"
        path.write_bytes(_keystore_file(*(bytes([i]) * 16 for i in range(5))))
        assert crypto.load_keystore(path).k_enc == b"\x04" * 16

    @pytest.mark.parametrize(
        "data",
        [
            b"PGKS\x00",  # cut inside the version
            _keystore_file(*[b"k" * 16] * 5)[:-1],  # the last key a byte short
            _keystore_file(*[b"k" * 16] * 5) + b"\x00",  # a trailing byte
            _keystore_file(b"k" * 15, *[b"k" * 16] * 4),  # a short key
            _keystore_file(b"k" * 15, b"k" * 17, *[b"k" * 16] * 3),  # keys of the wrong length
            _keystore_file(*[b"k" * 16] * 5, version=2),
        ],
        ids=["truncated", "short-file", "trailing", "short-key", "wrong-lengths", "version"],
    )
    def test_malformed_rejected(self, tmp_path, data):
        path = tmp_path / "keys.bin"
        path.write_bytes(data)
        with pytest.raises(ValueError):
            crypto.load_keystore(path)


SCALARS = st.integers(1, crypto.ORDER - 1)


class TestGroupContext:
    def test_canonical_encoding(self, ctx):
        elem = ctx.g_exp(12345)
        assert len(elem) == 32
        assert crypto.element_bytes(crypto.decode_element(elem)) == elem

    def test_exp_counter(self, ctx):
        ctx.exp_count = 0
        ctx.g_exp(3)
        ctx.g_exp(4)
        ctx.exp(crypto.decode_element(ctx.g_exp(5)), ctx.key(6))
        assert ctx.exp_count == 4  # three fixed-base, one ECDH; key() is free

    @pytest.mark.parametrize(
        "data",
        [
            off_curve_x(),
            (crypto.FIELD_PRIME).to_bytes(32, "big"),  # x = p
            b"\xff" * 32,  # x > p
            bytes(31),
            bytes(33),
        ],
        ids=["off-curve", "x=p", "x>p", "short", "long"],
    )
    def test_decode_rejects(self, data):
        with pytest.raises(ValueError):
            crypto.decode_element(data)

    @settings(max_examples=30, deadline=None)
    @given(a=SCALARS, b=SCALARS)
    def test_exp_of_g_exp(self, a, b):
        ctx = crypto.GroupContext()
        assert ctx.exp(crypto.decode_element(ctx.g_exp(a)), b) == ctx.g_exp(a * b % ctx.n)

    @settings(max_examples=30, deadline=None)
    @given(a=SCALARS, b=SCALARS)
    def test_both_lifts_agree(self, a, b):
        ctx = crypto.GroupContext()
        x = ctx.g_exp(a)
        lifts = [ec.EllipticCurvePublicKey.from_encoded_point(crypto.CURVE, p + x)
                 for p in (b"\x02", b"\x03")]
        assert ctx.exp(lifts[0], b) == ctx.exp(lifts[1], b)


class TestFixedKeyHash:
    """The batched hash against the scalar π(σ(x) ⊕ i) ⊕ σ(x), one AES
    block call each, under the garbling and the OT key."""

    @pytest.mark.parametrize("key", [b"privgraph-gc-key", b"privgraph-ot-key"])
    def test_batched_equals_scalar(self, key):
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 256, size=(3, 40, 16), dtype=np.uint8)
        tweaks = rng.integers(-(1 << 63), 1 << 63, size=40, dtype=np.int64)
        blocks = crypto.FixedKeyHash.tweaks(tweaks)
        got = crypto.FixedKeyHash(key)(rows.view(crypto.HALVES), blocks).view(np.uint8)
        assert got.shape == rows.shape
        for batch, row_batch in zip(got, rows):
            for out, row, tweak in zip(batch, row_batch, tweaks.view(np.uint64).tolist()):
                assert out.tobytes() == scalar_hash(key, row.tobytes(), tweak)

    def test_equal_rows_at_different_indices_differ(self):
        row = np.frombuffer(bytes(range(16)) * 4, dtype=crypto.HALVES).reshape(4, 2)
        tweaks = crypto.FixedKeyHash.tweaks(np.arange(4))
        pads = crypto.FixedKeyHash(b"privgraph-ot-key")(row, tweaks)
        assert len({p.tobytes() for p in pads}) == 4

    def test_keys_separate_the_uses(self):
        row = np.zeros((1, 2), dtype=crypto.HALVES)
        zero = crypto.FixedKeyHash.tweaks([0])
        a = crypto.FixedKeyHash(b"privgraph-gc-key")(row, zero)
        b = crypto.FixedKeyHash(b"privgraph-ot-key")(row, zero)
        assert a.tobytes() != b.tobytes()
