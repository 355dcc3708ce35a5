import threading

import numpy as np
import pytest

from conftest import loopback_pair
from privgraph.crypto import GroupContext
from privgraph.ot import OTPair, OTReceiver, OTSender
from privgraph.shares import (
    SHARE_MODULUS,
    add,
    dealer_triple_gen,
    mul,
    rec,
    shr,
    sub,
    triple_gen_cot,
)


@pytest.fixture
def rng():
    return np.random.default_rng(17)


def run_two_party(fn0, fn1):
    chan0, chan1 = loopback_pair("mul")
    out = {}
    errors = []

    def run(party, fn, chan):
        try:
            out[party] = fn(chan)
        except Exception as exc:
            errors.append(exc)
            chan.close()  # as IndexServer does: the peer fails at once

    threads = [
        threading.Thread(target=run, args=(0, fn0, chan0)),
        threading.Thread(target=run, args=(1, fn1, chan1)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    for chan in (chan0, chan1):
        chan.close()  # the byte counters stay readable
    if errors:
        raise errors[0]
    return out[0], out[1], chan0


class TestShareAlgebra:
    def test_round_trip_scalar(self, rng):
        for x in (0, 1, 42, SHARE_MODULUS - 1):
            s0, s1 = shr(x, rng)
            assert rec(s0, s1) == x

    def test_round_trip_matrix(self, rng):
        m = rng.integers(0, SHARE_MODULUS, size=(100, 100), dtype=np.int64)
        s0, s1 = shr(m, rng)
        assert np.array_equal(rec(s0, s1), m)

    def test_zero_shares_are_inverses(self, rng):
        s0, s1 = shr(0, rng)
        assert (int(s0.values) + int(s1.values)) % SHARE_MODULUS == 0

    def test_add_no_communication(self, rng):
        a0, a1 = shr(5, rng)
        b0, b1 = shr(7, rng)
        assert rec(add(a0, b0), add(a1, b1)) == 12

    def test_add_wraparound(self, rng):
        a0, a1 = shr(SHARE_MODULUS - 1, rng)
        b0, b1 = shr(1, rng)
        assert rec(add(a0, b0), add(a1, b1)) == 0

    def test_sub(self, rng):
        a0, a1 = shr(5, rng)
        b0, b1 = shr(7, rng)
        assert rec(sub(a0, b0), sub(a1, b1)) == (5 - 7) % SHARE_MODULUS

    def test_dimension_mismatch(self, rng):
        a0, _ = shr(np.zeros(3), rng)
        b0, _ = shr(np.zeros(4), rng)
        with pytest.raises(ValueError):
            add(a0, b0)

    def test_party_mismatch(self, rng):
        a0, a1 = shr(1, rng)
        with pytest.raises(ValueError):
            add(a0, a1)
        with pytest.raises(ValueError):
            rec(a0, a0)

    def test_randomised_add_property(self, rng):
        xs = rng.integers(0, SHARE_MODULUS, size=10_000, dtype=np.int64)
        ys = rng.integers(0, SHARE_MODULUS, size=10_000, dtype=np.int64)
        x0, x1 = shr(xs, rng)
        y0, y1 = shr(ys, rng)
        assert np.array_equal(
            rec(add(x0, y0), add(x1, y1)), np.mod(xs + ys, SHARE_MODULUS)
        )


class TestBeaverMul:
    def _mul_both(self, a, b, t0, t1, rng):
        a0, a1 = shr(a, rng)
        b0, b1 = shr(b, rng)
        r0, r1, chan = run_two_party(
            lambda ch: mul(a0, b0, t0, ch),
            lambda ch: mul(a1, b1, t1, ch),
        )
        return rec(r0, r1), chan

    def test_scalar_product(self, rng):
        t0, t1 = dealer_triple_gen((), seed=1)
        result, _ = self._mul_both(3, 4, t0, t1, rng)
        assert result == 12

    def test_vector_product_oracle(self, rng):
        xs = rng.integers(0, SHARE_MODULUS, size=10_000, dtype=np.int64)
        ys = rng.integers(0, SHARE_MODULUS, size=10_000, dtype=np.int64)
        t0, t1 = dealer_triple_gen((10_000,), seed=2)
        result, chan = self._mul_both(xs, ys, t0, t1, rng)
        assert np.array_equal(result, np.mod(xs * ys, SHARE_MODULUS))
        # exactly one round: one frame each way of |E|+|F| words
        assert chan.bytes_sent == 14 + 2 * 4 * 10_000

    def test_zero_matrix(self, rng):
        t0, t1 = dealer_triple_gen((8,), seed=3)
        result, _ = self._mul_both(np.zeros(8), rng.integers(0, 100, 8), t0, t1, rng)
        assert np.array_equal(result, np.zeros(8))

    def test_triple_single_use(self, rng):
        t0, t1 = dealer_triple_gen((2,), seed=5)
        self._mul_both(np.ones(2), np.ones(2), t0, t1, rng)
        t0.consumed, t1.consumed = False, True
        with pytest.raises(ValueError, match="consumed"):
            self._mul_both(np.ones(2), np.ones(2), t0, t1, rng)

    def test_shape_mismatch(self, rng):
        t0, t1 = dealer_triple_gen((3,), seed=6)
        a0, a1 = shr(np.zeros(4), rng)
        with pytest.raises(ValueError, match="shape"):
            mul(a0, a0, t0, None)


class TestDealerTriples:
    def test_validity(self):
        t0, t1 = dealer_triple_gen((4, 4), seed=7)
        x = np.mod(t0.x + t1.x, SHARE_MODULUS)
        y = np.mod(t0.y + t1.y, SHARE_MODULUS)
        z = np.mod(t0.z + t1.z, SHARE_MODULUS)
        assert np.array_equal(z, np.mod(x * y, SHARE_MODULUS))

    def test_determinism(self):
        a = dealer_triple_gen((5,), seed=8)
        b = dealer_triple_gen((5,), seed=8)
        assert np.array_equal(a[0].x, b[0].x) and np.array_equal(a[1].z, b[1].z)

    def test_scalar_triple_size(self):
        t0, _ = dealer_triple_gen((), seed=10)
        assert t0.x.shape == t0.y.shape == t0.z.shape == ()


class TestCotTriples:
    def _gen(self, shape):
        def party(p):
            def run(chan):
                pair = OTPair(GroupContext())
                return triple_gen_cot(p, shape, OTSender(pair, chan), OTReceiver(pair, chan))

            return run

        t0, t1, _ = run_two_party(party(0), party(1))
        return t0, t1

    def test_scalar_vector_batch(self):
        t0, t1 = self._gen((100,))
        x = np.mod(t0.x + t1.x, SHARE_MODULUS)
        y = np.mod(t0.y + t1.y, SHARE_MODULUS)
        z = np.mod(t0.z + t1.z, SHARE_MODULUS)
        assert np.array_equal(z, np.mod(x * y, SHARE_MODULUS))

    def test_matrix_triple(self):
        t0, t1 = self._gen((4, 4))
        x = np.mod(t0.x + t1.x, SHARE_MODULUS)
        y = np.mod(t0.y + t1.y, SHARE_MODULUS)
        z = np.mod(t0.z + t1.z, SHARE_MODULUS)
        assert z.shape == (4, 4)
        assert np.array_equal(z, np.mod(x * y, SHARE_MODULUS))

    def test_usable_in_mul(self):
        t0, t1 = self._gen((6,))
        rng = np.random.default_rng(23)
        a = rng.integers(0, SHARE_MODULUS, 6, dtype=np.int64)
        b = rng.integers(0, SHARE_MODULUS, 6, dtype=np.int64)
        a0, a1 = shr(a, rng)
        b0, b1 = shr(b, rng)
        r0, r1, _ = run_two_party(
            lambda ch: mul(a0, b0, t0, ch),
            lambda ch: mul(a1, b1, t1, ch),
        )
        assert np.array_equal(rec(r0, r1), np.mod(a * b, SHARE_MODULUS))
