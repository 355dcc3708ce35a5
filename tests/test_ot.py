import secrets
import sys
import threading

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import loopback_pair, off_curve_x, scalar_hash, xor
from privgraph import ot as ot_mod
from privgraph.crypto import ORDER, GroupContext
from privgraph.garble import select_labels
from privgraph.ot import (
    SHARE_MODULUS,
    OTError,
    OTPair,
    OTReceiver,
    OTSender,
    decode_ot_extend,
    encode_ot_extend,
)
from privgraph.transport import MSG, Frame, Transcript, TransportError


def tamper(chan, msg_name, nth, edit):
    """Rewrite the payload of the nth msg_name frame this endpoint sends."""
    real_send, seen = chan.send, []

    def send(frame):
        if frame.name == msg_name:
            if len(seen) == nth:
                frame = Frame(frame.type, frame.session, edit(frame.payload))
            seen.append(frame)
        real_send(frame)

    chan.send = send


def run_pair(sender_fn, receiver_fn, tampered=None, pairs=None, transcript=None):
    """Drive both OT endpoints on loopback channels, re-raising the first
    error. tampered = (side, frame name, nth, edit) rewrites one frame sent
    by "sender" or "receiver". pairs = (sender's OTPair, receiver's OTPair)
    runs one session of those pairs, which sets up only when the receiver's
    pair has no state; without them each side has a new pair, so the first
    extension sets up. transcript records the frames each side sends."""
    chan_a, chan_b = loopback_pair("ot")
    for chan, party in ((chan_a, "sender"), (chan_b, "receiver")):
        chan.transcript, chan.party = transcript, party
    if tampered is not None:
        side, *how = tampered
        tamper(chan_a if side == "sender" else chan_b, *how)
    sender_pair, receiver_pair = pairs or (OTPair(GroupContext()), OTPair(GroupContext()))
    sender = OTSender(sender_pair, chan_a)
    receiver = OTReceiver(receiver_pair, chan_b)
    out = {}
    errors = []

    def run_sender():
        try:
            out["sender"] = sender_fn(sender)
        except Exception as exc:  # propagated after join
            errors.append(exc)
            chan_a.close()  # the peer fails at once instead of timing out

    def run_receiver():
        try:
            out["receiver"] = receiver_fn(receiver)
        except Exception as exc:
            errors.append(exc)
            chan_b.close()

    threads = [threading.Thread(target=run_sender), threading.Thread(target=run_receiver)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    chan_a.close()
    chan_b.close()
    if errors:
        raise errors[0]
    return out["sender"], out["receiver"]


def _delta(rng):
    """A garbler's offset: 16 random bytes whose permute bit is 1."""
    delta = rng.integers(0, 256, size=16, dtype=np.uint8)
    delta[15] |= 1
    return delta


def _send_labels(s, m, delta):
    """The garbler's half of a label transfer: the extension's pads are
    the zero-labels, which it returns."""
    zero = s.extend(m)
    s.send_messages(zero, delta)
    return zero


def _recv_labels(r, bits):
    r.extend(bits)
    return r.recv_messages()


class TestMessageOT:
    """Correlated label OT through send_messages and recv_messages: the
    evaluator's label of each transfer is the one the garbler's
    select_labels gives for its bit, from one 16-byte correction a
    transfer."""

    @staticmethod
    def _check(m, salt, bits=None):
        rng = np.random.default_rng(salt)
        delta = _delta(rng)
        if bits is None:
            bits = [int(b) for b in rng.integers(0, 2, size=m)]
        transcript = Transcript()
        zero, got = run_pair(
            lambda s: _send_labels(s, m, delta),
            lambda r: _recv_labels(r, bits),
            transcript=transcript,
        )
        assert zero.shape == got.shape == (m, 16)
        assert np.array_equal(got, select_labels(zero, delta, bits))
        # never the label of the other bit
        other = select_labels(zero, delta, [1 - b for b in bits])
        assert not np.any(np.all(got == other, axis=1))
        (payload,) = _sent(transcript, "sender", "OT_PAYLOAD")
        assert len(payload.payload) == 16 * m

    @settings(max_examples=25, deadline=None, database=None)
    @given(
        m=st.one_of(st.just(1), st.integers(1, 40).map(lambda i: 8 * i), st.integers(2, 330)),
        salt=st.integers(0, 2**32 - 1),
    )
    @example(m=256, salt=2)
    def test_choice_selects_message(self, m, salt):
        self._check(m, salt)

    def test_single_transfer(self):
        self._check(1, 0, [1])

    def test_non_multiple_of_eight(self):
        self._check(13, 1, [i % 2 for i in range(13)])


class TestCorrelatedOT:
    def test_correlation_holds(self):
        n = 500
        deltas = [secrets.randbelow(SHARE_MODULUS) for _ in range(n)]
        bits = [secrets.randbelow(2) for _ in range(n)]
        vs, ws = run_pair(
            lambda s: s.send_correlated(deltas),
            lambda r: r.recv_correlated(bits),
        )
        for v, w, b, d in zip(vs, ws, bits, deltas):
            assert w == (v + b * d) % SHARE_MODULUS

    def test_zero_choice_gets_pad(self):
        deltas = [12345] * 8
        vs, ws = run_pair(
            lambda s: s.send_correlated(deltas),
            lambda r: r.recv_correlated([0] * 8),
        )
        assert vs == ws

    def test_sequential_batches_on_one_session(self):
        def sender_fn(s):
            a = s.send_correlated([10] * 16)
            b = s.send_correlated([20] * 16)
            return a, b

        def receiver_fn(r):
            a = r.recv_correlated([1] * 16)
            b = r.recv_correlated([1] * 16)
            return a, b

        (va, vb), (wa, wb) = run_pair(sender_fn, receiver_fn)
        assert all((w - v) % SHARE_MODULUS == 10 for v, w in zip(va, wa))
        assert all((w - v) % SHARE_MODULUS == 20 for v, w in zip(vb, wb))

    def test_extensions_draw_fresh_prg_output(self):
        # each OT_EXTEND row is G(k0) ^ G(k1) ^ r for one seed pair: were the
        # PRG output reused, two extensions would XOR to r_a ^ r_b in every row
        m = 64
        bits_a = [secrets.randbelow(2) for _ in range(m)]
        bits_b = [secrets.randbelow(2) for _ in range(m)]
        extends = []

        def receiver_fn(r):
            real_send = r.channel.send

            def send(frame):
                if frame.name == "OT_EXTEND":
                    extends.append(decode_ot_extend(frame.payload)[3])
                real_send(frame)

            r.channel.send = send
            return r.recv_correlated(bits_a), r.recv_correlated(bits_b)

        (va, vb), (wa, wb) = run_pair(
            lambda s: (s.send_correlated([10] * m), s.send_correlated([20] * m)),
            receiver_fn,
        )
        assert all(w == (v + b * 10) % SHARE_MODULUS for v, w, b in zip(va, wa, bits_a))
        assert all(w == (v + b * 20) % SHARE_MODULUS for v, w, b in zip(vb, wb, bits_b))
        r_xor = bytes(np.packbits(np.array(bits_a, dtype=np.uint8) ^ np.array(bits_b, dtype=np.uint8)))
        mb = m // 8
        rows = [
            bytes(x ^ y for x, y in zip(extends[0][j * mb : (j + 1) * mb],
                                        extends[1][j * mb : (j + 1) * mb]))
            for j in range(128)
        ]
        assert not any(row == r_xor for row in rows)


class TestErrors:
    def test_pads_before_setup(self):
        # an extension on a state that was never set up is refused
        chan_a, chan_b = loopback_pair("ot")
        sender = OTSender(OTPair(GroupContext()), chan_a)
        chan_b.send(Frame(MSG["OT_EXTEND"], 0, encode_ot_extend(b"\0" * 8, 0, 4, bytes(128))))
        try:
            with pytest.raises(OTError, match="unknown"):
                sender.extend(4)
        finally:
            chan_a.close()
            chan_b.close()

    def test_ot_error_is_transport_error(self):
        assert issubclass(OTError, TransportError)


def _labels4(s):
    return _send_labels(s, 4, _delta(np.random.default_rng(4)))


def _recv4(r):
    return _recv_labels(r, [1] * 4)


def _correlated(s):
    return s.send_correlated([7] * 4)


class TestTruncatedFrames:
    """Every OT frame is checked for its exact length before it is sliced;
    a short one fails the party that reads it with OTError."""

    @pytest.mark.parametrize(
        "tampered,sender_fn,receiver_fn",
        [
            # the base-OT sender's point A: 33 bytes
            (("receiver", "OT_SETUP", 0, lambda p: p[:-1]), _labels4, _recv4),
            # A that is no point encoding
            (("receiver", "OT_SETUP", 0, lambda p: bytes(len(p))), _labels4, _recv4),
            # the base-OT receiver's reply: 128 points of 33 bytes
            (("sender", "OT_SETUP", 0, lambda p: p[:-33]), _labels4, _recv4),
            # the base-OT ciphertexts: 256 of 16 bytes
            (("receiver", "OT_SETUP", 1, lambda p: p[:-16]), _labels4, _recv4),
            # the extension matrix: 128 rows of ceil(m / 8) bytes
            (("receiver", "OT_EXTEND", 0, lambda p: p[:-1]), _labels4, _recv4),
            # label corrections: 16 bytes per transfer
            (("sender", "OT_PAYLOAD", 0, lambda p: p[:40]), _labels4, _recv4),
            # correlated payload: 4 bytes per transfer
            (("sender", "OT_PAYLOAD", 0, lambda p: p[:-1]), _correlated,
             lambda r: r.recv_correlated([1] * 4)),
        ],
        ids=["setup-point", "setup-not-element", "setup-reply", "setup-ciphertexts",
             "extend", "payload-messages", "payload-correlated"],
    )
    def test_short_frame_rejected(self, tampered, sender_fn, receiver_fn):
        with pytest.raises(OTError):
            run_pair(sender_fn, receiver_fn, tampered)


def _g(e: int):
    """[e]G in affine coordinates through OpenSSL, None for e = 0 mod n."""
    e %= ORDER
    return ot_mod._affine(GroupContext.key(e).public_key()) if e else None


class TestBaseOTPoints:
    """The base OT's points: every one received is validated by OpenSSL,
    and the affine arithmetic agrees with it."""

    @settings(max_examples=40, deadline=None)
    @given(a=st.integers(1, ORDER - 1), b=st.integers(1, ORDER - 1))
    @example(a=5, b=5)  # a doubling, and a difference at infinity
    @example(a=1, b=ORDER - 1)  # a sum at infinity
    def test_add_and_sub_agree_with_openssl(self, a, b):
        assert ot_mod._add(_g(a), _g(b)) == _g(a + b)
        assert ot_mod._sub(_g(a), _g(b)) == _g(a - b)

    @pytest.mark.parametrize(
        "tampered",
        [
            ("receiver", "OT_SETUP", 0, lambda p: b"\x02" + off_curve_x()),  # A
            ("sender", "OT_SETUP", 0, lambda p: b"\x03" + off_curve_x() + p[33:]),  # a B
        ],
        ids=["A", "B"],
    )
    def test_off_curve_point_rejected(self, tampered):
        with pytest.raises(OTError, match="P-256"):
            run_pair(_labels4, _recv4, tampered)

    def test_b_equal_to_a_rejected(self):
        # B - A would be the point at infinity
        transcript = Transcript()

        def b_is_a(payload):
            big_a = _sent(transcript, "receiver", "OT_SETUP")[0].payload
            return payload[:33] + big_a + payload[66:]

        with pytest.raises(OTError, match="infinity"):
            run_pair(_labels4, _recv4,
                     ("sender", "OT_SETUP", 0, b_is_a), transcript=transcript)


def _sent(transcript, party, name):
    return [f for p, d, f in transcript.entries if p == party and d == "send" and f.name == name]


def _labels_session(pairs, n, seed, transcript=None, tampered=None):
    """One label-OT session on pairs; asserts each label is the one the
    garbler's select_labels gives for its bit."""
    rng = np.random.default_rng(seed)
    delta = _delta(rng)
    bits = [int(b) for b in rng.integers(0, 2, size=n)]
    zero, got = run_pair(
        lambda s: _send_labels(s, n, delta),
        lambda r: _recv_labels(r, bits),
        tampered=tampered, pairs=pairs, transcript=transcript,
    )
    assert np.array_equal(got, select_labels(zero, delta, bits))


def _rewrite_block(block):
    def edit(payload):
        state_id, _, m, u = decode_ot_extend(payload)
        return encode_ot_extend(state_id, block, m, u)

    return edit


class TestPairState:
    """One base OT per pair: later sessions only extend it, each on a
    fresh range that the sender checks."""

    def _pairs(self):
        return OTPair(GroupContext(), timeout=10.0), OTPair(GroupContext(), timeout=10.0)

    def test_later_sessions_only_extend(self):
        pairs = self._pairs()
        transcript = Transcript()
        _labels_session(pairs, 40, 1, transcript)
        exps = [pair.ctx.exp_count for pair in pairs]
        for i, n in enumerate((300, 13, 1)):
            _labels_session(pairs, n, 2 + i, transcript)
        assert [pair.ctx.exp_count for pair in pairs] == exps
        assert len(_sent(transcript, "receiver", "OT_SETUP")) == 2  # A, then the ciphertexts
        headers = [decode_ot_extend(f.payload) for f in _sent(transcript, "receiver", "OT_EXTEND")]
        assert len({h[0] for h in headers}) == 1
        assert [h[1] for h in headers] == [0, 1, 4, 5]

    def test_concurrent_sessions_get_disjoint_ranges(self):
        pairs = self._pairs()
        transcript = Transcript()
        errors = []

        def session(i):
            try:
                _labels_session(pairs, 20 + 37 * i, 100 + i, transcript)
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=session, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(_sent(transcript, "receiver", "OT_SETUP")) == 2  # one set-up in all
        headers = [decode_ot_extend(f.payload) for f in _sent(transcript, "receiver", "OT_EXTEND")]
        assert len(headers) == 8 and len({h[0] for h in headers}) == 1
        spans = sorted((h[1], h[1] + -(-h[2] // 128)) for h in headers)
        assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))

    @pytest.mark.parametrize("block", [0, 1], ids=["replayed", "blocks-overlap"])
    def test_used_range_rejected_and_state_rebuilt(self, block):
        pairs = self._pairs()
        _labels_session(pairs, 200, 1)  # blocks 0 and 1
        with pytest.raises(OTError, match="already used"):
            _labels_session(pairs, 200, 2, tampered=("receiver", "OT_EXTEND", 0,
                                                        _rewrite_block(block)))
        assert pairs[1]._state is None  # the failed receiver dropped its state
        transcript = Transcript()
        _labels_session(pairs, 40, 3, transcript)
        assert len(_sent(transcript, "receiver", "OT_SETUP")) == 2

    def test_unknown_state_fails_once_then_rebuilds(self):
        # a restarted sender has lost every state its counterpart set up
        _, receiver_pair = pairs = self._pairs()
        _labels_session(pairs, 16, 1)
        restarted = (OTPair(GroupContext(), timeout=10.0), receiver_pair)
        with pytest.raises(OTError, match="unknown"):
            _labels_session(restarted, 16, 2)
        assert receiver_pair._state is None
        transcript = Transcript()
        _labels_session(restarted, 16, 3, transcript)
        assert len(_sent(transcript, "receiver", "OT_SETUP")) == 2
        _labels_session(restarted, 16, 4)

    def test_waits_for_a_set_up_in_flight(self):
        sender_pair = OTPair(GroupContext(), timeout=10.0)
        state_id = b"\x01" * 8
        sender_pair._begin(state_id)
        state = ot_mod._SenderState([0] * 128, [bytes(16)] * 128)
        threading.Timer(0.2, sender_pair._end, args=(state_id, state)).start()
        assert sender_pair._claim(state_id, 0, 8) is state
        with pytest.raises(OTError, match="already used"):
            sender_pair._claim(state_id, 0, 8)

    def test_set_up_in_flight_that_fails(self):
        sender_pair = OTPair(GroupContext(), timeout=10.0)
        sender_pair._begin(b"\x02" * 8)
        threading.Timer(0.2, sender_pair._end, args=(b"\x02" * 8, None)).start()
        with pytest.raises(OTError, match="unknown"):
            sender_pair._claim(b"\x02" * 8, 0, 8)


def _ctr_stream(seed, n, block):
    """Reference: n bytes of a seed's AES-CTR stream from the given block on."""
    enc = Cipher(algorithms.AES(seed), modes.CTR(block.to_bytes(16, "big"))).encryptor()
    return enc.update(bytes(n))


class TestVectorised:
    """The cached key schedules and the numpy loops give the bytes and
    values of the per-element formulas they replaced."""

    def test_cached_schedules_equal_ctr_stream(self):
        rng = np.random.default_rng(7)
        seeds = [rng.bytes(16) for _ in range(5)]
        cached = ot_mod._Seeds(seeds)
        for _ in range(40):
            n = int(rng.integers(1, 700))
            block = int(rng.integers(0, 1 << 63)) * int(rng.integers(0, 3))
            got = cached.expand(n, block)
            assert got.shape == (5, n)
            for seed, row in zip(seeds, got):
                assert row.tobytes() == _ctr_stream(seed, n, block)
        near_wrap = (1 << 64) - 2  # the counter carries out of its low 64 bits
        assert cached.expand(64, near_wrap)[0].tobytes() == _ctr_stream(seeds[0], 64, near_wrap)

    @pytest.mark.parametrize(
        "reads",
        [
            [(16, b) for b in range(3 * ot_mod.WINDOW_BLOCKS + 1)],
            [(16, 9), (40, 11), (16, 2), (16, 12)],  # block 2 lies behind the window
            [(16 * ot_mod.WINDOW_BLOCKS + 1, 0), (700, 3), (16, 1)],
            [(16, (1 << 64) - 3), (64, (1 << 64) - 2), (16, (1 << 64) + 5)],
        ],
        ids=["across-window-ends", "behind-window", "wider-than-window", "near-wrap"],
    )
    def test_windowed_reads_equal_ctr_stream(self, reads):
        rng = np.random.default_rng(9)
        seeds = [rng.bytes(16) for _ in range(3)]
        cached = ot_mod._Seeds(seeds)
        for n, block in reads:
            got = cached.expand(n, block)
            assert got.shape == (3, n) and not got.flags.writeable
            for seed, row in zip(seeds, got):
                assert row.tobytes() == _ctr_stream(seed, n, block)

    def test_one_aes_call_per_window(self):
        # consecutive one-block extensions read each seed's stream once a
        # window, not once an extension
        class Counting:
            def __init__(self, enc):
                self.enc, self.calls = enc, 0

            def update(self, data):
                self.calls += 1
                return self.enc.update(data)

        seeds = [bytes([i]) * 16 for i in range(4)]
        cached = ot_mod._Seeds(seeds)
        cached._encryptors = [Counting(enc) for enc in cached._encryptors]
        n_ext = 50
        views = [cached.expand(16, block) for block in range(n_ext)]
        for block, view in enumerate(views):  # earlier views never change
            assert view[0].tobytes() == _ctr_stream(seeds[0], 16, block)
        bound = -(-n_ext // ot_mod.WINDOW_BLOCKS) + 1
        assert all(enc.calls <= bound for enc in cached._encryptors)

    def test_shared_row_hash_under_threads(self):
        # every session's thread hashes on the module's one cipher context
        rng = np.random.default_rng(10)
        jobs = [
            (rng.integers(0, 256, size=(64, 16), dtype=np.uint8), int(rng.integers(0, 1 << 40)))
            for _ in range(8)
        ]
        barrier = threading.Barrier(len(jobs))
        results: list = [None] * len(jobs)

        def run(i):
            rows, block = jobs[i]
            barrier.wait(timeout=30)
            results[i] = [ot_mod._hash_rows(rows, block) for _ in range(50)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for (rows, block), pads_list in zip(jobs, results):
            want = [scalar_hash(b"privgraph-ot-key", row.tobytes(), 128 * block + j)
                    for j, row in enumerate(rows)]
            for pads in pads_list:
                assert [pad.tobytes() for pad in pads] == want

    @pytest.mark.parametrize("block", [0, 5, ot_mod._MAX_BLOCK - 1])
    def test_row_pads_equal_the_scalar_hash(self, block):
        # row j of an extension from block b is hashed under 128 * b + j,
        # also where that index passes 2^63
        rows = np.random.default_rng(block % 97).integers(0, 256, size=(33, 16), dtype=np.uint8)
        pads = ot_mod._hash_rows(rows, block)
        for j, (pad, row) in enumerate(zip(pads, rows)):
            want = scalar_hash(b"privgraph-ot-key", row.tobytes(), 128 * block + j)
            assert pad.tobytes() == want
        same = ot_mod._hash_rows(np.repeat(rows[:1], 33, axis=0), block)
        assert len({pad.tobytes() for pad in same}) == 33

    def test_correlated_and_message_formulas(self, monkeypatch):
        rng = np.random.default_rng(8)
        m, block = 257, 3
        pads0, rows1, pads = (rng.integers(0, 256, size=(m, 16), dtype=np.uint8) for _ in range(3))
        pads1 = ot_mod._hash_rows(rows1, block)  # H(q_j ^ s)
        deltas = [int(d) for d in rng.integers(0, SHARE_MODULUS, size=m)]
        bits = [int(b) for b in rng.integers(0, 2, size=m)]
        delta = _delta(rng)

        class Sink:
            def __init__(self):
                self.payloads = []

            def send(self, frame):
                self.payloads.append(frame.payload)

        sender = OTSender(OTPair(GroupContext()), Sink())

        def extend(n):
            sender._ones = rows1, block
            return pads0

        monkeypatch.setattr(sender, "extend", extend)
        vs = sender.send_correlated(deltas)
        sender.send_messages(pads0, delta)
        corr, labels = sender.channel.payloads

        # the loops these replaced
        p0 = [p.tobytes() for p in pads0]
        p1 = [p.tobytes() for p in pads1]
        want_vs, want_corr = [], []
        for d, a, b in zip(deltas, p0, p1):
            v = int.from_bytes(a, "big") % SHARE_MODULUS
            w1 = int.from_bytes(b, "big") % SHARE_MODULUS
            want_corr.append(((d + v - w1) % SHARE_MODULUS).to_bytes(4, "big"))
            want_vs.append(v)
        assert vs == want_vs and corr == b"".join(want_corr)
        assert labels == b"".join(xor(a, b, delta.tobytes()) for a, b in zip(p0, p1))

        receiver = OTReceiver(OTPair(GroupContext()), None)
        choices = np.array(bits, dtype=np.uint8)
        monkeypatch.setattr(receiver, "extend", lambda b: None)
        monkeypatch.setattr(receiver, "_complete", lambda word: (pads.copy(), corr, choices))
        got = receiver.recv_correlated(bits)
        want = []
        for i, (bit, pad) in enumerate(zip(bits, pads)):
            w = int.from_bytes(pad.tobytes(), "big") % SHARE_MODULUS
            if bit:
                w = (w + int.from_bytes(corr[4 * i : 4 * i + 4], "big")) % SHARE_MODULUS
            want.append(w)
        assert got == want
        monkeypatch.setattr(receiver, "_complete", lambda word: (pads.copy(), labels, choices))
        got = [row.tobytes() for row in receiver.recv_messages()]
        assert got == [
            xor(pad.tobytes(), labels[16 * i : 16 * i + 16]) if bit else pad.tobytes()
            for i, (bit, pad) in enumerate(zip(bits, pads))
        ]
