import secrets
import threading

import numpy as np
import pytest

from privgraph.crypto import GroupContext
from privgraph.ot import SHARE_MODULUS, OTError, OTReceiver, OTSender
from privgraph.transport import Frame, TransportError, loopback_pair


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


def run_pair(sender_fn, receiver_fn, tampered=None):
    """Drive both OT endpoints on loopback channels, re-raising the first
    error. tampered = (side, frame name, nth, edit) rewrites one frame sent
    by "sender" or "receiver"."""
    chan_a, chan_b = loopback_pair("ot")
    if tampered is not None:
        side, *how = tampered
        tamper(chan_a if side == "sender" else chan_b, *how)
    ctx_a, ctx_b = GroupContext(), GroupContext()
    sender = OTSender(ctx_a, chan_a)
    receiver = OTReceiver(ctx_b, chan_b)
    out = {}
    errors = []

    def run_sender():
        try:
            sender.setup()
            out["sender"] = sender_fn(sender)
        except Exception as exc:  # propagated after join
            errors.append(exc)
            chan_a.close()  # the peer fails at once instead of timing out

    def run_receiver():
        try:
            receiver.setup()
            out["receiver"] = receiver_fn(receiver)
        except Exception as exc:
            errors.append(exc)
            chan_b.close()

    threads = [threading.Thread(target=run_sender), threading.Thread(target=run_receiver)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    chan_a.close()
    chan_b.close()
    if errors:
        raise errors[0]
    return out["sender"], out["receiver"]


class TestMessageOT:
    def test_choice_selects_message(self):
        n = 300
        msgs0 = [secrets.token_bytes(16) for _ in range(n)]
        msgs1 = [secrets.token_bytes(16) for _ in range(n)]
        bits = [secrets.randbelow(2) for _ in range(n)]
        _, got = run_pair(
            lambda s: s.send_messages(msgs0, msgs1),
            lambda r: r.recv_messages(bits),
        )
        for b, g, m0, m1 in zip(bits, got, msgs0, msgs1):
            assert g == (m1 if b else m0)
            assert g != (m0 if b else m1)

    def test_single_transfer(self):
        _, got = run_pair(
            lambda s: s.send_messages([b"A" * 16], [b"B" * 16]),
            lambda r: r.recv_messages([1]),
        )
        assert got == [b"B" * 16]

    def test_non_multiple_of_eight(self):
        n = 13
        msgs0 = [bytes([i]) * 16 for i in range(n)]
        msgs1 = [bytes([100 + i]) * 16 for i in range(n)]
        bits = [i % 2 for i in range(n)]
        _, got = run_pair(
            lambda s: s.send_messages(msgs0, msgs1),
            lambda r: r.recv_messages(bits),
        )
        assert got == [msgs1[i] if i % 2 else msgs0[i] for i in range(n)]


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
                    extends.append(frame.payload)
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
        chan_a, _ = loopback_pair("ot")
        sender = OTSender(GroupContext(), chan_a)
        with pytest.raises(OTError):
            sender.pads(4)

    def test_ot_error_is_transport_error(self):
        assert issubclass(OTError, TransportError)


def _messages(s):
    return s.send_messages([b"A" * 16] * 4, [b"B" * 16] * 4)


def _correlated(s):
    return s.send_correlated([7] * 4)


class TestTruncatedFrames:
    """Every OT frame is checked for its exact length before it is sliced;
    a short one fails the party that reads it with OTError."""

    @pytest.mark.parametrize(
        "tampered,sender_fn,receiver_fn",
        [
            # the base-OT sender's point A: 32 bytes
            (("receiver", "OT_SETUP", 0, lambda p: p[:-1]), _messages,
             lambda r: r.recv_messages([1] * 4)),
            # A that is no group element
            (("receiver", "OT_SETUP", 0, lambda p: bytes(len(p))), _messages,
             lambda r: r.recv_messages([1] * 4)),
            # the base-OT receiver's reply: 128 points of 32 bytes
            (("sender", "OT_SETUP", 0, lambda p: p[:-32]), _messages,
             lambda r: r.recv_messages([1] * 4)),
            # the base-OT ciphertexts: 256 of 16 bytes
            (("receiver", "OT_SETUP", 1, lambda p: p[:-16]), _messages,
             lambda r: r.recv_messages([1] * 4)),
            # the extension matrix: 128 rows of ceil(m / 8) bytes
            (("receiver", "OT_EXTEND", 0, lambda p: p[:-1]), _messages,
             lambda r: r.recv_messages([1] * 4)),
            # message payload: 32 bytes per transfer
            (("sender", "OT_PAYLOAD", 0, lambda p: p[:40]), _messages,
             lambda r: r.recv_messages([1] * 4)),
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
