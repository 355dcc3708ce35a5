import socket
import struct
import threading

import pytest

from privgraph.circuits import MAX_SORT_K, SCORE_BITS, comparator_count, padded_size
from privgraph.transport import (
    HEADER_LEN,
    MAX_FRAME_BYTES,
    MSG,
    RECV_CHUNK,
    Channel,
    ChannelClosed,
    Frame,
    LoopbackFabric,
    SequenceError,
    TcpChannel,
    TcpListener,
    Transcript,
    TransportError,
    loopback_pair,
    tcp_connect,
)


class TestFrame:
    def test_round_trip(self):
        f = Frame(MSG["RESULT"], 42, b"payload")
        assert Frame.decode(f.encode()) == f

    def test_length_field(self):
        f = Frame(MSG["RESULT"], 0, b"abc")
        assert len(f.encode()) == 14 + 3

    def test_unknown_type_rejected(self):
        data = Frame(MSG["RESULT"], 0, b"").encode()
        bad = data[:4] + b"\xde\xad" + data[6:]
        with pytest.raises(TransportError, match="unknown"):
            Frame.decode(bad)

    def test_truncated_rejected(self):
        with pytest.raises(TransportError):
            Frame.decode(b"\x00\x01")

    def test_name(self):
        assert Frame(MSG["SORT_INIT"], 0).name == "SORT_INIT"


class TestLoopback:
    def test_echo_1mb(self):
        a, b = loopback_pair("t")
        blob = bytes(range(256)) * 4096
        a.send(Frame(MSG["CIRCUIT_BLOB"], 7, blob))
        got = b.recv()
        assert got.payload == blob and got.session == 7

    def test_fifo_order(self):
        a, b = loopback_pair("t")
        for i in range(50):
            a.send(Frame(MSG["RESULT"], i))
        assert [b.recv().session for i in range(50)] == list(range(50))

    def test_byte_counters(self):
        a, b = loopback_pair("t")
        a.send(Frame(MSG["RESULT"], 0, b"12345"))
        b.recv()
        assert a.bytes_sent == 19
        assert b.bytes_received == 19

    def test_out_of_order_detected(self):
        a, b = loopback_pair("t")
        a.send(Frame(MSG["RESULT"], 0))
        a.send(Frame(MSG["RESULT"], 1))
        # swap the queued items to simulate reordering
        first = b.inbox.get()
        second = b.inbox.get()
        b.inbox.put(second)
        b.inbox.put(first)
        with pytest.raises(SequenceError):
            b.recv()

    def test_recv_timeout(self):
        a, b = loopback_pair("t")
        with pytest.raises(TransportError, match="timeout"):
            b.recv(timeout=0.05)

    def test_close_unblocks_peer(self):
        a, b = loopback_pair("t")
        a.close()
        with pytest.raises(ChannelClosed):
            b.recv()

    def test_expect_wrong_type(self):
        a, b = loopback_pair("t")
        a.send(Frame(MSG["RESULT"], 0))
        with pytest.raises(TransportError, match="expected"):
            b.expect("SORT_INIT")


class TestFabric:
    def test_connect_accept(self):
        fabric = LoopbackFabric()
        listener = fabric.listen("is00")
        client = fabric.connect("is00")
        server = listener.accept(timeout=1)
        client.send(Frame(MSG["QUERY_INIT"], 1, b"q"))
        assert server.recv().payload == b"q"
        server.send(Frame(MSG["RESULT"], 1, b"r"))
        assert client.recv().payload == b"r"

    def test_connection_refused(self):
        with pytest.raises(TransportError, match="refused"):
            LoopbackFabric().connect("nobody")

    def test_double_bind_rejected(self):
        fabric = LoopbackFabric()
        fabric.listen("a")
        with pytest.raises(TransportError):
            fabric.listen("a")

    def test_transcript_recording(self):
        a, b = loopback_pair("t")
        t = Transcript()
        a.transcript = t
        a.party = "sf"
        a.send(Frame(MSG["QUERY_INIT"], 3, b"x"))
        b.recv()
        assert t.entries == [("sf", "send", Frame(MSG["QUERY_INIT"], 3, b"x"))]


class TestTcp:
    def test_round_trip(self):
        listener = TcpListener("127.0.0.1", 0)
        host, port = listener.addr
        results = {}

        def serve():
            chan = listener.accept(timeout=5)
            results["frame"] = chan.recv(timeout=5)
            chan.send(Frame(MSG["RESULT"], 9, b"pong"))
            chan.close()

        thread = threading.Thread(target=serve)
        thread.start()
        client = tcp_connect(host, port)
        client.send(Frame(MSG["QUERY_INIT"], 9, b"ping"))
        reply = client.recv(timeout=5)
        thread.join(timeout=5)
        listener.close()
        client.close()
        assert results["frame"].payload == b"ping"
        assert reply.payload == b"pong"
        # byte-identical framing in both modes
        assert reply.encode() == Frame(MSG["RESULT"], 9, b"pong").encode()

    def test_refused(self):
        with pytest.raises(TransportError):
            tcp_connect("127.0.0.1", 1, timeout=0.2)

    def test_oversized_announcement_rejected(self):
        a, b = socket.socketpair()
        chan = TcpChannel(a, "pair")
        try:
            b.sendall(struct.pack(">I", 0xFFFFFFF0) + bytes(64))
            with pytest.raises(TransportError, match="limit"):
                chan.recv(timeout=5)
        finally:
            chan.close()
            b.close()

    def test_frame_larger_than_one_read(self):
        a, b = socket.socketpair()
        sender, receiver = TcpChannel(a, "a"), TcpChannel(b, "b")
        frame = Frame(MSG["CIRCUIT_BLOB"], 4, bytes(range(256)) * (3 * RECV_CHUNK // 256 + 1))
        thread = threading.Thread(target=sender.send, args=(frame,))
        thread.start()
        try:
            assert receiver.recv(timeout=10) == frame
        finally:
            thread.join(timeout=10)
            sender.close()
            receiver.close()

    def test_largest_circuit_blob_fits_under_cap(self):
        # closed-form AND counts (see test_comparator_law_in_and_count):
        # local sort = adders n*(31-1) + comparators*(31 + 31 + payload),
        # merge = comparators*(31 + 31 + payload); 64 table bytes per AND
        n = padded_size(MAX_SORT_K)
        local_pw = MAX_SORT_K.bit_length()
        # merge payload ((shard << idx_bits) | index) + 1 with a u16 shard
        merge_pw = 16 + (MAX_SORT_K - 1).bit_length() + 1
        local = n * (SCORE_BITS - 1) + comparator_count(n) * (2 * SCORE_BITS + local_pw)
        merge = comparator_count(n) * (2 * SCORE_BITS + merge_pw)
        frames = [
            HEADER_LEN + 12 + 64 * local + -(-n * (SCORE_BITS + local_pw) // 8),
            HEADER_LEN + 12 + 64 * merge + -(-n * merge_pw // 8),
        ]
        assert max(frames) <= MAX_FRAME_BYTES < 2 * max(frames)
