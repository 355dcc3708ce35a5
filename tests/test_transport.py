import errno
import socket
import struct
import threading
import time

import pytest

from conftest import loopback_pair, merge_tree_schedule
from privgraph.circuits import MAX_SORT_K, merge_exchange
from privgraph.crypto import SCORE_BITS
from privgraph.transport import (
    HEADER_LEN,
    MAX_FRAME_BYTES,
    MSG,
    RECV_CHUNK,
    Channel,
    ChannelClosed,
    Frame,
    Topology,
    Transcript,
    TransportError,
    load_transcript,
    save_transcript,
)


def address_forms(tmp_path):
    """The two forms of a party address: a TCP port-0 endpoint, whose bound
    port listen() writes back, and an AF_UNIX path."""
    return [("127.0.0.1", 0), str(tmp_path / "party.sock")]


@pytest.fixture(params=["tcp", "unix"])
def address(request, tmp_path):
    tcp, unix = address_forms(tmp_path)
    return tcp if request.param == "tcp" else unix


@pytest.fixture
def pair():
    a, b = loopback_pair("t")
    yield a, b
    a.close()
    b.close()


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
    def test_echo_1mb(self, pair):
        a, b = pair
        blob = bytes(range(256)) * 4096
        # larger than the socket buffer: the send completes as the peer reads
        thread = threading.Thread(target=a.send, args=(Frame(MSG["CIRCUIT_BLOB"], 7, blob),))
        thread.start()
        try:
            got = b.recv()
        finally:
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert got.payload == blob and got.session == 7

    def test_fifo_order(self, pair):
        a, b = pair
        for i in range(50):
            a.send(Frame(MSG["RESULT"], i))
        assert [b.recv().session for i in range(50)] == list(range(50))

    def test_byte_counters(self, pair):
        a, b = pair
        a.send(Frame(MSG["RESULT"], 0, b"12345"))
        b.recv()
        assert a.bytes_sent == 19
        assert b.bytes_received == 19

    def test_recv_timeout(self):
        a, b = loopback_pair("t", timeout=0.05)
        try:
            with pytest.raises(TransportError, match="recv timeout"):
                b.recv()
        finally:
            a.close()
            b.close()

    def test_close_unblocks_peer(self, pair):
        a, b = pair
        a.close()
        with pytest.raises(ChannelClosed):
            b.recv()

    def test_send_to_closed_peer(self, pair):
        a, b = pair
        b.close()
        with pytest.raises(ChannelClosed):
            a.send(Frame(MSG["CIRCUIT_BLOB"], 0, bytes(1000)))
        assert a.bytes_sent == 0

    def test_send_to_peer_that_never_reads(self):
        a, b = loopback_pair("t", timeout=0.2)
        t0 = time.monotonic()
        try:
            with pytest.raises(TransportError, match="send timeout"):
                for _ in range(64):  # far beyond any socket buffer
                    a.send(Frame(MSG["CIRCUIT_BLOB"], 0, bytes(1 << 16)))
        finally:
            a.close()
            b.close()
        assert time.monotonic() - t0 < 5

    def test_frames_buffered_together(self, pair):
        # several frames that arrive in one read are returned one by one
        a, b = pair
        sent = [Frame(MSG["RESULT"], i, bytes(i)) for i in range(20)]
        for frame in sent:
            a.send(frame)
        assert [b.recv() for _ in sent] == sent
        assert b.bytes_received == sum(len(f.encode()) for f in sent)

    def test_expect_wrong_type(self, pair):
        a, b = pair
        a.send(Frame(MSG["RESULT"], 0))
        with pytest.raises(TransportError, match="expected"):
            b.expect("SORT_INIT")


class TestFabric:
    """Topology set-up, refusal and close over both address forms."""

    def test_connect_accept(self, tmp_path):
        for addr in address_forms(tmp_path):
            topology = Topology({"is00": addr})
            listener = topology.listen("is00", 5.0)
            client = topology.connect("is00", 5.0)
            server = listener.accept()
            client.send(Frame(MSG["QUERY_INIT"], 1, b"q"))
            assert server.recv().payload == b"q"
            server.send(Frame(MSG["RESULT"], 1, b"r"))
            assert client.recv().payload == b"r"
            client.close()
            server.close()
            listener.close()

    def test_connection_refused(self, tmp_path):
        with pytest.raises(TransportError, match="refused"):
            Topology({}).connect("nobody", 5.0)
        with pytest.raises(TransportError, match="refused"):
            Topology({"nobody": str(tmp_path / "nobody.sock")}).connect("nobody", 5.0)

    def test_double_bind_rejected(self, tmp_path):
        for addr in address_forms(tmp_path):
            topology = Topology({"a": addr})
            listener = topology.listen("a", 5.0)
            try:
                with pytest.raises(OSError) as exc:
                    topology.listen("a", 5.0)
                assert exc.value.errno == errno.EADDRINUSE
            finally:
                listener.close()

    def test_listener_close_refuses(self, tmp_path):
        for addr in address_forms(tmp_path):
            topology = Topology({"is00": addr})
            listener = topology.listen("is00", 5.0)
            listener.close()
            with pytest.raises(ChannelClosed):
                listener.accept()
            with pytest.raises(TransportError, match="refused"):
                topology.connect("is00", 5.0)

    def test_close_wakes_blocked_accept(self, address):
        topology = Topology({"is00": address})
        listener = topology.listen("is00", 5.0)
        raised = []

        def accept():
            try:
                listener.accept()
            except ChannelClosed as exc:
                raised.append(exc)

        thread = threading.Thread(target=accept)
        thread.start()
        time.sleep(0.05)  # let the accept block
        listener.close()
        thread.join(timeout=1)
        assert not thread.is_alive() and len(raised) == 1
        with pytest.raises(TransportError, match="refused"):
            topology.connect("is00", 5.0)

    def test_channels_take_their_owners_timeout(self, address):
        # an accepted channel has its listener's timeout and a connected
        # one the timeout it was connected with; no call takes its own
        topology = Topology({"is00": address})
        listener = topology.listen("is00", 0.05)
        client = topology.connect("is00", 0.5)
        server = listener.accept()
        try:
            waited = []
            for chan in (server, client):
                t0 = time.monotonic()
                with pytest.raises(TransportError, match="recv timeout"):
                    chan.recv()
                waited.append(time.monotonic() - t0)
            assert waited[0] < 0.4 <= waited[1] < 3
        finally:
            for closable in (client, server, listener):
                closable.close()

    def test_transcript_recording(self, pair):
        a, b = pair
        t = Transcript()
        a.transcript = t
        a.party = "sf"
        a.send(Frame(MSG["QUERY_INIT"], 3, b"x"))
        b.recv()
        assert t.entries == [("sf", "send", Frame(MSG["QUERY_INIT"], 3, b"x"))]


class TestTcp:
    def test_round_trip(self):
        topology = Topology({"is00": ("127.0.0.1", 0)})
        listener = topology.listen("is00", 5.0)
        assert topology.addresses["is00"][1] != 0  # the bound port
        results = {}

        def serve():
            chan = listener.accept()
            results["frame"] = chan.recv()
            chan.send(Frame(MSG["RESULT"], 9, b"pong"))
            chan.close()

        thread = threading.Thread(target=serve)
        thread.start()
        client = topology.connect("is00", 5.0)
        client.send(Frame(MSG["QUERY_INIT"], 9, b"ping"))
        reply = client.recv()
        thread.join(timeout=5)
        listener.close()
        client.close()
        assert results["frame"].payload == b"ping"
        assert reply.payload == b"pong"
        # byte-identical framing in both modes
        assert reply.encode() == Frame(MSG["RESULT"], 9, b"pong").encode()

    def test_refused(self):
        with pytest.raises(TransportError, match="refused"):
            Topology({"x": ("127.0.0.1", 1)}).connect("x", 5.0)

    def test_oversized_announcement_rejected(self):
        a, b = socket.socketpair()
        chan = Channel(a, "pair", 5.0)
        try:
            b.sendall(struct.pack(">I", 0xFFFFFFF0) + bytes(64))
            with pytest.raises(TransportError, match="limit"):
                chan.recv()
        finally:
            chan.close()
            b.close()

    def test_frame_larger_than_one_read(self):
        a, b = socket.socketpair()
        sender, receiver = Channel(a, "a", 10.0), Channel(b, "b", 10.0)
        frame = Frame(MSG["CIRCUIT_BLOB"], 4, bytes(range(256)) * (3 * RECV_CHUNK // 256 + 1))
        thread = threading.Thread(target=sender.send, args=(frame,))
        thread.start()
        try:
            assert receiver.recv() == frame
        finally:
            thread.join(timeout=10)
            sender.close()
            receiver.close()

    def test_largest_circuit_blob_fits_under_cap(self):
        # closed-form AND counts (see test_comparator_law_in_and_count):
        # local sort = adders k*(31-1) + comparators*(31 + 31 + payload),
        # merge <= comparators*(31 + 31 + payload); 32 half-gates bytes
        # per AND; both sorts number their payloads densely over 0..k-1 in
        # k.bit_length() bits. The costliest merge trees are 1,024 runs of
        # 1, a full odd-even merge sort, and the layout below, the maximum
        # that a dynamic program over every split of 1,024 entries into
        # every number of runs found for the tree's shape
        k = MAX_SORT_K
        pw = k.bit_length()
        per_comparator = 2 * SCORE_BITS + pw
        local = k * (SCORE_BITS - 1) + len(merge_exchange(k)) * per_comparator
        middle = (14, 24, 8, 3, 5, 1, 2, 2, 3, 149, 320, 64, 21, 43, 8, 13, 16, 27, 9, 20,
                  8, 3, 5, 1, 2, 2, 3)
        costliest = (1,) * 137 + middle + (1,) * 26 + (2,) + (1,) * 83
        merges = [len(merge_tree_schedule(counts)) for counts in ((1,) * k, costliest)]
        assert (len(merge_exchange(k)), merges, sum(costliest)) == (24063, [24063, 29281], k)
        frames = [HEADER_LEN + 12 + 32 * local + -(-k * (SCORE_BITS + pw) // 8)]
        frames += [HEADER_LEN + 12 + 32 * c * per_comparator + -(-k * pw // 8) for c in merges]
        # a power-of-two cap with room for the circuits to grow: the cap
        # stayed at 2^28 when half-gates halved the tables, so the room is
        # one power of two more than the 4-row tables left
        assert max(frames) <= MAX_FRAME_BYTES < 8 * max(frames)


class TestTranscriptFile:
    def write(self, tmp_path):
        t = Transcript()
        t.record("is00", "send", Frame(MSG["TUPLE_COUNT"], 1, b"\x00\x00\x00\x05"))
        t.record("frontend", "recv", Frame(MSG["RESULT"], 1, b"\x00\x00"))
        path = tmp_path / "t.bin"
        save_transcript(t, path)
        return t, path

    def test_round_trip(self, tmp_path):
        t, path = self.write(tmp_path)
        assert load_transcript(path).entries == t.entries

    def test_truncated_rejected(self, tmp_path):
        t, path = self.write(tmp_path)
        data = path.read_bytes()
        first_entry_end = len(data) - (2 + len("frontend") + len(t.entries[1][2].encode()))
        for cut in range(7, len(data)):
            if cut == first_entry_end:
                continue  # a whole one-entry transcript
            path.write_bytes(data[:cut])
            with pytest.raises(TransportError):
                load_transcript(path)

    def test_bad_party_name_rejected(self, tmp_path):
        _, path = self.write(tmp_path)
        data = bytearray(path.read_bytes())
        data[8] = 0xFF  # first byte of "is00"
        path.write_bytes(bytes(data))
        with pytest.raises(TransportError, match="UTF-8"):
            load_transcript(path)
