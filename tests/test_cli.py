import hashlib
import json
import random
import shutil
import socket
from pathlib import Path

import pytest

from conftest import BLOOM_XSET_BLOB, key_leaks
from privgraph.builder import TSetShard, load_edb
from privgraph.cli import main
from privgraph.crypto import load_keystore
from privgraph.graph import PlaintextEngine, build_inverted_index, load_edge_list


@pytest.fixture(scope="module")
def edge_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "edges.txt"
    rng = random.Random(9)
    seen = set()
    lines = ["# sample graph"]
    while len(seen) < 250:
        a, b = rng.randrange(50), rng.randrange(50)
        if a != b and (a, b) not in seen:
            seen.add((a, b))
            lines.append(f"{a} {b} {rng.randint(1, 100)}")
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture(scope="module")
def workspace(edge_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("ws")
    rc = main([
        "setup", "--edges", str(edge_file), "--out", str(out),
        "--shards", "2", "--seed", "9",
    ])
    assert rc == 0
    return out


def replace_blob(shard: Path, blob: str, data: bytes) -> None:
    """Write a shard's tset or xset blob under a manifest rewritten to match."""
    (shard / f"{blob}.bin").write_bytes(data)
    manifest = json.loads((shard / "manifest.json").read_text())
    manifest[f"{blob}_sha256"] = hashlib.sha256(data).hexdigest()
    (shard / "manifest.json").write_text(json.dumps(manifest))


def edb_digest(edb_dir: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(edb_dir.rglob("*.bin")):
        h.update(p.read_bytes())
    return h.hexdigest()


class TestSetup:
    def test_outputs_exist(self, workspace):
        assert (workspace / "keystore.bin").is_file()
        assert (workspace / "frequencies.json").is_file()
        assert (workspace / "edb" / "cluster1" / "shard1" / "tset.bin").is_file()

    def test_deterministic_with_seed(self, edge_file, workspace, tmp_path):
        rc = main([
            "setup", "--edges", str(edge_file), "--out", str(tmp_path / "again"),
            "--shards", "2", "--seed", "9",
        ])
        assert rc == 0
        assert edb_digest(tmp_path / "again" / "edb") == edb_digest(workspace / "edb")

    def test_no_key_material_in_the_edb(self, edge_file, workspace, tmp_path):
        # seeded and unseeded alike, no 8-byte window of a key is stored
        # and no cluster-0 share equals a key word
        main(["setup", "--edges", str(edge_file), "--out", str(tmp_path), "--shards", "2"])
        for out in (workspace, tmp_path):
            keys = load_keystore(out / "keystore.bin")
            blobs = [p.read_bytes() for p in (out / "edb").rglob("*") if p.is_file()]
            shares = [
                t.sortkey_share
                for p in (out / "edb" / "cluster0").rglob("tset.bin")
                for block in TSetShard.from_bytes(p.read_bytes()).blocks.values()
                for t in block
            ]
            assert len(shares) == 250
            assert key_leaks(keys, blobs, shares) == []

    def test_unseeded_setups_differ(self, edge_file, tmp_path):
        for name in ("a", "b"):
            assert main(["setup", "--edges", str(edge_file), "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "a" / "keystore.bin").read_bytes() != (
            tmp_path / "b" / "keystore.bin"
        ).read_bytes()

    def test_storage_report(self, tmp_path, edge_file, capsys):
        main(["setup", "--edges", str(edge_file), "--out", str(tmp_path / "r"), "--seed", "9"])
        out = capsys.readouterr().out
        assert "per-tuple 72 B" in out
        shard_bytes = [
            int(x.split("tset ")[1].split(" B")[0]) +
            int(x.split("xset ")[1].split(" B")[0])
            for x in out.splitlines() if "cluster" in x and "tset" in x
        ]
        total = int(out.split("storage   total ")[1].split(" B")[0])
        assert sum(shard_bytes) == total

    def test_missing_file(self, tmp_path):
        assert main(["setup", "--edges", str(tmp_path / "nope"), "--out", str(tmp_path)]) == 2


class TestQuery:
    def _query(self, workspace, text, *extra):
        return main([
            "query", text, "--edb", str(workspace / "edb"),
            "--keystore", str(workspace / "keystore.bin"), "--local", *extra,
        ])

    def test_matches_oracle(self, workspace, edge_file, capsys):
        index = build_inverted_index(load_edge_list(edge_file, "friend"))
        term = max(index, key=lambda t: len(index[t]))
        assert self._query(workspace, f"(term {term})") == 0
        got = {int(line) for line in capsys.readouterr().out.split()}
        assert got == index[term].ids()

    def test_sorted_with_ranks(self, workspace, edge_file, capsys):
        index = build_inverted_index(load_edge_list(edge_file, "friend"))
        engine = PlaintextEngine(index)
        term = max(index, key=lambda t: len(index[t]))
        assert self._query(workspace, f"(term {term})", "--sort", "--top-k", "3") == 0
        lines = capsys.readouterr().out.splitlines()
        assert [int(l.split("\t")[0]) for l in lines] == [1, 2, 3]
        oracle = engine.query(
            __import__("privgraph.sexpr", fromlist=["parse_sexpr"]).parse_sexpr(
                f"(term {term})"
            ),
            sort=True,
        )
        score_of = {eid: sk for sk, eid in oracle}
        got_scores = [score_of[int(l.split("\t")[1])] for l in lines]
        assert got_scores == [sk for sk, _ in oracle[:3]]

    def test_malformed_query(self, workspace, capsys):
        assert self._query(workspace, "(and friend:1") == 2
        assert "position" in capsys.readouterr().err

    def test_unknown_operator(self, workspace, capsys):
        assert self._query(workspace, "(xor friend:1 friend:2)") == 2

    def test_local_requires_edb(self, workspace):
        assert main([
            "query", "(term friend:1)", "--keystore",
            str(workspace / "keystore.bin"), "--local",
        ]) == 2

    def test_truncated_keystore(self, workspace, tmp_path, capsys):
        keys = tmp_path / "keys.bin"
        keys.write_bytes(b"PGKS\x00")
        assert main([
            "query", "(term friend:1)", "--edb", str(workspace / "edb"),
            "--keystore", str(keys), "--local",
        ]) == 1
        assert "keystore" in capsys.readouterr().err

    @pytest.mark.parametrize("score", ["(mul key", "(mul key foo)", "(pow key 2)"])
    def test_bad_score_refused_by_the_front_end(self, workspace, capsys, score):
        term = next(iter(json.loads((workspace / "frequencies.json").read_text())))
        assert self._query(workspace, f"(term {term})", "--sort", "--score", score) == 1
        err = capsys.readouterr().err
        assert "bad score formula" in err and "server error" not in err

    @pytest.mark.parametrize(
        "bad",
        ["no peers file", "peer without port", "no tset", "manifest without checksum",
         "bad frequencies", "missing frequencies"],
    )
    def test_bad_input_file_is_a_usage_error(self, workspace, tmp_path, capsys, bad):
        peers, edb = tmp_path / "peers.json", tmp_path / "edb"
        shutil.copytree(workspace / "edb", edb)
        args = ["--edb", str(edb), "--local"]
        if bad == "no peers file":
            args, expected = ["--peers", str(peers)], str(peers)
        elif bad == "peer without port":
            peers.write_text(json.dumps({"is00": "127.0.0.1:7000", "is01": "127.0.0.1"}))
            args, expected = ["--peers", str(peers)], "'is01' is '127.0.0.1', not host:port"
        elif bad == "no tset":
            (edb / "cluster1" / "shard0" / "tset.bin").unlink()
            expected = "tset.bin"
        elif bad == "manifest without checksum":
            manifest = edb / "cluster0" / "shard1" / "manifest.json"
            fields = json.loads(manifest.read_text())
            del fields["xset_sha256"]
            manifest.write_text(json.dumps(fields))
            expected = f"{manifest} has no 'xset_sha256'"
        elif bad == "missing frequencies":
            # a file the user names must exist; only the default may not
            args += ["--frequencies", str(tmp_path / "nowhere.json")]
            expected = "nowhere.json"
        else:
            (tmp_path / "freq.json").write_text("{bad")
            args += ["--frequencies", str(tmp_path / "freq.json")]
            expected = "Expecting property name"
        assert main(["query", "(term friend:1)", "--keystore",
                     str(workspace / "keystore.bin"), *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and expected in err

    def test_default_frequencies_may_be_absent(self, workspace, tmp_path, capsys):
        keystore = tmp_path / "keystore.bin"  # no frequencies.json beside it
        shutil.copy(workspace / "keystore.bin", keystore)
        term = next(iter(json.loads((workspace / "frequencies.json").read_text())))
        assert main(["query", f"(term {term})", "--edb", str(workspace / "edb"),
                     "--keystore", str(keystore), "--local"]) == 0
        assert capsys.readouterr().out.split()

    def test_dealer_run_mode_refused(self, workspace):
        # a dealer's seed is known to every server: queries run secure only
        with pytest.raises(SystemExit) as exc:
            self._query(workspace, "(term friend:1)", "--run-mode", "dealer")
        assert exc.value.code == 2


class TestAudit:
    def test_clean_run(self, workspace, tmp_path, capsys):
        rec = tmp_path / "t.bin"
        rc = main([
            "query", "(term friend:1)", "--edb", str(workspace / "edb"),
            "--keystore", str(workspace / "keystore.bin"), "--local",
            "--sort", "--record", str(rec),
        ])
        assert rc == 0
        assert main([
            "audit", "--transcript", str(rec),
            "--keystore", str(workspace / "keystore.bin"),
        ]) == 0
        assert "no violations" in capsys.readouterr().out

    def test_leaky_transcript_fails(self, tmp_path, capsys):
        from privgraph.transport import MSG, Frame, Transcript, save_transcript

        t = Transcript()
        t.record("is00", "send", Frame(MSG["TUPLE_COUNT"], 1, b"\x00\x00\x00\x05"))
        t.record("is00", "send", Frame(MSG["RESULT"], 1, b"\x00\x01\x00\x00\x00\x01id=7"))
        path = tmp_path / "leaky.bin"
        save_transcript(t, path)
        assert main(["audit", "--transcript", str(path)]) == 1
        assert "VIOLATIONS" in capsys.readouterr().out

    @pytest.mark.parametrize("keystore", [None, b"PGKS\x00"], ids=["missing", "truncated"])
    def test_bad_keystore(self, tmp_path, capsys, keystore):
        from privgraph.transport import MSG, Frame, Transcript, save_transcript

        t = Transcript()
        t.record("is00", "send", Frame(MSG["TUPLE_COUNT"], 1, b"\x00\x00\x00\x05"))
        save_transcript(t, tmp_path / "t.bin")
        keys = tmp_path / "keys.bin"
        if keystore is not None:
            keys.write_bytes(keystore)
        rc = main(["audit", "--transcript", str(tmp_path / "t.bin"), "--keystore", str(keys)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_not_a_transcript(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"hello")
        assert main(["audit", "--transcript", str(bad)]) == 2

    @pytest.mark.parametrize("cut", [7, 18])
    def test_truncated_transcript(self, tmp_path, cut):
        from privgraph.transport import MSG, Frame, Transcript, save_transcript

        t = Transcript()
        t.record("is00", "send", Frame(MSG["TUPLE_COUNT"], 1, b"\x00\x00\x00\x05"))
        path = tmp_path / "cut.bin"
        save_transcript(t, path)
        path.write_bytes(path.read_bytes()[:cut])
        assert main(["audit", "--transcript", str(path)]) == 2


class TestTcpMode:
    def test_tcp_matches_local(self, workspace, edge_file):
        """Multi-endpoint TCP deployment returns the same results as
        --local for the same queries."""
        from privgraph.crypto import load_keystore
        from privgraph.planner import FrontEnd
        from privgraph.server import IndexServer
        from privgraph.transport import Topology

        # port 0: each server's listen() writes its bound port back
        topo = Topology({n: ("127.0.0.1", 0) for n in ["is00", "is01", "is10", "is11"]})
        servers = [
            IndexServer.from_edb_dir(
                workspace / "edb", cluster, shard, topo, timeout=20.0
            )
            for cluster in (0, 1)
            for shard in (0, 1)
        ]
        for s in servers:
            s.start()
        try:
            keys = load_keystore(workspace / "keystore.bin")
            lengths = json.loads((workspace / "frequencies.json").read_text())
            index = build_inverted_index(load_edge_list(edge_file, "friend"))
            engine = PlaintextEngine(index)
            fe = FrontEnd(keys, topo, 2, lengths=lengths, timeout=30.0)
            term = max(index, key=lambda t: len(index[t]))
            assert set(fe.query(f"(term {term})")) == index[term].ids()
            got = fe.query(f"(term {term})", sort=True)
            oracle = engine.query(
                __import__("privgraph.sexpr", fromlist=["parse_sexpr"]).parse_sexpr(
                    f"(term {term})"
                ),
                sort=True,
            )
            score_of = {eid: sk for sk, eid in oracle}
            assert [score_of[i] for i in got] == [sk for sk, _ in oracle]
        finally:
            for s in servers:
                s.stop()


@pytest.fixture
def interrupted_serve(monkeypatch):
    """serve's wait loop ends at its first sleep, as on Ctrl-C."""
    from privgraph import cli

    def interrupt(seconds):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli.time, "sleep", interrupt)


def serve(edb: Path, tmp_path: Path, cluster: int, shard: int) -> int:
    """serve one shard of edb, on any free port."""
    peers = tmp_path / "peers.json"
    peers.write_text(json.dumps({f"is{cluster}{shard}": "127.0.0.1:0"}))
    return main(["serve", "--edb", str(edb), "--cluster", str(cluster),
                 "--shard", str(shard), "--peers", str(peers)])


class TestServe:
    def test_dealer_run_mode_refused(self, workspace, tmp_path):
        peers = tmp_path / "peers.json"
        peers.write_text(json.dumps({"is00": "127.0.0.1:0"}))
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--edb", str(workspace / "edb"), "--cluster", "0",
                  "--shard", "0", "--peers", str(peers), "--run-mode", "dealer"])
        assert exc.value.code == 2

    def test_serves_in_secure_mode(
        self, workspace, tmp_path, monkeypatch, interrupted_serve
    ):
        from privgraph.server import IndexServer

        peers = tmp_path / "peers.json"
        peers.write_text(json.dumps({"is00": "127.0.0.1:0"}))
        started = []
        start = IndexServer.start

        def record_start(server):
            started.append(server)
            start(server)

        monkeypatch.setattr(IndexServer, "start", record_start)
        assert main(["serve", "--edb", str(workspace / "edb"), "--cluster", "0",
                     "--shard", "0", "--peers", str(peers)]) == 0
        (server,) = started
        assert server.run_mode == "secure"
        assert not server._running

    @pytest.mark.parametrize("blob", ["tset", "xset"])
    def test_cut_blob_refused(self, tmp_path, capsys, blob):
        # a blob cut short under a manifest rewritten to match it
        edges = tmp_path / "edges.txt"
        edges.write_text("1 2 5\n2 3 7\n3 1 9\n")
        assert main(["setup", "--edges", str(edges), "--out", str(tmp_path / "ws")]) == 0
        shard = tmp_path / "ws" / "edb" / "cluster0" / "shard0"
        replace_blob(shard, blob, (shard / f"{blob}.bin").read_bytes()[:20])
        capsys.readouterr()
        assert serve(tmp_path / "ws" / "edb", tmp_path, 0, 0) == 1
        assert "startup refused" in capsys.readouterr().err

    def test_bloom_xset_of_earlier_builds_refused(
        self, workspace, tmp_path, capsys, interrupted_serve
    ):
        edb = tmp_path / "edb"
        shutil.copytree(workspace / "edb", edb)
        replace_blob(edb / "cluster0" / "shard1", "xset", BLOOM_XSET_BLOB)
        with pytest.raises(ValueError, match="rebuild the EDB"):
            load_edb(edb)
        assert serve(edb, tmp_path, 0, 1) == 1
        err = capsys.readouterr().err
        assert "startup refused" in err and "rebuild the EDB" in err

    def test_missing_shard_refused(self, workspace, tmp_path, capsys, interrupted_serve):
        edb = tmp_path / "edb"
        shutil.copytree(workspace / "edb", edb)
        shutil.rmtree(edb / "cluster1" / "shard1")
        assert serve(edb, tmp_path, 1, 1) == 1
        assert "startup refused" in capsys.readouterr().err

    def test_peer_without_port_refused(self, workspace, tmp_path, capsys, interrupted_serve):
        peers = tmp_path / "peers.json"
        peers.write_text(json.dumps({"is00": "localhost"}))
        assert main(["serve", "--edb", str(workspace / "edb"), "--cluster", "0",
                     "--shard", "0", "--peers", str(peers)]) == 1
        assert "'is00' is 'localhost', not host:port" in capsys.readouterr().err

    def test_unusable_address_refused(self, workspace, tmp_path, interrupted_serve):
        taken = socket.socket()
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        try:
            host, port = taken.getsockname()
            for peers in ({"is01": "127.0.0.1:0"}, {"is00": f"{host}:{port}"}):
                path = tmp_path / "peers.json"
                path.write_text(json.dumps(peers))
                assert main(["serve", "--edb", str(workspace / "edb"), "--cluster", "0",
                             "--shard", "0", "--peers", str(path)]) == 1
        finally:
            taken.close()
