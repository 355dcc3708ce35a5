"""Operator command line: EDB setup, server launch, querying, and the
transcript leakage audit.

Commands:
    setup  — ingest an edge list, build keystore + encrypted databases
    serve  — run one index server over TCP, in secure run mode
    query  — run a query (--local single-process mode or against peers)
    audit  — classify a recorded transcript against the leakage alphabet

The setup report quotes a published reference figure for context only; it
was measured on a different design and is never pass/fail here.

Benchmarks live outside the program: ``python3 perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from pathlib import Path

from .transport import SERVER_TIMEOUT

log = logging.getLogger(__name__)


def _die(message: str, code: int = 1) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# setup


def cmd_setup(args) -> int:
    from .builder import TUPLE_BYTES, PartitionConfig, build_edb, emit_edb, make_rng
    from .crypto import GroupContext, MasterKeyBundle, save_keystore
    from .graph import EdgeListError, build_inverted_index, load_edge_list

    out = Path(args.out)
    t0 = time.perf_counter()
    try:
        graph = load_edge_list(args.edges, args.edge_type, args.weights, args.seed)
    except (OSError, EdgeListError) as exc:
        return _die(str(exc), 2)
    index = build_inverted_index(graph)
    t_ingest = time.perf_counter() - t0

    keys = MasterKeyBundle.generate(os.urandom if args.seed is None else make_rng(args.seed))
    config = PartitionConfig(
        shards_per_cluster=args.shards,
        block_size=args.block_size,
        seed=args.seed,
    )
    t0 = time.perf_counter()
    edb = build_edb(index, keys, GroupContext(), config)
    t_build = time.perf_counter() - t0

    out.mkdir(parents=True, exist_ok=True)
    emit_edb(edb, out / "edb")
    save_keystore(keys, out / "keystore.bin")
    lengths = {term: len(plist) for term, plist in index.items()}
    (out / "frequencies.json").write_text(json.dumps(lengths))

    n_tuples = sum(len(p) for p in index.values())
    print(f"ingested  {len(graph.edges)} edges, {len(index)} posting lists "
          f"({t_ingest:.2f}s)")
    print(f"encrypted {n_tuples} tuples into {args.shards} shard(s) x 2 clusters "
          f"({t_build:.2f}s)")
    total = 0
    for i in (0, 1):
        for j, shard in enumerate(edb.clusters[i]):
            m = shard.manifest
            size = m["tset_bytes"] + m["xset_bytes"]
            total += size
            print(f"  cluster{i}/shard{j}: tset {m['tset_bytes']} B, "
                  f"xset {m['xset_bytes']} B, {m['tuple_count']} tuples")
    plain = sum(len(p) * 8 for p in index.values())
    print(f"storage   total {total} B encrypted vs ~{plain} B plaintext entries")
    print(f"          per-tuple {TUPLE_BYTES} B (published reference design: 56 B)")
    print(f"wrote     {out / 'edb'}, {out / 'keystore.bin'}, "
          f"{out / 'frequencies.json'}")
    return 0


# ---------------------------------------------------------------------------
# serve / query


def _load_peers(path) -> dict:
    """Party name -> (host, port), from a JSON object of "host:port"
    strings; a file that is not one raises ValueError naming the entry."""
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: peers must be a JSON object of name: host:port")
    peers = {}
    for name, addr in raw.items():
        host, _, port = str(addr).rpartition(":")
        if not host or not port.isdigit() or int(port) > 65535:
            raise ValueError(f"{path}: peer {name!r} is {addr!r}, not host:port")
        peers[name] = (host, int(port))
    return peers


def cmd_serve(args) -> int:
    """Servers of a deployment always generate triples by correlated OT:
    a dealer's seed is known to every server, so either could rebuild them."""
    from .server import IndexServer, ServerError
    from .transport import Topology

    try:
        server = IndexServer.from_edb_dir(
            args.edb, args.cluster, args.shard, Topology(_load_peers(args.peers)),
            run_mode="secure", timeout=args.timeout,
        )
        server.start()
    except (OSError, ValueError, ServerError) as exc:
        return _die(f"startup refused: {exc}")
    print(f"serving {server.name} (cluster {args.cluster}, shard {args.shard}); "
          f"Ctrl-C to stop")
    try:
        while True:
            time.sleep(1)
    except KeyboardInterrupt:
        server.stop()
    return 0


def cmd_query(args) -> int:
    from .cluster import LocalCluster
    from .builder import load_edb
    from .crypto import load_keystore
    from .oxt import IntegrityError
    from .planner import FrontEnd, QueryError
    from .sexpr import ParseError, parse_sexpr
    from .transport import Topology, Transcript, save_transcript

    try:
        expr = parse_sexpr(args.query)
    except ParseError as exc:
        return _die(str(exc), 2)
    try:
        keys = load_keystore(args.keystore)
    except (OSError, ValueError) as exc:
        return _die(str(exc))

    lengths = None
    freq = Path(args.frequencies) if args.frequencies else Path(args.keystore).parent / "frequencies.json"
    try:
        if args.frequencies or freq.is_file():  # only the default may be absent
            lengths = json.loads(freq.read_text())
        if args.local:
            edb = load_edb(args.edb)
        elif args.peers:
            peers = _load_peers(args.peers)
        else:
            return _die("either --local or --peers is required", 2)
    except (OSError, ValueError) as exc:
        return _die(str(exc), 2)

    transcript = Transcript() if args.record else None
    try:
        if args.local:
            with LocalCluster(edb, transcript=transcript, timeout=args.timeout) as cluster:
                fe = cluster.front_end(
                    keys, lengths=lengths, timeout=args.timeout * 2
                )
                ids = fe.query(expr, sort=args.sort, top_k=args.top_k, score=args.score)
        else:
            n_shards = sum(1 for name in peers if name.startswith("is0"))
            fe = FrontEnd(
                keys, Topology(peers), n_shards,
                lengths=lengths, timeout=args.timeout * 2, transcript=transcript,
            )
            ids = fe.query(expr, sort=args.sort, top_k=args.top_k, score=args.score)
    except (QueryError, IntegrityError, ValueError) as exc:
        return _die(str(exc))
    if args.record:
        save_transcript(transcript, args.record)
    for rank, eid in enumerate(ids, start=1):
        print(f"{rank}\t{eid}" if args.sort else str(eid))
    return 0


# ---------------------------------------------------------------------------
# audit


def cmd_audit(args) -> int:
    from .crypto import load_keystore
    from .leakage import audit_transcript
    from .transport import TransportError, load_transcript

    try:
        transcript = load_transcript(args.transcript)
    except (OSError, TransportError) as exc:
        return _die(str(exc), 2)
    forbidden = ()
    if args.keystore:
        try:
            keys = load_keystore(args.keystore)
        except (OSError, ValueError) as exc:
            return _die(str(exc), 2)
        forbidden = (keys.k_stag, keys.k_x, keys.k_i, keys.k_z, keys.k_enc)
    report = audit_transcript(transcript, forbidden=forbidden)
    print(f"frames audited: {sum(report.class_counts.values())}")
    print("observed leakage classes:")
    for cls, count in sorted(report.class_counts.items()):
        print(f"  {count:6d}  {cls}")
    if report.violations:
        print(f"VIOLATIONS ({len(report.violations)}):")
        for v in report.violations:
            print(f"  {v}")
        return 1
    print("no violations")
    return 0


# ---------------------------------------------------------------------------
# argument surface


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privgraph",
        description="Privacy-preserving social graph search over an encrypted, "
        "sharded inverted index.",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("setup", help="build keystore and encrypted databases")
    p.add_argument("--edges", required=True, help="edge list file: src dst [weight]")
    p.add_argument("--edge-type", default="friend")
    p.add_argument("--weights", choices=("from_file", "uniform_random"),
                   default="from_file")
    p.add_argument("--out", required=True)
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--block-size", type=int, default=100)
    p.add_argument("--seed", type=int, help="draw keys, weights, shares and nonces "
                   "from this seed, for reproducible test builds only")
    p.set_defaults(fn=cmd_setup)

    p = sub.add_parser("serve", help="run one index server over TCP")
    p.add_argument("--edb", required=True)
    p.add_argument("--cluster", type=int, required=True, choices=(0, 1))
    p.add_argument("--shard", type=int, required=True)
    p.add_argument("--peers", required=True,
                   help="JSON file mapping party names to host:port")
    p.add_argument("--timeout", type=float, default=SERVER_TIMEOUT)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("query", help="run a query")
    p.add_argument("query", help="s-expression, e.g. '(and friend:1 friend:2)'")
    p.add_argument("--edb", help="EDB directory (required with --local)")
    p.add_argument("--keystore", required=True)
    p.add_argument("--frequencies", help="term-frequency JSON from setup")
    p.add_argument("--local", action="store_true",
                   help="run all parties in-process")
    p.add_argument("--peers", help="JSON file mapping party names to host:port")
    p.add_argument("--sort", action="store_true")
    p.add_argument("--top-k", type=int)
    p.add_argument("--score", help="scoring formula, e.g. '(mul key key)'")
    p.add_argument("--record", help="write the session transcript here")
    p.add_argument("--timeout", type=float, default=SERVER_TIMEOUT)
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("audit", help="audit a recorded transcript")
    p.add_argument("--transcript", required=True)
    p.add_argument("--keystore",
                   help="also scan the wire for these key bytes")
    p.set_defaults(fn=cmd_audit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    if args.command == "query" and args.local and not args.edb:
        return _die("--local requires --edb", 2)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
