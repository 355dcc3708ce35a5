"""Operator command line: EDB setup, server launch, querying, benchmarks,
and the transcript leakage audit.

Commands:
    setup  — ingest an edge list, build keystore + encrypted databases
    serve  — run one index server over TCP
    query  — run a query (--local single-process mode or against peers)
    bench  — measured suites: set-queries, arithmetic, sort, throughput
    audit  — classify a recorded transcript against the leakage alphabet

Benchmark output includes published reference figures for context only;
they were measured on different hardware and are never pass/fail here.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import threading
import time
from pathlib import Path

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

    keys = MasterKeyBundle.generate(make_rng(args.seed))
    config = PartitionConfig(
        shards_per_cluster=args.shards,
        block_size=args.block_size,
        bloom_fpr=args.bloom_fpr,
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
    raw = json.loads(Path(path).read_text())
    peers = {}
    for name, addr in raw.items():
        host, port = addr.rsplit(":", 1)
        peers[name] = (host, int(port))
    return peers


def cmd_serve(args) -> int:
    from .server import IndexServer, ServerError, TcpTopology

    try:
        topology = TcpTopology(_load_peers(args.peers))
        server = IndexServer.from_edb_dir(
            args.edb, args.cluster, args.shard, topology,
            run_mode=args.run_mode, timeout=args.timeout,
        )
    except (OSError, ValueError, ServerError, KeyError) as exc:
        return _die(f"startup refused: {exc}")
    server.start()
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
    from .crypto import GroupContext, load_keystore
    from .oxt import IntegrityError
    from .planner import FrontEnd, QueryError
    from .server import TcpTopology
    from .sexpr import ParseError, parse_sexpr
    from .transport import Transcript, save_transcript

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
    if freq.is_file():
        lengths = json.loads(freq.read_text())

    transcript = Transcript() if args.record else None
    try:
        if args.local:
            edb = load_edb(args.edb, GroupContext())
            with LocalCluster(
                edb, run_mode=args.run_mode, transcript=transcript,
                timeout=args.timeout,
            ) as cluster:
                fe = cluster.front_end(
                    keys, lengths=lengths, timeout=args.timeout * 2
                )
                ids = fe.query(expr, sort=args.sort, top_k=args.top_k, score=args.score)
        else:
            if not args.peers:
                return _die("either --local or --peers is required", 2)
            peers = _load_peers(args.peers)
            n_shards = sum(1 for name in peers if name.startswith("is0"))
            fe = FrontEnd(
                keys, TcpTopology(peers), n_shards,
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
        keys = load_keystore(args.keystore)
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
# bench


def _bench_graph(n_friends: int, selectivities):
    """A star user with n_friends friends plus group terms whose posting
    lists sweep the requested sizes over those same friends."""
    from .graph import Edge, Graph

    friends = list(range(100, 100 + n_friends))
    edges = [Edge(1, f, "friend", (i % 100) + 1) for i, f in enumerate(friends)]
    for gi, s in enumerate(selectivities):
        for i in range(s):
            edges.append(Edge(gi, friends[i % len(friends)], "group", 1))
    return Graph(edges)


def bench_set_queries(args, report: dict) -> None:
    from .builder import PartitionConfig, build_edb
    from .cluster import LocalCluster
    from .crypto import GroupContext, MasterKeyBundle
    from .graph import build_inverted_index

    n = args.selectivity
    sweep = [s for s in (1, 2, 8, 32, 128, 502) if s <= args.max_selectivity]
    graph = _bench_graph(n, sweep)
    index = build_inverted_index(graph)
    keys = MasterKeyBundle.generate()
    edb = build_edb(index, keys, GroupContext(), PartitionConfig(bloom_fpr=1e-6))
    print(f"set-query suite: s-term selectivity fixed at {n}, "
          f"x-term selectivity swept {sweep}")
    rows = []
    with LocalCluster(edb) as cluster:
        # no frequency metadata: the first (s-)term is always traversed
        fe = cluster.front_end(keys, lengths=None)
        for gi, s in enumerate(sweep):
            cluster.reset_exp_counters()
            t0 = time.perf_counter()
            fe.query(f"(and friend:1 group:{gi})")
            ms = (time.perf_counter() - t0) * 1e3
            exps = sum(cluster.exp_counts().values())
            rows.append({"x_selectivity": s, "exponentiations": exps, "ms": ms})
            print(f"  |x|={s:4d}: {exps} exponentiations total "
                  f"(2 clusters x {n} x 1), {ms:7.1f} ms")
    invariant = len({r["exponentiations"] for r in rows}) == 1
    print(f"work independence: exponentiation count invariant across sweep: "
          f"{invariant}")
    print("reference context: the set-operation stage stays constant "
          "(~20 ms on the published system's hardware)")
    report["set_queries"] = {"rows": rows, "invariant": invariant}


def bench_arithmetic(args, report: dict) -> None:
    import numpy as np

    from .shares import SHARE_MODULUS, dealer_triple_gen, add, mul, rec, shr
    from .transport import loopback_pair

    n = args.size
    rng = np.random.default_rng(7)
    a = rng.integers(0, SHARE_MODULUS, size=n)
    b = rng.integers(0, SHARE_MODULUS, size=n)
    a0, a1 = shr(a, rng)
    b0, b1 = shr(b, rng)

    t0 = time.perf_counter()
    total = rec(add(a0, b0), add(a1, b1))
    add_ms = (time.perf_counter() - t0) * 1e3
    assert (total == (a + b) % SHARE_MODULUS).all()

    t0_share, t1_share = dealer_triple_gen((n,), (n,), "elementwise", 99)
    chan0, chan1 = loopback_pair("bench")
    out = {}

    def party(i, x, y, t, chan):
        out[i] = mul(x, y, t, chan)

    t0 = time.perf_counter()
    threads = [
        threading.Thread(target=party, args=(0, a0, b0, t0_share, chan0)),
        threading.Thread(target=party, args=(1, a1, b1, t1_share, chan1)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    mul_ms = (time.perf_counter() - t0) * 1e3
    assert (rec(out[0], out[1]) == (a * b) % SHARE_MODULUS).all()

    comm = chan0.bytes_sent + chan1.bytes_sent
    print(f"arithmetic suite: {n} element vectors")
    print(f"  add: {add_ms:7.2f} ms (local)")
    print(f"  mul: {mul_ms:7.2f} ms, {comm} B exchanged (one round)")
    print("reference context: ~2 ms add / ~80 ms mul at 10^4 entries on the "
          "published system's hardware")
    report["arithmetic"] = {"n": n, "add_ms": add_ms, "mul_ms": mul_ms,
                            "mul_bytes": comm}


def bench_sort(args, report: dict) -> None:
    import numpy as np

    from .circuits import build_sort_circuit, comparator_count
    from .crypto import GroupContext
    from .garble import evaluate, garble, level_schedule
    from .shares import SHARE_MODULUS
    from .sorting import local_sort_evaluator, local_sort_garbler
    from .transport import loopback_pair

    ks = [k for k in (2, 4, 8, 16, 32, 64, 128) if k <= args.max_k]
    print("sort suite: garbled local sort sessions")
    rows = []
    rng = np.random.default_rng(3)
    for k in ks:
        pw = max(k.bit_length(), 1)
        sc = build_sort_circuit(k, pw)
        levels = level_schedule(sc.circuit).n_levels
        # garbling and evaluation alone, on the schedule computed above
        t0 = time.perf_counter()
        gc, label_map, _ = garble(sc.circuit)
        garble_ms = (time.perf_counter() - t0) * 1e3
        zero_labels = {name: labels[None] for name, labels in label_map.items()}
        t0 = time.perf_counter()
        evaluate(sc.circuit, gc, zero_labels)
        evaluate_ms = (time.perf_counter() - t0) * 1e3

        scores = [int(x) for x in rng.integers(1, 1000, size=k)]
        g = [int(x) for x in rng.integers(0, SHARE_MODULUS, size=k)]
        e = [(s - gs) % SHARE_MODULUS for s, gs in zip(scores, g)]
        chan_g, chan_e = loopback_pair("sortbench")
        result = {}

        def run_g():
            result["mask"] = local_sort_garbler(chan_g, 1, g, GroupContext())

        def run_e():
            result["out"] = local_sort_evaluator(chan_e, 1, e, GroupContext())

        t0 = time.perf_counter()
        threads = [threading.Thread(target=run_g), threading.Thread(target=run_e)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ms = (time.perf_counter() - t0) * 1e3
        comm = chan_g.bytes_sent + chan_e.bytes_sent
        masked, order = result["out"]
        assert [m ^ result["mask"] for m in masked] == sorted(scores, reverse=True)
        rows.append({
            "k": k,
            "n": sc.n,
            "comparators": comparator_count(sc.n),
            "total_gates": len(sc.circuit.gates),
            "and_gates": sc.circuit.and_count,
            "levels": levels,
            "garble_ms": garble_ms,
            "evaluate_ms": evaluate_ms,
            "table_bytes": gc.tables.nbytes,
            "session_bytes": comm,
            "ms": ms,
        })
        print(f"  k={k:4d}: {comparator_count(sc.n):5d} comparators, "
              f"{len(sc.circuit.gates):7d} gates ({sc.circuit.and_count} AND), "
              f"{levels:5d} levels, garble {garble_ms:7.1f} ms, "
              f"evaluate {evaluate_ms:7.1f} ms, tables {gc.tables.nbytes / 1e6:5.2f} MB; "
              f"session {comm/1e6:6.2f} MB, {ms:8.1f} ms")
    print("reference context: published figures at k=128 are 446336 gates and "
          "9.80 MB per session (construction-dependent)")
    report["sort"] = {"rows": rows}


def bench_throughput(args, report: dict) -> None:
    from .builder import PartitionConfig, build_edb
    from .cluster import LocalCluster
    from .crypto import GroupContext, MasterKeyBundle
    from .graph import PlaintextEngine, build_inverted_index, random_graph
    from .sexpr import parse_sexpr

    graph = random_graph(args.nodes, args.edge_count, seed=13)
    index = build_inverted_index(graph)
    engine = PlaintextEngine(index)
    keys = MasterKeyBundle.generate()
    edb = build_edb(index, keys, GroupContext(), PartitionConfig(bloom_fpr=1e-6, seed=13))
    terms = sorted(index, key=lambda t: -len(index[t]))
    texts = []
    for i in range(args.queries):
        a, b, c = terms[i % 7], terms[(i + 1) % 7], terms[(i + 2) % 7]
        texts.append([f"(term {a})", f"(and {a} {b})", f"(or {a} {b} {c})"][i % 3])
    sorted_texts = texts[: max(args.queries // 6, 2)]

    def rate(fn, items):
        t0 = time.perf_counter()
        for item in items:
            fn(item)
        return len(items) / (time.perf_counter() - t0)

    base_plain = rate(lambda q: engine.query(parse_sexpr(q)), texts)
    base_sorted = rate(lambda q: engine.query(parse_sexpr(q), sort=True), sorted_texts)
    with LocalCluster(edb) as cluster:
        fe = cluster.front_end(keys, lengths=engine.lengths)
        enc_plain = rate(lambda q: fe.query(q), texts)
        enc_sorted = rate(lambda q: fe.query(q, sort=True), sorted_texts)
    print(f"throughput suite: {args.queries} set queries, "
          f"{len(sorted_texts)} sorted queries, {args.nodes} nodes")
    print(f"  set queries:    baseline {base_plain:9.1f} q/s | "
          f"encrypted {enc_plain:7.1f} q/s | ratio {enc_plain / base_plain:.4f}")
    print(f"  sorted queries: baseline {base_sorted:9.1f} q/s | "
          f"encrypted {enc_sorted:7.1f} q/s | ratio {enc_sorted / base_sorted:.4f}")
    print("reference context: on the published system, local sorting decreases "
          "throughput by 38%-49%, and global sorting pins it near 80 q/s")
    report["throughput"] = {
        "baseline_qps": base_plain, "encrypted_qps": enc_plain,
        "baseline_sorted_qps": base_sorted, "encrypted_sorted_qps": enc_sorted,
    }


def cmd_bench(args) -> int:
    suites = {
        "set-queries": bench_set_queries,
        "arithmetic": bench_arithmetic,
        "sort": bench_sort,
        "throughput": bench_throughput,
    }
    if args.suite not in suites:
        return _die(f"unknown suite {args.suite!r}; choose from {sorted(suites)}", 2)
    report: dict = {}
    suites[args.suite](args, report)
    if args.metrics:
        Path(args.metrics).write_text(json.dumps(report, indent=2))
        print(f"metrics written to {args.metrics}")
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
    p.add_argument("--bloom-fpr", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_setup)

    p = sub.add_parser("serve", help="run one index server over TCP")
    p.add_argument("--edb", required=True)
    p.add_argument("--cluster", type=int, required=True, choices=(0, 1))
    p.add_argument("--shard", type=int, required=True)
    p.add_argument("--peers", required=True,
                   help="JSON file mapping party names to host:port")
    p.add_argument("--run-mode", choices=("dealer", "secure"), default="dealer")
    p.add_argument("--timeout", type=float, default=60.0)
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
    p.add_argument("--run-mode", choices=("dealer", "secure"), default="dealer")
    p.add_argument("--timeout", type=float, default=60.0)
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("bench", help="measured benchmark suites")
    p.add_argument("--suite", required=True,
                   choices=("set-queries", "arithmetic", "sort", "throughput"))
    p.add_argument("--selectivity", type=int, default=130,
                   help="s-term posting size for the set-query suite")
    p.add_argument("--max-selectivity", type=int, default=502)
    p.add_argument("--size", type=int, default=10000,
                   help="vector length for the arithmetic suite")
    p.add_argument("--max-k", type=int, default=128,
                   help="largest sort size for the sort suite")
    p.add_argument("--nodes", type=int, default=200)
    p.add_argument("--edge-count", type=int, default=2000)
    p.add_argument("--queries", type=int, default=30)
    p.add_argument("--metrics", help="write machine-readable metrics JSON here")
    p.set_defaults(fn=cmd_bench)

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
