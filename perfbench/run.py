"""privgraph's benchmark: closed-loop query workloads on an in-process
two-cluster deployment.

    python3 perfbench/run.py --workload set-mix --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The benchmark drives
``cluster.LocalCluster`` and ``planner.FrontEnd`` as ``privgraph query
--local`` does: both clusters' shard servers and the front-end share one
process, with one client in a closed loop (send a query, wait for the
answer, send the next), which is how the front-end itself drives servers.

A run:

1. Generates the workload from --seed (workloads.py): graph, keys, one
   pass of queries, and the oracle's answers.
2. Sets up SETUP_REPEATS times: build_edb plus starting the cluster and
   the front-end; the last deployment is kept. Then a warm-up pass runs
   every query once, which fills the sort- and merge-circuit caches.
   setup_s is the median build-and-start time plus the warm-up pass.
3. With --trace 0, times whole passes over the query list until --seconds
   have elapsed, so every query weighs the same in every run and count
   metrics repeat exactly for a seed, and reports the end-to-end metrics.
   Latency and throughput come from the fastest quarter of the passes,
   or all of them when a run fits fewer than four (see fastest_passes);
   latency percentiles are taken over each query's median over those
   passes, so that a slow pass cannot reorder the queries around a
   percentile of the mix.
4. With --trace 1, alternates untraced passes and passes under the layer
   tracer (tracing.py) until --seconds have elapsed, and reports the
   per-layer metrics; comparing the two kinds of pass gives the tracing
   overhead.

Every answer is checked against graph.PlaintextEngine; on set-mix every
query's server exponentiations are checked against the work law; in the
traced passes every frame sent goes through leakage.audit_transcript.
The process runs on one CPU (see pin_to_one_cpu). The last line of
standard output is the JSON result; a traced run also
writes its spans to .perfbench/spans-<workload>-<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
SETTLE_S = 0.2  # lets server threads finish recording a pass's last frames

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_qps": "1/s",
    "wire_bytes_per_query": "B",
    # 1 - failed_frac: bounds are shares of the parent's median, so an
    # end-to-end metric must not read 0; failed_frac is a per-layer metric
    "correct_frac": "1",
    "peak_rss_mb": "MB",
}

OPERATORS = (
    "term", "and", "or", "difference", "apply", "sorted-term", "sorted-or",
    "scored-term",
)
FRAMES = (
    "QUERY_INIT", "TUPLE_COUNT", "XTOKEN_BATCH", "RESULT", "GLOBAL_RESULT",
    "SORT_INIT", "CIRCUIT_BLOB", "GARBLER_LABELS", "OT_SETUP", "OT_EXTEND",
    "OT_PAYLOAD", "MASK_LABELS", "SORT_RESULT", "CONTRIB", "MASKS",
    "TRIPLE_GEN_INIT", "COT_BATCH", "MUL_EXCHANGE", "ERROR", "other",
)


def _per_layer_spec() -> dict:
    from tracing import LAYERS

    return {
        "planner.token_ms": "ms", "planner.xtokens": "count",
        "planner.decrypt_ms": "ms", "planner.wait_ms": "ms",
        "crypto.fe_exps": "count", "crypto.server_exps": "count",
        "crypto.exp_ms": "ms", "crypto.ot_exps": "count",
        "oxt.filter_ms": "ms", "oxt.tuples_scanned": "count",
        "oxt.survivor_ratio": "1", "bloom.probes": "count",
        "bloom.hit_ratio": "1", "server.codec_ms": "ms",
        "transport.frames": "count",
        **{f"transport.bytes.{f}": "B" for f in FRAMES},
        "circuits.build_ms": "ms", "circuits.cache_misses": "count",
        "circuits.and_gates": "count",
        "garble.garble_ms": "ms", "garble.evaluate_ms": "ms",
        "garble.table_bytes": "B",
        "sorting.local_ms": "ms", "sorting.global_ms": "ms",
        "sorting.merge_and_gates": "count", "sorting.pad_ratio": "1",
        "sorting.shard_skew_ms": "ms", "sorting.local_sizes": "count",
        "sorting.merge_sizes": "count",
        "ot.base_setup_ms": "ms", "ot.base_setups": "count",
        "ot.extension_ms": "ms", "ot.transfers": "count",
        "shares.triple_gen_ms": "ms", "shares.mul_ms": "ms",
        "scoring.eval_ms": "ms",
        "builder.build_s": "s", "builder.bytes_per_tuple": "B",
        **{f"{layer}.self_ms": "ms" for layer in LAYERS},
        **{f"{layer}.errors": "count" for layer in LAYERS},
        "leakage.violations": "count",
        "trace.overhead_frac": "1", "trace.coverage": "1",
        "trace.spans": "count", "trace.unattributed_spans": "count",
        **{f"op.{op}.p50_ms": "ms" for op in OPERATORS},
        "latency.tail_percentile": "%", "latency.samples": "count",
        "queries.failed_frac": "1",
    }


def _check_declared(spec_e2e: dict, spec_layer: dict) -> str | None:
    """BENCHMARK.json, when present, must declare exactly these metrics."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    bench = json.loads(path.read_text())
    for key, spec in (("end_to_end", spec_e2e), ("per_layer", spec_layer)):
        declared = {m["name"]: m["unit"] for m in bench.get(key, [])}
        if declared != spec:
            diff = sorted(set(declared.items()) ^ set(spec.items()))
            return f"BENCHMARK.json {key} disagrees with perfbench: {diff[:6]}"
    return None


def pin_to_one_cpu() -> None:
    """Run the whole process on one CPU. The shard servers and the
    front-end are threads that take turns holding the interpreter lock;
    spread over several virtual CPUs, every hand-off wakes a thread on
    another CPU, and the idle time that costs depends on the host's
    scheduler (up to a third of a set-mix pass on a 2-vCPU VM), not on
    the program. Threads started later inherit the mask, so call this
    before any thread starts."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[-1]})
    except (AttributeError, OSError):
        pass


# ---------------------------------------------------------------------------


class WireMeter:
    """The cluster's transcript hook: counts frames and bytes sent, per
    session and frame type, and keeps sent frames for the audit when
    ``keep`` is set. Counting by session makes per-query bytes exact even
    when a server thread records its last frame after the client returns."""

    def __init__(self):
        from privgraph.transport import HEADER_LEN, Transcript

        self.header_len = HEADER_LEN
        self.inner = Transcript()
        self.lock = self.inner.lock
        self.bytes = {}  # (session, frame name) -> bytes
        self.frames = {}  # (session, frame name) -> count
        self.sessions: list[int] = []  # in the order the client opened them
        self.keep = False

    def record(self, party, direction, frame) -> None:
        if direction != "send":
            return
        key = (frame.session, frame.name)
        with self.lock:
            if party == "frontend" and frame.name == "QUERY_INIT":
                self.sessions.append(frame.session)
            self.bytes[key] = self.bytes.get(key, 0) + self.header_len + len(frame.payload)
            self.frames[key] = self.frames.get(key, 0) + 1
            if self.keep:
                self.inner.entries.append((party, direction, frame))

    def take_entries(self):
        """The frames kept since the last call, as a Transcript."""
        with self.lock:
            transcript = type(self.inner)(entries=self.inner.entries)
            self.inner.entries = []
        return transcript

    def by_frame(self, sessions, table) -> dict:
        """Sum a per-(session, frame) table over sessions, by frame name."""
        wanted = set(sessions)
        out = {}
        with self.lock:
            for (s, name), v in table.items():
                if s in wanted:
                    out[name] = out.get(name, 0) + v
        return out


@dataclass(slots=True)
class Sample:
    qid: int  # position among all queries of the run
    index: int  # position in the pass
    op: str
    latency: float
    error: str | None
    sessions: list  # protocol sessions the front-end opened for it
    exps: tuple  # exponentiations: front-end, servers, servers' OT


class Deployment:
    """One encrypted database and the in-process cluster serving it."""

    def __init__(self, wl):
        self.wl = wl
        self.meter = WireMeter()
        self.cluster = None
        self.fe = None

    def start(self):
        """Build and start; returns (build seconds, build-and-start seconds)."""
        from privgraph.builder import build_edb
        from privgraph.cluster import LocalCluster
        from privgraph.crypto import GroupContext

        t0 = time.perf_counter()
        self.edb = build_edb(self.wl.index, self.wl.keys, GroupContext(), self.wl.config)
        t1 = time.perf_counter()
        self.cluster = LocalCluster(
            self.edb, run_mode=self.wl.run_mode, transcript=self.meter
        )
        self.fe = self.cluster.front_end(self.wl.keys, lengths=self.wl.lengths)
        return t1 - t0, time.perf_counter() - t0

    def stop(self):
        if self.cluster is not None:
            self.cluster.stop()
            self.cluster = None

    def exps(self):
        servers = self.cluster.servers.values()
        return (
            self.fe.ctx.exp_count,
            sum(s.ctx.exp_count for s in servers),
            sum(s.ot_ctx.exp_count for s in servers),
        )


class Runner:
    def __init__(self, wl, dep, oracle):
        self.wl = wl
        self.dep = dep
        self.oracle = oracle
        self.expected = [oracle.expected(q) for q in wl.queries]
        self.law = (
            [oracle.server_exps(q) for q in wl.queries] if wl.check_work_law else None
        )
        self.failures: list[str] = []
        self.attempted = 0
        self.tracer = None
        self.leakage_violations: list[str] = []
        self.forbidden = (
            wl.keys.k_stag, wl.keys.k_x, wl.keys.k_i, wl.keys.k_z, wl.keys.k_enc
        )

    def one(self, index: int) -> Sample:
        q = self.wl.queries[index]
        dep = self.dep
        n_sessions = len(dep.meter.sessions)
        before = dep.exps()
        qid = self.attempted
        root = None
        if self.tracer is not None:
            self.tracer.qid = qid
            root = self.tracer.span("frontend.query", "planner", "root", "frontend")
        error = None
        t0 = time.perf_counter()
        try:
            got = dep.fe.query(q.text, sort=q.sort, top_k=q.top_k, score=q.score)
        except Exception as exc:  # a failed query is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            got = None
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if root is not None:
            self.tracer.close(root)
        after = dep.exps()
        exps = tuple(a - b for a, b in zip(after, before))
        with dep.meter.lock:
            sessions = dep.meter.sessions[n_sessions:]
        self.attempted += 1
        if error is None:
            error = self.oracle.mismatch(q, got, self.expected[index])
        if error is None and self.law is not None and exps[1] != self.law[index]:
            error = f"work law: {exps[1]} server exponentiations, expected {self.law[index]}"
        if error is not None:
            self.failures.append(f"query {index} {q.text}: {error}")
        if self.tracer is not None:
            from privgraph.leakage import audit_transcript

            with self.tracer.suppressed():
                report = audit_transcript(
                    dep.meter.take_entries(), forbidden=self.forbidden
                )
            self.leakage_violations += report.violations
        return Sample(qid, index, q.op, latency, error, sessions, exps)

    def passes(self, seconds: float, n_passes: int | None = None):
        """Whole passes until `seconds` have elapsed (or exactly n_passes)."""
        samples = []
        t0 = time.perf_counter()
        done = 0
        while True:
            for i in range(len(self.wl.queries)):
                samples.append(self.one(i))
            done += 1
            elapsed = time.perf_counter() - t0
            if (done >= n_passes) if n_passes else (elapsed >= seconds):
                break
        time.sleep(SETTLE_S)
        return samples, elapsed, done


def kept_passes(n_passes: int) -> int:
    """How many of the fastest passes end-to-end timings come from: a
    quarter of them, or all when there are too few to leave a quarter."""
    return n_passes // 4 if n_passes >= 4 else n_passes


def fastest_passes(samples, per_pass: int) -> list:
    """The samples of the kept_passes fastest passes, ranked by the time
    the program spent on each. On a shared host the CPU's speed swings by
    a fifth within seconds (a fixed pure-Python loop does on a 2-vCPU VM),
    and a slow spell slows whole passes; the fastest passes are the least
    disturbed. A cost the program adds to every pass still counts in full."""
    passes = [samples[k:k + per_pass] for k in range(0, len(samples), per_pass)]
    passes.sort(key=lambda p: sum(s.latency for s in p))
    return [s for p in passes[: kept_passes(len(passes))] for s in p]


def query_medians(samples) -> list:
    """Each query's median latency over the passes it ran in. A run repeats
    whole passes, so this weighs every query the same whether the host let
    the run finish four passes or five, and keeps one slow pass from
    reordering queries around a percentile of the mix."""
    by_index = {}
    for s in samples:
        by_index.setdefault(s.index, []).append(s.latency)
    return [statistics.median(v) for v in by_index.values()]


def tail(latencies):
    """The highest percentile with at least ten samples beyond it: the
    eleventh-largest sample, at percentile 100 * (n - 10) / n; the largest
    when there are ten samples or fewer."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(setup_s, samples, per_pass, meter, correct_frac):
    """Latency and throughput over the fastest passes (fastest_passes);
    bytes, correctness and memory over the whole run."""
    kept = fastest_passes(samples, per_pass)
    per_query = query_medians(kept)
    tail_s, _ = tail(per_query)
    ok = sum(1 for s in kept if s.error is None)
    sessions = [x for s in samples for x in s.sessions]
    return {
        "setup_s": setup_s,
        "latency_p50_ms": statistics.median(per_query) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        # one client in a closed loop: correct queries per second of query time
        "throughput_qps": ok / sum(s.latency for s in kept),
        "wire_bytes_per_query": sum(meter.by_frame(sessions, meter.bytes).values())
        / len(samples),
        "correct_frac": correct_frac,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# ---------------------------------------------------------------------------


def storage_bytes_per_tuple(wl, edb) -> float:
    total = 0
    for cluster in edb.clusters:
        for shard in cluster:
            total += len(shard.tset.to_bytes()) + len(shard.xset.to_bytes())
    tuples = sum(len(p) for p in wl.index.values())
    return total / (2 * tuples)


def report_samples(wl, seed, samples, elapsed, n_passes) -> None:
    per_query = query_medians(samples)
    tail_s, tail_pct = tail(per_query)
    print(f"workload {wl.name} seed {seed} run mode {wl.run_mode}: "
          f"{len(wl.queries)} queries per pass, {n_passes} passes, "
          f"{len(samples)} samples in {elapsed:.2f} s")
    print(f"latency tail: p{tail_pct:.2f} over {len(per_query)} per-query medians")
    for op in dict.fromkeys(q.op for q in wl.queries):
        lat = [s.latency for s in samples if s.op == op]
        print(f"  {op:12s} {len(lat):6d} samples, p50 {1e3 * statistics.median(lat):10.2f} ms")


def traced_run(runner, dep, wl, args, builds) -> dict:
    """Alternate untraced and traced passes until --seconds have elapsed,
    so both sides see the same machine conditions; the per-layer metrics
    come from the traced passes, the overhead from comparing the two."""
    import tracing

    tracer = tracing.Tracer(dep.cluster)
    untraced, traced = [], []
    t0 = time.perf_counter()
    n_passes = 0
    while True:
        samples, _, _ = runner.passes(0.0, n_passes=1)
        untraced += samples
        runner.tracer = tracer
        dep.meter.keep = True
        tracer.install()
        try:
            samples, _, _ = runner.passes(0.0, n_passes=1)
        finally:
            tracer.uninstall()
            runner.tracer = None
            dep.meter.keep = False
        traced += samples
        n_passes += 1
        if time.perf_counter() - t0 >= args.seconds:
            break
    report_samples(wl, args.seed, untraced, time.perf_counter() - t0, n_passes)
    for name in sorted(set(tracer.missing)):
        print(f"trace: hook {name} not found in the program")
    tracing.write_spans(tracer, ROOT / ".perfbench" / f"spans-{wl.name}-{args.seed}.jsonl")
    return tracing.summarize(
        tracer, traced, untraced, dep.meter,
        build_s=statistics.median(builds),
        bytes_per_tuple=storage_bytes_per_tuple(wl, dep.edb),
        leakage_violations=len(runner.leakage_violations),
        tail_pct=tail(query_medians(untraced))[1],
        failed_frac=len(runner.failures) / runner.attempted,
        operators=OPERATORS,
        frames=FRAMES,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "privgraph" / "__init__.py").is_file():
        print(f"error: no privgraph sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    spec_layer = _per_layer_spec()
    problem = _check_declared(END_TO_END, spec_layer)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    pin_to_one_cpu()
    wl = workloads.make_workload(args.workload, args.seed)
    oracle = workloads.Oracle(wl.index)
    builds, starts = [], []
    dep = runner = None
    try:
        for _ in range(SETUP_REPEATS):
            if dep is not None:
                dep.stop()
            dep = Deployment(wl)
            build_s, start_s = dep.start()
            builds.append(build_s)
            starts.append(start_s)
        runner = Runner(wl, dep, oracle)
        t0 = time.perf_counter()
        runner.passes(0.0, n_passes=1)  # warm-up
        setup_s = statistics.median(starts) + time.perf_counter() - t0

        if args.trace:
            metrics = traced_run(runner, dep, wl, args, builds)
            units = spec_layer
        else:
            samples, elapsed, n_passes = runner.passes(args.seconds)
            report_samples(wl, args.seed, samples, elapsed, n_passes)
            print(f"end-to-end latency and throughput from the fastest "
                  f"{kept_passes(n_passes)} of {n_passes} passes")
            correct_frac = 1.0 - len(runner.failures) / runner.attempted
            metrics = end_to_end(
                setup_s, samples, len(wl.queries), dep.meter, correct_frac
            )
            units = END_TO_END
    finally:
        if dep is not None:
            dep.stop()

    for line in runner.failures[:20]:
        print(f"FAILED {line}")
    for line in runner.leakage_violations[:20]:
        print(f"LEAKAGE {line}")
    for name in units:
        print(f"  {name:32s} {metrics[name]:14.4f} {units[name]}")
    correct = (
        not runner.failures
        and not runner.leakage_violations
        and not (args.trace and metrics["trace.unattributed_spans"])
    )
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
