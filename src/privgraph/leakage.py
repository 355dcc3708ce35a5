"""Executable leakage model and transcript audit.

The profile captures what an honest-but-curious server cluster may learn
from a query workload: N (total stored pairs), per-query boolean formula
shapes, the s-term repeat pattern, per-shard posting sizes (SP), x-term
counts (XP), (s-term, x-term) result sets (RP), cross-query s-term
intersections for equal x-term sets (IP), and, for a sorted query, its t
= top_k, its scoring formula and the ranks of its first t results. The
profile is a pure function of the plaintext database and the query list;
it never touches keys.

A survivor's score is its query's formula's value at its sort key, mod
2^31 (scoring.score_value), the sort key itself for a query without a
formula: the values the sorts compare.

Of a sorted query's scores, cluster 1 learns the ranks within each shard
of its first min(k, t) entries only: each output position of a local sort
is masked with its own fresh mask, so the masked scores in CONTRIB tell
nothing of the true scores or their differences. Cluster 0 learns the
masks and the global order of the first t entries. Scores, masks and
masked scores are w bits wide, w = scoring.score_width of the query's
formula: a function of the formula, which QUERY_INIT carries, and of the
schema's sort-key range, so public and in no frame of its own.

The audit classifies every recorded frame into the allowed alphabet and
flags anything else, as well as any frame holding WINDOW bytes in a row of
a forbidden pattern; the consistency check verifies that each observable
quantity in a transcript is derivable from the profile, and that the
masked scores of a sorted query's CONTRIBs do not show one mask shared
across their entries (_contrib_leak).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .crypto import SCORE_BITS, SHARE_MODULUS, hash_to_shard
from .garble import GarbledCircuit
from .graph import PlaintextEngine, PostingList, ranked
from .ot import decode_ot_extend
from .oxt import Subquery, compile_query
from .scoring import parse_score, score_value, score_width
from .server import (
    _decode_contrib,
    _decode_masks,
    decode_global_result,
    decode_query_init,
    decode_result,
    decode_tuple_count,
    decode_xtoken_batch,
    wire_top_k,
)
from .sexpr import SExpr, parse_sexpr
from .shares import decode_mul_exchange
from .sorting import decode_sort_init
from .transport import MSG, MSG_NAMES, Transcript, TransportError

__all__ = [
    "QueryRecord",
    "LeakageProfile",
    "compute_leakage",
    "AuditReport",
    "audit_transcript",
    "Verdict",
    "check_transcript_consistency",
]


@dataclass(frozen=True)
class QueryRecord:
    expr: SExpr
    sort: bool = False
    top_k: int | None = None  # of a sorted query; None keeps every result
    score: str | None = None  # the scoring formula of a sorted query

    @classmethod
    def make(cls, query, **fields) -> "QueryRecord":
        """A record of a query given as text or parsed, its other fields by name."""
        return cls(parse_sexpr(query) if isinstance(query, str) else query, **fields)

    @property
    def t(self) -> int | None:
        return wire_top_k(self.sort, self.top_k)


@dataclass
class LeakageProfile:
    n_total: int  # N: total (id, term) pairs stored
    n_shards: int
    phi_shapes: list  # per query: formula shape per subquery
    s_bar: list  # per query: first-occurrence index of each subquery's s-term
    sp: list  # per query, per subquery: per-shard s-term tuple counts
    xp: list  # per query: x-term count per subquery
    rp: dict  # (s_term, x_term) -> frozenset of matching ids
    ip: dict  # (subquery idx, subquery idx) -> frozenset (same x-terms, different s)
    result_counts: list  # per query, per subquery: per-shard survivor counts
    survivor_scores: list  # per query, per shard: survivor scores in wire order
    ranks: list  # per sorted query: its first t descending global scores; None otherwise
    tops: list  # per query: the t its QUERY_INIT names, or None
    formulas: list  # per query: the scoring formula its QUERY_INIT names, or None


def compute_leakage(
    index: dict[str, PostingList],
    queries: list[QueryRecord],
    n_shards: int = 1,
) -> LeakageProfile:
    engine = PlaintextEngine(index)
    n_total = sum(len(p) for p in index.values())
    phi_shapes, s_bar, sp, xp = [], [], [], []
    result_counts, survivor_scores, ranks = [], [], []
    rp: dict = {}
    flat_subs: list[Subquery] = []
    seen_s: dict[str, int] = {}

    for record in queries:
        subs = compile_query(record.expr, engine.lengths)
        phi_shapes.append([s.formula.shape() for s in subs])
        xp.append([s.n_xterms for s in subs])
        q_sbar, q_sp, q_counts = [], [], []
        per_shard_scores = [[] for _ in range(n_shards)]
        formula = parse_score(record.score or "key")
        for sub in subs:
            idx = seen_s.setdefault(sub.s_term, len(flat_subs))
            q_sbar.append(idx)
            flat_subs.append(sub)
            posting = engine.posting(sub.s_term)
            counts = [0] * n_shards
            for _, eid in posting:
                counts[hash_to_shard(eid, n_shards)] += 1
            q_sp.append(counts)
            for x in sub.x_terms:
                key = (sub.s_term, x)
                if key not in rp:
                    x_ids = index[x].ids() if x in index else set()
                    rp[key] = frozenset(
                        eid for _, eid in posting if eid in x_ids
                    )
            survivors = engine.eval_boolean(
                sub.s_term, list(sub.x_terms), sub.formula, sub.negate
            )
            sub_counts = [0] * n_shards
            for sk, eid in ranked(survivors):  # the EDB's stored order
                j = hash_to_shard(eid, n_shards)
                sub_counts[j] += 1
                per_shard_scores[j].append(score_value(formula, sk) % SHARE_MODULUS)
            q_counts.append(sub_counts)
        s_bar.append(q_sbar)
        sp.append(q_sp)
        result_counts.append(q_counts)
        survivor_scores.append(per_shard_scores)
        all_scores = sum(per_shard_scores, [])
        ranks.append(sorted(all_scores, reverse=True)[: record.t] if record.sort else None)

    ip: dict = {}
    for a in range(len(flat_subs)):
        for b in range(a + 1, len(flat_subs)):
            sa, sb = flat_subs[a], flat_subs[b]
            if sa.s_term != sb.s_term and set(sa.x_terms) == set(sb.x_terms) and sa.x_terms:
                ids_a = {eid for _, eid in engine.posting(sa.s_term)}
                ids_b = {eid for _, eid in engine.posting(sb.s_term)}
                ip[(a, b)] = frozenset(ids_a & ids_b)

    return LeakageProfile(
        n_total, n_shards, phi_shapes, s_bar, sp, xp, rp, ip,
        result_counts, survivor_scores, ranks, [r.t for r in queries], [r.score for r in queries],
    )


# ---------------------------------------------------------------------------
# Transcript audit: the allowed-observable alphabet

def _whole_labels(payload: bytes) -> None:
    if len(payload) % 16:
        raise TransportError("payload is not whole 16-byte wire labels")


# frame type -> (leakage class in an honest transcript, structural check).
# The check is the decoder of the module that speaks the frame; the label
# frames and the other OT frames carry no header and keep context-free size
# rules (or none).
_ALPHABET = {
    "QUERY_INIT": ("stag + formula shape + x-term count (XP) + top k", decode_query_init),
    "TUPLE_COUNT": ("tuple counts (SP)", decode_tuple_count),
    "XTOKEN_BATCH": ("xtokens", decode_xtoken_batch),
    "RESULT": ("encrypted tuples + survivor counts", decode_result),
    "GLOBAL_RESULT": ("ranks", decode_global_result),
    "SORT_INIT": ("per-shard result counts", decode_sort_init),
    "CIRCUIT_BLOB": ("circuit blob", GarbledCircuit.from_bytes),
    "GARBLER_LABELS": ("wire labels", _whole_labels),
    "OT_SETUP": ("oblivious-transfer setup", None),
    "OT_EXTEND": ("oblivious-transfer extension", decode_ot_extend),
    "OT_PAYLOAD": ("OT corrections", None),
    "CONTRIB": ("masked scores + ranks + result count", _decode_contrib),
    "MASKS": ("masks", _decode_masks),
    "MUL_EXCHANGE": ("blinded shares", decode_mul_exchange),
    "ERROR": ("error notice", None),
}


@dataclass
class AuditReport:
    class_counts: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)


# a frame holding this many bytes in a row of a forbidden pattern shows it:
# key material cut across frames or nonces never appears whole
WINDOW = 8


def _shows(payload: bytes, pattern: bytes) -> bool:
    """Whether payload holds WINDOW bytes in a row of pattern, or all of a shorter one."""
    n = min(WINDOW, len(pattern))
    return any(pattern[i : i + n] in payload for i in range(len(pattern) - n + 1))


def audit_transcript(transcript: Transcript, forbidden: tuple = ()) -> AuditReport:
    """Classify every sent frame into the allowed alphabet; flag unknown
    types, structurally invalid payloads, and any frame showing a forbidden
    byte pattern (key material, plaintext id markers): WINDOW bytes of it
    in a row, or all of a shorter one."""
    report = AuditReport()
    for party, direction, frame in transcript.entries:
        if direction != "send":
            continue  # each frame is audited once, attributed to its sender
        name = MSG_NAMES.get(frame.type)
        if name is None or name not in _ALPHABET:
            report.violations.append(
                f"{party}: frame type 0x{frame.type:04x} outside the allowed alphabet"
            )
            continue
        cls, check = _ALPHABET[name]
        report.class_counts[cls] = report.class_counts.get(cls, 0) + 1
        if check is not None:
            try:
                check(frame.payload)
            except TransportError as exc:
                report.violations.append(f"{party}: {name} payload malformed: {exc}")
        for pattern in forbidden:
            if pattern and _shows(frame.payload, pattern):
                report.violations.append(
                    f"{party}: forbidden byte pattern on the wire in {name}"
                )
    return report


# ---------------------------------------------------------------------------
# Profile/transcript consistency


@dataclass
class Verdict:
    violations: list = field(default_factory=list)


def _sessions_in_order(entries):
    """Query sessions keyed by the front-end's QUERY_INIT frames, in issue
    order; each maps to the frames of every party in that session."""
    order = []
    sessions = {}
    for party, direction, frame in entries:
        if direction != "send":
            continue
        if (
            frame.type == MSG["QUERY_INIT"]
            and party == "frontend"
            and frame.session not in sessions
        ):
            order.append(frame.session)
            sessions[frame.session] = []
    for party, direction, frame in entries:
        if direction == "send" and frame.session in sessions:
            sessions[frame.session].append((party, frame))
    return [(sid, sessions[sid]) for sid in order]


def _contrib_leak(runs: list, width: int) -> str | None:
    """What a sorted query's CONTRIBs reveal beyond the ranks, or None.
    runs holds, per CONTRIB, (its shard's true scores, its (masked score,
    local index) entries); width is the query's score width w. Masks drawn
    fresh per position make two consecutive masked scores XOR to their
    true scores' XOR with probability 2^-w, which is 1/128 at w = 7; one
    mask shared by a shard makes every pair of its CONTRIB do so. So a
    CONTRIB, or the query's CONTRIBs together, are flagged when every
    consecutive pair coincides and the pairs number at least
    SCORE_BITS / w: fresh masks are then flagged with probability at most
    2^-31 each, as one pair was at w = 31. Shorter runs of entries cannot
    tell fresh masks from shared ones, and pass either way (at w = 7, up
    to 4 pairs)."""
    coincide = [
        [ma ^ mb == true[ia] ^ true[ib] for (ma, ia), (mb, ib) in zip(entries, entries[1:])]
        for true, entries in runs
    ]
    for pairs in coincide + [sum(coincide, [])]:
        if pairs and all(pairs) and len(pairs) * width >= SCORE_BITS:
            return f"masked scores of {len(pairs)} consecutive pairs all reveal their true XORs"
    return None


def check_transcript_consistency(
    profile: LeakageProfile, transcript: Transcript
) -> Verdict:
    """Verify that every observable quantity in the recorded sessions is
    exactly what the leakage profile predicts."""
    verdict = Verdict()
    sessions = _sessions_in_order(transcript.entries)
    if len(sessions) != len(profile.phi_shapes):
        verdict.violations.append(
            f"transcript has {len(sessions)} query sessions, profile has "
            f"{len(profile.phi_shapes)}"
        )
        return verdict

    stag_of_first: dict[int, bytes] = {}
    for qi, (sid, frames) in enumerate(sessions):
        init = next(
            f for party, f in frames
            if party == "frontend" and f.type == MSG["QUERY_INIT"]
        )
        spec = decode_query_init(init.payload)
        shapes = [s.formula.shape() for s in spec.subqueries]
        if shapes != profile.phi_shapes[qi]:
            verdict.violations.append(f"query {qi}: formula shapes differ from profile")
        if [s.n_xterms for s in spec.subqueries] != profile.xp[qi]:
            verdict.violations.append(f"query {qi}: x-term counts differ from XP")
        if spec.top_k != profile.tops[qi]:
            verdict.violations.append(
                f"query {qi}: QUERY_INIT names t = {spec.top_k}, the profile {profile.tops[qi]}"
            )
        if spec.score != profile.formulas[qi]:
            verdict.violations.append(
                f"query {qi}: QUERY_INIT names score {spec.score!r}, "
                f"the profile {profile.formulas[qi]!r}"
            )
        # repeat pattern: equal s-terms <=> byte-identical stags
        flat_base = sum(len(x) for x in profile.s_bar[:qi])
        for si, sub in enumerate(spec.subqueries):
            first = profile.s_bar[qi][si]
            if first == flat_base + si:
                stag_of_first[first] = sub.stag
            elif stag_of_first.get(first) != sub.stag:
                verdict.violations.append(
                    f"query {qi} subquery {si}: stag breaks the repeat pattern"
                )

        counts_by_shard: dict[str, list[int]] = {}
        results_by_shard: dict[str, tuple] = {}
        global_orders, contribs = [], []
        for party, frame in frames:
            if frame.type == MSG["TUPLE_COUNT"]:
                counts_by_shard.setdefault(party, []).append(
                    decode_tuple_count(frame.payload)
                )
            elif frame.type == MSG["RESULT"]:
                results_by_shard[party] = decode_result(frame.payload)
            elif frame.type == MSG["GLOBAL_RESULT"]:
                global_orders.append(decode_global_result(frame.payload))
            elif frame.type == MSG["CONTRIB"]:
                contribs.append(_decode_contrib(frame.payload))

        for party, counts in counts_by_shard.items():
            shard = int(party[3:])
            want = [per_shard[shard] for per_shard in profile.sp[qi]]
            if counts != want:
                verdict.violations.append(
                    f"query {qi} {party}: tuple counts {counts} != SP {want}"
                )
        for party, (sub_counts, _) in results_by_shard.items():
            shard = int(party[3:])
            want = [per_shard[shard] for per_shard in profile.result_counts[qi]]
            if sub_counts != want:
                verdict.violations.append(
                    f"query {qi} {party}: survivor counts {sub_counts} != profile {want}"
                )
        if profile.ranks[qi] is None:
            if global_orders:
                verdict.violations.append(
                    f"query {qi}: unexpected global ranking for an unsorted query"
                )
        else:
            if not global_orders:
                verdict.violations.append(f"query {qi}: sorted query has no ranking")
            for order in global_orders:
                scores = []
                seen = set()
                ok = True
                for j, i in order:
                    if (j, i) in seen or j >= profile.n_shards or i >= len(
                        profile.survivor_scores[qi][j]
                    ):
                        ok = False
                        break
                    seen.add((j, i))
                    scores.append(profile.survivor_scores[qi][j][i])
                if not ok or len(order) != len(profile.ranks[qi]):
                    verdict.violations.append(
                        f"query {qi}: global ranking of {len(order)} distinct survivors, "
                        f"not {len(profile.ranks[qi])}"
                    )
                elif scores != profile.ranks[qi]:
                    verdict.violations.append(
                        f"query {qi}: ranking order disagrees with the leakage ranks"
                    )
            runs = []
            for shard, _, entries, count in contribs:
                if shard >= profile.n_shards or any(
                    i >= len(profile.survivor_scores[qi][shard]) for _, i in entries
                ):
                    verdict.violations.append(
                        f"query {qi} shard {shard}: CONTRIB names an entry outside the survivors"
                    )
                    continue
                true = profile.survivor_scores[qi][shard]
                runs.append((true, entries))
                k = len(true)
                if (count, len(entries)) != (k, min(k, profile.tops[qi] or k)):
                    verdict.violations.append(
                        f"query {qi} shard {shard}: CONTRIB of {len(entries)} entries "
                        f"of {count}, not min(k, t) of k = {k}"
                    )
            leak = _contrib_leak(runs, score_width(spec.score))
            if leak:
                verdict.violations.append(f"query {qi}: CONTRIB {leak}")
    return verdict
