"""Wire-frame decoders: every structural check of the transcript audit is
the decoder of the module that speaks the frame, and every decoder is
strict. On malformed input a decoder raises TransportError; anything it
accepts re-encodes to the very same bytes."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import off_curve_x
from privgraph.circuits import MAX_SORT_K
from privgraph.crypto import FIELD_PRIME, GroupContext, element_bytes
from privgraph.garble import GarbledCircuit
from privgraph.leakage import _ALPHABET
from privgraph.ot import encode_ot_extend
from privgraph.server import (
    QuerySpec,
    SubquerySpec,
    _decode_contrib,
    _decode_masks,
    _encode_contrib,
    _encode_masks,
    decode_global_result,
    decode_query_init,
    decode_xtoken_batch,
    encode_global_result,
    encode_query_init,
    encode_result,
    encode_tuple_count,
    encode_xtoken_batch,
)
from privgraph.sexpr import BoolFormula
from privgraph.shares import encode_mul_exchange
from privgraph.sorting import encode_sort_init
from privgraph.transport import MSG, TransportError

CTX = GroupContext()


# the owner's encoder for the value each table decoder returns
ENCODERS = {
    "QUERY_INIT": encode_query_init,
    "TUPLE_COUNT": encode_tuple_count,
    "XTOKEN_BATCH": lambda rows: encode_xtoken_batch(
        [[element_bytes(p) for p in row] for row in rows]
    ),
    "RESULT": lambda v: encode_result(*v),
    "GLOBAL_RESULT": encode_global_result,
    "SORT_INIT": lambda counts: b"" if counts is None else encode_sort_init(counts),
    "CIRCUIT_BLOB": lambda gc: gc.to_bytes(),
    "CONTRIB": lambda v: _encode_contrib(*v),
    "MASKS": lambda v: _encode_masks(*v),
    "MUL_EXCHANGE": lambda v: encode_mul_exchange(*v),
    "OT_EXTEND": lambda v: encode_ot_extend(*v),
}

FORMULA = BoolFormula.variable(0).or_(BoolFormula.variable(1))

# honest payloads of each frame, the seeds of the mutation fuzzing
VALID = {
    "QUERY_INIT": [
        encode_query_init(
            QuerySpec(
                [
                    SubquerySpec(b"\x01" * 16, True, 2, FORMULA),
                    SubquerySpec(b"\x02" * 16, False, 0, BoolFormula.true()),
                ],
                sort=True,
                score="(mul key key)",
            )
        ),
        encode_query_init(
            QuerySpec([SubquerySpec(b"\x03" * 16, False, 1, BoolFormula.variable(0))],
                      sort=True, score=None, top_k=10)
        ),
    ],
    "TUPLE_COUNT": [encode_tuple_count(17)],
    "XTOKEN_BATCH": [
        encode_xtoken_batch([[CTX.g_exp(1), CTX.g_exp(2)], [CTX.g_exp(3), CTX.g_exp(5)]]),
        encode_xtoken_batch([]),
    ],
    "RESULT": [
        encode_result([2, 1], [bytes([i]) * 36 for i in range(3)]),
        encode_result([2, 1], None),
    ],
    "GLOBAL_RESULT": [encode_global_result([(0, 1), (1, 0)]), encode_global_result([])],
    "SORT_INIT": [
        b"",
        encode_sort_init([3]),
        encode_sort_init([2, 0, 5]),
    ],
    "CIRCUIT_BLOB": [
        GarbledCircuit(
            np.arange(2 * 32, dtype=np.uint8).reshape(4, 16),
            np.array([1, 0, 1], dtype=np.uint8),
        ).to_bytes()
    ],
    "GARBLER_LABELS": [bytes(range(32))],
    "CONTRIB": [_encode_contrib(1, 0, [(5, 0), (7, 1)], 2), _encode_contrib(0, 0, [(5, 8)], 9)],
    "MASKS": [_encode_masks(1, 0, [99, (1 << 31) - 1]), _encode_masks(0, 1, [])],
    "MUL_EXCHANGE": [encode_mul_exchange(np.array([1, 2]), np.array([3, 4]))],
    "OT_EXTEND": [
        encode_ot_extend(b"\x05" * 8, 3, 9, bytes(range(256))),
        encode_ot_extend(b"\xff" * 8, (1 << 57) - 1, 1, bytes(128)),
    ],
}

CHECKED = sorted(name for name, (_, check) in _ALPHABET.items() if check is not None)


def test_one_table_entry_per_message_type():
    assert set(_ALPHABET) == set(MSG)
    assert set(CHECKED) == set(VALID)


@pytest.mark.parametrize("name", CHECKED)
def test_honest_payloads_decode_and_re_encode(name):
    _, check = _ALPHABET[name]
    for payload in VALID[name]:
        value = check(payload)
        if name in ENCODERS:
            assert ENCODERS[name](value) == payload


@st.composite
def _payloads(draw, name):
    """Random bytes, or an honest payload with bytes flipped, cut, added
    or inserted."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=80))
    data = bytearray(draw(st.sampled_from(VALID[name])))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("flip", "cut", "append", "insert")))
        at = draw(st.integers(0, len(data)))
        if op == "flip" and data:
            data[at % len(data)] ^= draw(st.integers(1, 255))
        elif op == "cut":
            del data[at:]
        elif op == "append":
            data += draw(st.binary(min_size=1, max_size=8))
        else:
            data[at:at] = draw(st.binary(min_size=1, max_size=4))
    return bytes(data)


@pytest.mark.parametrize("name", CHECKED)
@seed(20260518)
@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_decoders_strict_under_fuzzing(name, data):
    _, check = _ALPHABET[name]
    payload = data.draw(_payloads(name))
    try:
        value = check(payload)
    except TransportError:
        return
    if name in ENCODERS:
        assert ENCODERS[name](value) == payload
    else:  # the label frames' size rule
        assert len(payload) % 16 == 0


def _query_init(formula_bytes: bytes, n_xterms: int = 1, negate: int = 0) -> bytes:
    return (
        b"\x00\x00\x01"
        + b"\x07" * 16
        + bytes([negate])
        + n_xterms.to_bytes(2, "big")
        + len(formula_bytes).to_bytes(2, "big")
        + formula_bytes
        + b"\x00\x00"
    )


class TestStrictness:
    def test_global_result_trailing_bytes(self):
        with pytest.raises(TransportError):
            decode_global_result(b"\0\0\0\0junk")

    def test_contrib_trailing_bytes(self):
        with pytest.raises(TransportError):
            _decode_contrib(_encode_contrib(0, 0, [(1, 2)], 1) + b"x")

    def test_query_init_trailing_bytes(self):
        with pytest.raises(TransportError):
            decode_query_init(_query_init(BoolFormula.variable(0).to_bytes()) + b"x")

    def test_lone_and_rejected_at_decode(self):
        lone_and = BoolFormula(((0x02, 0),), 1).to_bytes()
        with pytest.raises(TransportError, match="empty stack"):
            decode_query_init(_query_init(lone_and))

    def test_not_opcode_rejected_at_decode(self):
        # NOT (0x04) was never sent: a difference negates a whole subquery
        not_v0 = BoolFormula(((0x01, 0), (0x04, 0)), 1).to_bytes()
        with pytest.raises(TransportError, match="opcode 0x4"):
            decode_query_init(_query_init(not_v0))

    @pytest.mark.parametrize(
        "score",
        ["(mul key", "(mul key foo)", "(pow key 2)", "(add " * 2000 + "key 1" + ")" * 2000],
    )
    def test_score_must_parse_over_the_sort_key(self, score):
        sub = SubquerySpec(b"\x07" * 16, False, 0, BoolFormula.true())
        payload = encode_query_init(QuerySpec([sub], sort=True, score=score, top_k=5))
        with pytest.raises(TransportError, match="score refused"):
            decode_query_init(payload)

    def test_two_results_rejected(self):
        two = BoolFormula(((0x01, 0), (0x01, 0)), 1).to_bytes()
        with pytest.raises(TransportError, match="single result"):
            BoolFormula.from_bytes(two)

    def test_variable_outside_formula_rejected(self):
        with pytest.raises(TransportError, match="v3"):
            BoolFormula.from_bytes(BoolFormula(((0x01, 3),), 2).to_bytes())

    def test_n_vars_must_match_n_xterms(self):
        ok = _query_init(BoolFormula.variable(0).to_bytes(), n_xterms=1)
        assert decode_query_init(ok).subqueries[0].n_xterms == 1
        with pytest.raises(TransportError, match="x-terms"):
            decode_query_init(_query_init(BoolFormula.variable(0).to_bytes(), n_xterms=2))

    def test_non_canonical_negate_byte(self):
        with pytest.raises(TransportError):
            decode_query_init(_query_init(BoolFormula.variable(0).to_bytes(), negate=2))

    def test_unknown_flags(self):
        payload = bytearray(_query_init(BoolFormula.variable(0).to_bytes()))
        payload[0] = 0x80
        with pytest.raises(TransportError, match="flags"):
            decode_query_init(bytes(payload))

    def test_score_must_be_utf8_and_flagged(self):
        body = _query_init(BoolFormula.variable(0).to_bytes())[:-2]
        with pytest.raises(TransportError, match="UTF-8"):
            decode_query_init(b"\x02" + body[1:] + b"\x00\x02\xff\xfe")
        with pytest.raises(TransportError, match="flag"):
            decode_query_init(body + b"\x00\x01k")

    def test_top_k(self):
        # t follows the header behind FLAG_TOP (0x04), only with FLAG_SORT
        # (0x01): an unsorted QUERY_INIT is byte-identical to one without t
        body = _query_init(BoolFormula.variable(0).to_bytes())
        spec = decode_query_init(b"\x05" + body[1:3] + b"\x00\x07" + body[3:])
        assert spec.sort and spec.top_k == 7
        assert decode_query_init(body).top_k is None
        for bad, why in (
            (b"\x04" + body[1:3] + b"\x00\x07" + body[3:], "unsorted"),  # t without FLAG_SORT
            # FLAG_TOP but no t bytes: t would take the bytes after it
            (b"\x05" + body[1:], "top k 1799"),
            (b"\x05\x00\x00\x00\x01", "too short"),  # no subquery, no score field
            (b"\x05\x00\x00\x00", "header"),
            (b"\x05" + body[1:3] + b"\x00\x00" + body[3:], "top k 0"),
            (b"\x05" + body[1:3] + (MAX_SORT_K + 1).to_bytes(2, "big") + body[3:], "top k"),
        ):
            with pytest.raises(TransportError, match=why):
                decode_query_init(bad)
        spec = QuerySpec([], sort=False, score=None, top_k=3)
        with pytest.raises(ValueError):
            encode_query_init(spec)

    def test_global_result_within_t(self):
        three = encode_global_result([(0, 1), (1, 0), (0, 2)])
        assert len(decode_global_result(three, 3)) == 3
        with pytest.raises(TransportError, match="over 2"):
            decode_global_result(three, 2)
        with pytest.raises(TransportError, match="entries"):
            decode_global_result(encode_global_result([(0, 0)] * (MAX_SORT_K + 1)))

    def test_contrib_holds_at_most_its_count(self):
        assert _decode_contrib(_encode_contrib(0, 0, [(5, 3)], 4))[2:] == ([(5, 3)], 4)
        with pytest.raises(TransportError, match="count"):
            _decode_contrib(_encode_contrib(0, 0, [(5, 0), (6, 1)], 1))
        with pytest.raises(TransportError, match="entries"):
            _decode_contrib(_encode_contrib(0, 0, [(5, 0)], MAX_SORT_K + 1))

    def test_status_byte(self):
        with pytest.raises(TransportError, match="status"):
            _decode_masks(_encode_masks(0, 2, []))
        with pytest.raises(TransportError, match="status"):
            _decode_contrib(_encode_contrib(0, 7, [], 0))

    def test_scores_outside_the_ring_rejected(self):
        # the merge reads 31 bits of each: a 32-bit word would be merged as
        # another score
        with pytest.raises(TransportError, match="2\\^31"):
            _decode_masks(_encode_masks(0, 0, [5, 1 << 31]))
        with pytest.raises(TransportError, match="2\\^31"):
            _decode_contrib(_encode_contrib(0, 0, [(5, 0), (1 << 31, 1)], 2))

    def test_more_than_max_sort_k_entries_rejected(self):
        with pytest.raises(TransportError, match="entries"):
            _decode_masks(_encode_masks(0, 0, [0] * (MAX_SORT_K + 1)))
        with pytest.raises(TransportError, match="entries"):
            entries = [(0, i) for i in range(MAX_SORT_K + 1)]
            _decode_contrib(_encode_contrib(0, 0, entries, MAX_SORT_K + 1))
        assert len(_decode_masks(_encode_masks(0, 0, [0] * MAX_SORT_K))[2]) == MAX_SORT_K

    def test_declared_count_checked_before_allocation(self):
        huge = b"\xff\xff\xff\xff" + b"\x00" * 6
        with pytest.raises(TransportError):
            decode_global_result(huge)
        with pytest.raises(TransportError):
            _ALPHABET["XTOKEN_BATCH"][1](b"\xff\xff\xff\xff\xff\xff")
        with pytest.raises(TransportError):
            _ALPHABET["CIRCUIT_BLOB"][1](b"PGHL\xff\xff\xff\xff\x00\x00\x00\x00")

    @pytest.mark.parametrize(
        "decode", [decode_xtoken_batch, _ALPHABET["XTOKEN_BATCH"][1]], ids=["server", "audit"]
    )
    @pytest.mark.parametrize(
        "token",
        [off_curve_x(), FIELD_PRIME.to_bytes(32, "big"), b"\xff" * 32],
        ids=["off-curve", "x=p", "x>p"],
    )
    def test_xtoken_not_a_point_rejected(self, decode, token):
        with pytest.raises(TransportError, match="P-256"):
            decode(encode_xtoken_batch([[CTX.g_exp(7), token]]))

    @pytest.mark.parametrize(
        "decode", [decode_xtoken_batch, _ALPHABET["XTOKEN_BATCH"][1]], ids=["server", "audit"]
    )
    def test_xtoken_of_wrong_length_rejected(self, decode):
        for payload in (
            encode_xtoken_batch([[CTX.g_exp(7)]])[:-1],  # a token of 31 bytes
            encode_xtoken_batch([[CTX.g_exp(7)]]) + b"\x00",  # one of 33
        ):
            with pytest.raises(TransportError, match="size"):
                decode(payload)

    def test_ot_extend_lengths_and_ranges(self):
        check = _ALPHABET["OT_EXTEND"][1]
        ok = encode_ot_extend(b"\x01" * 8, 0, 9, bytes(256))
        check(ok)
        for bad in (
            ok[:-1],  # a short matrix
            ok + bytes(128),  # a trailing row of bytes
            encode_ot_extend(b"\x01" * 8, 0, 8, bytes(256)),  # 9..16 transfers need 2 bytes a row
            encode_ot_extend(b"\x01" * 8, 0, 0, b""),  # no transfers
            encode_ot_extend(b"\x01" * 8, 1 << 57, 1, bytes(128)),  # a block at 2^57
            # blocks past 2^57, whose row indices 128 * b + j would pass 2^64
            encode_ot_extend(b"\x01" * 8, (1 << 57) - 1, 129, bytes(128 * 17)),
        ):
            with pytest.raises(TransportError):
                check(bad)
