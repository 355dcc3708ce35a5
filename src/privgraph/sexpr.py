"""S-expression query parsing and the residual boolean formula codec.

Queries arrive as text like ``(and friend:1 friend:2)``.  The grammar is

    EXPR := "(" OP ARGS ")" | TERM
    TERM := edge-type ":" id

where OP is one of term/and/or/difference/apply.  The front-end compiles
the non-s-term part of a boolean query into a postfix program over
variable indices (AND/OR opcodes) that servers evaluate per tuple; a
difference negates a whole subquery, never a variable.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .crypto import parse_term
from .transport import TransportError

__all__ = ["SExpr", "ParseError", "parse_sexpr", "BoolFormula"]

OPERATORS = ("term", "and", "or", "difference", "apply")
# an apply ranks its nested expression's results and keeps this many of them
NESTED_TOP_K = 10


class ParseError(ValueError):
    """Syntax error in a query string, tagged with the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


@dataclass(frozen=True)
class SExpr:
    op: str
    args: tuple = ()
    term: str | None = None  # op == "term"
    prefix: str | None = None  # op == "apply"

    def is_term(self) -> bool:
        return self.op == "term"

    def terms(self) -> list[str]:
        """All indexing terms mentioned, left to right."""
        if self.is_term():
            return [self.term]
        out = []
        for arg in self.args:
            out.extend(arg.terms())
        return out


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            tokens.append((ch, i))
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "()":
                j += 1
            tokens.append((text[i:j], i))
            i = j
    return tokens


def _term_node(token: str, pos: int) -> SExpr:
    try:
        parse_term(token)
    except ValueError as exc:
        raise ParseError(str(exc), pos) from None
    return SExpr(op="term", term=token)


def parse_sexpr(text: str) -> SExpr:
    """Parse a query string into an AST, validating operator arity."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty query", 0)
    node, rest = _parse_expr(tokens, 0)
    if rest != len(tokens):
        raise ParseError("trailing input after expression", tokens[rest][1])
    return node


def _parse_expr(tokens, idx) -> tuple[SExpr, int]:
    tok, pos = tokens[idx]
    if tok == ")":
        raise ParseError("unexpected ')'", pos)
    if tok != "(":
        return _term_node(tok, pos), idx + 1

    idx += 1
    if idx >= len(tokens):
        raise ParseError("unbalanced parentheses", pos)
    op, op_pos = tokens[idx]
    if op not in OPERATORS:
        raise ParseError(f"unknown operator {op!r}", op_pos)
    idx += 1

    if op == "apply":
        if idx >= len(tokens):
            raise ParseError("apply needs a prefix and a nested expression", op_pos)
        prefix, prefix_pos = tokens[idx]
        if prefix in "()":
            raise ParseError("apply prefix must be an edge-type prefix like 'friend:'", prefix_pos)
        if not prefix.endswith(":"):
            raise ParseError(f"apply prefix {prefix!r} must end with ':'", prefix_pos)
        idx += 1
        nested, idx = _parse_expr(tokens, idx)
        args = (nested,)
    else:
        args = []
        while idx < len(tokens) and tokens[idx][0] != ")":
            child, idx = _parse_expr(tokens, idx)
            args.append(child)
        args = tuple(args)

    if idx >= len(tokens) or tokens[idx][0] != ")":
        raise ParseError("unbalanced parentheses", pos)
    idx += 1

    arity_floor = {"term": 1, "and": 2, "or": 2, "difference": 2, "apply": 1}[op]
    if len(args) < arity_floor:
        raise ParseError(f"operator {op!r} needs at least {arity_floor} argument(s)", op_pos)
    if op == "term":
        if len(args) != 1 or not args[0].is_term():
            raise ParseError("term operator takes exactly one indexing term", op_pos)
        return args[0], idx
    return SExpr(op=op, args=args, prefix=prefix if op == "apply" else None), idx


# Postfix opcodes for the residual boolean formula shipped to servers.
_OP_VAR = 0x01
_OP_AND = 0x02
_OP_OR = 0x03


@dataclass(frozen=True)
class BoolFormula:
    """A postfix boolean program over variables v_0..v_{n-1}.

    Variables stand for per-tuple XSet membership bits of the query's
    x-terms; the program itself is part of the permitted query leakage.
    """

    program: tuple = ()
    n_vars: int = 0

    @classmethod
    def variable(cls, idx: int) -> "BoolFormula":
        return cls(((_OP_VAR, idx),), idx + 1)

    @classmethod
    def true(cls) -> "BoolFormula":
        return cls((), 0)

    def _combine(self, other: "BoolFormula", opcode) -> "BoolFormula":
        return BoolFormula(
            self.program + other.program + ((opcode, 0),),
            max(self.n_vars, other.n_vars),
        )

    def and_(self, other: "BoolFormula") -> "BoolFormula":
        return self._combine(other, _OP_AND)

    def or_(self, other: "BoolFormula") -> "BoolFormula":
        return self._combine(other, _OP_OR)

    def evaluate(self, values) -> bool:
        """Evaluate against per-variable truth values; empty program is True."""
        if not self.program:
            return True
        stack = []
        for opcode, operand in self.program:
            if opcode == _OP_VAR:
                if operand >= len(values):
                    raise ValueError(
                        f"formula references v{operand} but only {len(values)} values given"
                    )
                stack.append(bool(values[operand]))
            else:
                b, a = stack.pop(), stack.pop()
                stack.append((a and b) if opcode == _OP_AND else (a or b))
        if len(stack) != 1:
            raise ValueError("malformed boolean program")
        return stack[0]

    def shape(self) -> str:
        """Canonical text of the program; this is the leaked formula shape."""
        names = {_OP_AND: "&", _OP_OR: "|"}
        return " ".join(
            f"v{operand}" if opcode == _OP_VAR else names[opcode]
            for opcode, operand in self.program
        )

    def to_bytes(self) -> bytes:
        parts = [struct.pack(">HH", len(self.program), self.n_vars)]
        for opcode, operand in self.program:
            parts.append(struct.pack(">BH", opcode, operand))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "BoolFormula":
        """Strict wire decoder: the program must fill the data exactly,
        reference only v_0..v_{n_vars-1}, and leave one value on the stack."""
        if len(data) < 4:
            raise TransportError("boolean formula shorter than its header")
        count, n_vars = struct.unpack_from(">HH", data)
        if len(data) != 4 + 3 * count:
            raise TransportError("boolean formula length disagrees with its count")
        program = tuple(struct.iter_unpack(">BH", data[4:]))
        depth = 0
        for opcode, operand in program:
            if opcode == _OP_VAR:
                if operand >= n_vars:
                    raise TransportError(f"formula references v{operand} of {n_vars}")
                depth += 1
                continue
            if opcode not in (_OP_AND, _OP_OR) or operand:
                raise TransportError(f"bad boolean opcode {opcode:#x}/{operand}")
            if depth < 2:
                raise TransportError("boolean program pops an empty stack")
            depth -= 1
        if program and depth != 1:
            raise TransportError("boolean program leaves no single result")
        return cls(program, n_vars)


def formula_from_sexpr(expr: SExpr, var_of_term: dict) -> BoolFormula:
    """Compile a nested and/or expression into a postfix program, mapping
    each indexing term to its x-term variable index."""
    if expr.is_term():
        return BoolFormula.variable(var_of_term[expr.term])
    if expr.op not in ("and", "or"):
        raise ValueError(f"operator {expr.op!r} cannot appear inside a residual formula")
    result = formula_from_sexpr(expr.args[0], var_of_term)
    for arg in expr.args[1:]:
        sub = formula_from_sexpr(arg, var_of_term)
        result = result.and_(sub) if expr.op == "and" else result.or_(sub)
    return result
