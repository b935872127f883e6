"""Concrete syntax: lexer, parsers and printers for protocol types (.ptype)
and per-rank processes (.proc).

The two languages share index terms, propositions and datatypes. `#` starts a
line comment. Parsing and printing round-trip: parse(print(t)) == t for every
well-formed tree, which the test suite exercises on generated corpora.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .ast import (
    Allreduce,
    AllreduceStmt,
    And,
    Array,
    BinOp,
    Cmp,
    Cond,
    Datatype,
    Float,
    For,
    Foreach,
    FRESH_BINDER,
    If,
    IndexTerm,
    IntLit,
    Integer,
    Message,
    Not,
    Or,
    Process,
    PSeq,
    PSkip,
    Proposition,
    ProtocolType,
    ProtomergeError,
    Recv,
    ReduceOp,
    Refined,
    Send,
    Seq,
    Skip,
    TrueProp,
    Var,
    build_seq,
    spine,
)

__all__ = [
    "SourceSpan",
    "ParseError",
    "parse_protocol",
    "parse_process",
    "parse_index",
    "parse_proposition",
    "parse_datatype",
    "print_protocol",
    "print_process",
    "print_index",
    "print_proposition",
    "print_datatype",
    "compact_protocol",
]


@dataclass(frozen=True, slots=True)
class SourceSpan:
    file: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


class ParseError(ProtomergeError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span}: {message}")
        self.span = span
        self.message = message


# ---------------------------------------------------------------------------
# Lexer

_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r\n]+)
      | (?P<comment>\#[^\n]*)
      | (?P<int>\d+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>\.\.|==|!=|<=|>=|[+\-*/=<>{}\[\]():;|?])
      | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)

KEYWORDS = frozenset(
    """skip message allreduce foreach for if else send recv to from
       true and or not integer float min max sum prod""".split()
)

_REDUCE_OPS = {"min": ReduceOp.MIN, "max": ReduceOp.MAX, "sum": ReduceOp.SUM, "prod": ReduceOp.PROD}

# Names that may not be bound by foreach/for/allreduce: they denote the
# ambient world size and the executing rank.
RESERVED_BINDERS = frozenset({"rank", "size"})

# (kind, text, offset): kind is "int", "ident", "keyword", "op" or "eof", and
# offset is where the token starts in the source.
_Token = tuple[str, str, int]


def _span(text: str, filename: str, offset: int) -> SourceSpan:
    """The line and column, both from 1, of offset in text."""
    return SourceSpan(filename, text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))


def _lex(text: str, filename: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws" or kind == "comment":
            continue
        tok = m.group()
        if kind == "ident":
            if tok in KEYWORDS:
                kind = "keyword"
        elif kind == "op":
            if tok == "==":
                tok = "="
        elif kind == "bad":
            raise ParseError(f"unexpected character {tok!r}", _span(text, filename, m.start()))
        tokens.append((kind, tok, m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Parser

_CMP_OPS = {"=", "!=", "<", "<=", ">", ">="}

# The deepest index term or proposition the parser accepts: no more than
# this many parentheses, `not`s and `?:` branches open at once, and no tree
# taller than this (a chain 1 + 1 + ... grows one level per operator).
# Deeper terms overflow the interpreter's stack, in the parser (eight frames
# per parenthesis) or in the passes that walk the tree.
MAX_TERM_DEPTH = 100


class _Parser:
    def __init__(self, text: str, filename: str):
        self.text = text
        self.filename = filename
        self.tokens = _lex(text, filename)
        self.pos = 0
        self.open = 0  # parentheses, `not`s and `?:` branches open
        self.heights: dict = {}  # term node above the leaves -> its height

    # -- token plumbing

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def offset(self) -> int:
        """Where the next token starts."""
        return self.tokens[self.pos][2]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.tokens[self.pos]
        return tok[0] == kind and (text is None or tok[1] == text)

    def fail(self, message: str, offset: int | None = None) -> ParseError:
        """A ParseError at offset, or at the next token."""
        if offset is None:
            offset = self.offset()
        return ParseError(message, _span(self.text, self.filename, offset))

    def unexpected(self, want: str) -> ParseError:
        kind, text, offset = self.peek()
        return self.fail(f"expected {want}, found {text or kind!r}", offset)

    def expect(self, kind: str, text: str | None = None) -> _Token:
        if not self.at(kind, text):
            raise self.unexpected(repr(text if text is not None else kind))
        return self.advance()

    def expect_eof(self) -> None:
        kind, text, offset = self.peek()
        if kind != "eof":
            raise self.fail(f"trailing input starting at {text!r}", offset)

    def ident(self, what: str = "identifier") -> str:
        if not self.at("ident"):
            raise self.unexpected(what)
        return self.advance()[1]

    def binder(self, what: str) -> str:
        offset = self.offset()
        name = self.ident(what)
        if name in RESERVED_BINDERS:
            raise self.fail(f"{name!r} is reserved and cannot be bound", offset)
        return name

    # -- expressions (index terms and propositions share one grammar level)

    def too_deep(self, offset: int) -> ParseError:
        return self.fail(f"term nests deeper than {MAX_TERM_DEPTH} levels", offset)

    def enter(self, offset: int) -> None:
        """Open one more parenthesis, `not` or `?:` branch; `open -= 1` closes it."""
        if self.open == MAX_TERM_DEPTH:
            raise self.too_deep(offset)
        self.open += 1

    def tree(self, offset: int, node, *children):
        """node, built on children, unless that makes a tree too tall."""
        height = 1 + max(self.heights.get(c, 1) for c in children)
        if height > MAX_TERM_DEPTH:
            raise self.too_deep(offset)
        self.heights[node] = height
        return node

    def expr(self) -> IndexTerm | Proposition:
        node = self.or_level()
        if self.at("op", "?"):
            offset = self.advance()[2]
            test = self.as_prop(node, offset)
            self.enter(offset)
            then = self.index_expr()
            self.expect("op", ":")
            orelse = self.index_expr()
            self.open -= 1
            return self.tree(offset, Cond(test, then, orelse), test, then, orelse)
        return node

    def index_expr(self) -> IndexTerm:
        offset = self.offset()
        return self.as_index(self.expr(), offset)

    def prop_expr(self) -> Proposition:
        offset = self.offset()
        return self.as_prop(self.expr(), offset)

    def as_index(self, node: IndexTerm | Proposition, offset: int) -> IndexTerm:
        if isinstance(node, (IntLit, Var, BinOp, Cond)):
            return node
        raise self.fail("expected an index term, found a proposition", offset)

    def as_prop(self, node: IndexTerm | Proposition, offset: int) -> Proposition:
        if isinstance(node, (TrueProp, Cmp, And, Or, Not)):
            return node
        raise self.fail("expected a proposition, found an index term", offset)

    def or_level(self) -> IndexTerm | Proposition:
        offset = self.offset()
        node = self.and_level()
        while self.at("keyword", "or"):
            at = self.advance()[2]
            rhs = self.and_level()
            lhs, rhs = self.as_prop(node, offset), self.as_prop(rhs, offset)
            node = self.tree(at, Or(lhs, rhs), lhs, rhs)
        return node

    def and_level(self) -> IndexTerm | Proposition:
        offset = self.offset()
        node = self.not_level()
        while self.at("keyword", "and"):
            at = self.advance()[2]
            rhs = self.not_level()
            lhs, rhs = self.as_prop(node, offset), self.as_prop(rhs, offset)
            node = self.tree(at, And(lhs, rhs), lhs, rhs)
        return node

    def not_level(self) -> IndexTerm | Proposition:
        if self.at("keyword", "not"):
            offset = self.advance()[2]
            self.enter(offset)
            p = self.as_prop(self.not_level(), offset)
            self.open -= 1
            return self.tree(offset, Not(p), p)
        return self.cmp_level()

    def cmp_level(self) -> IndexTerm | Proposition:
        offset = self.offset()
        node = self.add_level()
        if not (self.at("op") and self.peek()[1] in _CMP_OPS):
            return node
        # Comparison chains (a <= b <= c) desugar to a conjunction.
        prop: Proposition | None = None
        left = self.as_index(node, offset)
        while self.at("op") and self.peek()[1] in _CMP_OPS:
            _, op, at = self.advance()
            right = self.as_index(self.add_level(), offset)
            link = self.tree(at, Cmp(op, left, right), left, right)
            prop = link if prop is None else self.tree(at, And(prop, link), prop, link)
            left = right
        return prop

    def add_level(self) -> IndexTerm | Proposition:
        offset = self.offset()
        node = self.mul_level()
        while self.at("op") and self.peek()[1] in ("+", "-"):
            _, op, at = self.advance()
            rhs = self.as_index(self.mul_level(), offset)
            lhs = self.as_index(node, offset)
            node = self.tree(at, BinOp(op, lhs, rhs), lhs, rhs)
        return node

    def mul_level(self) -> IndexTerm | Proposition:
        offset = self.offset()
        node = self.atom()
        while self.at("op") and self.peek()[1] in ("*", "/"):
            _, op, at = self.advance()
            rhs = self.as_index(self.atom(), offset)
            lhs = self.as_index(node, offset)
            node = self.tree(at, BinOp(op, lhs, rhs), lhs, rhs)
        return node

    def atom(self) -> IndexTerm | Proposition:
        kind, text, _ = self.peek()
        if kind == "int":
            self.advance()
            return IntLit(int(text))
        if kind == "op" and text == "-":
            self.advance()
            return IntLit(-int(self.expect("int")[1]))
        if kind == "ident":
            self.advance()
            return Var(text)
        if kind == "keyword" and text == "true":
            self.advance()
            return TrueProp()
        if kind == "op" and text == "(":
            self.enter(self.advance()[2])
            node = self.expr()
            self.expect("op", ")")
            self.open -= 1
            return node
        raise self.unexpected("an expression")

    # Message endpoints and loop bounds: a bare literal or name, or any
    # parenthesized expression.
    def endpoint(self) -> IndexTerm:
        kind, text, _ = self.peek()
        if kind == "int":
            self.advance()
            return IntLit(int(text))
        if kind == "op" and text == "-":
            self.advance()
            return IntLit(-int(self.expect("int")[1]))
        if kind == "ident":
            self.advance()
            return Var(text)
        if kind == "op" and text == "(":
            self.enter(self.advance()[2])
            node = self.index_expr()
            self.expect("op", ")")
            self.open -= 1
            return node
        raise self.unexpected("a rank expression")

    # -- datatypes

    def datatype(self) -> Datatype:
        if self.at("keyword", "integer"):
            self.advance()
            d: Datatype = Integer()
        elif self.at("keyword", "float"):
            self.advance()
            d = Float()
        elif self.at("op", "{"):
            self.advance()
            binder = self.binder("refinement binder")
            self.expect("op", ":")
            if self.at("keyword", "integer"):
                base: Integer | Float = Integer()
            elif self.at("keyword", "float"):
                base = Float()
            else:
                raise self.fail("refinement base must be 'integer' or 'float'")
            self.advance()
            self.expect("op", "|")
            pred = self.prop_expr()
            self.expect("op", "}")
            d = Refined(binder, base, pred)
        else:
            raise self.unexpected("a datatype")
        while self.at("op", "["):
            self.advance()
            length = self.index_expr()
            self.expect("op", "]")
            d = Array(d, length)
        return d

    def reduce_op(self) -> ReduceOp:
        kind, text, _ = self.peek()
        if kind == "keyword" and text in _REDUCE_OPS:
            self.advance()
            return _REDUCE_OPS[text]
        raise self.unexpected("a reduction op (min/max/sum/prod)")

    # -- protocol types

    def protocol(self) -> ProtocolType:
        items = [self.protocol_item()]
        while self.at("op", ";"):
            self.advance()
            items.append(self.protocol_item())
        return build_seq(items)

    def protocol_item(self) -> ProtocolType:
        if self.at("keyword", "skip"):
            self.advance()
            return Skip()
        if self.at("keyword", "message"):
            self.advance()
            src = self.endpoint()
            dst = self.endpoint()
            payload = self.datatype()
            return Message(src, dst, payload)
        if self.at("keyword", "allreduce"):
            self.advance()
            op = self.reduce_op()
            if self.at("ident"):
                binder = self.binder("allreduce binder")
                self.expect("op", ":")
                payload = self.datatype()
                self.expect("op", "{")
                cont = self.protocol()
                self.expect("op", "}")
                return Allreduce(op, binder, payload, cont)
            payload = self.datatype()
            return Allreduce(op, FRESH_BINDER, payload, Skip())
        if self.at("keyword", "foreach"):
            self.advance()
            binder = self.binder("loop binder")
            self.expect("op", ":")
            lo = self.index_expr()
            self.expect("op", "..")
            hi = self.index_expr()
            self.expect("op", "{")
            body = self.protocol()
            self.expect("op", "}")
            return Foreach(binder, lo, hi, body)
        raise self.unexpected("a protocol form")

    # -- processes

    def process(self) -> Process:
        items = [self.process_item()]
        while self.at("op", ";"):
            self.advance()
            items.append(self.process_item())
        node = items[-1]
        for item in reversed(items[:-1]):
            node = PSeq(item, node)
        return node

    def process_item(self) -> Process:
        if self.at("keyword", "skip"):
            self.advance()
            return PSkip()
        if self.at("keyword", "send"):
            self.advance()
            self.expect("keyword", "to")
            to = self.endpoint()
            payload = self.datatype()
            return Send(to, payload)
        if self.at("keyword", "recv"):
            self.advance()
            self.expect("keyword", "from")
            src = self.endpoint()
            payload = self.datatype()
            return Recv(src, payload)
        if self.at("keyword", "allreduce"):
            self.advance()
            op = self.reduce_op()
            payload = self.datatype()
            return AllreduceStmt(op, payload)
        if self.at("keyword", "for"):
            self.advance()
            binder = self.binder("loop binder")
            self.expect("op", ":")
            lo = self.index_expr()
            self.expect("op", "..")
            hi = self.index_expr()
            self.expect("op", "{")
            body = self.process()
            self.expect("op", "}")
            return For(binder, lo, hi, body)
        if self.at("keyword", "if"):
            self.advance()
            test = self.prop_expr()
            self.expect("op", "{")
            then = self.process()
            self.expect("op", "}")
            self.expect("keyword", "else")
            self.expect("op", "{")
            orelse = self.process()
            self.expect("op", "}")
            return If(test, then, orelse)
        raise self.unexpected("a process statement")


def parse_protocol(text: str, filename: str = "<string>") -> ProtocolType:
    p = _Parser(text, filename)
    t = p.protocol()
    p.expect_eof()
    return t


def parse_process(text: str, filename: str = "<string>") -> Process:
    p = _Parser(text, filename)
    pr = p.process()
    p.expect_eof()
    return pr


def parse_index(text: str, filename: str = "<string>") -> IndexTerm:
    p = _Parser(text, filename)
    t = p.index_expr()
    p.expect_eof()
    return t


def parse_proposition(text: str, filename: str = "<string>") -> Proposition:
    p = _Parser(text, filename)
    t = p.prop_expr()
    p.expect_eof()
    return t


def parse_datatype(text: str, filename: str = "<string>") -> Datatype:
    p = _Parser(text, filename)
    d = p.datatype()
    p.expect_eof()
    return d


# ---------------------------------------------------------------------------
# Printers
#
# Precedence levels, loosest to tightest:
#   0 cond  1 or  2 and  3 not  4 cmp  5 add  6 mul  7 atom
# A child is parenthesized when its level is below the level its position
# requires, plus the usual left-associativity adjustment on right operands.

_ADD_LEVEL = 5
_MUL_LEVEL = 6


def _index_level(t: IndexTerm) -> int:
    match t:
        case IntLit() | Var():
            return 7
        case BinOp(op, _, _):
            return _ADD_LEVEL if op in ("+", "-") else _MUL_LEVEL
        case Cond():
            return 0
    raise TypeError(f"not an index term: {t!r}")


def print_index(t: IndexTerm, level: int = 0) -> str:
    match t:
        case IntLit(v):
            text = str(v)
            mine = 7
        case Var(name):
            text = name
            mine = 7
        case BinOp(op, l, r):
            mine = _index_level(t)
            text = f"{print_index(l, mine)} {op} {print_index(r, mine + 1)}"
        case Cond(test, then, orelse):
            mine = 0
            text = f"{print_proposition(test, 1)} ? {print_index(then, 1)} : {print_index(orelse, 0)}"
        case _:
            raise TypeError(f"not an index term: {t!r}")
    return f"({text})" if mine < level else text


def print_proposition(p: Proposition, level: int = 0) -> str:
    match p:
        case TrueProp():
            return "true"
        case Cmp(op, l, r):
            text = f"{print_index(l, _ADD_LEVEL)} {op} {print_index(r, _ADD_LEVEL)}"
            mine = 4
        case And(l, r):
            text = f"{print_proposition(l, 2)} and {print_proposition(r, 3)}"
            mine = 2
        case Or(l, r):
            text = f"{print_proposition(l, 1)} or {print_proposition(r, 2)}"
            mine = 1
        case Not(q):
            text = f"not {print_proposition(q, 3)}"
            mine = 3
        case _:
            raise TypeError(f"not a proposition: {p!r}")
    return f"({text})" if mine < level else text


def print_datatype(d: Datatype) -> str:
    match d:
        case Integer():
            return "integer"
        case Float():
            return "float"
        case Array(elem, length):
            return f"{print_datatype(elem)}[{print_index(length)}]"
        case Refined(binder, base, pred):
            return f"{{{binder}: {print_datatype(base)} | {print_proposition(pred)}}}"
    raise TypeError(f"not a datatype: {d!r}")


def _endpoint_text(t: IndexTerm) -> str:
    if isinstance(t, Var) or (isinstance(t, IntLit) and t.value >= 0):
        return print_index(t)
    return f"({print_index(t)})"


def _bound_text(t: IndexTerm) -> str:
    # Bounds sit before '..' or '{'; anything below add-level needs parens.
    return print_index(t, _ADD_LEVEL)


def print_protocol(t: ProtocolType, indent: int = 0) -> str:
    pad = "  " * indent
    match t:
        case Seq():
            return ";\n".join(print_protocol(item, indent) for item in spine(t))
        case Skip():
            return f"{pad}skip"
        case Message(src, dst, payload):
            return f"{pad}message {_endpoint_text(src)} {_endpoint_text(dst)} {print_datatype(payload)}"
        case Allreduce(op, binder, payload, cont):
            if binder == FRESH_BINDER and cont == Skip():
                return f"{pad}allreduce {op.value} {print_datatype(payload)}"
            body = print_protocol(cont, indent + 1)
            return f"{pad}allreduce {op.value} {binder}: {print_datatype(payload)} {{\n{body}\n{pad}}}"
        case Foreach(binder, lo, hi, body):
            inner = print_protocol(body, indent + 1)
            return f"{pad}foreach {binder}: {_bound_text(lo)}..{_bound_text(hi)} {{\n{inner}\n{pad}}}"
    raise TypeError(f"not a protocol type: {t!r}")


def compact_protocol(t: ProtocolType) -> str:
    """Single-line rendering used in merge traces and diagnostics."""
    match t:
        case Seq():
            return "; ".join(compact_protocol(item) for item in spine(t))
        case Skip():
            return "skip"
        case Message(src, dst, payload):
            return f"message {_endpoint_text(src)} {_endpoint_text(dst)} {print_datatype(payload)}"
        case Allreduce(op, binder, payload, cont):
            if binder == FRESH_BINDER and cont == Skip():
                return f"allreduce {op.value} {print_datatype(payload)}"
            return f"allreduce {op.value} {binder}: {print_datatype(payload)} {{ {compact_protocol(cont)} }}"
        case Foreach(binder, lo, hi, body):
            return f"foreach {binder}: {_bound_text(lo)}..{_bound_text(hi)} {{ {compact_protocol(body)} }}"
    raise TypeError(f"not a protocol type: {t!r}")


def print_process(p: Process, indent: int = 0) -> str:
    pad = "  " * indent
    match p:
        case PSeq():
            return ";\n".join(print_process(item, indent) for item in spine(p))
        case PSkip():
            return f"{pad}skip"
        case Send(to, payload):
            return f"{pad}send to {_endpoint_text(to)} {print_datatype(payload)}"
        case Recv(src, payload):
            return f"{pad}recv from {_endpoint_text(src)} {print_datatype(payload)}"
        case AllreduceStmt(op, payload):
            return f"{pad}allreduce {op.value} {print_datatype(payload)}"
        case For(binder, lo, hi, body):
            inner = print_process(body, indent + 1)
            return f"{pad}for {binder}: {_bound_text(lo)}..{_bound_text(hi)} {{\n{inner}\n{pad}}}"
        case If(test, then, orelse):
            t = print_process(then, indent + 1)
            e = print_process(orelse, indent + 1)
            return f"{pad}if {print_proposition(test)} {{\n{t}\n{pad}}} else {{\n{e}\n{pad}}}"
    raise TypeError(f"not a process: {p!r}")
