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
    """,
    re.VERBOSE,
)

KEYWORDS = frozenset(
    """skip message allreduce foreach for if else send recv to from
       true and or not integer float min max sum prod""".split()
)

_REDUCE_OPS = {"min": ReduceOp.MIN, "max": ReduceOp.MAX, "sum": ReduceOp.SUM, "prod": ReduceOp.PROD}

# Names that may not be bound by foreach/for/allreduce: they denote the
# ambient world size and the executing rank.
RESERVED_BINDERS = frozenset({"rank", "size"})


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # "int" | "ident" | "keyword" | "op" | "eof"
    text: str
    span: SourceSpan


def _lex(text: str, filename: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", SourceSpan(filename, line, col))
        span = SourceSpan(filename, line, col)
        kind = m.lastgroup
        tok = m.group()
        if kind == "int":
            tokens.append(_Token("int", tok, span))
        elif kind == "ident":
            tokens.append(_Token("keyword" if tok in KEYWORDS else "ident", tok, span))
        elif kind == "op":
            tokens.append(_Token("op", "=" if tok == "==" else tok, span))
        # ws / comment: skipped
        nl = tok.count("\n")
        if nl:
            line += nl
            col = len(tok) - tok.rfind("\n")
        else:
            col += len(tok)
        pos = m.end()
    tokens.append(_Token("eof", "", SourceSpan(filename, line, col)))
    return tokens


# ---------------------------------------------------------------------------
# Parser

_CMP_OPS = {"=", "!=", "<", "<=", ">", ">="}


class _Parser:
    def __init__(self, text: str, filename: str):
        self.tokens = _lex(text, filename)
        self.pos = 0

    # -- token plumbing

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.peek()
        if not self.at(kind, text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {tok.text or tok.kind!r}", tok.span)
        return self.advance()

    def fail(self, message: str) -> ParseError:
        return ParseError(message, self.peek().span)

    def expect_eof(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"trailing input starting at {tok.text!r}", tok.span)

    def ident(self, what: str = "identifier") -> str:
        tok = self.peek()
        if tok.kind != "ident":
            raise ParseError(f"expected {what}, found {tok.text or tok.kind!r}", tok.span)
        return self.advance().text

    def binder(self, what: str) -> str:
        tok = self.peek()
        name = self.ident(what)
        if name in RESERVED_BINDERS:
            raise ParseError(f"{name!r} is reserved and cannot be bound", tok.span)
        return name

    # -- expressions (index terms and propositions share one grammar level)

    def expr(self) -> IndexTerm | Proposition:
        node = self.or_level()
        if self.at("op", "?"):
            span = self.peek().span
            self.advance()
            test = self.as_prop(node, span)
            then = self.index_expr()
            self.expect("op", ":")
            orelse = self.index_expr()
            return Cond(test, then, orelse)
        return node

    def index_expr(self) -> IndexTerm:
        span = self.peek().span
        return self.as_index(self.expr(), span)

    def prop_expr(self) -> Proposition:
        span = self.peek().span
        return self.as_prop(self.expr(), span)

    def as_index(self, node: IndexTerm | Proposition, span: SourceSpan) -> IndexTerm:
        if isinstance(node, (IntLit, Var, BinOp, Cond)):
            return node
        raise ParseError("expected an index term, found a proposition", span)

    def as_prop(self, node: IndexTerm | Proposition, span: SourceSpan) -> Proposition:
        if isinstance(node, (TrueProp, Cmp, And, Or, Not)):
            return node
        raise ParseError("expected a proposition, found an index term", span)

    def or_level(self) -> IndexTerm | Proposition:
        span = self.peek().span
        node = self.and_level()
        while self.at("keyword", "or"):
            self.advance()
            rhs = self.and_level()
            node = Or(self.as_prop(node, span), self.as_prop(rhs, span))
        return node

    def and_level(self) -> IndexTerm | Proposition:
        span = self.peek().span
        node = self.not_level()
        while self.at("keyword", "and"):
            self.advance()
            rhs = self.not_level()
            node = And(self.as_prop(node, span), self.as_prop(rhs, span))
        return node

    def not_level(self) -> IndexTerm | Proposition:
        if self.at("keyword", "not"):
            span = self.advance().span
            return Not(self.as_prop(self.not_level(), span))
        return self.cmp_level()

    def cmp_level(self) -> IndexTerm | Proposition:
        span = self.peek().span
        node = self.add_level()
        if not (self.at("op") and self.peek().text in _CMP_OPS):
            return node
        # Comparison chains (a <= b <= c) desugar to a conjunction.
        prop: Proposition | None = None
        left = self.as_index(node, span)
        while self.at("op") and self.peek().text in _CMP_OPS:
            op = self.advance().text
            right = self.as_index(self.add_level(), span)
            link = Cmp(op, left, right)
            prop = link if prop is None else And(prop, link)
            left = right
        return prop

    def add_level(self) -> IndexTerm | Proposition:
        span = self.peek().span
        node = self.mul_level()
        while self.at("op") and self.peek().text in ("+", "-"):
            op = self.advance().text
            rhs = self.as_index(self.mul_level(), span)
            node = BinOp(op, self.as_index(node, span), rhs)
        return node

    def mul_level(self) -> IndexTerm | Proposition:
        span = self.peek().span
        node = self.atom()
        while self.at("op") and self.peek().text in ("*", "/"):
            op = self.advance().text
            rhs = self.as_index(self.atom(), span)
            node = BinOp(op, self.as_index(node, span), rhs)
        return node

    def atom(self) -> IndexTerm | Proposition:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return IntLit(int(tok.text))
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            lit = self.expect("int")
            return IntLit(-int(lit.text))
        if tok.kind == "ident":
            self.advance()
            return Var(tok.text)
        if tok.kind == "keyword" and tok.text == "true":
            self.advance()
            return TrueProp()
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.expr()
            self.expect("op", ")")
            return node
        raise ParseError(f"expected an expression, found {tok.text or tok.kind!r}", tok.span)

    # Message endpoints and loop bounds: a bare literal or name, or any
    # parenthesized expression.
    def endpoint(self) -> IndexTerm:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return IntLit(int(tok.text))
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            lit = self.expect("int")
            return IntLit(-int(lit.text))
        if tok.kind == "ident":
            self.advance()
            return Var(tok.text)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.index_expr()
            self.expect("op", ")")
            return node
        raise ParseError(f"expected a rank expression, found {tok.text or tok.kind!r}", tok.span)

    # -- datatypes

    def datatype(self) -> Datatype:
        tok = self.peek()
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
            raise ParseError(f"expected a datatype, found {tok.text or tok.kind!r}", tok.span)
        while self.at("op", "["):
            self.advance()
            length = self.index_expr()
            self.expect("op", "]")
            d = Array(d, length)
        return d

    def reduce_op(self) -> ReduceOp:
        tok = self.peek()
        if tok.kind == "keyword" and tok.text in _REDUCE_OPS:
            self.advance()
            return _REDUCE_OPS[tok.text]
        raise ParseError(f"expected a reduction op (min/max/sum/prod), found {tok.text or tok.kind!r}", tok.span)

    # -- protocol types

    def protocol(self) -> ProtocolType:
        items = [self.protocol_item()]
        while self.at("op", ";"):
            self.advance()
            items.append(self.protocol_item())
        return build_seq(items)

    def protocol_item(self) -> ProtocolType:
        tok = self.peek()
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
            if self.peek().kind == "ident":
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
        raise ParseError(f"expected a protocol form, found {tok.text or tok.kind!r}", tok.span)

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
        tok = self.peek()
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
        raise ParseError(f"expected a process statement, found {tok.text or tok.kind!r}", tok.span)


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
