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
    CMPOPS,
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
# Operator levels, read by the parser and the printers
#
# Loosest to tightest: `?:` 0, `or` 1, `and` 2, `not` 3, the comparisons 4,
# `+ -` 5, `* /` 6, atoms 7. A binary operator's right operand sits one
# level tighter than the operator, so operators associate to the left (and
# comparisons chain, see `_Parser.binary`). A printed child is parenthesized
# when its level is below the one its position needs.

_COND, _NOT, _CMP, _ATOM = 0, 3, 4, 7
_LEVELS = {"or": 1, "and": 2, **dict.fromkeys(CMPOPS, _CMP), "+": 5, "-": 5, "*": 6, "/": 6}
_CONNECTIVES = {"or": Or, "and": And}


# ---------------------------------------------------------------------------
# Parser

# The deepest index term or proposition the parser accepts: no more than
# this many parentheses, `not`s and `?:` branches open at once, and no tree
# taller than this (a chain 1 + 1 + ... grows one level per operator).
# Deeper terms overflow the interpreter's stack, in the parser (three frames
# per parenthesis) or in the passes that walk the tree.
MAX_TERM_DEPTH = 100

# The most `{ ... }` blocks (loop bodies, branches, allreduce continuations)
# the parser accepts open at once. Extraction and merging walk blocks
# recursively, and the parser spends four frames per block: with a term at
# MAX_TERM_DEPTH in the innermost block, this many still fit the
# interpreter's default stack.
MAX_BLOCK_DEPTH = 64

_SCALARS = {"integer": Integer, "float": Float}


class _Parser:
    def __init__(self, text: str, filename: str):
        self.text = text
        self.filename = filename
        self.tokens = _lex(text, filename)
        self.pos = 0
        self.open = 0  # parentheses, `not`s and `?:` branches open
        self.blocks = 0  # `{ ... }` blocks open
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

    def keyword(self, words, want: str) -> str:
        """Consume the next token, which must be one of words, and return it."""
        word = self.tokens[self.pos][1]
        if word not in words:
            raise self.unexpected(want)
        self.pos += 1
        return word

    def expect_eof(self) -> None:
        kind, text, offset = self.peek()
        if kind != "eof":
            raise self.fail(f"trailing input starting at {text!r}", offset)

    def binder(self, what: str) -> str:
        kind, name, offset = self.peek()
        if kind != "ident":
            raise self.unexpected(what)
        if name in RESERVED_BINDERS:
            raise self.fail(f"{name!r} is reserved and cannot be bound", offset)
        self.pos += 1
        return name

    def block(self, body):
        """body() between `{` and `}`, refusing the `{` that opens a block too many."""
        offset = self.offset()
        self.expect("op", "{")
        if self.blocks == MAX_BLOCK_DEPTH:
            raise self.fail(f"block nests deeper than {MAX_BLOCK_DEPTH} levels", offset)
        self.blocks += 1
        node = body()
        self.blocks -= 1
        self.expect("op", "}")
        return node

    def sequence(self, item, join):
        """item() once or more, separated by `;`, right-nested by join."""
        items = [item()]
        while self.at("op", ";"):
            self.advance()
            items.append(item())
        node = items.pop()
        for first in reversed(items):
            node = join(first, node)
        return node

    def loop(self) -> tuple[str, IndexTerm, IndexTerm]:
        """`binder: lo .. hi`"""
        binder = self.binder("loop binder")
        self.expect("op", ":")
        lo = self.index_expr()
        self.expect("op", "..")
        return binder, lo, self.index_expr()

    # -- expressions (index terms and propositions share one grammar)

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
        node = self.binary(_COND + 1)
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

    def binary(self, level: int) -> IndexTerm | Proposition:
        """An expression whose operators bind at level or tighter (precedence
        climbing). Operand kinds are checked at the offset where it starts."""
        offset = self.offset()
        if level <= _NOT and self.at("keyword", "not"):
            self.advance()
            self.enter(offset)
            p = self.as_prop(self.binary(_NOT), offset)
            self.open -= 1
            node = self.tree(offset, Not(p), p)
        else:
            node = self.atom()
        chain = None  # the right operand of the comparison just read
        while True:
            _, op, at = self.tokens[self.pos]
            mine = _LEVELS.get(op)
            if mine is None or mine < level:
                return node
            self.pos += 1
            if mine == _CMP:
                # A chain a <= b < c desugars to a <= b and b < c.
                left = self.as_index(node, offset) if chain is None else chain
                right = self.as_index(self.binary(_CMP + 1), offset)
                link = self.tree(at, Cmp(op, left, right), left, right)
                node = link if chain is None else self.tree(at, And(node, link), node, link)
                chain = right
                continue
            chain = None
            rhs = self.binary(mine + 1)
            if op in _CONNECTIVES:
                lhs, rhs = self.as_prop(node, offset), self.as_prop(rhs, offset)
                node = self.tree(at, _CONNECTIVES[op](lhs, rhs), lhs, rhs)
            else:
                lhs, rhs = self.as_index(node, offset), self.as_index(rhs, offset)
                node = self.tree(at, BinOp(op, lhs, rhs), lhs, rhs)

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
        word = self.keyword(("integer", "float", "{"), "a datatype")
        if word == "{":
            binder = self.binder("refinement binder")
            self.expect("op", ":")
            if self.peek()[1] not in _SCALARS:
                raise self.fail("refinement base must be 'integer' or 'float'")
            base = _SCALARS[self.advance()[1]]()
            self.expect("op", "|")
            pred = self.prop_expr()
            self.expect("op", "}")
            d: Datatype = Refined(binder, base, pred)
        else:
            d = _SCALARS[word]()
        while self.at("op", "["):
            self.advance()
            length = self.index_expr()
            self.expect("op", "]")
            d = Array(d, length)
        return d

    def reduce_op(self) -> ReduceOp:
        return _REDUCE_OPS[self.keyword(_REDUCE_OPS, "a reduction op (min/max/sum/prod)")]

    # -- protocol types

    def protocol(self) -> ProtocolType:
        return self.sequence(self.protocol_item, Seq)

    def protocol_item(self) -> ProtocolType:
        match self.keyword(("skip", "message", "allreduce", "foreach"), "a protocol form"):
            case "skip":
                return Skip()
            case "message":
                return Message(self.endpoint(), self.endpoint(), self.datatype())
            case "allreduce":
                op = self.reduce_op()
                if not self.at("ident"):
                    return Allreduce(op, FRESH_BINDER, self.datatype(), Skip())
                binder = self.binder("allreduce binder")
                self.expect("op", ":")
                payload = self.datatype()
                return Allreduce(op, binder, payload, self.block(self.protocol))
            case "foreach":
                return Foreach(*self.loop(), self.block(self.protocol))

    # -- processes

    def process(self) -> Process:
        return self.sequence(self.process_item, PSeq)

    def process_item(self) -> Process:
        match self.keyword(("skip", "send", "recv", "allreduce", "for", "if"), "a process statement"):
            case "skip":
                return PSkip()
            case "send":
                self.expect("keyword", "to")
                return Send(self.endpoint(), self.datatype())
            case "recv":
                self.expect("keyword", "from")
                return Recv(self.endpoint(), self.datatype())
            case "allreduce":
                return AllreduceStmt(self.reduce_op(), self.datatype())
            case "for":
                return For(*self.loop(), self.block(self.process))
            case "if":
                test = self.prop_expr()
                then = self.block(self.process)
                self.expect("keyword", "else")
                return If(test, then, self.block(self.process))


def _parse(rule, text: str, filename: str):
    """rule's reading of the whole of text."""
    p = _Parser(text, filename)
    node = rule(p)
    p.expect_eof()
    return node


def parse_protocol(text: str, filename: str = "<string>") -> ProtocolType:
    return _parse(_Parser.protocol, text, filename)


def parse_process(text: str, filename: str = "<string>") -> Process:
    return _parse(_Parser.process, text, filename)


def parse_index(text: str, filename: str = "<string>") -> IndexTerm:
    return _parse(_Parser.index_expr, text, filename)


def parse_proposition(text: str, filename: str = "<string>") -> Proposition:
    return _parse(_Parser.prop_expr, text, filename)


def parse_datatype(text: str, filename: str = "<string>") -> Datatype:
    return _parse(_Parser.datatype, text, filename)


# ---------------------------------------------------------------------------
# Printers


def _infix(op: str, left, right, show) -> tuple[int, str]:
    """The level and text of `left op right`, whose operands show prints."""
    mine = _LEVELS[op]
    return mine, f"{show(left, mine)} {op} {show(right, mine + 1)}"


def print_index(t: IndexTerm, level: int = 0) -> str:
    match t:
        case IntLit(v):
            mine, text = _ATOM, str(v)
        case Var(name):
            mine, text = _ATOM, name
        case BinOp(op, l, r):
            mine, text = _infix(op, l, r, print_index)
        case Cond(test, then, orelse):
            mine = _COND
            text = (
                f"{print_proposition(test, _COND + 1)} ? {print_index(then, _COND + 1)}"
                f" : {print_index(orelse, _COND)}"
            )
        case _:
            raise TypeError(f"not an index term: {t!r}")
    return f"({text})" if mine < level else text


def print_proposition(p: Proposition, level: int = 0) -> str:
    match p:
        case TrueProp():
            return "true"
        case Cmp(op, l, r):
            mine, text = _infix(op, l, r, print_index)
        case And(l, r):
            mine, text = _infix("and", l, r, print_proposition)
        case Or(l, r):
            mine, text = _infix("or", l, r, print_proposition)
        case Not(q):
            mine, text = _NOT, f"not {print_proposition(q, _NOT)}"
        case _:
            raise TypeError(f"not a proposition: {p!r}")
    return f"({text})" if mine < level else text


def print_datatype(d: Datatype) -> str:
    dims = []
    while isinstance(d, Array):
        dims.append(f"[{print_index(d.length)}]")
        d = d.elem
    match d:
        case Integer():
            text = "integer"
        case Float():
            text = "float"
        case Refined(binder, base, pred):
            text = f"{{{binder}: {print_datatype(base)} | {print_proposition(pred)}}}"
        case _:
            raise TypeError(f"not a datatype: {d!r}")
    return text + "".join(reversed(dims))


def _endpoint_text(t: IndexTerm) -> str:
    if isinstance(t, Var) or (isinstance(t, IntLit) and t.value >= 0):
        return print_index(t)
    return f"({print_index(t)})"


def _bound_text(t: IndexTerm) -> str:
    # Bounds sit before '..' or '{'; anything looser than `+` needs parens.
    return print_index(t, _LEVELS["+"])


# Protocol layouts: (indent per block, line break).
_LINES = ("  ", "\n")
_ONE_LINE = ("", " ")


def _render_protocol(t: ProtocolType, layout: tuple[str, str], depth: int) -> str:
    step, newline = layout
    pad = step * depth
    match t:
        case Seq():
            return f";{newline}".join(_render_protocol(item, layout, depth) for item in spine(t))
        case Skip():
            return f"{pad}skip"
        case Message(src, dst, payload):
            return f"{pad}message {_endpoint_text(src)} {_endpoint_text(dst)} {print_datatype(payload)}"
        case Allreduce(op, binder, payload, body):
            if binder == FRESH_BINDER and body == Skip():
                return f"{pad}allreduce {op.value} {print_datatype(payload)}"
            head = f"{pad}allreduce {op.value} {binder}: {print_datatype(payload)}"
        case Foreach(binder, lo, hi, body):
            head = f"{pad}foreach {binder}: {_bound_text(lo)}..{_bound_text(hi)}"
        case _:
            raise TypeError(f"not a protocol type: {t!r}")
    inner = _render_protocol(body, layout, depth + 1)
    return f"{head} {{{newline}{inner}{newline}{pad}}}"


def print_protocol(t: ProtocolType, indent: int = 0) -> str:
    return _render_protocol(t, _LINES, indent)


def compact_protocol(t: ProtocolType) -> str:
    """Single-line rendering used in merge traces and diagnostics."""
    return _render_protocol(t, _ONE_LINE, 0)


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
