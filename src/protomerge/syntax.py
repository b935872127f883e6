"""Concrete syntax: lexer, parsers and printers for protocol types (.ptype)
and per-rank processes (.proc).

The two languages share index terms, propositions and datatypes. `#` starts a
line comment. Parsing and printing round-trip: parse(print(t)) == t for every
well-formed tree, which the test suite exercises on generated corpora.
"""

from __future__ import annotations

import re
import sys
from itertools import repeat

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
    MAX_BLOCK_DEPTH,
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
    _Record,
    _TABLE,
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


class SourceSpan(_Record):
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
#
# A token is its text, and "" ends the list. Its kind follows from the text:
# digits (`str.isdecimal`, the characters `\d` matches) are an integer, an
# identifier is a keyword or a name, and anything else is an operator.
# Whitespace and `#` comments are gaps; any other character is bad.
#
# One findall pass reads a text after its leading gap: each match is a token
# or a bad character, then the gap after it. Only a token is captured, so a
# text is valid when no "" comes back. Nothing follows the gap's repetition,
# so a match never backtracks, and a long gap before a bad character costs
# linear time. Where a token starts is worked out only for a ParseError, by
# scanning the text again (`_scan`).

_TOKEN = r"[A-Za-z_][A-Za-z0-9_]*|\d+|\.\.|==|!=|<=|>=|[+\-*/=<>{}\[\]():;|?]"
_COMMENT = r"\#[^\n]*"
_GAP = rf"[ \t\r\n]*(?:{_COMMENT}[ \t\r\n]*)*"
_LEX_RE = re.compile(rf"(?:({_TOKEN})|.){_GAP}")
_GAP_RE = re.compile(_GAP)
_TOKEN_RE = re.compile(rf"(?P<gap>[ \t\r\n]+|{_COMMENT})|(?P<token>{_TOKEN})|(?P<bad>.)", re.DOTALL)

KEYWORDS = frozenset(
    """skip message allreduce foreach for if else send recv to from
       true and or not integer float min max sum prod""".split()
)

_REDUCE_OPS = {"min": ReduceOp.MIN, "max": ReduceOp.MAX, "sum": ReduceOp.SUM, "prod": ReduceOp.PROD}

# Names that may not be bound by foreach/for/allreduce: they denote the
# ambient world size and the executing rank.
RESERVED_BINDERS = frozenset({"rank", "size"})


def _span(text: str, filename: str, offset: int) -> SourceSpan:
    """The line and column, both from 1, of offset in text."""
    return SourceSpan(filename, text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))


def _lex(text: str, filename: str) -> list[str]:
    """The tokens of text, "" last, with `==` spelled `=`. Raises ParseError
    at the first bad character."""
    tokens = _LEX_RE.findall(text, _GAP_RE.match(text).end())
    if "" in tokens:
        _scan(text, filename)  # raises at the first bad character
    if "==" in text:
        tokens = ["=" if tok == "==" else tok for tok in tokens]
    tokens.append("")
    return tokens


def _scan(text: str, filename: str) -> tuple[list[str], list[int]]:
    """The tokens of text, "" last, and the offset where each starts. Raises
    ParseError at the first bad character. Slower than _lex: it runs only
    to find a bad character or to place a ParseError."""
    tokens, offsets = [], []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "token":
            tokens.append(m.group())
            offsets.append(m.start())
        elif kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", _span(text, filename, m.start()))
    tokens.append("")
    offsets.append(len(text))
    return tokens, offsets


def _is_name(tok: str) -> bool:
    """Whether tok is a name: an identifier that is not a keyword."""
    return tok.isidentifier() and tok not in KEYWORDS


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
#
# A statement is read by the one production that its language's table names
# for its head keyword. A leaf is one token test and one lookup in the node
# table (`ast._TABLE`), or in _SCALARS for `integer` and `float`; a message,
# send, recv or `;` node is looked up there before its constructor is called.
#
# The deepest index term or proposition the parser accepts: no more than
# this many parentheses, `not`s and `?:` branches open at once, and no tree
# taller than this (a chain 1 + 1 + ... grows one level per operator).
# Deeper terms overflow the interpreter's stack, in the parser (three frames
# per parenthesis) or in the passes that walk the tree.
MAX_TERM_DEPTH = 100
_TOO_DEEP = f"term nests deeper than {MAX_TERM_DEPTH} levels"
_SCALARS = {"integer": Integer(), "float": Float()}


class _Parser:
    def __init__(self, text: str, filename: str):
        self.text = text
        self.filename = filename
        self.tokens = _lex(text, filename)
        self.pos = 0  # index of the next token; an error is placed by index
        self.open = 0  # parentheses, `not`s and `?:` branches open
        self.blocks = 0  # `{ ... }` blocks open
        self.heights: dict = {}  # term node above the leaves -> its height

    # -- token plumbing

    def fail(self, message: str, at: int | None = None) -> ParseError:
        """A ParseError at token index at, or at the next token."""
        offset = _scan(self.text, self.filename)[1][self.pos if at is None else at]
        return ParseError(message, _span(self.text, self.filename, offset))

    def unexpected(self, want: str) -> ParseError:
        return self.fail(f"expected {want}, found {self.tokens[self.pos] or 'eof'!r}")

    def expect(self, text: str) -> None:
        if self.tokens[self.pos] != text:
            raise self.unexpected(repr(text))
        self.pos += 1

    def expect_eof(self) -> None:
        if self.tokens[self.pos]:
            raise self.fail(f"trailing input starting at {self.tokens[self.pos]!r}")

    def binder(self, what: str) -> str:
        name = self.tokens[self.pos]
        if not _is_name(name):
            raise self.unexpected(what)
        if name in RESERVED_BINDERS:
            raise self.fail(f"{name!r} is reserved and cannot be bound")
        self.pos += 1
        return name

    def block(self, body):
        """body() between `{` and `}`, refusing the `{` that opens a block too many."""
        if self.tokens[self.pos] != "{":
            raise self.unexpected("'{'")
        if self.blocks == MAX_BLOCK_DEPTH:
            raise self.fail(f"block nests deeper than {MAX_BLOCK_DEPTH} levels")
        self.pos += 1
        self.blocks += 1
        node = body()
        self.blocks -= 1
        self.expect("}")
        return node

    def sequence(self, forms: dict, want: str, join):
        """Statements separated by `;`, right-nested by join. forms names the
        production for each head keyword; want names the statements in errors."""
        tokens = self.tokens
        items = []
        while True:
            form = forms.get(tokens[self.pos])
            if form is None:
                raise self.unexpected(want)
            self.pos += 1
            items.append(form(self))
            if tokens[self.pos] != ";":
                break
            self.pos += 1
        node = items.pop()
        for first in reversed(items):
            node = _TABLE.get((join, first, node)) or join(first, node)
        return node

    def loop(self) -> tuple[str, IndexTerm, IndexTerm]:
        """`binder: lo .. hi`"""
        binder = self.binder("loop binder")
        self.expect(":")
        lo = self.index_expr()
        self.expect("..")
        return binder, lo, self.index_expr()

    # -- expressions (index terms and propositions share one grammar)

    def enter(self, at: int) -> None:
        """Open one more parenthesis, `not` or `?:` branch; `open -= 1` closes it."""
        if self.open == MAX_TERM_DEPTH:
            raise self.fail(_TOO_DEEP, at)
        self.open += 1

    def tree(self, at: int, node, *children):
        """node, built on children, unless that makes a tree too tall."""
        height = 1 + max(map(self.heights.get, children, repeat(1)))
        if height > MAX_TERM_DEPTH:
            raise self.fail(_TOO_DEEP, at)
        self.heights[node] = height
        return node

    def expr(self) -> IndexTerm | Proposition:
        node = self.binary(_COND + 1)
        if self.tokens[self.pos] == "?":
            at = self.pos
            self.pos += 1
            test = self.as_prop(node, at)
            self.enter(at)
            then = self.index_expr()
            self.expect(":")
            orelse = self.index_expr()
            self.open -= 1
            return self.tree(at, Cond(test, then, orelse), test, then, orelse)
        return node

    def index_expr(self) -> IndexTerm:
        at = self.pos
        return self.as_index(self.expr(), at)

    def prop_expr(self) -> Proposition:
        at = self.pos
        return self.as_prop(self.expr(), at)

    def as_index(self, node: IndexTerm | Proposition, at: int) -> IndexTerm:
        if type(node) in (IntLit, Var, BinOp, Cond):
            return node
        raise self.fail("expected an index term, found a proposition", at)

    def as_prop(self, node: IndexTerm | Proposition, at: int) -> Proposition:
        if type(node) in (TrueProp, Cmp, And, Or, Not):
            return node
        raise self.fail("expected a proposition, found an index term", at)

    def binary(self, level: int) -> IndexTerm | Proposition:
        """An expression whose operators bind at level or tighter (precedence
        climbing). Operand kinds are checked at the token where it starts."""
        tokens = self.tokens
        start = self.pos
        if level <= _NOT and tokens[start] == "not":
            self.pos += 1
            self.enter(start)
            p = self.as_prop(self.binary(_NOT), start)
            self.open -= 1
            node = self.tree(start, Not(p), p)
        elif tokens[start] == "(":
            node = self.parens(self.expr)
        elif tokens[start] == "true":
            self.pos += 1
            node = TrueProp()
        else:
            node = self.leaf("an expression")
        chain = None  # the right operand of the comparison just read
        while True:
            op = tokens[self.pos]
            mine = _LEVELS.get(op)
            if mine is None or mine < level:
                return node
            at = self.pos
            self.pos += 1
            if mine == _CMP:
                # A chain a <= b < c desugars to a <= b and b < c.
                left = self.as_index(node, start) if chain is None else chain
                right = self.as_index(self.binary(_CMP + 1), start)
                link = self.tree(at, Cmp(op, left, right), left, right)
                node = link if chain is None else self.tree(at, And(node, link), node, link)
                chain = right
                continue
            chain = None
            rhs = self.binary(mine + 1)
            if op in _CONNECTIVES:
                lhs, rhs = self.as_prop(node, start), self.as_prop(rhs, start)
                node = self.tree(at, _CONNECTIVES[op](lhs, rhs), lhs, rhs)
            else:
                lhs, rhs = self.as_index(node, start), self.as_index(rhs, start)
                node = self.tree(at, BinOp(op, lhs, rhs), lhs, rhs)

    def parens(self, inner):
        """inner() between `(` and `)`."""
        self.enter(self.pos)
        self.pos += 1
        node = inner()
        self.expect(")")
        self.open -= 1
        return node

    def leaf(self, want: str = "a rank expression") -> IndexTerm:
        """An integer, a negated integer, a name or a parenthesized index term:
        a message endpoint, or binary's operand when it is no `(` or `true`.
        want says what was expected."""
        tok = self.tokens[self.pos]
        sign = 1
        if not tok.isdecimal():
            if _is_name(tok):
                self.pos += 1
                return _TABLE.get((Var, tok)) or Var(tok)
            if tok == "(":
                return self.parens(self.index_expr)
            if tok != "-":
                raise self.unexpected(want)
            self.pos += 1
            tok, sign = self.tokens[self.pos], -1
            if not tok.isdecimal():
                raise self.unexpected("'int'")
        self.pos += 1
        try:
            value = sign * int(tok)
        except ValueError:  # more digits than the interpreter converts
            limit = sys.get_int_max_str_digits()
            raise self.fail(f"integer literal has more than {limit} digits", self.pos - 1) from None
        return _TABLE.get((IntLit, value)) or IntLit(value)

    # -- datatypes

    def datatype(self) -> Datatype:
        tokens = self.tokens
        d = _SCALARS.get(tokens[self.pos])
        if d is not None:
            self.pos += 1
        elif tokens[self.pos] == "{":
            self.pos += 1
            binder = self.binder("refinement binder")
            self.expect(":")
            base = _SCALARS.get(tokens[self.pos])
            if base is None:
                raise self.fail("refinement base must be 'integer' or 'float'")
            self.pos += 1
            self.expect("|")
            pred = self.prop_expr()
            self.expect("}")
            d = Refined(binder, base, pred)
        else:
            raise self.unexpected("a datatype")
        while tokens[self.pos] == "[":
            self.pos += 1
            length = self.index_expr()
            self.expect("]")
            d = Array(d, length)
        return d

    def reduce_op(self) -> ReduceOp:
        op = _REDUCE_OPS.get(self.tokens[self.pos])
        if op is None:
            raise self.unexpected("a reduction op (min/max/sum/prod)")
        self.pos += 1
        return op

    # -- statements, each read by the production its head keyword picks

    def protocol(self) -> ProtocolType:
        return self.sequence(_PROTOCOL_FORMS, "a protocol form", Seq)

    def process(self) -> Process:
        return self.sequence(_PROCESS_FORMS, "a process statement", PSeq)

    def message(self) -> Message:
        src, dst, payload = self.leaf(), self.leaf(), self.datatype()
        return _TABLE.get((Message, src, dst, payload)) or Message(src, dst, payload)

    def transfer(self) -> Send | Recv:
        """`send to` or `recv from`, then an endpoint and a payload."""
        node, word = (Send, "to") if self.tokens[self.pos - 1] == "send" else (Recv, "from")
        if self.tokens[self.pos] != word:
            raise self.unexpected(repr(word))
        self.pos += 1
        peer, payload = self.leaf(), self.datatype()
        return _TABLE.get((node, peer, payload)) or node(peer, payload)

    def allreduce(self) -> Allreduce:
        op = self.reduce_op()
        if not _is_name(self.tokens[self.pos]):
            return Allreduce(op, FRESH_BINDER, self.datatype(), _SKIP)
        binder = self.binder("allreduce binder")
        self.expect(":")
        payload = self.datatype()
        return Allreduce(op, binder, payload, self.block(self.protocol))

    def if_stmt(self) -> If:
        test, then = self.prop_expr(), self.block(self.process)
        self.expect("else")
        return If(test, then, self.block(self.process))


_PROTOCOL_FORMS = {
    "skip": lambda p: _SKIP,
    "message": _Parser.message,
    "allreduce": _Parser.allreduce,
    "foreach": lambda p: Foreach(*p.loop(), p.block(p.protocol)),
}
_PROCESS_FORMS = {
    "skip": lambda p: _PSKIP,
    "send": _Parser.transfer,
    "recv": _Parser.transfer,
    "allreduce": lambda p: AllreduceStmt(p.reduce_op(), p.datatype()),
    "for": lambda p: For(*p.loop(), p.block(p.process)),
    "if": _Parser.if_stmt,
}
_SKIP, _PSKIP = Skip(), PSkip()


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
    kind = type(t)
    if kind is IntLit:
        mine, text = _ATOM, str(t.value)
    elif kind is Var:
        mine, text = _ATOM, t.name
    elif kind is BinOp:
        mine, text = _infix(t.op, t.left, t.right, print_index)
    elif kind is Cond:
        mine = _COND
        text = (
            f"{print_proposition(t.test, _COND + 1)} ? {print_index(t.then, _COND + 1)}"
            f" : {print_index(t.orelse, _COND)}"
        )
    else:
        raise TypeError(f"not an index term: {t!r}")
    return f"({text})" if mine < level else text


def print_proposition(p: Proposition, level: int = 0) -> str:
    kind = type(p)
    if kind is Cmp:
        mine, text = _infix(p.op, p.left, p.right, print_index)
    elif kind is TrueProp:
        return "true"
    elif kind is And:
        mine, text = _infix("and", p.left, p.right, print_proposition)
    elif kind is Or:
        mine, text = _infix("or", p.left, p.right, print_proposition)
    elif kind is Not:
        mine, text = _NOT, f"not {print_proposition(p.prop, _NOT)}"
    else:
        raise TypeError(f"not a proposition: {p!r}")
    return f"({text})" if mine < level else text


def print_datatype(d: Datatype) -> str:
    dims = []
    while type(d) is Array:
        dims.append(f"[{print_index(d.length)}]")
        d = d.elem
    if type(d) is Integer:
        text = "integer"
    elif type(d) is Float:
        text = "float"
    elif type(d) is Refined:
        text = f"{{{d.binder}: {print_datatype(d.base)} | {print_proposition(d.pred)}}}"
    else:
        raise TypeError(f"not a datatype: {d!r}")
    return text + "".join(reversed(dims))


def _endpoint_text(t: IndexTerm) -> str:
    if type(t) is Var or (type(t) is IntLit and t.value >= 0):
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
    kind = type(t)
    if kind is Message:
        return f"{pad}message {_endpoint_text(t.src)} {_endpoint_text(t.dst)} {print_datatype(t.payload)}"
    if kind is Seq:
        return f";{newline}".join(_render_protocol(item, layout, depth) for item in spine(t))
    if kind is Skip:
        return f"{pad}skip"
    if kind is Allreduce:
        body = t.cont
        if t.binder == FRESH_BINDER and body == Skip():
            return f"{pad}allreduce {t.op.value} {print_datatype(t.payload)}"
        head = f"{pad}allreduce {t.op.value} {t.binder}: {print_datatype(t.payload)}"
    elif kind is Foreach:
        body = t.body
        head = f"{pad}foreach {t.binder}: {_bound_text(t.lo)}..{_bound_text(t.hi)}"
    else:
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
    kind = type(p)
    if kind is PSeq:
        return ";\n".join(print_process(item, indent) for item in spine(p))
    if kind is PSkip:
        return f"{pad}skip"
    if kind is Send:
        return f"{pad}send to {_endpoint_text(p.to)} {print_datatype(p.payload)}"
    if kind is Recv:
        return f"{pad}recv from {_endpoint_text(p.src)} {print_datatype(p.payload)}"
    if kind is AllreduceStmt:
        return f"{pad}allreduce {p.op.value} {print_datatype(p.payload)}"
    if kind is For:
        inner = print_process(p.body, indent + 1)
        return f"{pad}for {p.binder}: {_bound_text(p.lo)}..{_bound_text(p.hi)} {{\n{inner}\n{pad}}}"
    if kind is If:
        t = print_process(p.then, indent + 1)
        e = print_process(p.orelse, indent + 1)
        return f"{pad}if {print_proposition(p.test)} {{\n{t}\n{pad}}} else {{\n{e}\n{pad}}}"
    raise TypeError(f"not a process: {p!r}")
