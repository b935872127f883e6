"""Reference parser: the productions that `protomerge.syntax._Parser`
replaced, kept as they were: a method call per token test (`at`, `expect`,
`keyword`), a `match` per statement and a constructor call per node. It
takes its tokens, and the offsets it places a ParseError at, from
`reference_lexer`. It is the reference that the parser's trees, and its
ParseError messages and spans, are checked against.
"""

from __future__ import annotations

import sys

import reference_lexer
from protomerge.ast import (
    CMPOPS,
    FRESH_BINDER,
    MAX_BLOCK_DEPTH,
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
    If,
    IndexTerm,
    Integer,
    IntLit,
    Message,
    Not,
    Or,
    Process,
    Proposition,
    ProtocolType,
    PSeq,
    PSkip,
    Recv,
    ReduceOp,
    Refined,
    Send,
    Seq,
    Skip,
    TrueProp,
    Var,
)
from protomerge.syntax import KEYWORDS, MAX_TERM_DEPTH, RESERVED_BINDERS, ParseError, SourceSpan

_REDUCE_OPS = {"min": ReduceOp.MIN, "max": ReduceOp.MAX, "sum": ReduceOp.SUM, "prod": ReduceOp.PROD}
_COND, _NOT, _CMP = 0, 3, 4
_LEVELS = {"or": 1, "and": 2, **dict.fromkeys(CMPOPS, _CMP), "+": 5, "-": 5, "*": 6, "/": 6}
_CONNECTIVES = {"or": Or, "and": And}
_SCALARS = {"integer": Integer, "float": Float}


def _span(text: str, filename: str, offset: int) -> SourceSpan:
    """The line and column, both from 1, of offset in text."""
    return SourceSpan(filename, text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))


def _is_name(tok: str) -> bool:
    """Whether tok is a name: an identifier that is not a keyword."""
    return tok.isidentifier() and tok not in KEYWORDS


class _Parser:
    def __init__(self, text: str, filename: str):
        self.text = text
        self.filename = filename
        lexed = reference_lexer.lex(text, filename)
        self.tokens = [tok for _, tok, _ in lexed]
        self.offsets = [offset for _, _, offset in lexed]
        self.pos = 0  # index of the next token; an error is placed by index
        self.open = 0  # parentheses, `not`s and `?:` branches open
        self.blocks = 0  # `{ ... }` blocks open
        self.heights: dict = {}  # term node above the leaves -> its height

    # -- token plumbing

    def peek(self) -> str:
        return self.tokens[self.pos]

    def at(self, text: str) -> bool:
        return self.tokens[self.pos] == text

    def fail(self, message: str, at: int | None = None) -> ParseError:
        """A ParseError at token index at, or at the next token."""
        offset = self.offsets[self.pos if at is None else at]
        return ParseError(message, _span(self.text, self.filename, offset))

    def unexpected(self, want: str) -> ParseError:
        return self.fail(f"expected {want}, found {self.peek() or 'eof'!r}")

    def expect(self, text: str) -> None:
        if self.tokens[self.pos] != text:
            raise self.unexpected(repr(text))
        self.pos += 1

    def keyword(self, words, want: str) -> str:
        """Consume the next token, which must be one of words, and return it."""
        word = self.tokens[self.pos]
        if word not in words:
            raise self.unexpected(want)
        self.pos += 1
        return word

    def expect_eof(self) -> None:
        if self.peek():
            raise self.fail(f"trailing input starting at {self.peek()!r}")

    def binder(self, what: str) -> str:
        name = self.peek()
        if not _is_name(name):
            raise self.unexpected(what)
        if name in RESERVED_BINDERS:
            raise self.fail(f"{name!r} is reserved and cannot be bound")
        self.pos += 1
        return name

    def block(self, body):
        """body() between `{` and `}`, refusing the `{` that opens a block too many."""
        at = self.pos
        self.expect("{")
        if self.blocks == MAX_BLOCK_DEPTH:
            raise self.fail(f"block nests deeper than {MAX_BLOCK_DEPTH} levels", at)
        self.blocks += 1
        node = body()
        self.blocks -= 1
        self.expect("}")
        return node

    def sequence(self, item, join):
        """item() once or more, separated by `;`, right-nested by join."""
        items = [item()]
        while self.at(";"):
            self.pos += 1
            items.append(item())
        node = items.pop()
        for first in reversed(items):
            node = join(first, node)
        return node

    def loop(self) -> tuple[str, IndexTerm, IndexTerm]:
        """`binder: lo .. hi`"""
        binder = self.binder("loop binder")
        self.expect(":")
        lo = self.index_expr()
        self.expect("..")
        return binder, lo, self.index_expr()

    # -- expressions (index terms and propositions share one grammar)

    def too_deep(self, at: int) -> ParseError:
        return self.fail(f"term nests deeper than {MAX_TERM_DEPTH} levels", at)

    def enter(self, at: int) -> None:
        """Open one more parenthesis, `not` or `?:` branch; `open -= 1` closes it."""
        if self.open == MAX_TERM_DEPTH:
            raise self.too_deep(at)
        self.open += 1

    def tree(self, at: int, node, *children):
        """node, built on children, unless that makes a tree too tall."""
        height = 1 + max(self.heights.get(c, 1) for c in children)
        if height > MAX_TERM_DEPTH:
            raise self.too_deep(at)
        self.heights[node] = height
        return node

    def expr(self) -> IndexTerm | Proposition:
        node = self.binary(_COND + 1)
        if self.at("?"):
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
        start = self.pos
        if level <= _NOT and self.at("not"):
            self.pos += 1
            self.enter(start)
            p = self.as_prop(self.binary(_NOT), start)
            self.open -= 1
            node = self.tree(start, Not(p), p)
        else:
            node = self.atom()
        chain = None  # the right operand of the comparison just read
        while True:
            op = self.tokens[self.pos]
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

    def atom(self) -> IndexTerm | Proposition:
        tok = self.tokens[self.pos]
        if tok == "(":
            return self.parens(self.expr)
        if tok == "true":
            self.pos += 1
            return TrueProp()
        return self.literal("an expression")

    # Message endpoints and loop bounds: a bare literal or name, or any
    # parenthesized expression.
    def endpoint(self) -> IndexTerm:
        if self.at("("):
            return self.parens(self.index_expr)
        return self.literal("a rank expression")

    def parens(self, inner):
        """inner() between `(` and `)`."""
        self.enter(self.pos)
        self.pos += 1
        node = inner()
        self.expect(")")
        self.open -= 1
        return node

    def literal(self, want: str) -> IndexTerm:
        """An integer, a negated integer or a name; want says what was expected."""
        tok = self.tokens[self.pos]
        if _is_name(tok):
            self.pos += 1
            return Var(tok)
        try:
            if tok.isdecimal():
                self.pos += 1
                return IntLit(int(tok))
            if tok == "-":
                self.pos += 1
                tok = self.peek()
                if not tok.isdecimal():
                    raise self.unexpected("'int'")
                self.pos += 1
                return IntLit(-int(tok))
        except ValueError:  # more digits than the interpreter converts
            limit = sys.get_int_max_str_digits()
            raise self.fail(f"integer literal has more than {limit} digits", self.pos - 1) from None
        raise self.unexpected(want)

    # -- datatypes

    def datatype(self) -> Datatype:
        word = self.keyword(("integer", "float", "{"), "a datatype")
        if word == "{":
            binder = self.binder("refinement binder")
            self.expect(":")
            base = self.peek()
            if base not in _SCALARS:
                raise self.fail("refinement base must be 'integer' or 'float'")
            self.pos += 1
            self.expect("|")
            pred = self.prop_expr()
            self.expect("}")
            d: Datatype = Refined(binder, _SCALARS[base](), pred)
        else:
            d = _SCALARS[word]()
        while self.at("["):
            self.pos += 1
            length = self.index_expr()
            self.expect("]")
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
                if not _is_name(self.peek()):
                    return Allreduce(op, FRESH_BINDER, self.datatype(), Skip())
                binder = self.binder("allreduce binder")
                self.expect(":")
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
                self.expect("to")
                return Send(self.endpoint(), self.datatype())
            case "recv":
                self.expect("from")
                return Recv(self.endpoint(), self.datatype())
            case "allreduce":
                return AllreduceStmt(self.reduce_op(), self.datatype())
            case "for":
                return For(*self.loop(), self.block(self.process))
            case "if":
                test = self.prop_expr()
                then = self.block(self.process)
                self.expect("else")
                return If(test, then, self.block(self.process))



RULES = {
    "protocol": _Parser.protocol,
    "process": _Parser.process,
    "index": _Parser.index_expr,
    "proposition": _Parser.prop_expr,
    "datatype": _Parser.datatype,
}


def parse(rule: str, text: str, filename: str = "<string>"):
    """The reading of the whole of text by rule, a key of RULES."""
    p = _Parser(text, filename)
    node = RULES[rule](p)
    p.expect_eof()
    return node
