"""Core value language: index terms, propositions, datatypes, protocol types,
processes, typing contexts, and the diagnostics they produce.

Everything here is an immutable tree. The nodes of index terms, propositions,
datatypes, protocol types and processes are hash-consed: building a node looks
its class and fields up in one table, so structurally equal nodes are one
object, and == and hash are identity, O(1) at any depth.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Mapping, Union


class ProtomergeError(Exception):
    """Base class for every error this package raises deliberately."""


class DivisionByZero(ProtomergeError):
    """Raised when index-term evaluation divides by zero."""


class UnboundVariable(ProtomergeError):
    """Raised when evaluation meets a variable missing from its environment."""


# ---------------------------------------------------------------------------
# Hash-consing (Filliatre & Conchon, "Type-safe modular hash-consing", 2006)

# Every node built, keyed by (class, *fields). Its fields are strings, ints,
# enum members and nodes that are already interned, so a key hashes and
# compares in time independent of the node's depth. It lives as long as the
# process.
_TABLE: dict[tuple, "_Node"] = {}


class _Node:
    """Base of the interned node classes. Each is a frozen slots dataclass
    with eq=False and init=False over this class, built positionally."""

    __slots__ = ()

    def __new__(cls, *args):
        key = (cls, *args)
        node = _TABLE.get(key)
        if node is None:
            names = cls.__slots__
            if len(args) != len(names):
                raise TypeError(f"{cls.__name__} takes {len(names)} positional arguments, got {len(args)}")
            node = object.__new__(cls)
            for name, value in zip(names, args):
                object.__setattr__(node, name, value)
            if hasattr(node, "__post_init__"):
                node.__post_init__()
            _TABLE[key] = node
        return node

    def __reduce__(self):
        # copy and pickle rebuild through the table.
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


# ---------------------------------------------------------------------------
# Index terms


@dataclass(frozen=True, slots=True, eq=False, init=False)
class IntLit(_Node):
    value: int

    def __new__(cls, value):
        # True == 1 and hash(True) == hash(1): a bool would find an int's
        # entry in the table, or leave one that prints as True.
        if type(value) is not int:
            raise TypeError(f"IntLit value must be an int, not {type(value).__name__}")
        return _Node.__new__(cls, value)


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Var(_Node):
    name: str


BINOPS = ("+", "-", "*", "/")


@dataclass(frozen=True, slots=True, eq=False, init=False)
class BinOp(_Node):
    op: str
    left: "IndexTerm"
    right: "IndexTerm"

    def __post_init__(self) -> None:
        if self.op not in BINOPS:
            raise ValueError(f"unknown index operator {self.op!r}")


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Cond(_Node):
    """Conditional index term: ``test ? then : orelse``."""

    test: "Proposition"
    then: "IndexTerm"
    orelse: "IndexTerm"


IndexTerm = Union[IntLit, Var, BinOp, Cond]


# ---------------------------------------------------------------------------
# Propositions


@dataclass(frozen=True, slots=True, eq=False, init=False)
class TrueProp(_Node):
    pass


CMPOPS = ("=", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Cmp(_Node):
    op: str
    left: IndexTerm
    right: IndexTerm

    def __post_init__(self) -> None:
        if self.op not in CMPOPS:
            raise ValueError(f"unknown comparison {self.op!r}")


@dataclass(frozen=True, slots=True, eq=False, init=False)
class And(_Node):
    left: "Proposition"
    right: "Proposition"


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Or(_Node):
    left: "Proposition"
    right: "Proposition"


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Not(_Node):
    prop: "Proposition"


Proposition = Union[TrueProp, Cmp, And, Or, Not]


# ---------------------------------------------------------------------------
# Datatypes


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Integer(_Node):
    pass


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Float(_Node):
    pass


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Array(_Node):
    elem: "Datatype"
    length: IndexTerm


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Refined(_Node):
    """Refinement type ``{binder : base | pred}``; base is Integer or Float."""

    binder: str
    base: Union[Integer, Float]
    pred: Proposition


Datatype = Union[Integer, Float, Array, Refined]


class ReduceOp(enum.Enum):
    MIN = "min"
    MAX = "max"
    SUM = "sum"
    PROD = "prod"


# ---------------------------------------------------------------------------
# Protocol types


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Skip(_Node):
    pass


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Message(_Node):
    src: IndexTerm
    dst: IndexTerm
    payload: Datatype


# Binder name used when an allreduce is written without one. The short
# syntactic form round-trips only through this exact name.
FRESH_BINDER = "_"


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Allreduce(_Node):
    op: ReduceOp
    binder: str
    payload: Datatype
    cont: "ProtocolType"


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Foreach(_Node):
    binder: str
    lo: IndexTerm
    hi: IndexTerm
    body: "ProtocolType"


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Seq(_Node):
    first: "ProtocolType"
    second: "ProtocolType"


ProtocolType = Union[Skip, Message, Allreduce, Foreach, Seq]


# ---------------------------------------------------------------------------
# Processes (the per-rank input DSL)


@dataclass(frozen=True, slots=True, eq=False, init=False)
class PSkip(_Node):
    pass


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Send(_Node):
    to: IndexTerm
    payload: Datatype


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Recv(_Node):
    src: IndexTerm
    payload: Datatype


@dataclass(frozen=True, slots=True, eq=False, init=False)
class AllreduceStmt(_Node):
    op: ReduceOp
    payload: Datatype


@dataclass(frozen=True, slots=True, eq=False, init=False)
class For(_Node):
    binder: str
    lo: IndexTerm
    hi: IndexTerm
    body: "Process"


@dataclass(frozen=True, slots=True, eq=False, init=False)
class If(_Node):
    test: Proposition
    then: "Process"
    orelse: "Process"


@dataclass(frozen=True, slots=True, eq=False, init=False)
class PSeq(_Node):
    first: "Process"
    second: "Process"


Process = Union[PSkip, Send, Recv, AllreduceStmt, For, If, PSeq]


# ---------------------------------------------------------------------------
# The sequence spine
#
# A Seq (or PSeq) tree is read as the list of its non-sequence items, left to
# right. In sequence normal form it is right-nested, holds no Skip item, and
# every loop and allreduce body is normal too. Extraction emits it, the entry
# points (merge_types, attempt_rule, unfold_foreach) set it, and the merge
# rules keep it. These walks keep their own stack: length costs no depth.


def spine(t: ProtocolType | Process) -> list:
    """The items of t's Seq or PSeq nodes, left to right, at any nesting."""
    cls = PSeq if isinstance(t, PSeq) else Seq
    items: list = []
    todo = [t]
    while todo:
        node = todo.pop()
        if type(node) is cls:
            todo += (node.second, node.first)
        else:
            items.append(node)
    return items


def map_spine(t, leaf: Callable):
    """t with each spine item x replaced by leaf(x), called left to right;
    the Seq and PSeq nodes keep their shape."""
    cls = PSeq if isinstance(t, PSeq) else Seq
    if type(t) is not cls:
        return leaf(t)
    done: list = []
    # Nodes still to walk, last one first; None joins the two results on
    # top of `done` into one sequence node.
    todo: list = [t]
    while todo:
        node = todo.pop()
        if node is None:
            second = done.pop()
            done[-1] = cls(done[-1], second)
        elif type(node) is cls:
            todo += (None, node.second, node.first)
        else:
            done.append(leaf(node))
    return done[0]


def build_seq(items: list[ProtocolType], rest: ProtocolType | None = None) -> ProtocolType:
    """Right-nest items in front of rest (or of nothing); Skip() when empty."""
    node = rest
    for item in reversed(items):
        node = item if node is None else Seq(item, node)
    return Skip() if node is None else node


def concat(first: ProtocolType, second: ProtocolType) -> ProtocolType:
    """The normal form of `first; second`, for two normal forms."""
    if isinstance(second, Skip):
        return first
    if isinstance(first, Skip):
        return second
    return build_seq(spine(first), second)


def normalize_seq(t: ProtocolType) -> ProtocolType:
    """Right-associate sequences and drop skip units, in every body too.
    Idempotent."""
    items = []
    for node in spine(t):
        match node:
            case Skip():
                continue
            case Allreduce(op, binder, payload, cont):
                node = Allreduce(op, binder, payload, normalize_seq(cont))
            case Foreach(binder, lo, hi, body):
                node = Foreach(binder, lo, hi, normalize_seq(body))
        items.append(node)
    return build_seq(items)


# ---------------------------------------------------------------------------
# Typing contexts


@dataclass(frozen=True, slots=True)
class TypingContext:
    """Ordered association of names to datatypes.

    Later entries may reference earlier names in their refinements, so order
    is significant and preserved.
    """

    entries: tuple[tuple[str, Datatype], ...] = ()
    # The entries' domains, hulls and dependencies, resolved once by
    # protomerge.logic on its first query. A context never changes, so the
    # resolution never goes stale; it takes no part in ==, hash or repr.
    _resolution: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = [n for n, _ in self.entries]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate context entries in {names}")

    def lookup(self, name: str) -> Datatype | None:
        for n, d in self.entries:
            if n == name:
                return d
        return None

    def extend(self, name: str, dtype: Datatype) -> "TypingContext":
        if self.lookup(name) is not None:
            # Rebinding shadows: drop the old entry, append the new one.
            kept = tuple(e for e in self.entries if e[0] != name)
            return TypingContext(kept + ((name, dtype),))
        return TypingContext(self.entries + ((name, dtype),))

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.entries)


# ---------------------------------------------------------------------------
# Diagnostics


class DiagnosticKind(enum.Enum):
    DEADLOCK_SUSPECTED = "DeadlockSuspected"
    DATATYPE_MISMATCH = "DatatypeMismatch"
    ENTAILMENT_FAILED = "EntailmentFailed"
    ENTAILMENT_UNDECIDABLE = "EntailmentUndecidable"


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class RuleAttempt:
    """A rule refused at a diagnostic's node, and why: the text, or a function
    that renders it when `failed_premise` is read. Equality, hash and repr go
    by the rule and that text."""

    rule: str
    reason: str | Callable[[], str]

    @property
    def failed_premise(self) -> str:
        return self.reason if isinstance(self.reason, str) else self.reason()

    def __eq__(self, other):
        if not isinstance(other, RuleAttempt):
            return NotImplemented
        return (self.rule, self.failed_premise) == (other.rule, other.failed_premise)

    def __hash__(self):
        return hash((self.rule, self.failed_premise))

    def __repr__(self):
        return f"RuleAttempt(rule={self.rule!r}, failed_premise={self.failed_premise!r})"


@dataclass(frozen=True, slots=True)
class Diagnostic:
    kind: DiagnosticKind
    location: str
    rule_trace: tuple[RuleAttempt, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.rule_trace:
            raise ValueError("rule_trace must be non-empty for merge diagnostics")


# ---------------------------------------------------------------------------
# Evaluation


def trunc_div(a: int, b: int) -> int:
    """Integer division truncating toward zero (C semantics, not floor)."""
    if b == 0:
        raise DivisionByZero(f"{a} / 0")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def eval_index(env: Mapping[str, int], t: IndexTerm) -> int:
    """Evaluate a closed index term under an integer environment.

    Raises:
        UnboundVariable: a variable is missing from env.
        DivisionByZero: a division's divisor evaluates to zero.
    """
    match t:
        case IntLit(v):
            return v
        case Var(name):
            if name not in env:
                raise UnboundVariable(name)
            return env[name]
        case BinOp("+", l, r):
            return eval_index(env, l) + eval_index(env, r)
        case BinOp("-", l, r):
            return eval_index(env, l) - eval_index(env, r)
        case BinOp("*", l, r):
            return eval_index(env, l) * eval_index(env, r)
        case BinOp("/", l, r):
            return trunc_div(eval_index(env, l), eval_index(env, r))
        case Cond(test, then, orelse):
            return eval_index(env, then if eval_prop(env, test) else orelse)
    raise TypeError(f"not an index term: {t!r}")


_CMP = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def eval_prop(env: Mapping[str, int], p: Proposition) -> bool:
    """Evaluate a closed proposition under an integer environment."""
    match p:
        case TrueProp():
            return True
        case Cmp(op, l, r):
            return _CMP[op](eval_index(env, l), eval_index(env, r))
        case And(l, r):
            return eval_prop(env, l) and eval_prop(env, r)
        case Or(l, r):
            return eval_prop(env, l) or eval_prop(env, r)
        case Not(q):
            return not eval_prop(env, q)
    raise TypeError(f"not a proposition: {p!r}")


# ---------------------------------------------------------------------------
# Free variables


def index_vars(t: IndexTerm) -> frozenset[str]:
    match t:
        case IntLit():
            return frozenset()
        case Var(name):
            return frozenset((name,))
        case BinOp(_, l, r):
            return index_vars(l) | index_vars(r)
        case Cond(test, then, orelse):
            return prop_vars(test) | index_vars(then) | index_vars(orelse)
    raise TypeError(f"not an index term: {t!r}")


def prop_vars(p: Proposition) -> frozenset[str]:
    match p:
        case TrueProp():
            return frozenset()
        case Cmp(_, l, r):
            return index_vars(l) | index_vars(r)
        case And(l, r) | Or(l, r):
            return prop_vars(l) | prop_vars(r)
        case Not(q):
            return prop_vars(q)
    raise TypeError(f"not a proposition: {p!r}")


def datatype_vars(d: Datatype) -> frozenset[str]:
    match d:
        case Integer() | Float():
            return frozenset()
        case Array(elem, length):
            return datatype_vars(elem) | index_vars(length)
        case Refined(binder, _, pred):
            return prop_vars(pred) - {binder}
    raise TypeError(f"not a datatype: {d!r}")


def is_closed(t: IndexTerm) -> bool:
    return not index_vars(t)


# ---------------------------------------------------------------------------
# Variable substitution (names -> index terms)


Sub = Mapping[str, IndexTerm]


def subst_index(t: IndexTerm, sub: Sub) -> IndexTerm:
    match t:
        case IntLit():
            return t
        case Var(name):
            return sub.get(name, t)
        case BinOp(op, l, r):
            return BinOp(op, subst_index(l, sub), subst_index(r, sub))
        case Cond(test, then, orelse):
            return Cond(subst_prop(test, sub), subst_index(then, sub), subst_index(orelse, sub))
    raise TypeError(f"not an index term: {t!r}")


def subst_prop(p: Proposition, sub: Sub) -> Proposition:
    match p:
        case TrueProp():
            return p
        case Cmp(op, l, r):
            return Cmp(op, subst_index(l, sub), subst_index(r, sub))
        case And(l, r):
            return And(subst_prop(l, sub), subst_prop(r, sub))
        case Or(l, r):
            return Or(subst_prop(l, sub), subst_prop(r, sub))
        case Not(q):
            return Not(subst_prop(q, sub))
    raise TypeError(f"not a proposition: {p!r}")


def drop_binder(sub: Sub, name: str) -> Sub:
    return {k: v for k, v in sub.items() if k != name} if name in sub else sub


def subst_datatype(d: Datatype, sub: Sub) -> Datatype:
    match d:
        case Integer() | Float():
            return d
        case Array(elem, length):
            return Array(subst_datatype(elem, sub), subst_index(length, sub))
        case Refined(binder, base, pred):
            return Refined(binder, base, subst_prop(pred, drop_binder(sub, binder)))
    raise TypeError(f"not a datatype: {d!r}")


def subst_type(t: ProtocolType, sub: Sub) -> ProtocolType:
    def leaf(node: ProtocolType) -> ProtocolType:
        match node:
            case Skip():
                return node
            case Message(src, dst, payload):
                return Message(subst_index(src, sub), subst_index(dst, sub), subst_datatype(payload, sub))
            case Allreduce(op, binder, payload, cont):
                cont = subst_type(cont, drop_binder(sub, binder))
                return Allreduce(op, binder, subst_datatype(payload, sub), cont)
            case Foreach(binder, lo, hi, body):
                body = subst_type(body, drop_binder(sub, binder))
                return Foreach(binder, subst_index(lo, sub), subst_index(hi, sub), body)
        raise TypeError(f"not a protocol type: {node!r}")

    return map_spine(t, leaf)
