"""Core value language: index terms, propositions, datatypes, protocol types,
processes, typing contexts, and the diagnostics they produce.

Everything here is an immutable tree. The nodes of index terms, propositions,
datatypes, protocol types, processes, finite sets and typing contexts are
hash-consed: building a node looks its class and fields up in one table, so
structurally equal nodes are one object, and == and hash are identity, O(1)
at any depth. Diagnostics are records: built positionally like nodes, and
equal when their class and fields are. The other modules' value classes sit
on the same two bases, `_Node` and `_Record`.
"""

from __future__ import annotations

import enum
import operator
from typing import Callable, Mapping, Union


__all__ = [
    "ProtomergeError",
    "DivisionByZero",
    "UnboundVariable",
    "NonConstantBounds",
    "NestingTooDeep",
    "IntLit",
    "Var",
    "BinOp",
    "Cond",
    "IndexTerm",
    "TrueProp",
    "Cmp",
    "And",
    "Or",
    "Not",
    "Proposition",
    "Integer",
    "Float",
    "Array",
    "Refined",
    "Datatype",
    "ReduceOp",
    "Skip",
    "Message",
    "FRESH_BINDER",
    "Allreduce",
    "Foreach",
    "Seq",
    "ProtocolType",
    "PSkip",
    "Send",
    "Recv",
    "AllreduceStmt",
    "For",
    "If",
    "PSeq",
    "Process",
    "normalize_seq",
    "TypingContext",
    "DiagnosticKind",
    "RuleAttempt",
    "Diagnostic",
    "trunc_div",
    "eval_index",
    "eval_prop",
    "loop_bounds",
    "index_vars",
    "prop_vars",
    "datatype_vars",
    "is_closed",
    "subst_index",
    "subst_prop",
    "subst_datatype",
    "subst_type",
]


class ProtomergeError(Exception):
    """Base class for every error this package raises deliberately."""


class DivisionByZero(ProtomergeError):
    """Raised when index-term evaluation divides by zero."""


class UnboundVariable(ProtomergeError):
    """Raised when evaluation meets a variable missing from its environment."""


class NonConstantBounds(ProtomergeError):
    """A foreach's bounds do not evaluate to constants under the context."""


class NestingTooDeep(ProtomergeError):
    """Raised when a walk meets loop bodies, branches or allreduce
    continuations nested deeper than MAX_BLOCK_DEPTH."""


class UnfoldBudgetExceeded(ProtomergeError):
    """Unfolding loops would build more than LINEARIZE_BUDGET items."""


# The most loop iterations, actions or items one unfolding (oracle.linearize,
# merge.unfold_foreach) may build; input size does not bound these.
LINEARIZE_BUDGET = 10**6


# The most `{ ... }` blocks (loop bodies, branches, allreduce continuations)
# open at once. The parser refuses the `{` of a deeper one. Extraction and
# merging walk blocks recursively, and the parser spends four frames per
# block: with a term at its deepest (syntax.MAX_TERM_DEPTH) in the innermost
# block, this many still fit the interpreter's default stack. Extraction,
# normalize_seq (and so the merge entry points) and the oracle's walks
# refuse a deeper program or protocol built through the API (`deeper`).
MAX_BLOCK_DEPTH = 64


def deeper(depth: int) -> int:
    """The depth of a block (loop body, branch or allreduce continuation) met at depth."""
    if depth == MAX_BLOCK_DEPTH:
        raise NestingTooDeep(f"blocks nest deeper than {MAX_BLOCK_DEPTH} levels")
    return depth + 1


# ---------------------------------------------------------------------------
# Records and hash-consing (Filliatre & Conchon, "Type-safe modular
# hash-consing", 2006)


class _NodeType(type):
    """The fields of a record class are its annotations, in order: they are
    its slots and its match args.

    An isinstance test or class pattern that fails against a class whose
    metaclass is not `type` takes the interpreter's slow path, about three
    times the cost of a plain class: 0.4-0.7 us for each case of a `match`
    tried, even one that matches. The walks over nodes (evaluation,
    substitution, free variables, the printers, extraction, the oracle)
    test `type(x) is C` instead."""

    def __new__(mcs, name, bases, namespace):
        fields = tuple(namespace.get("__annotations__", ()))
        namespace["__slots__"] = namespace["__match_args__"] = fields
        cls = super().__new__(mcs, name, bases, namespace)
        # The check a record runs once its fields are set, and the slots'
        # setters, looked up once per class: per record, a failed hasattr and
        # setting fields by name cost more than the rest of building it.
        cls._post_init = getattr(cls, "__post_init__", None)
        cls._setters = tuple(vars(cls)[field].__set__ for field in fields)
        return cls


class _Record(metaclass=_NodeType):
    """Base of the immutable value classes. A record is built positionally,
    one argument per field, and never changes; two records are equal when
    they are of one class with equal fields, and its repr is the one a
    dataclass would give it."""

    def __new__(cls, *args):
        setters = cls._setters
        if len(args) != len(setters):
            raise TypeError(f"{cls.__name__} takes {len(setters)} positional arguments, got {len(args)}")
        record = object.__new__(cls)
        for set_field, value in zip(setters, args):
            set_field(record, value)
        if cls._post_init is not None:
            cls._post_init(record)
        return record

    # dataclasses is imported on these error paths only: importing it costs
    # more than the rest of the package's imports together.
    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _chain(self) -> list[tuple[tuple, int | None]]:
        # A chain of records of one class, each held in the last field of that
        # class of the one before (a Seq's `second`, an Array's `elem`, a
        # left-nested BinOp's `left`), walked in a loop: its length costs no
        # depth. Each link's fields, and the index of the one followed or None.
        cls, node, links = type(self), self, []
        while True:
            fields = tuple(getattr(node, name) for name in cls.__slots__)
            at = next((i for i in reversed(range(len(fields))) if type(fields[i]) is cls), None)
            links.append((fields, at))
            if at is None:
                return links
            node = fields[at]

    def __repr__(self):
        cls = type(self)
        opened, closing = [], []
        for fields, at in self._chain():
            shown = [f"{name}=" if i == at else f"{name}={fields[i]!r}" for i, name in enumerate(cls.__slots__)]
            cut = len(shown) if at is None else at + 1
            opened.append(f"{cls.__qualname__}({', '.join(shown[:cut])}")
            closing.append("".join(", " + part for part in shown[cut:]) + ")")
        return "".join(opened) + "".join(reversed(closing))

    def __reduce__(self):
        # copy and pickle rebuild through the constructor (for a node, the
        # table), and take a chain flat, as __repr__ walks it.
        *links, (last, _) = self._chain()
        return _rebuild_chain, (type(self), tuple((at, f[:at] + f[at + 1 :]) for f, at in links), last)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __hash__(self):
        return hash(self.__reduce__())


def _rebuild_chain(cls: type, links: tuple, last: tuple):
    """A record from what _Record.__reduce__ takes: each link's followed
    field's index and its other fields, outermost first, and the innermost
    record's fields."""
    node = cls(*last)
    for at, fields in reversed(links):
        node = cls(*fields[:at], node, *fields[at:])
    return node


# Every node built, keyed by (class, *fields). Its fields are strings, ints,
# enum members, nodes that are already interned and tuples of these (a set's
# values, a context's entries), so a key hashes and compares in time
# independent of the node's depth. It lives as long as the process.
_TABLE: dict[tuple, "_Node"] = {}


class _Node(_Record):
    """Base of the interned node classes: a record whose construction looks
    its class and fields up in one table, so structurally equal nodes are one
    object, and == and hash are identity."""

    def __new__(cls, *args):
        key = (cls, *args)
        node = _TABLE.get(key)
        if node is None:
            node = _TABLE[key] = _Record.__new__(cls, *args)
        return node

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __deepcopy__(self, memo):
        return self  # immutable and interned: the copy is the node itself


# ---------------------------------------------------------------------------
# Index terms


class IntLit(_Node):
    value: int

    def __new__(cls, value):
        # True == 1 and hash(True) == hash(1): a bool would find an int's
        # entry in the table, or leave one that prints as True.
        if type(value) is not int:
            raise TypeError(f"IntLit value must be an int, not {type(value).__name__}")
        return _Node.__new__(cls, value)


class Var(_Node):
    name: str


BINOPS = ("+", "-", "*", "/")


class BinOp(_Node):
    op: str
    left: "IndexTerm"
    right: "IndexTerm"

    def __post_init__(self) -> None:
        if self.op not in BINOPS:
            raise ValueError(f"unknown index operator {self.op!r}")


class Cond(_Node):
    """Conditional index term: ``test ? then : orelse``."""

    test: "Proposition"
    then: "IndexTerm"
    orelse: "IndexTerm"


IndexTerm = Union[IntLit, Var, BinOp, Cond]


# ---------------------------------------------------------------------------
# Propositions


class TrueProp(_Node):
    pass


CMPOPS = ("=", "!=", "<", "<=", ">", ">=")


class Cmp(_Node):
    op: str
    left: IndexTerm
    right: IndexTerm

    def __post_init__(self) -> None:
        if self.op not in CMPOPS:
            raise ValueError(f"unknown comparison {self.op!r}")


class And(_Node):
    left: "Proposition"
    right: "Proposition"


class Or(_Node):
    left: "Proposition"
    right: "Proposition"


class Not(_Node):
    prop: "Proposition"


Proposition = Union[TrueProp, Cmp, And, Or, Not]


# ---------------------------------------------------------------------------
# Datatypes


class Integer(_Node):
    pass


class Float(_Node):
    pass


class Array(_Node):
    elem: "Datatype"
    length: IndexTerm


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


class Skip(_Node):
    pass


class Message(_Node):
    src: IndexTerm
    dst: IndexTerm
    payload: Datatype


# Binder name used when an allreduce is written without one. The short
# syntactic form round-trips only through this exact name.
FRESH_BINDER = "_"


class Allreduce(_Node):
    op: ReduceOp
    binder: str
    payload: Datatype
    cont: "ProtocolType"


class Foreach(_Node):
    binder: str
    lo: IndexTerm
    hi: IndexTerm
    body: "ProtocolType"


class Seq(_Node):
    first: "ProtocolType"
    second: "ProtocolType"


ProtocolType = Union[Skip, Message, Allreduce, Foreach, Seq]


# ---------------------------------------------------------------------------
# Processes (the per-rank input DSL)


class PSkip(_Node):
    pass


class Send(_Node):
    to: IndexTerm
    payload: Datatype


class Recv(_Node):
    src: IndexTerm
    payload: Datatype


class AllreduceStmt(_Node):
    op: ReduceOp
    payload: Datatype


class For(_Node):
    binder: str
    lo: IndexTerm
    hi: IndexTerm
    body: "Process"


class If(_Node):
    test: Proposition
    then: "Process"
    orelse: "Process"


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
    cls = PSeq if type(t) is PSeq else Seq
    items: list = []
    todo = [t]
    while todo:
        node = todo.pop()
        if type(node) is cls:
            todo += (node.second, node.first)
        else:
            items.append(node)
    return items


def map_spine(t: ProtocolType, leaf: Callable) -> ProtocolType:
    """t with each spine item x replaced by leaf(x), called left to right;
    the Seq nodes keep their shape. A Seq whose two halves map to
    themselves is kept as it is, so when every leaf returns its own item
    the result is t and no node is looked up."""
    if type(t) is not Seq:
        return leaf(t)
    done: list = []
    # Nodes still to walk, last one first; a 1-tuple (seq,) joins the two
    # results on top of `done` into one sequence node in place of seq.
    todo: list = [t]
    while todo:
        node = todo.pop()
        if type(node) is tuple:
            seq = node[0]
            second = done.pop()
            first = done[-1]
            done[-1] = seq if first is seq.first and second is seq.second else Seq(first, second)
        elif type(node) is Seq:
            todo += ((node,), node.second, node.first)
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
    if type(second) is Skip:
        return first
    if type(first) is Skip:
        return second
    return build_seq(spine(first), second)


def normalize_seq(t: ProtocolType) -> ProtocolType:
    """Right-associate sequences and drop skip units, in every body too.
    Idempotent. Loop bodies and allreduce continuations nested deeper than
    MAX_BLOCK_DEPTH raise NestingTooDeep."""
    return _normalize(t, 0)


def _normalize(t: ProtocolType, depth: int) -> ProtocolType:
    items = []
    for node in spine(t):
        kind = type(node)
        if kind is Skip:
            continue
        if kind is Allreduce and type(node.cont) is not Skip:  # a bare one opens no block
            node = Allreduce(node.op, node.binder, node.payload, _normalize(node.cont, deeper(depth)))
        elif kind is Foreach:
            node = Foreach(node.binder, node.lo, node.hi, _normalize(node.body, deeper(depth)))
        items.append(node)
    return build_seq(items)


# ---------------------------------------------------------------------------
# Typing contexts


class FiniteSet(_Node):
    """A finite set of integers, sorted and distinct: a domain, and the
    context entry for a set of ranks."""

    values: tuple[int, ...]

    def __new__(cls, values):
        # As for IntLit: a bool must not find an int's entry in the table.
        for v in values:
            if type(v) is not int:
                raise TypeError(f"FiniteSet values must be ints, not {type(v).__name__}")
        return _Node.__new__(cls, values)

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("FiniteSet must be non-empty")
        if list(self.values) != sorted(set(self.values)):
            raise ValueError("FiniteSet values must be sorted and distinct")


class TypingContext(_Node):
    """Ordered association of names to datatypes, or to finite sets of ints.

    Later entries may reference earlier names in their refinements, so order
    is significant and preserved. Contexts are interned like every node, so
    equal contexts are one object, and protomerge.logic resolves each once.
    """

    entries: tuple[tuple[str, Datatype | FiniteSet], ...]

    def __post_init__(self) -> None:
        names = [n for n, _ in self.entries]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate context entries in {names}")

    def lookup(self, name: str) -> Datatype | FiniteSet | None:
        for n, d in self.entries:
            if n == name:
                return d
        return None

    def extend(self, name: str, dtype: Datatype | FiniteSet) -> "TypingContext":
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


class RuleAttempt(_Record):
    """A rule refused at a diagnostic's node, and why: the text, or a function
    that renders it when `failed_premise` is read. Equality, hash and repr go
    by the rule and that text."""

    rule: str
    reason: str | Callable[[], str]

    @property
    def failed_premise(self) -> str:
        return self.reason if isinstance(self.reason, str) else self.reason()

    def __eq__(self, other):
        if type(other) is not RuleAttempt:
            return NotImplemented
        return (self.rule, self.failed_premise) == (other.rule, other.failed_premise)

    def __hash__(self):
        return hash((self.rule, self.failed_premise))

    def __repr__(self):
        return f"RuleAttempt(rule={self.rule!r}, failed_premise={self.failed_premise!r})"


class Diagnostic(_Record):
    kind: DiagnosticKind
    location: str
    rule_trace: tuple[RuleAttempt, ...]

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


# Each operator's function, for eval_index and eval_prop.
_ARITH = dict(zip(BINOPS, (operator.add, operator.sub, operator.mul, trunc_div)))
_CMP = dict(zip(CMPOPS, (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)))


def eval_index(env: Mapping[str, int], t: IndexTerm) -> int:
    """Evaluate a closed index term under an integer environment.

    Raises:
        UnboundVariable: a variable is missing from env.
        DivisionByZero: a division's divisor evaluates to zero.
    """
    kind = type(t)
    if kind is IntLit:
        return t.value
    if kind is Var:
        if t.name not in env:
            raise UnboundVariable(t.name)
        return env[t.name]
    if kind is BinOp:
        return _ARITH[t.op](eval_index(env, t.left), eval_index(env, t.right))
    if kind is Cond:
        return eval_index(env, t.then if eval_prop(env, t.test) else t.orelse)
    raise TypeError(f"not an index term: {t!r}")


def loop_bounds(env: Mapping[str, int], loop: Foreach) -> tuple[int, int]:
    """A foreach's (lo, hi) under env; NonConstantBounds when either bound
    mentions a name env lacks or divides by zero."""
    try:
        return eval_index(env, loop.lo), eval_index(env, loop.hi)
    except (UnboundVariable, DivisionByZero) as exc:
        raise NonConstantBounds(f"foreach bounds are not constant: {exc}") from None


def eval_prop(env: Mapping[str, int], p: Proposition) -> bool:
    """Evaluate a closed proposition under an integer environment."""
    kind = type(p)
    if kind is Cmp:
        return _CMP[p.op](eval_index(env, p.left), eval_index(env, p.right))
    if kind is TrueProp:
        return True
    if kind is And:
        return eval_prop(env, p.left) and eval_prop(env, p.right)
    if kind is Or:
        return eval_prop(env, p.left) or eval_prop(env, p.right)
    if kind is Not:
        return not eval_prop(env, p.prop)
    raise TypeError(f"not a proposition: {p!r}")


# ---------------------------------------------------------------------------
# Free variables


def index_vars(t: IndexTerm) -> frozenset[str]:
    kind = type(t)
    if kind is IntLit:
        return frozenset()
    if kind is Var:
        return frozenset((t.name,))
    if kind is BinOp:
        return index_vars(t.left) | index_vars(t.right)
    if kind is Cond:
        return prop_vars(t.test) | index_vars(t.then) | index_vars(t.orelse)
    raise TypeError(f"not an index term: {t!r}")


def prop_vars(p: Proposition) -> frozenset[str]:
    kind = type(p)
    if kind is Cmp:
        return index_vars(p.left) | index_vars(p.right)
    if kind is TrueProp:
        return frozenset()
    if kind is And or kind is Or:
        return prop_vars(p.left) | prop_vars(p.right)
    if kind is Not:
        return prop_vars(p.prop)
    raise TypeError(f"not a proposition: {p!r}")


def datatype_vars(d: Datatype) -> frozenset[str]:
    names: frozenset[str] = frozenset()
    # Array dimensions are walked in a loop, not one call deep each.
    while type(d) is Array:
        names |= index_vars(d.length)
        d = d.elem
    if type(d) is Integer or type(d) is Float:
        return names
    if type(d) is Refined:
        return names | (prop_vars(d.pred) - {d.binder})
    raise TypeError(f"not a datatype: {d!r}")


def is_closed(t: IndexTerm) -> bool:
    return not index_vars(t)


# ---------------------------------------------------------------------------
# Variable substitution (names -> index terms)


Sub = Mapping[str, IndexTerm]


def subst_index(t: IndexTerm, sub: Sub) -> IndexTerm:
    kind = type(t)
    if kind is IntLit:
        return t
    if kind is Var:
        return sub.get(t.name, t)
    if kind is BinOp:
        return BinOp(t.op, subst_index(t.left, sub), subst_index(t.right, sub))
    if kind is Cond:
        return Cond(subst_prop(t.test, sub), subst_index(t.then, sub), subst_index(t.orelse, sub))
    raise TypeError(f"not an index term: {t!r}")


def subst_prop(p: Proposition, sub: Sub) -> Proposition:
    kind = type(p)
    if kind is Cmp:
        return Cmp(p.op, subst_index(p.left, sub), subst_index(p.right, sub))
    if kind is TrueProp:
        return p
    if kind is And:
        return And(subst_prop(p.left, sub), subst_prop(p.right, sub))
    if kind is Or:
        return Or(subst_prop(p.left, sub), subst_prop(p.right, sub))
    if kind is Not:
        return Not(subst_prop(p.prop, sub))
    raise TypeError(f"not a proposition: {p!r}")


def drop_binder(sub: Sub, name: str) -> Sub:
    return {k: v for k, v in sub.items() if k != name} if name in sub else sub


def subst_datatype(d: Datatype, sub: Sub) -> Datatype:
    lengths = []
    # Array dimensions are walked in a loop, not one call deep each.
    while type(d) is Array:
        lengths.append(subst_index(d.length, sub))
        d = d.elem
    if type(d) is Refined:
        d = Refined(d.binder, d.base, subst_prop(d.pred, drop_binder(sub, d.binder)))
    elif type(d) is not Float and type(d) is not Integer:
        raise TypeError(f"not a datatype: {d!r}")
    for length in reversed(lengths):
        d = Array(d, length)
    return d


def subst_type(t: ProtocolType, sub: Sub, depth: int = 0) -> ProtocolType:
    """t with sub applied to its free index variables. t sits depth blocks
    deep; loop bodies and allreduce continuations nested deeper than
    MAX_BLOCK_DEPTH raise NestingTooDeep."""

    def leaf(node: ProtocolType) -> ProtocolType:
        kind = type(node)
        if kind is Message:
            return Message(subst_index(node.src, sub), subst_index(node.dst, sub), subst_datatype(node.payload, sub))
        if kind is Skip:
            return node
        if kind is Allreduce:
            cont = node.cont
            if type(cont) is not Skip:  # a bare allreduce opens no block
                cont = subst_type(cont, drop_binder(sub, node.binder), deeper(depth))
            return Allreduce(node.op, node.binder, subst_datatype(node.payload, sub), cont)
        if kind is Foreach:
            body = subst_type(node.body, drop_binder(sub, node.binder), deeper(depth))
            return Foreach(node.binder, subst_index(node.lo, sub), subst_index(node.hi, sub), body)
        raise TypeError(f"not a protocol type: {node!r}")

    return map_spine(t, leaf)
