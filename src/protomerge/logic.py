"""Entailment over refined integer contexts.

The decision procedure is deliberately small: a sound three-valued interval
abstraction first, then exhaustive enumeration of the (finite) variable
domains when the abstraction is inconclusive, and Undecidable beyond that.
Validity means "true under every assignment drawn from the context domains";
Invalid means some assignment falsifies the proposition.
"""

from __future__ import annotations

import enum
from functools import reduce
from typing import Iterable, Mapping, NamedTuple, Sequence

from .ast import (
    And,
    Array,
    BinOp,
    Cmp,
    Cond,
    Datatype,
    DivisionByZero,
    FiniteSet,
    Float,
    IndexTerm,
    IntLit,
    Integer,
    Not,
    Or,
    Proposition,
    ProtomergeError,
    Refined,
    TrueProp,
    TypingContext,
    UnboundVariable,
    Var,
    _Node,
    eval_index,
    eval_prop,
    index_vars,
    prop_vars,
    subst_prop,
    trunc_div,
)

__all__ = [
    "Verdict",
    "Domain",
    "FiniteSet",
    "Interval",
    "Unbounded",
    "NotIntegerRefined",
    "UndecidableEquivalence",
    "InvalidRankSet",
    "ENUM_BUDGET",
    "entails",
    "domain_of",
    "dtype_equiv",
    "initial_context",
    "merged_context",
    "singleton_env",
]

# Where the interval abstraction leaves a query open: the assignments one
# entails call may enumerate, and the widest interval it lists a variable over.
ENUM_BUDGET = 100_000


class Verdict(enum.Enum):
    VALID = "Valid"
    INVALID = "Invalid"
    UNDECIDABLE = "Undecidable"


class NotIntegerRefined(ProtomergeError):
    """The queried context entry is not an integer (refinement) type."""


class UndecidableEquivalence(ProtomergeError):
    """Datatype equivalence could not be decided within the engine's means."""


class InvalidRankSet(ProtomergeError):
    """A merged-rank set was empty or referenced ranks outside 0..n-1."""


# ---------------------------------------------------------------------------
# Domains


class Interval(_Node):
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval {self.lo}..{self.hi}")


class Unbounded(_Node):
    pass


Domain = FiniteSet | Interval | Unbounded


# ---------------------------------------------------------------------------
# Refinement shape recognition
#
# Two shapes are understood exactly: a disjunction of equalities on the binder
# (finite set) and a conjunction of one-sided comparisons on the binder
# (interval). Strict integer bounds normalize away: v > t becomes v >= t+1.


def _flatten(p: Proposition, kind: type) -> list[Proposition]:
    if type(p) is kind:
        return _flatten(p.left, kind) + _flatten(p.right, kind)
    return [p]


class _EqShape(NamedTuple):
    terms: tuple[IndexTerm, ...]


class _BoundShape(NamedTuple):
    los: tuple[IndexTerm, ...]
    his: tuple[IndexTerm, ...]
    residual: tuple[Proposition, ...]


def _plus_one(t: IndexTerm) -> IndexTerm:
    return IntLit(t.value + 1) if type(t) is IntLit else BinOp("+", t, IntLit(1))


def _minus_one(t: IndexTerm) -> IndexTerm:
    return IntLit(t.value - 1) if type(t) is IntLit else BinOp("-", t, IntLit(1))


def recognize_eq(pred: Proposition, binder: str) -> _EqShape | None:
    terms: list[IndexTerm] = []
    for d in _flatten(pred, Or):
        match d:
            case Cmp("=", Var(name), t) if name == binder and binder not in index_vars(t):
                terms.append(t)
            case Cmp("=", t, Var(name)) if name == binder and binder not in index_vars(t):
                terms.append(t)
            case _:
                return None
    return _EqShape(tuple(terms))


_MIRRORED = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def recognize_bounds(pred: Proposition, binder: str) -> _BoundShape:
    los: list[IndexTerm] = []
    his: list[IndexTerm] = []
    residual: list[Proposition] = []
    for c in _flatten(pred, And):
        match c:
            case TrueProp():
                continue
            case Cmp(op, Var(name), t) if name == binder and binder not in index_vars(t):
                pass
            case Cmp(op, t, Var(name)) if name == binder and binder not in index_vars(t):
                op = _MIRRORED[op]
            case _:
                residual.append(c)
                continue
        # c now reads `binder op t`.
        if op in ("<=", "="):
            his.append(t)
        if op in (">=", "="):
            los.append(t)
        if op == "<":
            his.append(_minus_one(t))
        if op == ">":
            los.append(_plus_one(t))
        if op == "!=":
            residual.append(c)
    return _BoundShape(tuple(los), tuple(his), tuple(residual))


def _recognize(pred: Proposition, binder: str) -> _EqShape | _BoundShape:
    return recognize_eq(pred, binder) or recognize_bounds(pred, binder)


def _evaluate(shape: _EqShape | _BoundShape, env: Mapping[str, int]) -> tuple:
    """The distinct values of an equality shape, sorted, or the (lo, hi) of a
    bound shape with None for a side without bounds. Raises UnboundVariable
    or DivisionByZero."""
    if isinstance(shape, _EqShape):
        return tuple(sorted({eval_index(env, t) for t in shape.terms}))
    lo = max(eval_index(env, t) for t in shape.los) if shape.los else None
    hi = min(eval_index(env, t) for t in shape.his) if shape.his else None
    return lo, hi


# ---------------------------------------------------------------------------
# Interval abstraction

Hull = tuple[int | None, int | None]  # (lo, hi); None is unbounded on that side

_TOP: Hull = (None, None)


def _hull_add(a: Hull, b: Hull) -> Hull:
    lo = None if a[0] is None or b[0] is None else a[0] + b[0]
    hi = None if a[1] is None or b[1] is None else a[1] + b[1]
    return (lo, hi)


def _hull_sub(a: Hull, b: Hull) -> Hull:
    lo = None if a[0] is None or b[1] is None else a[0] - b[1]
    hi = None if a[1] is None or b[0] is None else a[1] - b[0]
    return (lo, hi)


def _hull_mul(a: Hull, b: Hull) -> Hull:
    if None in a or None in b:
        return _TOP
    prods = [a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]]
    return (min(prods), max(prods))


def _hull_div(a: Hull, b: Hull) -> Hull:
    # An unsatisfiable divisor has an inverted hull, which may end at 0.
    if None in a or None in b or b[0] <= 0 <= b[1] or 0 in b:
        return _TOP
    quots = [trunc_div(a[0], b[0]), trunc_div(a[0], b[1]), trunc_div(a[1], b[0]), trunc_div(a[1], b[1])]
    return (min(quots), max(quots))


def _hull_union(a: Hull, b: Hull) -> Hull:
    lo = None if a[0] is None or b[0] is None else min(a[0], b[0])
    hi = None if a[1] is None or b[1] is None else max(a[1], b[1])
    return (lo, hi)


def _hull_index(t: IndexTerm, hulls: Mapping[str, Hull]) -> Hull:
    match t:
        case IntLit(v):
            return (v, v)
        case Var(name):
            return hulls.get(name, _TOP)
        case BinOp("+", l, r):
            return _hull_add(_hull_index(l, hulls), _hull_index(r, hulls))
        case BinOp("-", l, r):
            return _hull_sub(_hull_index(l, hulls), _hull_index(r, hulls))
        case BinOp("*", l, r):
            return _hull_mul(_hull_index(l, hulls), _hull_index(r, hulls))
        case BinOp("/", l, r):
            return _hull_div(_hull_index(l, hulls), _hull_index(r, hulls))
        case Cond(_, then, orelse):
            return _hull_union(_hull_index(then, hulls), _hull_index(orelse, hulls))
    raise TypeError(f"not an index term: {t!r}")


def _division_free(t: IndexTerm) -> bool:
    match t:
        case IntLit() | Var():
            return True
        case BinOp(op, l, r):
            return op != "/" and _division_free(l) and _division_free(r)
        case Cond(test, then, orelse):
            return (
                all(_division_free(s) for s in _cmp_terms(test))
                and _division_free(then)
                and _division_free(orelse)
            )
    return False


def _cmp_terms(p: Proposition) -> list[IndexTerm]:
    match p:
        case TrueProp():
            return []
        case Cmp(_, l, r):
            return [l, r]
        case And(l, r) | Or(l, r):
            return _cmp_terms(l) + _cmp_terms(r)
        case Not(q):
            return _cmp_terms(q)
    return []


def _le(a: int | None, b: int | None, strict: bool = False) -> bool:
    """Conclusively a <= b (or a < b) given finite endpoint values only."""
    if a is None or b is None:
        return False
    return a < b if strict else a <= b


def _abs_cmp(op: str, l: IndexTerm, r: IndexTerm, hulls: Mapping[str, Hull]) -> bool | None:
    if l == r and _division_free(l):
        return op in ("=", "<=", ">=")
    (llo, lhi), (rlo, rhi) = _hull_index(l, hulls), _hull_index(r, hulls)
    if op == "=":
        if llo is not None and llo == lhi == rlo == rhi:
            return True
        if _le(lhi, rlo, strict=True) or _le(rhi, llo, strict=True):
            return False
        return None
    if op == "!=":
        inner = _abs_cmp("=", l, r, hulls)
        return None if inner is None else not inner
    if op == "<=":
        if _le(lhi, rlo):
            return True
        if _le(rhi, llo, strict=True):
            return False
        return None
    if op == "<":
        if _le(lhi, rlo, strict=True):
            return True
        if _le(rhi, llo):
            return False
        return None
    if op == ">=":
        return _abs_cmp("<=", r, l, hulls)
    if op == ">":
        return _abs_cmp("<", r, l, hulls)
    raise ValueError(op)


def _abs_prop(p: Proposition, hulls: Mapping[str, Hull]) -> bool | None:
    match p:
        case TrueProp():
            return True
        case Cmp(op, l, r):
            return _abs_cmp(op, l, r, hulls)
        case And(l, r):
            a, b = _abs_prop(l, hulls), _abs_prop(r, hulls)
            if a is False or b is False:
                return False
            if a is True and b is True:
                return True
            return None
        case Or(l, r):
            a, b = _abs_prop(l, hulls), _abs_prop(r, hulls)
            if a is True or b is True:
                return True
            if a is False and b is False:
                return False
            return None
        case Not(q):
            inner = _abs_prop(q, hulls)
            return None if inner is None else not inner
    raise TypeError(f"not a proposition: {p!r}")


def _shape_hull(shape: _EqShape | _BoundShape, hulls: Mapping[str, Hull]) -> Hull:
    if isinstance(shape, _EqShape):
        return reduce(_hull_union, (_hull_index(t, hulls) for t in shape.terms))
    los = [lo for t in shape.los if (lo := _hull_index(t, hulls)[0]) is not None]
    his = [hi for t in shape.his if (hi := _hull_index(t, hulls)[1]) is not None]
    return (max(los) if los else None, min(his) if his else None)


# ---------------------------------------------------------------------------
# Context resolution: one pass over a context's entries, in order, on its
# first query. Entailment, domains and datatype equivalence all read it.


class _Entry(NamedTuple):
    """A context entry, resolved against the entries before it."""

    binder: str | None
    shape: _EqShape | _BoundShape | None  # None: not an integer refinement
    # The shape evaluated under the earlier entries' single values (see
    # _evaluate); None when that needs a name without a single value.
    points: tuple | None
    domain: Domain | None  # None: not an integer entry
    # Names the refinement mentions, with what the earlier of those mention.
    deps: frozenset[str]


class _Resolution(NamedTuple):
    entries: dict[str, _Entry]  # in context order
    hulls: dict[str, Hull]
    env: dict[str, int]  # single-valued entries, in context order


def _domain(shape: _EqShape | _BoundShape, points: tuple | None) -> Domain:
    if points is None:
        return Unbounded()
    if isinstance(shape, _EqShape):
        return FiniteSet(points)
    lo, hi = points
    if shape.residual or lo is None or hi is None or lo > hi:
        return Unbounded()
    return Interval(lo, hi)


# Each context's resolution, made on its first query. Contexts are interned
# and never change, so it lives, as the node table does, for the process.
_RESOLUTIONS: dict[TypingContext, _Resolution] = {}


def _resolution_of(ctx: TypingContext) -> _Resolution:
    resolution = _RESOLUTIONS.get(ctx)
    if resolution is not None:
        return resolution
    resolved: dict[str, _Entry] = {}
    hulls: dict[str, Hull] = {}
    env: dict[str, int] = {}
    for name, d in ctx.entries:
        binder = shape = points = domain = None
        deps: frozenset[str] = frozenset()
        if type(d) is Refined:
            binder = d.binder
            direct = prop_vars(d.pred) - {binder}
            deps = direct.union(*(resolved[v].deps for v in direct if v in resolved))
        if type(d) is FiniteSet:
            # A set of ranks: its own domain, with nothing to resolve.
            domain, hulls[name] = d, (d.values[0], d.values[-1])
            if len(d.values) == 1:
                env[name] = d.values[0]
        elif type(d) is Integer:
            domain = Unbounded()
        elif type(d) is Refined and type(d.base) is Integer:
            shape = _recognize(d.pred, d.binder)
            hulls[name] = _shape_hull(shape, hulls)
            try:
                points = _evaluate(shape, env)
            except (UnboundVariable, DivisionByZero):
                pass
            domain = _domain(shape, points)
            if type(domain) is FiniteSet and len(domain.values) == 1:
                env[name] = domain.values[0]
            elif type(domain) is Interval and domain.lo == domain.hi:
                env[name] = domain.lo
        # Other entries get no hull; lookups default to unbounded.
        resolved[name] = _Entry(binder, shape, points, domain, deps)
    resolution = _RESOLUTIONS[ctx] = _Resolution(resolved, hulls, env)
    return resolution


# ---------------------------------------------------------------------------
# Enumeration


class _Inconclusive(Exception):
    """Internal: enumeration infeasible (unbounded domain, budget, or eval error)."""


def _candidates(entry: _Entry, env: dict[str, int]) -> Sequence[int]:
    if type(entry.domain) is FiniteSet:
        return entry.domain.values
    shape = entry.shape
    if shape is None or isinstance(shape, _BoundShape) and not (shape.los and shape.his):
        raise _Inconclusive
    try:
        # Resolved points mention only single-valued names, whose one value
        # every assignment shares; other entries evaluate per assignment.
        points = _evaluate(shape, env) if entry.points is None else entry.points
        if isinstance(shape, _EqShape):
            return points
        lo, hi = points
        if hi < lo:
            return ()
        if hi - lo + 1 > ENUM_BUDGET:
            raise _Inconclusive
        vals: Sequence[int] = range(lo, hi + 1)
        for extra in shape.residual:
            vals = [v for v in vals if eval_prop({**env, entry.binder: v}, extra)]
        return vals
    except (UnboundVariable, DivisionByZero):
        raise _Inconclusive from None


def entails(ctx: TypingContext, p: Proposition) -> Verdict:
    """Decide whether ctx entails p.

    Valid: p holds under every assignment of the context variables' domains.
    Invalid: some assignment falsifies p. Undecidable: neither the interval
    abstraction nor enumeration within ENUM_BUDGET assignments could settle it.
    """
    resolution = _resolution_of(ctx)
    abstract = _abs_prop(p, resolution.hulls)
    if abstract is True:
        # Sound even when no assignment satisfies the context: the hull box
        # covers the entire satisfying set, and a vacuous entailment is valid.
        return Verdict.VALID
    resolved = resolution.entries
    free = prop_vars(p)
    needed = free.union(*(resolved[v].deps for v in free if v in resolved))
    if not needed.issubset(resolved):
        return Verdict.UNDECIDABLE
    entries = [(name, e) for name, e in resolved.items() if name in needed]
    # A False abstraction refutes p over the hull box, which holds a falsifying
    # assignment when every needed domain is a (never empty) FiniteSet or
    # Interval and p divides by nothing; else only enumeration answers Invalid.
    if abstract is False:
        known = all(type(e.domain) is FiniteSet or type(e.domain) is Interval for _, e in entries)
        if known and all(_division_free(t) for t in _cmp_terms(p)):
            return Verdict.INVALID

    # Enumerate the free variables of p and what their refinements depend on.
    budget = ENUM_BUDGET

    def explore(i: int, env: dict[str, int]) -> bool:
        nonlocal budget
        if i == len(entries):
            budget -= 1
            if budget < 0:
                raise _Inconclusive
            try:
                return eval_prop(env, p)
            except (DivisionByZero, UnboundVariable):
                raise _Inconclusive from None
        name, entry = entries[i]
        for v in _candidates(entry, env):
            if not explore(i + 1, {**env, name: v}):
                return False
        return True

    try:
        return Verdict.VALID if explore(0, {}) else Verdict.INVALID
    except _Inconclusive:
        return Verdict.UNDECIDABLE


# ---------------------------------------------------------------------------
# Public domains


def domain_of(ctx: TypingContext, name: str) -> Domain:
    """Domain of an integer-refined context entry.

    A FiniteSet entry is its own domain, returned as it is. FiniteSet for
    equality-disjunction refinements, Interval for pure bound conjunctions
    with resolvable endpoints, Unbounded otherwise.
    """
    entry = _resolution_of(ctx).entries.get(name)
    if entry is None:
        raise NotIntegerRefined(f"{name!r} is not bound in the context")
    if entry.domain is None:
        raise NotIntegerRefined(f"{name!r} is not an integer refinement")
    return entry.domain


def singleton_env(ctx: TypingContext) -> dict[str, int]:
    """Values of context variables whose domains are single points, in
    context order.

    Used to resolve loop bounds and message endpoints that mention earlier
    context names (typically just `size`).
    """
    return dict(_resolution_of(ctx).env)


# ---------------------------------------------------------------------------
# Datatype equivalence


def _strip_trivial(d: Datatype) -> Datatype:
    """d with a trivial element refinement {x: base | true} replaced by base,
    under any number of array dimensions."""
    lengths = []
    elem = d
    while type(elem) is Array:
        lengths.append(elem.length)
        elem = elem.elem
    if not (type(elem) is Refined and type(elem.pred) is TrueProp):
        return d
    d = elem.base
    for length in reversed(lengths):
        d = Array(d, length)
    return d


_ALPHA = "$"


def _alpha(pred: Proposition, binder: str) -> Proposition:
    return subst_prop(pred, {binder: Var(_ALPHA)})


def _satisfying(ctx: TypingContext, d: Refined) -> tuple[bool, tuple]:
    """An integer refinement's satisfying set: (True, its sorted values) for
    equalities, or (False, (lo, hi)) for bounds, None on a side without one.
    Raises UndecidableEquivalence for any other refinement."""
    shape = _recognize(d.pred, d.binder)
    if isinstance(shape, _BoundShape) and shape.residual:
        raise UndecidableEquivalence("unrecognized refinement shape")
    try:
        return isinstance(shape, _EqShape), _evaluate(shape, _resolution_of(ctx).env)
    except (UnboundVariable, DivisionByZero):
        raise UndecidableEquivalence("unrecognized refinement shape") from None


def _same_set(s1: tuple[bool, tuple], s2: tuple[bool, tuple]) -> bool:
    """Whether two _satisfying sets are equal, without listing an interval."""
    (listed1, points1), (listed2, points2) = s1, s2
    if listed1 == listed2:
        return points1 == points2 or not listed1 and _empty(points1) and _empty(points2)
    values, (lo, hi) = (points1, points2) if listed1 else (points2, points1)
    # Sorted, distinct values fill lo..hi when they start at lo, end at hi
    # and number as many.
    return values[0] == lo and values[-1] == hi == lo + len(values) - 1


def _empty(bounds: tuple) -> bool:
    lo, hi = bounds
    return lo is not None and hi is not None and lo > hi


def dtype_equiv(ctx: TypingContext, d1: Datatype, d2: Datatype) -> bool:
    """Semantic equivalence of two datatypes under a context.

    Array lengths compare through entailment; refinements compare through
    their recognized satisfying sets (strict bounds normalized first). Raises
    UndecidableEquivalence when the engine cannot settle the question.
    """
    a, b = _strip_trivial(d1), _strip_trivial(d2)
    # Elements first, then lengths from the innermost dimension out.
    lengths = []
    while type(a) is Array and type(b) is Array:
        lengths.append((a.length, b.length))
        a, b = a.elem, b.elem
    if not _element_equiv(ctx, a, b):
        return False
    for l1, l2 in reversed(lengths):
        verdict = entails(ctx, Cmp("=", l1, l2))
        if verdict is Verdict.UNDECIDABLE:
            raise UndecidableEquivalence(f"array lengths {l1!r} and {l2!r} are not comparable")
        if verdict is not Verdict.VALID:
            return False
    return True


def _element_equiv(ctx: TypingContext, a: Datatype, b: Datatype) -> bool:
    """dtype_equiv of two stripped datatypes that are not both arrays."""
    kind = type(a)
    if kind is not Refined and type(b) is not Refined:
        return kind is type(b) and (kind is Integer or kind is Float)
    if kind is not type(b):
        refined, other = (a, b) if kind is Refined else (b, a)
        if type(other) is not type(refined.base):
            return False
        if type(refined.base) is Float:
            raise UndecidableEquivalence("float refinements compare only syntactically")
        # Equivalent to the bare base only when entirely unconstrained.
        return _satisfying(ctx, refined) == (False, (None, None))
    if a.base != b.base:
        return False
    if _alpha(a.pred, a.binder) == _alpha(b.pred, b.binder):
        return True
    if type(a.base) is Float:
        raise UndecidableEquivalence("float refinements compare only syntactically")
    return _same_set(_satisfying(ctx, a), _satisfying(ctx, b))


# ---------------------------------------------------------------------------
# Context builders


def initial_context(n: int) -> TypingContext:
    """Context for a world of n ranks: just ``size : {x:integer | x = n}``."""
    if n < 1:
        raise InvalidRankSet(f"world size must be positive, got {n}")
    return TypingContext((("size", Refined("x", Integer(), Cmp("=", Var("x"), IntLit(n)))),))


def merged_context(n: int, ranks: Iterable[int]) -> TypingContext:
    """Context carrying the already-merged rank set alongside size."""
    rs = sorted(set(ranks))
    if not rs:
        raise InvalidRankSet("merged rank set is empty")
    if rs[0] < 0 or rs[-1] >= n:
        raise InvalidRankSet(f"ranks {rs} out of range for size {n}")
    return initial_context(n).extend("rank", FiniteSet(tuple(rs)))
