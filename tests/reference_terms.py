"""Reference term kernels: the walks that dispatched on node classes with a
`match` statement, one class pattern tried per case, before the kernels in
`protomerge` moved to `type(node) is C` tests. They are kept as they were,
with `eval_prop`'s comparison table and the helpers that call them by name
(`loop_bounds`, `subst_datatype`, `dtype_equiv`, the oracle's
`_eval_endpoint` and `_instance`, the printers' `_endpoint_text` and
`_bound_text`), so that each one here calls only the others here. They are
the reference the dispatched kernels are checked against: the same node
objects, the same values, the same errors.
"""

from __future__ import annotations

from functools import partial

from protomerge.ast import (
    FRESH_BINDER,
    LINEARIZE_BUDGET,
    Allreduce,
    AllreduceStmt,
    And,
    Array,
    BinOp,
    Cmp,
    Cond,
    DivisionByZero,
    Float,
    For,
    Foreach,
    If,
    Integer,
    IntLit,
    Message,
    NonConstantBounds,
    Not,
    Or,
    PSeq,
    PSkip,
    Recv,
    Refined,
    Send,
    Seq,
    Skip,
    TrueProp,
    UnboundVariable,
    Var,
    deeper,
    drop_binder,
    map_spine,
    spine,
    trunc_div,
)
from protomerge.logic import (
    UndecidableEquivalence,
    Verdict,
    _alpha,
    _same_set,
    _satisfying,
    _strip_trivial,
    entails,
    singleton_env,
)
from protomerge.oracle import Collective, OpenIndexTerm, RecvFrom, SendTo, _over_budget
from protomerge.syntax import _ATOM, _COND, _LEVELS, _LINES, _NOT, _ONE_LINE, _infix


# ---------------------------------------------------------------------------
# protomerge.ast


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


def loop_bounds(env: Mapping[str, int], loop: Foreach) -> tuple[int, int]:
    """A foreach's (lo, hi) under env; NonConstantBounds when either bound
    mentions a name env lacks or divides by zero."""
    try:
        return eval_index(env, loop.lo), eval_index(env, loop.hi)
    except (UnboundVariable, DivisionByZero) as exc:
        raise NonConstantBounds(f"foreach bounds are not constant: {exc}") from None


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
    names: frozenset[str] = frozenset()
    # Array dimensions are walked in a loop, not one call deep each.
    while type(d) is Array:
        names |= index_vars(d.length)
        d = d.elem
    match d:
        case Integer() | Float():
            return names
        case Refined(binder, _, pred):
            return names | (prop_vars(pred) - {binder})
    raise TypeError(f"not a datatype: {d!r}")


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
        match node:
            case Skip():
                return node
            case Message(src, dst, payload):
                return Message(subst_index(src, sub), subst_index(dst, sub), subst_datatype(payload, sub))
            case Allreduce(op, binder, payload, cont):
                if type(cont) is not Skip:  # a bare allreduce opens no block
                    cont = subst_type(cont, drop_binder(sub, binder), deeper(depth))
                return Allreduce(op, binder, subst_datatype(payload, sub), cont)
            case Foreach(binder, lo, hi, body):
                body = subst_type(body, drop_binder(sub, binder), deeper(depth))
                return Foreach(binder, subst_index(lo, sub), subst_index(hi, sub), body)
        raise TypeError(f"not a protocol type: {node!r}")

    return map_spine(t, leaf)


# ---------------------------------------------------------------------------
# protomerge.logic


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
    match (a, b):
        case (Integer(), Integer()) | (Float(), Float()):
            return True
        case (Refined(b1, base1, p1), Refined(b2, base2, p2)):
            if base1 != base2:
                return False
            if _alpha(p1, b1) == _alpha(p2, b2):
                return True
            if type(base1) is Float:
                raise UndecidableEquivalence("float refinements compare only syntactically")
            return _same_set(_satisfying(ctx, a), _satisfying(ctx, b))
        case (Refined(_, base, _), other) | (other, Refined(_, base, _)) if type(other) is type(base):
            refined = a if type(a) is Refined else b
            if type(base) is Float:
                raise UndecidableEquivalence("float refinements compare only syntactically")
            # Equivalent to the bare base only when entirely unconstrained.
            return _satisfying(ctx, refined) == (False, (None, None))
        case _:
            return False


# ---------------------------------------------------------------------------
# protomerge.oracle


def _eval_endpoint(env: dict[str, int], term: IndexTerm) -> int:
    try:
        return eval_index(env, term)
    except (UnboundVariable, DivisionByZero) as exc:
        raise OpenIndexTerm(f"message endpoint is not a constant rank: {exc}") from None


def _instance(payload: Datatype, live: dict[str, int], free: dict) -> Datatype:
    """payload with the live loop binders it mentions replaced by their
    values; payload itself when it mentions none. free caches each
    payload's free variables."""
    names = free.get(payload)
    if names is None:
        names = free[payload] = datatype_vars(payload)
    if names.isdisjoint(live):
        return payload
    return subst_datatype(payload, {x: IntLit(live[x]) for x in names if x in live})


def _free_names(t: ProtocolType, depth: int, free: dict) -> frozenset[str]:
    """The names t reads: those of its endpoints, payloads and loop bounds,
    and of its bodies and continuations less their binders. free caches them."""
    names = free.get(t)
    if names is not None:
        return names
    names = frozenset()
    for node in spine(t):
        match node:
            case Message(src, dst, payload):
                names |= index_vars(src) | index_vars(dst) | datatype_vars(payload)
            case Allreduce(_, binder, payload, cont):
                names |= datatype_vars(payload)
                if type(cont) is not Skip:
                    names |= _free_names(cont, deeper(depth), free) - {binder}
            case Foreach(binder, lo, hi, body):
                names |= index_vars(lo) | index_vars(hi) | (_free_names(body, deeper(depth), free) - {binder})
    free[t] = names
    return names


def linearize(ctx: TypingContext, t: ProtocolType, self_rank: int) -> list[Action]:
    """Project a protocol to rank self_rank's straight-line action list.

    Every foreach is fully unfolded (bounds must be constant under ctx) and
    every message endpoint must evaluate to a concrete rank. The walk
    follows each sequence's spine and recurses only into loop bodies and
    allreduce continuations, so its depth grows with their nesting, never
    with sequence length or trip count; past MAX_BLOCK_DEPTH it raises
    NestingTooDeep. A loop body free of its binder yields the same actions
    on every iteration: it is walked once, and its block of actions is
    repeated. Any other body is walked once per iteration under an
    environment of the live loop binders' values: only a payload that
    mentions one is substituted. Raises UnfoldBudgetExceeded, before
    unfolding, once the loops met so far would run more than
    LINEARIZE_BUDGET iterations in total, every repeated block counted, or
    build more than LINEARIZE_BUDGET actions (checked after each walk of a
    loop body and before a block is repeated).
    """
    # Endpoints and bounds are evaluated under env: the context's single
    # values (top) overridden by the live loop binders, which live holds
    # alone. A scope that changes either walks under copies of both.
    top = singleton_env(ctx)
    free: dict = {}
    actions: list[Action] = []
    unfolded = 0

    def walk(items: list[ProtocolType], env: dict[str, int], live: dict[str, int], depth: int) -> None:
        nonlocal unfolded
        for node in items:
            # Most items are messages, and a class pattern that misses a
            # node class is slow (ast._NodeType): test for them first.
            if type(node) is Message:
                s = _eval_endpoint(env, node.src)
                d = _eval_endpoint(env, node.dst)
                payload = node.payload
                if s == self_rank:
                    actions.append(SendTo(d, _instance(payload, live, free) if live else payload))
                elif d == self_rank:
                    actions.append(RecvFrom(s, _instance(payload, live, free) if live else payload))
                continue
            match node:
                case Allreduce(op, binder, payload, cont):
                    actions.append(Collective(op, _instance(payload, live, free) if live else payload))
                    if type(cont) is Skip:
                        continue
                    if binder in live:
                        # In the continuation `binder` names the reduction
                        # result, which has no value here; the context's
                        # single value, if it has one, is back in scope.
                        cont_env = (
                            {**env, binder: top[binder]} if binder in top else drop_binder(env, binder)
                        )
                        walk(spine(cont), cont_env, drop_binder(live, binder), deeper(depth))
                    else:
                        walk(spine(cont), env, live, deeper(depth))
                case Foreach(binder, _, _, body):
                    lo_v, hi_v = loop_bounds(env, node)
                    if hi_v < lo_v:
                        continue
                    unfolded += hi_v - lo_v + 1
                    if unfolded > LINEARIZE_BUDGET:
                        raise _over_budget(self_rank)
                    inner = deeper(depth)
                    repeat = binder not in _free_names(body, inner, free)
                    body_items = spine(body)
                    inner_env, inner_live = dict(env), dict(live)
                    start, before = len(actions), unfolded
                    for value in range(lo_v, lo_v + 1 if repeat else hi_v + 1):
                        inner_env[binder] = inner_live[binder] = value
                        walk(body_items, inner_env, inner_live, inner)
                        if len(actions) > LINEARIZE_BUDGET:
                            raise _over_budget(self_rank, "build more than {} actions")
                    if repeat and hi_v > lo_v:
                        # Each repeat runs the one walk's nested iterations.
                        unfolded += (unfolded - before) * (hi_v - lo_v)
                        if unfolded > LINEARIZE_BUDGET:
                            raise _over_budget(self_rank)
                        if len(actions) + (len(actions) - start) * (hi_v - lo_v) > LINEARIZE_BUDGET:
                            raise _over_budget(self_rank, "build more than {} actions")
                        actions.extend(actions[start:] * (hi_v - lo_v))
                case Skip():
                    pass
                case _:
                    raise TypeError(f"unexpected protocol node {type(node).__name__}")

    walk(spine(t), top, {}, 0)
    return actions


def cap_loops(ctx: TypingContext, t: ProtocolType, bound: int) -> ProtocolType:
    """Truncate every constant-bound foreach to at most `bound` iterations.

    Loops whose bounds do not evaluate under ctx are left untouched. Useful
    for keeping linearizations small before simulating. Nesting deeper than
    MAX_BLOCK_DEPTH raises NestingTooDeep.
    """
    if bound < 1:
        raise ValueError("loop bound must be at least 1")
    env = singleton_env(ctx)

    def cap(node: ProtocolType, depth: int = 0) -> ProtocolType:
        if type(node) is Message or type(node) is Skip:
            return node
        match node:
            case Allreduce(op, binder, payload, cont) if type(cont) is not Skip:
                return Allreduce(op, binder, payload, map_spine(cont, partial(cap, depth=deeper(depth))))
            case Foreach(binder, lo, hi, body):
                capped = map_spine(body, partial(cap, depth=deeper(depth)))
                try:
                    lo_v, hi_v = loop_bounds(env, node)
                except NonConstantBounds:
                    return Foreach(binder, lo, hi, capped)
                if hi_v - lo_v + 1 > bound:
                    return Foreach(binder, lo, IntLit(lo_v + bound - 1), capped)
                return Foreach(binder, lo, hi, capped)
            case _:
                return node

    return map_spine(t, cap)


# ---------------------------------------------------------------------------
# protomerge.syntax


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
    while type(d) is Array:
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
    if type(t) is Var or (type(t) is IntLit and t.value >= 0):
        return print_index(t)
    return f"({print_index(t)})"


def _bound_text(t: IndexTerm) -> str:
    # Bounds sit before '..' or '{'; anything looser than `+` needs parens.
    return print_index(t, _LEVELS["+"])


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
