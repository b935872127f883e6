"""Per-rank local type extraction.

Step one of the inference pipeline: one walk over the shared program reads
off one rank's local type. It substitutes the rank and the world size as it
goes and maps each statement it reaches to the matching type construct.
Every payload is written out in the program text, so the local type needs no
inference beyond that walk.
"""

from __future__ import annotations

import sys

from .ast import (
    Allreduce,
    AllreduceStmt,
    DivisionByZero,
    For,
    Foreach,
    FRESH_BINDER,
    If,
    IndexTerm,
    IntLit,
    Message,
    PSkip,
    Process,
    ProtocolType,
    ProtomergeError,
    Recv,
    Send,
    Skip,
    Sub,
    TypingContext,
    build_seq,
    deeper,
    drop_binder,
    eval_index,
    eval_prop,
    is_closed,
    prop_vars,
    spine,
    subst_datatype,
    subst_index,
    subst_prop,
)

__all__ = [
    "ResidualConditional",
    "extract_local_type",
]


class ResidualConditional(ProtomergeError):
    """A conditional's test stays open once the rank and size substitute;
    the type language has no branching."""


def _fold(t: IndexTerm, control: Sub) -> IndexTerm:
    """t with control substituted, folded to a literal when that closes it.
    A division by zero, or a literal with more digits than the interpreter
    prints (its int-to-text limit, where one is set), raises ValueError."""
    t = subst_index(t, control)
    if type(t) is IntLit or not is_closed(t):
        return t
    try:
        value = eval_index({}, t)
    except DivisionByZero as exc:
        raise ValueError(f"an endpoint or loop bound divides by zero: {exc}") from None
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # 2**(3 * limit) < 10**limit, so a shorter value is never too long.
    if limit and value.bit_length() > 3 * limit and abs(value) >= 10**limit:
        raise ValueError(f"an endpoint or loop bound folds to an integer of more than {limit} digits")
    return IntLit(value)


def _walk(p: Process, me: IntLit, everywhere: Sub, control: Sub, depth: int, items: list) -> list:
    """Append to items the local type of what rank `me` runs of p. `control`
    substitutes in control positions (endpoints, loop bounds, conditional
    tests), `everywhere` in payloads."""
    for node in spine(p):
        kind = type(node)
        if kind is PSkip:
            continue
        if kind is Send:
            items.append(Message(me, _fold(node.to, control), subst_datatype(node.payload, everywhere)))
        elif kind is Recv:
            items.append(Message(_fold(node.src, control), me, subst_datatype(node.payload, everywhere)))
        elif kind is AllreduceStmt:
            payload = subst_datatype(node.payload, everywhere)
            items.append(Allreduce(node.op, FRESH_BINDER, payload, Skip()))
        elif kind is For:
            lo, hi = _fold(node.lo, control), _fold(node.hi, control)
            if type(lo) is IntLit and type(hi) is IntLit and hi.value < lo.value:
                continue
            binder = node.binder
            inner = drop_binder(everywhere, binder), drop_binder(control, binder)
            body = _walk(node.body, me, *inner, deeper(depth), [])
            items.append(Foreach(binder, lo, hi, build_seq(body)))
        elif kind is If:
            test = subst_prop(node.test, control)
            if prop_vars(test):
                raise ResidualConditional("conditional whose test is still open after specialization")
            try:
                taken = node.then if eval_prop({}, test) else node.orelse
            except DivisionByZero as exc:
                raise ValueError(f"a conditional test divides by zero: {exc}") from None
            _walk(taken, me, everywhere, control, deeper(depth), items)
        else:
            raise TypeError(f"not a process: {node!r}")
    return items


def extract_local_type(ctx: TypingContext, p: Process, self_rank: int, size: int) -> ProtocolType:
    """Rank self_rank's local type of p, in sequence normal form.

    The rank literal substitutes everywhere, the size literal only in control
    positions, so payloads stay parametric in size. Closed endpoints and
    bounds fold to literals, a closed conditional gives the branch it takes,
    and a loop whose constant range is empty drops away. An open conditional
    raises ResidualConditional; blocks nested past MAX_BLOCK_DEPTH raise
    NestingTooDeep. The context describes the world the rank lives in;
    extraction itself reads nothing from it.
    """
    if not 0 <= self_rank < size:
        raise ValueError(f"rank {self_rank} outside 0..{size - 1}")
    me = IntLit(self_rank)
    everywhere = {"rank": me}
    return build_seq(_walk(p, me, everywhere, {**everywhere, "size": IntLit(size)}, 0, []))
