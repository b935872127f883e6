"""Per-rank local type extraction.

Step one of the inference pipeline: specialize the shared program to a rank,
then map each process construct to the matching type construct. Every
payload is written out in the program text, so the local type needs no
inference beyond that walk.
"""

from __future__ import annotations

from .ast import (
    Allreduce,
    AllreduceStmt,
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
    drop_binder,
    eval_index,
    eval_prop,
    is_closed,
    map_spine,
    prop_vars,
    spine,
    subst_datatype,
    subst_index,
    subst_prop,
)

__all__ = [
    "ResidualConditional",
    "specialize",
    "extract_local_type",
]


class ResidualConditional(ProtomergeError):
    """An If survived specialization; the type language has no branching."""


def specialize(p: Process, rank: int, size: int) -> Process:
    """Instantiate the program for one rank.

    The rank literal substitutes everywhere; the size literal only in control
    positions (endpoints, loop bounds, conditional tests), so payloads stay
    parametric in size. Closed endpoints and bounds fold to literals, closed
    conditionals reduce to the taken branch, and loops whose constant range
    is empty drop away. Idempotent.
    """
    if not 0 <= rank < size:
        raise ValueError(f"rank {rank} outside 0..{size - 1}")
    everywhere = {"rank": IntLit(rank)}
    return _specialize(p, everywhere, {**everywhere, "size": IntLit(size)})


def _specialize(p: Process, everywhere: Sub, control: Sub) -> Process:
    """One walk along p's spine; `control` substitutes in control positions,
    `everywhere` in payloads."""

    def fold(t: IndexTerm) -> IndexTerm:
        t = subst_index(t, control)
        return t if isinstance(t, IntLit) or not is_closed(t) else IntLit(eval_index({}, t))

    def leaf(node: Process) -> Process:
        kind = type(node)
        if kind is PSkip:
            return node
        if kind is Send:
            return Send(fold(node.to), subst_datatype(node.payload, everywhere))
        if kind is Recv:
            return Recv(fold(node.src), subst_datatype(node.payload, everywhere))
        if kind is AllreduceStmt:
            return AllreduceStmt(node.op, subst_datatype(node.payload, everywhere))
        if kind is For:
            lo, hi = fold(node.lo), fold(node.hi)
            if type(lo) is IntLit and type(hi) is IntLit and hi.value < lo.value:
                return PSkip()
            binder = node.binder
            body = _specialize(node.body, drop_binder(everywhere, binder), drop_binder(control, binder))
            return For(binder, lo, hi, body)
        if kind is If:
            test, then, orelse = subst_prop(node.test, control), node.then, node.orelse
            if not prop_vars(test):
                return _specialize(then if eval_prop({}, test) else orelse, everywhere, control)
            return If(test, _specialize(then, everywhere, control), _specialize(orelse, everywhere, control))
        raise TypeError(f"not a process: {node!r}")

    return map_spine(p, leaf)


def _local_type(p: Process, self_rank: int) -> ProtocolType:
    """Map a specialized process to rank self_rank's local type, in sequence
    normal form."""
    items = []
    for node in spine(p):
        kind = type(node)
        if kind is PSkip:
            continue
        if kind is Send:
            items.append(Message(IntLit(self_rank), node.to, node.payload))
        elif kind is Recv:
            items.append(Message(node.src, IntLit(self_rank), node.payload))
        elif kind is AllreduceStmt:
            items.append(Allreduce(node.op, FRESH_BINDER, node.payload, Skip()))
        elif kind is For:
            items.append(Foreach(node.binder, node.lo, node.hi, _local_type(node.body, self_rank)))
        elif kind is If:
            raise ResidualConditional("conditional whose test is still open after specialization")
        else:
            raise TypeError(f"not a process: {node!r}")
    return build_seq(items)


def extract_local_type(ctx: TypingContext, p: Process, self_rank: int, size: int) -> ProtocolType:
    """specialize, then map to types: one rank's sequence-normalized local type.

    The context describes the world the rank lives in; extraction itself
    reads nothing from it.
    """
    return _local_type(specialize(p, self_rank, size), self_rank)
