"""Reference extraction: specialize the program, then map it to types.

`reference_extract` is the two-walk extraction that
`protomerge.extract.extract_local_type` replaced. `specialize` builds a
rank-specialized copy of the whole process: closed endpoints and loop bounds
fold to literals, a closed conditional reduces to the branch it takes, a loop
whose constant range is empty drops away, and an open conditional is kept
with both branches specialized. `local_type` then walks that copy once more
and maps each statement to its type construct, refusing a conditional that
survived. It is the reference the one walk is checked against.

The one walk stops at the first open conditional in program order, where
this path first specializes everything, so the two can raise different
errors for one program: where a division by zero (in a closed conditional's
test, an endpoint or a loop bound) lies after an open conditional, or inside
its branches, this path raises ValueError and the one walk
ResidualConditional.
"""

from __future__ import annotations

from protomerge import (
    Allreduce,
    AllreduceStmt,
    DivisionByZero,
    For,
    Foreach,
    If,
    IntLit,
    Message,
    PSeq,
    PSkip,
    Process,
    ProtocolType,
    Recv,
    ResidualConditional,
    Send,
    Skip,
    eval_index,
    eval_prop,
    is_closed,
    prop_vars,
    subst_datatype,
    subst_index,
    subst_prop,
)
from protomerge.ast import FRESH_BINDER, Sub, build_seq, drop_binder, spine


def specialize(p: Process, rank: int, size: int) -> Process:
    """Instantiate the program for one rank: the rank literal substitutes
    everywhere, the size literal only in control positions."""
    if not 0 <= rank < size:
        raise ValueError(f"rank {rank} outside 0..{size - 1}")
    everywhere = {"rank": IntLit(rank)}
    return _specialize(p, everywhere, {**everywhere, "size": IntLit(size)})


def _specialize(p: Process, everywhere: Sub, control: Sub) -> Process:
    def fold(t):
        t = subst_index(t, control)
        if isinstance(t, IntLit) or not is_closed(t):
            return t
        try:
            return IntLit(eval_index({}, t))
        except DivisionByZero as exc:
            raise ValueError(f"an endpoint or loop bound divides by zero: {exc}") from None

    kind = type(p)
    if kind is PSeq:
        first = _specialize(p.first, everywhere, control)
        return PSeq(first, _specialize(p.second, everywhere, control))
    if kind is PSkip:
        return p
    if kind is Send:
        return Send(fold(p.to), subst_datatype(p.payload, everywhere))
    if kind is Recv:
        return Recv(fold(p.src), subst_datatype(p.payload, everywhere))
    if kind is AllreduceStmt:
        return AllreduceStmt(p.op, subst_datatype(p.payload, everywhere))
    if kind is For:
        lo, hi = fold(p.lo), fold(p.hi)
        if type(lo) is IntLit and type(hi) is IntLit and hi.value < lo.value:
            return PSkip()
        inner = drop_binder(everywhere, p.binder), drop_binder(control, p.binder)
        return For(p.binder, lo, hi, _specialize(p.body, *inner))
    if kind is If:
        test = subst_prop(p.test, control)
        if not prop_vars(test):
            try:
                taken = p.then if eval_prop({}, test) else p.orelse
            except DivisionByZero as exc:
                raise ValueError(f"a conditional test divides by zero: {exc}") from None
            return _specialize(taken, everywhere, control)
        return If(test, _specialize(p.then, everywhere, control), _specialize(p.orelse, everywhere, control))
    raise TypeError(f"not a process: {p!r}")


def local_type(p: Process, self_rank: int) -> ProtocolType:
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
            items.append(Foreach(node.binder, node.lo, node.hi, local_type(node.body, self_rank)))
        elif kind is If:
            raise ResidualConditional("conditional whose test is still open after specialization")
        else:
            raise TypeError(f"not a process: {node!r}")
    return build_seq(items)


def reference_extract(p: Process, self_rank: int, size: int) -> ProtocolType:
    return local_type(specialize(p, self_rank, size), self_rank)
