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
    PSeq,
    PSkip,
    Process,
    ProtocolType,
    ProtomergeError,
    Recv,
    Send,
    Seq,
    Skip,
    TypingContext,
    eval_index,
    eval_prop,
    is_closed,
    prop_vars,
    subst_index,
    subst_process,
    subst_prop,
)
from .merge import normalize_seq

__all__ = [
    "ResidualConditional",
    "specialize",
    "extract_local_type",
]


class ResidualConditional(ProtomergeError):
    """An If survived specialization; the type language has no branching."""


def _fold_closed(t: IndexTerm) -> IndexTerm:
    """Evaluate a closed index term to a literal; leave open terms alone."""
    if isinstance(t, IntLit) or not is_closed(t):
        return t
    return IntLit(eval_index({}, t))


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
    ranked = subst_process(p, {"rank": IntLit(rank)})
    return _partial_eval(_subst_control(ranked, {"size": IntLit(size)}))


def _subst_control(p: Process, env: dict[str, IndexTerm]) -> Process:
    match p:
        case PSkip() | AllreduceStmt():
            return p
        case Send(to, payload):
            return Send(subst_index(to, env), payload)
        case Recv(src, payload):
            return Recv(subst_index(src, env), payload)
        case For(binder, lo, hi, body):
            inner = {k: v for k, v in env.items() if k != binder}
            return For(binder, subst_index(lo, env), subst_index(hi, env), _subst_control(body, inner))
        case If(test, then, orelse):
            return If(subst_prop(test, env), _subst_control(then, env), _subst_control(orelse, env))
        case PSeq(first, second):
            return PSeq(_subst_control(first, env), _subst_control(second, env))
    raise TypeError(f"not a process: {p!r}")


def _partial_eval(p: Process) -> Process:
    match p:
        case PSkip() | AllreduceStmt():
            return p
        case Send(to, payload):
            return Send(_fold_closed(to), payload)
        case Recv(src, payload):
            return Recv(_fold_closed(src), payload)
        case For(binder, lo, hi, body):
            flo, fhi = _fold_closed(lo), _fold_closed(hi)
            if isinstance(flo, IntLit) and isinstance(fhi, IntLit) and fhi.value < flo.value:
                return PSkip()
            return For(binder, flo, fhi, _partial_eval(body))
        case If(test, then, orelse):
            if not prop_vars(test):
                return _partial_eval(then if eval_prop({}, test) else orelse)
            return If(test, _partial_eval(then), _partial_eval(orelse))
        case PSeq(first, second):
            return PSeq(_partial_eval(first), _partial_eval(second))
    raise TypeError(f"not a process: {p!r}")


def _local_type(p: Process, self_rank: int) -> ProtocolType:
    """Map a specialized process to the local type of rank self_rank."""
    match p:
        case PSkip():
            return Skip()
        case Send(to, payload):
            return Message(IntLit(self_rank), to, payload)
        case Recv(src, payload):
            return Message(src, IntLit(self_rank), payload)
        case AllreduceStmt(op, payload):
            return Allreduce(op, FRESH_BINDER, payload, Skip())
        case For(binder, lo, hi, body):
            return Foreach(binder, lo, hi, _local_type(body, self_rank))
        case If():
            raise ResidualConditional("conditional whose test is still open after specialization")
        case PSeq(first, second):
            return Seq(_local_type(first, self_rank), _local_type(second, self_rank))
    raise TypeError(f"not a process: {p!r}")


def extract_local_type(ctx: TypingContext, p: Process, self_rank: int, size: int) -> ProtocolType:
    """specialize, then map to types: one rank's sequence-normalized local type.

    The context describes the world the rank lives in; extraction itself
    reads nothing from it.
    """
    return normalize_seq(_local_type(specialize(p, self_rank, size), self_rank))
