"""Execution oracle for protocols.

A protocol is checked independently of the merge engine by projecting it to a
straight-line action list per rank (`linearize`) and then running the lists
under rendezvous semantics (`simulate`): a send and the matching receive
advance together, and a collective advances all ranks at once.

Every receive names its source and every list is straight-line, so the system
is confluent (Siegel & Avrunin, "Modeling wildcard-free MPI programs for
verification", PPoPP 2005): each rank's next action takes part in at most one
step, firing a step never disables another, and every maximal run ends in the
same state. One run therefore decides completion, mismatch and deadlock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .ast import (
    Allreduce,
    Datatype,
    DivisionByZero,
    Foreach,
    IndexTerm,
    IntLit,
    Message,
    ProtocolType,
    ProtomergeError,
    ReduceOp,
    Seq,
    Skip,
    TypingContext,
    UnboundVariable,
    datatype_vars,
    eval_index,
    map_spine,
    subst_datatype,
)
from .logic import dtype_equiv, initial_context, singleton_env
# unfold_foreach is no longer called here; the name stays importable from
# this module because perfbench/spans.py rebinds it.
from .merge import NonConstantBounds, unfold_foreach  # noqa: F401
from .syntax import print_datatype

__all__ = [
    "LINEARIZE_BUDGET",
    "Collective",
    "CollectiveEvent",
    "Completed",
    "Deadlocked",
    "MessageEvent",
    "Mismatch",
    "OpenIndexTerm",
    "RecvFrom",
    "SendTo",
    "UnfoldBudgetExceeded",
    "cap_loops",
    "linearize",
    "simulate",
]

# Loop iterations one linearize call may unfold. Loop bounds are numbers in
# the input, so this is the oracle's only cost not bounded by input size.
LINEARIZE_BUDGET = 10**6


class OpenIndexTerm(ProtomergeError):
    """A message endpoint does not evaluate to a constant rank."""


class UnfoldBudgetExceeded(ProtomergeError):
    """Linearizing a protocol would unfold more loop iterations than allowed."""


# -- per-rank actions


@dataclass(frozen=True, slots=True)
class SendTo:
    peer: int
    payload: Datatype


@dataclass(frozen=True, slots=True)
class RecvFrom:
    peer: int
    payload: Datatype


@dataclass(frozen=True, slots=True)
class Collective:
    op: ReduceOp
    payload: Datatype


Action = SendTo | RecvFrom | Collective


# -- simulation events and results


@dataclass(frozen=True, slots=True)
class MessageEvent:
    src: int
    dst: int
    payload: Datatype


@dataclass(frozen=True, slots=True)
class CollectiveEvent:
    op: ReduceOp
    payload: Datatype


SimEvent = MessageEvent | CollectiveEvent


@dataclass(frozen=True, slots=True)
class Completed:
    trace: tuple[SimEvent, ...]


@dataclass(frozen=True, slots=True)
class Deadlocked:
    stuck: str


@dataclass(frozen=True, slots=True)
class Mismatch:
    detail: str


SimResult = Completed | Deadlocked | Mismatch


# ---------------------------------------------------------------------------
# Projection to action lists


def _eval_endpoint(env: dict[str, int], term: IndexTerm) -> int:
    try:
        return eval_index(env, term)
    except (UnboundVariable, DivisionByZero) as exc:
        raise OpenIndexTerm(f"message endpoint is not a constant rank: {exc}") from None


@dataclass(slots=True)
class _Loop:
    """Loop instances binder = value..hi of body, still to be walked."""

    binder: str
    body: ProtocolType
    value: int
    hi: int


@dataclass(frozen=True, slots=True)
class _Rebind:
    """End of a scope: give `name` back its values in linearize's live and
    env from before the scope began (None: it had none)."""

    name: str
    live_value: int | None
    env_value: int | None


def _set(mapping: dict[str, int], name: str, value: int | None) -> None:
    if value is None:
        mapping.pop(name, None)
    else:
        mapping[name] = value


def _instance(payload: Datatype, live: dict[str, int], free: dict[int, frozenset[str]]) -> Datatype:
    """payload with the live loop binders it mentions replaced by their
    values; payload itself when it mentions none. free caches each payload
    object's free variables by id."""
    names = free.get(id(payload))
    if names is None:
        names = free[id(payload)] = datatype_vars(payload)
    if names.isdisjoint(live):
        return payload
    return subst_datatype(payload, {x: IntLit(live[x]) for x in names if x in live})


def linearize(ctx: TypingContext, t: ProtocolType, self_rank: int) -> list[Action]:
    """Project a protocol to rank self_rank's straight-line action list.

    Every foreach is fully unfolded (bounds must be constant under ctx) and
    every message endpoint must evaluate to a concrete rank. Loop bodies are
    walked under an environment of the live loop binders' values, not
    rebuilt per iteration: a payload that mentions no live loop binder goes
    into the actions as the same object on every iteration, and only one
    that does is substituted. The walk keeps its own stack, so its depth
    does not grow with sequence length or trip count. Raises
    UnfoldBudgetExceeded, before unfolding, once the loops met so far would
    run more than LINEARIZE_BUDGET iterations in total.
    """
    # Endpoints and bounds are evaluated under env: the context's single
    # values overridden by the live loop binders, which live holds alone.
    # Both change only where a loop iteration starts or a scope ends.
    env = singleton_env(ctx)
    live: dict[str, int] = {}
    free: dict[int, frozenset[str]] = {}
    actions: list[Action] = []
    unfolded = 0
    # Nodes still to walk, last one first; a _Loop entry stands for the
    # loop instances not yet walked, and a _Rebind entry ends a scope.
    stack: list[ProtocolType | _Loop | _Rebind] = [t]
    while stack:
        node = stack.pop()
        match node:
            case Skip():
                pass
            case Seq(first, second):
                stack.append(second)
                stack.append(first)
            case Message(src, dst, payload):
                s = _eval_endpoint(env, src)
                d = _eval_endpoint(env, dst)
                if s == self_rank:
                    actions.append(SendTo(d, _instance(payload, live, free) if live else payload))
                elif d == self_rank:
                    actions.append(RecvFrom(s, _instance(payload, live, free) if live else payload))
            case Allreduce(op, binder, payload, cont):
                actions.append(Collective(op, _instance(payload, live, free) if live else payload))
                if binder in live:
                    # In the continuation `binder` names the reduction
                    # result, which has no value here.
                    stack.append(_Rebind(binder, live.pop(binder), env[binder]))
                    _set(env, binder, singleton_env(ctx).get(binder))
                stack.append(cont)
            case Foreach(binder, lo, hi, body):
                try:
                    lo_v, hi_v = eval_index(env, lo), eval_index(env, hi)
                except (UnboundVariable, DivisionByZero) as exc:
                    raise NonConstantBounds(f"foreach bounds are not constant: {exc}") from None
                if hi_v < lo_v:
                    continue
                unfolded += hi_v - lo_v + 1
                if unfolded > LINEARIZE_BUDGET:
                    raise UnfoldBudgetExceeded(
                        f"linearizing rank {self_rank} would unfold more than "
                        f"{LINEARIZE_BUDGET} loop iterations"
                    )
                stack.append(_Rebind(binder, live.get(binder), env.get(binder)))
                stack.append(_Loop(binder, body, lo_v, hi_v))
            case _Loop(binder, body, value, hi):
                env[binder] = live[binder] = value
                if value < hi:
                    node.value = value + 1
                    stack.append(node)
                stack.append(body)
            case _Rebind(name, live_value, env_value):
                _set(live, name, live_value)
                _set(env, name, env_value)
            case _:
                raise TypeError(f"unexpected protocol node {type(node).__name__}")
    return actions


def cap_loops(ctx: TypingContext, t: ProtocolType, bound: int) -> ProtocolType:
    """Truncate every constant-bound foreach to at most `bound` iterations.

    Loops whose bounds do not evaluate under ctx are left untouched. Useful
    for keeping linearizations small before simulating.
    """
    if bound < 1:
        raise ValueError("loop bound must be at least 1")
    env = singleton_env(ctx)

    def cap(node: ProtocolType) -> ProtocolType:
        match node:
            case Allreduce(op, binder, payload, cont):
                return Allreduce(op, binder, payload, map_spine(cont, cap))
            case Foreach(binder, lo, hi, body):
                capped = map_spine(body, cap)
                try:
                    lo_v = eval_index(env, lo)
                    hi_v = eval_index(env, hi)
                except (UnboundVariable, DivisionByZero):
                    return Foreach(binder, lo, hi, capped)
                if hi_v - lo_v + 1 > bound:
                    return Foreach(binder, lo, IntLit(lo_v + bound - 1), capped)
                return Foreach(binder, lo, hi, capped)
            case _:
                return node

    return map_spine(t, cap)


# ---------------------------------------------------------------------------
# Rendezvous run


def _describe_action(rank: int, action: Action | None) -> str:
    match action:
        case None:
            return f"rank {rank}: done"
        case SendTo(peer, payload):
            return f"rank {rank}: send {print_datatype(payload)} to {peer}"
        case RecvFrom(peer, payload):
            return f"rank {rank}: receive {print_datatype(payload)} from {peer}"
        case Collective(op, payload):
            return f"rank {rank}: allreduce {op.value} {print_datatype(payload)}"


def simulate(
    actions: Sequence[Sequence[Action]],
    n: int,
    ctx: TypingContext | None = None,
) -> SimResult:
    """Run the per-rank action lists to their one terminal state.

    Returns Completed with the run's trace, one valid order of events, if
    every rank finishes. Otherwise returns Mismatch for the first send and
    receive pair or collective the run meets that is blocked by payload or
    operator disagreement; such a block never clears. Otherwise returns
    Deadlocked with every rank's pending action. Costs O(total actions)
    plus the payload comparisons: dtype_equiv runs once per distinct pair
    of payload values, and a pair of payload objects is hashed by value
    only the first time it is compared.
    """
    if len(actions) != n:
        raise ValueError(f"expected {n} action lists, got {len(actions)}")
    if ctx is None:
        ctx = initial_context(n)
    lists = [list(rank_actions) for rank_actions in actions]
    pos = [0] * n
    trace: list[SimEvent] = []

    # Payload comparisons are memoized by value, so dtype_equiv runs once
    # per pair of distinct values, and in front of that by object identity,
    # so a pair of payload objects met again is not hashed again: payloads
    # a loop shares across iterations are one object. The action lists keep
    # every payload alive for the whole run, so no id is reused.
    equiv_by_id: dict[tuple[int, int], bool] = {}
    equiv_cache: dict[tuple[Datatype, Datatype], bool] = {}

    def payload_eq(d1: Datatype, d2: Datatype) -> bool:
        ids = (id(d1), id(d2))
        eq = equiv_by_id.get(ids)
        if eq is None:
            eq = equiv_cache.get((d1, d2))
            if eq is None:
                eq = equiv_cache[d1, d2] = dtype_equiv(ctx, d1, d2)
            equiv_by_id[ids] = eq
        return eq

    def head(rank: int) -> Action | None:
        return lists[rank][pos[rank]] if pos[rank] < len(lists[rank]) else None

    def partner(i: int) -> int | None:
        """The rank j that rank i's head sends to, if j's head receives from
        i. A self-message has none: one head cannot both send and receive."""
        a = head(i)
        if isinstance(a, SendTo) and 0 <= a.peer < n:
            b = head(a.peer)
            if isinstance(b, RecvFrom) and b.peer == i:
                return a.peer
        return None

    # Senders of facing pairs, possibly queued twice or gone stale; each is
    # checked again when popped. Every facing pair has an entry.
    ready: list[int] = []
    at_collective = 0

    def arrive(rank: int) -> None:
        """Queue what rank's new head action can take part in."""
        nonlocal at_collective
        match head(rank):
            case Collective():
                at_collective += 1
            case SendTo() if partner(rank) is not None:
                ready.append(rank)
            case RecvFrom(peer) if 0 <= peer < n and partner(peer) == rank:
                ready.append(peer)

    for rank in range(n):
        arrive(rank)

    while True:
        if ready:
            i = ready.pop()
            j = partner(i)
            if j is None:
                continue
            a, b = head(i), head(j)
            if not payload_eq(a.payload, b.payload):
                return Mismatch(
                    f"rank {i} sends {print_datatype(a.payload)} but rank {j} "
                    f"expects {print_datatype(b.payload)}"
                )
            pos[i] += 1
            pos[j] += 1
            trace.append(MessageEvent(i, j, a.payload))
            arrive(i)
            arrive(j)
        elif at_collective == n:
            heads = [head(r) for r in range(n)]
            ops = {h.op for h in heads}
            if len(ops) > 1:
                names = ", ".join(sorted(op.value for op in ops))
                return Mismatch(f"collective operators disagree: {names}")
            base = heads[0]
            if not all(payload_eq(h.payload, base.payload) for h in heads[1:]):
                shapes = ", ".join(
                    f"rank {r}: {print_datatype(h.payload)}" for r, h in enumerate(heads)
                )
                return Mismatch(f"collective payloads disagree: {shapes}")
            at_collective = 0
            for r in range(n):
                pos[r] += 1
            trace.append(CollectiveEvent(base.op, base.payload))
            for r in range(n):
                arrive(r)
        else:
            break

    if all(pos[r] == len(lists[r]) for r in range(n)):
        return Completed(tuple(trace))
    return Deadlocked("; ".join(_describe_action(r, head(r)) for r in range(n)))
