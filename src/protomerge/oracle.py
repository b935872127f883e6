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

from functools import partial
from typing import Sequence

from .ast import (
    Allreduce,
    Datatype,
    DivisionByZero,
    Foreach,
    IndexTerm,
    IntLit,
    LINEARIZE_BUDGET,
    Message,
    NonConstantBounds,
    ProtocolType,
    ProtomergeError,
    ReduceOp,
    Skip,
    TypingContext,
    UnboundVariable,
    UnfoldBudgetExceeded,
    _Node,
    _Record,
    datatype_vars,
    deeper,
    drop_binder,
    eval_index,
    index_vars,
    loop_bounds,
    map_spine,
    spine,
    subst_datatype,
)
from .logic import dtype_equiv, initial_context, singleton_env
# unfold_foreach is no longer called here; the name stays importable from
# this module because perfbench/spans.py rebinds it.
from .merge import unfold_foreach  # noqa: F401
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

class OpenIndexTerm(ProtomergeError):
    """A message endpoint does not evaluate to a constant rank."""


# -- per-rank actions


class SendTo(_Node):
    peer: int
    payload: Datatype


class RecvFrom(_Node):
    peer: int
    payload: Datatype


class Collective(_Node):
    op: ReduceOp
    payload: Datatype


Action = SendTo | RecvFrom | Collective


# -- simulation events and results


class MessageEvent(_Node):
    src: int
    dst: int
    payload: Datatype


class CollectiveEvent(_Node):
    op: ReduceOp
    payload: Datatype


SimEvent = MessageEvent | CollectiveEvent


class Completed(_Record):
    trace: tuple[SimEvent, ...]


class Deadlocked(_Record):
    stuck: str


class Mismatch(_Record):
    detail: str


SimResult = Completed | Deadlocked | Mismatch


# ---------------------------------------------------------------------------
# Projection to action lists


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


def _over_budget(self_rank: int, excess: str = "unfold more than {} loop iterations") -> UnfoldBudgetExceeded:
    return UnfoldBudgetExceeded(f"linearizing rank {self_rank} would " + excess.format(LINEARIZE_BUDGET))


def _free_names(t: ProtocolType, depth: int, free: dict) -> frozenset[str]:
    """The names t reads: those of its endpoints, payloads and loop bounds,
    and of its bodies and continuations less their binders. free caches them."""
    names = free.get(t)
    if names is not None:
        return names
    names = frozenset()
    for node in spine(t):
        kind = type(node)
        if kind is Message:
            names |= index_vars(node.src) | index_vars(node.dst) | datatype_vars(node.payload)
        elif kind is Allreduce:
            names |= datatype_vars(node.payload)
            if type(node.cont) is not Skip:
                names |= _free_names(node.cont, deeper(depth), free) - {node.binder}
        elif kind is Foreach:
            names |= index_vars(node.lo) | index_vars(node.hi)
            names |= _free_names(node.body, deeper(depth), free) - {node.binder}
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
            kind = type(node)
            if kind is Message:
                s = _eval_endpoint(env, node.src)
                d = _eval_endpoint(env, node.dst)
                payload = node.payload
                if s == self_rank:
                    actions.append(SendTo(d, _instance(payload, live, free) if live else payload))
                elif d == self_rank:
                    actions.append(RecvFrom(s, _instance(payload, live, free) if live else payload))
            elif kind is Allreduce:
                binder, payload, cont = node.binder, node.payload, node.cont
                actions.append(Collective(node.op, _instance(payload, live, free) if live else payload))
                if type(cont) is Skip:
                    continue
                if binder in live:
                    # In the continuation `binder` names the reduction
                    # result, which has no value here; the context's
                    # single value, if it has one, is back in scope.
                    cont_env = {**env, binder: top[binder]} if binder in top else drop_binder(env, binder)
                    walk(spine(cont), cont_env, drop_binder(live, binder), deeper(depth))
                else:
                    walk(spine(cont), env, live, deeper(depth))
            elif kind is Foreach:
                binder = node.binder
                lo_v, hi_v = loop_bounds(env, node)
                if hi_v < lo_v:
                    continue
                unfolded += hi_v - lo_v + 1
                if unfolded > LINEARIZE_BUDGET:
                    raise _over_budget(self_rank)
                inner = deeper(depth)
                repeat = binder not in _free_names(node.body, inner, free)
                body_items = spine(node.body)
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
            elif kind is not Skip:
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
        kind = type(node)
        if kind is Allreduce and type(node.cont) is not Skip:
            cont = map_spine(node.cont, partial(cap, depth=deeper(depth)))
            return Allreduce(node.op, node.binder, node.payload, cont)
        if kind is not Foreach:
            return node
        capped = map_spine(node.body, partial(cap, depth=deeper(depth)))
        try:
            lo_v, hi_v = loop_bounds(env, node)
        except NonConstantBounds:
            return Foreach(node.binder, node.lo, node.hi, capped)
        if hi_v - lo_v + 1 > bound:
            return Foreach(node.binder, node.lo, IntLit(lo_v + bound - 1), capped)
        return Foreach(node.binder, node.lo, node.hi, capped)

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
    of payloads. Equal message events in the trace are one shared object.
    """
    if len(actions) != n:
        raise ValueError(f"expected {n} action lists, got {len(actions)}")
    if ctx is None:
        ctx = initial_context(n)
    # Each list ends in a None sentinel, so a rank's head is lists[r][pos[r]].
    lists = [[*rank_actions, None] for rank_actions in actions]
    pos = [0] * n
    trace: list[SimEvent] = []
    # Payloads are interned, so these keys hash and compare them by
    # identity, and dtype_equiv runs once per pair of distinct values.
    equiv_cache: dict[tuple[Datatype, Datatype], bool] = {}

    def payload_eq(d1: Datatype, d2: Datatype) -> bool:
        eq = equiv_cache.get((d1, d2))
        if eq is None:
            eq = equiv_cache[d1, d2] = dtype_equiv(ctx, d1, d2)
        return eq

    # Under (src, dst, payload, received payload), the event of each pair
    # that has fired, whose payloads need no comparison again. Events are
    # interned, so equal ones are one object.
    events: dict[tuple, MessageEvent] = {}
    # Senders of facing pairs, possibly queued twice or gone stale; each is
    # checked again when popped. Every facing pair has an entry.
    ready: list[int] = []
    at_collective = 0
    arrived: Sequence[int] = range(n)  # the ranks whose head just changed

    while arrived:
        # Queue what each arrived rank's new head action can take part in.
        for rank in arrived:
            a = lists[rank][pos[rank]]
            kind = type(a)
            if kind is Collective:
                at_collective += 1
            elif kind is SendTo:
                peer = a.peer
                if 0 <= peer < n:
                    b = lists[peer][pos[peer]]
                    if type(b) is RecvFrom and b.peer == rank:
                        ready.append(rank)
            elif kind is RecvFrom:
                peer = a.peer
                if 0 <= peer < n:
                    b = lists[peer][pos[peer]]
                    if type(b) is SendTo and b.peer == rank:
                        ready.append(peer)
        arrived = ()
        while ready:
            i = ready.pop()
            a = lists[i][pos[i]]
            if type(a) is not SendTo or not 0 <= (j := a.peer) < n:
                continue
            b = lists[j][pos[j]]
            if type(b) is not RecvFrom or b.peer != i:
                continue  # stale, or a self-message: one head cannot both send and receive
            payload = a.payload
            key = (i, j, payload, b.payload)
            event = events.get(key)
            if event is None:
                if not payload_eq(payload, b.payload):
                    return Mismatch(
                        f"rank {i} sends {print_datatype(payload)} but rank {j} "
                        f"expects {print_datatype(b.payload)}"
                    )
                event = events[key] = MessageEvent(i, j, payload)
            pos[i] += 1
            pos[j] += 1
            trace.append(event)
            arrived = (i, j)
            break
        if not arrived and at_collective == n:
            heads = [lists[r][pos[r]] for r in range(n)]
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
            pos = [p + 1 for p in pos]
            trace.append(CollectiveEvent(base.op, base.payload))
            arrived = range(n)

    if all(rank_actions[p] is None for rank_actions, p in zip(lists, pos)):
        return Completed(tuple(trace))
    return Deadlocked("; ".join(_describe_action(r, lists[r][pos[r]]) for r in range(n)))
