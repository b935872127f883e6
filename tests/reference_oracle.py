"""Reference oracle: substitution-based projection and an exhaustive search.

`reference_linearize` projects a protocol by substituting each loop
binder's value into a fresh copy of the loop body, once per iteration. It
is the projection `protomerge.oracle.linearize` replaced, kept as the
reference that the environment-based walk is checked against.

`simulate` is the breadth-first search over every interleaving that
`protomerge.oracle.simulate` replaced, kept as the reference the one-run
simulator is checked against. It visits every reachable state of the
per-rank action lists, prefers completion over mismatch over deadlock, and
returns a BFS-shortest witness trace. Its cost grows exponentially with the
number of independent ranks, so it carries its own state budget.

`previous_simulate` is the one-run simulator as it was written with a
helper call per head lookup, pairing test and arrival, before
`protomerge.oracle.simulate` became one flat loop. The flat loop must give
the same result, event for event.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from protomerge import (
    Allreduce,
    Collective,
    CollectiveEvent,
    Completed,
    Datatype,
    Deadlocked,
    Foreach,
    IntLit,
    Message,
    MessageEvent,
    Mismatch,
    NonConstantBounds,
    ProtocolType,
    ProtomergeError,
    RecvFrom,
    SendTo,
    Seq,
    Skip,
    TypingContext,
    dtype_equiv,
    initial_context,
    print_datatype,
    singleton_env,
)
from protomerge.ast import DivisionByZero, UnboundVariable, eval_index, subst_type
from protomerge.oracle import (
    LINEARIZE_BUDGET,
    Action,
    SimEvent,
    SimResult,
    UnfoldBudgetExceeded,
    _describe_action,
    _eval_endpoint,
)


# ---------------------------------------------------------------------------
# Projection by substitution


@dataclass(frozen=True, slots=True)
class _Iterations:
    """Loop instances binder = value..hi of body, still to be walked."""

    binder: str
    body: ProtocolType
    value: int
    hi: int


def reference_linearize(ctx: TypingContext, t: ProtocolType, self_rank: int) -> list[Action]:
    """Project a protocol to rank self_rank's straight-line action list.

    Every foreach is fully unfolded (bounds must be constant under ctx) and
    every message endpoint must evaluate to a concrete rank. The walk keeps
    its own stack, so its depth does not grow with sequence length or trip
    count. Raises UnfoldBudgetExceeded, before unfolding, once the loops
    met so far would run more than LINEARIZE_BUDGET iterations in total.
    """
    env = singleton_env(ctx)
    actions: list[Action] = []
    unfolded = 0
    # Nodes still to walk, last one first; a _Iterations entry stands for
    # the loop instances not yet walked.
    stack: list[ProtocolType | _Iterations] = [t]
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
                    actions.append(SendTo(d, payload))
                elif d == self_rank:
                    actions.append(RecvFrom(s, payload))
            case Allreduce(op, _, payload, cont):
                actions.append(Collective(op, payload))
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
                stack.append(_Iterations(binder, body, lo_v, hi_v))
            case _Iterations(binder, body, value, hi):
                if value < hi:
                    stack.append(_Iterations(binder, body, value + 1, hi))
                stack.append(subst_type(body, {binder: IntLit(value)}))
            case _:
                raise TypeError(f"unexpected protocol node {type(node).__name__}")
    return actions


# ---------------------------------------------------------------------------
# Exhaustive interleaving search


DEFAULT_STATE_CAP = 10**6


class StateSpaceExceeded(ProtomergeError):
    """The interleaving exploration outgrew its state budget."""


def simulate(
    actions: Sequence[Sequence[Action]],
    n: int,
    state_cap: int = DEFAULT_STATE_CAP,
    ctx: TypingContext | None = None,
) -> SimResult:
    """Explore every interleaving of the per-rank action lists.

    Returns Completed with one witness trace if some interleaving finishes,
    else Mismatch if some reachable pairing is blocked only by payload or
    operator disagreement, else Deadlocked with the first stuck state found.
    """
    if len(actions) != n:
        raise ValueError(f"expected {n} action lists, got {len(actions)}")
    if ctx is None:
        ctx = initial_context(n)
    lists = [list(rank_actions) for rank_actions in actions]
    final = tuple(len(l) for l in lists)
    start = (0,) * n

    equiv_cache: dict[tuple[Datatype, Datatype], bool] = {}

    def payload_eq(d1: Datatype, d2: Datatype) -> bool:
        key = (d1, d2)
        if key not in equiv_cache:
            equiv_cache[key] = dtype_equiv(ctx, d1, d2)
        return equiv_cache[key]

    parents: dict[tuple[int, ...], tuple[tuple[int, ...], SimEvent] | None] = {start: None}
    queue: deque[tuple[int, ...]] = deque([start])
    mismatch: Mismatch | None = None
    stuck: tuple[int, ...] | None = None

    def head(state: tuple[int, ...], rank: int) -> Action | None:
        return lists[rank][state[rank]] if state[rank] < len(lists[rank]) else None

    def push(state: tuple[int, ...], succ: tuple[int, ...], event: SimEvent) -> None:
        if succ not in parents:
            if len(parents) >= state_cap:
                raise StateSpaceExceeded(
                    f"more than {state_cap} interleaving states explored"
                )
            parents[succ] = (state, event)
            queue.append(succ)

    while queue:
        state = queue.popleft()
        if state == final:
            trace: list[SimEvent] = []
            cursor = state
            while parents[cursor] is not None:
                cursor, event = parents[cursor]
                trace.append(event)
            return Completed(tuple(reversed(trace)))
        progressed = False

        # Point-to-point rendezvous: a send head paired with the matching
        # receive head advances both ranks at once.
        for i in range(n):
            a = head(state, i)
            if not isinstance(a, SendTo):
                continue
            j = a.peer
            if not (0 <= j < n) or j == i:
                continue
            b = head(state, j)
            if not (isinstance(b, RecvFrom) and b.peer == i):
                continue
            if payload_eq(a.payload, b.payload):
                succ = list(state)
                succ[i] += 1
                succ[j] += 1
                push(state, tuple(succ), MessageEvent(i, j, a.payload))
                progressed = True
            elif mismatch is None:
                mismatch = Mismatch(
                    f"rank {i} sends {print_datatype(a.payload)} but rank {j} "
                    f"expects {print_datatype(b.payload)}"
                )

        # Collective: fires only when every rank has reached one.
        heads = [head(state, r) for r in range(n)]
        if all(isinstance(h, Collective) for h in heads):
            ops = {h.op for h in heads}
            if len(ops) > 1 and mismatch is None:
                names = ", ".join(sorted(op.value for op in ops))
                mismatch = Mismatch(f"collective operators disagree: {names}")
            elif len(ops) == 1:
                base = heads[0]
                if all(payload_eq(h.payload, base.payload) for h in heads[1:]):
                    succ = tuple(idx + 1 for idx in state)
                    push(state, succ, CollectiveEvent(base.op, base.payload))
                    progressed = True
                elif mismatch is None:
                    shapes = ", ".join(
                        f"rank {r}: {print_datatype(h.payload)}" for r, h in enumerate(heads)
                    )
                    mismatch = Mismatch(f"collective payloads disagree: {shapes}")

        if not progressed and state != final and stuck is None:
            stuck = state

    if mismatch is not None:
        return mismatch
    if stuck is None:
        stuck = start
    pending = "; ".join(_describe_action(r, head(stuck, r)) for r in range(n))
    return Deadlocked(pending)


# ---------------------------------------------------------------------------
# The one-run simulator with a helper call per event


def previous_simulate(
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
    of payloads.
    """
    if len(actions) != n:
        raise ValueError(f"expected {n} action lists, got {len(actions)}")
    if ctx is None:
        ctx = initial_context(n)
    lists = [list(rank_actions) for rank_actions in actions]
    pos = [0] * n
    trace: list[SimEvent] = []

    # Payloads are interned, so this memo hashes and compares them by
    # identity, and dtype_equiv runs once per pair of distinct values.
    equiv_cache: dict[tuple[Datatype, Datatype], bool] = {}

    def payload_eq(d1: Datatype, d2: Datatype) -> bool:
        eq = equiv_cache.get((d1, d2))
        if eq is None:
            eq = equiv_cache[d1, d2] = dtype_equiv(ctx, d1, d2)
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
