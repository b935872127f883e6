"""The two paths the benchmark times, and the checks on their outputs.

`infer` makes the calls `protomerge infer` makes: parse each rank's process,
extract its local type, fold the types with `merge_all`, and close an
accepted protocol over `size`. `oracle` makes the calls `protomerge simulate`
makes on per-rank protocol text: parse, cap loops, linearize, simulate.

Both take a `run(span_name, fn, *args)` callable so the traced pass can put
a span around every entry point; the untraced pass calls straight through.
"""

from __future__ import annotations

import signal
from dataclasses import dataclass

from protomerge.ast import IntLit, subst_type
from protomerge.extract import extract_local_type
from protomerge.logic import dtype_equiv, initial_context
from protomerge.merge import MergeFailure, merge_all
from protomerge.oracle import Collective, Completed, RecvFrom, SendTo, cap_loops, linearize, simulate
from protomerge.syntax import parse_process, parse_protocol, print_protocol

from spans import untraced
from workloads import Instance


@dataclass
class Inferred:
    accepted: bool
    kind: str | None  # DiagnosticKind value of a rejection
    protocol: object  # accepted protocol closed over size
    traces: list | None
    locals_: list


def infer(run, inst: Instance) -> Inferred:
    n = inst.n
    ctx = run("logic.context", initial_context, n)
    locals_ = []
    for rank in range(n):
        program = run("syntax.parse", parse_process, inst.source(rank), inst.id)
        locals_.append((rank, run("extract", extract_local_type, ctx, program, rank, n)))
    try:
        result, traces = run("merge", merge_all, n, locals_)
    except MergeFailure as failure:
        return Inferred(False, failure.diagnostic.kind.value, None, None, locals_)
    # As in `protomerge infer`: local types stay parametric in size, the
    # inferred protocol describes one fixed world.
    closed = subst_type(result, {"size": IntLit(n)})
    return Inferred(True, None, closed, traces, locals_)


def oracle(run, inst: Instance, texts: list[str]):
    """Simulate the per-rank protocol texts; returns (result, action lists)."""
    ctx = run("logic.context", initial_context, inst.n)
    actions = []
    for rank, text in enumerate(texts):
        local = run("syntax.parse", parse_protocol, text, inst.id)
        capped = run("oracle.cap", cap_loops, ctx, local, inst.oracle_cap)
        actions.append(run("oracle.linearize", linearize, ctx, capped, rank))
    return run("oracle.simulate", simulate, actions, inst.n, ctx=ctx), actions


def oracle_texts(inst: Instance) -> list[str]:
    """Each rank's extracted local type as protocol text (`protomerge extract`)."""
    ctx = initial_context(inst.n)
    return [
        print_protocol(extract_local_type(ctx, parse_process(inst.source(r), inst.id), r, inst.n))
        for r in range(inst.n)
    ]


# ---------------------------------------------------------------------------
# Output checks


def verdict_problems(inst: Instance, inferred: Inferred, outcome: str) -> list[str]:
    """Verdicts that contradict what the instance is known to do."""
    problems = []
    if inst.accept is not None and inferred.accepted != inst.accept:
        problems.append(f"merge {'accepted' if inferred.accepted else 'rejected'}")
    if inst.reject_kind and not inferred.accepted and inferred.kind != inst.reject_kind:
        problems.append(f"rejected as {inferred.kind}, expected {inst.reject_kind}")
    if inst.oracle and outcome != inst.oracle:
        problems.append(f"oracle gave {outcome}, expected {inst.oracle}")
    if inferred.accepted and outcome != "Completed":
        problems.append(f"merge accepted a program the oracle finds {outcome}")
    return problems


def projection_problems(inst: Instance, inferred: Inferred) -> list[str]:
    """An accepted protocol, capped and linearized for each rank, must equal
    that rank's own capped local linearization. Peers compare exactly and
    payloads by dtype_equiv, since local types stay parametric in size."""
    ctx = initial_context(inst.n)
    problems = []
    for rank, local in inferred.locals_:
        got = linearize(ctx, cap_loops(ctx, inferred.protocol, inst.oracle_cap), rank)
        want = linearize(ctx, cap_loops(ctx, local, inst.oracle_cap), rank)
        if len(got) != len(want) or not all(_same_action(ctx, a, b) for a, b in zip(got, want)):
            problems.append(f"rank {rank}: protocol projects to {len(got)} actions "
                            f"unlike its local type's {len(want)}")
    return problems


def _same_action(ctx, a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, (SendTo, RecvFrom)) and a.peer != b.peer:
        return False
    if isinstance(a, Collective) and a.op is not b.op:
        return False
    return dtype_equiv(ctx, a.payload, b.payload)


# ---------------------------------------------------------------------------
# Capacity ladder


class _RungTimeout(BaseException):
    """Raised by the timer; a BaseException so library handlers cannot eat it."""


def _expire(signum, frame):
    raise _RungTimeout()


def ladder(rungs: list[Instance], start: int, limit_s: float):
    """Infer rungs in order until the first miss.

    Returns (largest length reached, whether the ladder stopped on an
    exception, problems). A miss is an exception or a verdict later than
    `limit_s`; an accepted rung raises `max_len` to its length. The
    recursion limit is left as the command line has it.
    """
    reached, crashed, problems = start, False, []
    previous = signal.signal(signal.SIGALRM, _expire)
    try:
        for inst in rungs:
            try:
                signal.setitimer(signal.ITIMER_REAL, limit_s)
                try:
                    inferred = infer(untraced, inst)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except _RungTimeout:
                break
            except Exception:  # noqa: BLE001 - any crash is the measured defect
                crashed = True
                break
            if not inferred.accepted:
                problems.append(f"{inst.id}: rejected as {inferred.kind}")
                break
            reached = int(inst.scale[1:])
    finally:
        signal.signal(signal.SIGALRM, previous)
    return reached, crashed, problems
