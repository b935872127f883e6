"""The fold's runs, taken in one loop, against the recursion they replace.

`_Engine.passed` takes the nodes of a msgT-msgT-left or msgT-skipT run in a
loop. Emptying `_RUNS` sends every such node back through `merge` and
`derive`, one recursion level each, as before the loop existed. Both engines
must give the same results, trace steps and diagnostics.
"""

import collections
from pathlib import Path

import pytest

import protomerge
import protomerge.merge as merge_module
from protomerge import (
    DiagnosticKind,
    Float,
    Integer,
    IntLit,
    Message,
    MergeFailure,
    Seq,
    extract_local_type,
    initial_context,
    merge_all,
    merge_types,
    merged_context,
)
from protomerge.syntax import parse_process, parse_protocol

from generators import workloads

PROGRAMS = Path(protomerge.__file__).parent / "programs"


def msg(src, dst, payload=Float()):
    return Message(IntLit(src), IntLit(dst), payload)


def seq(*items):
    t = items[-1]
    for item in reversed(items[:-1]):
        t = Seq(item, t)
    return t


def diagnosed(failure):
    d = failure.diagnostic
    return d.kind, d.location, [(a.rule, a.failed_premise) for a in d.rule_trace]


def fold(n, types):
    """merge_all's result and each step's trace steps, or its diagnostic."""
    try:
        result, traces = merge_all(n, types)
    except MergeFailure as failure:
        return diagnosed(failure)
    return result, [trace.steps for trace in traces]


def step(n, merged, left, right, k):
    """One merge_types call's result and trace steps, or its diagnostic."""
    try:
        result, trace = merge_types(merged_context(n, merged), left, right, k)
    except MergeFailure as failure:
        return diagnosed(failure)
    return result, trace.steps


def instance_types(inst, parsed):
    ctx = initial_context(inst.n)
    types = []
    for rank in range(inst.n):
        source = inst.source(rank)
        if source not in parsed:
            parsed[source] = parse_process(source, inst.id)
        types.append((rank, extract_local_type(ctx, parsed[source], rank, inst.n)))
    return inst.n, types


def program_types(program, sizes):
    parsed = parse_process((PROGRAMS / f"{program}.proc").read_text(), program)
    for n in sizes:
        ctx = initial_context(n)
        yield n, [(r, extract_local_type(ctx, parsed, r, n)) for r in range(n)]


def looped_and_recursed(monkeypatch, run):
    """run() with the loops, counting the nodes each takes, then run() with
    `_RUNS` emptied."""
    taken = collections.Counter()

    def counting(name, takes):
        def counted(m, ranks, k):
            ok = takes(m, ranks, k)
            taken[name] += ok
            return ok

        return counted

    runs = merge_module._RUNS
    monkeypatch.setattr(merge_module, "_RUNS", {name: counting(name, t) for name, t in runs.items()})
    looped = run()
    monkeypatch.setattr(merge_module, "_RUNS", {})
    recursed = run()
    return looped, recursed, taken


# The hand-built steps: merged ranks 0..2, rank 3 merged in, rank 4 not yet.
F, I = Float(), Integer()
BODY = "message 0 1 float; message 1 2 float; message i 2 float; message 2 3 float"
HAND_BUILT = {
    # The run's last head pair is the deepest refusal: the node after the
    # run is one message, refused at the same depth, later.
    "refused after the run": (seq(msg(0, 1), msg(1, 2), msg(0, 2), msg(2, 3)), msg(1, 3)),
    # A refused node after the run whose own head pair lies deeper.
    "refused head pair after the run": (
        seq(msg(0, 1), msg(1, 2), msg(2, 3), msg(0, 1)), seq(msg(1, 3), msg(2, 3))
    ),
    # The run ends at a head with rank 3's endpoints and another payload.
    "payload mismatch after the run": (
        seq(msg(0, 1), msg(1, 2), msg(0, 2), msg(1, 3, I), msg(2, 0)), seq(msg(1, 3, F), msg(0, 3))
    ),
    "payload mismatch ends the run": (seq(msg(0, 1), msg(1, 2), msg(1, 3, I)), msg(1, 3, F)),
    # Inside the loop body, the run ends at `message i 2`, a loop binder
    # endpoint: derive and entails take that node; runs start again after it.
    "binder endpoint in a loop body": (
        parse_protocol(f"foreach i: 0 .. 1 {{ {BODY}; message 0 2 float; message 1 2 float; message 2 3 float }}"),
        parse_protocol("foreach i: 0 .. 1 { message 2 3 float; message 2 3 float }"),
    ),
    "binder endpoint, refused": (
        parse_protocol(f"foreach i: 0 .. 1 {{ {BODY}; message 0 2 float; message 1 2 float }}"),
        parse_protocol("foreach i: 0 .. 1 { message 2 3 float; message 3 2 float }"),
    ),
    # msgT-skipT: rank 3 has nothing left; heads taken by msgS-skip and
    # msg-skip, then one that touches rank 3.
    "skip run accepted": (seq(msg(1, 3), msg(0, 1), msg(1, 2), msg(0, 2), msg(2, 1)), msg(1, 3)),
    "skip run refused": (seq(msg(1, 3), msg(0, 1), msg(1, 2), msg(2, 3), msg(0, 1)), msg(1, 3)),
    # The right head avoids the merged ranks, so no run starts: seq-seq's
    # head pair merges by msg-msg-right. (Rank 3's second message, 4 -> 0,
    # is not its own: merge_types takes any operands.)
    "right head avoiding the merged ranks": (
        seq(msg(0, 4), msg(4, 0), msg(0, 3), msg(4, 0)), seq(msg(3, 4), msg(4, 0))
    ),
    # Accepted: rank 3's two messages each end a run of the others.
    "two runs accepted": (
        seq(msg(0, 1), msg(1, 2), msg(1, 3), msg(2, 0), msg(0, 1), msg(0, 3), msg(2, 1)),
        seq(msg(1, 3), msg(0, 3)),
    ),
}


class TestRunsMatchTheRecursion:
    @pytest.mark.parametrize("workload, seed", [
        ("exchange-corpus", 2024), ("exchange-corpus", 2025), ("oracle-pairs", workloads.DEFAULT_SEED),
    ])
    def test_benchmark_sets(self, monkeypatch, workload, seed):
        parsed = {}
        cases = [instance_types(inst, parsed) for inst in workloads.instances(workload, seed, PROGRAMS)]
        looped, recursed, taken = looped_and_recursed(monkeypatch, lambda: [fold(*c) for c in cases])
        assert looped == recursed
        # oracle-pairs' runs are msgT-skipT's: each pair's rank passes the
        # other pairs' messages once its own are merged.
        assert taken["msgT-skipT"] > 0
        if workload == "exchange-corpus":
            assert taken["msgT-msgT-left"] > 0
            assert any(type(o[0]) is DiagnosticKind for o in looped)

    # Program -> the rule whose loop takes its run nodes. one_to_all is
    # refused at the root of the first step: no rule matches its loop.
    PROGRAM_RUNS = {"nbody": "msgT-msgT-left", "one_to_all": None, "symmetric_ring": "msgT-skipT"}

    @pytest.mark.parametrize("program", PROGRAM_RUNS)
    def test_bundled_programs(self, monkeypatch, program):
        cases = list(program_types(program, range(2, 65)))
        looped, recursed, taken = looped_and_recursed(monkeypatch, lambda: [fold(*c) for c in cases])
        assert looped == recursed
        assert {name for name, count in taken.items() if count} == {self.PROGRAM_RUNS[program]} - {None}

    def test_hand_built_runs(self, monkeypatch):
        def run():
            return {name: step(5, [0, 1, 2], left, right, 3) for name, (left, right) in HAND_BUILT.items()}

        looped, recursed, taken = looped_and_recursed(monkeypatch, run)
        assert looped == recursed
        assert taken["msgT-msgT-left"] > 0 and taken["msgT-skipT"] > 0
        accepted = {name for name, o in looped.items() if type(o[0]) is not DiagnosticKind}
        assert accepted == {"binder endpoint in a loop body", "skip run accepted", "two runs accepted"}
        kinds = {name: o[0].value for name, o in looped.items() if name not in accepted}
        assert kinds["payload mismatch after the run"] == "DatatypeMismatch"
        assert kinds["refused after the run"] == "DeadlockSuspected"
        # The run's last head pair, noted by the loop, is the one reported.
        location, trace = looped["refused after the run"][1:]
        assert location == "seq.tail-vs-right/seq.tail-vs-right/seq.first"
        assert [rule for rule, _ in trace] == [
            "msgS-msgS", "msg-msgS", "msgS-msg", "msg-msg-eq", "msg-msg-right", "msg-msg-left"
        ]
        assert trace[3][1] == "endpoints-equal: 0 = 1 and 2 = 3 is Invalid"
