"""Merge engine: normal forms, unfolding, rules, diagnostics, rank folding."""

import collections
import copy
import itertools
import pickle
import random
import threading
import time
import tracemalloc
from pathlib import Path

import pytest

import protomerge
import protomerge.logic as logic_module
import protomerge.merge as merge_module
from protomerge import (
    Allreduce,
    And,
    BinOp,
    Cmp,
    DiagnosticKind,
    FiniteSet,
    Float,
    Foreach,
    InvalidRankSet,
    IntLit,
    LINEARIZE_BUDGET,
    Integer,
    Message,
    MergeFailure,
    NestingTooDeep,
    NonConstantBounds,
    RULE_NAMES,
    ReduceOp,
    Refined,
    RuleAttempt,
    Seq,
    Skip,
    TypingContext,
    UnfoldBudgetExceeded,
    Var,
    Verdict,

    compact_protocol,    attempt_rule,
    entails,
    extract_local_type,
    initial_context,
    merge_all,
    merge_types,
    merged_context,
    normalize_seq,
    unfold_foreach,
)
from protomerge.ast import FRESH_BINDER, MAX_BLOCK_DEPTH, build_seq, subst_type
from protomerge.syntax import parse_process, parse_protocol

from generators import gen_exchange, or_chain_context


D = Float()

# The premises a refusal can name.
PREMISE_NAMES = (
    "left-skip-like", "left-real", "left-avoids-k", "right-skip-like", "right-real",
    "right-avoids-merged", "endpoints-equal", "payload-equivalent", "op-equal", "bounds-equal",
)


def msg(src, dst, payload=D):
    return Message(IntLit(src), IntLit(dst), payload)


def allred(op=ReduceOp.MIN, payload=D):
    return Allreduce(op, FRESH_BINDER, payload, Skip())


class TestNormalizeSeq:
    def test_right_associates(self):
        a, b, c = msg(0, 1), msg(1, 2), msg(2, 0)
        assert normalize_seq(Seq(Seq(a, b), c)) == Seq(a, Seq(b, c))

    def test_drops_skip_units(self):
        a = msg(0, 1)
        assert normalize_seq(Seq(Skip(), Seq(a, Skip()))) == a

    def test_all_skips_collapse(self):
        assert normalize_seq(Seq(Skip(), Seq(Skip(), Skip()))) == Skip()

    def test_recurses_into_loop_bodies_and_continuations(self):
        body = Seq(Skip(), msg(0, 1))
        t = Foreach("i", IntLit(1), IntLit(2), body)
        assert normalize_seq(t) == Foreach("i", IntLit(1), IntLit(2), msg(0, 1))
        r = Allreduce(ReduceOp.SUM, "v", Integer(), Seq(msg(0, 1), Skip()))
        assert normalize_seq(r) == Allreduce(ReduceOp.SUM, "v", Integer(), msg(0, 1))

    def test_idempotent(self):
        t = Seq(Seq(msg(0, 1), Skip()), Seq(msg(1, 2), msg(2, 0)))
        once = normalize_seq(t)
        assert normalize_seq(once) == once

    def test_long_chains_nested_either_way(self):
        # Far deeper than the interpreter's stack; == and hash are identity
        # on interned nodes, so they cost no depth.
        items = [msg(i % 3, (i + 1) % 3) for i in range(10**4)]
        right = left = Skip()
        for item in reversed(items):
            right = Seq(item, right)
        for item in items:
            left = Seq(left, item)
        want = "; ".join(compact_protocol(m) for m in items)
        for t in (left, right):
            out = normalize_seq(t)
            assert compact_protocol(out) == want
            node, links = out, 0
            while isinstance(node, Seq):
                assert isinstance(node.first, Message)
                node, links = node.second, links + 1
            assert links == len(items) - 1
        assert normalize_seq(left) == normalize_seq(right)
        assert hash(normalize_seq(left)) == hash(normalize_seq(right))


class TestNestingLimit:
    """Types built through the API nest loop bodies and allreduce
    continuations at most MAX_BLOCK_DEPTH deep, as parsed text does; past
    that normal form, substitution, loop unfolding and the merge entry
    points raise NestingTooDeep, not RecursionError."""

    @staticmethod
    def nest(levels, inner=msg(0, 1)):
        """levels blocks, alternating foreach and allreduce from the inside out."""
        t = inner
        for level in range(levels):
            t = Foreach("i", IntLit(1), IntLit(1), t) if level % 2 else Allreduce(ReduceOp.MIN, "v", D, t)
        return t

    @pytest.mark.parametrize("levels", [MAX_BLOCK_DEPTH + 1, 2000])
    def test_too_deep_is_a_typed_error(self, levels):
        loops = msg(0, 1)
        for _ in range(levels):
            loops = Foreach("i", IntLit(1), IntLit(1), loops)
        ctx = merged_context(2, [0])
        for t in (loops, self.nest(levels)):
            for call in (
                lambda: normalize_seq(t),
                lambda: subst_type(t, {"size": IntLit(2)}),
                lambda: merge_all(2, [(0, t), (1, t)]),
                lambda: merge_types(ctx, t, t, 1),
                lambda: merge_types(ctx, Skip(), t, 1),
                lambda: attempt_rule(ctx, "foreach-foreach", t, t, 1),
            ):
                with pytest.raises(NestingTooDeep, match=f"deeper than {MAX_BLOCK_DEPTH} levels"):
                    call()
        with pytest.raises(NestingTooDeep, match=f"deeper than {MAX_BLOCK_DEPTH} levels"):
            unfold_foreach(ctx, loops)

    def test_at_the_limit(self):
        for t in (self.nest(MAX_BLOCK_DEPTH), self.nest(MAX_BLOCK_DEPTH, allred())):
            assert normalize_seq(t) is t
            assert merge_all(2, [(0, t), (1, t)])[0] is t
        # A message at the limit still has its free names substituted.
        sized = Message(IntLit(0), BinOp("-", Var("size"), IntLit(1)), D)
        one = Message(IntLit(0), BinOp("-", IntLit(2), IntLit(1)), D)
        assert subst_type(self.nest(MAX_BLOCK_DEPTH, sized), {"size": IntLit(2)}) == self.nest(MAX_BLOCK_DEPTH, one)
        inner = Message(IntLit(0), Var("j"), D)
        want = msg(0, 1)
        for _ in range(MAX_BLOCK_DEPTH - 1):
            inner = Foreach("i", IntLit(1), IntLit(1), inner)
            want = Foreach("i", IntLit(1), IntLit(1), want)
        assert unfold_foreach(TypingContext(()), Foreach("j", IntLit(1), IntLit(1), inner)) == want


class TestUnfoldForeach:
    def test_constant_bounds_instantiate_binder(self):
        t = Foreach("i", IntLit(1), IntLit(2), Message(IntLit(0), Var("i"), D))
        assert unfold_foreach(TypingContext(()), t) == Seq(msg(0, 1), msg(0, 2))

    def test_bounds_resolve_through_context(self):
        body = Message(IntLit(0), Var("i"), D)
        t = Foreach("i", IntLit(1), Var("size"), body)
        out = unfold_foreach(initial_context(2), t)
        assert out == Seq(msg(0, 1), msg(0, 2))

    def test_empty_range_is_skip(self):
        t = Foreach("i", IntLit(3), IntLit(2), msg(0, 1))
        assert unfold_foreach(TypingContext(()), t) == Skip()

    def test_open_bounds_rejected(self):
        t = Foreach("i", IntLit(1), Var("n"), msg(0, 1))
        with pytest.raises(NonConstantBounds):
            unfold_foreach(TypingContext(()), t)

    def test_non_loop_rejected(self):
        with pytest.raises(ValueError):
            unfold_foreach(TypingContext(()), Skip())

    def test_past_the_budget_refused_before_building(self):
        t = parse_protocol("foreach i: 0..10000000 { message 0 1 float }")
        start = time.perf_counter()
        with pytest.raises(UnfoldBudgetExceeded, match=f"more than {LINEARIZE_BUDGET} items"):
            unfold_foreach(initial_context(3), t)
        assert time.perf_counter() - start < 1.0

    def test_budget_counts_the_body_items(self):
        """Half the budget's iterations, plus one, of a two-item body."""
        t = parse_protocol(f"foreach i: 0..{LINEARIZE_BUDGET // 2} {{ message 0 1 float; message 1 0 float }}")
        with pytest.raises(UnfoldBudgetExceeded):
            unfold_foreach(initial_context(2), t)


class TestMergeTypes:
    def test_ring_first_step(self):
        ctx = merged_context(3, [0])
        left = Seq(msg(0, 1), msg(2, 0))
        right = Seq(msg(0, 1), msg(1, 2))
        result, trace = merge_types(ctx, left, right, k=1)
        assert result == Seq(msg(0, 1), Seq(msg(1, 2), msg(2, 0)))
        assert trace.rule_names() == ("seq-seq", "msg-msg-eq", "msg-msg-right")

    def test_ring_second_step(self):
        ctx = merged_context(3, [0, 1])
        left = Seq(msg(0, 1), Seq(msg(1, 2), msg(2, 0)))
        right = Seq(msg(1, 2), msg(2, 0))
        result, trace = merge_types(ctx, left, right, k=2)
        assert result == left
        assert trace.rule_names() == ("msgT-msgT-left", "seq-seq", "msg-msg-eq", "msg-msg-eq")

    def test_steps_record_operands_and_premises(self):
        ctx = merged_context(3, [0])
        _, trace = merge_types(ctx, msg(0, 1), msg(0, 1), k=1)
        step = trace.steps[0]
        assert step.rule == "msg-msg-eq"
        assert step.left == "message 0 1 float"
        assert step.right == "message 0 1 float"
        names = [p.name for p in step.premises]
        assert names == ["left-real", "right-real", "endpoints-equal", "payload-equivalent"]
        assert all(p.formula and p.verdict for p in step.premises)

    def test_deterministic_across_calls(self):
        ctx = merged_context(3, [0])
        left = Seq(msg(0, 1), msg(2, 0))
        right = Seq(msg(0, 1), msg(1, 2))
        first = merge_types(ctx, left, right, k=1)
        second = merge_types(ctx, left, right, k=1)
        assert first == second

    def test_operands_are_normalized_first(self):
        ctx = merged_context(3, [0])
        left = Seq(Seq(msg(0, 1), Skip()), msg(2, 0))
        right = Seq(msg(0, 1), Seq(msg(1, 2), Skip()))
        result, _ = merge_types(ctx, left, right, k=1)
        assert result == Seq(msg(0, 1), Seq(msg(1, 2), msg(2, 0)))

    def test_collectives_merge_pointwise(self):
        ctx = merged_context(2, [0])
        result, trace = merge_types(ctx, allred(), allred(), k=1)
        assert result == allred()
        assert trace.rule_names() == ("allred-allred", "skip-skip")

    def test_loops_merge_bodies_under_bound_binder(self):
        ctx = merged_context(3, [0])
        left = Foreach("i", IntLit(1), IntLit(2), msg(0, 1))
        right = Foreach("j", IntLit(1), IntLit(2), msg(0, 1))
        result, trace = merge_types(ctx, left, right, k=1)
        assert result == Foreach("i", IntLit(1), IntLit(2), msg(0, 1))
        assert trace.rule_names() == ("foreach-foreach", "msg-msg-eq")


class TestMergeMemory:
    """The engine keeps each derivation once, as a tree, so a merge's
    memory grows linearly with the protocol's length."""

    @staticmethod
    def peak(length):
        """tracemalloc's peak, in bytes, while two ranks' ping-pong of
        `length` messages merges a second time. The first merge interns the
        result's nodes, so the peak counts what the engine itself keeps.
        Each merge runs on a thread of its own, so the test runner's frames
        leave it the whole default recursion limit."""
        t = build_seq([msg(0, 1) if i % 2 == 0 else msg(1, 0) for i in range(length)])
        ctx = merged_context(2, [0])
        merged = []

        def merge():
            thread = threading.Thread(target=lambda: merged.append(merge_types(ctx, t, t, k=1)))
            thread.start()
            thread.join(60)
            assert not thread.is_alive()

        merge()
        tracemalloc.start()
        try:
            merge()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        [_, (_, trace)] = merged
        assert len(trace.steps) == 2 * length - 1
        return peak

    def test_peak_grows_linearly_with_length(self):
        small, large = self.peak(240), self.peak(480)
        assert large < 3 * small, (small, large)


class TestTraceReadPath:
    """A trace keeps its derivation tree and reads its steps off it: in
    pre-order, a shared subtree again at each use, with value semantics."""

    def test_a_shared_subtree_is_read_at_each_use(self):
        both = Seq(allred(), allred())
        _, trace = merge_types(merged_context(2, [0]), both, both, k=1)
        assert trace.rule_names() == (
            "seq-seq", "allred-allred", "skip-skip", "allred-allred", "skip-skip"
        )
        assert [s.rule for s in trace.steps] == list(trace.rule_names())
        first, second = trace.tree.subs
        assert first is second
        assert trace.steps[1:3] == trace.steps[3:]

    @staticmethod
    def on_thread(fn):
        """fn's result, called on a thread of its own, so the test runner's
        frames leave it the whole default recursion limit."""
        out = []
        thread = threading.Thread(target=lambda: out.append(fn()))
        thread.start()
        thread.join(60)
        assert not thread.is_alive()
        return out[0]

    def test_independent_deep_traces_are_equal_values(self):
        """Two merges of a 480-message ping-pong, each on a thread of its
        own, give traces equal by == and hash; none of ==, hash and repr
        recurses with the derivation's depth, and pickle no deeper than the
        operands."""
        t = build_seq([msg(0, 1) if i % 2 == 0 else msg(1, 0) for i in range(480)])
        ctx = merged_context(2, [0])
        first, second = (self.on_thread(lambda: merge_types(ctx, t, t, k=1))[1] for _ in range(2))
        assert first.tree is not second.tree
        assert first == second and hash(first) == hash(second)
        assert len(first.steps) == 959
        assert self.on_thread(lambda: pickle.loads(pickle.dumps(first))) == second
        text = repr(first)
        assert text.startswith("MergeTrace(steps=(MergeStep(rule='seq-seq', ")
        assert text.count("MergeStep(") == 959

    def test_pickle_and_deepcopy_give_an_equal_trace(self):
        _, traces = merge_all(4, list(enumerate(TestPremisesAndRendering.nbody_types(4))))
        for trace in traces:
            for other in (pickle.loads(pickle.dumps(trace)), copy.deepcopy(trace)):
                assert type(other) is merge_module.MergeTrace
                assert other == trace and hash(other) == hash(trace)
                assert other.steps == trace.steps and other.rule_names() == trace.rule_names()


class TestMergeFailureDiagnostics:
    def test_symmetric_ring_is_deadlock_suspected(self):
        ctx = merged_context(2, [0])
        left = Seq(msg(0, 1), msg(1, 0))
        right = Seq(msg(1, 0), msg(0, 1))
        with pytest.raises(MergeFailure) as err:
            merge_types(ctx, left, right, k=1)
        d = err.value.diagnostic
        assert d.kind is DiagnosticKind.DEADLOCK_SUSPECTED
        assert d.location == "seq.first"
        assert d.rule_trace

    def test_payload_clash_is_datatype_mismatch(self):
        ctx = merged_context(3, [0])
        with pytest.raises(MergeFailure) as err:
            merge_types(ctx, msg(0, 1, Float()), msg(0, 1, Integer()), k=1)
        d = err.value.diagnostic
        assert d.kind is DiagnosticKind.DATATYPE_MISMATCH
        assert d.location == "root"
        premises = {a.failed_premise for a in d.rule_trace if a.rule == "msg-msg-eq"}
        assert any("payload-equivalent" in p for p in premises)

    def test_collective_op_clash_is_entailment_failure(self):
        ctx = merged_context(2, [0])
        with pytest.raises(MergeFailure) as err:
            merge_types(ctx, allred(ReduceOp.MIN), allred(ReduceOp.MAX), k=1)
        d = err.value.diagnostic
        assert (d.kind, d.location) == (DiagnosticKind.ENTAILMENT_FAILED, "root")
        assert [(a.rule, a.failed_premise) for a in d.rule_trace] == [
            ("allred-allred", "op-equal: min = max is different")
        ]

    @pytest.mark.parametrize("left, right, kind, trace", [
        ("foreach i: 1..2 { message 0 1 float }", "foreach i: 1..3 { message 0 1 float }",
         DiagnosticKind.ENTAILMENT_FAILED,
         [("foreach-foreach", "bounds-equal: 1 = 1 and 2 = 3 is Invalid")]),
        ("allreduce min float", "allreduce min integer", DiagnosticKind.DATATYPE_MISMATCH,
         [("allred-allred", "payload-equivalent: float == integer is different")]),
    ])
    def test_loop_bounds_and_collective_payloads(self, left, right, kind, trace):
        with pytest.raises(MergeFailure) as err:
            merge_types(merged_context(2, [0]), parse_protocol(left), parse_protocol(right), k=1)
        d = err.value.diagnostic
        assert (d.kind, d.location) == (kind, "root")
        assert [(a.rule, a.failed_premise) for a in d.rule_trace] == trace

    def test_no_rule_matches_names_the_refused_node(self):
        """A node below the root that no rule accepts is named by its own
        operands, not the root's."""
        left = parse_protocol("message 0 1 float; message 1 0 float")
        right = parse_protocol("foreach i: 1..2 { message 0 1 float }; message 1 0 float")
        with pytest.raises(MergeFailure) as err:
            merge_types(merged_context(2, [0]), left, right, k=1)
        d = err.value.diagnostic
        assert d.location == "seq.first"
        assert [(a.rule, a.failed_premise) for a in d.rule_trace] == [
            ("none", "no rule matches message 0 1 float against "
                     "foreach i: 1..2 { message 0 1 float }")
        ]

    def test_open_endpoint_is_undecidable(self):
        ctx = merged_context(8, [0])
        left = Message(Var("w"), IntLit(5), D)
        with pytest.raises(MergeFailure) as err:
            merge_types(ctx, left, Skip(), k=1)
        assert err.value.diagnostic.kind is DiagnosticKind.ENTAILMENT_UNDECIDABLE

    @pytest.mark.parametrize("left, right, n, merged, location", [
        ("allreduce min x: float { message 0 1 float }", "allreduce min x: float { message 1 0 float }",
         2, [0], "allreduce.cont"),
        ("foreach i: 1..2 { message 0 1 float }", "foreach i: 1..2 { message 1 0 float }",
         2, [0], "foreach[i].body"),
        ("message 0 1 float; message 0 1 float", "message 0 1 float; message 1 0 float",
         2, [0], "seq.second"),
        ("message 1 0 float", "message 1 2 float; message 0 2 float",
         3, [0, 1], "seq.tail-vs-right/seq.head"),
    ])
    def test_sub_merge_locations(self, left, right, n, merged, location):
        """A failure below a rule's sub-merge is reported where it happened,
        and every refusal there names a failed premise."""
        with pytest.raises(MergeFailure) as err:
            merge_types(merged_context(n, merged), parse_protocol(left), parse_protocol(right), k=len(merged))
        d = err.value.diagnostic
        assert (d.kind, d.location) == (DiagnosticKind.DEADLOCK_SUSPECTED, location)
        for attempt in d.rule_trace:
            name, _, claim = attempt.failed_premise.partition(": ")
            assert name in PREMISE_NAMES and claim.endswith(" is Invalid"), attempt

    def test_message_str_names_kind_and_location(self):
        ctx = merged_context(2, [0])
        left = Seq(msg(0, 1), msg(1, 0))
        right = Seq(msg(1, 0), msg(0, 1))
        with pytest.raises(MergeFailure) as err:
            merge_types(ctx, left, right, k=1)
        assert "DeadlockSuspected" in str(err.value)
        assert "seq.first" in str(err.value)


class TestMergeValidation:
    def test_inputs_checked_once_per_merge(self, monkeypatch):
        """domain_of, which reads the merged ranks, runs once per merge_types,
        per attempt_rule and per merge at a merge_all step: a step the fold
        retries with a loop unfolded makes two."""
        calls = []
        original = merge_module.domain_of
        monkeypatch.setattr(merge_module, "domain_of", lambda *args: calls.append(args) or original(*args))
        ctx = merged_context(3, [0])
        merge_types(ctx, msg(0, 1), msg(0, 1), k=1)
        assert len(calls) == 1
        attempt_rule(ctx, "msg-msg-eq", msg(0, 1), msg(0, 1), k=1)
        assert len(calls) == 2
        merge_all(3, [(0, msg(0, 1)), (1, msg(0, 1)), (2, Skip())])
        assert len(calls) == 4
        looped = parse_protocol("foreach i: 1..2 { message 0 1 float }")
        merge_all(2, [(0, looped), (1, parse_protocol("message 0 1 float; message 0 1 float"))])
        assert len(calls) == 6

    def test_context_must_bind_rank(self):
        with pytest.raises(InvalidRankSet):
            merge_types(initial_context(2), Skip(), Skip(), k=1)

    def test_new_rank_must_be_outside_merged_set(self):
        ctx = merged_context(3, [0, 1])
        with pytest.raises(InvalidRankSet):
            merge_types(ctx, Skip(), Skip(), k=1)

    @pytest.mark.parametrize("k", [-1, 3])
    def test_new_rank_must_lie_in_the_world(self, k):
        ctx = merged_context(3, [0, 1])
        with pytest.raises(InvalidRankSet, match=f"rank {k} out of range for size 3"):
            merge_types(ctx, Skip(), msg(0, 5, Float()), k=k)


class TestAttemptRule:
    def test_positive_instance_yields_conclusion(self):
        ctx = merged_context(3, [0])
        assert attempt_rule(ctx, "msg-msg-eq", msg(0, 1), msg(0, 1), k=1) == msg(0, 1)

    def test_failed_premise_yields_none(self):
        ctx = merged_context(3, [0])
        assert attempt_rule(ctx, "msg-msg-eq", msg(0, 1, Float()), msg(0, 1, Integer()), k=1) is None

    def test_shape_mismatch_yields_none(self):
        ctx = merged_context(3, [0])
        assert attempt_rule(ctx, "skip-skip", msg(0, 1), Skip(), k=1) is None

    def test_unknown_rule_rejected(self):
        ctx = merged_context(3, [0])
        with pytest.raises(ValueError):
            attempt_rule(ctx, "msg-msg", Skip(), Skip(), k=1)

    def test_catalogue_is_complete(self):
        assert len(RULE_NAMES) == 18
        ctx = merged_context(3, [0])
        for rule in RULE_NAMES:
            attempt_rule(ctx, rule, Skip(), Skip(), k=1)

    @pytest.mark.parametrize(
        "ctx, k",
        [(merged_context(3, [0, 1]), 1), (merged_context(3, [0, 1]), 7), (initial_context(3), 1)],
        ids=["k-merged", "k-outside", "no-rank"],
    )
    def test_inputs_checked_as_merge_types_does(self, ctx, k):
        with pytest.raises(InvalidRankSet):
            merge_types(ctx, Skip(), Skip(), k)
        with pytest.raises(InvalidRankSet):
            attempt_rule(ctx, "skip-skip", Skip(), Skip(), k)

    def test_ill_formed_messages_refused_as_merge_types_does(self):
        ctx, bad = merged_context(2, [0]), Message(IntLit(0), IntLit(5), Float())
        for rule, left, right in (("msg-skip", bad, Skip()), ("skip-msg", Skip(), bad)):
            with pytest.raises(protomerge.IllFormedMessage, match="does not join two ranks of 0..1"):
                merge_types(ctx, left, right, 1)
            with pytest.raises(protomerge.IllFormedMessage, match="does not join two ranks of 0..1"):
                attempt_rule(ctx, rule, left, right, 1)


# Each rule's mirror: the rule that derives the same judgment with the
# operands swapped, once rank k and the merged rank swap roles.
MIRROR = {
    "skip-msgT": "msgT-skipT",
    "msgT-msgT-left": "msgT-msgT-right",
    "msg-skip": "skip-msg",
    "msg-msgS": "msgS-msg",
    "skip-msgS": "msgS-skip",
    "msg-msg-left": "msg-msg-right",
}
MIRROR.update({b: a for a, b in MIRROR.items()})


class TestMirrorSymmetry:
    """With two ranks i and j, merging j's type into i's and i's into j's
    are mirror images: each rule applies on one side exactly when its
    mirror applies on the other."""

    @staticmethod
    def pairs(seed=7, draws=2000):
        rng = random.Random(seed)
        for _ in range(draws):
            instance = gen_exchange(rng)
            if instance.n >= 3:
                types = dict(instance.local_types())
                yield instance.n, types[0], types[1]

    def test_every_rule_applies_exactly_when_its_mirror_does(self):
        applied = dict.fromkeys(RULE_NAMES, 0)
        for n, left, right in self.pairs():
            into_0, into_1 = merged_context(n, [0]), merged_context(n, [1])
            for rule in RULE_NAMES:
                mirror = MIRROR.get(rule, rule)
                forward = attempt_rule(into_0, rule, left, right, 1)
                backward = attempt_rule(into_1, mirror, right, left, 0)
                assert (forward is None) == (backward is None), (rule, left, right)
                applied[rule] += forward is not None
        # Every message of rank i's type has i as an endpoint, so no message
        # is skip-like at the root and the msgS rules never apply there.
        assert all(applied[rule] for rule in MIRROR if "msgS" not in rule), applied

    def test_derivability_agrees(self):
        derivable = []
        for n, left, right in self.pairs():
            outcomes = []
            for merged, k, a, b in ((0, 1, left, right), (1, 0, right, left)):
                try:
                    merge_types(merged_context(n, [merged]), a, b, k)
                    outcomes.append(True)
                except MergeFailure:
                    outcomes.append(False)
            assert outcomes[0] == outcomes[1], (left, right)
            derivable.append(outcomes[0])
        assert any(derivable) and not all(derivable)


def _head(t):
    return t.first if isinstance(t, Seq) else t


def _both(lcls, rcls):
    return lambda l, r: isinstance(l, lcls) and isinstance(r, rcls)


def _a_seq(l, r):
    return isinstance(l, Seq) or isinstance(r, Seq)


# Each rule's shape test as the rule once ran it on the operands themselves,
# before the engine indexed the rules by shape class.
REFERENCE_SHAPES = {
    "skip-skip": _both(Skip, Skip),
    "skip-msgS": _both(Skip, Message),
    "msgS-skip": _both(Message, Skip),
    "msgS-msgS": _both(Message, Message),
    "msg-skip": _both(Message, Skip),
    "skip-msg": _both(Skip, Message),
    "msg-msgS": _both(Message, Message),
    "msgS-msg": _both(Message, Message),
    "msg-msg-eq": _both(Message, Message),
    "allred-allred": _both(Allreduce, Allreduce),
    "foreach-foreach": _both(Foreach, Foreach),
    "seq-seq": lambda l, r: _a_seq(l, r) and not (isinstance(l, Skip) or isinstance(r, Skip)),
    "skip-msgT": lambda l, r: isinstance(l, Skip) and isinstance(r, Seq) and isinstance(r.first, Message),
    "msgT-skipT": lambda l, r: isinstance(r, Skip) and isinstance(l, Seq) and isinstance(l.first, Message),
    "msg-msg-right": _both(Message, Message),
    "msg-msg-left": _both(Message, Message),
    "msgT-msgT-left": lambda l, r: _a_seq(l, r) and isinstance(_head(l), Message) and isinstance(_head(r), Message),
    "msgT-msgT-right": lambda l, r: _a_seq(l, r) and isinstance(_head(l), Message) and isinstance(_head(r), Message),
}


def all_rules_offered(left, right):
    """Every rule in table order, each behind its reference shape test, as a
    node is offered it."""
    return tuple(
        merge_module._offer(name) for name in merge_module._RULES
        if REFERENCE_SHAPES[name](left, right)
    )


FAN = Foreach("i", IntLit(1), IntLit(2), Message(IntLit(0), Var("i"), D))

# Operands covering every shape class, with rank 0 merged and k = 1.
SHAPE_REPS = {
    "skip": Skip(),
    "message 0 1": msg(0, 1),
    "message 2 0": msg(2, 0),
    "message 1 2": msg(1, 2),
    "message-headed 2 0": Seq(msg(2, 0), msg(0, 2)),
    "message-headed 1 2": Seq(msg(1, 2), msg(2, 1)),
    "seq-headed": Seq(Seq(msg(2, 0), msg(0, 1)), msg(1, 2)),
    "loop-headed": Seq(FAN, msg(2, 0)),
    "foreach": FAN,
    "allreduce": allred(),
}

# attempt_rule(merged_context(3, [0]), rule, left, right, k=1) on SHAPE_REPS,
# as computed by the engine that offered every node all rules: (rule, left,
# right) -> the conclusion; every other combination gives None.
REFERENCE_ATTEMPTS = {
    ("skip-skip", "skip", "skip"): "skip",
    ("skip-msgS", "skip", "message 2 0"): "skip",
    ("msgS-skip", "message 1 2", "skip"): "skip",
    ("msgS-msgS", "message 1 2", "message 2 0"): "skip",
    ("msg-skip", "message 2 0", "skip"): "message 2 0 float",
    ("skip-msg", "skip", "message 1 2"): "message 1 2 float",
    ("msg-msgS", "message 2 0", "message 2 0"): "message 2 0 float",
    ("msgS-msg", "message 1 2", "message 1 2"): "message 1 2 float",
    ("msg-msg-eq", "message 0 1", "message 0 1"): "message 0 1 float",
    ("allred-allred", "allreduce", "allreduce"): "allreduce min float",
    ("foreach-foreach", "foreach", "foreach"): "foreach i: 1..2 { message 0 i float }",
    ("seq-seq", "message 2 0", "message-headed 2 0"): "message 2 0 float",
    ("seq-seq", "message 2 0", "message-headed 1 2"):
        "message 1 2 float; message 2 0 float; message 2 1 float",
    ("seq-seq", "message 1 2", "message-headed 2 0"): "skip",
    ("seq-seq", "message 1 2", "message-headed 1 2"): "message 1 2 float; message 2 1 float",
    ("seq-seq", "message-headed 2 0", "message 2 0"): "message 2 0 float; message 0 2 float",
    ("seq-seq", "message-headed 2 0", "message 1 2"):
        "message 1 2 float; message 2 0 float; message 0 2 float",
    ("seq-seq", "message-headed 2 0", "message-headed 2 0"): "message 2 0 float; message 0 2 float",
    ("seq-seq", "message-headed 2 0", "message-headed 1 2"):
        "message 1 2 float; message 2 0 float; message 2 1 float; message 0 2 float",
    ("seq-seq", "message-headed 1 2", "message 2 0"): "skip",
    ("seq-seq", "message-headed 1 2", "message 1 2"): "message 1 2 float",
    ("seq-seq", "message-headed 1 2", "message-headed 2 0"): "skip",
    ("seq-seq", "message-headed 1 2", "message-headed 1 2"): "message 1 2 float; message 2 1 float",
    ("seq-seq", "seq-headed", "seq-headed"):
        "message 2 0 float; message 0 1 float; message 1 2 float",
    ("seq-seq", "loop-headed", "loop-headed"):
        "foreach i: 1..2 { message 0 i float }; message 2 0 float",
    ("seq-seq", "loop-headed", "foreach"): "foreach i: 1..2 { message 0 i float }; message 2 0 float",
    ("seq-seq", "foreach", "loop-headed"): "foreach i: 1..2 { message 0 i float }",
    ("skip-msgT", "skip", "message-headed 2 0"): "skip",
    ("skip-msgT", "skip", "message-headed 1 2"): "message 1 2 float; message 2 1 float",
    ("msgT-skipT", "message-headed 2 0", "skip"): "message 2 0 float; message 0 2 float",
    ("msgT-skipT", "message-headed 1 2", "skip"): "skip",
    ("msg-msg-right", "message 2 0", "message 1 2"): "message 1 2 float; message 2 0 float",
    ("msg-msg-left", "message 2 0", "message 1 2"): "message 2 0 float; message 1 2 float",
    ("msgT-msgT-left", "message 2 0", "message-headed 1 2"):
        "message 2 0 float; message 1 2 float; message 2 1 float",
    ("msgT-msgT-left", "message-headed 2 0", "message 1 2"):
        "message 2 0 float; message 1 2 float; message 0 2 float",
    ("msgT-msgT-left", "message-headed 2 0", "message-headed 1 2"):
        "message 2 0 float; message 1 2 float; message 0 2 float; message 2 1 float",
    ("msgT-msgT-left", "seq-headed", "message 0 1"): "message 2 0 float; message 0 1 float",
    ("msgT-msgT-right", "message 2 0", "message-headed 1 2"):
        "message 1 2 float; message 2 1 float; message 2 0 float",
    ("msgT-msgT-right", "message-headed 2 0", "message 1 2"):
        "message 1 2 float; message 2 0 float; message 0 2 float",
    ("msgT-msgT-right", "message-headed 2 0", "message-headed 1 2"):
        "message 1 2 float; message 2 1 float; message 2 0 float; message 0 2 float",
}

PROGRAMS = Path(protomerge.__file__).parent / "programs"


class TestShapeDispatch:
    """The engine offers a node only the rules whose shape test accepts its
    operands' shape classes; that changes no result, trace or diagnostic."""

    def test_every_shape_class_is_represented(self):
        shapes = {merge_module._shape(t) for t in SHAPE_REPS.values()}
        assert shapes == set(merge_module._SHAPES)
        assert merge_module._shape(SHAPE_REPS["seq-headed"]) == merge_module._SEQ

    def test_index_is_exact(self):
        for left, right in itertools.product(SHAPE_REPS.values(), repeat=2):
            shapes = merge_module._shape(left), merge_module._shape(right)
            offered = [name for name, _, _ in merge_module._offered(left, right)]
            own = [name for name, (fits, _, _) in merge_module._RULES.items() if fits(*shapes)]
            reference = [name for name, _, _ in all_rules_offered(left, right)]
            assert offered == own == reference, (left, right)

    def test_attempt_rule_matches_the_reference(self):
        ctx = merged_context(3, [0])
        pairs = list(itertools.product(SHAPE_REPS.items(), repeat=2))
        for rule in RULE_NAMES:
            for (a, left), (b, right) in pairs:
                out = attempt_rule(ctx, rule, left, right, k=1)
                rendered = None if out is None else compact_protocol(out)
                assert rendered == REFERENCE_ATTEMPTS.get((rule, a, b)), (rule, a, b)

    @staticmethod
    def outcome(n, types):
        """merge_all's result and trace rows, or its diagnostic, as read."""
        try:
            result, traces = merge_all(n, types)
        except MergeFailure as failure:
            d = failure.diagnostic
            return d.kind, d.location, [(a.rule, a.failed_premise) for a in d.rule_trace]
        rows = [
            [(s.rule, [(p.name, p.formula, p.verdict) for p in s.premises]) for s in t.steps]
            for t in traces
        ]
        return result, rows

    @staticmethod
    def inputs():
        for seed in (2024, 2025):
            rng = random.Random(seed)
            for _ in range(1000):
                instance = gen_exchange(rng)
                yield instance.n, instance.local_types()
        for program in ("nbody", "one_to_all", "symmetric_ring"):
            source = (PROGRAMS / f"{program}.proc").read_text()
            for n in range(2, 9):
                ctx = initial_context(n)
                parsed = parse_process(source, program)
                yield n, [(r, extract_local_type(ctx, parsed, r, n)) for r in range(n)]
        # Inputs that reach an Undecidable verdict: an open endpoint, and
        # float-refined payloads, which compare only syntactically.
        open_end = Message(Var("w"), IntLit(1), D)
        yield 2, [(0, open_end), (1, open_end)]
        yield 2, [(0, msg(0, 1)), (1, open_end)]
        below = Refined("x", Float(), Cmp("<", Var("x"), IntLit(1)))
        above = Refined("y", Float(), Cmp(">", Var("y"), IntLit(2)))
        # Equal endpoints: msg-msg-eq is refused on payload-equivalent.
        yield 2, [(0, msg(0, 1, below)), (1, msg(0, 1, above))]
        # Different endpoints: msg-msg-eq marks the engine and msg-msg-right
        # still applies. In the second, the same step then fails, and only
        # that mark makes its diagnostic EntailmentUndecidable.
        pair = [(0, msg(0, 1, below)), (1, msg(0, 1, below)), (3, msg(2, 3, above))]
        yield 4, pair + [(2, msg(2, 3, above))]
        yield 4, pair + [(2, Seq(msg(2, 3, above), msg(2, 0, below)))]

    @classmethod
    def judged(cls, monkeypatch, cases):
        """Per case: outcome, and the multisets of premises decided and of
        payload pairs compared while merging and reading it."""
        decide, dtype_equiv = merge_module._Engine.decide, merge_module.dtype_equiv
        decided, compared = collections.Counter(), collections.Counter()

        def counting_decide(engine, key):
            decided[key[0], merge_module._claim(key)] += 1
            return decide(engine, key)

        def counting_dtype_equiv(ctx, d1, d2, *rest):
            compared[ctx, d1, d2] += 1
            return dtype_equiv(ctx, d1, d2, *rest)

        monkeypatch.setattr(merge_module._Engine, "decide", counting_decide)
        monkeypatch.setattr(merge_module, "dtype_equiv", counting_dtype_equiv)
        out = []
        for n, types in cases:
            decided.clear()
            compared.clear()
            out.append((cls.outcome(n, types), dict(decided), dict(compared)))
        return out

    def test_same_outcomes_as_offering_every_rule(self, monkeypatch):
        """Against an engine that offers every node, message pairs too,
        every rule one by one, each in a node of its own."""
        cases = list(self.inputs())
        decided = self.judged(monkeypatch, cases)
        monkeypatch.setattr(merge_module._Engine, "derive", rule_by_rule(merge_module._Engine.derive))
        monkeypatch.setattr(merge_module, "_offered", all_rules_offered)
        every_rule = self.judged(monkeypatch, cases)
        assert decided == every_rule
        outcomes = [o for o, _, _ in decided]
        rejected = sum(isinstance(o[0], DiagnosticKind) for o in outcomes)
        assert 0 < rejected < len(outcomes)
        # Message pairs were applied, and refused pairs reported.
        applied = {name for o in outcomes if not isinstance(o[0], DiagnosticKind)
                   for trace in o[1] for name, _ in trace}
        assert {"msg-msg-eq", "msg-msg-right"} <= applied
        pairs = [name for name, _, _ in merge_module._INDEX[merge_module._MSG, merge_module._MSG]]
        assert any([rule for rule, _ in o[2]] == pairs
                   for o in outcomes if isinstance(o[0], DiagnosticKind))
        assert DiagnosticKind.ENTAILMENT_UNDECIDABLE in {o[0] for o in outcomes}


def rule_by_rule(derive):
    """_Engine.derive offering a node its rules one at a time, each in a
    `derive` call of its own, so no rule reads a verdict from the node's dict
    that another rule decided."""

    def derive_each(engine, ctx, left, right, rules):
        refused = ()
        for offered in rules:
            outcome = derive(engine, ctx, left, right, (offered,))
            if type(outcome) is merge_module._Applied:
                return outcome
            refused += outcome
        return refused

    return derive_each


class TestFirstRuleWhosePremisesHold:
    """A node of two single messages applies the first rule offered them
    whose premises all hold, deciding a premise only when a rule reaches
    it: each rule stops at its first failed premise."""

    LEFT_MERGED, LEFT_K = ("left", "merged"), ("left", "k")
    RIGHT_K, RIGHT_MERGED = ("right", "k"), ("right", "merged")
    # Premise -> (what it judges, the verdict on which it holds).
    HOLDS = {
        "left-skip-like": (LEFT_MERGED, "Valid"),
        "left-real": (LEFT_MERGED, "Invalid"),
        "left-avoids-k": (LEFT_K, "Valid"),
        "right-skip-like": (RIGHT_K, "Valid"),
        "right-real": (RIGHT_K, "Invalid"),
        "right-avoids-merged": (RIGHT_MERGED, "Valid"),
        "endpoints-equal": ("endpoints", "Valid"),
        "payload-equivalent": ("payloads", "equivalent"),
    }
    LOGICAL = ("Valid", "Invalid", "Undecidable")
    OUTCOMES = {
        LEFT_MERGED: LOGICAL, RIGHT_K: LOGICAL, LEFT_K: LOGICAL, RIGHT_MERGED: LOGICAL,
        "endpoints": LOGICAL, "payloads": ("equivalent", "different", "Undecidable"),
    }

    def test_pair_applies_the_first_rule_offered_whose_premises_hold(self):
        offered = merge_module._INDEX[merge_module._MSG, merge_module._MSG]
        rules = [(name, merge_module._RULES[name][1]) for name, _, _ in offered]
        assert [name for name, _ in rules] == [
            "msgS-msgS", "msg-msgS", "msgS-msg", "msg-msg-eq", "msg-msg-right", "msg-msg-left"
        ]
        ctx, left, right = merged_context(3, [0]), msg(0, 1), msg(1, 2)
        picked = collections.Counter()
        for verdicts in itertools.product(*self.OUTCOMES.values()):
            verdict_of = dict(zip(self.OUTCOMES, verdicts))
            asked = []

            def premise(ctx, judged, lm, rm):
                if judged not in asked:
                    asked.append(judged)
                return verdict_of[judged]

            engine = merge_module._Engine(1)
            engine.premise = premise
            outcome = engine.derive(ctx, left, right, offered)
            want, needed = None, []
            for name, premises in rules:
                for judged, holds in map(self.HOLDS.get, premises):
                    if judged not in needed:
                        needed.append(judged)
                    if verdict_of[judged] != holds:
                        break
                else:
                    want = name
                    break
            if want is None:
                assert [refusal[0] for refusal in outcome] == [name for name, _ in rules], verdict_of
            else:
                assert (outcome.rule, outcome.subs) == (want, ()), verdict_of
            # Decided: what every rule up to the one applied judges, up to
            # its first failed premise, in the order the rules first ask.
            assert asked == needed, verdict_of
            picked[want] += 1
        assert set(picked) == {name for name, _ in rules[:-1]} | {None}


class TestMergeAll:
    FAN_OUT = Foreach("i", IntLit(1), IntLit(2), Message(IntLit(0), Var("i"), D))
    ONE_TO_ALL = [(0, FAN_OUT), (1, msg(0, 1)), (2, msg(0, 2))]
    # Rank 0 sends twice and rank 1 receives once: both heads are small
    # constant loops, and the step fails whichever one is unfolded.
    UNEVEN = [
        (0, Foreach("i", IntLit(1), IntLit(2), msg(0, 1))),
        (1, Foreach("i", IntLit(1), IntLit(1), msg(0, 1))),
    ]

    def test_folds_ranks_in_default_order(self):
        result, traces = merge_all(3, self.ONE_TO_ALL)
        assert result == Seq(msg(0, 1), msg(0, 2))
        assert len(traces) == 2

    @pytest.mark.parametrize(
        "types, order, first_step",
        [
            (ONE_TO_ALL, None, ("seq-seq", "msg-msg-eq", "msg-skip")),
            (ONE_TO_ALL, [1, 0, 2], ("seq-seq", "msg-msg-eq", "skip-msg")),
            (UNEVEN, None, None),
        ],
        ids=["left", "right", "both"],
    )
    def test_retry_unfolds_small_constant_loop_head(self, types, order, first_step):
        # The step is retried only when exactly one head unfolds; otherwise
        # the first attempt's failure, at the two loops, is raised.
        if first_step is None:
            with pytest.raises(MergeFailure) as err:
                merge_all(len(types), types, order)
            assert err.value.diagnostic.rule_trace == (
                RuleAttempt("foreach-foreach", "bounds-equal: 1 = 1 and 2 = 1 is Invalid"),
            )
            return
        _, traces = merge_all(len(types), types, order)
        assert traces[0].rule_names() == first_step

    def test_unroll_budget_limits_retry(self):
        with pytest.raises(MergeFailure) as err:
            merge_all(3, self.ONE_TO_ALL, unroll=1)
        assert err.value.diagnostic.location.startswith("merging rank 1 into ranks [0]")

    def test_local_types_enter_in_normal_form(self):
        assert merge_all(1, [(0, Seq(Skip(), Seq(allred(), Skip())))]) == (allred(), [])
        nested = Seq(Seq(msg(0, 1), Skip()), msg(1, 0))
        result, _ = merge_all(2, [(0, nested), (1, nested)])
        assert result == Seq(msg(0, 1), msg(1, 0))

    def test_order_override(self):
        types = [(r, allred()) for r in range(3)]
        result, traces = merge_all(3, types, order=[2, 0, 1])
        assert result == allred()
        assert [t.rule_names() for t in traces] == [("allred-allred", "skip-skip")] * 2

    def test_failure_is_annotated_with_rank_pair(self):
        left = Seq(msg(0, 1), msg(1, 0))
        right = Seq(msg(1, 0), msg(0, 1))
        with pytest.raises(MergeFailure) as err:
            merge_all(2, [(0, left), (1, right)])
        d = err.value.diagnostic
        assert d.location == "merging rank 1 into ranks [0]: seq.first"

    def test_duplicate_ranks_rejected(self):
        with pytest.raises(ValueError):
            merge_all(2, [(0, Skip()), (0, Skip())])

    def test_coverage_must_be_exact(self):
        with pytest.raises(ValueError):
            merge_all(2, [(0, Skip()), (2, Skip())])

    def test_order_must_be_permutation(self):
        with pytest.raises(ValueError):
            merge_all(2, [(0, Skip()), (1, Skip())], order=[0, 0])

    @pytest.mark.parametrize("n", [0, -1])
    def test_empty_world_rejected(self, n):
        with pytest.raises(InvalidRankSet, match=f"world size must be positive, got {n}"):
            merge_all(n, [])

    def test_a_derivation_past_the_stack_is_merge_too_deep(self):
        long = build_seq([msg(0, 1), msg(1, 0)] * 5000)
        ctx = merged_context(2, [0])
        with pytest.raises(protomerge.MergeTooDeep):
            merge_types(ctx, long, long, 1)
        with pytest.raises(protomerge.MergeTooDeep):
            attempt_rule(ctx, "seq-seq", long, long, 1)
        with pytest.raises(protomerge.MergeTooDeep, match=r"^merging rank 1 into ranks \[0\]: "):
            merge_all(2, [(0, long), (1, long)])


class TestPremisesAndRendering:
    """No premise is decided twice in one merge_types call, by comparing
    values, by entails or by dtype_equiv, and no text is rendered until a
    trace is read."""

    @staticmethod
    def fold_steps(n, local_types):
        """Merge ranks 1..n-1 into the accumulated type one merge_types call
        at a time, yielding each call's merged set and outcome."""
        accumulated = local_types[0]
        for k in range(1, n):
            merged = list(range(k))
            accumulated, trace = merge_types(
                merged_context(n, merged), accumulated, local_types[k], k
            )
            yield merged, trace

    @staticmethod
    def nbody_types(n):
        source = (Path(protomerge.__file__).parent / "programs" / "nbody.proc").read_text()
        ctx = initial_context(n)
        return [extract_local_type(ctx, parse_process(source, "nbody"), r, n) for r in range(n)]

    @staticmethod
    def exchange_types():
        # Projections of one global order: 0->1, 1->2, 2->0, 0->2, 1->0.
        order = [(0, 1), (1, 2), (2, 0), (0, 2), (1, 0)]
        types = []
        for rank in range(3):
            items = [msg(s, d) for s, d in order if rank in (s, d)]
            t = items[-1]
            for item in reversed(items[:-1]):
                t = Seq(item, t)
            types.append(t)
        return types

    @pytest.mark.parametrize("case", ["nbody-4", "exchange-3"])
    def test_no_premise_is_decided_twice(self, monkeypatch, case):
        n, types = (4, self.nbody_types(4)) if case == "nbody-4" else (3, self.exchange_types())
        init, decide = merge_module._Engine.__init__, merge_module._Engine.decide
        entails, dtype_equiv = merge_module.entails, merge_module.dtype_equiv
        entered, decided, reached, compared = [], [], [], []

        class Table(dict):
            """The engine's premise table, recording each premise as it is
            entered."""

            def __setitem__(self, key, verdict):
                assert key not in self, f"{key[1:]} entered twice"
                entered.append((key[0], merge_module._claim(key)))
                super().__setitem__(key, verdict)

        def recording_init(engine, *args):
            init(engine, *args)
            engine.verdicts = Table()

        def counting_decide(engine, key):
            # decide takes the premise's key; entails sees the claim it states.
            decided.append((key[0], merge_module._claim(key)))
            return decide(engine, key)

        def counting_entails(ctx, p, *rest):
            reached.append((ctx, p))
            return entails(ctx, p, *rest)

        def counting_dtype_equiv(ctx, d1, d2, *rest):
            compared.append((ctx, (d1, d2)))
            return dtype_equiv(ctx, d1, d2, *rest)

        monkeypatch.setattr(merge_module._Engine, "__init__", recording_init)
        monkeypatch.setattr(merge_module._Engine, "decide", counting_decide)
        monkeypatch.setattr(merge_module, "entails", counting_entails)
        monkeypatch.setattr(merge_module, "dtype_equiv", counting_dtype_equiv)
        steps = 0
        for merged, trace in self.fold_steps(n, types):
            assert decided, f"merging into {merged} decided nothing"
            for seen, what in ((decided, "a premise decided"), (reached, "entails asked"),
                               (compared, "a payload pair compared")):
                assert len(seen) == len(set(seen)), f"{what} twice merging into {merged}"
            assert compared, f"merging into {merged} compared no payloads"
            # Every endpoint and bound is a literal, so no message or loop
            # premise needs entails; every call it or dtype_equiv gets, and
            # every decision, is for a premise in the table.
            assert set(reached) <= set(decided)
            assert set(decided) | set(compared) <= set(entered)
            steps += len(trace.steps)
            for seen in (entered, decided, reached, compared):
                seen.clear()
        assert steps > 0

    def test_each_distinct_context_is_resolved_once(self, monkeypatch):
        # A fresh table: every context these merges query is resolved here,
        # none by an earlier test.
        monkeypatch.setattr(logic_module, "_RESOLUTIONS", {})
        resolution, built = logic_module._Resolution, []

        def counting(*args):
            built.append(args)
            return resolution(*args)

        monkeypatch.setattr(logic_module, "_Resolution", counting)
        types = list(enumerate(self.nbody_types(4)))
        merge_all(4, types)
        resolved = dict(logic_module._RESOLUTIONS)
        assert len(built) == len(resolved)
        # Contexts the loop and allreduce rules extend are resolved too.
        assert any(len(ctx.entries) > 2 for ctx in resolved)
        merge_all(4, types)
        assert len(built) == len(resolved)
        assert logic_module._RESOLUTIONS == resolved

    @staticmethod
    def ring_step():
        """The trace of the ring's first merge_types call; it reads RING_ROWS."""
        ctx = merged_context(3, [0])
        return merge_types(ctx, Seq(msg(0, 1), msg(2, 0)), Seq(msg(0, 1), msg(1, 2)), k=1)[1]

    @staticmethod
    def rendered(trace):
        return [
            (s.rule, s.left, s.right, [(p.name, p.formula, p.verdict) for p in s.premises])
            for s in trace.steps
        ]

    RING_ROWS = [
        ("seq-seq", "message 0 1 float; message 2 0 float",
         "message 0 1 float; message 1 2 float", []),
        ("msg-msg-eq", "message 0 1 float", "message 0 1 float", [
            ("left-real", "0 != rank and 1 != rank", "Invalid"),
            ("right-real", "0 != 1 and 1 != 1", "Invalid"),
            ("endpoints-equal", "0 = 0 and 1 = 1", "Valid"),
            ("payload-equivalent", "float == float", "equivalent"),
        ]),
        ("msg-msg-right", "message 2 0 float", "message 1 2 float", [
            ("left-real", "2 != rank and 0 != rank", "Invalid"),
            ("left-avoids-k", "2 != 1 and 0 != 1", "Valid"),
            ("right-real", "1 != 1 and 2 != 1", "Invalid"),
            ("right-avoids-merged", "1 != rank and 2 != rank", "Valid"),
        ]),
    ]

    def test_accepting_merge_renders_nothing_until_read(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("rendered while merging")

        for name in ("compact_protocol", "print_proposition", "print_datatype"):
            monkeypatch.setattr(merge_module, name, refuse)
        trace = self.ring_step()
        monkeypatch.undo()
        assert self.rendered(trace) == self.RING_ROWS

    @pytest.mark.parametrize("case", ["nbody-4", "exchange-3"])
    def test_accepting_merge_builds_no_step_until_read(self, monkeypatch, case):
        n, types = (4, self.nbody_types(4)) if case == "nbody-4" else (3, self.exchange_types())
        built = collections.Counter()
        for name in ("MergeStep", "PremiseCheck"):
            cls = getattr(merge_module, name)
            monkeypatch.setattr(merge_module, name, lambda *a, cls=cls: built.update([cls]) or cls(*a))
        _, traces = merge_all(n, list(enumerate(types)))
        trace = self.ring_step()
        assert built == {}
        monkeypatch.undo()
        assert all(t.steps for t in traces)
        assert self.rendered(trace) == self.RING_ROWS

    @pytest.mark.parametrize("program, n", [("symmetric_ring", 3), ("one_to_all", 4)])
    def test_rejecting_merge_renders_nothing_until_read(self, monkeypatch, program, n):
        def refuse(*args):
            raise AssertionError("rendered while merging")

        ctx, parsed = initial_context(n), parse_process((PROGRAMS / f"{program}.proc").read_text())
        types = [(r, extract_local_type(ctx, parsed, r, n)) for r in range(n)]
        for name in ("compact_protocol", "print_proposition", "print_datatype"):
            monkeypatch.setattr(merge_module, name, refuse)
        with pytest.raises(MergeFailure) as err:
            merge_all(n, types)
        monkeypatch.undo()
        d = err.value.diagnostic
        golden = (Path(__file__).parent / "golden" / f"infer-{program}-n{n}.txt").read_text()
        stderr = golden.split("--- stderr\n", 1)[1].split("\n\n", 1)[0]
        assert stderr.splitlines() == [f"error: {d.kind.value} at {d.location}"] + [
            f"  {a.rule}: {a.failed_premise}" for a in d.rule_trace
        ]


class TestMembershipPremises:
    """`_Engine.by_value` decides each claim on literals by value: a literal
    message's side by membership in k, or in the merged ranks where `rank`
    is bound to a FiniteSet, and four literal endpoints or bounds by
    identity. `premise` compares allreduce operators by identity. Every
    other claim goes to entails, and each verdict is the one entails gives
    the claim's proposition."""

    @staticmethod
    def contexts(ctx, n):
        """ctx, ctx under a loop binder i in 0..n-1, and ctx under a binder
        that rebinds rank to the whole world."""
        world = And(Cmp("<=", IntLit(0), Var("y")), Cmp("<=", Var("y"), IntLit(n - 1)))
        loop = Refined("y", Integer(), world)
        return [ctx, ctx.extend("i", loop), ctx.extend("rank", loop)]

    @staticmethod
    def terms(rng, n):
        """An endpoint or loop bound of each kind: a literal, `size - c`, the
        loop binder i and `rank`."""
        return [
            IntLit(rng.randrange(-1, n + 1)),
            BinOp("-", Var("size"), IntLit(rng.randrange(1, n + 1))),
            Var("i"),
            Var("rank"),
        ]

    @staticmethod
    def premises(engine, ctx, lm, rm, names):
        """The named premises on left head lm and right head rm, as
        (ok, kind, name, claim, verdict)."""
        rows = []
        for name in names:
            judged, want, kind = merge_module._PREMISES[name]
            verdict = engine.premise(ctx, judged, lm, rm)
            claim = merge_module._claim(merge_module._key(ctx, judged, lm, rm, engine.k))
            rows.append((verdict == want, kind, name, claim, verdict))
        return rows

    @classmethod
    def agree(cls, engine, ctx, lm, rm, k):
        """Every message premise and endpoints-equal on lm and rm under ctx
        has the verdict entails gives its proposition."""
        for name, (judged, want, _) in merge_module._PREMISES.items():
            if type(judged) is not tuple:  # not an avoidance premise
                continue
            operand, side = judged
            m = lm if operand == "left" else rm
            term = Var("rank") if side == "merged" else IntLit(k)
            p = And(Cmp("!=", m.src, term), Cmp("!=", m.dst, term))
            verdict = entails(ctx, p)
            ok, _, _, claim, got = cls.premises(engine, ctx, m, m, (name,))[0]
            assert (ok, claim, got) == (verdict.value == want, p, verdict.value), (ctx.names(), name, m)
        cls.agree_equal(engine, ctx, lm, rm, "endpoints-equal", ("src", "dst"))

    @classmethod
    def agree_equal(cls, engine, ctx, left, right, name, parts):
        """Premise `name`, two equations over the heads' `parts`, has the
        verdict entails gives its proposition."""
        ok, _, _, claim, got = cls.premises(engine, ctx, left, right, (name,))[0]
        p = And(*(Cmp("=", getattr(left, a), getattr(right, a)) for a in parts))
        verdict = entails(ctx, p)
        assert (ok, claim, got) == (verdict is Verdict.VALID, p, verdict.value), (ctx.names(), left, right)

    @staticmethod
    def recording(monkeypatch):
        """From here on: (what is judged, the rank entry, the verdict) per
        by_value call, and (the rank entry, the set) per ranks call."""
        by_value, ranks = merge_module._Engine.by_value, merge_module._Engine.ranks
        decided, listed = [], []

        def recording_by_value(engine, ctx, judged, lh, rh):
            verdict = by_value(engine, ctx, judged, lh, rh)
            decided.append((judged, ctx.lookup("rank"), verdict))
            return verdict

        def recording_ranks(engine, ctx):
            found = ranks(engine, ctx)
            listed.append((ctx.lookup("rank"), found))
            return found

        monkeypatch.setattr(merge_module._Engine, "by_value", recording_by_value)
        monkeypatch.setattr(merge_module._Engine, "ranks", recording_ranks)
        return decided, listed

    @staticmethod
    def instance(rng):
        """A world size, merged ranks and the rank k merged into them."""
        n = rng.randint(2, 8)
        merged = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
        return n, merged, rng.choice([r for r in range(n) if r not in merged])

    def test_membership_agrees_with_entails(self, monkeypatch):
        decided, listed = self.recording(monkeypatch)
        rng = random.Random(11)
        for _ in range(300):
            n, merged, k = self.instance(rng)
            engine = merge_module._Engine(k)
            for ctx in self.contexts(merged_context(n, merged), n):
                ends = self.terms(rng, n)
                lm = Message(rng.choice(ends), rng.choice(ends), D)
                rm = Message(rng.choice(ends), rng.choice(ends), D)
                self.agree(engine, ctx, lm, rm, k)
                # All four endpoints literal: endpoints-equal and the k
                # side compare literals.
                lm, rm = (msg(rng.randrange(n), rng.randrange(n)) for _ in range(2))
                self.agree(engine, ctx, lm, rm, k)
        by_value = [(judged, entry) for judged, entry, verdict in decided if verdict is not None]
        assert by_value and len(by_value) < len(decided)
        sides = {judged[1] if type(judged) is tuple else judged for judged, _ in by_value}
        assert sides == {"merged", "k", merge_module._ENDPOINTS}
        # The merged side is read by value only where rank is a FiniteSet,
        # and ranks lists a set exactly there.
        merged_side = [entry for judged, entry in by_value if type(judged) is tuple and judged[1] == "merged"]
        assert all(type(entry) is FiniteSet for entry in merged_side)
        assert {type(entry) is FiniteSet for entry, _ in listed} == {True, False}
        for entry, found in listed:
            assert found == (frozenset(entry.values) if type(entry) is FiniteSet else None)

    @pytest.mark.parametrize("context", [merged_context, or_chain_context])
    def test_bounds_agree_with_entails(self, monkeypatch, context):
        """bounds-equal on literal, `size - c`, loop-binder and `rank`
        bounds: four literals by value, the rest by entails, each with
        entails' verdict."""
        decided, _ = self.recording(monkeypatch)
        rng = random.Random(13)
        for _ in range(300):
            n, merged, k = self.instance(rng)
            engine = merge_module._Engine(k)
            for ctx in self.contexts(context(n, merged), n):
                bounds = self.terms(rng, n)
                ll, rl = (Foreach("j", rng.choice(bounds), rng.choice(bounds), msg(0, 1)) for _ in range(2))
                self.agree_equal(engine, ctx, ll, rl, "bounds-equal", ("lo", "hi"))
                ll, rl = (Foreach("j", IntLit(rng.randrange(n)), IntLit(rng.randrange(n)), msg(0, 1))
                          for _ in range(2))
                self.agree_equal(engine, ctx, ll, rl, "bounds-equal", ("lo", "hi"))
        verdicts = collections.Counter(v for judged, _, v in decided if judged is merge_module._BOUNDS)
        assert min(verdicts[None], verdicts["Valid"], verdicts["Invalid"]) > 0, verdicts

    @staticmethod
    def asking(monkeypatch):
        """The (context, proposition) pairs the engine asks entails, from here on."""
        asked = []

        def recording(ctx, p, *rest):
            asked.append((ctx, p))
            return entails(ctx, p, *rest)

        monkeypatch.setattr(merge_module, "entails", recording)
        return asked

    def test_op_equal_never_asks_entails(self, monkeypatch):
        asked, decide, decided = self.asking(monkeypatch), merge_module._Engine.decide, []
        monkeypatch.setattr(merge_module._Engine, "decide", lambda e, key: decided.append(key) or decide(e, key))
        engine, ctx = merge_module._Engine(1), merged_context(2, [0])
        rows = [self.premises(engine, ctx, allred(a), allred(b), ("op-equal",))[0]
                for a, b in ((ReduceOp.MIN, ReduceOp.MIN), (ReduceOp.MIN, ReduceOp.MAX))]
        assert [(ok, claim, verdict) for ok, _, _, claim, verdict in rows] == [
            (True, "min = min", "equal"), (False, "min = max", "different")
        ]
        assert (asked, decided, engine.verdicts) == ([], [], {})

    @staticmethod
    def refusing(monkeypatch):
        """From here on, fail the test when ranks lists the merged ranks."""
        ranks = merge_module._Engine.ranks

        def refusing(engine, ctx):
            found = ranks(engine, ctx)
            assert found is None, "rank read without entails"
            return found

        monkeypatch.setattr(merge_module._Engine, "ranks", refusing)

    def test_rebound_rank_reaches_entails(self, monkeypatch):
        self.refusing(monkeypatch)
        asked = self.asking(monkeypatch)
        root = merged_context(4, [0, 1])
        engine = merge_module._Engine(2)
        rebound = self.contexts(root, 4)[2]
        ok, _, _, _, verdict = self.premises(engine, rebound, msg(2, 3), msg(2, 3), ("left-skip-like",))[0]
        assert (ok, verdict) == (False, "Invalid")
        rank = Var("rank")
        assert asked == [(rebound, And(Cmp("!=", IntLit(2), rank), Cmp("!=", IntLit(3), rank)))]
        self.agree(engine, rebound, msg(0, 1), msg(3, 2), 2)

    def test_rank_bound_by_a_refinement_reaches_entails(self, monkeypatch):
        """The merged ranks spelled as a refinement go to entails, with the
        verdicts the FiniteSet entry gets by value."""
        pairs = [(msg(2, 3), msg(0, 1)), (msg(0, 3), msg(3, 2)), (msg(3, 1), msg(2, 1))]
        entry, chain = merged_context(4, [0, 1]), or_chain_context(4, [0, 1])
        engine = merge_module._Engine(2)
        names = merge_module._RULES["msg-msg-eq"][1]
        want = [self.premises(engine, entry, lm, rm, names) for lm, rm in pairs]
        self.refusing(monkeypatch)
        asked = self.asking(monkeypatch)
        for lm, rm in pairs:
            self.agree(engine, chain, lm, rm, 2)
        assert [self.premises(engine, chain, lm, rm, names) for lm, rm in pairs] == want
        # Each head's merged side went to entails under the chain, once;
        # the k side and endpoints-equal were read by value.
        rank = Var("rank")
        assert asked == [
            (chain, And(Cmp("!=", m.src, rank), Cmp("!=", m.dst, rank))) for pair in pairs for m in pair
        ]

    @staticmethod
    def fold(instance, context=merged_context):
        """Per merge_types call: the trace's (rule, premise, formula,
        verdict) rows, or the diagnostic that refused it; then the result."""
        types = dict(instance.local_types())
        accumulated, out = types[0], []
        for k in range(1, instance.n):
            try:
                accumulated, trace = merge_types(context(instance.n, range(k)), accumulated, types[k], k)
            except MergeFailure as failure:
                out.append(failure.diagnostic)
                return out
            out.append([
                (s.rule, p.name, p.formula, p.verdict) for s in trace.steps for p in s.premises
            ])
        return out + [accumulated]

    @pytest.mark.parametrize("seed", [0, 1, 100_000])
    def test_traces_match_the_or_chain(self, seed):
        """The rank-set entry and the same ranks spelled as a refinement give
        the same traces, conclusions and diagnostics."""
        rng = random.Random(seed)
        for instance in (gen_exchange(rng) for _ in range(300)):
            assert self.fold(instance, merged_context) == self.fold(instance, or_chain_context), instance

    def test_traces_match_entails_only_merges(self, monkeypatch):
        rng = random.Random(5)
        instances = [gen_exchange(rng) for _ in range(2000)]
        asked = self.asking(monkeypatch)
        with_values = [self.fold(instance) for instance in instances]
        assert asked == []  # every endpoint of an exchange is a literal
        # Every by-value decision off: by_value reads nothing, and ranks
        # lists no set, so no run starts either.
        monkeypatch.setattr(merge_module._Engine, "by_value", lambda *args: None)
        monkeypatch.setattr(merge_module._Engine, "ranks", lambda engine, ctx: None)
        entails_only = [self.fold(instance) for instance in instances]
        assert asked
        assert with_values == entails_only
        rows = [row for folds in with_values for step in folds if isinstance(step, list)
                for row in step]
        assert {"endpoints-equal", "left-avoids-k", "right-avoids-merged"} <= {r[1] for r in rows}
        assert any(isinstance(step, protomerge.Diagnostic) for f in with_values for step in f)
