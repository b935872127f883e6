"""Merge engine: normal forms, unfolding, rules, diagnostics, rank folding."""

from pathlib import Path

import pytest

import protomerge
import protomerge.merge as merge_module
from protomerge import (
    Allreduce,
    DiagnosticKind,
    Float,
    Foreach,
    InvalidRankSet,
    IntLit,
    Integer,
    Message,
    MergeFailure,
    NonConstantBounds,
    RULE_NAMES,
    ReduceOp,
    Seq,
    Skip,
    TypingContext,
    Var,

    compact_protocol,    attempt_rule,
    extract_local_type,
    initial_context,
    merge_all,
    merge_types,
    merged_context,
    normalize_seq,
    unfold_foreach,
)
from protomerge.ast import FRESH_BINDER
from protomerge.syntax import parse_process


D = Float()


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
        assert err.value.diagnostic.kind is DiagnosticKind.ENTAILMENT_FAILED

    def test_open_endpoint_is_undecidable(self):
        ctx = merged_context(8, [0])
        left = Message(Var("w"), IntLit(5), D)
        with pytest.raises(MergeFailure) as err:
            merge_types(ctx, left, Skip(), k=1)
        assert err.value.diagnostic.kind is DiagnosticKind.ENTAILMENT_UNDECIDABLE

    def test_message_str_names_kind_and_location(self):
        ctx = merged_context(2, [0])
        left = Seq(msg(0, 1), msg(1, 0))
        right = Seq(msg(1, 0), msg(0, 1))
        with pytest.raises(MergeFailure) as err:
            merge_types(ctx, left, right, k=1)
        assert "DeadlockSuspected" in str(err.value)
        assert "seq.first" in str(err.value)


class TestMergeValidation:
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


class TestMergeAll:
    def one_to_all_types(self):
        fan = Foreach("i", IntLit(1), IntLit(2), Message(IntLit(0), Var("i"), D))
        return [(0, fan), (1, msg(0, 1)), (2, msg(0, 2))]

    def test_folds_ranks_in_default_order(self):
        result, traces = merge_all(3, self.one_to_all_types())
        assert result == Seq(msg(0, 1), msg(0, 2))
        assert len(traces) == 2

    def test_retry_unfolds_small_constant_loop_head(self):
        _, traces = merge_all(3, self.one_to_all_types())
        assert traces[0].rule_names() == ("seq-seq", "msg-msg-eq", "msg-skip")

    def test_unroll_budget_limits_retry(self):
        with pytest.raises(MergeFailure) as err:
            merge_all(3, self.one_to_all_types(), unroll=1)
        assert err.value.diagnostic.location.startswith("merging rank 1 into ranks [0]")

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


class TestPremisesAndRendering:
    """No (context, proposition) reaches entails twice in one merge_types
    call, and no text is rendered until a trace is read."""

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
    def test_no_premise_reaches_entails_twice(self, monkeypatch, case):
        n, types = (4, self.nbody_types(4)) if case == "nbody-4" else (3, self.exchange_types())
        original = merge_module.entails
        asked = []

        def counting(ctx, p, *rest):
            asked.append((ctx, p))
            return original(ctx, p, *rest)

        monkeypatch.setattr(merge_module, "entails", counting)
        steps = 0
        for merged, trace in self.fold_steps(n, types):
            assert asked, f"merging into {merged} asked nothing"
            assert len(asked) == len(set(asked)), f"a premise repeated merging into {merged}"
            steps += len(trace.steps)
            asked.clear()
        assert steps > 0

    def test_accepting_merge_renders_nothing_until_read(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("rendered while merging")

        for name in ("compact_protocol", "print_proposition", "print_datatype"):
            monkeypatch.setattr(merge_module, name, refuse)
        ctx = merged_context(3, [0])
        left = Seq(msg(0, 1), msg(2, 0))
        right = Seq(msg(0, 1), msg(1, 2))
        _, trace = merge_types(ctx, left, right, k=1)
        monkeypatch.undo()
        rendered = [
            (s.rule, s.left, s.right, [(p.name, p.formula, p.verdict) for p in s.premises])
            for s in trace.steps
        ]
        assert rendered == [
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
