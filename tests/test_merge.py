"""Merge engine: normal forms, unfolding, rules, diagnostics, rank folding."""

import itertools
import random
from pathlib import Path

import pytest

import protomerge
import protomerge.merge as merge_module
from protomerge import (
    Allreduce,
    And,
    BinOp,
    Cmp,
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
    Refined,
    Seq,
    Skip,
    TypingContext,
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
from protomerge.ast import FRESH_BINDER
from protomerge.logic import DEFAULT_ENUM_CAP
from protomerge.syntax import parse_process

from generators import gen_exchange


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
    """Every rule in table order, each behind its reference shape test."""
    return tuple(
        (name, rule) for name, (_, rule) in merge_module._RULES.items()
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
            offered = [name for name, _ in merge_module._offered(left, right)]
            own = [name for name, (fits, _) in merge_module._RULES.items() if fits(*shapes)]
            reference = [name for name, _ in all_rules_offered(left, right)]
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
        rng = random.Random(2024)
        for _ in range(2000):
            instance = gen_exchange(rng)
            yield instance.n, instance.local_types()
        for program in ("nbody", "one_to_all", "symmetric_ring"):
            source = (PROGRAMS / f"{program}.proc").read_text()
            for n in range(2, 9):
                ctx = initial_context(n)
                parsed = parse_process(source, program)
                yield n, [(r, extract_local_type(ctx, parsed, r, n)) for r in range(n)]

    def test_same_outcomes_as_offering_every_rule(self, monkeypatch):
        cases = list(self.inputs())
        indexed = [self.outcome(n, types) for n, types in cases]
        monkeypatch.setattr(merge_module, "_offered", all_rules_offered)
        every_rule = [self.outcome(n, types) for n, types in cases]
        assert indexed == every_rule
        rejected = sum(isinstance(o[0], DiagnosticKind) for o in indexed)
        assert 0 < rejected < len(indexed)


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


class TestPremisesAndRendering:
    """No (context, proposition) is decided twice in one merge_types call,
    by membership or by entails, and no text is rendered until a trace is
    read."""

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
        decide, entails = merge_module._Engine.decide, merge_module.entails
        decided, reached = [], []

        def counting_decide(engine, ctx, p, *rest):
            # decide holds the premise as parts; entails sees the proposition.
            decided.append((ctx, p.proposition()))
            return decide(engine, ctx, p, *rest)

        def counting_entails(ctx, p, *rest):
            reached.append((ctx, p))
            return entails(ctx, p, *rest)

        monkeypatch.setattr(merge_module._Engine, "decide", counting_decide)
        monkeypatch.setattr(merge_module, "entails", counting_entails)
        steps = 0
        for merged, trace in self.fold_steps(n, types):
            assert decided, f"merging into {merged} decided nothing"
            assert len(decided) == len(set(decided)), f"a premise repeated merging into {merged}"
            # Every endpoint is a literal, so membership decides every
            # message premise; only nbody's loop bounds reach entails.
            assert set(reached) < set(decided)
            steps += len(trace.steps)
            decided.clear()
            reached.clear()
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
    """Where `rank` ranges over the merged ranks, message premises on literal
    endpoints are decided by membership, with entails' verdicts."""

    @staticmethod
    def contexts(engine, ctx, n):
        """ctx, ctx under a loop binder i in 0..n-1, and ctx under a binder
        that rebinds rank to the whole world."""
        world = And(Cmp("<=", IntLit(0), Var("y")), Cmp("<=", Var("y"), IntLit(n - 1)))
        loop = Refined("y", Integer(), world)
        return [ctx, engine.extend(ctx, "i", loop), engine.extend(ctx, "rank", loop)]

    @staticmethod
    def endpoints(rng, n):
        return [
            IntLit(rng.randrange(-1, n + 1)),
            BinOp("-", Var("size"), IntLit(rng.randrange(1, n + 1))),
            Var("i"),
        ]

    def test_membership_agrees_with_entails(self, monkeypatch):
        by_membership = merge_module._by_membership
        counted = []

        def counting(ends, holds):
            verdict = by_membership(ends, holds)
            counted.append((verdict is not None, ends))
            return verdict

        monkeypatch.setattr(merge_module, "_by_membership", counting)
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(2, 8)
            merged = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
            k = rng.choice([r for r in range(n) if r not in merged])
            enum_cap = rng.choice((1, 2, DEFAULT_ENUM_CAP))
            root = merged_context(n, merged)
            engine = merge_module._Engine(root, k, enum_cap, frozenset(merged))
            for ctx in self.contexts(engine, root, n):
                ends = self.endpoints(rng, n)
                lm = Message(rng.choice(ends), rng.choice(ends), D)
                rm = Message(rng.choice(ends), rng.choice(ends), D)
                for name, (operand, side, want) in merge_module._AVOIDS.items():
                    m = lm if operand == "left" else rm
                    term = Var("rank") if side == "merged" else IntLit(k)
                    p = And(Cmp("!=", m.src, term), Cmp("!=", m.dst, term))
                    verdict = entails(ctx, p, enum_cap)
                    ok, check, _ = engine.avoidance(ctx, name, m)
                    assert (ok, check.claim, check.verdict) == (
                        verdict is want, p, verdict.value
                    ), (n, merged, k, enum_cap, ctx.names(), name, m)
                ok, check, _ = merge_module._msg_msg_eq(engine, ctx, lm, rm)[0][2]
                p = And(Cmp("=", lm.src, rm.src), Cmp("=", lm.dst, rm.dst))
                verdict = entails(ctx, p, enum_cap)
                assert (ok, check.claim, check.verdict) == (verdict is Verdict.VALID, p, verdict.value)
        decided = [ends for ok, ends in counted if ok]
        assert decided and len(decided) < len(counted)
        assert all(type(e) is IntLit for ends in decided for e in ends)

    def test_rebound_rank_reaches_entails(self, monkeypatch):
        monkeypatch.setattr(merge_module, "_by_membership", self.refuse)
        root = merged_context(4, [0, 1])
        engine = merge_module._Engine(root, 2, DEFAULT_ENUM_CAP, frozenset((0, 1)))
        rebound = self.contexts(engine, root, 4)[2]
        ok, check, _ = engine.avoidance(rebound, "left-skip-like", msg(2, 3))
        assert (ok, check.verdict) == (False, "Invalid")

    @staticmethod
    def refuse(ends, holds):
        raise AssertionError("decided by membership")

    @staticmethod
    def fold(instance):
        """Per merge_types call: the trace's (rule, premise, formula,
        verdict) rows, or the diagnostic that refused it."""
        types = dict(instance.local_types())
        accumulated, out = types[0], []
        for k in range(1, instance.n):
            try:
                accumulated, trace = merge_types(
                    merged_context(instance.n, range(k)), accumulated, types[k], k
                )
            except MergeFailure as failure:
                out.append(failure.diagnostic)
                break
            out.append([
                (s.rule, p.name, p.formula, p.verdict) for s in trace.steps for p in s.premises
            ])
        return out

    def test_traces_match_entails_only_merges(self, monkeypatch):
        rng = random.Random(5)
        instances = [gen_exchange(rng) for _ in range(2000)]
        with_membership = [self.fold(instance) for instance in instances]
        monkeypatch.setattr(merge_module, "_by_membership", lambda ends, holds: None)
        entails_only = [self.fold(instance) for instance in instances]
        assert with_membership == entails_only
        rows = [row for folds in with_membership for step in folds if isinstance(step, list)
                for row in step]
        assert {"endpoints-equal", "left-avoids-k", "right-avoids-merged"} <= {r[1] for r in rows}
        assert any(isinstance(step, protomerge.Diagnostic) for f in with_membership for step in f)
