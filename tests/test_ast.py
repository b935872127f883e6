"""Core AST behaviour: interning, evaluation, substitution, contexts,
diagnostics."""

import copy
import pickle
from pathlib import Path

import pytest

import protomerge
from protomerge import (
    And,
    Array,
    BinOp,
    Cmp,
    Cond,
    Diagnostic,
    DiagnosticKind,
    DivisionByZero,
    Float,
    Foreach,
    IntLit,
    Integer,
    Message,
    Not,
    Or,
    PSkip,
    Refined,
    RuleAttempt,
    TrueProp,
    TypingContext,
    UnboundVariable,
    Var,
    cap_loops,
    compact_protocol,
    datatype_vars,
    eval_index,
    eval_prop,
    extract_local_type,
    index_vars,
    initial_context,
    is_closed,
    linearize,
    merge_all,
    parse_process,
    parse_protocol,
    print_index,
    prop_vars,
    simulate,
    subst_index,
    subst_prop,
    subst_type,
    trunc_div,
)
from protomerge import ast
from protomerge.ast import Seq, Skip, build_seq, concat, map_spine, spine


class TestInterning:
    def test_structurally_equal_trees_are_one_object(self):
        s = "message 0 1 {x: integer | x >= 0}[4]; foreach i: 0..size - 1 { message i 0 float }"
        assert parse_protocol(s) is parse_protocol(s)
        assert Skip() is Skip()
        assert BinOp("+", Var("i"), IntLit(1)) is BinOp("+", Var("i"), IntLit(1))

    def test_classes_with_the_same_fields_stay_apart(self):
        assert Skip() is not PSkip()
        assert Skip() != PSkip()
        assert And(TrueProp(), TrueProp()) != Or(TrueProp(), TrueProp())

    def test_bad_operator_raises_on_every_build(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="unknown index operator"):
                BinOp("%", IntLit(1), IntLit(2))
            with pytest.raises(ValueError, match="unknown comparison"):
                Cmp("~", IntLit(1), IntLit(2))

    @pytest.mark.parametrize("int_first", [True, False])
    def test_bool_is_not_an_int_literal(self, int_first):
        # True == 1 and hash(True) == hash(1), so a bool must not reach the
        # table, in either order of building.
        if int_first:
            assert IntLit(1).value == 1
        with pytest.raises(TypeError):
            IntLit(True)
        with pytest.raises(TypeError):
            IntLit(1.0)
        assert type(IntLit(1).value) is int
        assert print_index(IntLit(1)) == "1"
        assert compact_protocol(parse_protocol("message 0 1 float")) == "message 0 1 float"

    def test_construction_is_positional_with_every_field(self):
        with pytest.raises(TypeError):
            Message(IntLit(0), IntLit(1))
        with pytest.raises(TypeError):
            Var(name="x")

    def test_copy_and_pickle_give_back_the_interned_node(self):
        t = parse_protocol("foreach i: 1..3 { message 0 i {v: float | v > 0} }")
        assert copy.copy(t) is t
        assert copy.deepcopy(t) is t
        assert pickle.loads(pickle.dumps(t)) is t

    def test_second_pass_over_the_same_inputs_adds_no_entries(self):
        source = (Path(protomerge.__file__).parent / "programs" / "nbody.proc").read_text()

        def run_once():
            n = 4
            program = parse_process(source)
            ctx = initial_context(n)
            types = [(r, extract_local_type(ctx, program, r, n)) for r in range(n)]
            merge_all(n, types)
            simulate([linearize(ctx, cap_loops(ctx, t, 2), r) for r, t in types], n, ctx)

        run_once()
        before = len(ast._TABLE)
        run_once()
        assert len(ast._TABLE) == before

    def test_long_chains_compare_and_hash_without_recursion(self):
        # Two chains built apart, far deeper than the interpreter's stack.
        def chain():
            return build_seq([Message(IntLit(i % 3), IntLit((i + 1) % 3), Float()) for i in range(10**5)])

        left, right = chain(), chain()
        assert left == right
        assert hash(left) == hash(right)
        assert {left: "found"}[right] == "found"


class TestTruncDiv:
    def test_truncates_toward_zero_on_negatives(self):
        assert trunc_div(7, 2) == 3
        assert trunc_div(-7, 2) == -3
        assert trunc_div(7, -2) == -3
        assert trunc_div(-7, -2) == 3

    def test_zero_divisor_raises(self):
        with pytest.raises(DivisionByZero):
            trunc_div(1, 0)


class TestEvalIndex:
    def test_arithmetic(self):
        t = BinOp("*", BinOp("/", IntLit(1000000), IntLit(3)), IntLit(4))
        assert eval_index({}, t) == 1333332

    def test_division_truncates_toward_zero(self):
        assert eval_index({}, BinOp("/", IntLit(-7), IntLit(2))) == -3

    def test_conditional_takes_branch_by_test(self):
        t = Cond(Cmp("=", Var("i"), IntLit(2)), IntLit(0), BinOp("+", Var("i"), IntLit(1)))
        assert eval_index({"i": 2}, t) == 0
        assert eval_index({"i": 1}, t) == 2

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            eval_index({}, Var("rank"))


class TestEvalProp:
    def test_comparison_chain_ops(self):
        env = {"x": 3}
        assert eval_prop(env, Cmp("<=", IntLit(1), Var("x")))
        assert not eval_prop(env, Cmp(">", IntLit(1), Var("x")))

    def test_connectives(self):
        t, f = Cmp("=", IntLit(0), IntLit(0)), Cmp("=", IntLit(0), IntLit(1))
        assert eval_prop({}, And(t, Or(f, t)))
        assert eval_prop({}, Not(f))
        assert eval_prop({}, TrueProp())


class TestVarsAndClosedness:
    def test_index_vars(self):
        t = BinOp("+", Var("rank"), Cond(Cmp("<", Var("i"), IntLit(2)), Var("n"), IntLit(0)))
        assert index_vars(t) == frozenset({"rank", "i", "n"})

    def test_prop_vars(self):
        p = Or(Cmp("=", Var("a"), IntLit(1)), Not(Cmp("<", Var("b"), Var("a"))))
        assert prop_vars(p) == frozenset({"a", "b"})

    def test_datatype_vars_reach_through_refinements_and_arrays(self):
        d = Array(Refined("v", Integer(), Cmp("<", Var("v"), Var("n"))), Var("m"))
        assert datatype_vars(d) == frozenset({"n", "m"})

    def test_refinement_binder_is_not_free(self):
        d = Refined("v", Integer(), Cmp("<", Var("v"), IntLit(3)))
        assert datatype_vars(d) == frozenset()

    def test_is_closed(self):
        assert is_closed(BinOp("+", IntLit(1), IntLit(2)))
        assert not is_closed(Var("size"))


class TestSubstitution:
    def test_subst_index(self):
        t = BinOp("+", Var("rank"), IntLit(1))
        assert subst_index(t, {"rank": IntLit(2)}) == BinOp("+", IntLit(2), IntLit(1))

    def test_subst_prop(self):
        p = Cmp("=", Var("rank"), IntLit(0))
        assert subst_prop(p, {"rank": IntLit(0)}) == Cmp("=", IntLit(0), IntLit(0))

    def test_binder_shadowing_in_types(self):
        body = Message(Var("i"), Var("k"), Float())
        t = Foreach("i", IntLit(1), Var("i"), body)
        out = subst_type(t, {"i": IntLit(9), "k": IntLit(2)})
        # The loop bound is open at the binding site; the body's binder
        # occurrence is shadowed, the free k is not.
        assert out == Foreach("i", IntLit(1), IntLit(9), Message(Var("i"), IntLit(2), Float()))


class TestSequenceSpine:
    A = Message(IntLit(0), IntLit(1), Float())
    B = Message(IntLit(1), IntLit(0), Float())
    C = Message(Var("i"), IntLit(2), Float())

    def test_spine_flattens_both_nestings_and_keeps_skips(self):
        t = Seq(Seq(self.A, Skip()), Seq(self.B, self.C))
        assert spine(t) == [self.A, Skip(), self.B, self.C]
        assert spine(self.A) == [self.A]

    def test_substitution_keeps_the_tree_shape(self):
        t = Seq(Seq(self.A, self.C), Skip())
        out = subst_type(t, {"i": IntLit(1)})
        assert out == Seq(Seq(self.A, Message(IntLit(1), IntLit(2), Float())), Skip())

    def test_map_spine_visits_items_left_to_right(self):
        seen = []
        t = Seq(self.A, Seq(Seq(self.B, self.C), Skip()))
        assert map_spine(t, lambda x: seen.append(x) or x) == t
        assert seen == spine(t)

    def test_concat_of_normal_forms(self):
        assert concat(Seq(self.A, self.B), self.C) == Seq(self.A, Seq(self.B, self.C))
        assert concat(Skip(), self.A) == self.A
        assert concat(self.A, Skip()) == self.A
        assert build_seq([]) == Skip()


class TestTypingContext:
    def test_lookup_and_names(self):
        ctx = TypingContext(()).extend("size", Integer()).extend("rank", Integer())
        assert ctx.lookup("size") == Integer()
        assert ctx.lookup("missing") is None
        assert ctx.names() == ("size", "rank")

    def test_extend_shadows_by_dropping_and_appending(self):
        ctx = TypingContext(()).extend("x", Integer()).extend("y", Float()).extend("x", Float())
        assert ctx.names() == ("y", "x")
        assert ctx.lookup("x") == Float()


class TestDiagnostic:
    def test_requires_rule_trace_for_merge_kinds(self):
        for kind in DiagnosticKind:
            with pytest.raises(ValueError):
                Diagnostic(kind, "root", ())

    def test_carries_attempts(self):
        attempt = RuleAttempt("msg-msg-eq", "payloads differ")
        d = Diagnostic(DiagnosticKind.DATATYPE_MISMATCH, "seq.first", (attempt,))
        assert d.rule_trace[0].rule == "msg-msg-eq"
        assert d.rule_trace[0].failed_premise == "payloads differ"

    def test_reason_is_rendered_when_read_and_compared_as_read(self):
        rendered = []

        def reason():
            rendered.append(True)
            return "payloads differ"

        lazy, text = RuleAttempt("msg-msg-eq", reason), RuleAttempt("msg-msg-eq", "payloads differ")
        assert not rendered
        assert lazy.failed_premise == "payloads differ"
        assert lazy == text and hash(lazy) == hash(text) and repr(lazy) == repr(text)
        assert lazy != RuleAttempt("msg-msg-eq", "endpoints differ")
        kind = DiagnosticKind.DATATYPE_MISMATCH
        assert Diagnostic(kind, "root", (lazy,)) == Diagnostic(kind, "root", (text,))
