"""Core AST behaviour: interning, evaluation, substitution, contexts,
diagnostics."""

import copy
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError
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
    FiniteSet,
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
    merged_context,
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
from protomerge import ast, extract, logic, merge, oracle, syntax
from protomerge.ast import (
    Allreduce,
    AllreduceStmt,
    For,
    If,
    PSeq,
    Recv,
    ReduceOp,
    Send,
    Seq,
    Skip,
    build_seq,
    concat,
    map_spine,
    spine,
)


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

    @pytest.mark.parametrize("int_first", [True, False])
    def test_bool_is_not_a_set_value(self, int_first):
        if int_first:
            assert FiniteSet((1,)).values == (1,)
        with pytest.raises(TypeError):
            FiniteSet((True,))
        with pytest.raises(TypeError):
            FiniteSet((0, False))
        assert type(FiniteSet((1,)).values[0]) is int

    def test_bad_set_raises_on_every_build(self):
        for _ in range(2):
            for values in ((), (2, 1), (1, 1)):
                with pytest.raises(ValueError):
                    FiniteSet(values)

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

    def test_long_chains_copy_and_pickle_without_recursion(self):
        # A chain nested through any one field of its own class (a sequence's
        # second, an array's element, a left-nested sum's left operand) is
        # taken flat, as repr walks it.
        seq = build_seq([Message(IntLit(i % 2), IntLit(1 - i % 2), Float()) for i in range(5000)])
        pseq = parse_process(";\n".join(["send to 1 float; recv from 1 float"] * 2500))
        payload = syntax.parse_datatype("float" + "[1]" * 3000)
        total = IntLit(0)
        for i in range(3000):
            total = BinOp("+", total, IntLit(i))
        assert repr(payload) == "Array(elem=" * 3000 + "Float()" + ", length=IntLit(value=1))" * 3000
        assert repr(total) == "BinOp(op='+', left=" * 3000 + "IntLit(value=0)" + "".join(
            f", right=IntLit(value={i}))" for i in range(3000)
        )
        for chain in (seq, pseq, payload, total):
            assert copy.deepcopy(chain) is chain
            assert pickle.loads(pickle.dumps(chain)) is chain
        step = protomerge.MergeStep("seq-seq", seq, seq, ())
        assert copy.deepcopy(step) == step == pickle.loads(pickle.dumps(step))

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


F, I, V, T = Float(), IntLit(0), Var("i"), TrueProp()

# One node of each interned class: the node, its fields in order, its repr.
NODES = [
    (I, ("value",), "IntLit(value=0)"),
    (V, ("name",), "Var(name='i')"),
    (
        BinOp("+", V, I),
        ("op", "left", "right"),
        "BinOp(op='+', left=Var(name='i'), right=IntLit(value=0))",
    ),
    (
        Cond(T, I, V),
        ("test", "then", "orelse"),
        "Cond(test=TrueProp(), then=IntLit(value=0), orelse=Var(name='i'))",
    ),
    (T, (), "TrueProp()"),
    (Cmp("<", V, I), ("op", "left", "right"), "Cmp(op='<', left=Var(name='i'), right=IntLit(value=0))"),
    (And(T, T), ("left", "right"), "And(left=TrueProp(), right=TrueProp())"),
    (Or(T, T), ("left", "right"), "Or(left=TrueProp(), right=TrueProp())"),
    (Not(T), ("prop",), "Not(prop=TrueProp())"),
    (Integer(), (), "Integer()"),
    (F, (), "Float()"),
    (Array(F, V), ("elem", "length"), "Array(elem=Float(), length=Var(name='i'))"),
    (
        Refined("x", Integer(), T),
        ("binder", "base", "pred"),
        "Refined(binder='x', base=Integer(), pred=TrueProp())",
    ),
    (Skip(), (), "Skip()"),
    (
        Message(I, V, F),
        ("src", "dst", "payload"),
        "Message(src=IntLit(value=0), dst=Var(name='i'), payload=Float())",
    ),
    (
        Allreduce(ReduceOp.MIN, "_", F, Skip()),
        ("op", "binder", "payload", "cont"),
        "Allreduce(op=<ReduceOp.MIN: 'min'>, binder='_', payload=Float(), cont=Skip())",
    ),
    (
        Foreach("i", I, V, Skip()),
        ("binder", "lo", "hi", "body"),
        "Foreach(binder='i', lo=IntLit(value=0), hi=Var(name='i'), body=Skip())",
    ),
    (Seq(Skip(), Skip()), ("first", "second"), "Seq(first=Skip(), second=Skip())"),
    (PSkip(), (), "PSkip()"),
    (Send(V, F), ("to", "payload"), "Send(to=Var(name='i'), payload=Float())"),
    (Recv(I, F), ("src", "payload"), "Recv(src=IntLit(value=0), payload=Float())"),
    (
        AllreduceStmt(ReduceOp.SUM, F),
        ("op", "payload"),
        "AllreduceStmt(op=<ReduceOp.SUM: 'sum'>, payload=Float())",
    ),
    (
        For("i", I, V, PSkip()),
        ("binder", "lo", "hi", "body"),
        "For(binder='i', lo=IntLit(value=0), hi=Var(name='i'), body=PSkip())",
    ),
    (
        If(T, PSkip(), PSkip()),
        ("test", "then", "orelse"),
        "If(test=TrueProp(), then=PSkip(), orelse=PSkip())",
    ),
    (PSeq(PSkip(), PSkip()), ("first", "second"), "PSeq(first=PSkip(), second=PSkip())"),
    (FiniteSet((0, 2)), ("values",), "FiniteSet(values=(0, 2))"),
    (
        TypingContext((("n", Integer()),)),
        ("entries",),
        "TypingContext(entries=(('n', Integer()),))",
    ),
    (logic.Interval(0, 2), ("lo", "hi"), "Interval(lo=0, hi=2)"),
    (logic.Unbounded(), (), "Unbounded()"),
    (oracle.SendTo(1, F), ("peer", "payload"), "SendTo(peer=1, payload=Float())"),
    (oracle.RecvFrom(1, F), ("peer", "payload"), "RecvFrom(peer=1, payload=Float())"),
    (
        oracle.Collective(ReduceOp.SUM, F),
        ("op", "payload"),
        "Collective(op=<ReduceOp.SUM: 'sum'>, payload=Float())",
    ),
    (
        oracle.MessageEvent(0, 1, F),
        ("src", "dst", "payload"),
        "MessageEvent(src=0, dst=1, payload=Float())",
    ),
    (
        oracle.CollectiveEvent(ReduceOp.SUM, F),
        ("op", "payload"),
        "CollectiveEvent(op=<ReduceOp.SUM: 'sum'>, payload=Float())",
    ),
    (
        merge.PremiseCheck("op-equal", "sum = sum", "equal"),
        ("name", "claim", "verdict"),
        "PremiseCheck(name='op-equal', claim='sum = sum', verdict='equal')",
    ),
]

# One value of each record class (equal by class and fields, not interned),
# in the same form. Deadlocked and Mismatch share their field's value, as
# SendTo and RecvFrom do above, so that equality is seen to go by class.
STEP = merge.MergeStep("skip-skip", Skip(), Skip(), (merge.PremiseCheck("op-equal", "sum = sum", "equal"),))
# A trace holds its derivation tree and goes by the steps it reads off it.
SUM = Allreduce(ReduceOp.SUM, "_", F, Skip())
TRACE = merge.merge_types(merged_context(2, [0]), SUM, SUM, 1)[1]
RECORDS = [
    (
        STEP,
        ("rule", "left_type", "right_type", "premises"),
        "MergeStep(rule='skip-skip', left_type=Skip(), right_type=Skip(), premises="
        "(PremiseCheck(name='op-equal', claim='sum = sum', verdict='equal'),))",
    ),
    (
        TRACE,
        ("tree", "k"),
        f"MergeTrace(steps=(MergeStep(rule='allred-allred', left_type={SUM!r}, right_type={SUM!r}, "
        "premises=(PremiseCheck(name='op-equal', claim='sum = sum', verdict='equal'), "
        "PremiseCheck(name='payload-equivalent', claim=(Float(), Float()), verdict='equivalent'))), "
        "MergeStep(rule='skip-skip', left_type=Skip(), right_type=Skip(), premises=())))",
    ),
    (
        oracle.Completed((oracle.MessageEvent(0, 1, F),)),
        ("trace",),
        "Completed(trace=(MessageEvent(src=0, dst=1, payload=Float()),))",
    ),
    (oracle.Deadlocked("x"), ("stuck",), "Deadlocked(stuck='x')"),
    (oracle.Mismatch("x"), ("detail",), "Mismatch(detail='x')"),
    (
        RuleAttempt("msg-msg-eq", "payloads differ"),
        ("rule", "reason"),
        "RuleAttempt(rule='msg-msg-eq', failed_premise='payloads differ')",
    ),
    (
        Diagnostic(DiagnosticKind.DATATYPE_MISMATCH, "root", (RuleAttempt("msg-msg-eq", "payloads differ"),)),
        ("kind", "location", "rule_trace"),
        "Diagnostic(kind=<DiagnosticKind.DATATYPE_MISMATCH: 'DatatypeMismatch'>, location='root', "
        "rule_trace=(RuleAttempt(rule='msg-msg-eq', failed_premise='payloads differ'),))",
    ),
    (syntax.SourceSpan("a.proc", 1, 2), ("file", "line", "col"), "SourceSpan(file='a.proc', line=1, col=2)"),
]


def _value_classes() -> set[type]:
    """Every class below ast._Record, other than the base _Node."""
    found, todo = set(), [ast._Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            found.add(cls)
            todo.append(cls)
    return found - {ast._Node}


class TestNodeProtocol:
    def test_every_node_class_is_covered(self):
        tabled = [type(value) for value, _, _ in NODES + RECORDS]
        assert len(tabled) == len(set(tabled))
        assert set(tabled) == _value_classes()
        assert {type(node) for node, _, _ in NODES} == {c for c in tabled if issubclass(c, ast._Node)}

    def test_no_value_class_has_a_subclass(self):
        """The walks test `type(x) is C` where they once matched `case C(...)`,
        which also took C's subclasses: with none, the two accept the same nodes."""
        assert {cls for cls in _value_classes() if cls.__subclasses__()} == set()

    @pytest.mark.parametrize(
        "node, fields, text", NODES + RECORDS, ids=[type(n).__name__ for n, _, _ in NODES + RECORDS]
    )
    def test_slots_match_args_immutability_and_repr(self, node, fields, text):
        cls = type(node)
        assert not hasattr(node, "__dict__")
        assert cls.__match_args__ == fields
        values = tuple(getattr(node, name) for name in fields)
        rebuilt = [cls(*values), copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))]
        for other in rebuilt:
            assert type(other) is cls and other == node and hash(other) == hash(node)
            if isinstance(node, ast._Node):
                assert other is node
        # Equality goes by class: no value of another class, nor the tuple
        # of the same field values, equals this one.
        assert all(node != other for other, _, _ in NODES + RECORDS if type(other) is not cls)
        assert node != values
        assert repr(node) == text
        with pytest.raises(FrozenInstanceError, match="cannot assign to field 'extra'"):
            node.extra = 1
        for name in fields:
            with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                setattr(node, name, getattr(node, name))
            with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
                delattr(node, name)
        assert repr(node) == text


def _recursive_repr(value):
    """A record's or a tuple's repr as a recursive walk gives it (a trace's
    over its steps); any other value's repr."""
    if type(value) is tuple:
        return "(" + ", ".join(map(_recursive_repr, value)) + ("," if len(value) == 1 else "") + ")"
    if type(value) is merge.MergeTrace:
        return f"MergeTrace(steps={_recursive_repr(value.steps)})"
    if not isinstance(value, ast._Record) or type(value) is RuleAttempt:
        return repr(value)
    fields = ", ".join(f"{name}={_recursive_repr(getattr(value, name))}" for name in value.__slots__)
    return f"{type(value).__qualname__}({fields})"


class TestRepr:
    """A record's repr walks a chain of its own class through its last field
    (a right-nested sequence) in a loop, with the text a recursive walk
    gives."""

    def test_short_trees_repr_as_a_recursive_walk_does(self):
        values = [value for value, _, _ in NODES + RECORDS] + [
            parse_protocol("message 0 1 float; message 1 0 integer[3]; foreach i: 0..2 { message 0 i float }"),
            Seq(Seq(Skip(), Message(IntLit(0), IntLit(1), Float())), Skip()),
            parse_process("skip; if rank = 0 { send to 1 float; recv from 1 float } else { skip }; skip"),
            And(Cmp("=", Var("a"), IntLit(1)), And(TrueProp(), Not(TrueProp()))),
            subst_type(parse_protocol("message 0 1 float; message 1 0 float"), {}),
        ]
        for value in values:
            assert repr(value) == _recursive_repr(value), value

    def test_a_long_sequence_reprs_without_recursion(self):
        message = Message(IntLit(0), IntLit(1), Float())
        text = repr(build_seq([message] * 5000))
        assert text == "Seq(first=" + ("Message(src=IntLit(value=0), dst=IntLit(value=1), payload=Float()), "
                                      "second=Seq(first=") * 4998 + repr(message) + ", second=" + repr(message) + ")" * 4999


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    # Importing dataclasses (and through it inspect, dis and tokenize) took
    # about a quarter of a fresh `import protomerge`.
    src = str(Path(protomerge.__file__).parents[1])
    script = "import sys, protomerge; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env={"PYTHONPATH": src}, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_the_package_exports_every_module_s_public_names():
    modules = (ast, extract, logic, merge, oracle, syntax)
    assert sorted(protomerge.__all__) == sorted(name for m in modules for name in m.__all__)
    for m in modules:
        for name in m.__all__:
            assert getattr(protomerge, name) is getattr(m, name), f"{m.__name__}.{name}"


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

    def test_map_spine_builds_nothing_when_nothing_changes(self, monkeypatch):
        t = Seq(self.A, Seq(Seq(self.B, self.C), Skip()))
        built = []
        real = protomerge.ast._Node.__new__

        def counting(cls, *args):
            built.append(cls)
            return real(cls, *args)

        monkeypatch.setattr(protomerge.ast._Node, "__new__", counting)
        assert map_spine(t, lambda x: x) is t
        # Only the Seq nodes above a changed leaf are looked up again.
        out = map_spine(t, lambda x: self.A if x is self.C else x)
        assert built == [Seq] * 3 and out is Seq(self.A, Seq(Seq(self.B, self.A), Skip()))

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

    def test_equal_contexts_are_one_object(self):
        assert merged_context(5, [3, 1]) is merged_context(5, (1, 3, 1))
        ctx = initial_context(4)
        loop = Refined("y", Integer(), Cmp("<=", Var("y"), IntLit(3)))
        assert ctx.extend("i", loop) is ctx.extend("i", loop)
        assert ctx.extend("i", loop).extend("i", Integer()) is ctx.extend("i", Integer())
        assert ctx.extend("i", loop) is not ctx.extend("j", loop)

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
