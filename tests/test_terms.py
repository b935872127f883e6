"""The term kernels, the oracle's walks and the printers against
tests/reference_terms.py, the `match` versions they replaced: the same node
objects, the same values and the same errors, on generated terms and on
cases that pin the order of evaluation. A tooling check keeps `match`
statements out of the dispatched functions."""

import ast as pyast
import random
from pathlib import Path

import pytest

import protomerge
import reference_terms as ref
from generators import FREE_NAMES, gen_datatype, gen_index, gen_process, gen_prop, gen_protocol
from protomerge import ast, logic, oracle, syntax
from protomerge.ast import (
    BinOp,
    Cmp,
    Cond,
    Foreach,
    Integer,
    IntLit,
    Not,
    Refined,
    Skip,
    TrueProp,
    Var,
)

# The functions that dispatch on type(node), per module; a `match` statement
# anywhere in one of them, nested functions included, fails the guard below.
DISPATCHED = {
    ast: (
        "eval_index", "eval_prop", "index_vars", "prop_vars", "datatype_vars",
        "subst_index", "subst_prop", "subst_datatype", "subst_type",
    ),
    oracle: ("_free_names", "linearize", "cap_loops"),
    logic: ("dtype_equiv", "_element_equiv"),
    syntax: ("print_index", "print_proposition", "print_datatype", "_render_protocol", "print_process"),
}

# Where each kernel the tests call lives.
KERNELS = {name: module for module, names in DISPATCHED.items() for name in names}
KERNELS.update(loop_bounds=ast, print_protocol=syntax, compact_protocol=syntax, _instance=oracle)

SEEDS = range(4)


def outcome(fn, *args):
    """fn(*args), or the class and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the error is what is compared
        return (type(exc), str(exc))


def same(got, want):
    """The same result as the reference: one object where it is a node, equal
    values elsewhere (ints, bools, frozensets, strings, error class and text,
    lists of interned actions element by element)."""
    if isinstance(want, ast._Node):
        return got is want
    if type(want) is list:
        return type(got) is list and len(got) == len(want) and all(g is w for g, w in zip(got, want))
    return type(got) is type(want) and got == want


def check(name, *args):
    """The kernel `name` and its reference agree on args."""
    got, want = (
        # Each side gets its own copy of a dict argument: the oracle's walks fill a cache passed in.
        outcome(fn, *[dict(arg) if type(arg) is dict else arg for arg in args])
        for fn in (getattr(KERNELS[name], name), getattr(ref, name))
    )
    assert same(got, want), (name, args, got, want)


def envs(rng):
    """Environments over the generators' free names: some unbound, zeros common."""
    yield {}
    for _ in range(3):
        yield {name: rng.choice((0, 0, 1, -1, 2, 5)) for name in FREE_NAMES if rng.random() < 0.85}


def subs(rng):
    yield {}
    for _ in range(2):
        yield {name: gen_index(rng, 2) for name in FREE_NAMES + ("v", "i") if rng.random() < 0.5}


def world(rng):
    """A context of 3 ranks binding some free names to single values."""
    ctx = logic.initial_context(3)
    for name in FREE_NAMES:
        if rng.random() < 0.7:
            ctx = ctx.extend(name, Refined("x", Integer(), Cmp("=", Var("x"), IntLit(rng.randint(0, 3)))))
    return ctx


class TestAgainstTheMatchKernels:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_index_terms(self, seed):
        rng = random.Random(seed)
        for _ in range(400):
            t = gen_index(rng, rng.randint(0, 5))
            for env in envs(rng):
                check("eval_index", env, t)
            check("index_vars", t)
            for sub in subs(rng):
                check("subst_index", t, sub)
            check("print_index", t, rng.choice((0, 3, 5, 7)))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_propositions(self, seed):
        rng = random.Random(seed)
        for _ in range(400):
            p = gen_prop(rng, rng.randint(0, 5))
            for env in envs(rng):
                check("eval_prop", env, p)
            check("prop_vars", p)
            for sub in subs(rng):
                check("subst_prop", p, sub)
            check("print_proposition", p, rng.choice((0, 2, 4)))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_datatypes(self, seed):
        rng = random.Random(seed)
        for _ in range(300):
            d, e = gen_datatype(rng, rng.randint(0, 4)), gen_datatype(rng, rng.randint(0, 4))
            check("datatype_vars", d)
            check("print_datatype", d)
            for sub in subs(rng):
                check("subst_datatype", d, sub)
            ctx = world(rng)
            for a, b in ((d, e), (d, d), (e, d)):
                check("_element_equiv", ctx, a, b)
                check("dtype_equiv", ctx, a, b)
            check("_instance", d, {"a": 1, "v": 2}, {})

    def test_datatype_pairs_reach_every_case(self):
        """Refined against Refined, one Refined side, and the bare bases."""
        ctx = logic.initial_context(3)
        refined = [Refined(b, base, p) for b in ("v", "w") for base in (Integer(), ast.Float())
                   for p in (TrueProp(), Cmp("<", Var(b), IntLit(2)), Cmp("=", Var(b), Var("size")))]
        plain = [Integer(), ast.Float(), ast.Array(Integer(), IntLit(2)), Var("size"), 5]
        for a in refined + plain:
            for b in refined + plain:
                check("_element_equiv", ctx, a, b)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_protocols(self, seed):
        rng = random.Random(seed)
        for _ in range(250):
            t = gen_protocol(rng, rng.randint(0, 5))
            for sub in subs(rng):
                check("subst_type", t, sub)
            check("_free_names", t, 0, {})
            check("print_protocol", t, rng.randint(0, 2))
            check("compact_protocol", t)
            ctx = world(rng)
            check("cap_loops", ctx, t, rng.randint(1, 3))
            for rank in range(3):
                check("linearize", ctx, t, rank)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_processes(self, seed):
        rng = random.Random(seed)
        for _ in range(250):
            check("print_process", gen_process(rng, rng.randint(0, 5)), rng.randint(0, 2))

    def test_shipped_programs(self):
        """The bundled programs and their local types at n=4."""
        programs = sorted((Path(protomerge.__file__).parent / "programs").glob("*.proc"))
        assert programs
        for path in programs:
            p = protomerge.parse_process(path.read_text(), path.name)
            check("print_process", p, 0)
            ctx = logic.initial_context(4)
            locals_ = [(r, protomerge.extract_local_type(ctx, p, r, 4)) for r in range(4)]
            for _, t in locals_:
                check("compact_protocol", t)
                check("_free_names", t, 0, {})
                check("subst_type", t, {"size": IntLit(4), "rank": IntLit(1)})
            for rank in range(4):
                check("linearize", ctx, locals_[rank][1], rank)


a, b, zero = Var("a"), Var("b"), IntLit(0)


class TestEvaluationOrder:
    """Where two errors are possible, the one the match kernels raised wins."""

    @pytest.mark.parametrize(
        "t, error",
        [
            # Both operands fail: the left one is evaluated first.
            (BinOp("+", a, b), (ast.UnboundVariable, "a")),
            (BinOp("-", b, a), (ast.UnboundVariable, "b")),
            (BinOp("*", BinOp("/", IntLit(1), zero), a), (ast.DivisionByZero, "1 / 0")),
            # A division by zero next to an unbound name.
            (BinOp("/", a, zero), (ast.UnboundVariable, "a")),
            (BinOp("+", BinOp("/", IntLit(7), zero), a), (ast.DivisionByZero, "7 / 0")),
            (BinOp("/", IntLit(2), BinOp("-", a, a)), (ast.UnboundVariable, "a")),
            # A Cond's test is evaluated before its branch.
            (Cond(Cmp("=", a, zero), b, b), (ast.UnboundVariable, "a")),
            (Cond(Cmp("<", BinOp("/", IntLit(3), zero), zero), b, b), (ast.DivisionByZero, "3 / 0")),
            (Cond(Not(TrueProp()), b, BinOp("/", IntLit(4), zero)), (ast.DivisionByZero, "4 / 0")),
        ],
    )
    def test_the_first_error_wins(self, t, error):
        assert outcome(ast.eval_index, {}, t) == outcome(ref.eval_index, {}, t) == error
        p = Cmp("=", t, b)
        assert outcome(ast.eval_prop, {}, p) == outcome(ref.eval_prop, {}, p) == error

    def test_connectives_short_circuit(self):
        fails = Cmp("=", a, zero)
        for p in (ast.And(Not(TrueProp()), fails), ast.Or(TrueProp(), fails), Not(ast.Or(TrueProp(), fails))):
            assert outcome(ast.eval_prop, {}, p) == outcome(ref.eval_prop, {}, p)
        assert outcome(ast.eval_prop, {}, ast.And(fails, TrueProp())) == (ast.UnboundVariable, "a")

    def test_loop_bounds_name_the_first_failing_bound(self):
        loop = Foreach("i", BinOp("/", IntLit(1), zero), a, Skip())
        assert outcome(ast.loop_bounds, {}, loop) == outcome(ref.loop_bounds, {}, loop)
        assert outcome(ast.loop_bounds, {}, loop)[1] == "foreach bounds are not constant: 1 / 0"

    def test_nesting_is_refused_before_a_bad_bound(self):
        """subst_type walks a loop's body before its bounds, so a body nested
        too deep is refused first; _free_names reads the bounds first."""
        deep = Skip()
        for _ in range(ast.MAX_BLOCK_DEPTH + 1):
            deep = Foreach("i", IntLit(0), IntLit(1), deep)
        bad = Foreach("i", "not a term", IntLit(1), deep)
        check("subst_type", bad, {"a": zero})
        check("_free_names", bad, 0, {})
        assert outcome(ast.subst_type, bad, {})[0] is ast.NestingTooDeep
        assert outcome(oracle._free_names, bad, 0, {}) == (TypeError, "not an index term: 'not a term'")


NOT_NODES = [5, None, "a", Skip(), IntLit(1), TrueProp(), Integer()]


class TestNotANode:
    """A value of the wrong kind raises the TypeError the match kernels raised, word for word."""

    @pytest.mark.parametrize("value", NOT_NODES, ids=repr)
    def test_type_errors(self, value):
        for name, args in [
            ("eval_index", ({}, value)),
            ("eval_prop", ({}, value)),
            ("index_vars", (value,)),
            ("prop_vars", (value,)),
            ("datatype_vars", (value,)),
            ("subst_index", (value, {})),
            ("subst_prop", (value, {})),
            ("subst_datatype", (value, {})),
            ("subst_type", (value, {})),
            ("print_index", (value,)),
            ("print_proposition", (value,)),
            ("print_datatype", (value,)),
            ("compact_protocol", (value,)),
            ("print_process", (value,)),
            ("linearize", (logic.initial_context(2), value, 0)),
            ("cap_loops", (logic.initial_context(2), value, 1)),
            ("_free_names", (value, 0, {})),
        ]:
            check(name, *args)

    def test_the_messages_name_the_value(self):
        assert outcome(ast.eval_index, {}, 5) == (TypeError, "not an index term: 5")
        assert outcome(ast.eval_prop, {}, Skip()) == (TypeError, "not a proposition: Skip()")
        assert outcome(oracle.linearize, logic.initial_context(2), IntLit(1), 0) == (
            TypeError, "unexpected protocol node IntLit"
        )


def _functions(module) -> dict[str, pyast.FunctionDef]:
    tree = pyast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    return {node.name: node for node in tree.body if isinstance(node, pyast.FunctionDef)}


@pytest.mark.parametrize("module", list(DISPATCHED), ids=lambda m: m.__name__)
def test_dispatched_functions_hold_no_match(module):
    """A class pattern costs about 0.5 µs per case tried on a node class
    (README, ast.py); a `match` coming back into one of these walks shows in
    no output, only in the time."""
    functions = _functions(module)
    for name in DISPATCHED[module]:
        assert name in functions, f"{module.__name__}.{name} is gone: update DISPATCHED"
        found = [n.lineno for n in pyast.walk(functions[name]) if isinstance(n, pyast.Match)]
        assert not found, f"{module.__name__}.{name} has a match statement at line {found[0]}"
