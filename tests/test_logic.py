"""Entailment engine, domains, datatype equivalence, rank contexts."""

import random
from collections import Counter

import pytest

import protomerge.ast as ast_module
import protomerge.logic as logic_module
from protomerge import (
    And,
    Array,
    BinOp,
    Cmp,
    FiniteSet,
    Float,
    IntLit,
    Integer,
    Interval,
    InvalidRankSet,
    NotIntegerRefined,
    Or,
    Refined,
    TrueProp,
    TypingContext,
    Unbounded,
    UndecidableEquivalence,
    Var,
    Verdict,
    domain_of,
    dtype_equiv,
    entails,
    initial_context,
    merged_context,
    singleton_env,
)
from protomerge.logic import ENUM_BUDGET
from protomerge.syntax import parse_datatype

from generators import _gen_query, brute_force_entails, gen_entail_case, or_chain_context


def ctx_with_rank(n, *ranks):
    return merged_context(n, ranks)


@pytest.fixture
def budget(request, monkeypatch):
    """Run a test with logic.ENUM_BUDGET set to the parameter."""
    monkeypatch.setattr(logic_module, "ENUM_BUDGET", request.param)
    return request.param


class TestEntails:
    def test_hull_proves_inequality(self):
        ctx = ctx_with_rank(3, 0)
        assert entails(ctx, Cmp("<", Var("rank"), Var("size"))) is Verdict.VALID

    def test_hull_refutes_inequality(self):
        ctx = ctx_with_rank(3, 0)
        assert entails(ctx, Cmp(">", Var("rank"), Var("size"))) is Verdict.INVALID

    def test_reflexive_equality_without_division(self):
        ctx = TypingContext(()).extend("n", Integer())
        t = BinOp("*", Var("n"), IntLit(4))
        assert entails(ctx, Cmp("=", t, t)) is Verdict.VALID

    def test_closed_division_is_exact(self):
        ctx = initial_context(3)
        lhs = BinOp("*", BinOp("/", IntLit(1000000), Var("size")), IntLit(4))
        rhs = BinOp("*", BinOp("/", IntLit(1000000), IntLit(3)), IntLit(4))
        assert entails(ctx, Cmp("=", lhs, rhs)) is Verdict.VALID

    def test_enumeration_settles_disjunction(self):
        ctx = ctx_with_rank(3, 0, 1, 2)
        p = Or(
            Cmp("=", Var("rank"), IntLit(0)),
            Or(Cmp("=", Var("rank"), IntLit(1)), Cmp("=", Var("rank"), IntLit(2))),
        )
        assert entails(ctx, p) is Verdict.VALID

    def test_enumeration_finds_counterexample(self):
        ctx = ctx_with_rank(3, 0, 1)
        assert entails(ctx, Cmp("!=", Var("rank"), IntLit(1))) is Verdict.INVALID

    def test_unbounded_variable_is_undecidable(self):
        ctx = TypingContext(()).extend("n", Integer())
        p = Cmp("=", BinOp("/", Var("n"), IntLit(2)), IntLit(0))
        assert entails(ctx, p) is Verdict.UNDECIDABLE

    def test_division_by_zero_candidate_is_undecidable(self):
        pred = Or(Cmp("=", Var("x"), IntLit(0)), Cmp("=", Var("x"), IntLit(1)))
        ctx = TypingContext(()).extend("n", Refined("x", Integer(), pred))
        p = Cmp("=", BinOp("/", IntLit(4), Var("n")), IntLit(4))
        assert entails(ctx, p) is Verdict.UNDECIDABLE

    def test_budget_exhaustion_is_undecidable(self, monkeypatch):
        bounds = And(Cmp("<=", IntLit(0), Var("x")), Cmp("<=", Var("x"), IntLit(999)))
        ctx = (
            TypingContext(())
            .extend("a", Refined("x", Integer(), bounds))
            .extend("b", Refined("x", Integer(), bounds))
        )
        p = Cmp("=", BinOp("/", Var("a"), IntLit(7)), BinOp("/", Var("b"), IntLit(7)))
        monkeypatch.setattr(logic_module, "ENUM_BUDGET", 50)
        assert entails(ctx, p) is Verdict.UNDECIDABLE

    def test_budget_is_not_a_parameter(self):
        ctx = merged_context(2, [0])
        a = parse_datatype("{x: integer | 0 <= x and x < 2}")
        with pytest.raises(TypeError):
            entails(ctx, Cmp("<", Var("rank"), Var("size")), 5)
        with pytest.raises(TypeError):
            dtype_equiv(ctx, a, a, enum_cap=5)

    def test_empty_domain_entails_anything(self):
        bounds = And(Cmp("<=", IntLit(5), Var("x")), Cmp("<=", Var("x"), IntLit(4)))
        ctx = TypingContext(()).extend("a", Refined("x", Integer(), bounds))
        assert entails(ctx, Cmp("=", Var("a"), IntLit(0))) is Verdict.VALID
        assert entails(ctx, Cmp("!=", Var("a"), Var("a"))) is Verdict.VALID

    def test_dependent_empty_domain_is_vacuously_valid(self):
        # b's range sits one below its own lower bound for every a, so the
        # satisfying set is empty even though the interval hulls are not.
        wide = And(Cmp("<=", IntLit(0), Var("x")), Cmp("<=", Var("x"), IntLit(5)))
        hollow = And(
            Cmp("<=", Var("a"), Var("x")),
            Cmp("<=", Var("x"), BinOp("-", Var("a"), IntLit(1))),
        )
        ctx = (
            TypingContext(())
            .extend("a", Refined("x", Integer(), wide))
            .extend("b", Refined("x", Integer(), hollow))
        )
        assert entails(ctx, Cmp("=", Var("b"), IntLit(99))) is Verdict.VALID

    def test_unsatisfiable_divisor_is_not_a_crash(self):
        # d's hull is inverted, (1, 0), and ends at 0; dividing by it must
        # not evaluate 4 / 0.
        empty = And(Cmp("<=", IntLit(1), Var("x")), Cmp("<=", Var("x"), IntLit(0)))
        ctx = TypingContext(()).extend("d", Refined("x", Integer(), empty))
        p = Cmp("=", BinOp("/", IntLit(4), Var("d")), IntLit(4))
        assert entails(ctx, p) is Verdict.VALID
        assert domain_of(ctx, "d") == Unbounded()

    @pytest.mark.parametrize("budget", [0, 1, ENUM_BUDGET], indirect=True)
    def test_refutation_over_known_domains_is_invalid(self, budget):
        # Every needed domain is a non-empty FiniteSet or Interval and p
        # divides by nothing, so a refuted hull box holds a falsifying
        # assignment even without the budget to enumerate one.
        ctx = merged_context(2, [0])
        closed = And(Cmp("=", IntLit(0), IntLit(0)), Cmp("=", IntLit(1), IntLit(2)))
        assert entails(ctx, closed) is Verdict.INVALID
        assert entails(ctx, Cmp("!=", IntLit(3), IntLit(3))) is Verdict.INVALID
        assert entails(ctx, Cmp("=", IntLit(3), IntLit(3))) is Verdict.VALID
        member = And(Cmp("!=", IntLit(0), Var("rank")), Cmp("!=", IntLit(1), Var("rank")))
        assert entails(ctx, member) is Verdict.INVALID
        assert entails(ctx, Cmp("<", Var("rank"), Var("size"))) is Verdict.VALID
        window = And(Cmp("<=", IntLit(2), Var("x")), Cmp("<=", Var("x"), IntLit(9)))
        bounded = ctx.extend("i", Refined("x", Integer(), window))
        assert entails(bounded, Cmp("<", Var("i"), Var("rank"))) is Verdict.INVALID

    def test_refutation_through_a_division_needs_enumeration(self, monkeypatch):
        monkeypatch.setattr(logic_module, "ENUM_BUDGET", 0)
        ctx = merged_context(2, [0])
        halved = Cmp("=", BinOp("/", IntLit(7), Var("size")), IntLit(9))
        assert entails(ctx, halved) is Verdict.UNDECIDABLE
        monkeypatch.setattr(logic_module, "ENUM_BUDGET", 1)
        assert entails(ctx, halved) is Verdict.INVALID

    def test_corpus_tallies(self):
        # Criterion 8's 1000 cases, including the ones it skips for lack of
        # a ground truth: the verdict counts on each side are pinned.
        rng = random.Random(515)
        tally = Counter()
        for _ in range(1000):
            case = gen_entail_case(rng)
            decided = brute_force_entails(case) is not None
            tally[decided, entails(case.ctx, case.query).value] += 1
        assert tally == {
            (True, "Invalid"): 561,
            (True, "Valid"): 404,
            (False, "Undecidable"): 26,
            (False, "Invalid"): 7,
            (False, "Valid"): 2,
        }

    def test_verdict_labels(self):
        assert Verdict.VALID.value == "Valid"
        assert Verdict.INVALID.value == "Invalid"
        assert Verdict.UNDECIDABLE.value == "Undecidable"


class TestDomains:
    def test_equality_refinement_is_finite_set(self):
        ctx = ctx_with_rank(4, 2, 0)
        assert domain_of(ctx, "rank") == FiniteSet((0, 2))

    def test_bound_refinement_is_interval(self):
        pred = And(Cmp("<=", IntLit(1), Var("x")), Cmp("<", Var("x"), Var("size")))
        ctx = initial_context(4).extend("i", Refined("x", Integer(), pred))
        assert domain_of(ctx, "i") == Interval(1, 3)

    def test_plain_integer_is_unbounded(self):
        ctx = TypingContext(()).extend("n", Integer())
        assert domain_of(ctx, "n") == Unbounded()

    def test_non_integer_entry_rejected(self):
        ctx = TypingContext(()).extend("f", Float())
        with pytest.raises(NotIntegerRefined):
            domain_of(ctx, "f")
        with pytest.raises(NotIntegerRefined):
            domain_of(ctx, "missing")


class TestSingletonEnv:
    def test_collects_point_domains_in_order(self):
        ctx = merged_context(3, [2])
        assert singleton_env(ctx) == {"size": 3, "rank": 2}

    def test_skips_wide_domains(self):
        ctx = merged_context(3, [0, 1])
        assert singleton_env(ctx) == {"size": 3}


class TestDtypeEquiv:
    def test_scalars(self):
        ctx = TypingContext(())
        assert dtype_equiv(ctx, Integer(), Integer())
        assert not dtype_equiv(ctx, Integer(), Float())

    def test_array_lengths_compare_semantically(self):
        ctx = initial_context(3)
        open_len = BinOp("*", BinOp("/", IntLit(1000000), Var("size")), IntLit(4))
        closed_len = BinOp("*", BinOp("/", IntLit(1000000), IntLit(3)), IntLit(4))
        assert dtype_equiv(ctx, Array(Float(), open_len), Array(Float(), closed_len))
        assert not dtype_equiv(ctx, Array(Float(), IntLit(4)), Array(Float(), IntLit(8)))

    def test_identical_open_arrays_match_without_context(self):
        ctx = TypingContext(())
        d = Array(Float(), BinOp("*", Var("n"), IntLit(4)))
        assert dtype_equiv(ctx, d, d)

    def test_incomparable_open_lengths_raise(self):
        ctx = TypingContext(()).extend("n", Integer()).extend("m", Integer())
        with pytest.raises(UndecidableEquivalence):
            dtype_equiv(ctx, Array(Float(), Var("n")), Array(Float(), Var("m")))

    def test_trivial_refinement_strips_to_base(self):
        ctx = TypingContext(())
        assert dtype_equiv(ctx, Refined("x", Integer(), TrueProp()), Integer())

    def test_equality_and_bound_refinements_with_same_set(self):
        ctx = TypingContext(())
        eq = Refined("x", Integer(), Or(Cmp("=", Var("x"), IntLit(0)), Cmp("=", Var("x"), IntLit(1))))
        bounds = Refined(
            "y", Integer(), And(Cmp("<=", IntLit(0), Var("y")), Cmp("<=", Var("y"), IntLit(1)))
        )
        assert dtype_equiv(ctx, eq, bounds)

    def test_distinct_point_refinements_differ(self):
        ctx = TypingContext(())
        a = Refined("x", Integer(), Cmp("=", Var("x"), IntLit(0)))
        b = Refined("x", Integer(), Cmp("=", Var("x"), IntLit(1)))
        assert not dtype_equiv(ctx, a, b)

    def test_alpha_renamed_refinements_match(self):
        ctx = TypingContext(())
        a = Refined("x", Float(), Cmp("<", Var("x"), IntLit(1)))
        b = Refined("y", Float(), Cmp("<", Var("y"), IntLit(1)))
        assert dtype_equiv(ctx, a, b)

    def test_float_refinements_only_compare_syntactically(self):
        ctx = TypingContext(())
        a = Refined("x", Float(), Cmp("<", Var("x"), IntLit(1)))
        b = Refined("x", Float(), Cmp("<=", Var("x"), IntLit(0)))
        with pytest.raises(UndecidableEquivalence):
            dtype_equiv(ctx, a, b)

    def test_nested_array_element_mismatch(self):
        ctx = TypingContext(())
        assert not dtype_equiv(ctx, Array(Integer(), IntLit(2)), Array(Float(), IntLit(2)))


class TestRefinementSets:
    """Integer refinements compare by their satisfying sets, whatever the
    enumeration budget."""

    @pytest.mark.parametrize("budget", [0, 1, ENUM_BUDGET], indirect=True)
    def test_equalities_match_the_interval_they_fill(self, budget):
        interval = parse_datatype("{x: integer | 0 <= x and x < 2}")
        points = parse_datatype("{x: integer | x = 0 or x = 1}")
        for ctx in (TypingContext(()), merged_context(2, [0])):
            assert dtype_equiv(ctx, interval, points)
            assert dtype_equiv(ctx, points, interval)

    @pytest.mark.parametrize("budget", [0, 1, ENUM_BUDGET], indirect=True)
    def test_gaps_and_wide_intervals(self, budget):
        ctx = TypingContext(())
        gap = parse_datatype("{x: integer | x = 0 or x = 2}")
        assert not dtype_equiv(ctx, gap, parse_datatype("{x: integer | 0 <= x and x <= 2}"))
        wide = parse_datatype("{x: integer | 0 <= x and x <= 1000000}")
        same = parse_datatype("{y: integer | y < 1000001 and -1 < y}")
        assert dtype_equiv(ctx, wide, same)
        assert not dtype_equiv(ctx, wide, parse_datatype("{x: integer | 0 <= x and x <= 999999}"))

    @pytest.mark.parametrize("budget", [0, 1, ENUM_BUDGET], indirect=True)
    def test_empty_intervals_are_equal(self, budget):
        ctx = TypingContext(())
        empty = parse_datatype("{x: integer | 3 <= x and x <= 1}")
        other = parse_datatype("{y: integer | y > 5 and y < 5}")
        assert dtype_equiv(ctx, empty, other)
        assert not dtype_equiv(ctx, empty, parse_datatype("{x: integer | x = 2}"))

    @pytest.mark.parametrize("budget", [0, 1, ENUM_BUDGET], indirect=True)
    def test_open_bounds_compare_as_bounds(self, budget):
        ctx = TypingContext(())
        at_least = [
            parse_datatype(t)
            for t in ("{x: integer | x >= 0}", "{y: integer | 0 <= y}", "{z: integer | z > -1}")
        ]
        for a in at_least:
            for b in at_least:
                assert dtype_equiv(ctx, a, b)
        assert not dtype_equiv(ctx, at_least[0], parse_datatype("{x: integer | x <= 5}"))
        assert not dtype_equiv(ctx, at_least[0], Integer())
        assert not dtype_equiv(ctx, Integer(), at_least[0])


class TestRankSetEntry:
    """merged_context binds `rank` to a FiniteSet, which answers every query
    as the same ranks spelled as a disjunction of equalities do."""

    def test_domain_is_the_entry(self):
        ctx = merged_context(5, [3, 1, 3])
        assert ctx.lookup("rank") == FiniteSet((1, 3))
        assert domain_of(ctx, "rank") is ctx.lookup("rank")
        assert logic_module.FiniteSet is ast_module.FiniteSet

    @pytest.mark.parametrize("ranks", [[1.0], [True], [0, 2.0]])
    def test_non_int_ranks_rejected(self, ranks):
        with pytest.raises(TypeError):
            merged_context(3, ranks)

    def test_builds_no_proposition_nodes(self):
        initial_context(2000)
        before = Counter(type(node).__name__ for node in ast_module._TABLE.values())
        merged_context(2000, range(1999))
        after = Counter(type(node).__name__ for node in ast_module._TABLE.values())
        assert (after["Or"], after["Cmp"]) == (before["Or"], before["Cmp"])

    def test_matches_the_or_chain(self, monkeypatch):
        rng = random.Random(12)
        checked = Counter()
        for _ in range(300):
            n = rng.randint(1, 12)
            ranks = rng.sample(range(n), rng.randint(1, n))
            entry, chain = merged_context(n, ranks), or_chain_context(n, ranks)
            assert domain_of(entry, "rank") == domain_of(chain, "rank")
            assert singleton_env(entry) == singleton_env(chain)
            a, b = rng.randint(-1, n), rng.randint(-1, n)
            queries = [
                And(Cmp("!=", IntLit(a), Var("rank")), Cmp("!=", IntLit(b), Var("rank"))),
                *(_gen_query(rng, 2, ("rank", "size")) for _ in range(6)),
            ]
            for budget in (0, len(ranks) - 1, ENUM_BUDGET):
                monkeypatch.setattr(logic_module, "ENUM_BUDGET", budget)
                for q in queries:
                    verdict = entails(entry, q)
                    assert verdict is entails(chain, q), (n, ranks, q, budget)
                    checked[verdict] += 1
        assert set(checked) == set(Verdict)


class TestContexts:
    def test_initial_context_binds_size(self):
        ctx = initial_context(3)
        assert ctx.names() == ("size",)
        assert domain_of(ctx, "size") == FiniteSet((3,))

    def test_merged_context_binds_rank_set(self):
        ctx = merged_context(3, [1, 0])
        assert ctx.names() == ("size", "rank")
        assert domain_of(ctx, "rank") == FiniteSet((0, 1))

    def test_extended_context_sees_its_new_entry(self):
        ctx = merged_context(3, [0])
        assert entails(ctx, Cmp("<", Var("rank"), IntLit(1))) is Verdict.VALID
        assert domain_of(ctx, "rank") == FiniteSet((0,))
        bounds = And(Cmp("<=", IntLit(0), Var("x")), Cmp("<=", Var("x"), IntLit(1)))
        wider = ctx.extend("i", Refined("x", Integer(), bounds))
        assert domain_of(wider, "i") == Interval(0, 1)
        assert entails(wider, Cmp("!=", Var("i"), IntLit(1))) is Verdict.INVALID
        rebound = wider.extend("rank", Refined("x", Integer(), Cmp("=", Var("x"), Var("i"))))
        assert domain_of(rebound, "rank") == Unbounded()
        assert entails(rebound, Cmp("<", Var("rank"), IntLit(1))) is Verdict.INVALID
        assert singleton_env(rebound) == {"size": 3}
        assert domain_of(ctx, "rank") == FiniteSet((0,))

    def test_queries_leave_equality_hash_and_repr_alone(self):
        queried, fresh = merged_context(4, [0, 2]), merged_context(4, [0, 2])
        entails(queried, Cmp("!=", Var("rank"), IntLit(1)))
        assert queried == fresh
        assert hash(queried) == hash(fresh)
        assert repr(queried) == repr(fresh)

    def test_large_rank_sets_hash_and_entail(self):
        assert isinstance(hash(merged_context(2000, range(1999))), int)
        ctx = merged_context(1200, range(1199))
        assert domain_of(ctx, "rank") == FiniteSet(tuple(range(1199)))
        assert entails(ctx, Cmp("!=", Var("rank"), IntLit(1199))) is Verdict.VALID
        assert entails(ctx, Cmp("!=", Var("rank"), IntLit(600))) is Verdict.INVALID

    def test_invalid_rank_sets_rejected(self):
        with pytest.raises(InvalidRankSet):
            merged_context(3, [])
        with pytest.raises(InvalidRankSet):
            merged_context(3, [3])
        with pytest.raises(InvalidRankSet):
            merged_context(3, [-1])
        with pytest.raises(InvalidRankSet):
            initial_context(0)
