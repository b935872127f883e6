"""Protocol execution oracle: projection, loop capping, the rendezvous run."""

import random
from pathlib import Path

import pytest

import protomerge
from protomerge import (
    Allreduce,
    Array,
    BinOp,
    Cmp,
    Collective,
    CollectiveEvent,
    Completed,
    Deadlocked,
    Float,
    Foreach,
    Integer,
    IntLit,
    LINEARIZE_BUDGET,
    Message,
    MessageEvent,
    Mismatch,
    NonConstantBounds,
    OpenIndexTerm,
    RecvFrom,
    ReduceOp,
    Refined,
    SendTo,
    Seq,
    Skip,
    TypingContext,
    UnfoldBudgetExceeded,
    Var,
    cap_loops,
    extract_local_type,
    initial_context,
    linearize,
    parse_process,
    simulate,
)
from protomerge.ast import FRESH_BINDER

import reference_oracle
from generators import gen_exchange


D = Float()


def msg(src, dst, payload=D):
    return Message(IntLit(src), IntLit(dst), payload)


def allred(op=ReduceOp.MIN, payload=D):
    return Allreduce(op, FRESH_BINDER, payload, Skip())


class TestLinearize:
    def test_keeps_only_own_endpoints(self):
        t = Seq(msg(0, 1), Seq(msg(1, 2), msg(2, 0)))
        ctx = initial_context(3)
        assert linearize(ctx, t, 0) == [SendTo(1, D), RecvFrom(2, D)]
        assert linearize(ctx, t, 1) == [RecvFrom(0, D), SendTo(2, D)]
        assert linearize(ctx, t, 2) == [RecvFrom(1, D), SendTo(0, D)]

    def test_collectives_appear_for_every_rank(self):
        t = Allreduce(ReduceOp.SUM, "v", Integer(), msg(0, 1))
        actions = linearize(initial_context(2), t, 1)
        assert actions == [Collective(ReduceOp.SUM, Integer()), RecvFrom(0, D)]

    def test_loops_unfold_through_context(self):
        t = Foreach("i", IntLit(1), BinOp("-", Var("size"), IntLit(1)), Message(IntLit(0), Var("i"), D))
        actions = linearize(initial_context(3), t, 0)
        assert actions == [SendTo(1, D), SendTo(2, D)]

    def test_open_endpoint_rejected(self):
        t = Message(Var("w"), IntLit(0), D)
        with pytest.raises(OpenIndexTerm):
            linearize(initial_context(2), t, 0)

    def test_self_message_projects_as_send(self):
        actions = linearize(initial_context(2), msg(1, 1), 1)
        assert actions == [SendTo(1, D)]

    def test_long_loop_does_not_recurse(self):
        t = Foreach("i", IntLit(1), IntLit(20000), Message(IntLit(0), IntLit(1), D))
        assert linearize(initial_context(2), t, 0) == [SendTo(1, D)] * 20000

    def test_long_loop_body_does_not_recurse(self):
        body = msg(1, 0)
        for _ in range(4999):
            body = Seq(msg(0, 1), body)
        actions = linearize(initial_context(2), Foreach("i", IntLit(1), IntLit(2), body), 0)
        assert len(actions) == 10000
        assert actions[4998:5001] == [SendTo(1, D), RecvFrom(1, D), SendTo(1, D)]

    def test_loop_binder_reaches_payloads_and_endpoints(self):
        body = Message(IntLit(0), Var("i"), Array(Float(), Var("i")))
        t = Foreach("i", IntLit(1), IntLit(2), body)
        assert linearize(initial_context(3), t, 0) == [
            SendTo(1, Array(Float(), IntLit(1))),
            SendTo(2, Array(Float(), IntLit(2))),
        ]

    def test_empty_loop_unfolds_to_nothing(self):
        t = Seq(Foreach("i", IntLit(3), IntLit(1), msg(0, 1)), msg(1, 0))
        assert linearize(initial_context(2), t, 0) == [RecvFrom(1, D)]

    def test_budget_checked_before_unfolding(self):
        t = Foreach("i", IntLit(1), IntLit(LINEARIZE_BUDGET + 1), msg(0, 1))
        with pytest.raises(UnfoldBudgetExceeded):
            linearize(initial_context(2), t, 0)

    def test_budget_counts_nested_iterations(self):
        # The outer loop alone fits; its first inner loop tips the total over.
        inner = Foreach("j", IntLit(1), IntLit(2), msg(0, 1))
        t = Foreach("i", IntLit(1), IntLit(LINEARIZE_BUDGET), inner)
        with pytest.raises(UnfoldBudgetExceeded):
            linearize(initial_context(2), t, 0)

    def test_non_constant_bounds_rejected(self):
        t = Foreach("i", IntLit(1), Var("w"), msg(0, 1))
        with pytest.raises(NonConstantBounds):
            linearize(initial_context(2), t, 0)

    def test_binder_free_payload_is_shared_across_iterations(self, monkeypatch):
        def no_substitution(*args):
            raise AssertionError("linearize substituted into a loop body")

        monkeypatch.setattr(protomerge.ast, "subst_type", no_substitution)
        monkeypatch.setattr(protomerge.oracle, "subst_datatype", no_substitution)
        block = Array(Float(), BinOp("*", Var("size"), IntLit(4)))
        inner = Foreach("j", IntLit(1), Var("size"), Message(Var("i"), IntLit(0), block))
        t = Foreach("i", IntLit(1), IntLit(3), Seq(Message(IntLit(0), Var("i"), block), inner))
        actions = linearize(initial_context(4), t, 0)
        assert len(actions) == 3 * 5
        assert all(a.payload is block for a in actions)

    def test_payload_substituted_only_when_it_mentions_a_live_binder(self):
        shared = Array(Float(), Var("size"))
        own = Refined("i", Integer(), Cmp("<", Var("i"), Var("j")))
        body = Seq(msg(0, 1, shared), Seq(msg(0, 1, Array(Float(), Var("i"))), msg(0, 1, own)))
        t = Foreach("i", IntLit(1), IntLit(2), body)
        actions = linearize(initial_context(2), t, 0)
        assert [a.payload for a in actions[:2]] == [shared, Array(Float(), IntLit(1))]
        assert actions[0].payload is shared and actions[3].payload is shared
        assert actions[2].payload is own and actions[5].payload is own


class TestCapLoops:
    def test_truncates_long_constant_loops(self):
        t = Foreach("i", IntLit(1), IntLit(50), msg(0, 1))
        assert cap_loops(initial_context(2), t, 2) == Foreach("i", IntLit(1), IntLit(2), msg(0, 1))

    def test_short_loops_untouched(self):
        t = Foreach("i", IntLit(1), IntLit(2), msg(0, 1))
        assert cap_loops(initial_context(2), t, 5) == t

    def test_open_bounds_left_alone_but_bodies_capped(self):
        inner = Foreach("j", IntLit(1), IntLit(9), msg(0, 1))
        t = Foreach("i", IntLit(1), Var("n"), inner)
        out = cap_loops(initial_context(2), t, 3)
        assert out == Foreach("i", IntLit(1), Var("n"), Foreach("j", IntLit(1), IntLit(3), msg(0, 1)))

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            cap_loops(initial_context(2), Skip(), 0)


class TestSimulate:
    def test_matching_send_recv_completes(self):
        result = simulate([[SendTo(1, D)], [RecvFrom(0, D)]], 2)
        assert result == Completed((MessageEvent(0, 1, D),))

    def test_trace_reconstruction_orders_events(self):
        lists = [
            [SendTo(1, D), RecvFrom(2, D)],
            [RecvFrom(0, D), SendTo(2, D)],
            [RecvFrom(1, D), SendTo(0, D)],
        ]
        result = simulate(lists, 3)
        assert isinstance(result, Completed)
        assert result.trace == (
            MessageEvent(0, 1, D),
            MessageEvent(1, 2, D),
            MessageEvent(2, 0, D),
        )

    def test_symmetric_sends_deadlock(self):
        lists = [
            [SendTo(1, D), RecvFrom(1, D)],
            [SendTo(0, D), RecvFrom(0, D)],
        ]
        result = simulate(lists, 2)
        assert isinstance(result, Deadlocked)
        assert "rank 0: send float to 1" in result.stuck
        assert "rank 1: send float to 0" in result.stuck

    def test_payload_disagreement_is_mismatch(self):
        result = simulate([[SendTo(1, Float())], [RecvFrom(0, Integer())]], 2)
        assert isinstance(result, Mismatch)
        assert "rank 0 sends float" in result.detail

    def test_completion_preferred_over_mismatch(self):
        # One interleaving mismatches, another finishes: report success.
        lists = [
            [SendTo(1, Float()), SendTo(1, Float())],
            [RecvFrom(0, Float()), RecvFrom(0, Float())],
            [],
        ]
        assert isinstance(simulate(lists, 3), Completed)

    def test_collective_requires_all_ranks(self):
        c = Collective(ReduceOp.MIN, D)
        result = simulate([[c], [SendTo(0, D), c]], 2)
        assert isinstance(result, Deadlocked)

    def test_collective_operator_clash_is_mismatch(self):
        result = simulate([[Collective(ReduceOp.MIN, D)], [Collective(ReduceOp.MAX, D)]], 2)
        assert isinstance(result, Mismatch)
        assert "operators disagree" in result.detail

    def test_collective_payload_clash_is_mismatch(self):
        result = simulate(
            [[Collective(ReduceOp.MIN, Float())], [Collective(ReduceOp.MIN, Integer())]], 2
        )
        assert isinstance(result, Mismatch)
        assert "payloads disagree" in result.detail

    def test_collective_completes_and_is_traced(self):
        c = Collective(ReduceOp.SUM, D)
        result = simulate([[c], [c], [c]], 3)
        assert result == Completed((CollectiveEvent(ReduceOp.SUM, D),))

    def test_payloads_compare_semantically(self):
        ctx = initial_context(3)
        open_len = Array(Float(), BinOp("*", BinOp("/", IntLit(1000000), Var("size")), IntLit(4)))
        closed_len = Array(Float(), BinOp("*", BinOp("/", IntLit(1000000), IntLit(3)), IntLit(4)))
        result = simulate([[SendTo(1, open_len)], [RecvFrom(0, closed_len)], []], 3, ctx=ctx)
        assert isinstance(result, Completed)

    def test_unpaired_send_to_missing_rank_deadlocks(self):
        result = simulate([[SendTo(5, D)], []], 2)
        assert isinstance(result, Deadlocked)
        assert "rank 0: send float to 5" in result.stuck

    def test_self_send_never_pairs(self):
        result = simulate([[SendTo(0, D)], []], 2)
        assert isinstance(result, Deadlocked)

    def test_empty_lists_complete_immediately(self):
        assert simulate([[], []], 2) == Completed(())

    def test_list_count_must_match(self):
        with pytest.raises(ValueError):
            simulate([[]], 2)

class TestEndToEnd:
    def test_merged_ring_protocol_simulates_for_each_rank(self):
        t = Seq(msg(0, 1), Seq(msg(1, 2), msg(2, 0)))
        ctx = initial_context(3)
        lists = [linearize(ctx, t, r) for r in range(3)]
        result = simulate(lists, 3, ctx=ctx)
        assert isinstance(result, Completed)
        assert len(result.trace) == 3

    def test_capped_loop_pipeline_completes(self):
        body = Seq(msg(0, 1), Seq(msg(1, 2), msg(2, 0)))
        t = Foreach("iter", IntLit(1), IntLit(5000000), Seq(body, allred()))
        ctx = initial_context(3)
        capped = cap_loops(ctx, t, 2)
        lists = [linearize(ctx, capped, r) for r in range(3)]
        result = simulate(lists, 3, ctx=ctx)
        assert isinstance(result, Completed)
        assert len(result.trace) == 8


# ---------------------------------------------------------------------------
# Differential check against the exhaustive BFS


OPS = (ReduceOp.MIN, ReduceOp.MAX)
PAYLOADS = (Float(), Integer())


def _coherent_lists(rng, n):
    """Projection of one global event order, perturbed now and then."""
    lists = [[] for _ in range(n)]
    for _ in range(rng.randint(0, 5)):
        if rng.random() < 0.2:
            c = Collective(rng.choice(OPS), rng.choice(PAYLOADS))
            for actions in lists:
                actions.append(c)
        else:
            src, dst = rng.sample(range(n), 2)
            payload = rng.choice(PAYLOADS)
            lists[src].append(SendTo(dst, payload))
            lists[dst].append(RecvFrom(src, payload))
    for actions in lists:
        for k, a in enumerate(actions):
            if rng.random() < 0.05:
                actions[k] = _perturb(rng, n, a)
    return lists


def _perturb(rng, n, a):
    match a:
        case Collective(op, payload):
            if rng.random() < 0.5:
                return Collective(rng.choice(OPS), payload)
            return Collective(op, rng.choice(PAYLOADS))
        case SendTo(peer, payload) | RecvFrom(peer, payload):
            kind = type(a)
            roll = rng.random()
            if roll < 0.4:
                return kind(peer, rng.choice(PAYLOADS))
            if roll < 0.7:
                return kind(rng.choice((-1, n, n + 2)), payload)
            return kind(rng.randrange(n), payload)  # may be a self-message


def _random_lists(rng, n):
    """Independent per-rank behaviour, mostly incoherent."""
    lists = []
    for rank in range(n):
        actions = []
        for _ in range(rng.randint(0, 4)):
            roll = rng.random()
            peer = rng.randrange(-1, n + 1)
            payload = rng.choice(PAYLOADS)
            if roll < 0.1:
                actions.append(Collective(rng.choice(OPS), payload))
            elif roll < 0.55:
                actions.append(SendTo(peer, payload))
            else:
                actions.append(RecvFrom(peer, payload))
        lists.append(actions)
    return lists


def _replays(trace, lists):
    """Whether the trace consumes every rank's list exactly, in order."""
    pos = [0] * len(lists)

    def take(rank, action):
        if pos[rank] >= len(lists[rank]) or lists[rank][pos[rank]] != action:
            return False
        pos[rank] += 1
        return True

    for event in trace:
        match event:
            case MessageEvent(src, dst, payload):
                if not (take(src, SendTo(dst, payload)) and take(dst, RecvFrom(src, payload))):
                    return False
            case CollectiveEvent(op, payload):
                if not all(take(r, Collective(op, payload)) for r in range(len(lists))):
                    return False
    return pos == [len(actions) for actions in lists]


def _blocked_at_end(lists):
    """How many send/receive pairs and collectives the terminal state blocks,
    found by firing any enabled step until none is left. Payloads here
    compare by equality."""
    n = len(lists)
    pos = [0] * n

    def head(r):
        return lists[r][pos[r]] if pos[r] < len(lists[r]) else None

    def facing():
        for i in range(n):
            a = head(i)
            if isinstance(a, SendTo) and 0 <= a.peer < n and a.peer != i:
                b = head(a.peer)
                if isinstance(b, RecvFrom) and b.peer == i:
                    yield i, a, b

    while True:
        fired = False
        for i, a, b in list(facing()):
            if a.payload == b.payload:
                pos[i] += 1
                pos[a.peer] += 1
                fired = True
        heads = [head(r) for r in range(n)]
        if all(isinstance(h, Collective) for h in heads) and len(set(heads)) == 1:
            pos = [p + 1 for p in pos]
            fired = True
        if not fired:
            break
    heads = [head(r) for r in range(n)]
    return len(list(facing())) + all(isinstance(h, Collective) for h in heads)


class TestAgainstReference:
    """simulate must give the exhaustive BFS's verdict on every input."""

    def check(self, lists, n, kinds):
        got = simulate(lists, n)
        want = reference_oracle.simulate(lists, n)
        assert type(got) is type(want), (lists, got, want)
        kinds[type(got).__name__] += 1
        match got:
            case Deadlocked(stuck):
                assert stuck == want.stuck
            case Completed(trace):
                assert len(trace) == len(want.trace)
                assert _replays(trace, lists), (lists, trace)
            case Mismatch(detail):
                if detail != want.detail:
                    # Only allowed when the terminal state blocks several pairs.
                    assert _blocked_at_end(lists) > 1, (lists, detail, want.detail)

    def test_random_action_lists(self):
        rng = random.Random(1704)
        kinds = {"Completed": 0, "Deadlocked": 0, "Mismatch": 0}
        for k in range(3000):
            n = rng.randint(2, 5)
            lists = _coherent_lists(rng, n) if k % 2 else _random_lists(rng, n)
            self.check(lists, n, kinds)
        assert min(kinds.values()) >= 100, kinds

    def test_exchange_corpus(self):
        # Criterion 7's corpus: every instance, merged or not.
        rng = random.Random(2024)
        kinds = {"Completed": 0, "Deadlocked": 0, "Mismatch": 0}
        for _ in range(500):
            instance = gen_exchange(rng)
            ctx = initial_context(instance.n)
            lists = [linearize(ctx, t, rank) for rank, t in instance.local_types()]
            self.check(lists, instance.n, kinds)
        assert kinds["Completed"] >= 150, kinds

    def test_state_cap_enforced(self):
        # Many independent pairs blow up the reference's interleaving lattice.
        lists = []
        for i in range(0, 8, 2):
            lists.append([SendTo(i + 1, D)] * 6)
            lists.append([RecvFrom(i, D)] * 6)
        with pytest.raises(reference_oracle.StateSpaceExceeded):
            reference_oracle.simulate(lists, 8, state_cap=100)
        result = simulate(lists, 8)
        assert isinstance(result, Completed) and len(result.trace) == 24


# ---------------------------------------------------------------------------
# Differential check of linearize against projection by substitution


LOOP_BINDERS = ("i", "j", "size")


def _gen_term(rng, names, depth=1):
    """A small index term over names; now and then one that cannot evaluate."""
    roll = rng.random()
    if roll < 0.01:
        return Var("w")  # never bound
    if roll < 0.02:
        return BinOp("/", IntLit(1), BinOp("-", Var("size"), Var("size")))
    if depth <= 0 or roll < 0.55:
        if names and rng.random() < 0.6:
            return Var(rng.choice(names))
        return IntLit(rng.randint(0, 3))
    op = rng.choice(("+", "-", "*", "/"))
    right = IntLit(rng.randint(1, 2)) if op == "/" else _gen_term(rng, names, depth - 1)
    return BinOp(op, _gen_term(rng, names, depth - 1), right)


def _gen_payload(rng, names, depth=1):
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        return rng.choice((Float(), Integer()))
    if roll < 0.7:
        return Array(_gen_payload(rng, names, depth - 1), _gen_term(rng, names))
    # The refinement's own binder may reuse a loop binder's name.
    binder = rng.choice(LOOP_BINDERS + ("v",))
    return Refined(binder, Integer(), Cmp("<", Var(binder), _gen_term(rng, names + (binder,))))


def _gen_bound(rng, names):
    roll = rng.random()
    if roll < 0.01:
        return IntLit(2 * LINEARIZE_BUDGET)
    if roll < 0.3:
        return BinOp("-", Var("size"), IntLit(1))
    if roll < 0.5 and names:
        return BinOp("+", Var(rng.choice(names)), IntLit(rng.randint(0, 1)))
    if roll < 0.6:
        return _gen_term(rng, names)
    return IntLit(rng.randint(0, 3))


def _gen_loop_protocol(rng, names, depth):
    """Random protocol rich in loops: nested foreach with constant and
    size-dependent bounds, binders in endpoints, bounds and payloads,
    reused binder names, and allreduce binders that shadow loop binders."""
    items = []
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if depth > 0 and roll < 0.35:
            binder = rng.choice(LOOP_BINDERS)
            lo = IntLit(rng.randint(0, 2)) if rng.random() < 0.7 else _gen_term(rng, names)
            body = _gen_loop_protocol(rng, names + (binder,), depth - 1)
            items.append(Foreach(binder, lo, _gen_bound(rng, names), body))
        elif depth > 0 and roll < 0.5:
            binder = rng.choice(LOOP_BINDERS + (FRESH_BINDER,))
            inner = tuple(x for x in names if x != binder)
            cont = _gen_loop_protocol(rng, inner, depth - 1) if rng.random() < 0.7 else Skip()
            items.append(Allreduce(rng.choice(OPS), binder, _gen_payload(rng, names), cont))
        else:
            items.append(Message(_gen_term(rng, names), _gen_term(rng, names), _gen_payload(rng, names)))
    t = items[-1]
    for item in reversed(items[:-1]):
        t = Seq(item, t)
    return t


def _outcome(fn, ctx, t, rank):
    try:
        return fn(ctx, t, rank)
    except (OpenIndexTerm, NonConstantBounds, UnfoldBudgetExceeded) as exc:
        return type(exc), str(exc)


class TestLinearizeAgainstSubstitution:
    """linearize must give the substitution-based projection's action list,
    or raise the same error, on every protocol."""

    def test_random_loop_protocols(self):
        rng = random.Random(7)
        seen = {"lists": 0, "actions": 0, OpenIndexTerm: 0, NonConstantBounds: 0, UnfoldBudgetExceeded: 0}
        for _ in range(1500):
            n = rng.randint(2, 4)
            ctx = initial_context(n)
            t = _gen_loop_protocol(rng, (), 3)
            for rank in range(n):
                got = _outcome(linearize, ctx, t, rank)
                assert got == _outcome(reference_oracle.reference_linearize, ctx, t, rank), t
                if isinstance(got, list):
                    seen["lists"] += 1
                    seen["actions"] += len(got)
                else:
                    seen[got[0]] += 1
        assert seen["lists"] >= 3000 and seen["actions"] >= 10000, seen
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize(
        "t",
        [
            # An inner loop reuses the outer binder: the inner value wins in
            # its body, the outer one is back after it.
            Foreach("i", IntLit(1), IntLit(2), Seq(
                Foreach("i", Var("i"), IntLit(3), Message(IntLit(0), Var("i"), Array(Float(), Var("i")))),
                Message(IntLit(0), Var("i"), Array(Integer(), Var("i"))),
            )),
            # An allreduce binder shadows the loop binder in its continuation
            # only, where `i` is unbound.
            Foreach("i", IntLit(1), IntLit(2), Seq(
                Allreduce(ReduceOp.MIN, "i", Array(Float(), Var("i")), Message(IntLit(0), Var("i"), D)),
                msg(0, 1),
            )),
            # A loop binder named size overrides the context's size; an
            # allreduce binder named size brings the context's back.
            Foreach("size", IntLit(1), IntLit(2), Seq(
                Message(IntLit(0), Var("size"), Array(Float(), Var("size"))),
                Allreduce(ReduceOp.SUM, "size", Array(Float(), Var("size")),
                          Message(IntLit(0), BinOp("-", Var("size"), IntLit(1)), Array(Float(), Var("size")))),
            )),
            # A refinement's own binder named like the loop binder is not
            # substituted; the loop binder next to it is.
            Foreach("i", IntLit(0), BinOp("-", Var("size"), IntLit(1)), Message(
                IntLit(0), Var("i"),
                Array(Refined("i", Integer(), Cmp("<", Var("i"), IntLit(4))), Var("i")),
            )),
        ],
        ids=["reused-binder", "allreduce-shadow", "binder-named-size", "refinement-binder"],
    )
    def test_scoping_cases(self, t):
        ctx = initial_context(3)
        for rank in range(3):
            got = _outcome(linearize, ctx, t, rank)
            assert got == _outcome(reference_oracle.reference_linearize, ctx, t, rank)


NBODY = Path(protomerge.__file__).parent / "programs" / "nbody.proc"


def test_simulate_compares_each_pair_of_payload_values_once(monkeypatch):
    n = 8
    ctx = initial_context(n)
    program = parse_process(NBODY.read_text(encoding="utf-8"))
    locals_ = [cap_loops(ctx, extract_local_type(ctx, program, r, n), 2) for r in range(n)]
    lists = [linearize(ctx, t, r) for r, t in enumerate(locals_)]
    calls = []
    real = protomerge.oracle.dtype_equiv

    def counting(ctx, d1, d2):
        calls.append((d1, d2))
        return real(ctx, d1, d2)

    monkeypatch.setattr(protomerge.oracle, "dtype_equiv", counting)
    result = simulate(lists, n, ctx=ctx)
    assert isinstance(result, Completed) and len(result.trace) == 2 * (2 * n + 1)
    block = Array(Float(), BinOp("*", BinOp("/", IntLit(1000000), Var("size")), IntLit(4)))
    assert sorted(calls, key=repr) == sorted([(block, block), (D, D)], key=repr)
