"""Protocol execution oracle: projection, loop capping, the rendezvous run."""

import random

import pytest

from protomerge import (
    Allreduce,
    Array,
    BinOp,
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
    SendTo,
    Seq,
    Skip,
    TypingContext,
    UnfoldBudgetExceeded,
    Var,
    cap_loops,
    initial_context,
    linearize,
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
