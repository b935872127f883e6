"""End-to-end acceptance checks, one numbered criterion per test name.

conftest.py aggregates every test named test_criterion_<n> into a one-line
pass/fail summary per criterion at the end of the run.
"""

import json
import random
from pathlib import Path

import pytest

import protomerge
from protomerge import (
    Allreduce,
    Array,
    BinOp,
    Completed,
    Deadlocked,
    DiagnosticKind,
    Float,
    Foreach,
    IntLit,
    Integer,
    Message,
    MergeFailure,
    RULE_NAMES,
    ReduceOp,
    Seq,
    Skip,
    Var,
    Verdict,
    attempt_rule,
    compact_protocol,
    dtype_equiv,
    entails,
    extract_local_type,
    initial_context,
    linearize,
    merge_all,
    merged_context,
    normalize_seq,
    parse_datatype,
    parse_index,
    parse_process,
    parse_proposition,
    parse_protocol,
    print_datatype,
    print_index,
    print_process,
    print_proposition,
    print_protocol,
    simulate,
)
from protomerge.ast import FRESH_BINDER
from protomerge.cli import main

from generators import (
    brute_force_entails,
    gen_datatype,
    gen_entail_case,
    gen_exchange,
    gen_index,
    gen_process,
    gen_prop,
    gen_protocol,
)

PROGRAMS = Path(protomerge.__file__).parent / "programs"

PARTICLES = 1000000
STEPS = 5000000
RING_HOPS = ((0, 1), (1, 2), (2, 0))

# The pipeline payload, symbolic in size and closed at size 3.
D_SYM = Array(Float(), BinOp("*", BinOp("/", IntLit(PARTICLES), Var("size")), IntLit(4)))
D_CLOSED = Array(Float(), BinOp("*", BinOp("/", IntLit(PARTICLES), IntLit(3)), IntLit(4)))
D_TEXT = "float[1000000 / size * 4]"

# The fan-out payload: length n * 4 with n left free.
D_N = Array(Float(), BinOp("*", Var("n"), IntLit(4)))


def msg(src, dst, payload=Float()):
    return Message(IntLit(src), IntLit(dst), payload)


def seq(*items):
    node = items[-1]
    for item in reversed(items[:-1]):
        node = Seq(item, node)
    return node


def allred(op=ReduceOp.MIN, binder=FRESH_BINDER, payload=Float()):
    return Allreduce(op, binder, payload, Skip())


def pipeline(hops, payload):
    """The n-body communication shape: a per-step ring pass then a reduction."""
    ring = seq(*[msg(s, d, payload) for s, d in hops])
    body = Seq(Foreach("pipe", IntLit(1), IntLit(2), ring), allred())
    return Foreach("iter", IntLit(1), IntLit(STEPS), body)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _extract_all(program, size):
    source = (PROGRAMS / program).read_text(encoding="utf-8")
    process = parse_process(source)
    ctx = initial_context(size)
    return {rank: extract_local_type(ctx, process, rank, size) for rank in range(size)}


def _is_subsequence(needle, haystack):
    it = iter(haystack)
    return all(item in it for item in needle)


# ---------------------------------------------------------------------------
# 1: whole-pipeline inference on the bundled n-body program


def test_criterion_01_pipeline_inference_golden(capsys):
    code, out, _ = run_cli(capsys, "infer", str(PROGRAMS / "nbody.proc"), "--size", "3")
    assert code == 0
    got = normalize_seq(parse_protocol(out))
    want = normalize_seq(pipeline(RING_HOPS, D_CLOSED))
    assert got == want


# ---------------------------------------------------------------------------
# 2: the two displayed pipeline merges, result and rule trace


def _ptype_file(tmp_path, name, hops):
    text = ";\n".join(f"message {s} {d} {D_TEXT}" for s, d in hops)
    path = tmp_path / name
    path.write_text(text + "\n", encoding="utf-8")
    return str(path)


def test_criterion_02_merge_rule_traces(tmp_path, capsys):
    t0 = _ptype_file(tmp_path, "t0.ptype", ((0, 1), (2, 0)))
    t1 = _ptype_file(tmp_path, "t1.ptype", ((0, 1), (1, 2)))
    t2 = _ptype_file(tmp_path, "t2.ptype", ((1, 2), (2, 0)))
    first = _ptype_file(tmp_path, "first.ptype", RING_HOPS)
    want = seq(*[msg(s, d, D_SYM) for s, d in RING_HOPS])

    code, out, _ = run_cli(
        capsys, "merge", t0, t1, "--size", "3", "--merged", "0", "--k", "1", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert parse_protocol(doc["protocol"]) == want
    rules = [step["rule"] for step in doc["traces"][0]]
    assert _is_subsequence(("seq-seq", "msg-msg-eq", "msg-msg-right"), rules)

    code, out, _ = run_cli(
        capsys, "merge", first, t2, "--size", "3", "--merged", "0,1", "--k", "2", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert parse_protocol(doc["protocol"]) == want
    rules = [step["rule"] for step in doc["traces"][0]]
    assert _is_subsequence(("msgT-msgT-left", "seq-seq", "msg-msg-eq", "msg-msg-eq"), rules)


# ---------------------------------------------------------------------------
# 3: per-rank extraction of the n-body program


def test_criterion_03_per_rank_extraction_golden():
    locals_ = _extract_all("nbody.proc", 3)
    want = {
        0: pipeline(((0, 1), (2, 0)), D_SYM),
        1: pipeline(((0, 1), (1, 2)), D_SYM),
        2: pipeline(((1, 2), (2, 0)), D_SYM),
    }
    assert locals_ == want
    # The symbolic payload closes to the size-3 payload under the rank context.
    assert dtype_equiv(initial_context(3), D_SYM, D_CLOSED)


# ---------------------------------------------------------------------------
# 4: the one-to-all fan-out extracts, merges (with unfolding), and completes


def test_criterion_04_fan_out_extract_merge_simulate():
    locals_ = _extract_all("one_to_all.proc", 3)
    want = {
        0: Foreach("i", IntLit(1), IntLit(2), Message(IntLit(0), Var("i"), D_N)),
        1: msg(0, 1, D_N),
        2: msg(0, 2, D_N),
    }
    assert locals_ == want
    merged, _ = merge_all(3, sorted(locals_.items()))
    assert merged == seq(msg(0, 1, D_N), msg(0, 2, D_N))
    ctx = initial_context(3)
    actions = [linearize(ctx, merged, rank) for rank in range(3)]
    assert isinstance(simulate(actions, 3), Completed)


# ---------------------------------------------------------------------------
# 5: the symmetric send-first ring is rejected, and the oracle agrees


@pytest.mark.parametrize("size", (2, 3))
def test_criterion_05_symmetric_ring_rejected_and_deadlocks(size):
    locals_ = _extract_all("symmetric_ring.proc", size)
    with pytest.raises(MergeFailure) as failure:
        merge_all(size, sorted(locals_.items()))
    assert failure.value.diagnostic.kind is DiagnosticKind.DEADLOCK_SUSPECTED
    ctx = initial_context(size)
    actions = [linearize(ctx, t, rank) for rank, t in sorted(locals_.items())]
    assert isinstance(simulate(actions, size), Deadlocked)


# ---------------------------------------------------------------------------
# 6: every merge rule derives a positive instance and refuses a negated one
#
# Settings: A merges rank 1 into {0}, B merges rank 2 into {0, 1}, size 3.
# Each negative instance breaks exactly one premise of its rule; for rules
# whose premises are submerges (seq-seq, skip-msgT, msgT-skipT), exactly one
# submerge is made unsatisfiable.

SETTING_A = (merged_context(3, [0]), 1)
SETTING_B = (merged_context(3, [0, 1]), 2)

RULE_INSTANCES = [
    ("skip-skip", SETTING_A, (Skip(), Skip()), Skip(), (Skip(), msg(1, 2))),
    ("skip-msgS", SETTING_A, (Skip(), msg(0, 2)), Skip(), (Skip(), msg(1, 2))),
    ("msgS-skip", SETTING_A, (msg(1, 2), Skip()), Skip(), (msg(0, 1), Skip())),
    ("msgS-msgS", SETTING_A, (msg(1, 2), msg(0, 2)), Skip(), (msg(0, 1), msg(0, 2))),
    ("msg-skip", SETTING_A, (msg(0, 2), Skip()), msg(0, 2), (msg(0, 1), Skip())),
    ("skip-msg", SETTING_A, (Skip(), msg(1, 2)), msg(1, 2), (Skip(), msg(0, 1))),
    ("msg-msgS", SETTING_A, (msg(0, 2), msg(2, 0)), msg(0, 2), (msg(0, 2), msg(2, 1))),
    ("msgS-msg", SETTING_A, (msg(1, 2), msg(1, 2)), msg(1, 2), (msg(0, 1), msg(1, 2))),
    (
        "msg-msg-eq",
        SETTING_A,
        (msg(0, 1), msg(0, 1)),
        msg(0, 1),
        (msg(0, 1), Message(IntLit(0), IntLit(1), Integer())),
    ),
    (
        "allred-allred",
        SETTING_A,
        (allred(binder="x"), allred(binder="y")),
        allred(binder="x"),
        (allred(ReduceOp.MIN), allred(ReduceOp.MAX)),
    ),
    (
        "foreach-foreach",
        SETTING_A,
        (
            Foreach("i", IntLit(1), IntLit(2), Message(IntLit(0), Var("i"), Float())),
            Foreach("i", IntLit(1), IntLit(2), Message(IntLit(0), Var("i"), Float())),
        ),
        Foreach("i", IntLit(1), IntLit(2), Message(IntLit(0), Var("i"), Float())),
        (
            Foreach("i", IntLit(1), IntLit(2), Message(IntLit(0), Var("i"), Float())),
            Foreach("i", IntLit(1), IntLit(3), Message(IntLit(0), Var("i"), Float())),
        ),
    ),
    (
        "seq-seq",
        SETTING_A,
        (Seq(msg(0, 1), msg(2, 0)), Seq(msg(0, 1), msg(1, 2))),
        seq(msg(0, 1), msg(1, 2), msg(2, 0)),
        (Seq(msg(0, 1), msg(2, 0)), Seq(msg(1, 0), msg(1, 2))),
    ),
    (
        "skip-msgT",
        SETTING_A,
        (Skip(), Seq(msg(1, 2), msg(2, 0))),
        msg(1, 2),
        (Skip(), Seq(msg(0, 1), msg(0, 2))),
    ),
    (
        "msgT-skipT",
        SETTING_A,
        (Seq(msg(2, 0), msg(0, 2)), Skip()),
        Seq(msg(2, 0), msg(0, 2)),
        (Seq(msg(0, 1), msg(0, 2)), Skip()),
    ),
    ("msg-msg-right", SETTING_A, (msg(2, 0), msg(1, 2)), Seq(msg(1, 2), msg(2, 0)), (msg(2, 0), msg(1, 0))),
    ("msg-msg-left", SETTING_A, (msg(2, 0), msg(1, 2)), Seq(msg(2, 0), msg(1, 2)), (msg(0, 1), msg(1, 2))),
    (
        "msgT-msgT-left",
        SETTING_B,
        (seq(msg(0, 1), msg(1, 2), msg(2, 0)), Seq(msg(1, 2), msg(2, 0))),
        seq(msg(0, 1), msg(1, 2), msg(2, 0)),
        (seq(msg(0, 2), msg(1, 2), msg(2, 0)), Seq(msg(1, 2), msg(2, 0))),
    ),
    (
        "msgT-msgT-right",
        SETTING_A,
        (Seq(msg(0, 1), msg(2, 0)), Seq(msg(1, 2), msg(0, 1))),
        seq(msg(1, 2), msg(0, 1), msg(2, 0)),
        (Seq(msg(0, 1), msg(2, 0)), Seq(msg(1, 0), msg(0, 1))),
    ),
]


def test_criterion_06_rule_table_is_complete():
    assert tuple(row[0] for row in RULE_INSTANCES) == RULE_NAMES


@pytest.mark.parametrize(
    ("rule", "setting", "positive", "expected", "negative"),
    RULE_INSTANCES,
    ids=[row[0] for row in RULE_INSTANCES],
)
def test_criterion_06_rule_instances(rule, setting, positive, expected, negative):
    ctx, k = setting
    assert attempt_rule(ctx, rule, *positive, k) == expected
    assert attempt_rule(ctx, rule, *negative, k) is None


# ---------------------------------------------------------------------------
# 7 and 10: random loop-free exchanges, shared corpus


@pytest.fixture(scope="module")
def exchange_corpus():
    rng = random.Random(2024)
    corpus = []
    for _ in range(500):
        instance = gen_exchange(rng)
        try:
            merged, _ = merge_all(instance.n, instance.local_types())
        except MergeFailure:
            merged = None
        corpus.append((instance, merged))
    return corpus


def test_criterion_07_merge_success_implies_completion(exchange_corpus):
    successes = 0
    for instance, merged in exchange_corpus:
        if merged is None:
            continue
        successes += 1
        ctx = initial_context(instance.n)
        actions = [linearize(ctx, t, rank) for rank, t in instance.local_types()]
        assert isinstance(simulate(actions, instance.n), Completed)
    # Seed 2024 yields 218 successful merges out of 500; keep a wide margin
    # so the check stays meaningful if generator tuning shifts the mix.
    assert successes >= 150


def _message_spine(t):
    items = []
    t = normalize_seq(t)
    while isinstance(t, Seq):
        items.append(t.first)
        t = t.second
    if not isinstance(t, Skip):
        items.append(t)
    spine = []
    for item in items:
        assert isinstance(item, Message)
        assert isinstance(item.src, IntLit) and isinstance(item.dst, IntLit)
        spine.append((item.src.value, item.dst.value, item.payload))
    return spine


def test_criterion_10_message_conservation_and_order(exchange_corpus):
    checked = 0
    for instance, merged in exchange_corpus:
        if merged is None:
            continue
        checked += 1
        spine = _message_spine(merged)
        for rank in range(instance.n):
            visible = [entry for entry in spine if rank in (entry[0], entry[1])]
            assert visible == list(instance.messages[rank])
    assert checked >= 150


# ---------------------------------------------------------------------------
# 8: the entailment checker against direct enumeration


def test_criterion_08_entailment_matches_enumeration():
    rng = random.Random(515)
    decided = 0
    skipped = 0
    for _ in range(1000):
        case = gen_entail_case(rng)
        truth = brute_force_entails(case)
        verdict = entails(case.ctx, case.query)
        if truth is None:
            # The query divides by zero on some satisfying assignment, so
            # enumeration yields no ground truth to compare against.
            skipped += 1
            continue
        want = Verdict.VALID if truth else Verdict.INVALID
        assert verdict is want
        decided += 1
    # Seed 515 decides 965 of 1000; domains are bounded (at most 512 points)
    # so every case with a ground truth must be decided, never guessed.
    assert decided >= 900
    assert decided + skipped == 1000


# ---------------------------------------------------------------------------
# 9: printer and parser round-trip on generated syntax


def test_criterion_09_print_parse_round_trip():
    rng = random.Random(99)
    for _ in range(500):
        t = gen_protocol(rng, rng.randint(1, 6))
        assert parse_protocol(print_protocol(t)) == t
    for _ in range(500):
        p = gen_process(rng, rng.randint(1, 6))
        assert parse_process(print_process(p)) == p


@pytest.mark.parametrize(
    "generate, show, parse",
    [
        (gen_protocol, compact_protocol, parse_protocol),
        (gen_prop, print_proposition, parse_proposition),
        (gen_index, print_index, parse_index),
        (gen_datatype, print_datatype, parse_datatype),
    ],
    ids=["compact_protocol", "print_proposition", "print_index", "print_datatype"],
)
def test_criterion_09_every_printer_round_trips(generate, show, parse):
    rng = random.Random(99)
    for _ in range(3000):
        t = generate(rng, rng.randint(1, 6))
        assert parse(show(t)) == t
