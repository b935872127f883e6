"""Seeded random generators shared across the test suite.

Everything takes an explicit random.Random so each test controls its seed
and the corpora are reproducible run to run.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from dataclasses import dataclass
from pathlib import Path

from protomerge import (
    FRESH_BINDER,
    Allreduce,
    AllreduceStmt,
    And,
    Array,
    BinOp,
    Cmp,
    Cond,
    Datatype,
    Float,
    For,
    Foreach,
    If,
    IndexTerm,
    IntLit,
    Integer,
    Message,
    Not,
    Or,
    Process,
    Proposition,
    ProtocolType,
    PSeq,
    PSkip,
    Recv,
    ReduceOp,
    Refined,
    Seq,
    Send,
    Skip,
    TrueProp,
    TypingContext,
    Var,
    eval_prop,
    initial_context,
)
from protomerge.ast import DivisionByZero, eval_index
from protomerge.syntax import parse_datatype


def _load_workloads():
    """perfbench/workloads.py, the benchmark's instance sets, loaded from its
    file under a private module name: it imports nothing from protomerge, and
    no search path changes."""
    name = "_protomerge_bench_workloads"
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while they are built.
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()

CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")
BIN_OPS = ("+", "-", "*", "/")
FREE_NAMES = ("n", "m", "a", "b")
BINDERS = ("i", "j", "u", "v")
REDUCE_OPS = tuple(ReduceOp)


# ---------------------------------------------------------------------------
# Grammar-covering AST generators (for parser round-trips)


def gen_index(rng: random.Random, depth: int, names: tuple[str, ...] = FREE_NAMES) -> IndexTerm:
    if depth <= 0 or rng.random() < 0.35:
        if names and rng.random() < 0.5:
            return Var(rng.choice(names))
        return IntLit(rng.randint(-9, 9))
    if rng.random() < 0.15:
        return Cond(
            gen_prop(rng, depth - 1, names),
            gen_index(rng, depth - 1, names),
            gen_index(rng, depth - 1, names),
        )
    op = rng.choice(BIN_OPS)
    return BinOp(op, gen_index(rng, depth - 1, names), gen_index(rng, depth - 1, names))


def gen_prop(rng: random.Random, depth: int, names: tuple[str, ...] = FREE_NAMES) -> Proposition:
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.15:
            return TrueProp()
        return Cmp(rng.choice(CMP_OPS), gen_index(rng, depth - 1, names), gen_index(rng, depth - 1, names))
    roll = rng.random()
    if roll < 0.4:
        return And(gen_prop(rng, depth - 1, names), gen_prop(rng, depth - 1, names))
    if roll < 0.8:
        return Or(gen_prop(rng, depth - 1, names), gen_prop(rng, depth - 1, names))
    return Not(gen_prop(rng, depth - 1, names))


def gen_datatype(rng: random.Random, depth: int, names: tuple[str, ...] = FREE_NAMES) -> Datatype:
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        return rng.choice((Integer(), Float()))
    if roll < 0.7:
        return Array(gen_datatype(rng, depth - 1, names), gen_index(rng, depth - 1, names))
    binder = rng.choice(("v", "w"))
    base = rng.choice((Integer(), Float()))
    return Refined(binder, base, gen_prop(rng, depth - 1, names + (binder,)))


def _fold_seq(items: list[ProtocolType]) -> ProtocolType:
    if not items:
        return Skip()
    node = items[-1]
    for item in reversed(items[:-1]):
        node = Seq(item, node)
    return node


def _fold_pseq(items: list[Process]) -> Process:
    if not items:
        return PSkip()
    node = items[-1]
    for item in reversed(items[:-1]):
        node = PSeq(item, node)
    return node


def gen_protocol(rng: random.Random, depth: int, names: tuple[str, ...] = FREE_NAMES) -> ProtocolType:
    if depth > 0 and rng.random() < 0.2:
        # Sequence items are kept non-Seq: the printer flattens a whole
        # semicolon spine and the parser rebuilds it right-nested, so only
        # right-nested sequences of atoms round-trip exactly.
        count = rng.randint(2, 3)
        return _fold_seq([_gen_protocol_atom(rng, depth - 1, names) for _ in range(count)])
    return _gen_protocol_atom(rng, depth, names)


def _gen_protocol_atom(rng: random.Random, depth: int, names: tuple[str, ...]) -> ProtocolType:
    roll = rng.random()
    if depth <= 0 or roll < 0.18:
        return Skip()
    if roll < 0.58:
        return Message(
            gen_index(rng, depth - 1, names),
            gen_index(rng, depth - 1, names),
            gen_datatype(rng, depth - 1, names),
        )
    if roll < 0.76:
        op = rng.choice(REDUCE_OPS)
        if rng.random() < 0.5:
            # Short form: printer emits it exactly when binder is "_" and
            # the continuation is skip, so this round-trips.
            return Allreduce(op, FRESH_BINDER, gen_datatype(rng, depth - 1, names), Skip())
        binder = rng.choice(BINDERS)
        return Allreduce(
            op,
            binder,
            gen_datatype(rng, depth - 1, names),
            gen_protocol(rng, depth - 1, names + (binder,)),
        )
    binder = rng.choice(BINDERS)
    return Foreach(
        binder,
        gen_index(rng, depth - 1, names),
        gen_index(rng, depth - 1, names),
        gen_protocol(rng, depth - 1, names + (binder,)),
    )


def gen_process(rng: random.Random, depth: int, names: tuple[str, ...] = FREE_NAMES) -> Process:
    if depth > 0 and rng.random() < 0.18:
        # Same right-nesting discipline as gen_protocol.
        count = rng.randint(2, 3)
        return _fold_pseq([_gen_process_atom(rng, depth - 1, names) for _ in range(count)])
    return _gen_process_atom(rng, depth, names)


def _gen_process_atom(rng: random.Random, depth: int, names: tuple[str, ...]) -> Process:
    roll = rng.random()
    if depth <= 0 or roll < 0.15:
        return PSkip()
    if roll < 0.42:
        return Send(gen_index(rng, depth - 1, names), gen_datatype(rng, depth - 1, names))
    if roll < 0.66:
        return Recv(gen_index(rng, depth - 1, names), gen_datatype(rng, depth - 1, names))
    if roll < 0.74:
        return AllreduceStmt(rng.choice(REDUCE_OPS), gen_datatype(rng, depth - 1, names))
    if roll < 0.87:
        binder = rng.choice(BINDERS)
        return For(
            binder,
            gen_index(rng, depth - 1, names),
            gen_index(rng, depth - 1, names),
            gen_process(rng, depth - 1, names + (binder,)),
        )
    return If(
        gen_prop(rng, depth - 1, names),
        gen_process(rng, depth - 1, names),
        gen_process(rng, depth - 1, names),
    )


# ---------------------------------------------------------------------------
# Entailment cases with an enumerable ground truth


@dataclass(frozen=True)
class EntailCase:
    ctx: TypingContext
    domains: tuple[tuple[str, str, tuple], ...]
    query: Proposition


def _eq_pred(binder: str, terms: list[IndexTerm]) -> Proposition:
    pred: Proposition = Cmp("=", Var(binder), terms[0])
    for term in terms[1:]:
        pred = Or(pred, Cmp("=", Var(binder), term))
    return pred


def gen_entail_case(rng: random.Random) -> EntailCase:
    """A context of 1..3 finitely refined integers plus a query over them.

    Refinement predicates are division-free, so the satisfying assignments
    are exactly enumerable; the query may divide (possibly by zero).
    """
    ctx = TypingContext(())
    names = ("a", "b", "c")[: rng.randint(1, 3)]
    domains = []
    product = 1
    for position, name in enumerate(names):
        prev = names[position - 1] if position > 0 and rng.random() < 0.4 else None

        def term(base_lo: int, base_hi: int) -> IndexTerm:
            value = rng.randint(base_lo, base_hi)
            if prev is not None and rng.random() < 0.5:
                return BinOp("+", Var(prev), IntLit(value))
            return IntLit(value)

        if rng.random() < 0.45:
            terms = [term(-8, 8) for _ in range(rng.randint(1, 3))]
            pred = _eq_pred("x", terms)
            domains.append((name, "eq", tuple(terms)))
            product *= len(terms)
        else:
            width = rng.randint(0, 7) if product <= 250 else rng.randint(0, 2)
            lo = term(-8, 8)
            hi = BinOp("+", lo, IntLit(width)) if isinstance(lo, BinOp) else IntLit(_int_of(lo) + width)
            pred = And(Cmp("<=", lo, Var("x")), Cmp("<=", Var("x"), hi))
            if rng.random() < 0.3:
                pred = And(pred, Cmp("!=", Var("x"), IntLit(rng.randint(-8, 8))))
            domains.append((name, "range", (lo, hi)))
            product *= width + 1
        ctx = ctx.extend(name, Refined("x", Integer(), pred))
    query = _gen_query(rng, 2, tuple(names))
    return EntailCase(ctx, tuple(domains), query)


def _int_of(t: IndexTerm) -> int:
    assert isinstance(t, IntLit)
    return t.value


def _gen_query_term(rng: random.Random, depth: int, names: tuple[str, ...]) -> IndexTerm:
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.6:
            return Var(rng.choice(names))
        return IntLit(rng.randint(-6, 6))
    op = rng.choice(("+", "+", "-", "-", "*", "/"))
    left = _gen_query_term(rng, depth - 1, names)
    if op == "/" and rng.random() < 0.7:
        right: IndexTerm = IntLit(rng.choice((-3, -2, 2, 3)))
    else:
        right = _gen_query_term(rng, depth - 1, names)
    return BinOp(op, left, right)


def _gen_query(rng: random.Random, depth: int, names: tuple[str, ...]) -> Proposition:
    if depth <= 0 or rng.random() < 0.45:
        return Cmp(
            rng.choice(CMP_OPS),
            _gen_query_term(rng, 2, names),
            _gen_query_term(rng, 2, names),
        )
    roll = rng.random()
    if roll < 0.4:
        return And(_gen_query(rng, depth - 1, names), _gen_query(rng, depth - 1, names))
    if roll < 0.8:
        return Or(_gen_query(rng, depth - 1, names), _gen_query(rng, depth - 1, names))
    return Not(_gen_query(rng, depth - 1, names))


def brute_force_entails(case: EntailCase) -> bool | None:
    """Ground truth by direct enumeration; None when division by zero makes
    the query undefined on some satisfying assignment."""
    envs: list[dict[str, int]] = [{}]
    for (name, kind, data), (entry_name, entry_type) in zip(case.domains, case.ctx.entries):
        assert name == entry_name
        assert isinstance(entry_type, Refined)
        expanded = []
        for env in envs:
            if kind == "eq":
                candidates = set()
                for term in data:
                    candidates.add(_eval_closed(term, env))
            else:
                lo, hi = data
                candidates = set(range(_eval_closed(lo, env), _eval_closed(hi, env) + 1))
            for value in sorted(candidates):
                if eval_prop({**env, entry_type.binder: value}, entry_type.pred):
                    expanded.append({**env, name: value})
        envs = expanded
    verdict = True
    for env in envs:
        try:
            if not eval_prop(env, case.query):
                verdict = False
        except DivisionByZero:
            return None
    return verdict


def _eval_closed(t: IndexTerm, env: dict[str, int]) -> int:
    return eval_index(env, t)


# ---------------------------------------------------------------------------
# Loop-free message exchange instances (merge soundness corpus)


def or_chain_context(n: int, ranks) -> TypingContext:
    """Reference for merged_context: the merged ranks spelled as a
    refinement, a disjunction of equalities {x: integer | x = r0 or ...}."""
    eqs = [Cmp("=", Var("x"), IntLit(r)) for r in sorted(set(ranks))]
    pred = eqs[0]
    for eq in eqs[1:]:
        pred = Or(pred, eq)
    return initial_context(n).extend("rank", Refined("x", Integer(), pred))


@dataclass(frozen=True)
class ExchangeInstance:
    n: int
    messages: tuple[tuple[tuple[int, int, Datatype], ...], ...]
    """Per rank: (src, dst, payload) triples in program order."""

    def local_types(self) -> list[tuple[int, ProtocolType]]:
        out = []
        for rank, triples in enumerate(self.messages):
            items: list[ProtocolType] = [
                Message(IntLit(s), IntLit(d), payload) for s, d, payload in triples
            ]
            out.append((rank, _fold_seq(items)))
        return out


def gen_exchange(rng: random.Random) -> ExchangeInstance:
    """The benchmark's next exchange-corpus instance from rng, as nodes: one
    generator, so a seed gives the tests and the benchmark one corpus."""
    n, per_rank = workloads.gen_exchange(rng)
    return ExchangeInstance(n, tuple(
        tuple((src, dst, parse_datatype(payload)) for src, dst, payload in triples)
        for triples in per_rank
    ))


# ---------------------------------------------------------------------------
# Text mutations (for lexer and parser differentials)

# What a mutation inserts: token pieces, gaps and comments, bad characters
# (`\x0b`, `\f`, a lone `.` or `!`, `@`, `é`), and characters that a scanner
# could take for a digit (`٣`) or a blank (`\x85`, `\xa0`).
MUTATION_PIECES = tuple(" \t\r\n#@!.=<>-+*/(){}[]:;|?09_aZ") + (
    "\x0b", "\f", "\x85", "\xa0", "٣", "é", "$", "'", "\\",
    "==", "..", "!=", "# c\n", "#", "not ", "skip", "rank", "12",
)


def mutate_text(rng: random.Random, text: str) -> str:
    """text after one to three random edits: an insertion, a deletion, a
    replacement, a truncation, a copied slice or an inserted comment."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        edit = rng.randrange(6)
        if edit == 0:
            text = text[:i] + rng.choice(MUTATION_PIECES) + text[i:]
        elif edit == 1:
            text = text[:i] + text[i + 1 :]
        elif edit == 2:
            text = text[:i] + rng.choice(MUTATION_PIECES) + text[i + 1 :]
        elif edit == 3:
            text = text[:i]
        elif edit == 4:
            j = rng.randint(0, len(text))
            text = text[:i] + text[j : j + rng.randint(1, 8)] + text[i:]
        else:
            text = text[:i] + "#" + rng.choice(MUTATION_PIECES) + rng.choice(("\n", "")) + text[i:]
    return text
