"""Merging local types into a global protocol.

The merge judgment `ctx |- left || right @ k ~> result` combines the protocol
accumulated for the already-merged ranks (left, described by the context's
`rank` entry) with the local type of one more rank k (right). It is a partial
function realized here as a rule engine: deterministic rules first, then the
message-interleaving rules explored depth-first with backtracking; the first
derivation wins. Failure produces a Diagnostic naming the deepest point where
every applicable rule's premise broke.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterable, Sequence

from .ast import (
    Allreduce,
    And,
    Cmp,
    Datatype,
    Diagnostic,
    DiagnosticKind,
    DivisionByZero,
    Foreach,
    IndexTerm,
    IntLit,
    Integer,
    Message,
    Proposition,
    ProtocolType,
    ProtomergeError,
    Refined,
    RuleAttempt,
    Seq,
    Skip,
    TypingContext,
    UnboundVariable,
    Var,
    build_seq,
    concat,
    eval_index,
    index_vars,
    normalize_seq,
    subst_type,
)
from .logic import (
    DEFAULT_ENUM_CAP,
    FiniteSet,
    InvalidRankSet,
    UndecidableEquivalence,
    Verdict,
    domain_of,
    dtype_equiv,
    entails,
    merged_context,
    singleton_env,
)
from .syntax import compact_protocol, print_datatype, print_proposition

__all__ = [
    "DEFAULT_UNROLL",
    "MergeFailure",
    "MergeStep",
    "MergeTrace",
    "NonConstantBounds",
    "PremiseCheck",
    "RULE_NAMES",
    "attempt_rule",
    "merge_all",
    "merge_types",
    "unfold_foreach",
]

DEFAULT_UNROLL = 2


class NonConstantBounds(ProtomergeError):
    """A foreach's bounds do not evaluate to constants under the context."""


# ---------------------------------------------------------------------------
# Constant-bound loop unfolding


def unfold_foreach(ctx: TypingContext, t: ProtocolType) -> ProtocolType:
    """Replace a constant-bound foreach by its instantiated body sequence."""
    if not isinstance(t, Foreach):
        raise ValueError(f"unfold_foreach expects a foreach type, got {type(t).__name__}")
    lo, hi = _constant_bounds(ctx, t)
    instances = [subst_type(t.body, {t.binder: IntLit(v)}) for v in range(lo, hi + 1)]
    return normalize_seq(build_seq(instances))


def _constant_bounds(ctx: TypingContext, t: Foreach) -> tuple[int, int]:
    env = singleton_env(ctx)
    try:
        return eval_index(env, t.lo), eval_index(env, t.hi)
    except (UnboundVariable, DivisionByZero) as exc:
        raise NonConstantBounds(f"foreach bounds are not constant: {exc}") from None


# ---------------------------------------------------------------------------
# Traces and failure


@dataclass(frozen=True, slots=True)
class PremiseCheck:
    """One premise a rule checked. `claim` is the proposition or the payload
    pair it decided (or the formula text itself); `formula` renders it."""

    name: str
    claim: Proposition | tuple[Datatype, Datatype] | str
    verdict: str

    @property
    def formula(self) -> str:
        claim = self.claim
        if isinstance(claim, str):
            return claim
        if isinstance(claim, tuple):
            return f"{print_datatype(claim[0])} == {print_datatype(claim[1])}"
        return print_proposition(claim)


@dataclass(frozen=True, slots=True)
class MergeStep:
    """One rule application; the operands are rendered when read."""

    rule: str
    left_type: ProtocolType
    right_type: ProtocolType
    premises: tuple[PremiseCheck, ...]

    @property
    def left(self) -> str:
        return compact_protocol(self.left_type)

    @property
    def right(self) -> str:
        return compact_protocol(self.right_type)


@dataclass(frozen=True, slots=True)
class MergeTrace:
    steps: tuple[MergeStep, ...]

    def rule_names(self) -> tuple[str, ...]:
        return tuple(s.rule for s in self.steps)


class MergeFailure(ProtomergeError):
    """The merge relation is not derivable for the given operands."""

    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic
        super().__init__(f"{diagnostic.kind.value} at {diagnostic.location}")

    def annotated(self, prefix: str) -> "MergeFailure":
        d = self.diagnostic
        return MergeFailure(Diagnostic(d.kind, f"{prefix}: {d.location}", d.rule_trace))


# ---------------------------------------------------------------------------
# The rule engine

_RANK = Var("rank")

# Premise-failure classes, used to pick the Diagnostic kind at the deepest
# failing node.
_STRUCTURAL = "structural"
_DATATYPE = "datatype"
_ENTAILMENT = "entailment"
_SUBMERGE = "submerge"


@dataclass(frozen=True, slots=True)
class _Applied:
    result: ProtocolType
    steps: tuple[MergeStep, ...]


@dataclass(frozen=True, slots=True)
class _Refused:
    failed: PremiseCheck | str  # the failing premise, or why a subgoal failed
    kind: str

    def text(self) -> str:
        f = self.failed
        return f if isinstance(f, str) else f"{f.name}: {f.formula} is {f.verdict}"


_MISS = object()


def _both_endpoints_differ(m: Message, t: IndexTerm) -> Proposition:
    return And(Cmp("!=", m.src, t), Cmp("!=", m.dst, t))


# Message premises: name -> (the operand whose message it judges, the side
# it judges it against, the verdict it wants of "the message avoids that
# side"). Skip-likeness of the left operand is judged against the merged
# ranks, of the right operand against k; "real" is the refutation.
_AVOIDS = {
    "left-skip-like": ("left", "merged", Verdict.VALID),
    "left-real": ("left", "merged", Verdict.INVALID),
    "left-avoids-k": ("left", "k", Verdict.VALID),
    "right-skip-like": ("right", "k", Verdict.VALID),
    "right-real": ("right", "k", Verdict.INVALID),
    "right-avoids-merged": ("right", "merged", Verdict.VALID),
}

# Non-interference: the left message never touches rank k, the right message
# never touches an already-merged rank, so the two orders are
# indistinguishable to every rank involved.
_NON_INTERFERENCE = ("left-real", "left-avoids-k", "right-real", "right-avoids-merged")

# The rules on two single operands, each a message or skip, that check
# message premises only: name -> (left shape, right shape, premises in the
# order checked, conclusion from the operands).
_MESSAGE_RULES = {
    "skip-skip": (Skip, Skip, (), lambda l, r: Skip()),
    "skip-msgS": (Skip, Message, ("right-skip-like",), lambda l, r: Skip()),
    "msgS-skip": (Message, Skip, ("left-skip-like",), lambda l, r: Skip()),
    "msgS-msgS": (Message, Message, ("left-skip-like", "right-skip-like"), lambda l, r: Skip()),
    "msg-skip": (Message, Skip, ("left-real", "left-avoids-k"), lambda l, r: l),
    "skip-msg": (Skip, Message, ("right-avoids-merged", "right-real"), lambda l, r: r),
    "msg-msgS": (
        Message, Message, ("left-real", "left-avoids-k", "right-skip-like"), lambda l, r: l
    ),
    "msgS-msg": (
        Message, Message, ("left-skip-like", "right-real", "right-avoids-merged"), lambda l, r: r
    ),
    "msg-msg-right": (Message, Message, _NON_INTERFERENCE, lambda l, r: Seq(r, l)),
    "msg-msg-left": (Message, Message, _NON_INTERFERENCE, lambda l, r: Seq(l, r)),
}


def _seq_parts(t: ProtocolType) -> tuple[ProtocolType, ProtocolType]:
    if isinstance(t, Seq):
        return t.first, t.second
    return t, Skip()


def _fresh(base: str, avoid: Iterable[str]) -> str:
    taken = set(avoid)
    name = base
    while name in taken:
        name += "'"
    return name


# The rules in the order the engine tries them. A rule of `_MESSAGE_RULES`
# runs as `_message_rule`; any other rule `a-b` is method `_rule_a_b`.
RULE_NAMES = (
    "skip-skip",
    "skip-msgS",
    "msgS-skip",
    "msgS-msgS",
    "msg-skip",
    "skip-msg",
    "msg-msgS",
    "msgS-msg",
    "msg-msg-eq",
    "allred-allred",
    "foreach-foreach",
    "seq-seq",
    "skip-msgT",
    "msgT-skipT",
    "msg-msg-right",
    "msg-msg-left",
    "msgT-msgT-left",
    "msgT-msgT-right",
)


class _Engine:
    def __init__(self, k: int, enum_cap: int):
        self.enum_cap = enum_cap
        self.k_term = IntLit(k)
        # The tables below key a context by its id. Every context the
        # engine sees outlives it (the caller's, and those it interns in
        # `extensions`), so an id names one of them for the engine's life.
        # Types and index terms are interned, so they key by identity.
        self.memo: dict = {}
        # (id(context), side, src, dst) -> (verdict, proposition)
        self.avoids: dict = {}
        # (id(context), name, datatype) -> the extended context
        self.extensions: dict = {}
        self.undecidable = False
        self.deepest_depth = -1
        self.deepest_path: tuple[str, ...] = ()
        self.deepest_attempts: tuple[tuple[str, _Refused], ...] = ()
        self.rules: tuple[tuple[str, object], ...] = tuple(
            (
                name,
                partial(self._message_rule, name)
                if name in _MESSAGE_RULES
                else getattr(self, "_rule_" + name.replace("-", "_")),
            )
            for name in RULE_NAMES
        )

    # -- plumbing

    def merge(
        self,
        ctx: TypingContext,
        left: ProtocolType,
        right: ProtocolType,
        path: tuple[str, ...],
    ) -> tuple[ProtocolType, tuple[MergeStep, ...]] | None:
        key = (id(ctx), left, right)
        hit = self.memo.get(key, _MISS)
        if hit is not _MISS:
            if hit is None or hit[0] == "fail":
                self._note_failure(path, () if hit is None else hit[1])
                return None
            return hit[1], hit[2]
        # Guard against re-entering the same subproblem while it is open.
        self.memo[key] = ("fail", ())
        attempts: list[tuple[str, _Refused]] = []
        for name, rule in self.rules:
            outcome = rule(ctx, left, right, path)
            if outcome is None:
                continue
            if isinstance(outcome, _Applied):
                self.memo[key] = ("ok", outcome.result, outcome.steps)
                return outcome.result, outcome.steps
            attempts.append((name, outcome))
        record = tuple(attempts)
        self.memo[key] = ("fail", record)
        self._note_failure(path, record)
        return None

    def _note_failure(self, path: tuple[str, ...], attempts) -> None:
        if len(path) > self.deepest_depth:
            self.deepest_depth = len(path)
            self.deepest_path = path
            self.deepest_attempts = tuple(attempts)

    def diagnostic(self, left: ProtocolType, right: ProtocolType) -> Diagnostic:
        location = "/".join(self.deepest_path) or "root"
        kinds = {r.kind for _, r in self.deepest_attempts}
        if self.undecidable:
            kind = DiagnosticKind.ENTAILMENT_UNDECIDABLE
        elif _DATATYPE in kinds:
            kind = DiagnosticKind.DATATYPE_MISMATCH
        elif _ENTAILMENT in kinds:
            kind = DiagnosticKind.ENTAILMENT_FAILED
        else:
            kind = DiagnosticKind.DEADLOCK_SUSPECTED
        trace = tuple(RuleAttempt(name, r.text()) for name, r in self.deepest_attempts)
        if not trace:
            trace = (
                RuleAttempt(
                    "none",
                    f"no rule matches {compact_protocol(left)} against {compact_protocol(right)}",
                ),
            )
        return Diagnostic(kind, location, trace)

    def _extend(self, ctx: TypingContext, name: str, dtype: Datatype) -> TypingContext:
        """ctx.extend, giving back the same object for the same extension."""
        key = (id(ctx), name, dtype)
        extended = self.extensions.get(key)
        if extended is None:
            extended = self.extensions[key] = ctx.extend(name, dtype)
        return extended

    def _avoids(self, ctx: TypingContext, m: Message, side: IndexTerm):
        """(verdict, proposition) of "m's endpoints both differ from side",
        asked of entails once per context, endpoints and side."""
        key = (id(ctx), side, m.src, m.dst)
        fact = self.avoids.get(key)
        if fact is None:
            p = _both_endpoints_differ(m, side)
            fact = self.avoids[key] = (entails(ctx, p, self.enum_cap), p)
        if fact[0] is Verdict.UNDECIDABLE:
            self.undecidable = True
        return fact

    def _messages(
        self, ctx: TypingContext, lm: ProtocolType, rm: ProtocolType, names: Sequence[str]
    ) -> list:
        """The named message premises on left message lm and right message rm."""
        checks = []
        for name in names:
            operand, side, want = _AVOIDS[name]
            m = lm if operand == "left" else rm
            verdict, p = self._avoids(ctx, m, _RANK if side == "merged" else self.k_term)
            checks.append((verdict is want, PremiseCheck(name, p, verdict.value), _STRUCTURAL))
        return checks

    def _entail(self, ctx: TypingContext, name: str, p: Proposition, kind: str):
        verdict = entails(ctx, p, self.enum_cap)
        if verdict is Verdict.UNDECIDABLE:
            self.undecidable = True
        return verdict is Verdict.VALID, PremiseCheck(name, p, verdict.value), kind

    def _payload_equiv(self, ctx, d1, d2):
        try:
            ok = dtype_equiv(ctx, d1, d2, self.enum_cap)
            verdict = "equivalent" if ok else "different"
        except UndecidableEquivalence:
            self.undecidable = True
            ok, verdict = False, "Undecidable"
        return ok, PremiseCheck("payload-equivalent", (d1, d2), verdict), _DATATYPE

    def _run_premises(self, checks) -> tuple[_Refused | None, tuple[PremiseCheck, ...]]:
        """Take (ok, PremiseCheck, kind) triples in order; refuse at the first
        that failed. The caller evaluates every premise of the rule first, so
        an undecidable one marks the engine even after an earlier failure."""
        done: list[PremiseCheck] = []
        for ok, check, kind in checks:
            done.append(check)
            if not ok:
                return _Refused(check, kind), tuple(done)
        return None, tuple(done)

    # -- message rules

    def _message_rule(self, name, ctx, left, right, path):
        lshape, rshape, names, conclude = _MESSAGE_RULES[name]
        if not (isinstance(left, lshape) and isinstance(right, rshape)):
            return None
        refused, premises = self._run_premises(self._messages(ctx, left, right, names))
        if refused:
            return refused
        return _Applied(conclude(left, right), (MergeStep(name, left, right, premises),))

    def _rule_msg_msg_eq(self, ctx, left, right, path):
        if not (isinstance(left, Message) and isinstance(right, Message)):
            return None
        endpoints = And(Cmp("=", left.src, right.src), Cmp("=", left.dst, right.dst))
        refused, premises = self._run_premises(
            self._messages(ctx, left, right, ("left-real", "right-real"))
            + [
                self._entail(ctx, "endpoints-equal", endpoints, _STRUCTURAL),
                self._payload_equiv(ctx, left.payload, right.payload),
            ]
        )
        if refused:
            return refused
        return _Applied(left, (MergeStep("msg-msg-eq", left, right, premises),))

    # -- collective and structural rules

    def _rule_allred_allred(self, ctx, left, right, path):
        if not (isinstance(left, Allreduce) and isinstance(right, Allreduce)):
            return None
        op_check = PremiseCheck(
            "op-equal",
            f"{left.op.value} = {right.op.value}",
            "equal" if left.op is right.op else "different",
        )
        refused, premises = self._run_premises(
            [
                (left.op is right.op, op_check, _ENTAILMENT),
                self._payload_equiv(ctx, left.payload, right.payload),
            ]
        )
        if refused:
            return refused
        binder = left.binder
        rcont = right.cont
        if right.binder != binder:
            rcont = subst_type(rcont, {right.binder: Var(binder)})
        sub = self.merge(self._extend(ctx, binder, left.payload), left.cont, rcont, path + ("allreduce.cont",))
        if sub is None:
            return _Refused("continuations do not merge", _SUBMERGE)
        cont, substeps = sub
        result = Allreduce(left.op, binder, left.payload, cont)
        return _Applied(result, (MergeStep("allred-allred", left, right, premises),) + substeps)

    def _rule_foreach_foreach(self, ctx, left, right, path):
        if not (isinstance(left, Foreach) and isinstance(right, Foreach)):
            return None
        bounds = And(Cmp("=", left.lo, right.lo), Cmp("=", left.hi, right.hi))
        refused, premises = self._run_premises(
            [self._entail(ctx, "bounds-equal", bounds, _ENTAILMENT)]
        )
        if refused:
            return refused
        binder = left.binder
        rbody = right.body
        if right.binder != binder:
            rbody = subst_type(rbody, {right.binder: Var(binder)})
        y = _fresh("y", index_vars(left.lo) | index_vars(left.hi) | {binder})
        entry = Refined(
            y, Integer(), And(Cmp("<=", left.lo, Var(y)), Cmp("<=", Var(y), left.hi))
        )
        sub = self.merge(self._extend(ctx, binder, entry), left.body, rbody, path + (f"foreach[{binder}].body",))
        if sub is None:
            return _Refused("loop bodies do not merge", _SUBMERGE)
        body, substeps = sub
        result = Foreach(binder, left.lo, left.hi, body)
        return _Applied(result, (MergeStep("foreach-foreach", left, right, premises),) + substeps)

    def _rule_seq_seq(self, ctx, left, right, path):
        if not (isinstance(left, Seq) or isinstance(right, Seq)):
            return None
        if isinstance(left, Skip) or isinstance(right, Skip):
            return None
        lh, lt = _seq_parts(left)
        rh, rt = _seq_parts(right)
        sub1 = self.merge(ctx, lh, rh, path + ("seq.first",))
        if sub1 is None:
            return _Refused("first components do not merge", _SUBMERGE)
        sub2 = self.merge(ctx, lt, rt, path + ("seq.second",))
        if sub2 is None:
            return _Refused("second components do not merge", _SUBMERGE)
        (t5, steps1), (t6, steps2) = sub1, sub2
        result = concat(t5, t6)
        return _Applied(result, (MergeStep("seq-seq", left, right, ()),) + steps1 + steps2)

    def _rule_skip_msgT(self, ctx, left, right, path):
        if not (
            isinstance(left, Skip) and isinstance(right, Seq) and isinstance(right.first, Message)
        ):
            return None
        sub1 = self.merge(ctx, Skip(), right.first, path + ("seq.head",))
        if sub1 is None:
            return _Refused("head does not merge against skip", _SUBMERGE)
        sub2 = self.merge(ctx, Skip(), right.second, path + ("seq.tail",))
        if sub2 is None:
            return _Refused("tail does not merge against skip", _SUBMERGE)
        (head, steps1), (tail, steps2) = sub1, sub2
        result = concat(head, tail)
        return _Applied(result, (MergeStep("skip-msgT", left, right, ()),) + steps1 + steps2)

    def _rule_msgT_skipT(self, ctx, left, right, path):
        if not (
            isinstance(right, Skip) and isinstance(left, Seq) and isinstance(left.first, Message)
        ):
            return None
        sub1 = self.merge(ctx, left.first, Skip(), path + ("seq.head",))
        if sub1 is None:
            return _Refused("head does not merge against skip", _SUBMERGE)
        sub2 = self.merge(ctx, left.second, Skip(), path + ("seq.tail",))
        if sub2 is None:
            return _Refused("tail does not merge against skip", _SUBMERGE)
        (head, steps1), (tail, steps2) = sub1, sub2
        result = concat(head, tail)
        return _Applied(result, (MergeStep("msgT-skipT", left, right, ()),) + steps1 + steps2)

    def _rule_msgT_msgT_left(self, ctx, left, right, path):
        if not (isinstance(left, Seq) or isinstance(right, Seq)):
            return None
        lh, lt = _seq_parts(left)
        rh, _ = _seq_parts(right)
        if not (isinstance(lh, Message) and isinstance(rh, Message)):
            return None
        # The left head is emitted first; it must be invisible to rank k,
        # whose own first action is the right head.
        refused, premises = self._run_premises(
            self._messages(ctx, lh, rh, ("left-real", "left-avoids-k", "right-real"))
        )
        if refused:
            return refused
        sub = self.merge(ctx, lt, right, path + ("seq.tail-vs-right",))
        if sub is None:
            return _Refused("left tail does not merge against the right type", _SUBMERGE)
        rest, substeps = sub
        result = concat(lh, rest)
        return _Applied(result, (MergeStep("msgT-msgT-left", left, right, premises),) + substeps)

    def _rule_msgT_msgT_right(self, ctx, left, right, path):
        if not (isinstance(left, Seq) or isinstance(right, Seq)):
            return None
        lh, _ = _seq_parts(left)
        rh, rt = _seq_parts(right)
        if not (isinstance(lh, Message) and isinstance(rh, Message)):
            return None
        refused, premises = self._run_premises(
            self._messages(ctx, lh, rh, ("right-real", "right-avoids-merged", "left-real"))
        )
        if refused:
            return refused
        sub = self.merge(ctx, left, rt, path + ("left-vs-seq.tail",))
        if sub is None:
            return _Refused("left type does not merge against the right tail", _SUBMERGE)
        rest, substeps = sub
        result = concat(rh, rest)
        return _Applied(result, (MergeStep("msgT-msgT-right", left, right, premises),) + substeps)


def _validate_merge_inputs(ctx: TypingContext, k: int) -> None:
    if ctx.lookup("size") is None or ctx.lookup("rank") is None:
        raise InvalidRankSet("merge context must bind both size and rank")
    size = singleton_env(ctx).get("size")
    if size is not None and not 0 <= k < size:
        raise InvalidRankSet(f"rank {k} out of range for size {size}")
    domain = domain_of(ctx, "rank")
    if isinstance(domain, FiniteSet) and k in domain.values:
        raise InvalidRankSet(f"rank {k} is already part of the merged set {domain.values}")


def merge_types(
    ctx: TypingContext,
    left: ProtocolType,
    right: ProtocolType,
    k: int,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> tuple[ProtocolType, MergeTrace]:
    """Merge the accumulated type with rank k's local type under ctx.

    Raises MergeFailure (with a Diagnostic) when no derivation exists.
    """
    left, right = normalize_seq(left), normalize_seq(right)
    _validate_merge_inputs(ctx, k)
    engine = _Engine(k, enum_cap)
    outcome = engine.merge(ctx, left, right, ())
    if outcome is None:
        raise MergeFailure(engine.diagnostic(left, right))
    result, steps = outcome
    return result, MergeTrace(steps)


def attempt_rule(
    ctx: TypingContext,
    rule: str,
    left: ProtocolType,
    right: ProtocolType,
    k: int,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> ProtocolType | None:
    """Apply exactly one named rule at the root (subgoals use the full engine).

    Returns the rule's conclusion, or None when the rule is inapplicable,
    whether because the operand shapes do not match or a premise fails.
    """
    engine = _Engine(k, enum_cap)
    for name, fn in engine.rules:
        if name == rule:
            outcome = fn(ctx, normalize_seq(left), normalize_seq(right), ())
            return outcome.result if isinstance(outcome, _Applied) else None
    raise ValueError(f"unknown merge rule {rule!r}; expected one of {', '.join(RULE_NAMES)}")


# ---------------------------------------------------------------------------
# Folding all ranks


def _head_unfoldable(ctx: TypingContext, t: ProtocolType, unroll: int) -> bool:
    head, _ = _seq_parts(t)
    if not isinstance(head, Foreach):
        return False
    try:
        lo, hi = _constant_bounds(ctx, head)
    except NonConstantBounds:
        return False
    return hi - lo + 1 <= unroll


def _unfold_head(ctx: TypingContext, t: ProtocolType) -> ProtocolType:
    head, rest = _seq_parts(t)
    return concat(unfold_foreach(ctx, head), rest)


def merge_all(
    n: int,
    local_types: Sequence[tuple[int, ProtocolType]],
    order: Sequence[int] | None = None,
    enum_cap: int = DEFAULT_ENUM_CAP,
    unroll: int = DEFAULT_UNROLL,
) -> tuple[ProtocolType, list[MergeTrace]]:
    """Fold merge_types over all ranks in the given order (default 0..n-1).

    When a step fails and exactly one side starts with a small constant-bound
    foreach (at most `unroll` iterations), that side is unfolded and the step
    retried once.
    """
    types = dict(local_types)
    if len(types) != len(local_types):
        raise ValueError("duplicate rank in local types")
    if set(types) != set(range(n)):
        raise ValueError(f"local types must cover ranks 0..{n - 1} exactly once")
    sequence = list(order) if order is not None else list(range(n))
    if sorted(sequence) != list(range(n)):
        raise ValueError(f"order {sequence} is not a permutation of 0..{n - 1}")

    merged = [sequence[0]]
    accumulated = types[sequence[0]]
    traces: list[MergeTrace] = []
    for k in sequence[1:]:
        ctx = merged_context(n, merged)
        try:
            accumulated, trace = _merge_step(ctx, accumulated, types[k], k, enum_cap, unroll)
        except MergeFailure as failure:
            raise failure.annotated(
                f"merging rank {k} into ranks {sorted(merged)}"
            ) from None
        traces.append(trace)
        merged.append(k)
    return accumulated, traces


def _merge_step(
    ctx: TypingContext,
    left: ProtocolType,
    right: ProtocolType,
    k: int,
    enum_cap: int,
    unroll: int,
) -> tuple[ProtocolType, MergeTrace]:
    try:
        return merge_types(ctx, left, right, k, enum_cap)
    except MergeFailure:
        # The heads are those of the normal forms merge_types worked on.
        left, right = normalize_seq(left), normalize_seq(right)
        left_unfoldable = _head_unfoldable(ctx, left, unroll)
        right_unfoldable = _head_unfoldable(ctx, right, unroll)
        if left_unfoldable == right_unfoldable:
            raise
        if left_unfoldable:
            left = _unfold_head(ctx, left)
        else:
            right = _unfold_head(ctx, right)
        return merge_types(ctx, left, right, k, enum_cap)
