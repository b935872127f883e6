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
from typing import Iterable, NamedTuple, Sequence

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


class _Both(NamedTuple):
    """The proposition `a op b and c op d`, kept as its parts and built when
    it is read."""

    op: str
    a: IndexTerm
    b: IndexTerm
    c: IndexTerm
    d: IndexTerm

    def proposition(self) -> Proposition:
        return And(Cmp(self.op, self.a, self.b), Cmp(self.op, self.c, self.d))


@dataclass(frozen=True, slots=True)
class PremiseCheck:
    """One premise a rule checked. `claim` is the proposition or the payload
    pair it decided (or the formula text itself); `formula` renders it. The
    engine states its propositions as `_Both` parts, built when read."""

    name: str
    stated: Proposition | _Both | tuple[Datatype, Datatype] | str
    verdict: str

    @property
    def claim(self) -> Proposition | tuple[Datatype, Datatype] | str:
        stated = self.stated
        return stated.proposition() if type(stated) is _Both else stated

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

# The avoidance premises judged against each side. One verdict of "the
# message avoids that side" decides all three.
_SIDE_PREMISES = {
    side: tuple(name for name, (_, judged, _) in _AVOIDS.items() if judged == side)
    for side in ("merged", "k")
}

# The premises that judge the left operand's message.
_ON_LEFT = frozenset(name for name, (operand, _, _) in _AVOIDS.items() if operand == "left")

# Non-interference: the left message never touches rank k, the right message
# never touches an already-merged rank, so the two orders are
# indistinguishable to every rank involved.
_NON_INTERFERENCE = ("left-real", "left-avoids-k", "right-real", "right-avoids-merged")


def _seq_parts(t: ProtocolType) -> tuple[ProtocolType, ProtocolType]:
    if isinstance(t, Seq):
        return t.first, t.second
    return t, Skip()


def _by_membership(ends: tuple[IndexTerm, ...], holds) -> Verdict | None:
    """Valid when `holds` of the endpoints' values, else Invalid; None
    unless every endpoint is an integer literal."""
    for e in ends:
        if type(e) is not IntLit:
            return None
    return Verdict.VALID if holds(*[e.value for e in ends]) else Verdict.INVALID


def _fresh(base: str, avoid: Iterable[str]) -> str:
    taken = set(avoid)
    name = base
    while name in taken:
        name += "'"
    return name


# ---------------------------------------------------------------------------
# Operand shapes
#
# The rules are syntax-directed: an operand's shape class decides which
# rules can fire on it. A sequence is message-headed when its head is a
# message; any other sequence (headed by a loop, an allreduce, or, outside
# normal form, by a sequence) is an other sequence.

_SKIP, _MSG, _MSG_SEQ, _SEQ, _FOREACH, _ALLRED = (
    "skip", "message", "message-headed sequence", "other sequence", "foreach", "allreduce"
)
_SHAPES = (_SKIP, _MSG, _MSG_SEQ, _SEQ, _FOREACH, _ALLRED)
_SHAPE_OF = {Skip: _SKIP, Message: _MSG, Foreach: _FOREACH, Allreduce: _ALLRED}


def _shape(t: ProtocolType) -> str | None:
    if type(t) is Seq:
        return _MSG_SEQ if type(t.first) is Message else _SEQ
    return _SHAPE_OF.get(type(t))


def _pair(lshape: str, rshape: str):
    """The shape test that accepts exactly one pair of shape classes."""
    return lambda l, r: l == lshape and r == rshape


def _seq_pair(l: str, r: str) -> bool:
    """seq-seq's shape test: a sequence on either side, skip on neither."""
    return (l in (_MSG_SEQ, _SEQ) or r in (_MSG_SEQ, _SEQ)) and _SKIP not in (l, r)


def _headed_pair(l: str, r: str) -> bool:
    """msgT-msgT's shape test: each side a message or a message-headed
    sequence, and at least one side a sequence."""
    return _MSG_SEQ in (l, r) and l in (_MSG, _MSG_SEQ) and r in (_MSG, _MSG_SEQ)


# ---------------------------------------------------------------------------
# The rules
#
# A rule is a shape test and a function (engine, ctx, left, right). The
# shape test takes the operands' shape classes; the function is called only
# on operands it accepts. The function returns (premises, subgoals,
# conclude): the premises as (ok, PremiseCheck, kind) triples in the order
# checked, all evaluated; the sub-merges as (ctx, left, right, path label,
# refusal text), merged in order; and `conclude`, from the sub-merges'
# results to the rule's conclusion.


def _message_rule(lshape, rshape, names, conclude):
    """A rule on two single operands, each a message or skip, that checks
    the named message premises only."""

    def rule(engine, ctx, left, right):
        return engine.messages(ctx, left, right, names), (), lambda: conclude(left, right)

    return _pair(lshape, rshape), rule


def _msg_msg_eq(engine, ctx, left, right):
    ends = (left.src, right.src, left.dst, right.dst)
    premises = engine.messages(ctx, left, right, ("left-real", "right-real")) + [
        engine.entail(
            ctx, "endpoints-equal", _Both("=", *ends), _STRUCTURAL,
            ends, lambda ls, rs, ld, rd: ls == rs and ld == rd,
        ),
        engine.payload_equiv(ctx, left.payload, right.payload),
    ]
    return premises, (), lambda: left


def _allred_allred(engine, ctx, left, right):
    same_op = left.op is right.op
    op_check = PremiseCheck(
        "op-equal", f"{left.op.value} = {right.op.value}", "equal" if same_op else "different"
    )
    premises = [
        (same_op, op_check, _ENTAILMENT),
        engine.payload_equiv(ctx, left.payload, right.payload),
    ]
    binder, rbinder = left.binder, right.binder
    rcont = right.cont if rbinder == binder else subst_type(right.cont, {rbinder: Var(binder)})
    cont = (engine.extend(ctx, binder, left.payload), left.cont, rcont)
    subgoal = cont + ("allreduce.cont", "continuations do not merge")
    return premises, (subgoal,), lambda c: Allreduce(left.op, binder, left.payload, c)


def _foreach_foreach(engine, ctx, left, right):
    bounds = _Both("=", left.lo, right.lo, left.hi, right.hi)
    premises = [engine.entail(ctx, "bounds-equal", bounds, _ENTAILMENT)]
    binder, rbinder = left.binder, right.binder
    rbody = right.body if rbinder == binder else subst_type(right.body, {rbinder: Var(binder)})
    y = _fresh("y", index_vars(left.lo) | index_vars(left.hi) | {binder})
    entry = Refined(
        y, Integer(), And(Cmp("<=", left.lo, Var(y)), Cmp("<=", Var(y), left.hi))
    )
    body = (engine.extend(ctx, binder, entry), left.body, rbody)
    subgoal = body + (f"foreach[{binder}].body", "loop bodies do not merge")
    return premises, (subgoal,), lambda b: Foreach(binder, left.lo, left.hi, b)


def _seq_seq(engine, ctx, left, right):
    (lh, lt), (rh, rt) = _seq_parts(left), _seq_parts(right)
    first = (ctx, lh, rh, "seq.first", "first components do not merge")
    return (), (first, (ctx, lt, rt, "seq.second", "second components do not merge")), concat


def _skip_vs_seq(flip: bool):
    """skip-msgT: skip against a sequence headed by a message merges the head
    and the tail against skip. With flip, msgT-skipT: the sequence is left."""

    def rule(engine, ctx, left, right):
        skip, seq = (right, left) if flip else (left, right)

        def goal(part, label, text):
            return (ctx, part, skip, label, text) if flip else (ctx, skip, part, label, text)

        head = goal(seq.first, "seq.head", "head does not merge against skip")
        return (), (head, goal(seq.second, "seq.tail", "tail does not merge against skip")), concat

    return (_pair(_MSG_SEQ, _SKIP) if flip else _pair(_SKIP, _MSG_SEQ)), rule


def _msgT_msgT(emit_right: bool):
    """msgT-msgT-left: the left head is emitted first; it must be invisible to
    rank k, whose own first action is the right head. With emit_right,
    msgT-msgT-right: the right head goes first, invisible to the merged ranks."""
    if emit_right:
        names = ("right-real", "right-avoids-merged", "left-real")
        labels = ("left-vs-seq.tail", "left type does not merge against the right tail")
    else:
        names = ("left-real", "left-avoids-k", "right-real")
        labels = ("seq.tail-vs-right", "left tail does not merge against the right type")

    def rule(engine, ctx, left, right):
        lh, lt = _seq_parts(left)
        rh, rt = _seq_parts(right)
        head, rest = (rh, (ctx, left, rt)) if emit_right else (lh, (ctx, lt, right))
        premises = engine.messages(ctx, lh, rh, names)
        return premises, (rest + labels,), lambda r: concat(head, r)

    return _headed_pair, rule


# The rules in the order the engine tries them: name -> (shape test, rule).
_RULES = {
    "skip-skip": _message_rule(_SKIP, _SKIP, (), lambda l, r: Skip()),
    "skip-msgS": _message_rule(_SKIP, _MSG, ("right-skip-like",), lambda l, r: Skip()),
    "msgS-skip": _message_rule(_MSG, _SKIP, ("left-skip-like",), lambda l, r: Skip()),
    "msgS-msgS": _message_rule(
        _MSG, _MSG, ("left-skip-like", "right-skip-like"), lambda l, r: Skip()
    ),
    "msg-skip": _message_rule(_MSG, _SKIP, ("left-real", "left-avoids-k"), lambda l, r: l),
    "skip-msg": _message_rule(_SKIP, _MSG, ("right-avoids-merged", "right-real"), lambda l, r: r),
    "msg-msgS": _message_rule(
        _MSG, _MSG, ("left-real", "left-avoids-k", "right-skip-like"), lambda l, r: l
    ),
    "msgS-msg": _message_rule(
        _MSG, _MSG, ("left-skip-like", "right-real", "right-avoids-merged"), lambda l, r: r
    ),
    "msg-msg-eq": (_pair(_MSG, _MSG), _msg_msg_eq),
    "allred-allred": (_pair(_ALLRED, _ALLRED), _allred_allred),
    "foreach-foreach": (_pair(_FOREACH, _FOREACH), _foreach_foreach),
    "seq-seq": (_seq_pair, _seq_seq),
    "skip-msgT": _skip_vs_seq(flip=False),
    "msgT-skipT": _skip_vs_seq(flip=True),
    "msg-msg-right": _message_rule(_MSG, _MSG, _NON_INTERFERENCE, lambda l, r: Seq(r, l)),
    "msg-msg-left": _message_rule(_MSG, _MSG, _NON_INTERFERENCE, lambda l, r: Seq(l, r)),
    "msgT-msgT-left": _msgT_msgT(emit_right=False),
    "msgT-msgT-right": _msgT_msgT(emit_right=True),
}
RULE_NAMES = tuple(_RULES)

# (left shape, right shape) -> the (name, rule) pairs whose shape test
# accepts it, in table order.
_INDEX = {
    (l, r): tuple((name, rule) for name, (fits, rule) in _RULES.items() if fits(l, r))
    for l in _SHAPES
    for r in _SHAPES
}


def _offered(left: ProtocolType, right: ProtocolType):
    """The rules whose shape test accepts left and right, in table order."""
    return _INDEX.get((_shape(left), _shape(right)), ())


class _Engine:
    def __init__(
        self, ctx: TypingContext, k: int, enum_cap: int, ranks: frozenset[int] | None = None
    ):
        """An engine for merges under ctx, whose `rank` ranges over `ranks`
        when that set is known."""
        self.enum_cap = enum_cap
        # Each side of an avoidance premise: its term, and the ranks it
        # stands for.
        self.sides = {"k": (IntLit(k), frozenset((k,))), "merged": (_RANK, ranks)}
        # The tables below key a context by its id. Every context the
        # engine sees outlives it (the caller's, and those it interns in
        # `extensions`), so an id names one of them for the engine's life.
        # Types and index terms are interned, so they key by identity.
        # (id(context), left, right) -> _Applied, or the refused attempts
        # (() while the subproblem is open)
        self.memo: dict = {}
        # (id(context), premise name, src, dst) -> (ok, PremiseCheck, kind)
        self.premises: dict = {}
        # (id(context), name, datatype) -> the extended context
        self.extensions: dict = {}
        # ids of the contexts whose `rank` ranges over `ranks`. There,
        # entails enumerates just those ranks (its budget covers them), so
        # a premise on literal endpoints gets its verdict by membership.
        self.ground = {id(ctx)} if ranks is not None and len(ranks) <= enum_cap else set()
        self.undecidable = False
        self.deepest_depth = -1
        self.deepest_path: tuple[str, ...] = ()
        self.deepest_attempts: tuple[tuple[str, _Refused], ...] = ()

    # -- derivation

    def merge(
        self,
        ctx: TypingContext,
        left: ProtocolType,
        right: ProtocolType,
        path: tuple[str, ...],
    ) -> _Applied | None:
        key = (id(ctx), left, right)
        outcome = self.memo.get(key)
        if outcome is None:
            # Guard against re-entering the same subproblem while it is open.
            self.memo[key] = ()
            attempts: list[tuple[str, _Refused]] = []
            for name, rule in _offered(left, right):
                outcome = self.apply(name, rule, ctx, left, right, path)
                if isinstance(outcome, _Applied):
                    break
                attempts.append((name, outcome))
            else:
                outcome = tuple(attempts)
            self.memo[key] = outcome
        if isinstance(outcome, _Applied):
            return outcome
        # The diagnostic reports the deepest subproblem every rule refused.
        if len(path) > self.deepest_depth:
            self.deepest_depth = len(path)
            self.deepest_path = path
            self.deepest_attempts = outcome
        return None

    def apply(self, name, rule, ctx, left, right, path) -> _Applied | _Refused:
        """One rule at one node whose shapes it accepts: its derivation or why
        it was refused. The rule evaluates every premise before any is
        judged, so an undecidable one marks the engine even after an earlier
        failure."""
        checks, subgoals, conclude = rule(self, ctx, left, right)
        premises: list[PremiseCheck] = []
        for ok, check, kind in checks:
            premises.append(check)
            if not ok:
                return _Refused(check, kind)
        results = []
        substeps: tuple[MergeStep, ...] = ()
        for sub_ctx, sub_left, sub_right, label, refusal in subgoals:
            sub = self.merge(sub_ctx, sub_left, sub_right, path + (label,))
            if sub is None:
                return _Refused(refusal, _SUBMERGE)
            results.append(sub.result)
            substeps += sub.steps
        step = MergeStep(name, left, right, tuple(premises))
        return _Applied(conclude(*results), (step,) + substeps)

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
        # The refusals are rendered when they are read.
        trace = tuple(RuleAttempt(name, r.text) for name, r in self.deepest_attempts)
        if not trace:
            trace = (
                RuleAttempt(
                    "none",
                    lambda: f"no rule matches {compact_protocol(left)} against "
                    f"{compact_protocol(right)}",
                ),
            )
        return Diagnostic(kind, location, trace)

    # -- premises and contexts, for the rules

    def extend(self, ctx: TypingContext, name: str, dtype: Datatype) -> TypingContext:
        """ctx.extend, giving back the same object for the same extension."""
        key = (id(ctx), name, dtype)
        extended = self.extensions.get(key)
        if extended is None:
            extended = self.extensions[key] = ctx.extend(name, dtype)
            # A binder that shadows a name (`rank`, or one its refinement
            # mentions) may change what `rank` ranges over.
            if id(ctx) in self.ground and ctx.lookup(name) is None:
                self.ground.add(id(extended))
        return extended

    def decide(self, ctx: TypingContext, p: _Both, ends=(), holds=None) -> Verdict:
        """The verdict of premise p under ctx: by membership (`holds` of the
        literal endpoints `ends`) where ctx's `rank` ranges over the merged
        ranks, else by entails on p's proposition."""
        verdict = None
        if holds is not None and id(ctx) in self.ground:
            verdict = _by_membership(ends, holds)
        if verdict is None:
            verdict = entails(ctx, p.proposition(), self.enum_cap)
            if verdict is Verdict.UNDECIDABLE:
                self.undecidable = True
        return verdict

    def avoidance(self, ctx: TypingContext, name: str, m: Message):
        """The named avoidance premise on message m. Its side is decided once
        per context and endpoints, for all three premises judged against it."""
        key = (id(ctx), name, m.src, m.dst)
        premise = self.premises.get(key)
        if premise is None:
            side = _AVOIDS[name][1]
            term, ranks = self.sides[side]
            p = _Both("!=", m.src, term, m.dst, term)
            verdict = self.decide(
                ctx, p, (m.src, m.dst), lambda src, dst: src not in ranks and dst not in ranks
            )
            value = verdict.value
            for other in _SIDE_PREMISES[side]:
                ok = verdict is _AVOIDS[other][2]
                check = (ok, PremiseCheck(other, p, value), _STRUCTURAL)
                self.premises[(id(ctx), other, m.src, m.dst)] = check
            premise = self.premises[key]
        return premise

    def messages(
        self, ctx: TypingContext, lm: ProtocolType, rm: ProtocolType, names: Sequence[str]
    ) -> list:
        """The named message premises on left message lm and right message rm,
        read from the table where their side is already decided."""
        table, cid = self.premises, id(ctx)
        premises = []
        for name in names:
            m = lm if name in _ON_LEFT else rm
            premise = table.get((cid, name, m.src, m.dst))
            premises.append(premise if premise is not None else self.avoidance(ctx, name, m))
        return premises

    def entail(self, ctx: TypingContext, name: str, p: _Both, kind: str, ends=(), holds=None):
        """The premise that ctx entails p, decided as `decide` does."""
        verdict = self.decide(ctx, p, ends, holds)
        return verdict is Verdict.VALID, PremiseCheck(name, p, verdict.value), kind

    def payload_equiv(self, ctx, d1, d2):
        try:
            ok = dtype_equiv(ctx, d1, d2, self.enum_cap)
            verdict = "equivalent" if ok else "different"
        except UndecidableEquivalence:
            self.undecidable = True
            ok, verdict = False, "Undecidable"
        return ok, PremiseCheck("payload-equivalent", (d1, d2), verdict), _DATATYPE


def _validate_merge_inputs(ctx: TypingContext, k: int) -> frozenset[int] | None:
    """Check ctx and k; give back the merged ranks when `rank`'s domain is finite."""
    if ctx.lookup("size") is None or ctx.lookup("rank") is None:
        raise InvalidRankSet("merge context must bind both size and rank")
    size = singleton_env(ctx).get("size")
    if size is not None and not 0 <= k < size:
        raise InvalidRankSet(f"rank {k} out of range for size {size}")
    domain = domain_of(ctx, "rank")
    if isinstance(domain, FiniteSet):
        if k in domain.values:
            raise InvalidRankSet(f"rank {k} is already part of the merged set {domain.values}")
        return frozenset(domain.values)
    return None


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
    return _merge_normal(ctx, normalize_seq(left), normalize_seq(right), k, enum_cap)


def _merge_normal(
    ctx: TypingContext, left: ProtocolType, right: ProtocolType, k: int, enum_cap: int
) -> tuple[ProtocolType, MergeTrace]:
    """merge_types on operands already in sequence normal form."""
    ranks = _validate_merge_inputs(ctx, k)
    engine = _Engine(ctx, k, enum_cap, ranks)
    outcome = engine.merge(ctx, left, right, ())
    if outcome is None:
        raise MergeFailure(engine.diagnostic(left, right))
    return outcome.result, MergeTrace(outcome.steps)


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
    if rule not in _RULES:
        raise ValueError(f"unknown merge rule {rule!r}; expected one of {', '.join(RULE_NAMES)}")
    fits, fn = _RULES[rule]
    left, right = normalize_seq(left), normalize_seq(right)
    if not fits(_shape(left), _shape(right)):
        return None
    outcome = _Engine(ctx, k, enum_cap).apply(rule, fn, ctx, left, right, ())
    return outcome.result if isinstance(outcome, _Applied) else None


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
    Each local type is put in sequence normal form once, as it enters the
    fold, so the result is a normal form even for n = 1.

    When a step fails and exactly one side starts with a small constant-bound
    foreach (at most `unroll` iterations), that side is unfolded and the step
    retried once.
    """
    if n < 1:
        raise InvalidRankSet(f"world size must be positive, got {n}")
    types = dict(local_types)
    if len(types) != len(local_types):
        raise ValueError("duplicate rank in local types")
    if set(types) != set(range(n)):
        raise ValueError(f"local types must cover ranks 0..{n - 1} exactly once")
    sequence = list(order) if order is not None else list(range(n))
    if sorted(sequence) != list(range(n)):
        raise ValueError(f"order {sequence} is not a permutation of 0..{n - 1}")

    merged = [sequence[0]]
    # Engine output is normal, so only the local types need normalizing.
    accumulated = normalize_seq(types[sequence[0]])
    traces: list[MergeTrace] = []
    for k in sequence[1:]:
        ctx = merged_context(n, merged)
        try:
            accumulated, trace = _merge_step(
                ctx, accumulated, normalize_seq(types[k]), k, enum_cap, unroll
            )
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
    """One fold step on normal forms, retried once with a loop head unfolded."""
    try:
        return _merge_normal(ctx, left, right, k, enum_cap)
    except MergeFailure:
        left_unfoldable = _head_unfoldable(ctx, left, unroll)
        right_unfoldable = _head_unfoldable(ctx, right, unroll)
        if left_unfoldable == right_unfoldable:
            raise
        if left_unfoldable:
            left = _unfold_head(ctx, left)
        else:
            right = _unfold_head(ctx, right)
        return _merge_normal(ctx, left, right, k, enum_cap)
