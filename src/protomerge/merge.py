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
    _Node,
    _Record,
    build_seq,
    concat,
    deeper,
    eval_index,
    index_vars,
    normalize_seq,
    spine,
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
    "IllFormedMessage",
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


class IllFormedMessage(ProtomergeError):
    """A local type holds a message no run can perform: its literal
    endpoints are equal, or one lies outside the ranks 0..n-1."""


# ---------------------------------------------------------------------------
# Constant-bound loop unfolding


def unfold_foreach(ctx: TypingContext, t: ProtocolType) -> ProtocolType:
    """Replace a constant-bound foreach by its instantiated body sequence.
    The body sits one block deep: a nest deeper than MAX_BLOCK_DEPTH raises
    NestingTooDeep."""
    if type(t) is not Foreach:
        raise ValueError(f"unfold_foreach expects a foreach type, got {type(t).__name__}")
    lo, hi = _constant_bounds(ctx, t)
    instances = [subst_type(t.body, {t.binder: IntLit(v)}, 1) for v in range(lo, hi + 1)]
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


class PremiseCheck(_Node):
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


class MergeStep(_Record):
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


class MergeTrace(_Record):
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


class _Applied(NamedTuple):
    result: ProtocolType
    steps: tuple[MergeStep, ...]


class _Refused(NamedTuple):
    # The failing premise as a rule states it (its check is built when the
    # refusal is read), or why a subgoal failed.
    failed: tuple | str
    # What the refusal suspects. A failed structural premise or sub-merge
    # suspects a deadlock.
    kind: DiagnosticKind

    def text(self) -> str:
        if isinstance(self.failed, str):
            return self.failed
        check = PremiseCheck(*self.failed[2:])
        return f"{check.name}: {check.formula} is {check.verdict}"


class _Unmerged(NamedTuple):
    """Two single messages every rule refused (see `_Engine.diagnostic`)."""

    ctx: TypingContext
    left: Message
    right: Message


_TEXT = {v: v.value for v in Verdict}  # as a trace spells them
_VALID, _INVALID, _UNDECIDABLE = Verdict.VALID.value, Verdict.INVALID.value, Verdict.UNDECIDABLE.value
_EQUIVALENT, _DIFFERENT = "equivalent", "different"
_DEADLOCK = DiagnosticKind.DEADLOCK_SUSPECTED
_ENDPOINTS, _PAYLOADS = "endpoints", "payloads"

# Premises on a left and a right message: name -> (what it judges, the
# verdict it wants, what its failure suspects). It judges that one operand's
# message avoids one side (neither endpoint lies in it), that the endpoints
# are equal, or that the payloads are equivalent. Skip-likeness of the left
# operand is judged against the merged ranks, of the right operand against
# k; "real" is the refutation.
_PAIR_PREMISES = {
    "left-skip-like": (("left", "merged"), _VALID, _DEADLOCK),
    "left-real": (("left", "merged"), _INVALID, _DEADLOCK),
    "left-avoids-k": (("left", "k"), _VALID, _DEADLOCK),
    "right-skip-like": (("right", "k"), _VALID, _DEADLOCK),
    "right-real": (("right", "k"), _INVALID, _DEADLOCK),
    "right-avoids-merged": (("right", "merged"), _VALID, _DEADLOCK),
    "endpoints-equal": (_ENDPOINTS, _VALID, _DEADLOCK),
    "payload-equivalent": (_PAYLOADS, _EQUIVALENT, DiagnosticKind.DATATYPE_MISMATCH),
}

# Non-interference: the left message never touches rank k, the right message
# never touches an already-merged rank, so the two orders are
# indistinguishable to every rank involved.
_NON_INTERFERENCE = ("left-real", "left-avoids-k", "right-real", "right-avoids-merged")


def _seq_parts(t: ProtocolType) -> tuple[ProtocolType, ProtocolType]:
    if type(t) is Seq:
        return t.first, t.second
    return t, Skip()


def _values(ctx: TypingContext, t: IndexTerm, enum_cap: int) -> tuple[int, ...] | None:
    """The values index term t takes under ctx, where they can be read off
    without entails: an integer literal's value, or the merged ranks when t
    is `rank` and ctx binds it to a FiniteSet of at most enum_cap ranks (so
    entails would enumerate them). None elsewhere."""
    if type(t) is IntLit:
        return (t.value,)
    if t is _RANK:
        ranks = ctx.lookup("rank")
        if type(ranks) is FiniteSet and len(ranks.values) <= enum_cap:
            return ranks.values
    return None


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
# A rule is a shape test, a function (engine, ctx, left, right) and, for a
# rule on two single operands, the names of the premises it checks. The
# shape test takes the operands' shape classes; the function is called only
# on operands it accepts. The function returns (premises, subgoals,
# conclude): the premises as (ok, kind, name, claim, verdict) in the order
# checked, all evaluated; the sub-merges as (ctx, left, right, path label,
# refusal text), merged in order; and `conclude`, from the sub-merges'
# results to the rule's conclusion.


def _message_rule(lshape, rshape, names, conclude):
    """A rule on two single operands, each a message or skip, that checks
    the named message premises only."""

    def rule(engine, ctx, left, right):
        return engine.premises(ctx, left, right, names), (), lambda: conclude(left, right)

    return _pair(lshape, rshape), rule, names


def _allred_allred(engine, ctx, left, right):
    same_op = left.op is right.op
    premises = [
        (same_op, DiagnosticKind.ENTAILMENT_FAILED, "op-equal",
         f"{left.op.value} = {right.op.value}", "equal" if same_op else "different"),
    ] + engine.premises(ctx, left, right, ("payload-equivalent",))
    binder, rbinder = left.binder, right.binder
    rcont = right.cont if rbinder == binder else subst_type(right.cont, {rbinder: Var(binder)})
    cont = (ctx.extend(binder, left.payload), left.cont, rcont)
    subgoal = cont + ("allreduce.cont", "continuations do not merge")
    return premises, (subgoal,), lambda c: Allreduce(left.op, binder, left.payload, c)


def _foreach_foreach(engine, ctx, left, right):
    bounds, verdict = engine.judge(ctx, (ctx, "bounds-equal", "=", left.lo, right.lo, left.hi, right.hi))
    premises = [
        (verdict == _VALID, DiagnosticKind.ENTAILMENT_FAILED, "bounds-equal", bounds, verdict)
    ]
    binder, rbinder = left.binder, right.binder
    rbody = right.body if rbinder == binder else subst_type(right.body, {rbinder: Var(binder)})
    y = _fresh("y", index_vars(left.lo) | index_vars(left.hi) | {binder})
    entry = Refined(
        y, Integer(), And(Cmp("<=", left.lo, Var(y)), Cmp("<=", Var(y), left.hi))
    )
    body = (ctx.extend(binder, entry), left.body, rbody)
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

    return (_pair(_MSG_SEQ, _SKIP) if flip else _pair(_SKIP, _MSG_SEQ)), rule, None


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
        premises = engine.premises(ctx, lh, rh, names)
        return premises, (rest + labels,), lambda r: concat(head, r)

    return _headed_pair, rule, None


# The rules in the order the engine tries them: name -> (shape test, rule,
# the premise names of a rule on two single operands, or None).
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
    "msg-msg-eq": _message_rule(
        _MSG, _MSG, ("left-real", "right-real", "endpoints-equal", "payload-equivalent"),
        lambda l, r: l,
    ),
    "allred-allred": (_pair(_ALLRED, _ALLRED), _allred_allred, None),
    "foreach-foreach": (_pair(_FOREACH, _FOREACH), _foreach_foreach, None),
    "seq-seq": (_seq_pair, _seq_seq, None),
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
    (l, r): tuple((name, rule) for name, (fits, rule, _) in _RULES.items() if fits(l, r))
    for l in _SHAPES
    for r in _SHAPES
}

# ---------------------------------------------------------------------------
# Two single messages, decided from their premise verdicts
#
# The rules offered two single messages have no sub-merges, so which applies
# first is a function of what their premises judge. A stage is what the
# next rule judges that no earlier rule did, in its premise order: deciding
# stage by stage decides what offering the rules in turn would, in the same
# order. After each stage the table maps the verdicts so far to the first
# rule up to that stage whose premises they all satisfy.

_PAIR_RULES = _INDEX[(_MSG, _MSG)]


def _pair_stages() -> tuple[list[tuple], list[tuple]]:
    """The stages, and per rule offered two single messages: its name, what
    its premises judge and want, and how many verdicts the stages up to its
    own decide."""
    stages: list[tuple] = []
    rules = []
    for name, _ in _PAIR_RULES:
        wants = tuple(_PAIR_PREMISES[p][:2] for p in _RULES[name][2])
        judged = [j for stage in stages for j in stage]
        new = tuple(dict.fromkeys(j for j, _ in wants if j not in judged))
        stages += [new] if new else []
        rules.append((name, wants, len(judged) + len(new)))
    return stages, rules


_PAIR_STAGES, _PAIR_WANTS = _pair_stages()
_PAIR_JUDGED = [j for stage in _PAIR_STAGES for j in stage]


class _PairTable(dict):
    """The verdicts of the first stages -> the first rule up to them whose
    premises they all satisfy, or None. An entry is worked out the first
    time it is asked for, so importing the module builds none."""

    def __missing__(self, verdicts: tuple[str, ...]) -> str | None:
        got = dict(zip(_PAIR_JUDGED, verdicts))
        self[verdicts] = name = next((
            name for name, wants, decided in _PAIR_WANTS
            if decided <= len(verdicts) and all(got[j] == want for j, want in wants)
        ), None)
        return name


_PAIR_TABLE = _PairTable()


def _offered(left: ProtocolType, right: ProtocolType):
    """The rules whose shape test accepts left and right, in table order."""
    return _INDEX.get((_shape(left), _shape(right)), ())


class _Engine:
    """An engine for merging rank k into the ranks each context's `rank`
    entry stands for. Contexts, types and index terms are interned, so its
    tables key them by identity: a context built twice is one key."""

    def __init__(self, k: int, enum_cap: int):
        self.k = IntLit(k)
        self.enum_cap = enum_cap
        # (context, left, right) -> _Applied, or the refused attempts, or
        # _Unmerged (() while the subproblem is open)
        self.memo: dict = {}
        # (context, what is judged, claim parts) -> (claim, verdict): every
        # premise, decided once.
        self.verdicts: dict = {}
        self.undecidable = False
        self.deepest_depth = -1
        self.deepest_path: tuple[str, ...] = ()
        self.deepest_attempts: tuple[tuple[str, _Refused], ...] | _Unmerged = ()

    # -- derivation

    def merge(
        self,
        ctx: TypingContext,
        left: ProtocolType,
        right: ProtocolType,
        path: tuple[str, ...],
    ) -> _Applied | None:
        key = (ctx, left, right)
        outcome = self.memo.get(key)
        if outcome is None:
            if type(left) is Message and type(right) is Message:
                outcome = self.pair(ctx, left, right)
            else:
                # Guard against re-entering the same subproblem while it is open.
                self.memo[key] = ()
                attempts: list[tuple[str, _Refused]] = []
                for name, rule in _offered(left, right):
                    outcome = self.apply(name, rule, ctx, left, right, path)
                    if type(outcome) is _Applied:
                        break
                    attempts.append((name, outcome))
                else:
                    outcome = tuple(attempts)
            self.memo[key] = outcome
        if type(outcome) is _Applied:
            return outcome
        # The diagnostic reports the deepest subproblem every rule refused.
        if len(path) > self.deepest_depth:
            self.deepest_depth = len(path)
            self.deepest_path = path
            self.deepest_attempts = outcome
        return None

    def pair(self, ctx: TypingContext, left: Message, right: Message) -> _Applied | _Unmerged:
        """Two single messages: decide the stages of _PAIR_STAGES until
        _PAIR_TABLE picks a rule for their verdicts, and apply it."""
        verdicts: tuple[str, ...] = ()
        for stage in _PAIR_STAGES:
            for judged in stage:
                verdicts += (self.premise(ctx, judged, left, right)[1],)
            name = _PAIR_TABLE[verdicts]
            if name is not None:
                # The rule's premises all hold and it has no sub-merges.
                checks, _, conclude = _RULES[name][1](self, ctx, left, right)
                step = MergeStep(name, left, right, tuple(PremiseCheck(*p[2:]) for p in checks))
                return _Applied(conclude(), (step,))
        return _Unmerged(ctx, left, right)

    def apply(self, name, rule, ctx, left, right, path) -> _Applied | _Refused:
        """One rule at one node whose shapes it accepts: its derivation or why
        it was refused. The rule evaluates every premise before any is
        judged, so an undecidable one marks the engine even after an earlier
        failure."""
        checks, subgoals, conclude = rule(self, ctx, left, right)
        for premise in checks:
            if not premise[0]:
                return _Refused(premise, premise[1])
        results = []
        substeps: tuple[MergeStep, ...] = ()
        for sub_ctx, sub_left, sub_right, label, refusal in subgoals:
            sub = self.merge(sub_ctx, sub_left, sub_right, path + (label,))
            if sub is None:
                return _Refused(refusal, DiagnosticKind.DEADLOCK_SUSPECTED)
            results.append(sub.result)
            substeps += sub.steps
        step = MergeStep(name, left, right, tuple(PremiseCheck(*p[2:]) for p in checks))
        return _Applied(conclude(*results), (step,) + substeps)

    def diagnostic(self, left: ProtocolType, right: ProtocolType) -> Diagnostic:
        location = "/".join(self.deepest_path) or "root"
        attempts = self.deepest_attempts
        if type(attempts) is _Unmerged:
            # Every premise of every rule was decided, so offering each rule
            # again decides nothing new.
            attempts = tuple(
                (name, self.apply(name, rule, *attempts, ())) for name, rule in _PAIR_RULES
            )
        kinds = {r.kind for _, r in attempts}
        if self.undecidable:
            kind = DiagnosticKind.ENTAILMENT_UNDECIDABLE
        elif DiagnosticKind.DATATYPE_MISMATCH in kinds:
            kind = DiagnosticKind.DATATYPE_MISMATCH
        elif DiagnosticKind.ENTAILMENT_FAILED in kinds:
            kind = DiagnosticKind.ENTAILMENT_FAILED
        else:
            kind = DiagnosticKind.DEADLOCK_SUSPECTED
        # The refusals are rendered when they are read.
        trace = tuple(RuleAttempt(name, r.text) for name, r in attempts)
        if not trace:
            trace = (
                RuleAttempt(
                    "none",
                    lambda: f"no rule matches {compact_protocol(left)} against "
                    f"{compact_protocol(right)}",
                ),
            )
        return Diagnostic(kind, location, trace)

    # -- premises, for the rules

    def decide(self, ctx: TypingContext, p: _Both) -> Verdict:
        """The verdict of premise p (an equality or a disequality) under
        ctx. Where each of its comparisons sets an integer literal against a
        term whose values `_values` reads off ctx, it holds when it holds for
        every such value, as entails would find; elsewhere entails decides."""
        ok = True
        for lit, term in ((p.a, p.b), (p.c, p.d)):
            values = _values(ctx, term, self.enum_cap) if type(lit) is IntLit else None
            if values is None:
                verdict = entails(ctx, p.proposition(), self.enum_cap)
                if verdict is Verdict.UNDECIDABLE:
                    self.undecidable = True
                return verdict
            ok = ok and (values == (lit.value,) if p.op == "=" else lit.value not in values)
        return Verdict.VALID if ok else Verdict.INVALID

    def judge(self, ctx: TypingContext, key: tuple) -> tuple[_Both | tuple, str]:
        """The claim a verdict table key states and its verdict under ctx,
        decided once. A key is (ctx, what is judged, claim parts): a
        _Both's fields, decided by `decide`, or a payload pair, equivalent
        or different (or Undecidable)."""
        found = self.verdicts.get(key)
        if found is None:
            if key[1] is _PAYLOADS:
                claim = key[2:]
                try:
                    verdict = _EQUIVALENT if dtype_equiv(ctx, *claim, self.enum_cap) else _DIFFERENT
                except UndecidableEquivalence:
                    self.undecidable = True
                    verdict = _UNDECIDABLE
            else:
                claim = _Both(*key[2:])
                verdict = _TEXT[self.decide(ctx, claim)]
            found = self.verdicts[key] = claim, verdict
        return found

    def premise(self, ctx: TypingContext, judged, lm, rm) -> tuple[_Both | tuple, str]:
        """The claim of what a message premise judges (see _PAIR_PREMISES)
        on left message lm and right message rm, and its verdict. A side's
        verdict is one per context and endpoints, whichever operand asks."""
        if judged is _ENDPOINTS:
            key = (ctx, judged, "=", lm.src, rm.src, lm.dst, rm.dst)
        elif judged is _PAYLOADS:
            key = (ctx, judged, lm.payload, rm.payload)
        else:
            operand, side = judged
            m = lm if operand == "left" else rm
            term = _RANK if side == "merged" else self.k
            key = (ctx, "avoids", "!=", m.src, term, m.dst, term)
        return self.verdicts.get(key) or self.judge(ctx, key)

    def premises(self, ctx: TypingContext, lm, rm, names: Sequence[str]) -> list:
        """The named premises (see _PAIR_PREMISES) on left message lm and
        right message rm, as (ok, kind, name, claim, verdict). Only the
        payloads are read for payload-equivalent, so lm and rm may be two
        allreduces."""
        checked = []
        for name in names:
            judged, want, kind = _PAIR_PREMISES[name]
            claim, verdict = self.premise(ctx, judged, lm, rm)
            checked.append((verdict == want, kind, name, claim, verdict))
        return checked


def _validate_merge_inputs(ctx: TypingContext, k: int) -> int | None:
    """Check ctx and k as merge_types requires; returns size when ctx binds
    it to a constant."""
    if ctx.lookup("size") is None or ctx.lookup("rank") is None:
        raise InvalidRankSet("merge context must bind both size and rank")
    size = singleton_env(ctx).get("size")
    if size is not None and not 0 <= k < size:
        raise InvalidRankSet(f"rank {k} out of range for size {size}")
    domain = domain_of(ctx, "rank")
    if type(domain) is FiniteSet and k in domain.values:
        raise InvalidRankSet(f"rank {k} is already part of the merged set {domain.values}")
    return size


def merge_types(
    ctx: TypingContext,
    left: ProtocolType,
    right: ProtocolType,
    k: int,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> tuple[ProtocolType, MergeTrace]:
    """Merge the accumulated type with rank k's local type under ctx.

    Raises MergeFailure (with a Diagnostic) when no derivation exists, and
    IllFormedMessage as merge_all does when ctx binds size to a constant.
    """
    left, right = normalize_seq(left), normalize_seq(right)
    size = _validate_merge_inputs(ctx, k)
    if size is not None:
        _check_messages(left, size, "the merged ranks", 0)
        _check_messages(right, size, f"rank {k}", 0)
    return _merge_normal(ctx, left, right, k, enum_cap)


def _merge_normal(
    ctx: TypingContext, left: ProtocolType, right: ProtocolType, k: int, enum_cap: int
) -> tuple[ProtocolType, MergeTrace]:
    """merge_types on operands already in sequence normal form."""
    _validate_merge_inputs(ctx, k)
    engine = _Engine(k, enum_cap)
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
    Raises InvalidRankSet on the inputs merge_types refuses.
    """
    if rule not in _RULES:
        raise ValueError(f"unknown merge rule {rule!r}; expected one of {', '.join(RULE_NAMES)}")
    _validate_merge_inputs(ctx, k)
    fits, fn, _ = _RULES[rule]
    left, right = normalize_seq(left), normalize_seq(right)
    if not fits(_shape(left), _shape(right)):
        return None
    outcome = _Engine(k, enum_cap).apply(rule, fn, ctx, left, right, ())
    return outcome.result if type(outcome) is _Applied else None


# ---------------------------------------------------------------------------
# Folding all ranks


def _head_unfoldable(ctx: TypingContext, t: ProtocolType, unroll: int) -> bool:
    head, _ = _seq_parts(t)
    if type(head) is not Foreach:
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
    for rank, t in local_types:
        _check_messages(t, n, f"rank {rank}", 0)

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


def _check_messages(t: ProtocolType, n: int, owner: str, depth: int) -> None:
    """Raise IllFormedMessage for a message in owner's type t (owner is
    `rank 2`, say), which sits depth blocks deep, whose literal endpoints
    are equal or outside 0..n-1. An endpoint that is not a literal, such as
    a loop binder, passes."""
    for node in spine(t):
        kind = type(node)
        if kind is Message:
            src, dst = node.src, node.dst
            if (
                type(src) is IntLit and (src is dst or not 0 <= src.value < n)
                or type(dst) is IntLit and not 0 <= dst.value < n
            ):
                raise IllFormedMessage(
                    f"{owner}: `{compact_protocol(node)}` does not join two ranks of 0..{n - 1}"
                )
        elif kind is Foreach:
            _check_messages(node.body, n, owner, deeper(depth))
        elif kind is Allreduce and type(node.cont) is not Skip:  # a bare one opens no block
            _check_messages(node.cont, n, owner, deeper(depth))


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
