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

from functools import partial
from typing import Container, Iterable, NamedTuple, Sequence

from .ast import (
    Allreduce,
    And,
    Cmp,
    Datatype,
    Diagnostic,
    DiagnosticKind,
    Foreach,
    IndexTerm,
    IntLit,
    Integer,
    LINEARIZE_BUDGET,
    Message,
    NonConstantBounds,
    Proposition,
    ProtocolType,
    ProtomergeError,
    Refined,
    RuleAttempt,
    Seq,
    Skip,
    TypingContext,
    UnfoldBudgetExceeded,
    Var,
    _Node,
    _Record,
    build_seq,
    concat,
    deeper,
    index_vars,
    loop_bounds,
    normalize_seq,
    spine,
    subst_type,
)
from .logic import (
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
    "MergeTooDeep",
    "MergeTrace",
    "PremiseCheck",
    "RULE_NAMES",
    "attempt_rule",
    "merge_all",
    "merge_types",
    "unfold_foreach",
]

DEFAULT_UNROLL = 2


class MergeTooDeep(ProtomergeError):
    """A derivation nests deeper than the interpreter's stack allows."""


class IllFormedMessage(ProtomergeError):
    """A local type holds a message no run can perform: its literal
    endpoints are equal, or one lies outside the ranks 0..n-1."""


# ---------------------------------------------------------------------------
# Constant-bound loop unfolding


def unfold_foreach(ctx: TypingContext, t: ProtocolType) -> ProtocolType:
    """Replace a constant-bound foreach by its instantiated body sequence.
    The body sits one block deep: a nest deeper than MAX_BLOCK_DEPTH raises
    NestingTooDeep. Raises UnfoldBudgetExceeded, before building anything,
    when the trip count times the body's length exceeds LINEARIZE_BUDGET."""
    if type(t) is not Foreach:
        raise ValueError(f"unfold_foreach expects a foreach type, got {type(t).__name__}")
    lo, hi = loop_bounds(singleton_env(ctx), t)
    if (hi - lo + 1) * len(spine(t.body)) > LINEARIZE_BUDGET:
        raise UnfoldBudgetExceeded(f"unfolding foreach {t.binder} would build more than {LINEARIZE_BUDGET} items")
    instances = [subst_type(t.body, {t.binder: IntLit(v)}, 1) for v in range(lo, hi + 1)]
    return normalize_seq(build_seq(instances))


# ---------------------------------------------------------------------------
# Traces and failure


class PremiseCheck(_Node):
    """One premise a rule checked: its name, the proposition or the payload
    pair it decided (or the formula text itself), and its verdict. `formula`
    renders the claim."""

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


class _Applied(NamedTuple):
    """An applied rule, with the node it applied at and its sub-merges'."""

    result: ProtocolType
    rule: str
    ctx: TypingContext
    left: ProtocolType
    right: ProtocolType
    subs: tuple["_Applied", ...]


class MergeTrace(_Record):
    """A merge's derivation tree, merging rank k. `steps` builds a step per
    node in pre-order (a subtree the memo shares, again at each use), each
    premise with the verdict its rule wants, the only one it applies on.
    Equality, hash and repr go by the steps."""

    tree: _Applied
    k: int

    def _nodes(self):
        stack = [self.tree]
        while stack:
            node = stack.pop()
            yield node
            stack += node.subs[::-1]

    @property
    def steps(self) -> tuple[MergeStep, ...]:
        k, steps = IntLit(self.k), []
        for _, rule, ctx, left, right, _ in self._nodes():
            lh, rh = _seq_parts(left)[0], _seq_parts(right)[0]
            premises = tuple(
                PremiseCheck(p, _claim(_key(ctx, judged, lh, rh, k)), want)
                for p, judged, want, _ in _offer(rule)[1]
            )
            steps.append(MergeStep(rule, left, right, premises))
        return tuple(steps)

    def rule_names(self) -> tuple[str, ...]:
        return tuple(node.rule for node in self._nodes())

    def __eq__(self, other):
        return self.steps == other.steps if type(other) is MergeTrace else NotImplemented

    def __hash__(self):
        return hash(self.steps)

    def __repr__(self):
        return f"MergeTrace(steps={self.steps!r})"

    def __reduce__(self):
        # Flat, in pre-order: copy and pickle recurse no deeper than a node's operands.
        return _unflatten, (self.k, tuple(n[:5] + (len(n.subs),) for n in self._nodes()))


def _unflatten(k: int, nodes: tuple) -> MergeTrace:
    built = []  # subtrees read from the last node back; a node's first sub on top
    for *fields, count in reversed(nodes):
        built.append(_Applied(*fields, tuple(built.pop() for _ in range(count))))
    return MergeTrace(built.pop(), k)


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
_VALID, _INVALID, _UNDECIDABLE = Verdict.VALID.value, Verdict.INVALID.value, Verdict.UNDECIDABLE.value
_EQUAL, _EQUIVALENT, _DIFFERENT = "equal", "equivalent", "different"
_DEADLOCK, _FAILED = DiagnosticKind.DEADLOCK_SUSPECTED, DiagnosticKind.ENTAILMENT_FAILED
_ENDPOINTS, _PAYLOADS, _OPS, _BOUNDS = "endpoints", "payloads", "ops", "bounds"

# Every premise a rule checks: name -> (what it judges, the verdict it wants,
# what its failure suspects). A premise is judged on the heads of a node's
# two operands (a sequence's head is its first item). It judges that one
# head's message avoids one side (neither endpoint lies in it), that the
# endpoints are equal, that the payloads are equivalent, or that two
# allreduces' operators or two loops' bounds are equal. Skip-likeness of the
# left head is judged against the merged ranks, of the right head against
# k; "real" is the refutation.
_PREMISES = {
    "left-skip-like": (("left", "merged"), _VALID, _DEADLOCK),
    "left-real": (("left", "merged"), _INVALID, _DEADLOCK),
    "left-avoids-k": (("left", "k"), _VALID, _DEADLOCK),
    "right-skip-like": (("right", "k"), _VALID, _DEADLOCK),
    "right-real": (("right", "k"), _INVALID, _DEADLOCK),
    "right-avoids-merged": (("right", "merged"), _VALID, _DEADLOCK),
    "endpoints-equal": (_ENDPOINTS, _VALID, _DEADLOCK),
    "payload-equivalent": (_PAYLOADS, _EQUIVALENT, DiagnosticKind.DATATYPE_MISMATCH),
    "op-equal": (_OPS, _EQUAL, _FAILED),
    "bounds-equal": (_BOUNDS, _VALID, _FAILED),
}

# Non-interference: the left message never touches rank k, the right message
# never touches an already-merged rank, so the two orders are
# indistinguishable to every rank involved.
_NON_INTERFERENCE = ("left-real", "left-avoids-k", "right-real", "right-avoids-merged")


def _seq_parts(t: ProtocolType) -> tuple[ProtocolType, ProtocolType]:
    if type(t) is Seq:
        return t.first, t.second
    return t, Skip()


def _values(ctx: TypingContext, t: IndexTerm) -> tuple[int, ...] | None:
    """The values index term t takes under ctx, where they can be read off
    without entails: an integer literal's value, or the merged ranks when t
    is `rank` and ctx binds it to a FiniteSet. None elsewhere."""
    if type(t) is IntLit:
        return (t.value,)
    if t is _RANK:
        ranks = ctx.lookup("rank")
        if type(ranks) is FiniteSet:
            return ranks.values
    return None


def _literal(m: ProtocolType) -> bool:
    return type(m) is Message and type(m.src) is IntLit is type(m.dst)


def _touches(m: Message, values: Container[int]) -> bool:
    return m.src.value in values or m.dst.value in values


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
# A rule is a shape test, the names of the premises it checks (rows of
# _PREMISES, in the order checked) and a function (ctx, left, right). The
# shape test takes the operands' shape classes; the function is called only
# on operands it accepts whose premises all hold. The function returns
# (subgoals, conclude): the sub-merges as (ctx, left, right, path label),
# merged in order, and `conclude`, from the sub-merges' results to the
# rule's conclusion.


def _message_rule(lshape, rshape, names, conclude):
    """A rule on two single operands, each a message or skip: no sub-merges."""
    return _pair(lshape, rshape), names, lambda ctx, l, r: ((), lambda: conclude(l, r))


def _allred_allred(ctx, left, right):
    binder, rbinder = left.binder, right.binder
    rcont = right.cont if rbinder == binder else subst_type(right.cont, {rbinder: Var(binder)})
    subgoal = ctx.extend(binder, left.payload), left.cont, rcont, "allreduce.cont"
    return (subgoal,), lambda c: Allreduce(left.op, binder, left.payload, c)


def _foreach_foreach(ctx, left, right):
    binder, rbinder = left.binder, right.binder
    rbody = right.body if rbinder == binder else subst_type(right.body, {rbinder: Var(binder)})
    y = _fresh("y", index_vars(left.lo) | index_vars(left.hi) | {binder})
    entry = Refined(
        y, Integer(), And(Cmp("<=", left.lo, Var(y)), Cmp("<=", Var(y), left.hi))
    )
    subgoal = ctx.extend(binder, entry), left.body, rbody, f"foreach[{binder}].body"
    return (subgoal,), lambda b: Foreach(binder, left.lo, left.hi, b)


def _seq_seq(ctx, left, right):
    (lh, lt), (rh, rt) = _seq_parts(left), _seq_parts(right)
    return ((ctx, lh, rh, "seq.first"), (ctx, lt, rt, "seq.second")), concat


def _skip_vs_seq(flip: bool):
    """skip-msgT: skip against a sequence headed by a message merges the head
    and the tail against skip. With flip, msgT-skipT: the sequence is left."""

    def rule(ctx, left, right):
        if flip:
            return ((ctx, left.first, right, "seq.head"), (ctx, left.second, right, "seq.tail")), concat
        return ((ctx, left, right.first, "seq.head"), (ctx, left, right.second, "seq.tail")), concat

    return (_pair(_MSG_SEQ, _SKIP) if flip else _pair(_SKIP, _MSG_SEQ)), (), rule


def _msgT_msgT(emit_right: bool):
    """msgT-msgT-left: the left head is emitted first; it must be invisible to
    rank k, whose own first action is the right head. With emit_right,
    msgT-msgT-right: the right head goes first, invisible to the merged ranks."""
    if emit_right:
        names, label = ("right-real", "right-avoids-merged", "left-real"), "left-vs-seq.tail"
    else:
        names, label = ("left-real", "left-avoids-k", "right-real"), "seq.tail-vs-right"

    def rule(ctx, left, right):
        (lh, lt), (rh, rt) = _seq_parts(left), _seq_parts(right)
        head, sub = (rh, (ctx, left, rt, label)) if emit_right else (lh, (ctx, lt, right, label))
        return (sub,), lambda r: concat(head, r)

    return _headed_pair, names, rule


# The rules in the order the engine tries them: name -> (shape test,
# premise names, rule).
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
    "allred-allred": (_pair(_ALLRED, _ALLRED), ("op-equal", "payload-equivalent"), _allred_allred),
    "foreach-foreach": (_pair(_FOREACH, _FOREACH), ("bounds-equal",), _foreach_foreach),
    "seq-seq": (_seq_pair, (), _seq_seq),
    "skip-msgT": _skip_vs_seq(flip=False),
    "msgT-skipT": _skip_vs_seq(flip=True),
    "msg-msg-right": _message_rule(_MSG, _MSG, _NON_INTERFERENCE, lambda l, r: Seq(r, l)),
    "msg-msg-left": _message_rule(_MSG, _MSG, _NON_INTERFERENCE, lambda l, r: Seq(l, r)),
    "msgT-msgT-left": _msgT_msgT(emit_right=False),
    "msgT-msgT-right": _msgT_msgT(emit_right=True),
}
RULE_NAMES = tuple(_RULES)

# The rules _Engine.passed applies: the test (head, merged ranks, (k,)) of each node its loop takes.
_RUNS = {
    "msgT-msgT-left": lambda m, ranks, k: _touches(m, ranks) and not _touches(m, k),
    "msgT-skipT": lambda m, ranks, k: not (_touches(m, ranks) and _touches(m, k)),
}


def _offer(name: str):
    """Rule `name` as `_Engine.derive` takes it: (name, premises, rule), each
    premise as (name, what it judges, the verdict it wants, what its
    failure suspects)."""
    _, names, rule = _RULES[name]
    return name, tuple((p,) + _PREMISES[p] for p in names), rule


# (left shape, right shape) -> the rules whose shape test accepts it, in
# table order, as offered.
_INDEX = {
    (l, r): tuple(_offer(name) for name, (fits, _, _) in _RULES.items() if fits(l, r))
    for l in _SHAPES
    for r in _SHAPES
}


def _offered(left: ProtocolType, right: ProtocolType):
    """The rules whose shape test accepts left and right, in table order."""
    return _INDEX.get((_shape(left), _shape(right)), ())


def _key(ctx: TypingContext, judged, lh, rh, k: IntLit) -> tuple:
    """The verdict table's key, (ctx, what is judged, the claim's parts), for
    what a premise judges (see _PREMISES) on heads lh and rh, merging rank k.
    A side's key is one per context and endpoints, whichever operand asks."""
    if judged is _ENDPOINTS:
        return ctx, judged, "=", lh.src, rh.src, lh.dst, rh.dst
    if judged is _PAYLOADS:
        return ctx, judged, lh.payload, rh.payload
    if judged is _BOUNDS:
        return ctx, judged, "=", lh.lo, rh.lo, lh.hi, rh.hi
    if judged is _OPS:
        return ctx, judged, lh.op, rh.op
    operand, side = judged
    m = lh if operand == "left" else rh
    term = _RANK if side == "merged" else k
    return ctx, "avoids", "!=", m.src, term, m.dst, term


def _claim(key: tuple) -> Proposition | tuple[Datatype, Datatype] | str:
    """The claim a verdict table key states: a payload pair, the operators'
    equation as text, or the proposition `a op b and c op d`."""
    if key[1] is _PAYLOADS:
        return key[2:]
    if key[1] is _OPS:
        return f"{key[2].value} = {key[3].value}"
    _, _, op, a, b, c, d = key
    return And(Cmp(op, a, b), Cmp(op, c, d))


def _reason(refusal: tuple, ctx: TypingContext, left, right, k: IntLit) -> str:
    """A refusal's text at node (ctx, left, right): its failed premise, the claim and the verdict."""
    _, _, name, judged, verdict = refusal
    key = _key(ctx, judged, _seq_parts(left)[0], _seq_parts(right)[0], k)
    return f"{name}: {PremiseCheck(name, _claim(key), verdict).formula} is {verdict}"


class _Engine:
    """An engine for merging rank k into the ranks each context's `rank`
    entry stands for. Contexts, types and index terms are interned, so its
    tables key them by identity: a context built twice is one key."""

    def __init__(self, k: int):
        self.k = IntLit(k)
        # (context, left, right) -> its derivation tree (an _Applied) or the
        # refusals (() while it is open)
        self.memo: dict = {}
        # _key -> verdict: each premise a rule reached, decided once.
        self.verdicts: dict = {}
        self.undecidable = False
        # The labels of the sub-merges open from the root to the current node.
        self.labels: list[str] = []
        # The deepest node every rule refused: (path, ctx, left, right, refusals, or None to derive when read).
        self.deepest: tuple | None = None
        # (context, index term) -> the values `_values` reads, as a set, or None.
        self.value_sets: dict = {}

    # -- derivation

    def merge(self, ctx: TypingContext, left: ProtocolType, right: ProtocolType) -> _Applied | None:
        key = (ctx, left, right)
        outcome = self.memo.get(key)
        if outcome is None:
            # Guard against re-entering the same subproblem while it is open.
            self.memo[key] = ()
            outcome = self.memo[key] = self.derive(ctx, left, right, _offered(left, right))
        if type(outcome) is _Applied:
            return outcome
        # The diagnostic reports the first deepest subproblem every rule refused.
        if self.deepest is None or len(self.labels) > len(self.deepest[0]):
            self.deepest = tuple(self.labels), ctx, left, right, outcome
        return None

    def derive(self, ctx, left, right, rules) -> _Applied | tuple[tuple, ...]:
        """Apply the first of `rules` (as _INDEX offers them) whose premises
        all hold and whose sub-merges all succeed, or give back the refusals:
        (rule, kind, premise name, what it judges, verdict) for each first
        failed premise. A rule decides its premises in order, each when it
        reaches it and once per node, and stops at the first that fails.

        A failed sub-merge leaves no refusal, as none would be read: it ran
        one label deeper and left `deepest` at least that deep, `deepest`
        moves only to a strictly deeper node, so the diagnostic never reports
        this node as derived here, and attempt_rule drops refusals. (A node
        the memo meets again deeper keeps its first refusals; no search has
        found one so reported that a sub-merge refused.)"""
        lh = left.first if type(left) is Seq else left
        rh = right.first if type(right) is Seq else right
        verdicts: dict = {}  # what is judged -> verdict, at this node
        refused = []
        for name, premises, rule in rules:
            for premise, judged, want, kind in premises:
                verdict = verdicts.get(judged)
                if verdict is None:
                    verdict = verdicts[judged] = self.premise(ctx, judged, lh, rh)
                if verdict != want:
                    refused.append((name, kind, premise, judged, verdict))
                    break
            else:
                # A run that fails leaves its memo entries, which the rule's sub-merges meet.
                passed = name in _RUNS and type(left) is Seq and self.passed(name, ctx, left, right)
                if passed:
                    return passed
                subgoals, conclude = rule(ctx, left, right)
                subs, labels = [], self.labels
                for sub_ctx, sub_left, sub_right, label in subgoals:
                    labels.append(label)
                    sub = self.merge(sub_ctx, sub_left, sub_right)
                    labels.pop()
                    if sub is None:
                        break
                    subs.append(sub)
                else:
                    return _Applied(conclude(*[s.result for s in subs]), name, ctx, left, right, tuple(subs))
        return tuple(refused)

    def passed(self, name, ctx, left, right) -> _Applied | None:
        """Rule `name` of _RUNS applied at (ctx, left, right), its premises
        holding, with the run of left's next nodes whose literal heads pass
        the rule's test taken in one loop, as merge would take each (README,
        merge.py); None where the run fails or none starts here."""
        memo, labels, k = self.memo, self.labels, (self.k.value,)
        skip, rh, takes = name == "msgT-skipT", _seq_parts(right)[0], _RUNS[name]
        ranks, m = self.values(ctx, _RANK), left.first if skip else rh  # the head a run starts on
        if ranks is None or not (_literal(m) and (takes(m, ranks, k) if skip else _touches(m, ranks))):
            return None
        run, t, label = [left], left.second, "seq.tail" if skip else "seq.tail-vs-right"
        while type(t) is Seq and _literal(t.first) and takes(t.first, ranks, k) and (ctx, t, right) not in memo:
            memo[ctx, t, right] = ()
            run.append(t)
            t = t.second
        labels += [label] * len(run)
        if len(run) > 1 and not skip and (self.deepest is None or len(labels) > len(self.deepest[0])):
            self.deepest = (*labels[:-1], "seq.first"), ctx, run[-1].first, rh, None  # seq-seq's head pair
        sub = self.merge(ctx, t, right)
        del labels[-len(run):]
        if sub is None:
            if len(run) > 1 and not skip:  # msgT-msgT-right's refusal at each run node
                refused = self.derive(ctx, run[1], right, (_offer("msgT-msgT-right"),))
                memo.update(((ctx, s, right), refused) for s in run[1:])
            return None
        for s in reversed(run):
            head, subs = s.first, (sub,)
            if skip:  # msg-skip takes a real head, msgS-skip a skip-like one
                real = _touches(head, ranks)
                taken = _Applied(head if real else Skip(), ("msgS-skip", "msg-skip")[real], ctx, head, right, ())
                head, subs = taken.result, (taken, sub)
            sub = memo[ctx, s, right] = _Applied(concat(head, sub.result), name, ctx, s, right, subs)
        return sub

    def diagnostic(self) -> Diagnostic:
        path, ctx, left, right, refused = self.deepest
        if refused is None:  # noted by passed
            refused = self.derive(ctx, left, right, _offered(left, right))
        location = "/".join(path) or "root"
        kinds = {r[1] for r in refused}
        if self.undecidable:
            kind = DiagnosticKind.ENTAILMENT_UNDECIDABLE
        elif DiagnosticKind.DATATYPE_MISMATCH in kinds:
            kind = DiagnosticKind.DATATYPE_MISMATCH
        elif _FAILED in kinds:
            kind = _FAILED
        else:
            kind = _DEADLOCK
        # The refusals are rendered when they are read.
        trace = tuple(RuleAttempt(r[0], partial(_reason, r, ctx, left, right, self.k)) for r in refused) or (
            RuleAttempt("none", lambda: f"no rule matches {compact_protocol(left)} against "
                                        f"{compact_protocol(right)}"),
        )
        return Diagnostic(kind, location, trace)

    # -- premises

    def premise(self, ctx: TypingContext, judged, lh, rh) -> str:
        """The verdict of what a premise judges on lh and rh. A literal message's side (the merged
        ranks `_values` reads, or k) is one membership test; all else is decided once per _key."""
        if type(judged) is tuple and _literal(m := lh if judged[0] == "left" else rh):
            values = self.values(ctx, _RANK) if judged[1] == "merged" else (self.k.value,)
            if values is not None:
                return _INVALID if _touches(m, values) else _VALID
        key = _key(ctx, judged, lh, rh, self.k)
        verdict = self.verdicts.get(key)
        if verdict is None:
            verdict = self.verdicts[key] = self.decide(key)
        return verdict

    def values(self, ctx: TypingContext, t: IndexTerm) -> frozenset[int] | None:
        """The values `_values` reads off ctx for t, as a set built once per
        context and term, so that each membership test costs O(1)."""
        found = self.value_sets.get((ctx, t), False)
        if found is False:
            values = _values(ctx, t)
            found = self.value_sets[ctx, t] = None if values is None else frozenset(values)
        return found

    def decide(self, key: tuple) -> str:
        """The verdict of the claim `key` states under its context. Where each
        comparison of a proposition sets an integer literal against a term
        whose values `_values` reads off the context, it holds when it holds
        for every such value, as entails would find; elsewhere entails decides."""
        ctx, judged = key[0], key[1]
        if judged is _PAYLOADS:
            try:
                return _EQUIVALENT if dtype_equiv(ctx, key[2], key[3]) else _DIFFERENT
            except UndecidableEquivalence:
                self.undecidable = True
                return _UNDECIDABLE
        if judged is _OPS:
            return _EQUAL if key[2] is key[3] else _DIFFERENT
        _, _, op, a, b, c, d = key
        ok = True
        for lit, term in ((a, b), (c, d)):
            values = self.values(ctx, term) if type(lit) is IntLit else None
            if values is None:
                verdict = entails(ctx, _claim(key))
                if verdict is Verdict.UNDECIDABLE:
                    self.undecidable = True
                return verdict.value
            ok = ok and (values == {lit.value} if op == "=" else lit.value not in values)
        return _VALID if ok else _INVALID


def _validate_merge_inputs(ctx: TypingContext, k: int, *operands: ProtocolType) -> tuple:
    """Check ctx and k as merge_types requires, and where ctx binds size to a
    constant the messages of the operands (merged ranks', k's); returns them."""
    if ctx.lookup("size") is None or ctx.lookup("rank") is None:
        raise InvalidRankSet("merge context must bind both size and rank")
    size = singleton_env(ctx).get("size")
    if size is not None and not 0 <= k < size:
        raise InvalidRankSet(f"rank {k} out of range for size {size}")
    domain = domain_of(ctx, "rank")
    if type(domain) is FiniteSet and k in domain.values:
        raise InvalidRankSet(f"rank {k} is already part of the merged set {domain.values}")
    if size is not None:
        for t, owner in zip(operands, ("the merged ranks", f"rank {k}")):
            _check_messages(t, size, owner, 0)
    return operands


def merge_types(
    ctx: TypingContext, left: ProtocolType, right: ProtocolType, k: int
) -> tuple[ProtocolType, MergeTrace]:
    """Merge the accumulated type with rank k's local type under ctx.

    Raises MergeFailure (with a Diagnostic) when no derivation exists, and
    IllFormedMessage as merge_all does when ctx binds size to a constant.
    """
    return _merge_normal(ctx, normalize_seq(left), normalize_seq(right), k, check=True)


def _merge_normal(
    ctx: TypingContext, left: ProtocolType, right: ProtocolType, k: int, check: bool = False
) -> tuple[ProtocolType, MergeTrace]:
    """merge_types on operands in sequence normal form: ctx and k checked
    once, the operands' messages too with `check` (merge_all checks them
    once, as they enter the fold)."""
    _validate_merge_inputs(ctx, k, *((left, right) if check else ()))
    engine = _Engine(k)
    try:
        outcome = engine.merge(ctx, left, right)
    except RecursionError:
        raise MergeTooDeep("the derivation nests deeper than the stack allows") from None
    if outcome is None:
        raise MergeFailure(engine.diagnostic())
    return outcome.result, MergeTrace(outcome, k)


def attempt_rule(
    ctx: TypingContext, rule: str, left: ProtocolType, right: ProtocolType, k: int
) -> ProtocolType | None:
    """Apply exactly one named rule at the root (subgoals use the full engine).

    Returns the rule's conclusion, or None when the rule is inapplicable,
    whether because the operand shapes do not match or a premise fails.
    Its inputs are checked as merge_types checks them: it raises
    InvalidRankSet, and IllFormedMessage where ctx binds size to a constant.
    """
    if rule not in _RULES:
        raise ValueError(f"unknown merge rule {rule!r}; expected one of {', '.join(RULE_NAMES)}")
    left, right = _validate_merge_inputs(ctx, k, normalize_seq(left), normalize_seq(right))
    offered = tuple(o for o in _offered(left, right) if o[0] == rule)
    try:
        outcome = _Engine(k).derive(ctx, left, right, offered)
    except RecursionError:
        raise MergeTooDeep("the derivation nests deeper than the stack allows") from None
    return outcome.result if type(outcome) is _Applied else None


# ---------------------------------------------------------------------------
# Folding all ranks


def _unfolded(ctx: TypingContext, t: ProtocolType, unroll: int) -> ProtocolType | None:
    """t with its head foreach unfolded, when that loop has constant bounds
    and at most `unroll` iterations; None otherwise."""
    head, rest = _seq_parts(t)
    if type(head) is not Foreach:
        return None
    try:
        lo, hi = loop_bounds(singleton_env(ctx), head)
    except NonConstantBounds:
        return None
    return concat(unfold_foreach(ctx, head), rest) if hi - lo + 1 <= unroll else None


def merge_all(
    n: int,
    local_types: Sequence[tuple[int, ProtocolType]],
    order: Sequence[int] | None = None,
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
            accumulated, trace = _merge_step(ctx, accumulated, normalize_seq(types[k]), k, unroll)
        except MergeFailure as failure:
            raise failure.annotated(f"merging rank {k} into ranks {sorted(merged)}") from None
        except MergeTooDeep as exc:
            raise MergeTooDeep(f"merging rank {k} into ranks {sorted(merged)}: {exc}") from None
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
    ctx: TypingContext, left: ProtocolType, right: ProtocolType, k: int, unroll: int
) -> tuple[ProtocolType, MergeTrace]:
    """One fold step on normal forms, retried once with a loop head unfolded."""
    try:
        return _merge_normal(ctx, left, right, k)
    except MergeFailure:
        left_unfolded, right_unfolded = _unfolded(ctx, left, unroll), _unfolded(ctx, right, unroll)
        if (left_unfolded is None) == (right_unfolded is None):
            raise
        return _merge_normal(ctx, left_unfolded or left, right_unfolded or right, k)
