"""One behaviour fingerprint over the benchmark's own instance sets.

Each set of perfbench/workloads.py (read from its file, not changed) is run
through both paths the benchmark times: infer (parse, extract each rank's
local type, fold with merge_all) and the oracle (cap loops, linearize,
simulate the extracted local types). Every instance's merge result or
diagnostic, each derivation step with its premises, and the oracle's
outcome go into one sha256 per set, next to counts that show what moved.

`tests/golden/fingerprint.json` holds the expected document. A change that
means to alter results, traces or diagnostics rewrites it from the library
on PYTHONPATH with

    PYTHONPATH=src python tests/test_fingerprint.py

and says in its description which sets moved and why.
"""

import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

import protomerge
from protomerge.extract import extract_local_type
from protomerge.logic import initial_context
from protomerge.merge import MergeFailure, merge_all
from protomerge.oracle import Completed, Deadlocked, cap_loops, linearize, simulate
from protomerge.syntax import parse_process

from generators import workloads

GOLDEN = Path(__file__).parent / "golden" / "fingerprint.json"
PROGRAMS = Path(protomerge.__file__).parent / "programs"

# Set name -> (workload, seed). long-exchange is its L = 64..256 instances:
# the capacity ladder is built by the benchmark's pipeline, not listed here.
SETS = {
    "nbody-scale": ("nbody-scale", workloads.DEFAULT_SEED),
    "long-exchange": ("long-exchange", workloads.DEFAULT_SEED),
    "oracle-pairs": ("oracle-pairs", workloads.DEFAULT_SEED),
    "exchange-corpus/2024": ("exchange-corpus", 2024),
    "exchange-corpus/2025": ("exchange-corpus", 2025),
}


def _run(inst, parsed: dict) -> tuple[list, str, str | None, tuple[str, ...]]:
    """One instance's record, its oracle outcome, its rejection kind (None
    when accepted) and the rules its derivations applied."""
    n = inst.n
    ctx = initial_context(n)
    locals_ = []
    for rank in range(n):
        source = inst.source(rank)
        if source not in parsed:
            parsed[source] = parse_process(source, inst.id)
        locals_.append((rank, extract_local_type(ctx, parsed[source], rank, n)))
    try:
        result, traces = merge_all(n, locals_)
    except MergeFailure as failure:
        d = failure.diagnostic
        kind, rules = d.kind.value, ()
        merged = [kind, d.location, [[a.rule, a.failed_premise] for a in d.rule_trace]]
    else:
        kind = None
        steps = [step for trace in traces for step in trace.steps]
        rules = tuple(step.rule for step in steps)
        merged = [repr(result), [
            [s.rule, s.left, s.right, [[p.name, p.formula, p.verdict] for p in s.premises]]
            for s in steps
        ]]
    actions = [linearize(ctx, cap_loops(ctx, t, inst.oracle_cap), rank) for rank, t in locals_]
    outcome = simulate(actions, n, ctx=ctx)
    if type(outcome) is Completed:
        replay = repr(outcome.trace)
    else:
        replay = outcome.stuck if type(outcome) is Deadlocked else outcome.detail
    return [inst.id, merged, type(outcome).__name__, replay], type(outcome).__name__, kind, rules


def fingerprint() -> dict:
    document = {}
    for name, (workload, seed) in SETS.items():
        digest, parsed = hashlib.sha256(), {}
        accepted, rejections, oracle, rules = 0, Counter(), Counter(), Counter()
        items = workloads.instances(workload, seed, PROGRAMS)
        for inst in items:
            record, outcome, kind, applied = _run(inst, parsed)
            digest.update(json.dumps(record).encode("utf-8") + b"\n")
            oracle[outcome] += 1
            if kind is None:
                accepted += 1
            else:
                rejections[kind] += 1
            rules.update(applied)
        document[name] = {
            "instances": len(items),
            "accepted": accepted,
            "rejections": dict(sorted(rejections.items())),
            "oracle": dict(sorted(oracle.items())),
            "rules": dict(sorted(rules.items())),
            "sha256": digest.hexdigest(),
        }
    return document


def test_fingerprint_matches_golden():
    assert fingerprint() == json.loads(GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(fingerprint(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
