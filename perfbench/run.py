"""protomerge benchmark: time to verdict and oracle cost, end to end and per layer.

    python3 perfbench/run.py --workload nbody-scale [--seed 2024] [--seconds 25] [--trace 0|1]

Run from the root of a source checkout; the library is imported from its
`src/`. Workloads: nbody-scale, exchange-corpus, long-exchange, oracle-pairs
(see README.md next to this file). One process, one instance at a time.

Each run repeats passes over the workload's fixed instance set until
`--seconds` is used up. With `--trace 0` it prints the end-to-end metrics;
with `--trace 1` it alternates untraced and traced passes and prints the
per-layer metrics from the traced ones. Every output is checked; the last
line is one JSON object, and the exit code is 1 when a check failed.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROGRAMS = SRC / "protomerge" / "programs"
SPANS_DIR = ROOT / ".perfbench"

SETUP_SAMPLES = 5
LADDER_LIMIT_S = 5.0

# Fresh interpreter: import protomerge, then run the workload's first
# instance once through both paths. The benchmark's own modules and the
# oracle input preparation are excluded from the time. Prints the time and
# the median reference-work time measured right after it.
_SETUP_CHILD = """
import sys, time
from pathlib import Path
t0 = time.perf_counter()
import protomerge
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import pipeline, spans, workloads
inst = workloads.instances(sys.argv[2], int(sys.argv[3]), Path(sys.argv[4]))[0]
t2 = time.perf_counter()
pipeline.infer(spans.untraced, inst)
t3 = time.perf_counter()
texts = pipeline.oracle_texts(inst)
t4 = time.perf_counter()
pipeline.oracle(spans.untraced, inst, texts)
t5 = time.perf_counter()
import statistics, speed
reference = statistics.median(speed.time_reference() for _ in range(6))
print(repr((t1 - t0) + (t3 - t2) + (t5 - t4)), repr(reference))
"""


def _load_library() -> None:
    init = SRC / "protomerge" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init} not found; run from a protomerge checkout")
    sys.path.insert(0, str(SRC))
    import protomerge

    if Path(protomerge.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported protomerge from {protomerge.__file__}, not {init}")


def _setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh interpreters of the set-up time at reference speed."""
    from speed import REFERENCE_S

    env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin", "LC_ALL": "C.UTF-8"}
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(HERE), workload, str(seed), str(PROGRAMS)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        measured, reference = map(float, done.stdout.split()[-2:])
        samples.append(measured * REFERENCE_S / reference)
    return statistics.median(samples)


def _nodes(t) -> int:
    """Protocol tree size, counted without recursion."""
    count, stack = 0, [t]
    while stack:
        node = stack.pop()
        count += 1
        for field in ("first", "second", "body", "cont"):
            child = getattr(node, field, None)
            if child is not None:
                stack.append(child)
    return count


class Bench:
    """Timings, check results and per-layer figures of one run."""

    def __init__(self, instances, texts, speed, rule_metrics):
        self.instances = instances
        self.rule_metrics = rule_metrics
        self.speed = speed
        self.texts = texts
        self.infer_times: dict[str, list[float]] = {i.id: [] for i in instances}
        self.oracle_times: dict[str, list[float]] = {i.id: [] for i in instances}
        self.untraced_pass_s: list[float] = []
        self.traced_pass_s: list[float] = []
        self.traced_layers: list[dict] = []
        self.first: dict[str, tuple] = {}
        self.bad: set[str] = set()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.verdicts = {"accepted": 0, "completed": 0, "false_rejects": 0}
        self.blocks: dict[int, list[int]] = {}

    # -- one pass over the fixed set

    def run_pass(self, pipeline, tracer=None, record=True) -> float:
        """Run every instance once; returns the timed seconds of the pass.

        The first pass of a run checks every output in full and warms the
        interpreter up; it is run with `record=False` and its times are dropped.
        """
        from spans import untraced

        run = tracer.run if tracer else untraced
        counts = {"merge.rejects": 0, "merge.steps": 0, "merge.global_nodes": 0,
                  "extract.local_nodes": 0, "syntax.source_bytes": 0, "oracle.actions": 0,
                  "oracle.completed": 0, "oracle.deadlocked": 0, "oracle.mismatch": 0,
                  "oracle.witness_events": 0}
        counts.update({name: 0 for name in self.rule_metrics})
        speed = self.speed
        speed.begin_pass()
        # Infer phase, then oracle phase; see speed.Speedometer.
        inferred_by, infer_s = {}, {}
        speed.begin_phase()
        for inst in self.instances:
            if tracer:
                tracer.instance = inst.id
            t0 = time.perf_counter()
            try:
                inferred_by[inst.id] = run("infer", pipeline.infer, run, inst)
            except Exception as exc:  # noqa: BLE001 - a crash is a measured failure
                inferred_by[inst.id] = exc
            infer_s[inst.id] = time.perf_counter() - t0
            speed.after(infer_s[inst.id])
        infer_factor = speed.end_phase()
        oracle_s = {}
        speed.begin_phase()
        for inst in self.instances:
            texts = self.texts[inst.id]
            if tracer:
                tracer.instance = inst.id
            t0 = time.perf_counter()
            try:
                if isinstance(texts, Exception):
                    raise texts
                sim, actions = run("oracle", pipeline.oracle, run, inst, texts)
            except Exception as exc:  # noqa: BLE001
                sim, actions = exc, []
            oracle_s[inst.id] = time.perf_counter() - t0
            speed.after(oracle_s[inst.id])
            inferred = inferred_by[inst.id]
            self._check(pipeline, inst, inferred, sim)
            if tracer and not isinstance(inferred, Exception) and not isinstance(sim, Exception):
                self._count(counts, inst, inferred, sim, actions, texts)
        oracle_factor = speed.end_phase()
        pass_factor = speed.end_pass()
        measured_s = sum(infer_s.values()) + sum(oracle_s.values())
        scaled_s = infer_factor * sum(infer_s.values()) + oracle_factor * sum(oracle_s.values())
        if tracer:
            self.traced_pass_s.append(scaled_s)
            self.traced_layers.append(self._layers(tracer, counts, pass_factor))
        elif record:
            self.untraced_pass_s.append(scaled_s)
            for inst in self.instances:
                self.infer_times[inst.id].append(infer_factor * infer_s[inst.id])
                self.oracle_times[inst.id].append(oracle_factor * oracle_s[inst.id])
        return measured_s

    def _check(self, pipeline, inst, inferred, sim) -> None:
        self.attempted += 1
        outcome = type(sim).__name__
        if isinstance(inferred, Exception):
            signature = ("error", type(inferred).__name__, outcome)
        else:
            signature = (inferred.accepted, inferred.kind, outcome)
        problems = []
        reference = self.first.get(inst.id)
        if reference is None:
            self.first[inst.id] = signature
            if isinstance(inferred, Exception):
                problems.append(f"infer raised {type(inferred).__name__}: {inferred}")
            if isinstance(sim, Exception):
                problems.append(f"oracle raised {type(sim).__name__}: {sim}")
            if not problems:
                problems += pipeline.verdict_problems(inst, inferred, outcome)
                if inferred.accepted:
                    problems += pipeline.projection_problems(inst, inferred)
                self._tally(inst, inferred, outcome)
        elif signature != reference:
            problems.append(f"verdict changed between passes: {reference} then {signature}")
        if problems:
            self.bad.add(inst.id)
            self.problems += [f"{inst.id}: {p}" for p in problems]
        if inst.id in self.bad:
            self.failed += 1

    def _tally(self, inst, inferred, outcome) -> None:
        completed = outcome == "Completed"
        false_reject = completed and not inferred.accepted
        self.verdicts["accepted"] += inferred.accepted
        self.verdicts["completed"] += completed
        self.verdicts["false_rejects"] += false_reject
        if inst.block is not None:
            block = self.blocks.setdefault(inst.block, [0, 0, 0])
            block[0] += inferred.accepted
            block[1] += completed
            block[2] += false_reject

    def _count(self, counts, inst, inferred, sim, actions, texts) -> None:
        counts["syntax.source_bytes"] += sum(
            len(inst.source(r).encode()) for r in range(inst.n)
        ) + sum(len(t.encode()) for t in texts)
        counts["extract.local_nodes"] += sum(_nodes(t) for _, t in inferred.locals_)
        if inferred.accepted:
            counts["merge.global_nodes"] += _nodes(inferred.protocol)
            for trace in inferred.traces:
                counts["merge.steps"] += len(trace.steps)
                for rule in trace.rule_names():
                    key = f"merge.rule.{rule}"
                    if key in counts:
                        counts[key] += 1
        else:
            counts["merge.rejects"] += 1
        counts["oracle.actions"] += sum(len(a) for a in actions)
        outcome = type(sim).__name__.lower()
        if f"oracle.{outcome}" in counts:
            counts[f"oracle.{outcome}"] += 1
        if outcome == "completed":
            counts["oracle.witness_events"] += len(sim.trace)

    def _layers(self, tracer, counts, factor) -> dict:
        """Per-layer figures of one traced pass, times at reference speed."""

        def total(name, i=1):
            value = tracer.totals.get(name, [0, 0.0, 0.0])[i]
            return value if i == 0 else factor * value

        c = tracer.counts
        entails_calls = total("logic.entails", 0)
        roots = total("infer") + total("oracle")
        layered = factor * sum(v[2] for k, v in tracer.totals.items() if k not in ("infer", "oracle"))
        layers = {
            "syntax.parse_s": total("syntax.parse", 2),
            "syntax.parse_calls": total("syntax.parse", 0),
            "syntax.source_bytes": counts["syntax.source_bytes"],
            "syntax.render_s": total("syntax.render", 2),
            "syntax.render_calls": total("syntax.render", 0),
            "syntax.render_chars": c.get("syntax.render_chars", 0),
            "extract.s": total("extract", 2),
            "extract.calls": total("extract", 0),
            "extract.local_nodes": counts["extract.local_nodes"],
            "merge.s": total("merge"),
            "merge.self_s": total("merge", 2),
            "merge.calls": c.get("merge.calls", 0),
            "merge.retries": c.get("merge.calls", 0) - c.get("merge.ranks", 0),
            "merge.rejects": counts["merge.rejects"],
            "merge.steps": counts["merge.steps"],
            "merge.global_nodes": counts["merge.global_nodes"],
            "merge.unfold_s": total("merge.unfold", 2),
            "merge.unfold_calls": total("merge.unfold", 0),
            "logic.entails_s": total("logic.entails", 2),
            "logic.entails_calls": entails_calls,
            "logic.entails.valid": c.get("logic.entails.valid", 0),
            "logic.entails.invalid": c.get("logic.entails.invalid", 0),
            "logic.entails.undecidable": c.get("logic.entails.undecidable", 0),
            "logic.entails_repeat_share": c.get("logic.entails.repeats", 0) / max(entails_calls, 1),
            "logic.dtype_equiv_s": total("logic.dtype_equiv", 2),
            "logic.dtype_equiv_calls": total("logic.dtype_equiv", 0),
            "logic.context_s": total("logic.context", 2),
            "oracle.cap_s": total("oracle.cap", 2),
            "oracle.linearize_s": total("oracle.linearize", 2),
            "oracle.actions": counts["oracle.actions"],
            "oracle.simulate_s": total("oracle.simulate", 2),
            "oracle.simulate_calls": total("oracle.simulate", 0),
            "oracle.completed": counts["oracle.completed"],
            "oracle.deadlocked": counts["oracle.deadlocked"],
            "oracle.mismatch": counts["oracle.mismatch"],
            "oracle.witness_events": counts["oracle.witness_events"],
            "trace.accounted_share": layered / roots if roots else 0.0,
            "trace.bookkeeping_share": factor * tracer.bookkeeping_s / roots if roots else 0.0,
        }
        layers.update({k: v for k, v in counts.items() if k.startswith("merge.rule.")})
        for inst in self.instances:
            if inst.scale and inst.scale.startswith("P"):
                key = f"scale.{inst.scale}.simulate_ms"
                seconds = factor * tracer.by_instance.get((inst.id, "oracle.simulate"), 0.0)
                layers[key] = layers.get(key, 0.0) + 1000 * seconds
        return layers

    def infer_scale(self) -> dict[str, float]:
        """Untraced per-instance median time to verdict at each scaling point."""
        return {
            f"scale.{inst.scale}.infer_ms": 1000 * statistics.median(self.infer_times[inst.id])
            for inst in self.instances
            if inst.scale and not inst.scale.startswith("P")
        }


UNITS = {"_s": "s", ".s": "s", "_ms": "ms", "_share": "ratio", "_bytes": "bytes", "_chars": "chars",
         "_nodes": "nodes", ".steps": "steps"}


def _unit(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def _median_per_instance(times: dict[str, list[float]]) -> list[float]:
    return [statistics.median(v) for v in times.values() if v]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_library()
    import pipeline
    import workloads
    from spans import Tracer
    from speed import Speedometer

    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    instances = workloads.instances(args.workload, seed, PROGRAMS)
    # The seed also fixes the order instances run in.
    random.Random(seed).shuffle(instances)
    setup_s = None if args.trace else _setup_seconds(args.workload, seed)

    texts = {}
    for inst in instances:
        try:
            texts[inst.id] = pipeline.oracle_texts(inst)
        except Exception as exc:  # noqa: BLE001 - reported as that instance's failure
            texts[inst.id] = exc
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rule_metrics = [m["name"] for m in declared["per_layer"] if m["name"].startswith("merge.rule.")]
    bench = Bench(instances, texts, Speedometer(), rule_metrics)
    tracer = Tracer() if args.trace else None

    started = time.perf_counter()
    pass_s = [bench.run_pass(pipeline, record=False)]
    # Timed passes, alternating untraced and traced under --trace 1, until
    # the next pass would overrun --seconds. The first pass also ran the
    # output checks, so its timed part, not its wall time, predicts the next.
    passes = 0
    min_passes = 2 if args.trace else 1
    while passes < min_passes or time.perf_counter() - started + max(pass_s[-2:]) <= args.seconds:
        if tracer and passes % 2 == 1:
            tracer.reset()
            tracer.keep = passes == 1
            with tracer.patched():
                pass_s.append(bench.run_pass(pipeline, tracer))
        else:
            pass_s.append(bench.run_pass(pipeline))
        passes += 1

    max_len, crashed = None, None
    if args.workload == "long-exchange":
        rungs = workloads.long_exchange(workloads.LADDER_LENGTHS)
        max_len, crashed, ladder_problems = pipeline.ladder(
            rungs, workloads.LONG_LENGTHS[-1], LADDER_LIMIT_S
        )
        bench.problems += ladder_problems
        bench.attempted += len(ladder_problems)
        bench.failed += len(ladder_problems)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Every time below is at reference speed (see speed.py).
    factor = statistics.median(bench.speed.factors)
    infer = _median_per_instance(bench.infer_times)
    oracle = _median_per_instance(bench.oracle_times)
    v = bench.verdicts
    w = args.workload
    print(f"# {w} seed={seed} instances={len(instances)} timed passes={passes} "
          f"(untraced {len(bench.untraced_pass_s)}, traced {len(bench.traced_pass_s)})")

    def show(name, value, unit, note=""):
        print(f"{w:16s} {name:32s} {value:14.6g} {unit}{'  ' + note if note else ''}")

    show("speed.factor", factor, "ratio", f"median over {len(bench.speed.factors)} passes")
    if setup_s is not None:
        show("setup_s", setup_s, "s", f"median of {SETUP_SAMPLES} fresh interpreters")
    show("infer_s", sum(infer), "s", f"sum of per-instance medians; about {sum(infer) / factor:.6g} s measured")
    if w == "exchange-corpus":
        cuts = statistics.quantiles(infer, n=100)
        show("infer_ms.p50", 1000 * statistics.median(infer), "ms", f"{len(infer)} samples")
        show("infer_ms.p98", 1000 * cuts[97], "ms", f"{len(infer)} samples")
    show("oracle_s", sum(oracle), "s", f"sum of per-instance medians; about {sum(oracle) / factor:.6g} s measured")
    show("peak_rss_mb", peak_rss_mb, "MiB")
    show("failed_share", bench.failed / bench.attempted, "ratio", f"{bench.failed}/{bench.attempted}")
    show("false_reject_share", v["false_rejects"] / max(v["completed"], 1), "ratio",
         f"{v['false_rejects']}/{v['completed']} (accepted {v['accepted']})")
    for block, (acc, comp, fr) in sorted(bench.blocks.items()):
        print(f"#   corpus block {block}: {acc} accepted, {comp} completed, {fr} false rejects")
    if max_len is not None:
        show("max_len", max_len, "exchanges", "ladder stopped on " + ("an exception" if crashed else "the time limit or its end"))

    if tracer:
        layers = {}
        for key in bench.traced_layers[0]:
            values = [p[key] for p in bench.traced_layers]
            timed = _unit(key) in ("s", "ms", "ratio")
            layers[key] = statistics.median(values) if timed else values[0]
        layers["trace.overhead_share"] = (
            statistics.median(bench.traced_pass_s) / statistics.median(bench.untraced_pass_s) - 1
        )
        scale = bench.infer_scale()
        scale.update({k: layers.pop(k) for k in list(layers) if k.startswith("scale.")})
        for key in sorted(scale, key=lambda k: (k[6], int(k.split(".")[1][1:]))):
            layers[key] = scale[key]
        if crashed is not None:
            layers["ladder.crashes"] = int(crashed)
        for key, value in layers.items():
            show(key, value, _unit(key))
        SPANS_DIR.mkdir(exist_ok=True)
        spans_file = SPANS_DIR / f"spans-{w}-{seed}.csv"
        tracer.write(spans_file)
        print(f"# {len(tracer.spans)} spans of the first traced pass in {spans_file.relative_to(ROOT)}")
        wanted, values = declared["per_layer"], layers
    else:
        wanted = declared["end_to_end"]
        values = {"setup_s": setup_s, "infer_s": sum(infer), "oracle_s": sum(oracle),
                  "peak_rss_mb": peak_rss_mb}

    for problem in bench.problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    correct = not bench.problems
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
