"""Command-line interface.

Subcommands:
  infer     extract per-rank local types from process source and merge them
  extract   show one rank's local type
  merge     merge two protocol files under an explicit rank set
  simulate  run per-rank protocol files together under rendezvous semantics

Exit codes: 0 success; 1 protocol rejected (deadlock, mismatch,
rank-dependent control flow); 2 parse error; 3 undecidable (entailment,
datatype equivalence, or loop unfolding budget); 4 bad invocation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .ast import Diagnostic, DiagnosticKind, IntLit, ProtocolType, ProtomergeError, subst_type
from .extract import extract_local_type
from .logic import (
    DEFAULT_ENUM_CAP,
    InvalidRankSet,
    NotIntegerRefined,
    UndecidableEquivalence,
    initial_context,
    merged_context,
)
from .merge import (
    DEFAULT_UNROLL,
    MergeFailure,
    MergeTrace,
    NonConstantBounds,
    merge_all,
    merge_types,
)
from .oracle import (
    CollectiveEvent,
    Completed,
    Deadlocked,
    MessageEvent,
    Mismatch,
    OpenIndexTerm,
    SimResult,
    UnfoldBudgetExceeded,
    cap_loops,
    linearize,
    simulate,
)
from .syntax import ParseError, parse_process, parse_protocol, print_datatype, print_protocol

__all__ = ["main"]

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_PARSE = 2
EXIT_UNDECIDABLE = 3
EXIT_USAGE = 4


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage failures exit with code 4, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _rank_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _non_negative(text: str) -> int:
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def _positive(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="protomerge", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    infer = sub.add_parser("infer", help="extract and merge all ranks")
    infer.add_argument("files", nargs="+", help="one process file for every rank, or one per rank")
    infer.add_argument("--size", type=int, required=True, help="number of ranks (at least 2)")
    infer.add_argument("--order", type=_rank_list, default=None, help="merge order, e.g. 0,2,1")
    infer.add_argument("--enum-cap", type=_non_negative, default=DEFAULT_ENUM_CAP)
    infer.add_argument("--unroll", type=_non_negative, default=DEFAULT_UNROLL)
    infer.add_argument("--trace", action="store_true", help="log merge rule applications")
    infer.add_argument("--json", action="store_true")
    infer.set_defaults(run=_cmd_infer)

    extract = sub.add_parser("extract", help="show one rank's local type")
    extract.add_argument("file", help="process file")
    extract.add_argument("--rank", type=int, required=True)
    extract.add_argument("--size", type=int, required=True)
    extract.add_argument("--json", action="store_true")
    extract.set_defaults(run=_cmd_extract)

    merge = sub.add_parser("merge", help="merge two protocol files")
    merge.add_argument("left", help="protocol accumulated for the merged ranks")
    merge.add_argument("right", help="local type of the rank being merged in")
    merge.add_argument("--size", type=int, required=True)
    merge.add_argument("--merged", type=_rank_list, required=True, help="already-merged ranks, e.g. 0,1")
    merge.add_argument("--k", type=int, required=True, help="rank being merged in")
    merge.add_argument("--enum-cap", type=_non_negative, default=DEFAULT_ENUM_CAP)
    merge.add_argument("--trace", action="store_true")
    merge.add_argument("--json", action="store_true")
    merge.set_defaults(run=_cmd_merge)

    sim = sub.add_parser("simulate", help="run per-rank protocols to a verdict")
    sim.add_argument("files", nargs="+", help="one protocol file per rank")
    sim.add_argument("--size", type=int, required=True)
    sim.add_argument("--unroll", type=_positive, default=DEFAULT_UNROLL, help="cap loop iterations")
    sim.add_argument("--json", action="store_true")
    sim.set_defaults(run=_cmd_simulate)

    return parser


# ---------------------------------------------------------------------------
# Serialization helpers


def _trace_doc(trace: MergeTrace) -> list[dict]:
    return [
        {
            "rule": step.rule,
            "left": step.left,
            "right": step.right,
            "premises": [
                {"name": p.name, "formula": p.formula, "verdict": p.verdict}
                for p in step.premises
            ],
        }
        for step in trace.steps
    ]


def _diagnostic_doc(d: Diagnostic) -> dict:
    return {
        "status": "error",
        "kind": d.kind.value,
        "location": d.location,
        "rule_trace": [
            {"rule": a.rule, "failed_premise": a.failed_premise} for a in d.rule_trace
        ],
    }


def _print_trace(trace: MergeTrace, index: int, stream) -> None:
    for step in trace.steps:
        print(f"merge #{index} rule={step.rule} left={step.left} right={step.right}", file=stream)
        for p in step.premises:
            print(f"  premise {p.name}: {p.formula} -> {p.verdict}", file=stream)


def _print_diagnostic(d: Diagnostic) -> None:
    print(f"error: {d.kind.value} at {d.location}", file=sys.stderr)
    for attempt in d.rule_trace:
        print(f"  {attempt.rule}: {attempt.failed_premise}", file=sys.stderr)


def _event_doc(event) -> dict:
    match event:
        case MessageEvent(src, dst, payload):
            return {"event": "message", "src": src, "dst": dst, "payload": print_datatype(payload)}
        case CollectiveEvent(op, payload):
            return {"event": "collective", "op": op.value, "payload": print_datatype(payload)}


def _emit_result(
    args, result: ProtocolType, traces: list[MergeTrace]
) -> int:
    if args.json:
        doc = {
            "status": "ok",
            "protocol": print_protocol(result),
            "traces": [_trace_doc(t) for t in traces],
        }
        print(json.dumps(doc, indent=2))
    else:
        if args.trace:
            for i, trace in enumerate(traces):
                _print_trace(trace, i, sys.stderr)
        print(print_protocol(result))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_infer(args) -> int:
    if args.size < 2:
        raise ValueError(f"--size must be at least 2, got {args.size}")
    if len(args.files) not in (1, args.size):
        raise ValueError(
            f"expected 1 process file or {args.size} per-rank files, got {len(args.files)}"
        )
    ctx = initial_context(args.size)
    # Each distinct file is read and parsed once, however many ranks share it.
    texts = {f: _read(f) for f in dict.fromkeys(args.files)}
    programs = {f: parse_process(text, f) for f, text in texts.items()}
    locals_: list[tuple[int, ProtocolType]] = []
    for rank in range(args.size):
        program = programs[args.files[0] if len(args.files) == 1 else args.files[rank]]
        locals_.append((rank, extract_local_type(ctx, program, rank, args.size)))
    result, traces = merge_all(
        args.size, locals_, order=args.order, enum_cap=args.enum_cap, unroll=args.unroll
    )
    # Local types stay parametric in size; the inferred protocol describes
    # one fixed world, so it closes over the size literal.
    result = subst_type(result, {"size": IntLit(args.size)})
    return _emit_result(args, result, traces)


def _cmd_extract(args) -> int:
    if not (0 <= args.rank < args.size):
        raise ValueError(f"--rank must lie in 0..{args.size - 1}, got {args.rank}")
    ctx = initial_context(args.size)
    program = parse_process(_read(args.file), args.file)
    local = extract_local_type(ctx, program, args.rank, args.size)
    if args.json:
        print(json.dumps({"status": "ok", "local_type": print_protocol(local)}, indent=2))
    else:
        print(print_protocol(local))
    return EXIT_OK


def _cmd_merge(args) -> int:
    ctx = merged_context(args.size, args.merged)
    left = parse_protocol(_read(args.left), args.left)
    right = parse_protocol(_read(args.right), args.right)
    result, trace = merge_types(ctx, left, right, args.k, enum_cap=args.enum_cap)
    return _emit_result(args, result, [trace])


def _cmd_simulate(args) -> int:
    if len(args.files) != args.size:
        raise ValueError(f"expected {args.size} protocol files, got {len(args.files)}")
    ctx = initial_context(args.size)
    actions = []
    for rank, path in enumerate(args.files):
        local = parse_protocol(_read(path), path)
        capped = cap_loops(ctx, local, args.unroll)
        actions.append(linearize(ctx, capped, rank))
    result = simulate(actions, args.size, ctx=ctx)
    return _report_simulation(args, result)


def _report_simulation(args, result: SimResult) -> int:
    match result:
        case Completed(trace):
            if args.json:
                doc = {
                    "status": "ok",
                    "result": "Completed",
                    "trace": [_event_doc(e) for e in trace],
                }
                print(json.dumps(doc, indent=2))
            else:
                print("Completed")
                for event in trace:
                    match event:
                        case MessageEvent(src, dst, payload):
                            print(f"  message {src} -> {dst}: {print_datatype(payload)}")
                        case CollectiveEvent(op, payload):
                            print(f"  allreduce {op.value}: {print_datatype(payload)}")
            return EXIT_OK
        case Deadlocked(stuck):
            if args.json:
                print(json.dumps({"status": "error", "result": "Deadlocked", "stuck": stuck}, indent=2))
            else:
                print(f"Deadlocked: {stuck}", file=sys.stderr)
            return EXIT_REJECTED
        case Mismatch(detail):
            if args.json:
                print(json.dumps({"status": "error", "result": "Mismatch", "detail": detail}, indent=2))
            else:
                print(f"Mismatch: {detail}", file=sys.stderr)
            return EXIT_REJECTED
    raise TypeError(f"unexpected simulation result {result!r}")


# ---------------------------------------------------------------------------
# Entry point


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE

    wants_json = getattr(args, "json", False)
    try:
        return args.run(args)
    except ParseError as exc:
        if wants_json:
            doc = {
                "status": "error",
                "kind": "ParseError",
                "message": exc.message,
                "file": exc.span.file,
                "line": exc.span.line,
                "col": exc.span.col,
            }
            print(json.dumps(doc, indent=2))
        else:
            print(f"parse error at {exc.span}: {exc.message}", file=sys.stderr)
        return EXIT_PARSE
    except MergeFailure as exc:
        if wants_json:
            print(json.dumps(_diagnostic_doc(exc.diagnostic), indent=2))
        else:
            _print_diagnostic(exc.diagnostic)
        if exc.diagnostic.kind is DiagnosticKind.ENTAILMENT_UNDECIDABLE:
            return EXIT_UNDECIDABLE
        return EXIT_REJECTED
    except (UndecidableEquivalence, UnfoldBudgetExceeded) as exc:
        _print_error(wants_json, type(exc).__name__, str(exc))
        return EXIT_UNDECIDABLE
    except (
        InvalidRankSet,
        NonConstantBounds,
        NotIntegerRefined,
        OpenIndexTerm,
        ValueError,
        OSError,
    ) as exc:
        if wants_json:
            _print_error(True, type(exc).__name__, str(exc))
        else:
            print(f"protomerge: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ProtomergeError as exc:
        _print_error(wants_json, type(exc).__name__, str(exc))
        return EXIT_REJECTED


def _print_error(wants_json: bool, kind: str, message: str) -> None:
    if wants_json:
        print(json.dumps({"status": "error", "kind": kind, "message": message}, indent=2))
    else:
        print(f"error: {kind}: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
