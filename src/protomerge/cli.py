"""Command-line interface.

Subcommands:
  infer     extract per-rank local types from process source and merge them
  extract   show one rank's local type
  merge     merge two protocol files under an explicit rank set
  simulate  run per-rank protocol files together under rendezvous semantics

Exit codes: 0 success; 1 protocol rejected (deadlock, mismatch,
rank-dependent control flow, a message no run can perform); 2 parse error;
3 undecidable (entailment, datatype equivalence, the loop unfolding budget,
or a merge too deep for the stack); 4 bad invocation (also a closed endpoint
or loop bound that divides by zero or has too many digits), or a stdout
closed before the output was written. `_ERRORS` maps each error to its code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Sequence

from .ast import DiagnosticKind, IntLit, ProtocolType, ProtomergeError, subst_type
from .extract import extract_local_type
from .logic import (
    InvalidRankSet,
    NotIntegerRefined,
    UndecidableEquivalence,
    initial_context,
    merged_context,
)
from .merge import (
    DEFAULT_UNROLL,
    MergeFailure,
    MergeStep,
    MergeTooDeep,
    MergeTrace,
    NonConstantBounds,
    _check_messages,
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


class _UsageError(Exception):
    """A command line that does not parse: argparse's message, and the text
    argparse would print for it."""


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage failures reach `main` as _UsageError, which
    exits with code 4, not 2."""

    def error(self, message):
        raise _UsageError(message, f"{self.format_usage()}{self.prog}: error: {message}")


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
# Output


def _report(wants_json: bool, doc: dict | None, text: str | None, code: int) -> int:
    """Print one outcome and return its exit code: the document as JSON on
    stdout under --json, otherwise the plain text, on stdout for a success
    and on stderr for an error. The form not printed may be None."""
    if wants_json:
        print(json.dumps(doc, indent=2))
    else:
        print(text, file=sys.stdout if code == EXIT_OK else sys.stderr)
    return code


def _event_doc(event) -> dict:
    match event:
        case MessageEvent(src, dst, payload):
            return {"event": "message", "src": src, "dst": dst, "payload": print_datatype(payload)}
        case CollectiveEvent(op, payload):
            return {"event": "collective", "op": op.value, "payload": print_datatype(payload)}


def _event_line(doc: dict) -> str:
    if doc["event"] == "message":
        return f"  message {doc['src']} -> {doc['dst']}: {doc['payload']}"
    return f"  allreduce {doc['op']}: {doc['payload']}"


def _step_doc(step: MergeStep) -> dict:
    premises = [{"name": p.name, "formula": p.formula, "verdict": p.verdict} for p in step.premises]
    return {"rule": step.rule, "left": step.left, "right": step.right, "premises": premises}


def _emit_result(
    args, result: ProtocolType, traces: list[MergeTrace]
) -> int:
    protocol = print_protocol(result)
    if args.json:
        steps = [[_step_doc(step) for step in trace.steps] for trace in traces]
        return _report(True, {"status": "ok", "protocol": protocol, "traces": steps}, None, EXIT_OK)
    for i, trace in enumerate(traces if args.trace else ()):
        for step in trace.steps:
            print(f"merge #{i} rule={step.rule} left={step.left} right={step.right}", file=sys.stderr)
            for p in step.premises:
                print(f"  premise {p.name}: {p.formula} -> {p.verdict}", file=sys.stderr)
    return _report(False, None, protocol, EXIT_OK)


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
    result, traces = merge_all(args.size, locals_, order=args.order, unroll=args.unroll)
    # Local types stay parametric in size; the inferred protocol describes
    # one fixed world, so it closes over the size literal.
    result = subst_type(result, {"size": IntLit(args.size)})
    return _emit_result(args, result, traces)


def _cmd_extract(args) -> int:
    if args.size < 1:
        raise ValueError(f"--size must be at least 1, got {args.size}")
    if not (0 <= args.rank < args.size):
        raise ValueError(f"--rank must lie in 0..{args.size - 1}, got {args.rank}")
    ctx = initial_context(args.size)
    program = parse_process(_read(args.file), args.file)
    local = extract_local_type(ctx, program, args.rank, args.size)
    text = print_protocol(local)
    return _report(args.json, {"status": "ok", "local_type": text}, text, EXIT_OK)


def _cmd_merge(args) -> int:
    ctx = merged_context(args.size, args.merged)
    left = parse_protocol(_read(args.left), args.left)
    right = parse_protocol(_read(args.right), args.right)
    result, trace = merge_types(ctx, left, right, args.k)
    return _emit_result(args, result, [trace])


def _cmd_simulate(args) -> int:
    if len(args.files) != args.size:
        raise ValueError(f"expected {args.size} protocol files, got {len(args.files)}")
    ctx = initial_context(args.size)
    actions = []
    for rank, path in enumerate(args.files):
        local = parse_protocol(_read(path), path)
        _check_messages(local, args.size, f"rank {rank}", 0)
        capped = cap_loops(ctx, local, args.unroll)
        actions.append(linearize(ctx, capped, rank))
    result = simulate(actions, args.size, ctx=ctx)
    return _report_simulation(args, result)


def _report_simulation(args, result: SimResult) -> int:
    match result:
        case Completed(trace):
            # A trace repeats few distinct events: each is rendered once, in
            # the form that is printed.
            docs = {e: _event_doc(e) for e in dict.fromkeys(trace)}
            if args.json:
                doc = {"status": "ok", "result": "Completed", "trace": [docs[e] for e in trace]}
                return _report(True, doc, None, EXIT_OK)
            lines = {e: _event_line(d) for e, d in docs.items()}
            return _report(False, None, "\n".join(["Completed"] + [lines[e] for e in trace]), EXIT_OK)
        case Deadlocked(stuck):
            doc = {"status": "error", "result": "Deadlocked", "stuck": stuck}
            return _report(args.json, doc, f"Deadlocked: {stuck}", EXIT_REJECTED)
        case Mismatch(detail):
            doc = {"status": "error", "result": "Mismatch", "detail": detail}
            return _report(args.json, doc, f"Mismatch: {detail}", EXIT_REJECTED)
    raise TypeError(f"unexpected simulation result {result!r}")


# ---------------------------------------------------------------------------
# Entry point


def main(argv: Sequence[str] | None = None) -> int:
    try:
        code = _run(argv)
        if sys.stdout is not None:  # None when started with stdout closed
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout has gone, as in `protomerge ... | head -1`.
        _drop_stdout()
        return EXIT_USAGE
    return code


def _drop_stdout() -> None:
    """Point stdout at os.devnull, as the Python docs' note on SIGPIPE
    advises, so that what is still buffered, flushed at exit, fails no
    more. A stream without a file descriptor is replaced instead."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, sys.stdout.fileno())
    except (AttributeError, OSError, ValueError):
        sys.stdout = os.fdopen(devnull, "w")
    else:
        os.close(devnull)


# Every error without a document of its own, in order: the first row whose
# classes match gives the exit code and the plain line.
_KIND_LINE = "error: {kind}: {message}"
_USAGE_LINE = "protomerge: error: {message}"
_ERRORS = (
    ((UndecidableEquivalence, UnfoldBudgetExceeded, MergeTooDeep), EXIT_UNDECIDABLE, _KIND_LINE),
    ((InvalidRankSet, NonConstantBounds, NotIntegerRefined, OpenIndexTerm), EXIT_USAGE, _USAGE_LINE),
    ((ValueError, OSError), EXIT_USAGE, _USAGE_LINE),
    ((ProtomergeError,), EXIT_REJECTED, _KIND_LINE),
)
_CAUGHT = tuple(cls for classes, _, _ in _ERRORS for cls in classes)


def _run(argv: Sequence[str] | None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        message, text = exc.args
        doc = {"status": "error", "kind": "UsageError", "message": message}
        return _report(_asks_for_json(argv), doc, text, EXIT_USAGE)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE

    try:
        return args.run(args)
    except BrokenPipeError:
        raise  # an OSError, but of stdout: main handles it
    except ParseError as exc:
        doc = {
            "status": "error",
            "kind": "ParseError",
            "message": exc.message,
            "file": exc.span.file,
            "line": exc.span.line,
            "col": exc.span.col,
        }
        text = "parse error at {file}:{line}:{col}: {message}".format(**doc)
        return _report(args.json, doc, text, EXIT_PARSE)
    except MergeFailure as exc:
        d = exc.diagnostic
        doc = {
            "status": "error",
            "kind": d.kind.value,
            "location": d.location,
            "rule_trace": [
                {"rule": a.rule, "failed_premise": a.failed_premise} for a in d.rule_trace
            ],
        }
        lines = [f"error: {doc['kind']} at {doc['location']}"]
        lines += [f"  {a['rule']}: {a['failed_premise']}" for a in doc["rule_trace"]]
        code = EXIT_UNDECIDABLE if d.kind is DiagnosticKind.ENTAILMENT_UNDECIDABLE else EXIT_REJECTED
        return _report(args.json, doc, "\n".join(lines), code)
    except _CAUGHT as exc:
        _, code, line = next(row for row in _ERRORS if isinstance(exc, row[0]))
        doc = {"status": "error", "kind": type(exc).__name__, "message": str(exc)}
        return _report(args.json, doc, line.format(**doc), code)


def _asks_for_json(argv: list[str]) -> bool:
    """Whether argv sets `--json`, or a prefix of it that argparse would take
    for it, in a command line that does not parse."""
    probe = _Parser(add_help=False)
    probe.add_argument("--json", action="store_true")
    try:
        return probe.parse_known_args(argv)[0].json
    except _UsageError:  # `--json=...`
        return False


if __name__ == "__main__":
    sys.exit(main())
