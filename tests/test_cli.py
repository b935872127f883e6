"""Command line interface: subcommands, exit codes, output shapes."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import protomerge
import protomerge.cli as cli_module
import protomerge.logic as logic_module
from protomerge import (
    cap_loops,
    dtype_equiv,
    extract_local_type,
    initial_context,
    linearize,
    parse_process,
    simulate,
)
from protomerge.cli import main
from protomerge.syntax import (
    MAX_BLOCK_DEPTH,
    MAX_TERM_DEPTH,
    ParseError,
    parse_datatype,
    parse_protocol,
    print_protocol,
)

import reference_oracle


PROGRAMS = Path(protomerge.__file__).parent / "programs"

RING = """
if rank = size - 1 {
  send to 0 float
} else {
  send to (rank + 1) float
};
if rank = 0 {
  recv from (size - 1) float
} else {
  recv from (rank - 1) float
}
"""


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return _write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInfer:
    def test_bundled_pipeline_program(self, capsys):
        code, out, err = run(capsys, "infer", str(PROGRAMS / "nbody.proc"), "--size", "3")
        assert code == 0
        assert err == ""
        assert out.startswith("foreach iter: 1..5000000 {\n")
        assert "message 0 1 float[1000000 / 3 * 4];" in out
        assert "allreduce min float" in out

    def test_deterministic_output(self, capsys):
        argv = ("infer", str(PROGRAMS / "nbody.proc"), "--size", "3")
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second

    def test_per_rank_files(self, capsys, write):
        files = [write(f"r{r}.proc", "allreduce min float") for r in range(3)]
        code, out, _ = run(capsys, "infer", *files, "--size", "3")
        assert code == 0
        assert out == "allreduce min float\n"

    def test_each_distinct_file_is_parsed_once(self, capsys, write, monkeypatch):
        parse, parsed = cli_module.parse_process, []

        def counting(text, name):
            parsed.append(name)
            return parse(text, name)

        monkeypatch.setattr(cli_module, "parse_process", counting)
        shared = str(PROGRAMS / "nbody.proc")
        assert run(capsys, "infer", shared, "--size", "8")[0] == 0
        assert parsed == [shared]
        parsed.clear()
        a, b = write("a.proc", "allreduce min float"), write("b.proc", "allreduce min float")
        assert run(capsys, "infer", a, b, a, "--size", "3")[0] == 0
        assert parsed == [a, b]

    def test_trace_goes_to_stderr(self, capsys, write):
        f = write("p.proc", RING)
        code, out, err = run(capsys, "infer", f, "--size", "3", "--trace")
        assert code == 1  # the symmetric ring deadlocks
        f2 = write("ok.proc", "allreduce min float")
        code, out, err = run(capsys, "infer", f2, "--size", "2", "--trace")
        assert code == 0
        assert out == "allreduce min float\n"
        assert "merge #0 rule=allred-allred" in err
        assert "premise op-equal: min = min -> equal" in err

    def test_json_success_shape(self, capsys, write):
        f = write("ok.proc", "allreduce min float")
        code, out, _ = run(capsys, "infer", f, "--size", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "ok"
        assert doc["protocol"] == "allreduce min float"
        step = doc["traces"][0][0]
        assert set(step) == {"rule", "left", "right", "premises"}
        assert step["premises"][0] == {
            "name": "op-equal",
            "formula": "min = min",
            "verdict": "equal",
        }

    def test_deadlock_diagnostic_text(self, capsys, write):
        f = write("ring.proc", RING)
        code, out, err = run(capsys, "infer", f, "--size", "3")
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert lines[0] == "error: DeadlockSuspected at merging rank 2 into ranks [0, 1]: seq.first"
        assert any(line.startswith("  msg-msg-eq: ") for line in lines[1:])

    def test_deadlock_diagnostic_json(self, capsys, write):
        f = write("ring.proc", RING)
        code, out, _ = run(capsys, "infer", f, "--size", "2", "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "error"
        assert doc["kind"] == "DeadlockSuspected"
        assert doc["location"].startswith("merging rank 1 into ranks [0]")
        assert all(set(a) == {"rule", "failed_premise"} for a in doc["rule_trace"])

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "if rank = 0 { send to 5 float } else { skip }",
                "rank 0: `message 0 5 float` does not join two ranks of 0..1",
            ),
            (
                "if rank = 0 { send to 0 float } else { skip }",
                "rank 0: `message 0 0 float` does not join two ranks of 0..1",
            ),
            (
                "for i: 1 .. 2 { if rank = 1 { recv from (0 - 1) float } else { skip } }",
                "rank 1: `message (-1) 1 float` does not join two ranks of 0..1",
            ),
        ],
        ids=["outside", "itself", "nested"],
    )
    def test_a_message_no_run_can_perform_is_rejected(self, capsys, write, text, message):
        # The library's oracle finds the extracted ranks deadlocked; `simulate`
        # refuses their local types as `infer` refuses the program.
        ctx = initial_context(2)
        program = parse_process(text)
        locals_ = [extract_local_type(ctx, program, r, 2) for r in range(2)]
        actions = [linearize(ctx, t, r) for r, t in enumerate(locals_)]
        assert type(simulate(actions, 2)).__name__ == "Deadlocked"
        f = write("bad.proc", text)
        files = [write(f"r{r}.ptype", print_protocol(t)) for r, t in enumerate(locals_)]
        for argv in (("infer", f, "--size", "2"), ("simulate", *files, "--size", "2")):
            assert run(capsys, *argv) == (1, "", f"error: IllFormedMessage: {message}\n")
            code, out, err = run(capsys, *argv, "--json")
            assert (code, json.loads(out), err) == (
                1, {"status": "error", "kind": "IllFormedMessage", "message": message}, ""
            )

    def test_order_flag(self, capsys, write):
        files = [write(f"r{r}.proc", "allreduce min float") for r in range(3)]
        code, out, _ = run(capsys, "infer", *files, "--size", "3", "--order", "2,0,1")
        assert code == 0
        assert out == "allreduce min float\n"

    def test_many_ranks_without_recursion_error(self, capsys, write):
        code, out, err = run(capsys, "infer", write("skip.proc", "skip\n"), "--size", "600")
        assert (code, out, err) == (0, "skip\n", "")

    def test_size_too_small(self, capsys, write):
        f = write("p.proc", "skip")
        code, _, err = run(capsys, "infer", f, "--size", "1")
        assert code == 4
        assert err.startswith("protomerge: error: --size must be at least 2")

    def test_wrong_file_count(self, capsys, write):
        files = [write(f"r{r}.proc", "skip") for r in range(2)]
        code, _, err = run(capsys, "infer", *files, "--size", "3")
        assert code == 4
        assert "expected 1 process file or 3 per-rank files" in err

    def test_enum_cap_is_not_an_option(self, capsys):
        code, out, err = run(
            capsys, "infer", str(PROGRAMS / "nbody.proc"), "--size", "3", "--enum-cap", "5"
        )
        assert (code, out) == (4, "")
        assert err.endswith("error: unrecognized arguments: --enum-cap 5\n")

    def test_negative_unroll_is_a_usage_error(self, capsys):
        code, out, err = run(
            capsys, "infer", str(PROGRAMS / "nbody.proc"), "--size", "3", "--unroll", "-1"
        )
        assert code == 4
        assert out == ""
        assert err.endswith("error: argument --unroll: must not be negative, got -1\n")


class TestExtract:
    def test_enum_cap_is_not_an_option(self, capsys):
        code, _, err = run(
            capsys,
            "extract",
            str(PROGRAMS / "one_to_all.proc"),
            "--rank",
            "0",
            "--size",
            "3",
            "--enum-cap",
            "5",
        )
        assert code == 4
        assert "unrecognized arguments: --enum-cap 5" in err

    def test_fan_out_rank_zero(self, capsys):
        code, out, _ = run(
            capsys, "extract", str(PROGRAMS / "one_to_all.proc"), "--rank", "0", "--size", "3"
        )
        assert code == 0
        assert out == "foreach i: 1..2 {\n  message 0 i float[n * 4]\n}\n"

    def test_fan_out_receiver(self, capsys):
        code, out, _ = run(
            capsys, "extract", str(PROGRAMS / "one_to_all.proc"), "--rank", "2", "--size", "3"
        )
        assert code == 0
        assert out == "message 0 2 float[n * 4]\n"

    def test_json_shape(self, capsys):
        code, out, _ = run(
            capsys,
            "extract",
            str(PROGRAMS / "one_to_all.proc"),
            "--rank",
            "1",
            "--size",
            "3",
            "--json",
        )
        assert code == 0
        assert json.loads(out) == {"status": "ok", "local_type": "message 0 1 float[n * 4]"}

    def test_rank_out_of_range(self, capsys):
        code, _, err = run(
            capsys, "extract", str(PROGRAMS / "one_to_all.proc"), "--rank", "3", "--size", "3"
        )
        assert code == 4
        assert "--rank must lie in 0..2" in err

    @pytest.mark.parametrize("size", ["0", "-2"])
    def test_a_size_below_one_is_named(self, capsys, size):
        """The size is refused by name before the rank is checked against it."""
        argv = ["extract", str(PROGRAMS / "one_to_all.proc"), "--rank", "0", "--size", size]
        message = f"--size must be at least 1, got {size}"
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (4, "", f"protomerge: error: {message}\n")
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (4, "")
        assert json.loads(out) == {"status": "error", "kind": "ValueError", "message": message}

    def test_long_program_without_recursion_error(self, capsys, write):
        f = write("long.proc", ";\n".join(["send to 1 float", "recv from 1 integer"] * 2500))
        code, out, err = run(capsys, "extract", f, "--rank", "0", "--size", "2")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == 5000
        assert lines[-2:] == ["message 0 1 float;", "message 1 0 integer"]


class TestMerge:
    def test_ring_first_step(self, capsys, write):
        left = write("left.ptype", "message 0 1 float;\nmessage 2 0 float")
        right = write("right.ptype", "message 0 1 float;\nmessage 1 2 float")
        code, out, err = run(
            capsys, "merge", left, right, "--size", "3", "--merged", "0", "--k", "1"
        )
        assert code == 0
        assert out == "message 0 1 float;\nmessage 1 2 float;\nmessage 2 0 float\n"
        assert err == ""

    def test_trace_lines(self, capsys, write):
        left = write("left.ptype", "message 0 1 float;\nmessage 2 0 float")
        right = write("right.ptype", "message 0 1 float;\nmessage 1 2 float")
        _, _, err = run(
            capsys, "merge", left, right, "--size", "3", "--merged", "0", "--k", "1", "--trace"
        )
        rules = [line.split()[2] for line in err.splitlines() if line.startswith("merge #0")]
        assert rules == ["rule=seq-seq", "rule=msg-msg-eq", "rule=msg-msg-right"]

    def test_undecidable_payload_exits_3(self, capsys, write):
        left = write("left.ptype", "message 0 1 {x: float | x < 1}")
        right = write("right.ptype", "message 0 1 {x: float | x < 2}")
        code, _, err = run(
            capsys, "merge", left, right, "--size", "3", "--merged", "0", "--k", "1"
        )
        assert code == 3
        assert err.startswith("error: EntailmentUndecidable at root")

    @pytest.mark.parametrize(
        "left_text, right_text, code, kind",
        [
            # Every rule is refused by a definite verdict; the undecidable
            # payload premise of msg-msg-eq is never reached.
            ("message 1 2 {x: float | x > 0}", "message 1 0 {x: float | x > 1}", 1, "DeadlockSuspected"),
            # msg-msg-eq's first failed premise is the undecidable payload one.
            ("message 0 1 {x: float | x > 0}", "message 0 1 {x: float | x > 1}", 3, "EntailmentUndecidable"),
        ],
        ids=["unreached", "reached"],
    )
    def test_undecidable_only_where_a_rule_reaches_it(
        self, capsys, write, left_text, right_text, code, kind
    ):
        left, right = write("left.ptype", left_text), write("right.ptype", right_text)
        argv = ("merge", left, right, "--size", "3", "--merged", "0", "--k", "1")
        got, out, err = run(capsys, *argv)
        assert (got, out) == (code, "")
        assert err.startswith(f"error: {kind} at root\n")
        rules = [line.split(":")[0].strip() for line in err.splitlines()[1:]]
        assert rules == ["msgS-msgS", "msg-msgS", "msgS-msg", "msg-msg-eq", "msg-msg-right", "msg-msg-left"]
        got, out, err = run(capsys, *argv, "--json")
        doc = json.loads(out)
        assert (got, doc["kind"], doc["location"], err) == (code, kind, "root", "")
        undecidable = [a for a in doc["rule_trace"] if a["failed_premise"].endswith(" is Undecidable")]
        assert [a["rule"] for a in undecidable] == ([] if code == 1 else ["msg-msg-eq"])

    def test_k_inside_merged_set_rejected(self, capsys, write):
        left = write("left.ptype", "skip")
        right = write("right.ptype", "skip")
        code, _, err = run(
            capsys, "merge", left, right, "--size", "3", "--merged", "0,1", "--k", "0"
        )
        assert code == 4
        assert err.startswith("protomerge: error: rank 0 is already part of the merged set")

    def test_enum_cap_is_not_an_option(self, capsys, write):
        left = write("left.ptype", "message 0 1 float")
        right = write("right.ptype", "message 0 1 float")
        code, out, err = run(
            capsys, "merge", left, right, "--size", "3", "--merged", "0", "--k", "1",
            "--enum-cap", "5",
        )
        assert (code, out) == (4, "")
        assert err.endswith("error: unrecognized arguments: --enum-cap 5\n")

    @pytest.mark.parametrize("enum_cap", [0, 1, None])
    def test_payload_verdict_ignores_enum_cap(self, capsys, write, monkeypatch, enum_cap):
        # The interval and the equalities describe the same two values; the
        # library agrees with the merge at every enumeration budget (None
        # keeps the default).
        if enum_cap is not None:
            monkeypatch.setattr(logic_module, "ENUM_BUDGET", enum_cap)
        ctx = initial_context(2)
        a = parse_datatype("{x: integer | 0 <= x and x < 2}")
        b = parse_datatype("{x: integer | x = 0 or x = 1}")
        assert dtype_equiv(ctx, a, b) and dtype_equiv(ctx, b, a)
        interval = write("p1.ptype", "message 0 1 {x: integer | 0 <= x and x < 2}")
        points = write("p2.ptype", "message 0 1 {x: integer | x = 0 or x = 1}")
        code, out, err = run(
            capsys, "merge", interval, points, "--size", "2", "--merged", "0", "--k", "1"
        )
        assert (code, out, err) == (0, "message 0 1 {x: integer | 0 <= x and x < 2}\n", "")
        code, out, _ = run(capsys, "simulate", interval, points, "--size", "2")
        assert code == 0

    @pytest.mark.parametrize(
        "left_text, right_text, message",
        [
            ("message 0 5 float", "skip",
             "the merged ranks: `message 0 5 float` does not join two ranks of 0..1"),
            ("skip", "message 1 1 float", "rank 1: `message 1 1 float` does not join two ranks of 0..1"),
        ],
        ids=["left", "right"],
    )
    def test_a_message_no_run_can_perform_is_rejected(
        self, capsys, write, left_text, right_text, message
    ):
        left, right = write("left.ptype", left_text), write("right.ptype", right_text)
        argv = ("merge", left, right, "--size", "2", "--merged", "0", "--k", "1")
        assert run(capsys, *argv) == (1, "", f"error: IllFormedMessage: {message}\n")
        code, out, err = run(capsys, *argv, "--json")
        assert (code, json.loads(out), err) == (
            1, {"status": "error", "kind": "IllFormedMessage", "message": message}, ""
        )

    @pytest.mark.parametrize("k", ["-1", "3"])
    def test_k_outside_the_world_rejected(self, capsys, write, k):
        left = write("left.ptype", "message 0 1 float")
        right = write("right.ptype", "message 0 5 float")
        code, out, err = run(
            capsys, "merge", left, right, "--size", "3", "--merged", "0,1", "--k", k
        )
        assert code == 4
        assert out == ""
        assert err == f"protomerge: error: rank {k} out of range for size 3\n"


class TestSimulate:
    def test_completed_with_events(self, capsys, write):
        a = write("a.ptype", "message 0 1 float; allreduce min float")
        b = write("b.ptype", "message 0 1 float; allreduce min float")
        code, out, _ = run(capsys, "simulate", a, b, "--size", "2")
        assert code == 0
        assert out == "Completed\n  message 0 -> 1: float\n  allreduce min: float\n"

    def test_deadlock(self, capsys, write):
        a = write("a.ptype", "message 0 1 float")
        b = write("b.ptype", "message 1 0 float")
        code, out, err = run(capsys, "simulate", a, b, "--size", "2")
        assert code == 1
        assert out == ""
        assert err == "Deadlocked: rank 0: send float to 1; rank 1: send float to 0\n"

    def test_mismatch(self, capsys, write):
        a = write("a.ptype", "message 0 1 float")
        b = write("b.ptype", "message 0 1 integer")
        code, _, err = run(capsys, "simulate", a, b, "--size", "2")
        assert code == 1
        assert err == "Mismatch: rank 0 sends float but rank 1 expects integer\n"

    def test_json_completed_shape(self, capsys, write):
        a = write("a.ptype", "message 0 1 float")
        b = write("b.ptype", "message 0 1 float")
        code, out, _ = run(capsys, "simulate", a, b, "--size", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "status": "ok",
            "result": "Completed",
            "trace": [{"event": "message", "src": 0, "dst": 1, "payload": "float"}],
        }

    @pytest.mark.parametrize("as_json", [False, True])
    def test_each_distinct_event_is_rendered_once(self, capsys, write, monkeypatch, as_json):
        n, program = 4, parse_process((PROGRAMS / "nbody.proc").read_text())
        ctx = initial_context(n)
        types = [extract_local_type(ctx, program, r, n) for r in range(n)]
        files = [write(f"r{r}.ptype", print_protocol(t)) for r, t in enumerate(types)]
        actions = [linearize(ctx, cap_loops(ctx, t, n), r) for r, t in enumerate(types)]
        result = simulate(actions, n, ctx)
        distinct = set(result.trace)
        assert len(result.trace) > 2 * len(distinct)
        render, rendered = cli_module.print_datatype, []

        def counting(d):
            rendered.append(d)
            return render(d)

        monkeypatch.setattr(cli_module, "print_datatype", counting)
        code, out, _ = run(capsys, "simulate", *files, "--size", str(n), "--unroll", str(n),
                           *(["--json"] if as_json else []))
        assert code == 0
        assert len(rendered) == len(distinct)
        lines = json.loads(out)["trace"] if as_json else out.splitlines()[1:]
        assert len(lines) == len(result.trace)

    def test_loops_are_capped_by_unroll(self, capsys, write):
        a = write("a.ptype", "foreach i: 1..5000000 { message 0 1 float }")
        b = write("b.ptype", "foreach i: 1..5000000 { message 0 1 float }")
        code, out, _ = run(capsys, "simulate", a, b, "--size", "2")
        assert code == 0
        assert out.count("message 0 -> 1") == 2

    def test_long_loop_unrolls_without_recursion_error(self, capsys, write):
        a = write("a.ptype", "foreach i: 1..5000 { message 0 1 float }")
        b = write("b.ptype", "foreach i: 1..5000 { message 0 1 float }")
        code, out, _ = run(capsys, "simulate", a, b, "--size", "2", "--unroll", "5000")
        assert code == 0
        assert out.count("message 0 -> 1") == 5000

    def test_long_protocols_without_recursion_error(self, capsys, write):
        text = ";\n".join(["message 0 1 float", "message 1 0 float"] * 2500)
        a, b = write("a.ptype", text), write("b.ptype", text)
        code, out, _ = run(capsys, "simulate", a, b, "--size", "2")
        assert code == 0
        assert out.startswith("Completed\n")
        assert out.count("message 1 -> 0") == 2500

    def test_unfold_budget_exits_3(self, capsys, write):
        a = write("a.ptype", "foreach i: 1..5000000 { message 0 1 float }")
        b = write("b.ptype", "foreach i: 1..5000000 { message 0 1 float }")
        started = time.perf_counter()
        code, _, err = run(capsys, "simulate", a, b, "--size", "2", "--unroll", "5000000")
        assert time.perf_counter() - started < 1.0
        assert code == 3
        assert err.startswith("error: UnfoldBudgetExceeded:")

    def test_many_independent_pairs_deadlock(self, capsys, write):
        # Seven pairs: six exchange, one sends both ways. An exhaustive
        # interleaving search would visit millions of states here.
        files = []
        for p in range(7):
            lo, hi = 2 * p, 2 * p + 1
            if p == 3:
                text = f"message {lo} {hi} float;\nmessage {hi} {lo} float"
                files += [write(f"r{lo}.ptype", text), write(f"r{hi}.ptype", f"message {hi} {lo} float")]
            else:
                text = ";\n".join([f"message {lo} {hi} float", f"message {hi} {lo} float"] * 3)
                files += [write(f"r{lo}.ptype", text), write(f"r{hi}.ptype", text)]
        code, out, err = run(capsys, "simulate", *files, "--size", "14")
        assert code == 1
        assert out == ""
        assert err.startswith("Deadlocked: ")
        assert "rank 6: send float to 7; rank 7: send float to 6" in err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_unroll_below_one_is_a_usage_error(self, capsys, value):
        # Rejected while parsing the command line, before any file is read.
        code, out, err = run(capsys, "simulate", "no-such-0.ptype", "no-such-1.ptype",
                             "--size", "2", "--unroll", value)
        assert code == 4
        assert out == ""
        assert err.endswith(f"error: argument --unroll: must be at least 1, got {value}\n")

    def test_file_count_must_match_size(self, capsys, write):
        a = write("a.ptype", "skip")
        code, _, err = run(capsys, "simulate", a, "--size", "2")
        assert code == 4
        assert "expected 2 protocol files" in err


class TestTermDepth:
    """An index term or proposition nesting deeper than MAX_TERM_DEPTH is a
    parse error at the token that crosses the limit, not a crash."""

    REFINED = "message 0 1 {x: integer | "
    ARRAY = "message 0 1 float["

    @pytest.mark.parametrize(
        "text, col",
        [
            (REFINED + "(" * 130 + "x = 1" + ")" * 130 + "}", len(REFINED) + MAX_TERM_DEPTH + 1),
            (ARRAY + "(" * 125 + "4" + ")" * 125 + "]", len(ARRAY) + MAX_TERM_DEPTH + 1),
            (REFINED + "not " * 1200 + "x = 1}", len(REFINED) + 4 * MAX_TERM_DEPTH + 1),
            (ARRAY + "+".join(["1"] * 3000) + "]", len(ARRAY) + 2 * MAX_TERM_DEPTH),
        ],
        ids=["parenthesized-refinement", "parenthesized-length", "not-chain", "sum-chain"],
    )
    def test_too_deep_exits_2(self, capsys, write, text, col):
        f = write("deep.ptype", text)
        code, out, err = run(capsys, "simulate", f, f, "--size", "2")
        assert code == 2
        assert out == ""
        assert err.startswith(
            f"parse error at {f}:1:{col}: term nests deeper than {MAX_TERM_DEPTH} levels"
        )

    @pytest.mark.parametrize(
        "payload",
        [
            lambda depth: "float[" + "(" * depth + "4" + ")" * depth + "]",
            lambda depth: "float[" + "+".join(["1"] * depth) + "]",
            lambda depth: "{x: integer | " + "not " * (depth - 2) + "x = 1}",
        ],
        ids=["parentheses", "sum-chain", "not-chain"],
    )
    def test_at_the_limit_parses_round_trips_and_simulates(self, capsys, write, payload):
        text = f"message 0 1 {payload(MAX_TERM_DEPTH)}"
        t = parse_protocol(text)
        assert parse_protocol(print_protocol(t)) == t
        f = write("limit.ptype", text)
        code, out, _ = run(capsys, "simulate", f, f, "--size", "2")
        assert code == 0
        assert out.startswith("Completed\n")
        with pytest.raises(ParseError, match="term nests deeper"):
            parse_protocol(f"message 0 1 {payload(MAX_TERM_DEPTH + 1)}")


class TestArrayDimensions:
    """Datatypes with thousands of array dimensions compare, strip, print,
    substitute and list their free names without recursing once per
    dimension."""

    DIMS = "[1]" * 2000

    @pytest.mark.parametrize(
        "other, code",
        [
            (f"message 0 1 float{DIMS}", 0),
            (f"message 0 1 {{x: float | true}}{DIMS}", 0),
            (f"message 0 1 float[2]{DIMS[3:]}", 1),
            (f"message 0 1 integer{DIMS}", 1),
        ],
        ids=["same", "trivially-refined", "inner-length-differs", "element-differs"],
    )
    def test_simulate_and_merge(self, capsys, write, other, code):
        text = f"message 0 1 float{self.DIMS}"
        a, b = write("a.ptype", text), write("b.ptype", other)
        sim_code, sim_out, sim_err = run(capsys, "simulate", a, b, "--size", "2")
        assert sim_code == code
        assert (sim_out + sim_err).startswith("Completed\n" if code == 0 else "Mismatch: ")
        merge_code, merge_out, merge_err = run(
            capsys, "merge", a, b, "--size", "2", "--merged", "0", "--k", "1"
        )
        assert merge_code == code
        if code == 0:
            assert merge_out == text + "\n"
        else:
            assert merge_err.startswith("error: DatatypeMismatch")

    def test_infer_substitutes_into_every_dimension(self, capsys, write):
        dims = "[1]" * 3000
        text = f"if rank = 0 {{ send to 1 float{dims} }} else {{ recv from 0 float{dims} }}"
        f = write("dims.proc", text)
        code, out, err = run(capsys, "infer", f, "--size", "2")
        assert (code, err) == (0, "")
        assert out == f"message 0 1 float{dims}\n"

    def test_simulate_instantiates_every_dimension(self, capsys, write):
        f = write("dims.ptype", "foreach i: 1..2 { message 0 1 float" + "[i]" * 3000 + " }")
        code, out, err = run(capsys, "simulate", f, f, "--size", "2")
        assert (code, err) == (0, "")
        events = "".join(f"  message 0 -> 1: float{f'[{v}]' * 3000}\n" for v in (1, 2))
        assert out == "Completed\n" + events


class TestBlockDepth:
    """A process or protocol nesting `{ ... }` blocks deeper than
    MAX_BLOCK_DEPTH is a parse error at the `{` that crosses the limit, not
    a crash."""

    @staticmethod
    def loops(blocks, inner="if rank = 0 { send to 1 float } else { recv from 0 float }"):
        """`blocks` blocks in all: loops around an if whose branches are one block."""
        for i in range(blocks - 1):
            inner = f"for i{i}: 1 .. 1 {{\n{inner}\n}}"
        return inner

    @staticmethod
    def fresh(*argv):
        """Run the command line in a fresh interpreter, whose stack holds
        the command line's own frames only."""
        src = str(Path(protomerge.__file__).parents[1])
        script = "import sys; from protomerge.cli import main; sys.exit(main(sys.argv[1:]))"
        return subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True, text=True, env={"PYTHONPATH": src}, timeout=60,
        )

    @staticmethod
    def column(text, blocks):
        """Column of the `{` that opens block number `blocks` (one line)."""
        offset = -1
        for _ in range(blocks):
            offset = text.index("{", offset + 1)
        return offset + 1

    def test_nested_ifs_exit_2(self, capsys, write):
        text = "skip"
        for _ in range(400):
            text = f"if rank = 0 {{ {text} }} else {{ skip }}"
        f = write("deep.proc", text)
        col = self.column(text, MAX_BLOCK_DEPTH + 1)
        for argv in (["infer", f, "--size", "2"], ["extract", f, "--rank", "0", "--size", "2"]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.startswith(
                f"parse error at {f}:1:{col}: block nests deeper than {MAX_BLOCK_DEPTH} levels"
            )

    def test_nested_protocol_exits_2(self, capsys, write):
        text = "message 0 1 float"
        for i in range(MAX_BLOCK_DEPTH + 1):
            if i % 2:
                text = f"foreach i{i}: 1..1 {{ {text} }}"
            else:
                text = f"allreduce min v{i}: float {{ {text} }}"
        f = write("deep.ptype", text)
        code, _, err = run(capsys, "simulate", f, f, "--size", "2")
        assert code == 2
        col = self.column(text, MAX_BLOCK_DEPTH + 1)
        assert err.startswith(f"parse error at {f}:1:{col}: block nests deeper")

    def test_at_the_limit_infers_extracts_and_simulates(self, capsys, write):
        f = write("limit.proc", self.loops(MAX_BLOCK_DEPTH))
        code, out, _ = run(capsys, "infer", f, "--size", "2")
        assert code == 0
        assert out.count("foreach") == MAX_BLOCK_DEPTH - 1
        files = []
        for rank in (0, 1):
            code, out, _ = run(capsys, "extract", f, "--rank", str(rank), "--size", "2")
            assert code == 0
            files.append(write(f"r{rank}.ptype", out))
        code, out, _ = run(capsys, "simulate", *files, "--size", "2")
        assert code == 0
        assert out.startswith("Completed\n")
        deeper = write("deeper.proc", self.loops(MAX_BLOCK_DEPTH + 1))
        assert run(capsys, "infer", deeper, "--size", "2")[0] == 2

    def test_limits_compose_in_a_fresh_interpreter(self, write):
        # Blocks and a term both at their limits, in the innermost block: the
        # parser's deepest stack, with the command line's own frames only.
        term = "(" * MAX_TERM_DEPTH + "4" + ")" * MAX_TERM_DEPTH
        inner = f"if rank = 0 {{ send to 1 float[{term}] }} else {{ recv from 0 float[{term}] }}"
        f = write("limits.proc", self.loops(MAX_BLOCK_DEPTH, inner))
        done = self.fresh("infer", f, "--size", "2", "--trace")
        assert done.returncode == 0, done.stderr[-500:]
        assert done.stdout.count("foreach") == MAX_BLOCK_DEPTH - 1

    def test_shadowing_allreduces_at_the_limit(self, write):
        # Blocks alternate foreach v and allreduce v from the outside in, so
        # each allreduce shadows a live loop binder; a message follows each
        # inner block, in the scope of the block around it.
        text = "message 0 1 float[v]"
        for i in reversed(range(MAX_BLOCK_DEPTH)):
            head = "allreduce min v: float" if i % 2 else "foreach v: 1..1"
            text = f"{head} {{ {text} }}" + ("; message 0 1 float[v]" if i else "")
        ctx, t = initial_context(2), parse_protocol(text)
        for rank in (0, 1):
            actions = linearize(ctx, t, rank)
            assert actions == reference_oracle.reference_linearize(ctx, t, rank)
            assert len(actions) == MAX_BLOCK_DEPTH // 2 + MAX_BLOCK_DEPTH
        f = write("shadow.ptype", text)
        done = self.fresh("simulate", f, f, "--size", "2")
        assert done.returncode == 0, done.stderr[-500:]
        assert done.stdout.startswith("Completed\n")


class TestErrorChannel:
    def test_parse_error_text(self, capsys, write):
        f = write("bad.proc", "send to\n  1 bogus float")
        code, _, err = run(capsys, "infer", f, "--size", "2")
        assert code == 2
        assert err.startswith(f"parse error at {f}:2:5:")

    def test_parse_error_json(self, capsys, write):
        f = write("bad.ptype", "message 0 1")
        code, out, _ = run(
            capsys, "merge", f, f, "--size", "2", "--merged", "0", "--k", "1", "--json"
        )
        assert code == 2
        doc = json.loads(out)
        assert doc["status"] == "error"
        assert doc["kind"] == "ParseError"
        assert doc["file"] == f
        assert doc["line"] == 1

    @pytest.mark.parametrize("command", ["infer", "extract", "merge", "simulate"])
    def test_hole_payload_is_a_parse_error(self, capsys, write, command):
        # `?id` is no datatype: the `?` of a conditional index term cannot
        # start a payload, in process source and in protocol text alike.
        if command in ("infer", "extract"):
            bad = write("hole.proc", "send to 1 ?h1")
            col = 11
            argv = [bad, "--size", "2"] + (["--rank", "0"] if command == "extract" else [])
        else:
            bad = write("hole.ptype", "message 0 1 ?h1")
            col = 13
            peer = write("peer.ptype", "message 0 1 float")
            if command == "merge":
                argv = [peer, bad, "--size", "2", "--merged", "0", "--k", "1"]
            else:
                argv = [peer, bad, "--size", "2"]
        code, out, err = run(capsys, command, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"parse error at {bad}:1:{col}: expected a datatype")

    def test_long_integer_literal_is_a_parse_error(self, capsys, write):
        f = write("long.proc", "send to 1 float[" + "1" * 5000 + "]")
        code, out, err = run(capsys, "infer", f, "--size", "2")
        assert (code, out) == (2, "")
        assert err == f"parse error at {f}:1:17: integer literal has more than 4300 digits\n"
        code, out, err = run(capsys, "infer", f, "--size", "2", "--json")
        assert (code, err) == (2, "")
        doc = json.loads(out)
        assert (doc["kind"], doc["line"], doc["col"]) == ("ParseError", 1, 17)

    @pytest.mark.parametrize("command", ["extract", "infer"])
    def test_fold_past_the_digit_limit(self, capsys, write, command):
        # Each literal parses; their product has more digits than the
        # interpreter prints.
        nines = "9" * 3000
        f = write("fold.proc", f"send to ({nines} * {nines}) float")
        argv = [command, f, "--size", "2"] + (["--rank", "0"] if command == "extract" else [])
        message = "an endpoint or loop bound folds to an integer of more than 4300 digits"
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, "")
        assert err == f"protomerge: error: {message}\n"
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (4, "")
        assert json.loads(out) == {"status": "error", "kind": "ValueError", "message": message}

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "infer", "/nonexistent/x.proc", "--size", "2")
        assert code == 4
        assert err.startswith("protomerge: error:")

    @pytest.mark.parametrize(
        "argv, kind, message",
        [
            (
                ["infer", str(PROGRAMS / "nbody.proc"), "--size", "3", "--order", "0,0"],
                "ValueError",
                "order [0, 0] is not a permutation of 0..2",
            ),
            (
                ["infer", "/nonexistent/x.proc", "--size", "2"],
                "FileNotFoundError",
                "[Errno 2] No such file or directory: '/nonexistent/x.proc'",
            ),
            (
                ["simulate", "OPEN", "OPEN", "--size", "2"],
                "OpenIndexTerm",
                "message endpoint is not a constant rank: rank",
            ),
        ],
        ids=["bad-order", "missing-file", "open-endpoint"],
    )
    def test_usage_errors_under_json(self, capsys, write, argv, kind, message):
        # OPEN stands for a protocol file whose endpoint is not a constant.
        f = write("open.ptype", "message rank 0 float")
        argv = [f if a == "OPEN" else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, "")
        assert err == f"protomerge: error: {message}\n"
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (4, "")
        assert json.loads(out) == {"status": "error", "kind": kind, "message": message}

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--size", "two"], "argument --size: invalid int value: 'two'"),
            (["--size", "2", "--bogus"], "unrecognized arguments: --bogus"),
            ([], "the following arguments are required: --size"),
        ],
        ids=["bad-size", "unknown-flag", "missing-size"],
    )
    def test_command_lines_that_do_not_parse(self, capsys, argv, message):
        code, out, err = run(capsys, "infer", "x.proc", *argv)
        assert (code, out) == (4, "")
        assert err.startswith("usage: protomerge ")
        assert err.endswith(f": error: {message}\n")
        code, out, err = run(capsys, "infer", "x.proc", *argv, "--json")
        assert (code, err) == (4, "")
        assert json.loads(out) == {"status": "error", "kind": "UsageError", "message": message}

    @pytest.mark.parametrize("flag", ["--jso", "--js"])
    @pytest.mark.parametrize(
        "argv, kind",
        [
            (["x.proc", "--size", "two"], "UsageError"),
            (["/nonexistent/x.proc", "--size", "2"], "FileNotFoundError"),
        ],
        ids=["does-not-parse", "missing-file"],
    )
    def test_a_prefix_of_json_asks_for_json(self, capsys, argv, kind, flag):
        # argparse takes a prefix of --json for it, so a command line that
        # does not parse must read it the same way.
        code, out, err = run(capsys, "infer", *argv, flag)
        assert (code, err) == (4, "")
        assert json.loads(out)["kind"] == kind

    def test_missing_subcommand(self, capsys):
        assert main([]) == 4

    def test_unknown_flag(self, capsys):
        assert main(["infer", "x.proc", "--size", "2", "--bogus"]) == 4

    def test_residual_conditional_is_rejected(self, capsys, write):
        f = write("open.proc", "if n = 0 { skip } else { skip }")
        code, _, err = run(capsys, "infer", f, "--size", "2")
        assert code == 1
        assert err.startswith("error: ResidualConditional:")


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


class TestClosedStdout:
    """A stdout that closes early, as in `protomerge simulate ... | head -1`,
    ends the command with exit 4 and no error line or traceback; one that
    was closed from the start changes nothing."""

    @pytest.fixture
    def nbody16(self, write):
        ctx = initial_context(16)
        program = parse_process((PROGRAMS / "nbody.proc").read_text(encoding="utf-8"))
        return [
            write(f"r{rank}.ptype", print_protocol(extract_local_type(ctx, program, rank, 16)))
            for rank in range(16)
        ]

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_simulation_output(self, capsys, monkeypatch, nbody16, flags):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        code = main(["simulate", *nbody16, "--size", "16", "--unroll", "16", *flags])
        devnull = sys.stdout
        assert not isinstance(devnull, _ClosedPipe)
        print("dropped")  # stdout now leads nowhere, and takes this quietly
        devnull.close()
        assert code == 4
        assert capsys.readouterr().err == ""

    def test_started_without_stdout(self, capsys, monkeypatch, write):
        # An interpreter started with stdout closed sets sys.stdout to None.
        f = write("m.ptype", "message 0 1 float")
        monkeypatch.setattr(sys, "stdout", None)
        assert main(["simulate", f, f, "--size", "2"]) == 0
        assert capsys.readouterr().err == ""

    def test_error_document(self, capsys, monkeypatch, write):
        # Under --json the parse error's document is what meets the pipe.
        f = write("bad.ptype", "message 0 1")
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        code = main(["simulate", f, f, "--size", "2", "--json"])
        sys.stdout.close()
        assert code == 4
        assert capsys.readouterr().err == ""


def ping_pong(exchanges):
    """A two-rank program of `exchanges` round trips, rank 0 sending first."""
    zero = ";\n".join(["send to 1 float; recv from 1 float"] * exchanges)
    one = ";\n".join(["recv from 0 float; send to 0 float"] * exchanges)
    return f"if rank = 0 {{\n{zero}\n}} else {{\n{one}\n}}"


# With --unroll 20000000, the fold retries the one step by unfolding rank 0's
# loop, whose 10 000 001 iterations are past the unfolding budget.
UNFOLD_PAST_BUDGET = "if rank = 0 { for i: 0 .. 10000000 { send to 1 float } } else { recv from 0 float }"


class TestErrorContract:
    """Every command line ends in a documented exit code: under --json with
    exactly one document on stdout, and never with a traceback."""

    @staticmethod
    def inputs(write):
        """(argv, exit code) pairs; each runs plain and under --json."""
        term = "(" * MAX_TERM_DEPTH + "4" + ")" * MAX_TERM_DEPTH
        deeper_term = "(" + term + ")"

        def nested(blocks):
            text = "message 0 1 float"
            for i in range(blocks):
                text = f"foreach i{i}: 1..1 {{ {text} }}"
            return text

        def exchange(payload):
            return f"if rank = 0 {{ send to 1 {payload} }} else {{ recv from 0 {payload} }}"

        long = ";\n".join(["message 0 1 float", "message 1 0 float"] * 5000)
        dims = "message 0 1 float" + "[1]" * 3000
        files = {
            "term": write("term.ptype", f"message 0 1 float[{term}]"),
            "deeper-term": write("deeper-term.ptype", f"message 0 1 float[{deeper_term}]"),
            "blocks": write("blocks.ptype", nested(MAX_BLOCK_DEPTH)),
            "deeper-blocks": write("deeper-blocks.ptype", nested(MAX_BLOCK_DEPTH + 1)),
            "digits": write("digits.proc", exchange("float[" + "9" * 4300 + "]")),
            "more-digits": write("more-digits.proc", exchange("float[" + "9" * 4301 + "]")),
            "long": write("long.ptype", long),
            "dims": write("dims.ptype", dims),
            "ping-pong": write("ping-pong.proc", ping_pong(600)),
            "send-div": write("send-div.proc", "send to (1 / 0) float"),
            "for-div": write("for-div.proc", "for i: 1 .. (1/0) { send to 1 float }"),
            "if-div": write("if-div.proc", "if 1 / 0 = 0 { send to 1 float } else { skip }"),
            "message-div": write("message-div.ptype", "message 0 (1 / 0) float"),
            "foreach-div": write("foreach-div.ptype", "foreach i: 1 .. (1/0) { message 0 1 float }"),
            "unfold": write("unfold.proc", UNFOLD_PAST_BUDGET),
        }
        pair = ["--size", "2", "--merged", "0", "--k", "1"]
        cases = []
        for name, code in [("term", 0), ("deeper-term", 2), ("blocks", 0), ("deeper-blocks", 2)]:
            cases.append((["simulate", files[name], files[name], "--size", "2"], code))
        for name, code in [("digits", 0), ("more-digits", 2), ("ping-pong", 3)]:
            cases.append((["infer", files[name], "--size", "2"], code))
        cases.append((["infer", files["unfold"], "--size", "2", "--unroll", "20000000"], 3))
        cases += [
            (["simulate", files["long"], files["long"], "--size", "2"], 0),
            (["merge", files["long"], files["long"], *pair], 3),
            (["merge", files["dims"], files["dims"], *pair], 0),
            (["simulate", files["dims"], files["dims"], "--size", "2"], 0),
        ]
        for program, codes in [("nbody", (0, 0, 0)), ("one_to_all", (0, 1, 1)), ("symmetric_ring", (1, 1, 1))]:
            for n, code in zip((2, 16, 64), codes):
                cases.append((["infer", str(PROGRAMS / f"{program}.proc"), "--size", str(n)], code))
        for name in ("send-div", "for-div", "if-div"):
            cases.append((["infer", files[name], "--size", "2"], 4))
            cases.append((["extract", files[name], "--rank", "0", "--size", "2"], 4))
        for name in ("message-div", "foreach-div"):
            cases.append((["simulate", files[name], files[name], "--size", "2"], 4))
        cases += [
            (["infer", files["send-div"], "--size", "two"], 4),
            (["infer", files["send-div"], "--size", "2", "--bogus"], 4),
            (["infer", files["send-div"]], 4),
            (["infer", "/nonexistent/x.proc", "--size", "2"], 4),
        ]
        return cases

    def test_every_input_exits_with_a_documented_code(self, capsys, write):
        for argv, expected in self.inputs(write):
            code, out, err = run(capsys, *argv)
            assert code == expected, (argv, err[-300:])
            assert "Traceback" not in err, argv
            if code != 0:
                assert out == "" and err != "", argv
            code, out, err = run(capsys, *argv, "--json")
            assert (code, err) == (expected, ""), (argv, err[-300:])
            doc = json.loads(out)
            assert doc["status"] == ("ok" if code == 0 else "error"), argv

    def test_a_merge_past_the_stack_is_merge_too_deep(self, capsys, write):
        f = write("ping-pong.proc", ping_pong(600))
        code, out, err = run(capsys, "infer", f, "--size", "2")
        assert (code, out) == (3, "")
        assert err.startswith("error: MergeTooDeep: merging rank 1 into ranks [0]: ")
        code, out, err = run(capsys, "infer", f, "--size", "2", "--json")
        assert (code, err) == (3, "")
        assert json.loads(out)["kind"] == "MergeTooDeep"

    def test_nbody_at_512_ranks_is_inferred_at_the_default_stack(self, capsys):
        """Each fold step passes the ring messages rank k takes no part in as
        one run, in a loop, so no step recurses once per message (this used
        to exit 3, MergeTooDeep). Its hops follow the ring: 0 -> 1 -> ... ->
        511 -> 0."""
        assert sys.getrecursionlimit() == 1000
        code, out, err = run(capsys, "infer", str(PROGRAMS / "nbody.proc"), "--size", "512")
        assert (code, err) == (0, "")
        hops = [line.split()[1:3] for line in out.splitlines() if line.lstrip().startswith("message ")]
        assert hops == [[str(r), str((r + 1) % 512)] for r in range(512)]

    def test_an_unfold_past_the_budget_exits_3(self, capsys, write):
        """The fold's retry unfolds rank 0's loop of 10 000 001 sends: past
        the unfolding budget, refused before any iteration is built."""
        f = write("unfold.proc", UNFOLD_PAST_BUDGET)
        argv = ("infer", f, "--size", "2", "--unroll", "20000000")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: UnfoldBudgetExceeded: ")
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (3, "")
        assert json.loads(out)["kind"] == "UnfoldBudgetExceeded"

    @pytest.mark.parametrize(
        "text", ["send to (1 / 0) float", "for i: 1 .. (1/0) { send to 1 float }"], ids=["endpoint", "bound"]
    )
    @pytest.mark.parametrize("command", ["extract", "infer"])
    def test_a_division_by_zero_in_a_closed_endpoint_exits_4(self, capsys, write, command, text):
        f = write("div.proc", text)
        argv = [command, f, "--size", "2"] + (["--rank", "0"] if command == "extract" else [])
        message = "an endpoint or loop bound divides by zero: 1 / 0"
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (4, "", f"protomerge: error: {message}\n")
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (4, "")
        assert json.loads(out) == {"status": "error", "kind": "ValueError", "message": message}
