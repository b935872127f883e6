"""Parser and printer round trips, error spans, surface sugar."""

import functools
import random
import time
from pathlib import Path

import pytest

import protomerge
from protomerge import (
    Allreduce,
    AllreduceStmt,
    And,
    Array,
    BinOp,
    Cmp,
    Cond,
    Float,
    For,
    Foreach,
    If,
    IntLit,
    Integer,
    Message,
    Not,
    Or,
    ParseError,
    PSeq,
    PSkip,
    Recv,
    ReduceOp,
    Refined,
    Send,
    Seq,
    Skip,
    TrueProp,
    Var,
    compact_protocol,
    extract_local_type,
    initial_context,
    parse_datatype,
    parse_index,
    parse_process,
    parse_proposition,
    parse_protocol,
    print_datatype,
    print_index,
    print_process,
    print_proposition,
    print_protocol,
)
from protomerge import syntax
from protomerge.ast import FRESH_BINDER
from protomerge.syntax import SourceSpan, _lex, _scan

import reference_lexer
import reference_parser
from generators import gen_datatype, gen_index, gen_process, gen_prop, gen_protocol, mutate_text, workloads

PROGRAMS = Path(protomerge.__file__).parent / "programs"


class TestIndexTerms:
    def test_precedence(self):
        assert parse_index("1 + 2 * 3") == BinOp("+", IntLit(1), BinOp("*", IntLit(2), IntLit(3)))

    def test_left_associative(self):
        assert parse_index("8 - 2 - 1") == BinOp("-", BinOp("-", IntLit(8), IntLit(2)), IntLit(1))

    def test_parens_and_negatives(self):
        assert parse_index("(1 - 2) * -3") == BinOp("*", BinOp("-", IntLit(1), IntLit(2)), IntLit(-3))

    def test_conditional(self):
        t = parse_index("i = 2 ? 0 : i + 1")
        assert t == Cond(Cmp("=", Var("i"), IntLit(2)), IntLit(0), BinOp("+", Var("i"), IntLit(1)))


class TestPropositions:
    def test_connective_precedence(self):
        p = parse_proposition("a = 1 or b = 2 and not c = 3")
        expected = Or(
            Cmp("=", Var("a"), IntLit(1)),
            And(Cmp("=", Var("b"), IntLit(2)), Not(Cmp("=", Var("c"), IntLit(3)))),
        )
        assert p == expected

    def test_double_equals_alias(self):
        assert parse_proposition("x == 3") == Cmp("=", Var("x"), IntLit(3))

    def test_comparison_chain_desugars_to_conjunction(self):
        p = parse_proposition("0 <= x <= n")
        assert p == And(Cmp("<=", IntLit(0), Var("x")), Cmp("<=", Var("x"), Var("n")))

    def test_true_literal(self):
        assert parse_proposition("true") == TrueProp()


class TestDatatypes:
    def test_scalars_arrays_holes(self):
        assert parse_datatype("integer") == Integer()
        assert parse_datatype("float[n * 4]") == Array(Float(), BinOp("*", Var("n"), IntLit(4)))
        with pytest.raises(ParseError):
            parse_datatype("?h1")

    def test_nested_array_applies_outward(self):
        assert parse_datatype("float[2][3]") == Array(Array(Float(), IntLit(2)), IntLit(3))

    def test_refinement(self):
        d = parse_datatype("{x: integer | x = 3}")
        assert d == Refined("x", Integer(), Cmp("=", Var("x"), IntLit(3)))

    def test_refinement_binder_cannot_be_reserved(self):
        with pytest.raises(ParseError):
            parse_datatype("{rank: integer | true}")


class TestProtocolForms:
    def test_message_with_parenthesized_endpoint(self):
        t = parse_protocol("message (rank + 1) 0 float")
        assert t == Message(BinOp("+", Var("rank"), IntLit(1)), IntLit(0), Float())

    def test_semicolon_folds_right(self):
        t = parse_protocol("skip; message 0 1 float; skip")
        assert t == Seq(Skip(), Seq(Message(IntLit(0), IntLit(1), Float()), Skip()))

    def test_allreduce_short_form(self):
        t = parse_protocol("allreduce min float")
        assert t == Allreduce(ReduceOp.MIN, FRESH_BINDER, Float(), Skip())

    def test_allreduce_binder_form(self):
        t = parse_protocol("allreduce sum v: integer { message 0 1 integer[v] }")
        assert t == Allreduce(
            ReduceOp.SUM, "v", Integer(), Message(IntLit(0), IntLit(1), Array(Integer(), Var("v")))
        )

    def test_foreach(self):
        t = parse_protocol("foreach i: 1 .. size - 1 { message 0 i float }")
        assert t == Foreach(
            "i", IntLit(1), BinOp("-", Var("size"), IntLit(1)), Message(IntLit(0), Var("i"), Float())
        )

    def test_loop_binder_cannot_be_reserved(self):
        with pytest.raises(ParseError):
            parse_protocol("foreach rank: 0 .. 1 { skip }")


class TestProcessForms:
    def test_send_recv_allreduce(self):
        p = parse_process("send to 1 float; recv from (rank - 1) float; allreduce max integer")
        assert p == PSeq(
            Send(IntLit(1), Float()),
            PSeq(
                Recv(BinOp("-", Var("rank"), IntLit(1)), Float()),
                AllreduceStmt(ReduceOp.MAX, Integer()),
            ),
        )

    def test_if_requires_else(self):
        p = parse_process("if rank = 0 { send to 1 float } else { skip }")
        assert p == If(Cmp("=", Var("rank"), IntLit(0)), Send(IntLit(1), Float()), PSkip())
        with pytest.raises(ParseError):
            parse_process("if rank = 0 { skip }")

    def test_for_loop(self):
        p = parse_process("for i: 1 .. 3 { send to i float }")
        assert p == For("i", IntLit(1), IntLit(3), Send(Var("i"), Float()))

    def test_comments_are_skipped(self):
        p = parse_process("# a pipeline step\nsend to 1 float # trailing note\n")
        assert p == Send(IntLit(1), Float())


class TestParseErrors:
    def test_span_points_at_offending_token(self):
        with pytest.raises(ParseError) as err:
            parse_protocol("message 0 1\n  bogus", filename="demo.ptype")
        assert err.value.span.file == "demo.ptype"
        assert err.value.span.line == 2
        assert err.value.span.col == 3

    def test_str_includes_location(self):
        with pytest.raises(ParseError) as err:
            parse_index("1 +")
        assert "<string>:1:" in str(err.value)

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse_protocol("skip skip")

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            parse_index("1 @ 2")

    def test_prop_where_index_expected(self):
        with pytest.raises(ParseError):
            parse_datatype("float[true]")


PARSERS = {
    "protocol": parse_protocol,
    "process": parse_process,
    "index": parse_index,
    "proposition": parse_proposition,
    "datatype": parse_datatype,
}

# (rule, text, message, line, column) of malformed inputs, one per error path.
PARSE_ERRORS = [
    # Operand kinds: at each operator level, on `?:` and on the `not` operand.
    ("index", "x or 1 = 1", "expected a proposition, found an index term", 1, 1),
    ("proposition", "1 = 1 or x", "expected a proposition, found an index term", 1, 1),
    ("proposition", "x and true", "expected a proposition, found an index term", 1, 1),
    ("proposition", "true and\n  x + 1", "expected a proposition, found an index term", 1, 1),
    ("proposition", "true < 1", "expected an index term, found a proposition", 1, 1),
    ("proposition", "1 < (x = 2)", "expected an index term, found a proposition", 1, 1),
    ("proposition", "0 <= x <= true", "expected an index term, found a proposition", 1, 1),
    ("index", "true + 1", "expected an index term, found a proposition", 1, 1),
    ("index", "1 - (x = 2)", "expected an index term, found a proposition", 1, 1),
    ("index", "true * 2", "expected an index term, found a proposition", 1, 1),
    ("index", "2 / true", "expected an index term, found a proposition", 1, 1),
    ("index", "x + 2 * true", "expected an index term, found a proposition", 1, 5),
    ("index", "1 ? 2 : 3", "expected a proposition, found an index term", 1, 3),
    ("index", "x = 1 ? true : 2", "expected an index term, found a proposition", 1, 9),
    ("index", "x = 1 ? 2 : true", "expected an index term, found a proposition", 1, 13),
    ("proposition", "not 1", "expected a proposition, found an index term", 1, 1),
    ("proposition", "true and not x + 1", "expected a proposition, found an index term", 1, 10),
    ("index", "true", "expected an index term, found a proposition", 1, 1),
    ("proposition", "x + 1", "expected a proposition, found an index term", 1, 1),
    ("datatype", "float[x = 1]", "expected an index term, found a proposition", 1, 7),
    ("datatype", "{v: integer | v + 1}", "expected a proposition, found an index term", 1, 15),
    ("proposition", "x = 1 and not not 3", "expected a proposition, found an index term", 1, 15),
    ("index", "(1 or x = 1)", "expected a proposition, found an index term", 1, 2),
    ("index", "x = 1 ? 2 : 3 = 4", "expected an index term, found a proposition", 1, 13),
    ("process", "if x + 1 { skip } else { skip }", "expected a proposition, found an index term", 1, 4),
    # Each `expected <form>` from a failed alternative.
    ("protocol", "bogus", "expected a protocol form, found 'bogus'", 1, 1),
    ("protocol", "skip;\n  send to 1 float", "expected a protocol form, found 'send'", 2, 3),
    ("process", "message 0 1 float", "expected a process statement, found 'message'", 1, 1),
    ("process", "skip; skip;", "expected a process statement, found 'eof'", 1, 12),
    ("datatype", "double", "expected a datatype, found 'double'", 1, 1),
    ("protocol", "message 0 1 ?h1", "expected a datatype, found '?'", 1, 13),
    ("protocol", "allreduce avg float", "expected a reduction op (min/max/sum/prod), found 'avg'", 1, 11),
    ("process", "allreduce max", "expected a datatype, found 'eof'", 1, 14),
    ("index", "1 + * 2", "expected an expression, found '*'", 1, 5),
    ("index", "", "expected an expression, found 'eof'", 1, 1),
    ("proposition", "x = not y", "expected an expression, found 'not'", 1, 5),
    ("protocol", "message 0 + 1 float", "expected a rank expression, found '+'", 1, 11),
    ("process", "send to float", "expected a rank expression, found 'float'", 1, 9),
    ("protocol", "foreach 3: 0..1 { skip }", "expected loop binder, found '3'", 1, 9),
    ("protocol", "allreduce min 3: float { skip }", "expected a datatype, found '3'", 1, 15),
    ("datatype", "{1: integer | true}", "expected refinement binder, found '1'", 1, 2),
    ("index", "- x", "expected 'int', found 'x'", 1, 3),
    # Each expected token.
    ("index", "(1 + 2", "expected ')', found 'eof'", 1, 7),
    ("protocol", "message (0 1 float", "expected ')', found '1'", 1, 12),
    ("datatype", "float[3", "expected ']', found 'eof'", 1, 8),
    ("datatype", "{v: integer | v = 1", "expected '}', found 'eof'", 1, 20),
    ("protocol", "foreach i: 0..1 { skip", "expected '}', found 'eof'", 1, 23),
    ("protocol", "foreach i: 0 1 { skip }", "expected '..', found '1'", 1, 14),
    ("protocol", "foreach i 0..1 { skip }", "expected ':', found '0'", 1, 11),
    ("protocol", "foreach i: 0..1 skip", "expected '{', found 'skip'", 1, 17),
    ("protocol", "allreduce sum v float { skip }", "expected ':', found 'float'", 1, 17),
    ("index", "x = 1 ? 2 3", "expected ':', found '3'", 1, 11),
    ("datatype", "{v: integer v = 1}", "expected '|', found 'v'", 1, 13),
    ("datatype", "{v integer | true}", "expected ':', found 'integer'", 1, 4),
    ("process", "if rank = 0 { skip }", "expected 'else', found 'eof'", 1, 21),
    ("process", "if rank = 0 { skip } skip", "expected 'else', found 'skip'", 1, 22),
    ("process", "send 1 float", "expected 'to', found '1'", 1, 6),
    ("process", "recv to 1 float", "expected 'from', found 'to'", 1, 6),
    ("process", "for i: 0..1 { skip } else", "trailing input starting at 'else'", 1, 22),
    # Trailing input, reserved binders, refinement bases, bad characters.
    ("protocol", "skip skip", "trailing input starting at 'skip'", 1, 6),
    ("index", "1 2", "trailing input starting at '2'", 1, 3),
    ("proposition", "x = 1)", "trailing input starting at ')'", 1, 6),
    ("datatype", "float]", "trailing input starting at ']'", 1, 6),
    ("process", "skip }", "trailing input starting at '}'", 1, 6),
    ("protocol", "foreach rank: 0..1 { skip }", "'rank' is reserved and cannot be bound", 1, 9),
    ("protocol", "allreduce min size: float { skip }", "'size' is reserved and cannot be bound", 1, 15),
    ("process", "for size: 0..1 { skip }", "'size' is reserved and cannot be bound", 1, 5),
    ("datatype", "{rank: integer | true}", "'rank' is reserved and cannot be bound", 1, 2),
    ("datatype", "{v: bool | true}", "refinement base must be 'integer' or 'float'", 1, 5),
    ("datatype", "{v: | true}", "refinement base must be 'integer' or 'float'", 1, 5),
    ("index", "1 @ 2", "unexpected character '@'", 1, 3),
    ("protocol", "message 0 1 float # ok\nmessage 1 0 float", "trailing input starting at 'message'", 2, 1),
    # Nesting limits.
    ("index", "(" * 101 + "1" + ")" * 101, "term nests deeper than 100 levels", 1, 101),
    ("proposition", "not " * 101 + "true", "term nests deeper than 100 levels", 1, 401),
    ("index", "+".join(["1"] * 101), "term nests deeper than 100 levels", 1, 200),
    ("protocol", "foreach i: 0..1 { " * 65 + "skip" + " }" * 65, "block nests deeper than 64 levels", 1, 1169),
    # Integer literals with more digits than the interpreter converts (4300
    # by default), placed at the digits, negated or not.
    pytest.param("index", "9" * 5000, "integer literal has more than 4300 digits", 1, 1, id="long-literal"),
    pytest.param(
        "index", "-" + "9" * 5000, "integer literal has more than 4300 digits", 1, 2, id="long-negated-literal"
    ),
    pytest.param(
        "datatype", "float[1 + " + "1" * 4301 + "]", "integer literal has more than 4300 digits", 1, 11,
        id="long-literal-in-payload",
    ),
]


@pytest.mark.parametrize("rule, text, message, line, col", PARSE_ERRORS)
def test_parse_error_message_and_span(rule, text, message, line, col):
    with pytest.raises(ParseError) as err:
        PARSERS[rule](text, "t")
    assert (err.value.message, err.value.span) == (message, SourceSpan("t", line, col))


# Lexer edge cases, each as the reference lexer reports it: `==` is shown as
# `=`, a bad character is reported before a syntax error ahead of it, `\x0b`
# and `\f` are not blanks, and empty or blank input ends at once.
LEXER_ERRORS = [
    ("index", "1 + == 2", "expected an expression, found '='", 1, 5),
    ("index", "x === 1", "expected an expression, found '='", 1, 5),
    ("protocol", "message 0 1 float ==", "trailing input starting at '='", 1, 19),
    ("index", "1 + + @", "unexpected character '@'", 1, 7),
    ("protocol", "bogus;\n  skip @", "unexpected character '@'", 2, 8),
    ("index", "1\x0b+ 2", "unexpected character '\\x0b'", 1, 2),
    ("index", "1 +\f2", "unexpected character '\\x0c'", 1, 4),
    ("index", "x\u0663", "trailing input starting at '\u0663'", 1, 2),
    ("index", "", "expected an expression, found 'eof'", 1, 1),
    ("protocol", " \t\r\n  ", "expected a protocol form, found 'eof'", 2, 3),
    ("process", "# only a comment", "expected a process statement, found 'eof'", 1, 17),
    # The comment after the bad `.` holds `..`, which is no token.
    ("protocol", "foreach i: 0.# ..\n.1 { skip }", "unexpected character '.'", 1, 13),
]


@pytest.mark.parametrize("rule, text, message, line, col", LEXER_ERRORS)
def test_lexer_error_message_and_span(rule, text, message, line, col):
    with pytest.raises(ParseError) as err:
        PARSERS[rule](text, "t")
    assert (err.value.message, err.value.span) == (message, SourceSpan("t", line, col))


class TestLexer:
    @staticmethod
    def inputs(rng):
        """Printed protocols and processes and 20 seeded mutations of each,
        then short texts where a bad `.`, `..`, a comment and a newline meet."""
        for i in range(1000):
            if i % 2:
                base = print_process(gen_process(rng, 3))
            else:
                base = rng.choice((print_protocol, compact_protocol))(gen_protocol(rng, 3))
            yield base
            for _ in range(20):
                yield mutate_text(rng, base)
        for _ in range(4000):
            yield "".join(rng.choice((".", "..", "#", "\n", "1", " ")) for _ in range(rng.randint(0, 8)))

    def test_matches_the_reference_lexer(self):
        inputs = 0
        for text in self.inputs(random.Random(2026)):
            inputs += 1
            try:
                want = reference_lexer.lex(text, "t")
            except ParseError as bad:
                with pytest.raises(ParseError) as err:
                    _lex(text, "t")
                assert (err.value.message, err.value.span) == (bad.message, bad.span), text
                continue
            assert _lex(text, "t") == [tok for _, tok, _ in want], text
            assert _scan(text, "t")[1] == [offset for _, _, offset in want], text
        assert inputs >= 25_000

    def test_a_comment_holds_any_character_and_may_end_the_text(self):
        assert parse_process("skip # @\x0b\f\u0663\xe9!.#\x00") == PSkip()
        assert parse_process("skip #") == PSkip()

    def test_unicode_digits_are_integers(self):
        assert parse_index("\u0663") == IntLit(3)
        assert parse_index("1\u0663") == IntLit(13)

    def test_a_long_gap_before_a_bad_character_is_scanned_in_linear_time(self):
        text = "1" + " \n" * 50_000 + "#" * 50_000 + "\n@"
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_index(text)
        assert (err.value.message, err.value.span.line) == ("unexpected character '@'", 50_002)
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize(
        "source", [*sorted(p.stem for p in PROGRAMS.glob("*.proc")), "workloads", "commented-workloads"]
    )
    def test_a_parse_that_succeeds_works_out_no_offset(self, monkeypatch, source):
        """A bundled program and its local types, or every source and oracle
        text of the benchmark's workloads, plain or with comments."""

        def scan(text, filename):
            raise AssertionError("offsets worked out for a parse that succeeds")

        monkeypatch.setattr(syntax, "_scan", scan)
        if source == "commented-workloads":
            assert all(PARSERS[rule](commented(text)) is node for rule, text, node in workload_texts())
        elif source == "workloads":
            assert all(PARSERS[rule](text) is node for rule, text, node in workload_texts())
        else:
            path = PROGRAMS / f"{source}.proc"
            program = parse_process(path.read_text(encoding="utf-8"), str(path))
            for rank in range(4):
                local = extract_local_type(initial_context(4), program, rank, 4)
                assert parse_protocol(print_protocol(local)) == local


@functools.cache
def workload_texts() -> tuple[tuple[str, str, object], ...]:
    """(rule, text, tree) of each distinct source ("process") and oracle text
    ("protocol") of the benchmark's four workloads, exchange-corpus at seeds
    2024 and 2025. An oracle text is a rank's extracted local type as
    `protomerge extract` prints it."""
    texts = {}
    for workload, seed in [(w, workloads.DEFAULT_SEED) for w in workloads.WORKLOADS] + [("exchange-corpus", 2025)]:
        for inst in workloads.instances(workload, seed, PROGRAMS):
            ctx = initial_context(inst.n)
            for rank in range(inst.n):
                source = ("process", inst.source(rank))
                if source not in texts:
                    texts[source] = parse_process(source[1])
                local = extract_local_type(ctx, texts[source], rank, inst.n)
                texts[("protocol", print_protocol(local))] = local
    return tuple((rule, text, tree) for (rule, text), tree in texts.items())


def commented(text: str) -> str:
    """text with a comment line before it, a comment after each of its lines
    and a last comment that ends the text."""
    lines = text.split("\n")
    return "# head: @ ; }\n" + "".join(f"{line}  # {i}: .. @ {{\n" for i, line in enumerate(lines)) + "#"


class TestReferenceParser:
    """The parser against tests/reference_parser.py: the same node, or a
    ParseError with the same message and span."""

    @staticmethod
    def check(rule: str, text: str) -> None:
        try:
            want = reference_parser.parse(rule, text, "t")
        except ParseError as bad:
            with pytest.raises(ParseError) as err:
                PARSERS[rule](text, "t")
            assert (err.value.message, err.value.span) == (bad.message, bad.span), (rule, text)
        else:
            assert PARSERS[rule](text, "t") is want, (rule, text)

    # Texts at and past each limit: parentheses, `not`s and `?:` branches open
    # at once, term height, and blocks.
    LIMITS = [
        ("index", "(" * 100 + "1" + ")" * 100),
        ("index", "(" * 101 + "1" + ")" * 101),
        ("proposition", "not " * 100 + "true"),
        ("proposition", "not " * 101 + "true"),
        ("index", "x = 1 ? 1 : " * 50 + "2"),
        ("index", "x = 1 ? 1 : " * 101 + "2"),
        ("index", "+".join(["1"] * 100)),
        ("index", "+".join(["1"] * 101)),
        ("proposition", " < ".join(["1"] * 60)),
        ("protocol", "foreach i: 0..1 { " * 64 + "skip" + " }" * 64),
        ("protocol", "foreach i: 0..1 { " * 65 + "skip" + " }" * 65),
        ("process", "if rank = 0 { " * 64 + "skip" + " } else { skip }" * 64),
        ("datatype", "{v: float | v < " + "(" * 99 + "1" + ")" * 99 + "}[2][n]"),
    ]

    def test_generated_texts_and_their_mutants(self):
        rng = random.Random(2027)
        printers = {
            "protocol": lambda: rng.choice((print_protocol, compact_protocol))(gen_protocol(rng, 3)),
            "process": lambda: print_process(gen_process(rng, 3)),
            "datatype": lambda: print_datatype(gen_datatype(rng, 3)),
            "index": lambda: print_index(gen_index(rng, 4)),
            "proposition": lambda: print_proposition(gen_prop(rng, 4)),
        }
        inputs = 0
        for rule, make in printers.items():
            for _ in range(200):
                text = make()
                self.check(rule, text)
                for _ in range(10):
                    self.check(rule, mutate_text(rng, text))
                    inputs += 1
        # The error tables' texts, then texts at and past each limit.
        tables = [getattr(case, "values", case)[:2] for case in PARSE_ERRORS + LEXER_ERRORS]
        for rule, text in tables + self.LIMITS:
            for other in PARSERS:
                self.check(other, text)
            for _ in range(20):
                self.check(rule, mutate_text(rng, text))
                inputs += 1
        assert inputs >= 10_000

    def test_workload_texts(self):
        for rule, text, _ in workload_texts():
            self.check(rule, text)
            self.check(rule, commented(text))


class TestPrinters:
    def test_protocol_round_trip_with_nesting(self):
        text = (
            "foreach i: 1..size - 1 {\n"
            "  message 0 i float[n * 4];\n"
            "  allreduce min float\n"
            "}"
        )
        t = parse_protocol(text)
        assert print_protocol(t) == text
        assert parse_protocol(print_protocol(t)) == t

    def test_negative_endpoint_is_parenthesized(self):
        t = Message(IntLit(-1), IntLit(0), Float())
        assert print_protocol(t) == "message (-1) 0 float"
        assert parse_protocol(print_protocol(t)) == t

    def test_compact_protocol_is_single_line(self):
        t = parse_protocol("foreach i: 1..2 { message 0 1 float; skip }")
        assert compact_protocol(t) == "foreach i: 1..2 { message 0 1 float; skip }"

    def test_allreduce_binder_form_round_trip(self):
        t = Allreduce(ReduceOp.SUM, "v", Integer(), Message(IntLit(0), IntLit(1), Float()))
        assert parse_protocol(print_protocol(t)) == t

    def test_process_round_trip(self):
        text = (
            "if rank = 0 {\n"
            "  for i: 1..size - 1 {\n"
            "    send to i float[n * 4]\n"
            "  }\n"
            "} else {\n"
            "  recv from 0 float[n * 4]\n"
            "}"
        )
        p = parse_process(text)
        assert print_process(p) == text
        assert parse_process(print_process(p)) == p

    def test_proposition_parenthesization_round_trips(self):
        p = And(Or(Cmp("=", Var("a"), IntLit(1)), TrueProp()), Not(TrueProp()))
        assert parse_proposition(print_proposition(p)) == p

    def test_datatype_round_trip(self):
        d = Refined("x", Integer(), And(Cmp("<=", IntLit(0), Var("x")), Cmp("<", Var("x"), Var("n"))))
        assert parse_datatype(print_datatype(d)) == d
