"""Parser and printer round trips, error spans, surface sugar."""

import pytest

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
    parse_datatype,
    parse_index,
    parse_process,
    parse_proposition,
    parse_protocol,
    print_datatype,
    print_process,
    print_proposition,
    print_protocol,
)
from protomerge.ast import FRESH_BINDER


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
