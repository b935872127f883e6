"""The one walk from a rank's process to its local type."""

import random
import sys
from pathlib import Path

import pytest

import protomerge
from protomerge import (
    Allreduce,
    Array,
    BinOp,
    Float,
    For,
    Foreach,
    If,
    IntLit,
    Message,
    NestingTooDeep,
    PSkip,
    Recv,
    ReduceOp,
    ResidualConditional,
    Send,
    Seq,
    Skip,
    Var,
    extract_local_type,
    initial_context,
    merge_all,
    parse_process,
    parse_protocol,
)
from protomerge.ast import FRESH_BINDER, MAX_BLOCK_DEPTH, TrueProp

from generators import gen_process
from reference_extract import reference_extract


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


def extract(text, rank, size):
    return extract_local_type(initial_context(size), parse_process(text), rank, size)


class TestSpecialize:
    """What the walk does with the rank and the world size as it goes."""

    def test_takes_closed_branches_and_folds_endpoints(self):
        assert extract(RING, 0, 3) == Seq(
            Message(IntLit(0), IntLit(1), Float()), Message(IntLit(2), IntLit(0), Float())
        )

    def test_last_rank_wraps_around(self):
        assert extract(RING, 2, 3) == Seq(
            Message(IntLit(2), IntLit(0), Float()), Message(IntLit(1), IntLit(2), Float())
        )

    def test_payload_terms_stay_symbolic(self):
        t = extract("send to 1 float[n * 4]", 0, 2)
        assert t == Message(IntLit(0), IntLit(1), Array(Float(), BinOp("*", Var("n"), IntLit(4))))

    def test_size_stays_symbolic_in_payloads(self):
        t = extract("send to (size - 1) float[1000000 / size * 4]", 0, 3)
        assert t == parse_protocol("message 0 2 float[1000000 / size * 4]")

    def test_rank_substitutes_into_payloads(self):
        t = extract("send to 1 float[rank + 1]", 0, 2)
        assert t == parse_protocol("message 0 1 float[0 + 1]")

    def test_empty_constant_loop_drops_to_skip(self):
        assert extract("for i: 1 .. size - 1 { send to i float }", 0, 1) == Skip()

    def test_loop_bounds_fold_but_binder_survives(self):
        t = extract("for i: 1 .. size - 1 { send to i float }", 0, 3)
        assert t == parse_protocol("foreach i: 1..2 { message 0 i float }")

    def test_open_conditional_is_refused(self):
        p = "for i: 1 .. 2 { if i = 1 { skip } else { send to 0 float } }"
        with pytest.raises(ResidualConditional):
            extract(p, 1, 2)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            extract_local_type(initial_context(2), PSkip(), 2, 2)


class TestCollect:
    """How each statement maps to its type construct."""

    def test_send_becomes_outbound_message(self):
        t = extract_local_type(initial_context(2), Send(IntLit(1), Float()), 0, 2)
        assert t == Message(IntLit(0), IntLit(1), Float())

    def test_recv_becomes_inbound_message(self):
        t = extract_local_type(initial_context(2), Recv(IntLit(0), Float()), 1, 2)
        assert t == Message(IntLit(0), IntLit(1), Float())

    def test_structure_maps_pointwise(self):
        p = parse_process("for i: 1 .. 2 { send to i float }; allreduce min float")
        t = extract_local_type(initial_context(3), p, 0, 3)
        assert t == Seq(
            Foreach("i", IntLit(1), IntLit(2), Message(IntLit(0), Var("i"), Float())),
            Allreduce(ReduceOp.MIN, FRESH_BINDER, Float(), Skip()),
        )

    def test_residual_conditional_rejected(self):
        p = parse_process("if n = 0 { skip } else { skip }")
        with pytest.raises(ResidualConditional):
            extract_local_type(initial_context(2), p, 0, 2)


class TestExtractLocalType:
    def test_ring_rank_zero(self):
        p = parse_process(RING)
        t = extract_local_type(initial_context(3), p, 0, 3)
        assert t == Seq(
            Message(IntLit(0), IntLit(1), Float()), Message(IntLit(2), IntLit(0), Float())
        )

    def test_result_is_sequence_normalized(self):
        p = parse_process("skip; send to 1 float; skip")
        t = extract_local_type(initial_context(2), p, 0, 2)
        assert t == Message(IntLit(0), IntLit(1), Float())


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


class TestAgainstReference:
    """The one walk against the two walks it replaced: specialize the whole
    program, then map the copy to types."""

    def test_generated_programs(self):
        rng = random.Random(7)
        declared = 0
        for _ in range(10_000):
            p = gen_process(rng, 3, ("rank", "size", "n"))
            size = rng.randint(2, 4)
            rank = rng.randrange(size)
            ctx = initial_context(size)
            got = _outcome(extract_local_type, ctx, p, rank, size)
            want = _outcome(reference_extract, p, rank, size)
            if got != want:
                # The one difference: the walk stops at an open conditional
                # before a division by zero that specializing all of the
                # program reached, in a test or in an endpoint or bound.
                assert got[0] is ResidualConditional, (p, got, want)
                assert want[0] is ValueError, (p, got, want)
                declared += 1
        assert declared < 100

    @pytest.mark.parametrize("name", ["nbody", "one_to_all", "symmetric_ring"])
    def test_bundled_programs(self, name):
        p = parse_process((Path(protomerge.__file__).parent / "programs" / f"{name}.proc").read_text())
        for size in range(2, 17):
            ctx = initial_context(size)
            for rank in range(size):
                assert extract_local_type(ctx, p, rank, size) is reference_extract(p, rank, size)


class TestFoldLimit:
    """A closed endpoint or loop bound folds to a literal only when the
    interpreter can print it."""

    NINES = "9" * 3000

    def test_past_the_digit_limit_is_refused(self):
        limit = sys.get_int_max_str_digits()
        for text in (
            f"send to ({self.NINES} * {self.NINES}) float",
            f"for i: 1 .. {self.NINES} * {self.NINES} {{ skip }}",
        ):
            with pytest.raises(ValueError, match=f"integer of more than {limit} digits"):
                extract(text, 0, 2)

    def test_at_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        big = "9" * (limit // 2)
        t = extract(f"send to ({big} * {big}) float", 0, 2)
        assert len(str(t.dst.value)) == limit

    def test_no_limit(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            t = extract(f"send to ({self.NINES} * {self.NINES}) float", 0, 2)
        finally:
            sys.set_int_max_str_digits(limit)
        assert t.dst.value == int(self.NINES) ** 2

    def test_division_by_zero_is_refused(self):
        for text in ("send to (size / 0) float", "for i: 1 .. (size / (rank - 2)) { skip }"):
            with pytest.raises(ValueError, match=r"^an endpoint or loop bound divides by zero: 3 / 0$"):
                extract(text, 2, 3)

    def test_division_by_zero_in_a_closed_test_is_refused(self):
        text = "if size / (rank - 2) = 0 { send to 1 float } else { skip }"
        with pytest.raises(ValueError, match=r"^a conditional test divides by zero: 3 / 0$"):
            extract(text, 2, 3)
        assert extract(text, 0, 3) is Skip()


class TestNestingLimit:
    """Loop bodies and branches nest at most MAX_BLOCK_DEPTH deep, as in
    parsed text; a deeper program built through the API is a typed error,
    not RecursionError."""

    @staticmethod
    def loops(levels, inner=Send(IntLit(1), Float())):
        for _ in range(levels):
            inner = For("i", IntLit(1), IntLit(1), inner)
        return inner

    @staticmethod
    def branches(levels, inner=Send(IntLit(1), Float())):
        for _ in range(levels):
            inner = If(TrueProp(), inner, PSkip())
        return inner

    @pytest.mark.parametrize("levels", [MAX_BLOCK_DEPTH + 1, 2000])
    def test_too_deep_is_a_typed_error(self, levels):
        for p in (self.loops(levels), self.branches(levels)):
            with pytest.raises(NestingTooDeep, match=f"deeper than {MAX_BLOCK_DEPTH} levels"):
                extract_local_type(initial_context(2), p, 0, 2)

    def test_at_the_limit_extracts_and_merges(self):
        # MAX_BLOCK_DEPTH blocks in all: loops around an if whose branches
        # are one block, parsed.
        text = "if rank = 0 { send to 1 float } else { recv from 0 float }"
        for i in range(MAX_BLOCK_DEPTH - 1):
            text = f"for i{i}: 1 .. 1 {{ {text} }}"
        p = parse_process(text)
        ctx = initial_context(2)
        local = [(rank, extract_local_type(ctx, p, rank, 2)) for rank in (0, 1)]
        assert local[0][1] is reference_extract(p, 0, 2)
        result, _ = merge_all(2, local)
        assert result is local[0][1]
        for p in (self.loops(MAX_BLOCK_DEPTH), self.branches(MAX_BLOCK_DEPTH)):
            assert extract_local_type(ctx, p, 0, 2) is reference_extract(p, 0, 2)
