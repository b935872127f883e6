"""Rank specialization and the walk from a process to its local type."""

import pytest

from protomerge import (
    Allreduce,
    Array,
    BinOp,
    Float,
    Foreach,
    IntLit,
    Message,
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
    parse_process,
    specialize,
)
from protomerge.ast import FRESH_BINDER


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


class TestSpecialize:
    def test_takes_closed_branches_and_folds_endpoints(self):
        p = parse_process(RING)
        s = specialize(p, 0, 3)
        assert s == parse_process("send to 1 float; recv from 2 float")

    def test_last_rank_wraps_around(self):
        p = parse_process(RING)
        s = specialize(p, 2, 3)
        assert s == parse_process("send to 0 float; recv from 1 float")

    def test_payload_terms_stay_symbolic(self):
        p = parse_process("send to 1 float[n * 4]")
        s = specialize(p, 0, 2)
        assert s == Send(IntLit(1), Array(Float(), BinOp("*", Var("n"), IntLit(4))))

    def test_size_stays_symbolic_in_payloads(self):
        p = parse_process("send to (size - 1) float[1000000 / size * 4]")
        s = specialize(p, 0, 3)
        assert s == parse_process("send to 2 float[1000000 / size * 4]")

    def test_rank_substitutes_into_payloads(self):
        p = parse_process("send to 1 float[rank + 1]")
        s = specialize(p, 0, 2)
        assert s == parse_process("send to 1 float[0 + 1]")

    def test_empty_constant_loop_drops_to_skip(self):
        p = parse_process("for i: 1 .. size - 1 { send to i float }")
        assert specialize(p, 0, 1) == PSkip()

    def test_loop_bounds_fold_but_binder_survives(self):
        p = parse_process("for i: 1 .. size - 1 { send to i float }")
        s = specialize(p, 0, 3)
        assert s == parse_process("for i: 1 .. 2 { send to i float }")

    def test_open_conditional_is_kept(self):
        p = parse_process("for i: 1 .. 2 { if i = 1 { skip } else { send to 0 float } }")
        s = specialize(p, 1, 2)
        assert s == p

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            specialize(PSkip(), 2, 2)

    def test_idempotent(self):
        p = parse_process(RING)
        s = specialize(p, 1, 3)
        assert specialize(s, 1, 3) == s


class TestCollect:
    """The walk that collects a specialized process into its local type."""

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
