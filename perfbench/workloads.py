"""Fixed instance sets of the four benchmark workloads.

An instance is program text, exactly what `protomerge infer` reads: one SPMD
process source shared by every rank, or one source per rank. Everything here
is plain data built from the seed; nothing imports protomerge, so the
instance sets cannot move when the library changes.

Why each workload exists, and which layer it loads, is recorded in
README.md next to this file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# Criterion 7 of the test suite draws its corpus from this seed; the default
# run reproduces that corpus as the first block of `exchange-corpus`. Seed
# 2025 is held out: it was not used while the benchmark was written.
DEFAULT_SEED = 2024

NBODY_SIZES = (4, 8, 12, 16)
LONG_LENGTHS = (64, 128, 256)
LADDER_LENGTHS = (512, 1024, 2048, 4096)
PAIR_COUNTS = (4, 5, 6, 7)
CORPUS_BLOCK = 500
CORPUS_BLOCKS = 2

# Loop cap the `simulate` subcommand applies by default.
CLI_UNROLL = 2

# Payload texts in the order criterion 7's generator draws them.
PAYLOADS = ("float", "integer", "float[4]", "integer[2]")


@dataclass(frozen=True)
class Instance:
    """One program to infer and replay, with the verdicts it must get.

    `accept` and `reject_kind` fix the merge verdict when it is known to be
    correct; `oracle` fixes the simulator outcome ("Completed" or
    "Deadlocked"). None leaves that verdict free and only reports it.
    """

    id: str
    n: int
    sources: tuple[str, ...]
    oracle_cap: int = CLI_UNROLL
    accept: bool | None = None
    reject_kind: str | None = None
    oracle: str | None = None
    scale: str | None = None
    block: int | None = None

    def source(self, rank: int) -> str:
        return self.sources[0] if len(self.sources) == 1 else self.sources[rank]


# ---------------------------------------------------------------------------
# nbody-scale


def nbody_scale(programs: Path) -> list[Instance]:
    """The three bundled programs at n = 4, 8, 12, 16.

    Loops are capped at n iterations for the oracle: the n-body outer loop
    runs 5 000 000 times and must never be linearized whole, and a cap below
    n - 1 would cut the one-to-all fan-out short and fake a deadlock.
    """
    nbody = (programs / "nbody.proc").read_text(encoding="utf-8")
    fan_out = (programs / "one_to_all.proc").read_text(encoding="utf-8")
    ring = (programs / "symmetric_ring.proc").read_text(encoding="utf-8")
    out = []
    for n in NBODY_SIZES:
        out.append(Instance(f"nbody.n{n}", n, (nbody,), n, True, None, "Completed", f"n{n}"))
        # Merge rejects the fan-out at n >= 4 although it completes: a
        # false reject, reported and not failed.
        out.append(Instance(f"one_to_all.n{n}", n, (fan_out,), n, None, None, "Completed"))
        out.append(
            Instance(f"symmetric_ring.n{n}", n, (ring,), n, False, "DeadlockSuspected", "Deadlocked")
        )
    return out


# ---------------------------------------------------------------------------
# exchange-corpus


def gen_exchange(rng: random.Random) -> tuple[int, tuple[tuple[tuple[int, int, str], ...], ...]]:
    """One loop-free exchange: (n, per-rank (src, dst, payload) triples).

    Draws from `rng` in the same order as criterion 7's generator, so a seed
    yields the same exchanges there and here.
    """
    n = rng.choice((2, 3, 4))
    if rng.random() < 0.5:
        # Projection of one global message order: coherent by construction.
        global_msgs = []
        for _ in range(rng.randint(0, 6)):
            src = rng.randrange(n)
            dst = rng.randrange(n - 1)
            dst = dst if dst < src else dst + 1
            global_msgs.append((src, dst, rng.choice(PAYLOADS)))
        per_rank = tuple(
            tuple(m for m in global_msgs if rank in (m[0], m[1])) for rank in range(n)
        )
    else:
        # Independent per-rank behaviour: mostly incoherent.
        ranks = []
        for rank in range(n):
            triples = []
            for _ in range(rng.randint(0, 6)):
                peer = rng.randrange(n - 1)
                peer = peer if peer < rank else peer + 1
                if rng.random() < 0.5:
                    triples.append((rank, peer, rng.choice(PAYLOADS)))
                else:
                    triples.append((peer, rank, rng.choice(PAYLOADS)))
            ranks.append(tuple(triples))
        per_rank = tuple(ranks)
    return n, per_rank


def _rank_source(rank: int, triples) -> str:
    lines = [
        f"send to {dst} {payload}" if src == rank else f"recv from {src} {payload}"
        for src, dst, payload in triples
    ]
    return ";\n".join(lines) if lines else "skip"


def exchange_corpus(seed: int) -> list[Instance]:
    """CORPUS_BLOCKS blocks of CORPUS_BLOCK exchanges from one seeded stream.

    The first block is criterion 7's corpus for the same seed. Verdicts are
    left free: soundness (an acceptance must complete) is checked on every
    instance, and a false reject is counted, not failed.
    """
    rng = random.Random(seed)
    out = []
    for i in range(CORPUS_BLOCK * CORPUS_BLOCKS):
        n, per_rank = gen_exchange(rng)
        sources = tuple(_rank_source(rank, triples) for rank, triples in enumerate(per_rank))
        out.append(Instance(f"exchange.{i:04d}", n, sources, block=i // CORPUS_BLOCK))
    return out


# ---------------------------------------------------------------------------
# long-exchange


def ping_pong(length: int) -> str:
    """Two-rank SPMD program of `length` exchanges alternating direction."""
    there = "if rank = 0 { send to 1 float } else { recv from 0 float }"
    back = "if rank = 0 { recv from 1 float } else { send to 0 float }"
    return ";\n".join(there if i % 2 == 0 else back for i in range(length))


def long_exchange(lengths=LONG_LENGTHS) -> list[Instance]:
    return [
        Instance(f"ping_pong.L{length}", 2, (ping_pong(length),), CLI_UNROLL, True, None,
                 "Completed", f"L{length}")
        for length in lengths
    ]


# ---------------------------------------------------------------------------
# oracle-pairs


def _pair_sources(pairs: int, deadlock: bool) -> tuple[str, ...]:
    """Per-rank sources: ranks 2i and 2i+1 exchange 4 alternating messages.

    The deadlocking variant turns the last pair's final exchange into
    send/send, so no interleaving can finish.
    """
    sources = []
    for i in range(pairs):
        a, b = 2 * i, 2 * i + 1
        left = [f"send to {b} float", f"recv from {b} float"] * 2
        right = [f"recv from {a} float", f"send to {a} float"] * 2
        if deadlock and i == pairs - 1:
            left[-1] = f"send to {b} float"
        sources += [";\n".join(left), ";\n".join(right)]
    return tuple(sources)


def oracle_pairs() -> list[Instance]:
    out = []
    for p in PAIR_COUNTS:
        out.append(Instance(f"pairs.P{p}.complete", 2 * p, _pair_sources(p, False), CLI_UNROLL,
                            True, None, "Completed", f"P{p}"))
        out.append(Instance(f"pairs.P{p}.deadlock", 2 * p, _pair_sources(p, True), CLI_UNROLL,
                            False, "DeadlockSuspected", "Deadlocked", f"P{p}"))
    return out


WORKLOADS = ("nbody-scale", "exchange-corpus", "long-exchange", "oracle-pairs")


def instances(workload: str, seed: int, programs: Path) -> list[Instance]:
    if workload == "nbody-scale":
        return nbody_scale(programs)
    if workload == "exchange-corpus":
        return exchange_corpus(seed)
    if workload == "long-exchange":
        return long_exchange()
    if workload == "oracle-pairs":
        return oracle_pairs()
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
