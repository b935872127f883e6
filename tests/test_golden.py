"""Byte-exact CLI transcripts: merge traces, JSON documents and diagnostics.

Each file under `tests/golden/` holds the transcripts of a few command
lines: the command, its exit code, its stdout and its stderr. To rewrite
the files from the library on PYTHONPATH, run

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import protomerge
from protomerge.cli import main

PROGRAMS = Path(protomerge.__file__).parent / "programs"
GOLDEN = Path(__file__).parent / "golden"

NBODY_N3 = """foreach iter: 1..5000000 {{
  foreach pipe: 1..2 {{
    {first};
    {second}
  }};
  allreduce min float
}}
"""
BLOCK = "float[1000000 / size * 4]"

# Protocol files the cases read. Merge: the first step of a three-rank ring,
# a step whose payloads differ, a right head that must go first, skip against
# a sequence on either side, and a right exchange the left type deadlocks
# against. Simulate: nbody's extracted local types
# at n=3, the symmetric ring's (every rank sends first), a payload clash,
# and a loop whose binder reaches the payload.
INPUTS = {
    "ring-left.ptype": "message 0 1 float;\nmessage 2 0 float\n",
    "ring-right.ptype": "message 0 1 float;\nmessage 1 2 float\n",
    "clash-left.ptype": "message 0 1 float;\nmessage 2 0 float\n",
    "clash-right.ptype": "message 0 1 integer;\nmessage 1 2 float\n",
    "relay-right.ptype": "message 1 2 float;\nmessage 0 1 float\n",
    "skip.ptype": "skip\n",
    "pair-right.ptype": "message 1 2 float;\nmessage 2 1 float\n",
    "pair-left.ptype": "message 0 2 float;\nmessage 2 0 float\n",
    "nbody-r0.ptype": NBODY_N3.format(first=f"message 0 1 {BLOCK}", second=f"message 2 0 {BLOCK}"),
    "nbody-r1.ptype": NBODY_N3.format(first=f"message 0 1 {BLOCK}", second=f"message 1 2 {BLOCK}"),
    "nbody-r2.ptype": NBODY_N3.format(first=f"message 1 2 {BLOCK}", second=f"message 2 0 {BLOCK}"),
    "sring-r0.ptype": "message 0 1 float;\nmessage 2 0 float\n",
    "sring-r1.ptype": "message 1 2 float;\nmessage 0 1 float\n",
    "sring-r2.ptype": "message 2 0 float;\nmessage 1 2 float\n",
    "sclash-r0.ptype": "message 0 1 float[size];\nallreduce sum integer\n",
    "sclash-r1.ptype": "message 0 1 float[2 * size];\nallreduce sum integer\n",
    "binder-r0.ptype": "foreach i: 1..3 {\n  message 0 1 float[i];\n  message 1 0 float[i * size]\n}\n",
    "binder-r1.ptype": "foreach i: 1..3 {\n  message 0 1 float[i];\n  message 1 0 float[i * size]\n}\n",
}

MERGE_FLAGS = ("--size", "3", "--merged", "0", "--k", "1")


def _cases() -> dict[str, list[tuple[str, ...]]]:
    """Golden file name -> the command lines it records."""
    cases = {}
    for program in ("nbody", "one_to_all", "symmetric_ring"):
        for size in (2, 3, 4):
            argv = ("infer", f"{program}.proc", "--size", str(size))
            cases[f"infer-{program}-n{size}.txt"] = [argv + ("--trace",), argv + ("--json",)]
    pairs = (
        ("ring-left.ptype", "ring-right.ptype"),
        ("clash-left.ptype", "clash-right.ptype"),
        ("ring-left.ptype", "relay-right.ptype"),
        ("skip.ptype", "pair-right.ptype"),
        ("pair-left.ptype", "skip.ptype"),
        ("ring-left.ptype", "pair-right.ptype"),
    )
    cases["merge.txt"] = [
        ("merge", left, right, *MERGE_FLAGS, flag) for left, right in pairs for flag in ("--trace", "--json")
    ]
    nbody = ("nbody-r0.ptype", "nbody-r1.ptype", "nbody-r2.ptype", "--size", "3", "--unroll", "3")
    ring = ("sring-r0.ptype", "sring-r1.ptype", "sring-r2.ptype", "--size", "3")
    clash = ("sclash-r0.ptype", "sclash-r1.ptype", "--size", "2")
    binder = ("binder-r0.ptype", "binder-r1.ptype", "--size", "2")
    cases["simulate.txt"] = [
        ("simulate", *files) + flag for files in (nbody, ring, clash, binder) for flag in ((), ("--json",))
    ]
    return cases


def _transcript(argv: tuple[str, ...], inputs: Path) -> str:
    """Run one command line; file arguments name bundled programs or inputs."""
    resolved = [
        str(PROGRAMS / a) if a.endswith(".proc") else str(inputs / a) if a.endswith(".ptype") else a
        for a in argv
    ]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(resolved)
    command = " ".join(("protomerge",) + argv)
    return f"$ {command}\nexit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def _render(lines: list[tuple[str, ...]], inputs: Path) -> str:
    return "\n".join(_transcript(argv, inputs) for argv in lines)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden-inputs")
    for name, text in INPUTS.items():
        (directory / name).write_text(text, encoding="utf-8")
    return directory


@pytest.mark.parametrize("name", sorted(_cases()))
def test_cli_output_matches_golden(name, inputs):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert _render(_cases()[name], inputs) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        for name, text in INPUTS.items():
            (directory / name).write_text(text, encoding="utf-8")
        GOLDEN.mkdir(exist_ok=True)
        for name, lines in _cases().items():
            (GOLDEN / name).write_text(_render(lines, directory), encoding="utf-8")
            print(f"wrote {GOLDEN / name}", file=sys.stderr)
