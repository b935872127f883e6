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

# Protocol files the merge cases read: the first step of a three-rank ring,
# and a step whose payloads differ.
MERGE_INPUTS = {
    "ring-left.ptype": "message 0 1 float;\nmessage 2 0 float\n",
    "ring-right.ptype": "message 0 1 float;\nmessage 1 2 float\n",
    "clash-left.ptype": "message 0 1 float;\nmessage 2 0 float\n",
    "clash-right.ptype": "message 0 1 integer;\nmessage 1 2 float\n",
}

MERGE_FLAGS = ("--size", "3", "--merged", "0", "--k", "1")


def _cases() -> dict[str, list[tuple[str, ...]]]:
    """Golden file name -> the command lines it records."""
    cases = {}
    for program in ("nbody", "one_to_all", "symmetric_ring"):
        for size in (2, 3, 4):
            argv = ("infer", f"{program}.proc", "--size", str(size))
            cases[f"infer-{program}-n{size}.txt"] = [argv + ("--trace",), argv + ("--json",)]
    cases["merge.txt"] = [
        ("merge", "ring-left.ptype", "ring-right.ptype", *MERGE_FLAGS, "--trace"),
        ("merge", "ring-left.ptype", "ring-right.ptype", *MERGE_FLAGS, "--json"),
        ("merge", "clash-left.ptype", "clash-right.ptype", *MERGE_FLAGS, "--trace"),
        ("merge", "clash-left.ptype", "clash-right.ptype", *MERGE_FLAGS, "--json"),
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
    for name, text in MERGE_INPUTS.items():
        (directory / name).write_text(text, encoding="utf-8")
    return directory


@pytest.mark.parametrize("name", sorted(_cases()))
def test_cli_output_matches_golden(name, inputs):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert _render(_cases()[name], inputs) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        for name, text in MERGE_INPUTS.items():
            (directory / name).write_text(text, encoding="utf-8")
        GOLDEN.mkdir(exist_ok=True)
        for name, lines in _cases().items():
            (GOLDEN / name).write_text(_render(lines, directory), encoding="utf-8")
            print(f"wrote {GOLDEN / name}", file=sys.stderr)
