"""README's Library example runs as written."""

import re
from pathlib import Path

from protomerge import Completed

ROOT = Path(__file__).resolve().parent.parent


def test_library_example_runs(monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)
    scope: dict = {}
    exec(blocks[0], scope)
    assert isinstance(scope["result"], Completed)
    assert len(scope["locals_"]) == scope["size"]
