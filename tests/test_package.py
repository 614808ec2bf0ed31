"""Package surface: the public names and the README's library example."""

from __future__ import annotations

import re
from pathlib import Path

import sliceplace

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in sliceplace.__all__ if not hasattr(sliceplace, name)]
    assert missing == []


def test_readme_library_snippet_runs():
    text = README.read_text()
    section = text[text.index("## Library"):]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(snippet, f"{README}:Library", "exec"), {})
