"""Package surface: the public names and the README's library example."""

from __future__ import annotations

import os
import re
import subprocess
import sys
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


def test_import_leaves_the_test_oracles_out():
    # networkx serves only the test oracle; the package must not pay for it
    code = "import sys, sliceplace; print('networkx' in sys.modules)"
    src = str(Path(sliceplace.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
