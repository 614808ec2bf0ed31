"""Package surface: the public names and the README's library example; and
the Hypothesis profile the suite runs under."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

from hypothesis import settings

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


def test_a_run_imports_nothing_new():
    """A timed run and a validated run import no module that `import
    sliceplace` did not, beyond `numpy.random`, which numpy loads on first
    use and the run's streams need. A lazy import in a run, as np.median's
    of numpy.ma (about 1.3 MB of resident memory), would add its setup
    time and memory to the first run unnoticed."""
    code = ("import sys, sliceplace, numpy.random; loaded = set(sys.modules); "
            "from sliceplace import sim; "
            "from sliceplace.topology import build_reference_psn; "
            "scenario = sim.Scenario.named('MIX', 1.0, horizon=20.0); "
            "[sim.run(build_reference_psn(1), scenario, a, 1, measure_time=True, validate=v) "
            " for a in ('p2c-2', 'ilp-1') for v in (False, True)]; "
            "print(sorted(set(sys.modules) - loaded))")
    src = str(Path(sliceplace.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_hypothesis_profile(pytestconfig):
    """By default the property tests draw a fixed set of examples and keep
    no database; `--hypothesis-profile=fresh` draws afresh."""
    fresh = pytestconfig.getoption("--hypothesis-profile") == "fresh"
    assert settings.default.derandomize is not fresh
    assert (settings.default.database is None) is not fresh


def test_fresh_profile_overrides_the_fixed_one():
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          f"{__file__}::test_hypothesis_profile", "--hypothesis-profile=fresh"],
                         capture_output=True, text=True, cwd=README.parent,
                         env={**os.environ, "PYTHONPATH": str(README.parent / "src")})
    assert out.returncode == 0, out.stdout + out.stderr
    assert "1 passed" in out.stdout
