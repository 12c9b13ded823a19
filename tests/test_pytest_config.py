"""The repository's pytest settings must let hypothesis report what it
found: under ``filterwarnings = ["error"]`` a warning raised inside
hypothesis's report hook once turned every falsified property test into
an INTERNALERROR that hid the falsifying example."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FALSIFIED = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_falsified(n):
    assert n < 10
'''


def test_falsified_property_prints_its_example(tmp_path):
    (tmp_path / "test_falsified.py").write_text(FALSIFIED)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "test_falsified.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
