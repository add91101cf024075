"""Every source file parses at the oldest Python that pyproject.toml
declares, so syntax newer than that floor fails on any newer interpreter."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_sources_parse_at_the_python_floor():
    # a regex, not tomllib, which is new in Python 3.11
    pyproject = (ROOT / "pyproject.toml").read_text()
    floor = int(re.search(r'^requires-python = ">=3\.(\d+)"$', pyproject, re.M).group(1))
    for path in sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=(3, floor))
