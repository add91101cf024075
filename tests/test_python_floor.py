"""Every source file parses at the oldest Python that pyproject.toml
declares, so syntax newer than that floor fails on any newer interpreter;
and no module or class body defines a function or class name twice, where
the later definition would silently replace the earlier one (a test that
never runs)."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _shadowed(tree):
    """`line: name` of each function or class defined again in the same module
    or class body, where it replaces the earlier definition."""
    for body in [tree.body] + [n.body for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
        seen = set()
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name in seen:
                    yield f"{node.lineno}: {node.name}"
                seen.add(node.name)


def test_sources_parse_at_the_python_floor():
    # a regex, not tomllib, which is new in Python 3.11
    pyproject = (ROOT / "pyproject.toml").read_text()
    floor = int(re.search(r'^requires-python = ">=3\.(\d+)"$', pyproject, re.M).group(1))
    shadowed = []
    for path in sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path), feature_version=(3, floor))
        shadowed += [f"{path.relative_to(ROOT)}:{where}" for where in _shadowed(tree)]
    assert shadowed == []
