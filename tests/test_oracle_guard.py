"""``src/`` ships one implementation of each stage: the loop oracles its fast
paths are checked against live in ``tests/oracles`` and never move back."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _names(node):
    """Names ``node`` defines, or the modules it imports (absolute only)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
        return [node.id]
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


def test_src_defines_no_reference_and_imports_no_oracle():
    sources = sorted(SRC.rglob("*.py"))
    assert len(sources) > 50
    leaks = [f"{path.relative_to(SRC)}:{node.lineno}: {name}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             for name in _names(node)
             if name.endswith("_reference")
             or name.split(".")[0] in ("oracles", "tests")]
    assert leaks == []
