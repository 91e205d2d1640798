"""Design rules checked on the package source."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dadt"


def test_no_private_imports_across_modules():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("dadt"):
                continue
            offenders += [f"{path.name}:{node.lineno} imports {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert not offenders, offenders


def _reads_input(call: ast.Call) -> bool:
    """json.load/json.loads, or open() with a mode that reads."""
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return func.value.id == "json" and func.attr in ("load", "loads")
    if isinstance(func, ast.Name) and func.id == "open":
        mode = call.args[1] if len(call.args) > 1 else next(
            (kw.value for kw in call.keywords if kw.arg == "mode"), None)
        return not (isinstance(mode, ast.Constant) and not set(mode.value) & set("r+"))
    return False


def test_only_data_reads_input_documents():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "data.py":
            continue
        offenders += [f"{path.name}:{node.lineno} reads an input document"
                      for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                      if isinstance(node, ast.Call) and _reads_input(node)]
    assert not offenders, offenders


def test_only_knowledge_reads_the_arity_limit():
    """The knowledge regime is stated in one module: the others ask it
    which subpaths a query may fall back to, never the store's arity."""
    offenders = [f"{path.name}:{node.lineno} reads arity_limit"
                 for path in sorted(SRC.glob("*.py")) if path.name != "knowledge.py"
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Attribute) and node.attr == "arity_limit"]
    assert not offenders, offenders
