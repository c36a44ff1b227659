"""A dead-code guard: every top-level function and class of the library
has a user, so a deletion leaves nothing behind."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "wallforms").glob("*.py"))


def _references(path: Path) -> set[str]:
    """Every name the file reads, as a name, an attribute or an import."""
    refs = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name)
    return refs


def test_every_top_level_definition_is_referenced():
    users = LIBRARY + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    referenced = set().union(*map(_references, users))
    unused = [f"{path.name}:{node.name}"
              for path in LIBRARY for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in referenced]
    assert unused == []
