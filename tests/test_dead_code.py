"""Every module-level function and class of minflux is used or documented."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unreferenced_definitions():
    """Module-level functions and classes of src/minflux that no code there
    refers to outside their own definition, and that README.md does not
    name in backticks."""
    sources = sorted((ROOT / "src" / "minflux").glob("*.py"))
    trees = [ast.parse(p.read_text()) for p in sources]
    defs = [
        node
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    refs = [
        node
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    readme = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    spans = re.findall(r"`([^`]+)`", readme)
    documented = {name for span in spans for name in re.findall(r"\w+", span)}
    unused = []
    for d in defs:
        inside = {id(n) for n in ast.walk(d)}
        used = any(
            getattr(r, "id", getattr(r, "attr", None)) == d.name and id(r) not in inside
            for r in refs
        )
        if not used and d.name not in documented:
            unused.append(d.name)
    return unused


def test_no_unreferenced_definitions():
    assert unreferenced_definitions() == []
