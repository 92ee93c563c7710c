"""Every module-level function and class of minflux is used or documented,
and every defaulted parameter is set by some call."""

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


def defaulted_parameters():
    """(label, callee name, position or None, parameter name) for every
    defaulted parameter of a module-level function, or of a method of a
    module-level class, in src/minflux.

    The position counts the arguments a call passes, so a method's self or
    cls is not counted; keyword-only parameters have none.  A class is
    called by its own name, so its __init__ parameters go under that name.
    """
    out = []
    for path in sorted((ROOT / "src" / "minflux").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                funcs = [(node.name, node.name, node, 0)]
            elif isinstance(node, ast.ClassDef):
                funcs = [
                    (
                        f"{node.name}.{fn.name}",
                        node.name if fn.name == "__init__" else fn.name,
                        fn,
                        0 if any(getattr(d, "id", None) == "staticmethod"
                                 for d in fn.decorator_list) else 1,
                    )
                    for fn in node.body
                    if isinstance(fn, ast.FunctionDef)
                ]
            else:
                continue
            for qual, callee, fn, skip in funcs:
                a = fn.args
                pos = a.posonlyargs + a.args
                first = len(pos) - len(a.defaults)
                out += [
                    (f"{path.stem}.{qual}({arg.arg})", callee, i - skip, arg.arg)
                    for i, arg in enumerate(pos)
                    if i >= first
                ]
                out += [
                    (f"{path.stem}.{qual}({arg.arg})", callee, None, arg.arg)
                    for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                    if d is not None
                ]
    return out


def sets(call, position, name):
    """True when the call passes the parameter: by keyword, by position, or
    through * or ** unpacking."""
    if any(k.arg in (None, name) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def unset_defaults():
    """Defaulted parameters that no call in src/minflux, perfbench/ or
    tests/ sets, matching calls by the callee's bare name."""
    files = [
        p
        for d in (ROOT / "src" / "minflux", ROOT / "perfbench", ROOT / "tests")
        for p in sorted(d.glob("*.py"))
    ]
    calls = {}
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    return [
        label
        for label, callee, position, name in defaulted_parameters()
        if not any(sets(c, position, name) for c in calls.get(callee, ()))
    ]


def test_every_default_is_set():
    # a default that no caller overrides is a constant in disguise
    assert unset_defaults() == []
