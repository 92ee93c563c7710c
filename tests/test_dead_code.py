"""Every module-level function and class of minflux is used or documented,
every method is referenced, every defaulted parameter is set by some call
of the program or of the acceptance tests, no required parameter gets the
same module constant or literal from every such call, every parameter
is read by its function, every dataclass field and property is read as an
attribute outside its class, and only weierstrass lays out the
open-annulus radii."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def program_files():
    """The files whose calls count as uses: the library, the benchmark and
    the acceptance tests.  Other tests do not make a parameter or a method
    part of the program."""
    return [
        *sorted((ROOT / "src" / "minflux").glob("*.py")),
        *sorted((ROOT / "perfbench").glob("*.py")),
        ROOT / "tests" / "test_acceptance.py",
    ]


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


def unreferenced_methods():
    """Methods of module-level classes of src/minflux, other than dunder
    methods, whose name no program file refers to outside the method's own
    body."""
    trees = {path: ast.parse(path.read_text()) for path in program_files()}
    refs = [
        node
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    methods = [
        (f"{path.stem}.{cls.name}.{fn.name}", fn)
        for path, tree in trees.items()
        if path.parent.name == "minflux"
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
        and not (fn.name.startswith("__") and fn.name.endswith("__"))
    ]
    unused = []
    for label, fn in methods:
        inside = {id(n) for n in ast.walk(fn)}
        if not any(
            getattr(r, "id", getattr(r, "attr", None)) == fn.name
            and id(r) not in inside
            for r in refs
        ):
            unused.append(label)
    return unused


def test_every_method_is_referenced():
    # a method only its own test calls is not part of the program
    assert unreferenced_methods() == []


def parameters(defaulted):
    """(label, callee name, position or None, parameter name) for every
    defaulted parameter (defaulted=True), or every required one, of a
    module-level function, or of a method of a module-level class, in
    src/minflux.

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
                    if i >= skip and (i >= first) == defaulted
                ]
                out += [
                    (f"{path.stem}.{qual}({arg.arg})", callee, None, arg.arg)
                    for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                    if (d is not None) == defaulted
                ]
    return out


def defaulted_parameters():
    return parameters(defaulted=True)


def sets(call, position, name):
    """True when the call passes the parameter: by keyword, by position, or
    through * or ** unpacking."""
    if any(k.arg in (None, name) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def program_calls():
    """Every call in the program files, by the callee's bare name."""
    calls = {}
    for path in program_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    return calls


def unset_defaults():
    """Defaulted parameters that no call in the program files sets,
    matching calls by the callee's bare name."""
    calls = program_calls()
    return [
        label
        for label, callee, position, name in defaulted_parameters()
        if not any(sets(c, position, name) for c in calls.get(callee, ()))
    ]


def test_every_default_is_set():
    # a default that no caller overrides is a constant in disguise
    assert unset_defaults() == []


def module_constants():
    """Names bound by a module-level assignment in src/minflux."""
    names = set()
    for path in sorted((ROOT / "src" / "minflux").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target] if isinstance(node, ast.AnnAssign)
                else []
            )
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def passed(call, position, name):
    """The argument expression the call passes for the parameter, or None
    when it passes none that can be read (a * or ** unpacking)."""
    for k in call.keywords:
        if k.arg == name:
            return k.value
    if any(isinstance(a, ast.Starred) for a in call.args):
        return None
    if position is not None and len(call.args) > position:
        return call.args[position]
    return None


def fixed_parameters():
    """Required parameters to which every call in the program files passes
    one and the same module constant (by name, bare or as a module
    attribute) or literal.  A local name such as N does not count, since it
    may carry different values."""
    constants = module_constants()

    def constant(expr):
        # a key for the value of expr when it is fixed, else None
        if isinstance(getattr(expr, "operand", expr), ast.Constant):
            return ast.dump(expr)
        if isinstance(expr, (ast.Name, ast.Attribute)):
            name = getattr(expr, "id", getattr(expr, "attr", None))
            return name if name in constants else None
        return None

    calls = program_calls()
    out = []
    for label, callee, position, name in parameters(defaulted=False):
        values = {
            constant(passed(c, position, name)) for c in calls.get(callee, ())
        }
        if len(values) == 1 and None not in values:
            out.append(label)
    return out


def test_no_required_parameter_is_fixed():
    # a parameter that every caller gives one constant is that constant
    assert fixed_parameters() == []


#: Parameters kept although their function does not read them: the
#: benchmark passes complete_step a seed that its deterministic steps ignore.
UNREAD_EXEMPT = {"labyrinth.complete_step(seed)"}


def unread_parameters():
    """Parameters of the functions, methods and lambdas of src/minflux
    that their body never reads, as "module.function(parameter)".  A
    method's receiver (self or cls) is not counted."""
    out = []
    for path in sorted((ROOT / "src" / "minflux").glob("*.py")):
        tree = ast.parse(path.read_text())
        receivers = {
            id(fn.args.args[0])
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and fn.args.args
            and not any(getattr(d, "id", None) == "staticmethod"
                        for d in fn.decorator_list)
        }
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                continue
            a = fn.args
            args = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                    *(x for x in (a.vararg, a.kwarg) if x is not None)]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {
                n.id
                for stmt in body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            name = getattr(fn, "name", "<lambda>")
            out += [
                f"{path.stem}.{name}({arg.arg})"
                for arg in args
                if arg.arg not in read and id(arg) not in receivers
            ]
    return out


def test_every_parameter_is_read():
    # a parameter its function ignores misleads every caller that sets it
    assert sorted(set(unread_parameters()) - UNREAD_EXEMPT) == []
    assert UNREAD_EXEMPT <= set(unread_parameters())


def test_open_radii_owned_by_weierstrass():
    # every other module takes the annulus grid as a PolarGrid from
    # weierstrass.annulus_grid
    users = sorted(
        path.name
        for path in (ROOT / "src" / "minflux").glob("*.py")
        if "_open_radii" in path.read_text()
    )
    assert users == ["weierstrass.py"]


def class_state(trees):
    """(label, class node, name) for every dataclass field and every
    property of the module-level classes of src/minflux, from the parsed
    program files."""
    out = []
    for path, tree in trees.items():
        if path.parent.name != "minflux":
            continue
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            decorators = {
                getattr(getattr(d, "func", d), "id", None)
                for d in cls.decorator_list
            }
            names = []
            if "dataclass" in decorators:
                names += [
                    stmt.target.id
                    for stmt in cls.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                ]
            names += [
                fn.name
                for fn in cls.body
                if isinstance(fn, ast.FunctionDef)
                and any(getattr(d, "id", None) in ("property", "cached_property")
                        for d in fn.decorator_list)
            ]
            out += [(f"{path.stem}.{cls.name}.{name}", cls, name)
                    for name in names]
    return out


def attribute_reads(tree):
    """(node, name) for every attribute the tree reads: obj.name in a load,
    or getattr(obj, "name", ...) with that literal.  A bare name is not an
    attribute read."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.append((node, node.attr))
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "getattr"
              and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)):
            out.append((node, node.args[1].value))
    return out


def unread_state():
    """Dataclass fields and properties of src/minflux that no program file
    reads as an attribute outside their own class body."""
    trees = {path: ast.parse(path.read_text()) for path in program_files()}
    reads = [read for tree in trees.values() for read in attribute_reads(tree)]
    unread = []
    for label, cls, name in class_state(trees):
        inside = {id(n) for n in ast.walk(cls)}
        if not any(attr == name and id(node) not in inside
                   for node, attr in reads):
            unread.append(label)
    return unread


#: State read only where the check does not look, with its reader: a
#: class's own methods, or the callers of verify, which read its report.
STATE_EXEMPT = {
    "isotopy.VerificationReport.flat_flags": "the report's reader: which "
    "members are flat",
    "isotopy.VerificationReport.thresholds": "the report's reader: the "
    "bound each check passed against",
    "labyrinth.AnnulusEnd.kind": "AnnulusEnd.to_chart, dz_dw, radius_in_chart",
    "labyrinth.AnnulusEnd.c": "AnnulusEnd.to_chart, dz_dw, radius_in_chart",
    "labyrinth.MetricGraph.indptr": "MetricGraph._weighted",
    "labyrinth.MetricGraph.source": "MetricGraph._path_bounds, "
    "node_distances, distance",
    "loops.Segment.beta": "Segment.length",
    "loops.ConformalPair.h": "ConformalPair.__post_init__, the shape check",
}


def test_every_field_and_property_is_read():
    # state that only its own class, or a local of the same name, reads
    # is dead state
    unread = set(unread_state())
    assert sorted(unread - set(STATE_EXEMPT)) == []
    assert set(STATE_EXEMPT) <= unread


def test_bare_name_is_no_attribute_read():
    # a local n_samples does not read PeriodicPath.n_samples
    tree = ast.parse("n = n_samples\nm = path.n_samples\n"
                     "k = getattr(path, 'x', 0)\npath.y = 1\n")
    assert sorted(name for _, name in attribute_reads(tree)) == [
        "n_samples", "x"]
