"""No dead parameters, no unread report fields, no dead imports, no
library-only src functions and no dead test helpers in src/psdo, tests
and bench, and one home for the tests' references.

Every defaulted parameter of a psdo function, and every defaulted init
field of a psdo dataclass, is set by some call in src/psdo or bench: a
call under tests/ does not keep a src parameter alive, since a value
only tests vary is a constant of every command. Every name a module
imports is referenced in src/psdo, tests or bench; every function or
method defined in src/psdo is referenced by name in src/psdo outside its
own definition, so no src code lives for its tests alone; every module-level
function or class under tests/ is referenced somewhere under tests/ (a
fixture by a parameter of its name); and no test module imports another
test module, so shared references live in tests/oracles.py.

A parameter counts as set when a call to a function of that name passes
it by keyword, by position, or may pass it through `*` or `**`
unpacking. Calls match definitions by name alone (`f(...)` and
`obj.f(...)` both match every `def f`), and a call to a class matches
its `__init__`, so the scan over-approximates what is set. A dataclass
field counts as set the same way by a call to its class, its position
counted among the init fields, or by a `replace(..., field=)` keyword
on any object. A parameter that no such call sets is a constant in
disguise: write it into the body, or derive it from the geometry; a
field that no such call sets is a class constant or a cache, declared
with `init=False`. The exemptions below give their reasons.

Every field of a dataclass or NamedTuple in src/psdo is read as
`obj.field` somewhere in src/psdo, tests or bench; an attribute of a
name the module imports (`np.floor`) is not a field read, and reads
match fields by name alone. Unlike a parameter, a field counts as read
under tests/ too: a report is what the acceptance tests assert on (A01
to A11 read `SuiteResult.measured`), so a field a test reads serves the
contract that test checks. A field nobody reads is work recorded for
nobody: delete it, with whatever computes it alone.

An imported name counts as referenced when the module reads it or lists
it in `__all__`; an import marked `# noqa: F401` (flake8's code for an
unused import) is kept for its side effect.
"""

import ast
import collections
import functools
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCANNED = ("src/psdo", "tests", "bench")
# the trees whose calls keep a src parameter alive
SETTERS = ("src/psdo", "bench")

# Inputs kept as parameters although no src or bench call sets them: the
# edge parameter v and the symbol variables of the `value` methods are
# evaluation inputs; the derivative and inverse of a pushforward are
# alternate inputs (the pushforward_interior error asks for f_inv); and
# the parameters of a LIBRARY_API member (below) are its callers' to
# set, since no src code calls it.
EVALUATION_INPUT = "v"
ALTERNATE_INPUTS = {
    "symbols.pushforward_interior": {"df", "f_inv"},
    "symbols.pushforward_edge": {"dg"},
}


def _allowed(qualname: str, param: str) -> bool:
    return (
        param == EVALUATION_INPUT
        or qualname.split(".")[-1] == "value"
        or param in ALTERNATE_INPUTS.get(qualname, ())
        or qualname in LIBRARY_API
    )


def _defaulted_parameters():
    """(module.qualname, call name, parameter, positional index or None
    for keyword-only) of every defaulted parameter in src/psdo. The
    index skips self or cls, and a class's __init__ is called by the
    class name."""
    found = []

    def visit(node, cls, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child, prefix + child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list
                )
                skip = 1 if cls is not None and not static else 0
                name = cls.name if cls is not None and child.name == "__init__" else child.name
                first = len(positional) - len(args.defaults)
                for i, p in enumerate(positional[first:], start=first):
                    found.append((prefix + child.name, name, p.arg, i - skip))
                for p, d in zip(args.kwonlyargs, args.kw_defaults):
                    if d is not None:
                        found.append((prefix + child.name, name, p.arg, None))
                visit(child, None, prefix + child.name + ".")
            else:
                visit(child, cls, prefix)

    for path in sorted((ROOT / "src/psdo").glob("*.py")):
        visit(ast.parse(path.read_text()), None, path.stem + ".")
    return found


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
        for d in cls.decorator_list
    )


def _is_record(cls: ast.ClassDef) -> bool:
    """A dataclass or a NamedTuple subclass."""
    return _is_dataclass(cls) or any(
        getattr(b, "id", getattr(b, "attr", None)) == "NamedTuple" for b in cls.bases
    )


def _field_options(value) -> dict:
    """The keywords of a `field(...)` default, or {"default": value}."""
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return {k.arg: k.value for k in value.keywords}
    return {"default": value}


def _defaulted_fields():
    """(module.Class, class name, field, position among the init fields)
    of every defaulted init field of a dataclass in src/psdo."""
    found = []
    for path in sorted((ROOT / "src/psdo").glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            position = 0
            for stmt in cls.body:
                if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
                    continue
                options = {} if stmt.value is None else _field_options(stmt.value)
                init = options.get("init")
                if isinstance(init, ast.Constant) and init.value is False:
                    continue
                if "default" in options or "default_factory" in options:
                    found.append((f"{path.stem}.{cls.name}", cls.name, stmt.target.id, position))
                position += 1
    return found


def _calls():
    """What the calls in src/psdo and bench set: (name, keyword) pairs,
    (name, position) pairs, the first `*` position per name, and the
    names called with `**`."""
    keywords, positions, star_from, double_star = set(), set(), {}, set()
    for tree in SETTERS:
        for path in sorted((ROOT / tree).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name is None:
                    continue
                for i, a in enumerate(node.args):
                    if isinstance(a, ast.Starred):
                        star_from[name] = min(star_from.get(name, i), i)
                        break
                    positions.add((name, i))
                for k in node.keywords:
                    if k.arg is None:
                        double_star.add(name)
                    else:
                        keywords.add((name, k.arg))
    return keywords, positions, star_from, double_star


def _unset_parameters():
    keywords, positions, star_from, double_star = _calls()

    def is_set(name, param, index):
        return (
            (name, param) in keywords
            or name in double_star
            or index is not None and ((name, index) in positions or star_from.get(name, index + 1) <= index)
        )

    unset = [
        f"{qualname}({param})"
        for qualname, name, param, index in _defaulted_parameters()
        if not is_set(name, param, index) and not _allowed(qualname, param)
    ]
    unset += [
        f"{qualname}({field})"
        for qualname, name, field, index in _defaulted_fields()
        if not is_set(name, field, index) and ("replace", field) not in keywords
    ]
    return unset


def test_every_defaulted_parameter_is_set_by_a_call():
    unset = _unset_parameters()
    assert not unset, f"{len(unset)} defaulted parameters or fields no call sets: {unset}"


def test_alternate_inputs_name_existing_parameters():
    defaulted = {(q, p) for q, _, p, _ in _defaulted_parameters()}
    for qualname, params in ALTERNATE_INPUTS.items():
        for p in params:
            assert (qualname, p) in defaulted, f"{qualname}({p}) is not a defaulted parameter"


def _record_fields():
    """(module.Class.field, field) of every field of a dataclass or
    NamedTuple in src/psdo."""
    found = []
    for path in sorted((ROOT / "src/psdo").glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if isinstance(cls, ast.ClassDef) and _is_record(cls):
                found += [
                    (f"{path.stem}.{cls.name}.{stmt.target.id}", stmt.target.id)
                    for stmt in cls.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                ]
    return found


def _imports(module):
    """(name, line) of every name an import in module binds."""
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        yield from ((name, node.lineno) for name in names)


def _attributes_read() -> set:
    """Every attribute read as `obj.name` in src/psdo, tests or bench,
    where obj is not a name its module imports."""
    read = set()
    for tree in SCANNED:
        for path in sorted((ROOT / tree).rglob("*.py")):
            module = ast.parse(path.read_text())
            imported = {name for name, _ in _imports(module)}
            read.update(
                n.attr
                for n in ast.walk(module)
                if isinstance(n, ast.Attribute)
                and isinstance(n.ctx, ast.Load)
                and not (isinstance(n.value, ast.Name) and n.value.id in imported)
            )
    return read


def test_every_field_is_read():
    read = _attributes_read()
    unread = [qualname for qualname, name in _record_fields() if name not in read]
    assert not unread, f"{len(unread)} fields no code reads: {unread}"


# flake8's marker for an import kept for its side effect
NOQA_F401 = re.compile(r"#\s*noqa:[^#]*\bF401\b")


def _unused_imports():
    """(path:line, name) of every imported name its module never reads."""
    unused = []
    for tree in SCANNED:
        for path in sorted((ROOT / tree).rglob("*.py")):
            source = path.read_text()
            lines = source.splitlines()
            module = ast.parse(source)
            imported = {name: line for name, line in _imports(module) if not NOQA_F401.search(lines[line - 1])}
            read = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
            for node in module.body:
                if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                    read.update(ast.literal_eval(node.value))
            rel = path.relative_to(ROOT)
            unused += [(f"{rel}:{line}", name) for name, line in imported.items() if name not in read]
    return unused


def test_every_imported_name_is_referenced():
    unused = _unused_imports()
    assert not unused, f"{len(unused)} imported names never referenced: {unused}"


@functools.cache
def _test_modules():
    return [(path, ast.parse(path.read_text())) for path in sorted((ROOT / "tests").glob("*.py"))]


def test_no_test_module_imports_another():
    found = []
    for path, module in _test_modules():
        for node in ast.walk(module):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[-1].startswith("test_")]
    assert not found, f"test modules import test modules: {found}"


def test_every_test_helper_is_referenced():
    defined, read = {}, set()
    for path, module in _test_modules():
        for node in module.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith(("test_", "Test")):
                defined[node.name] = f"{path.name}:{node.lineno} {node.name}"
        for node in ast.walk(module):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.arg):  # a fixture is requested by name
                read.add(node.arg)
    unread = sorted(where for name, where in defined.items() if name not in read)
    assert not unread, f"{len(unread)} test helpers never referenced: {unread}"


# Functions and methods that no src code reads, each kept for a reason.
LIBRARY_API = {
    "cli.read_container": "public API of the container format",
    "cli.canonical_report_bytes": "public API of the report format",
    "cli._ArgumentParser.error": "argparse calls it",
    "quantize.DiscretizedOperator.adjoint": "object API",
    "symbols.EdgeSymbol.at": "object API",
    "calculus.InfinitesimalOperator.operator": "object API",
    "symbols.pushforward_interior": "paper checker awaiting a verify suite",
    "symbols.pushforward_edge": "paper checker awaiting a verify suite",
    "fredholm.quantize_tuple": "paper checker awaiting a verify suite",
}


def _names_read(node) -> collections.Counter:
    """How often each name is read under node, as `f` or as `obj.f`."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _src_functions():
    """(module.qualname, name, names read inside it) of every function
    and method defined in src/psdo, nested ones included, and the names
    read anywhere in src/psdo."""
    found, read = [], collections.Counter()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((prefix + child.name, child.name, _names_read(child)))
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix + child.name + "." if isinstance(child, ast.ClassDef) else prefix)

    for path in sorted((ROOT / "src/psdo").glob("*.py")):
        module = ast.parse(path.read_text())
        read += _names_read(module)
        visit(module, path.stem + ".")
    return found, read


def test_every_src_function_is_referenced_in_src():
    found, read = _src_functions()
    unread = [
        qualname
        for qualname, name, inside in found
        if read[name] <= inside[name]
        and not (name.startswith("__") and name.endswith("__"))  # called by the language
        and qualname not in LIBRARY_API
    ]
    assert not unread, f"{len(unread)} src functions only tests reach: {unread}"


def test_library_api_names_existing_functions():
    defined = {qualname for qualname, _, _ in _src_functions()[0]}
    missing = sorted(set(LIBRARY_API) - defined)
    assert not missing, f"LIBRARY_API names no src function: {missing}"
