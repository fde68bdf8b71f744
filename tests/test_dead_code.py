"""Every module-level constant, top-level function and top-level class in
aucal is referenced somewhere in src/, tests/ or bench/ outside its own
definition. A reference is a name, an attribute, an imported name, or an
identifier inside a string that is not a docstring: bench binds the
functions it traces by "module:attribute" strings.

And every defaulted parameter of a public function or method in aucal is
passed by some call in src/, bench/ or tests/test_acceptance.py: a
parameter only other tests set is a library path no command reaches.

And every --flag of an aucal subcommand is a string in some test."""

import ast
import re
from collections import Counter
from pathlib import Path

from conftest import flags_by_command

ROOT = Path(__file__).resolve().parents[1]
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstrings(tree: ast.AST) -> set[int]:
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, SCOPES) and ast.get_docstring(node) is not None}


def _references(tree: ast.AST, skip: set[int]) -> Counter:
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name.rpartition(".")[2]] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip):
            refs.update(IDENTIFIER.findall(node.value))
    return refs


def _definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(name.id, node) for target in targets
                    for name in ast.walk(target) if isinstance(name, ast.Name)]
    return out


def unreferenced(modules: dict[str, str], others: list[str]) -> list[str]:
    """'module: name' for each definition in modules (file name -> source)
    that no source in modules or others refers to outside the definition."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    every = [*trees.values(), *map(ast.parse, others)]  # alive, so ids stay unique
    refs, skip = Counter(), set()
    for tree in every:
        skip |= _docstrings(tree)
        refs += _references(tree, skip)
    return [f"{module}: {name}" for module, tree in trees.items()
            for name, node in _definitions(tree)
            if refs[name] <= _references(node, skip)[name]]


def _aucal_sources() -> dict[str, str]:
    return {p.name: p.read_text(encoding="utf-8")
            for p in sorted((ROOT / "src" / "aucal").glob("*.py"))}


def test_every_definition_is_referenced():
    others = [p.read_text(encoding="utf-8")
              for d in ("tests", "bench") for p in sorted((ROOT / d).glob("*.py"))]
    assert unreferenced(_aucal_sources(), others) == []


def test_unreferenced_definition_is_reported():
    module = ('"""Mentions B."""\nA, B = 1, 2\nC: int = 3\n'
              "def f():\n    return f()\n"
              "def g():\n    pass\n"
              "class K:\n    x = A\n")
    others = ["import m\nm.K()\n", "BIND = 'm:g'\n"]
    assert unreferenced({"m.py": module}, others) == ["m.py: B", "m.py: C", "m.py: f"]


def _defaulted(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """(call name, parameter, position or None if keyword-only) for each
    defaulted parameter of a public function or method. A method's calls
    pass no self or cls; __init__'s calls go by its class's name."""
    scopes = [(None, node) for node in tree.body]
    scopes += [(cls, node) for cls in tree.body if isinstance(cls, ast.ClassDef)
               and not cls.name.startswith("_") for node in cls.body]
    out = []
    for cls, fn in scopes:
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if fn.name.startswith("_") and not (cls and fn.name == "__init__"):
            continue
        a = fn.args
        positional = a.posonlyargs + a.args
        if cls and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                           for d in fn.decorator_list):
            positional = positional[1:]
        name = cls.name if fn.name == "__init__" else fn.name
        first = len(positional) - len(a.defaults)
        out += [(name, arg.arg, i) for i, arg in enumerate(positional) if i >= first]
        out += [(name, arg.arg, None)
                for arg, default in zip(a.kwonlyargs, a.kw_defaults) if default]
    return out


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    if any(k.arg in (None, param) for k in call.keywords):  # None: **mapping
        return True
    if position is None:
        return False
    return (len(call.args) > position
            or any(isinstance(arg, ast.Starred) for arg in call.args))


def unpassed(modules: dict[str, str], callers: list[str]) -> list[str]:
    """'module: function(parameter)' for each defaulted parameter of a public
    function or method in modules that no call in modules or callers passes,
    by keyword, by position or through * or **. Calls match by name."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    calls = {}
    for tree in [*trees.values(), *map(ast.parse, callers)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func  # f(...) or obj.f(...)
                name = getattr(func, "attr", getattr(func, "id", None))
                calls.setdefault(name, []).append(node)
    return [f"{module}: {name}({param})" for module, tree in trees.items()
            for name, param, position in _defaulted(tree)
            if not any(_passes(c, param, position) for c in calls.get(name, ()))]


def test_every_default_is_overridden_by_a_command():
    callers = [p.read_text(encoding="utf-8")
               for p in [*sorted((ROOT / "bench").glob("*.py")),
                         ROOT / "tests" / "test_acceptance.py"]]
    assert unpassed(_aucal_sources(), callers) == []


def test_unpassed_default_is_reported():
    module = ("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
              "def g(x=0):\n    pass\n"
              "def _h(y=0):\n    pass\n"
              "def n(u=0):\n    pass\n"
              "class K:\n"
              "    def __init__(self, z=0):\n        pass\n"
              "    def m(self, w=0):\n        pass\n"
              "    @staticmethod\n    def s(v=0):\n        pass\n")
    others = ["f(0, 1, e=5)\ng(*args)\nn(**kw)\nK().m()\nK.s()\n"]
    assert unpassed({"m.py": module}, others) == [
        "m.py: f(c)", "m.py: f(d)", "m.py: K(z)", "m.py: m(w)", "m.py: s(v)"]


def _names(node: ast.AST | None) -> set[str]:
    """The class names an except clause or a raise names."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Tuple):
        return set().union(*map(_names, node.elts))
    return {node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)}


def untyped_errors(modules: dict[str, str]) -> list[str]:
    """'module:line' for each raise of ValueError or KeyError in modules, and
    for each handler in cli.py's run that catches ValueError, KeyError or
    json.JSONDecodeError: library errors are AucalError subclasses, and run
    catches only those, its usage error and OSError."""
    out = []
    for module, source in modules.items():
        lines = []
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and _names(node.exc) & {"ValueError", "KeyError"}:
                lines.append(node.lineno)
            if module == "cli.py" and isinstance(node, ast.FunctionDef) and node.name == "run":
                lines += [h.lineno for h in ast.walk(node) if isinstance(h, ast.ExceptHandler)
                          and _names(h.type) & {"ValueError", "KeyError", "JSONDecodeError"}]
        out += [f"{module}:{line}" for line in sorted(lines)]
    return out


def test_library_raises_only_typed_errors():
    assert untyped_errors(_aucal_sources()) == []


def test_untyped_error_is_reported():
    library = ("def f(x):\n    if x:\n        raise ValueError('x')\n"
               "    raise builtins.KeyError\n")
    cli = ("def run():\n    try:\n        pass\n"
           "    except (OSError, json.JSONDecodeError):\n        pass\n"
           "def other():\n    try:\n        pass\n"
           "    except ValueError:\n        raise MyError from None\n")
    assert untyped_errors({"m.py": library, "cli.py": cli}) == [
        "m.py:3", "m.py:4", "cli.py:4"]


def test_every_command_flag_is_in_some_test():
    strings = {node.value for p in sorted((ROOT / "tests").glob("*.py"))
               for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    flags = set().union(*flags_by_command().values()) - {"-h", "--help"}
    assert sorted(flags - strings) == []
