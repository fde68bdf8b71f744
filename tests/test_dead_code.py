"""Every module-level constant, top-level function and top-level class in
aucal is referenced somewhere in src/, tests/ or bench/ outside its own
definition. A reference is a name, an attribute, an imported name, or an
identifier inside a string that is not a docstring: bench binds the
functions it traces by "module:attribute" strings."""

import ast
import re
from collections import Counter
from pathlib import Path

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


def test_every_definition_is_referenced():
    modules = {p.name: p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "src" / "aucal").glob("*.py"))}
    others = [p.read_text(encoding="utf-8")
              for d in ("tests", "bench") for p in sorted((ROOT / d).glob("*.py"))]
    assert unreferenced(modules, others) == []


def test_unreferenced_definition_is_reported():
    module = ('"""Mentions B."""\nA, B = 1, 2\nC: int = 3\n'
              "def f():\n    return f()\n"
              "def g():\n    pass\n"
              "class K:\n    x = A\n")
    others = ["import m\nm.K()\n", "BIND = 'm:g'\n"]
    assert unreferenced({"m.py": module}, others) == ["m.py: B", "m.py: C", "m.py: f"]
