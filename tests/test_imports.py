"""Every name a module in aucal imports is used in that module. The package's
__init__.py is exempt: its imports are the public re-exports. And aucal
runs on numpy and the stdlib: no module imports scipy, and a whole demo
loads no scipy module."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aucal

MODULES = sorted(p for p in Path(aucal.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = "import os\nfrom json import dumps, loads\nloads('1')\n"
    assert _unused_imports(source) == ["line 2: dumps", "line 1: os"]


def _imports_scipy(source: str) -> bool:
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.partition(".")[0] == "scipy" for name in names):
            return True
    return False


def test_no_module_imports_scipy():
    package = Path(aucal.__file__).parent
    assert [p.name for p in sorted(package.glob("*.py"))
            if _imports_scipy(p.read_text(encoding="utf-8"))] == []
    assert _imports_scipy("def f():\n    from scipy.special import ndtr\n")


def test_demo_loads_no_scipy(tmp_path):
    probe = ("import sys; from aucal.cli import run; "
             "code = run(['demo', '--epochs', '1', '--out', sys.argv[1]]); "
             "print(code, sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))")
    src = str(Path(aucal.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", probe, str(tmp_path)],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.splitlines()[-1] == "0 []"
