"""No module of the package or of its tests imports a name it never uses.
The project ships no linter, so the check reads the syntax trees with `ast`."""
import ast
from pathlib import Path

import widthlab


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def _unused_in(folder):
    unused = {p.name: _unused_imports(p.read_text()) for p in sorted(folder.glob("*.py"))}
    return {name: found for name, found in unused.items() if found}


def test_package_modules_use_every_import():
    assert _unused_imports("import os.path\nfrom x import y as z, w\nz()\n") == \
        ["os (line 1)", "w (line 2)"]
    assert _unused_in(Path(widthlab.__file__).parent) == {}


def test_test_modules_use_every_import():
    assert _unused_in(Path(__file__).parent) == {}

