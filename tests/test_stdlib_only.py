"""The runtime is pure standard library: every absolute import in the
package names a module of the standard library."""

import ast
import sys
from pathlib import Path

import hkcert


def absolute_imports(path):
    """Top-level module names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_runtime_imports_only_the_standard_library():
    files = sorted(Path(hkcert.__file__).parent.rglob("*.py"))
    assert len(files) >= 10
    outside = {
        f.name: sorted(absolute_imports(f) - sys.stdlib_module_names) for f in files
    }
    assert {name: mods for name, mods in outside.items() if mods} == {}
    # the walk does see the imports
    assert absolute_imports(Path(hkcert.__file__).with_name("construction.py")) >= {"itertools"}
