"""The runtime is pure standard library: every absolute import in the
package names a module of the standard library, and so does the SHA-256
module the CLI's process entry imports under the running version's name."""

import ast
import sys
from pathlib import Path

import pytest

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


def test_cli_entry_selects_a_standard_library_sha256(monkeypatch):
    # the built-in SHA-256 is _sha256 before CPython 3.12 and _sha2 from it,
    # so no static import names it: check the module run selects at run time
    from hkcert import certificate, cli

    class Ended(Exception):
        pass

    def _exit(status):
        raise Ended

    monkeypatch.setattr(certificate, "sha256", None)
    monkeypatch.setattr(cli, "main", lambda argv: 0)
    monkeypatch.setattr(cli.os, "_exit", _exit)
    with pytest.raises(Ended):
        cli.run([])
    module = certificate.sha256.__module__
    assert module in sys.stdlib_module_names
    assert module == ("_sha2" if sys.version_info >= (3, 12) else "_sha256")
