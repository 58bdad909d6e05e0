"""The runtime is pure standard library: every absolute import in the
package names a module of the standard library, and so does the built-in
SHA-256 module the digest imports under the running version's name."""

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


def test_builtin_sha256_is_the_standard_library_module_of_the_version():
    # the built-in SHA-256 is _sha256 before CPython 3.12 and _sha2 from it,
    # so no static import names it: check the one the certificate module
    # resolved, and that the CLI leaves the choice to it
    from hkcert import certificate, cli

    module = certificate._builtin_sha256.__module__
    assert module in sys.stdlib_module_names
    assert module == ("_sha2" if sys.version_info >= (3, 12) else "_sha256")
    assert "sha256" not in Path(cli.__file__).read_text(encoding="utf-8")


_INEXACT_CALLS = {"float", "complex", "round"}


def inexact_arithmetic(source):
    """The line of each true division (`/`, `/=`), float or complex literal,
    and float(), complex() or round() call in one module's source."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            lines.append(node.lineno)
        elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in _INEXACT_CALLS:
            lines.append(node.lineno)
    return sorted(lines)


def test_package_arithmetic_is_exact():
    # the README promises exact integer arithmetic: no value of the package
    # passes through a float, however large its integers grow
    files = sorted(Path(hkcert.__file__).parent.rglob("*.py"))
    found = {f.name: inexact_arithmetic(f.read_text(encoding="utf-8")) for f in files}
    assert {name: lines for name, lines in found.items() if lines} == {}
    # the walk does see each kind, in an f-string too
    sample = "a = 1 / 2\na /= 2\nb = 0.5\nc = 2j\nd = float(a)\ne = complex(1)\nf = round(a)\ng = f'{a / 2}'\nh = a // 2\n"
    assert inexact_arithmetic(sample) == [1, 2, 3, 4, 5, 6, 7, 8]
