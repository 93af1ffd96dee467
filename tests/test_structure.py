"""Structural rules over the package's sources.

Each check is a function of a source tree (a directory holding
src/sphwhittle and bench) that returns what it found, one line each, so
that a clean tree returns nothing.  Each runs on this checkout, and each
has a twin that plants one violation in a copy of the tree and expects the
check to find it.
"""
import ast
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# each of these routes a reduction to BLAS (einsum's optimize= through
# tensordot), whose rounding depends on its thread count, and the thread
# tests do not catch a gemv
_BLAS = re.compile(r"\.dot\(|np\.(dot|inner|vdot|tensordot|matmul|linalg)|@ |optimize=")
# the names of the format functions that only _files.py defines
_FORMAT_DEF = re.compile(r"\w+_(from|to)_dict|read_\w+|write_\w+")


def _modules(root: Path) -> list[Path]:
    return sorted((root / "src" / "sphwhittle").glob("*.py"))


def _lines(paths):
    # (path, line number, line) over the files
    for path in paths:
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            yield path, number, line


def blas_calls(root: Path) -> list[str]:
    """No BLAS calls: each line of a module that matches _BLAS."""
    return [f"{p}:{n}: {line}" for p, n, line in _lines(_modules(root)) if _BLAS.search(line)]


def file_boundary_faults(root: Path) -> list[str]:
    """One file boundary: configs are mapped to ConfigError, and artifacts
    written, in _files.py alone.  No other module catches KeyError or
    imports json or csv; and but for cli.py and __init__.py, none imports
    _files or defines a format function (*_from_dict, *_to_dict, read_*,
    write_*)."""
    package = root / "src" / "sphwhittle"
    others = [p for p in sorted(package.rglob("*.py")) if p.name != "_files.py"]
    found = [
        f"{p}:{n}: catches KeyError" for p, n, line in _lines(others) if "except KeyError" in line
    ]
    for path in _modules(root):
        if path.name == "_files.py":
            continue
        boundary = path.name in ("cli.py", "__init__.py")
        banned = {"json", "csv"} if boundary else {"json", "csv", "_files"}
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                parts = {p for alias in node.names for p in alias.name.split(".")}
            elif isinstance(node, ast.ImportFrom):
                parts = {*(node.module or "").split("."), *(alias.name for alias in node.names)}
            else:
                parts = set()
            if parts & banned:
                found.append(f"{path}:{node.lineno}: imports {sorted(parts & banned)}")
            if isinstance(node, ast.FunctionDef) and _FORMAT_DEF.fullmatch(node.name):
                if not boundary:
                    found.append(f"{path}:{node.lineno}: defines {node.name}")
    return found


def report_constructors(root: Path) -> list[str]:
    """One report constructor: each "MonteCarloReport(" in the modules, as
    file:enclosing top-level def or class; montecarlo.py:assemble alone is
    allowed."""
    found = []
    for path in _modules(root):
        name = ""
        for line in path.read_text().splitlines():
            if head := re.match(r"(def|class) (\w+)", line):
                name = head[2]
            if "MonteCarloReport(" in line:
                found.append(f"{path.name}:{name}")
    return [] if found == ["montecarlo.py:assemble"] else found


def unused_exports(root: Path) -> list[str]:
    """No test-only exports: the package exports what its commands, modules
    and benchmark call, so each name in sphwhittle.__all__ (but
    __version__) must be referenced in the code of src/sphwhittle/*.py or
    bench/ (a Name, an Attribute or an imported name; a def, a docstring or
    an __all__ string is not).  A test-only helper lives in its test."""
    exported = subprocess.run(
        [sys.executable, "-c", "import sphwhittle; print(*sphwhittle.__all__)"],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    used = set()
    for path in [*_modules(root), *(root / "bench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return [name for name in exported if name != "__version__" and name not in used]


CHECKS = [blas_calls, file_boundary_faults, report_constructors, unused_exports]


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.__name__)
def test_sources_pass(check):
    assert check(ROOT) == []


@pytest.fixture
def tree(tmp_path) -> Path:
    # a copy of the sources that the checks read
    skip = shutil.ignore_patterns("__pycache__", ".bench_out")
    for part in ("src/sphwhittle", "bench"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=skip)
    return tmp_path


def plant(path: Path, after: str, text: str) -> None:
    """Insert text after the first occurrence of after, or at the end when
    after is empty."""
    source = path.read_text()
    at = source.index(after) + len(after) if after else len(source)
    path.write_text(source[:at] + text + source[at:])


# per check: the module planted in, the (after, text) plants and a part of
# the line the check must report
PLANTED = {
    "blas_call": (
        blas_calls,
        "whittle.py",
        [("", "\ndef _planted(a, b):\n    return np.dot(a, b)\n")],
        "np.dot(",
    ),
    "json_import": (
        file_boundary_faults,
        "whittle.py",
        [("import math\n", "import json\n")],
        "imports ['json']",
    ),
    "second_report_constructor": (
        report_constructors,
        "sampling.py",
        [("", "\ndef _planted():\n    return MonteCarloReport()\n")],
        "sampling.py:_planted",
    ),
    "unused_export": (
        unused_exports,
        "whittle.py",
        [("__all__ = [", '\n    "planted_export",'), ("", "\ndef planted_export():\n    pass\n")],
        "planted_export",
    ),
}


@pytest.mark.parametrize("check, module, plants, expected", PLANTED.values(), ids=PLANTED)
def test_planted_violation_is_found(tree, check, module, plants, expected):
    for after, text in plants:
        plant(tree / "src" / "sphwhittle" / module, after, text)
    found = check(tree)
    assert any(expected in line for line in found), found
