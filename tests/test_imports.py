"""Every name a module imports is used in it.

Each ``src/trimem/*.py`` but ``__init__.py``, each ``scripts/*.py`` and
each ``tests/*.py`` is parsed with ``ast``. An imported name counts as
used where the module reads it as a name, which covers ``np.x`` and
annotations. An import whose lines say ``noqa`` is a deliberate re-export
and is exempt. Importing the package loads no HTTP client either. No
f-string in ``src/trimem/`` formats a caught exception with ``!r``: an error
message carries the exception's text, not its class name and quotes.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "trimem"
# each checked file by its id: its name in the package, else its path from the root
MODULES = {p.name: p for p in SRC.glob("*.py") if p.name != "__init__.py"}
MODULES.update((f"{d}/{p.name}", p) for d in ("scripts", "tests")
               for p in (ROOT / d).glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any("noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_imported_name_is_used(module):
    assert unused_imports(MODULES[module].read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unused_name():
    source = ("from __future__ import annotations\nimport os\nimport sys\n"
              "from typing import Optional, get_args\n"
              "from .errors import EXIT_OK  # noqa: F401\n"
              "def f(x: Optional[int]) -> None:\n    return sys.argv\n")
    assert unused_imports(source) == ["line 2: os", "line 4: get_args"]


def reprs_of_caught_errors(source: str) -> list[str]:
    """Each f-string field in an ``except ... as NAME`` block that formats
    NAME with ``!r``."""
    found = []
    for handler in ast.walk(ast.parse(source)):
        if not (isinstance(handler, ast.ExceptHandler) and handler.name):
            continue
        for node in (node for stmt in handler.body for node in ast.walk(stmt)):
            if (isinstance(node, ast.FormattedValue) and node.conversion == ord("r")
                    and isinstance(node.value, ast.Name) and node.value.id == handler.name):
                found.append(f"line {node.lineno}: {handler.name}")
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_error_message_formats_a_caught_exception_with_repr(module):
    assert reprs_of_caught_errors((SRC / module).read_text(encoding="utf-8")) == []


def test_the_check_finds_a_caught_exception_formatted_with_repr():
    source = ("try:\n    pass\nexcept ValueError as exc:\n"
              "    raise KeyError(f'{exc}: {exc!r} {other!r}')\n"
              "exc = 1\nmessage = f'{exc!r}'\n")
    assert reprs_of_caught_errors(source) == ["line 4: exc"]


def test_importing_the_package_loads_no_http_client():
    """requests and urllib3 load only with an HttpBackend, so that a scripted
    run's peak RSS does not carry them."""
    code = "import sys, trimem, trimem.cli; print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)}, check=True)
    assert done.stdout == "[]\n"
