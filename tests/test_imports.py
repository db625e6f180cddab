"""Every name a module imports is used in it.

Each ``src/trimem/*.py`` but ``__init__.py``, each ``scripts/*.py`` and
each ``tests/*.py`` is parsed with ``ast``. An imported name counts as
used where the module reads it as a name, which covers ``np.x`` and
annotations. An import whose lines say ``noqa`` is a deliberate re-export
and is exempt. Importing the package loads no HTTP client either. No
f-string in ``src/trimem/`` formats a caught exception with ``!r``: an error
message carries the exception's text, not its class name and quotes. One
function in ``src/trimem/``, ``store.write_bytes``, writes files, so one
place decides how a file is written and what its failure is. No module in
``src/trimem/`` but ``store.py`` spells a store file's name or the staged
``.tmp`` suffix, so the paths a command checks before its first model call
are the ones ``persist`` writes. Only ``MemoryStore._admit`` adds entries and
their rows, so ``insert_entries`` and ``load`` take in what one rule allows.
The package's ``__all__`` is the names its ``__init__.py`` imports, sorted.
"""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from trimem.store import STORE_FILES

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


def file_writes(source: str) -> list[tuple[str, int]]:
    """(function, line) of each call in source that writes a file, function
    being the innermost enclosing def ("<module>" at top level): a
    ``.write_text`` or ``.write_bytes`` call, or an ``open`` or ``.open`` call
    whose mode is not a literal string free of ``w``, ``a``, ``x`` and ``+``;
    an ``os.open`` call, whose flags are no mode string, counts too."""
    found = []

    def writes(call: ast.Call) -> bool:
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
            return True
        if not (isinstance(func, ast.Attribute) and func.attr == "open"
                or isinstance(func, ast.Name) and func.id == "open"):
            return False
        if isinstance(func, ast.Attribute) and ast.unparse(func.value) == "os":
            return True
        at = 1 if isinstance(func, ast.Name) else 0  # open(file, mode), path.open(mode)
        mode = next((kw.value for kw in call.keywords if kw.arg == "mode"),
                    call.args[at] if len(call.args) > at else ast.Constant("r"))
        return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax+"))

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and writes(child):
                found.append((function, child.lineno))
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_one_function_writes_files():
    writers = {(path.name, function) for path in SRC.glob("*.py")
               for function, _ in file_writes(path.read_text(encoding="utf-8"))}
    # and the store lock, whose os.open makes an empty file to flock and writes no bytes
    assert writers == {("store.py", "write_bytes"), ("cli.py", "store_lock")}


def test_the_check_finds_each_kind_of_file_write():
    source = ("import os\nfrom pathlib import Path\n"
              "def reads(p):\n    open(p).read(); open(p, 'rb'); p.open(mode='r')\n"
              "    return p.read_text(), write_text(p, 'x')\n"
              "def writes(p, mode):\n    p.write_text('x')\n    Path(p).write_bytes(b'')\n"
              "    def inner():\n        open(p, mode='a')\n    p.open('r+'); p.open(mode)\n"
              "os.open('lock', os.O_CREAT | os.O_WRONLY)\n")
    assert file_writes(source) == [("writes", 7), ("writes", 8), ("inner", 10),
                                   ("writes", 11), ("writes", 11), ("<module>", 12)]


# a store file's name, not as the tail of a longer name such as run_manifest.json
STORE_FILE_NAME = re.compile(r"(?<![\w.])(%s)\b" % "|".join(map(re.escape, STORE_FILES)))


def store_file_names(source: str) -> list[str]:
    """Each string constant in source, in source order, that names a store
    file or ends in ``.tmp``, docstrings and the literal parts of f-strings
    included."""
    found = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and (STORE_FILE_NAME.search(node.value) or node.value.endswith(".tmp"))]
    return [f"line {node.lineno}: {node.value!r}"
            for node in sorted(found, key=lambda node: (node.lineno, node.col_offset))]


@pytest.mark.parametrize("module", sorted({p.name for p in SRC.glob("*.py")} - {"store.py"}))
def test_only_the_store_names_its_files(module):
    assert store_file_names((SRC / module).read_text(encoding="utf-8")) == []


def test_the_check_finds_a_store_file_name():
    source = ('"""Reads manifest.json."""\nOUT = ("run_manifest.json", "report.json")\n'
              'def f(d, name):\n    return d / "records.json.gz", d / f"{name}.tmp"\n'
              'STAGE = ".tmp"\nDATA = "store/vectors.bin"\nOTHER = "vectors.bins"\n')
    assert store_file_names(source) == [
        "line 1: 'Reads manifest.json.'", "line 4: 'records.json.gz'", "line 4: '.tmp'",
        "line 5: '.tmp'", "line 6: 'store/vectors.bin'"]


# the MemoryStore attributes that hold its entries and rows, and the functions of
# store.py that write each: __init__ makes them empty, seal joins the blocks into
# one, and _admit is the one way entries and their rows come in
STORE_STATE = ("_entries", "_blocks", "_by_restatement")
STATE_WRITERS = {"__init__": set(STORE_STATE), "seal": {"_blocks"},
                 "_admit": set(STORE_STATE)}
MUTATORS = {"append", "extend", "insert", "update", "setdefault", "pop", "popitem",
            "clear", "remove"}


def state_writes(source: str) -> list[tuple[str, str, int]]:
    """(function, attribute, line) of each write in source, function being the
    innermost enclosing def, to an attribute of any object named in STORE_STATE:
    an assignment, augmented assignment or ``del`` of it or of an item of it,
    or a call of one of its MUTATORS."""
    found = []

    def state_attr(node):
        while isinstance(node, ast.Subscript):
            node = node.value
        return node.attr if isinstance(node, ast.Attribute) and node.attr in STORE_STATE \
            else None

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            targets = []
            if isinstance(child, (ast.Assign, ast.Delete)):
                targets = child.targets
            elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                targets = [child.target]
            elif isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) \
                    and child.func.attr in MUTATORS:
                targets = [child.func.value]
            for target in targets:
                for node_ in target.elts if isinstance(target, ast.Tuple) else [target]:
                    if name := state_attr(node_):
                        found.append((function, name, child.lineno))
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_only_the_admission_writes_a_stores_entries_and_rows():
    writes = {(path.name, function, name) for path in SRC.glob("*.py")
              for function, name, _ in state_writes(path.read_text(encoding="utf-8"))}
    assert writes == {("store.py", function, name)
                      for function, names in STATE_WRITERS.items() for name in names}


def test_the_check_finds_each_write_of_a_stores_entries_and_rows():
    source = ("class S:\n    def load(cls, store, rows):\n"
              "        store._entries = {}; store._blocks.append(rows)\n"
              "        store._by_restatement['k'] = 'e1'; del store._entries['e1']\n"
              "        store.dim += 1; n, store.dim = 1, 2\n"
              "        return store._entries.get('e1'), store._blocks[0], store.dim\n"
              "s = S()\ns._by_restatement.setdefault('k', 'e2'); s._entries.copy()\n")
    assert state_writes(source) == [
        ("load", "_entries", 3), ("load", "_blocks", 3), ("load", "_by_restatement", 4),
        ("load", "_entries", 4), ("<module>", "_by_restatement", 8)]


def test_importing_the_package_loads_no_http_client():
    """requests and urllib3 load only with an HttpBackend, so that a scripted
    run's peak RSS does not carry them."""
    code = "import sys, trimem, trimem.cli; print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)}, check=True)
    assert done.stdout == "[]\n"


def test_the_public_api_is_the_names_the_package_imports():
    """``trimem.__all__`` is, sorted, each name ``__init__.py`` imports from a
    submodule, so the imports declare the API once; it names no submodule, and
    ``from trimem import *`` binds just those names."""
    import trimem
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}
    assert trimem.__all__ == sorted(imported)
    assert {path.stem for path in SRC.glob("*.py")}.isdisjoint(trimem.__all__)
    namespace = {}
    exec("from trimem import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == trimem.__all__
