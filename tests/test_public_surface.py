"""The public surface of ``repro`` is what an entry point reaches.

A public top-level def or public method under ``src/repro`` must be
referenced from entry-point code -- ``src/`` itself, ``examples/`` or
``bench/`` (including the string entries of ``bench/trace.py``'s patch
tables) -- or be a named survivor in DESIGN.md §3.
``tests/`` is not an entry point: code only tests reach serves no traffic.

The count is done on the AST.  A reference is a ``Name``, the attribute
of an ``Attribute`` or the target of a ``from ... import``; docstrings,
comments, ``__all__`` strings and the import lines of an ``__init__.py``
(re-exports) are not references, and neither is a def's own body.
Matching is by bare name (no type inference), so the unreached set errs on
the side of "reached".  Nothing scanned is imported or executed.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = "src/repro"
ENTRY_ROOTS = ("src", "examples", "bench")
#: file -> the module-level tables whose string entries name what the
#: file patches (and so calls) at run time.
PATCH_TABLES = {"bench/trace.py": ("FUNCTIONS", "METHODS")}


def _functions_and_classes(body):
    return [n for n in body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def public_defs(tree: ast.Module) -> dict[str, ast.AST]:
    """Qualified name -> node: public top-level defs, and the public
    methods (properties included) of public top-level classes."""
    out: dict[str, ast.AST] = {}
    for node in _functions_and_classes(tree.body):
        if node.name.startswith("_"):
            continue
        out[node.name] = node
        if isinstance(node, ast.ClassDef):
            for member in _functions_and_classes(node.body):
                # A property's setter/deleter re-defines the name; first wins.
                if not member.name.startswith("_") and not isinstance(member, ast.ClassDef):
                    out.setdefault(f"{node.name}.{member.name}", member)
    return out


def _references(tree: ast.AST, skip_imports: bool):
    """(bare name, node) for every reference under ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.ImportFrom) and not skip_imports:
            for alias in node.names:
                yield alias.name, node


def _table_strings(tree: ast.Module, tables: tuple[str, ...]):
    """Every string constant in the module-level assignments to ``tables``."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else ()
        if any(isinstance(t, ast.Name) and t.id in tables for t in targets):
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    yield sub.value


def unreached(root: Path) -> set[str]:
    """``repro.pkg.module.Qual.name`` of every public def under
    ``root/src/repro`` that no entry-point file references from outside
    the def's own body."""
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for entry in ENTRY_ROOTS
        for path in sorted((root / entry).rglob("*.py"))
    }
    # bare name -> ids of the AST nodes referencing it
    sites: dict[str, set[int]] = {}
    for path, tree in trees.items():
        for name, node in _references(tree, skip_imports=path.name == "__init__.py"):
            sites.setdefault(name, set()).add(id(node))
        tables = PATCH_TABLES.get(path.relative_to(root).as_posix())
        if tables:
            for i, name in enumerate(_table_strings(tree, tables)):
                sites.setdefault(name, set()).add(-1 - i)  # no id() is negative

    out: set[str] = set()
    for path, tree in trees.items():
        if not path.is_relative_to(root / PACKAGE):
            continue
        module = ".".join(path.relative_to(root / "src").with_suffix("").parts)
        for qualname, node in public_defs(tree).items():
            name = qualname.rpartition(".")[2]
            own = {id(n) for n_name, n in _references(node, skip_imports=False) if n_name == name}
            if not sites.get(name, set()) - own:
                out.add(f"{module.removesuffix('.__init__')}.{qualname}")
    return out


def design_survivors() -> dict[str, tuple[str, str]]:
    """Name -> (reason kind, ROADMAP column), from the survivor table of
    DESIGN.md §3 (a row may name several defs that stay for one reason)."""
    section = (REPO / "DESIGN.md").read_text().split("### Survivors", 1)[1].split("\n## ", 1)[0]
    out: dict[str, tuple[str, str]] = {}
    row = r"^\| (`[^|]+`) \| \d+ \| (\w+) \| [^|]* \| *([^|]*?) *\|$"
    for names, kind, item in re.findall(row, section, flags=re.M):
        out.update(dict.fromkeys(re.findall(r"`([\w.]+)`", names), (kind, item)))
    return out


#: The reasons DESIGN §3 allows.  A name reached only by its own tests has
#: none of them: it is deleted with those tests, not listed.
REASON_KINDS = {"oracle", "paper", "roadmap"}


def test_unreached_set_is_exactly_the_design_table():
    survivors = design_survivors()
    assert survivors and {kind for kind, _ in survivors.values()} <= REASON_KINDS
    unnumbered = {
        name for name, (kind, item) in survivors.items()
        if kind == "roadmap" and not item.isdigit()
    }
    assert unnumbered == set(), "a roadmap row names the ROADMAP item that will consume it"
    found = unreached(REPO)
    assert found - set(survivors) == set(), "reached only from tests/: wire in, delete, or list in DESIGN §3"
    assert set(survivors) - found == set(), "now reached (or gone): drop the row from DESIGN §3"


def _write(root: Path, files: dict[str, str]) -> None:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_scanner_on_a_small_tree(tmp_path):
    _write(tmp_path, {
        "src/repro/pkg/__init__.py": (
            '"""Mentions docstring_only in prose."""\n'
            "from .mod import reexported_only, from_example\n"
            '__all__ = ["reexported_only", "from_example"]\n'
        ),
        "src/repro/pkg/mod.py": (
            "def from_tests_only(): pass\n"
            "def from_example(): pass\n"
            "def docstring_only(): pass\n"
            "def reexported_only(): pass\n"
            "def patched(): pass\n"
            "def recursive(n): return recursive(n - 1)\n"
            "def _private(): pass\n"
            "class Box:\n"
            "    def used(self): return self._hidden()\n"
            "    def unused(self): pass\n"
            "    def _hidden(self): pass\n"
        ),
        "examples/demo.py": "from repro.pkg import from_example\nfrom_example().used()\n",
        "tests/test_mod.py": "from repro.pkg.mod import from_tests_only, Box\nBox().unused()\n",
        "bench/trace.py": 'FUNCTIONS = {"layer": {"repro.pkg.mod": ("patched",)}}\nOTHER = ("docstring_only",)\n',
    })
    assert unreached(tmp_path) == {
        "repro.pkg.mod.from_tests_only",
        "repro.pkg.mod.docstring_only",
        "repro.pkg.mod.reexported_only",
        "repro.pkg.mod.recursive",
        "repro.pkg.mod.Box",
        "repro.pkg.mod.Box.unused",
    }


def _bound_names(tree: ast.Module) -> set[str]:
    out: set[str] = set()
    for node in ast.walk(tree):  # includes names bound under ``if`` / ``try``
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
    return out


def lazy_table(tree: ast.Module) -> dict[str, str] | None:
    """The ``{name: submodule}`` table a package hands to
    ``lazy_exports``, or ``None`` for a module that installs none."""
    values = {
        node.targets[0].id: node.value for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
    }
    for value in values.values():
        if isinstance(value, ast.Call) and getattr(value.func, "id", "") == "lazy_exports":
            table = value.args[1]
            return ast.literal_eval(values[table.id] if isinstance(table, ast.Name) else table)
    return None


def _exported(tree: ast.Module, table: dict[str, str]) -> list[str]:
    """The ``__all__`` names: its strings, plus the table's keys where
    ``__all__ = list(<table>)``."""
    names = list(_table_strings(tree, ("__all__",)))
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "id", "") == "list"
        ):
            names += table
    return names


def test_every_dunder_all_name_resolves():
    """An ``__all__`` entry whose def was deleted must go with it.  (That
    an exported name is reached or in DESIGN §3 is the first test: the
    table *is* the allow-list.)  In a package with a lazy table
    (``repro._lazy``) a name the package does not bind must be a key of
    the table whose submodule binds it, or the name of a submodule."""
    exported = 0
    for path in sorted((REPO / PACKAGE).rglob("*.py")):
        tree = ast.parse(path.read_text())
        bound = _bound_names(tree)
        table = lazy_table(tree)
        if table is not None:
            bound |= {p.stem for p in path.parent.glob("*.py")}
        for name in _exported(tree, table or {}):
            exported += 1
            if table and name in table:
                owner = path.parent / f"{table[name]}.py"
                assert owner.exists() and name in _bound_names(ast.parse(owner.read_text())), (
                    f"{path}: the lazy table sends {name!r} to {owner.name}, which never binds it"
                )
            else:
                assert name in bound, f"{path}: __all__ names {name!r}, which the module never binds"
    assert exported > 100


def test_every_dunder_all_name_resolves_at_run_time():
    """The same, by import: in a fresh interpreter every ``__all__`` name of
    every package resolves, and a lazy one is bound into its package on
    first use.  A typo in a lazy table would otherwise surface only when a
    caller first reaches the name."""
    packages = sorted(
        ".".join(p.parent.relative_to(REPO / "src").parts)
        for p in (REPO / PACKAGE).rglob("__init__.py")
    )
    probe = (
        "import importlib\n"
        f"for package in {packages!r}:\n"
        "    module = importlib.import_module(package)\n"
        "    for name in module.__all__:\n"
        "        getattr(module, name)\n"
        "        assert name in vars(module), (package, name)\n"
        "    assert not hasattr(module, 'no_such_name'), package\n"
    )
    path = os.pathsep.join(filter(None, (str(REPO / "src"), os.environ.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    assert len(packages) > 15
