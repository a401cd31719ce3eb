"""The golden-file harness: one encoder, one writer, one comparison, one capture.

A golden file (``tests/data/golden_*.json``) pins what the program returned
at some commit, so that a change meant to move work and not numbers can
show that no number moved.  Every harness module declares ``TABLES``, a
mapping of data-file name to the function that builds that file's table
(a dict of JSON-ready records), and compares its table with
:func:`assert_matches`.  Floats are stored as ``float.hex()`` through
:func:`encode`, and ``==`` on the JSON is the bar: no tolerance.

Write a harness's data files from this checkout::

    python tests/golden.py capture tests/test_cluster_golden.py

or from another commit, typically the parent of a change::

    python tests/golden.py capture tests/test_cluster_golden.py --at HEAD

``--at`` checks ``<rev>`` out into a temporary ``git worktree``, copies this
file and the harness module into it, builds the tables there against that
commit's ``src/``, and copies the files it wrote back into ``tests/data``.
Regenerate a file only when a change *means* to move a number, and say so.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"


def digest(tree, root: str | None = "") -> str | None:
    """SHA-256 over a tree of arrays: each leaf's path, dtype, shape, bytes.

    A leaf's path is its dict keys and list indices joined by ``/`` after
    ``root``.  ``root=None`` names the top-level leaves by their bare keys
    (``w0`` rather than ``/w0``), as the cluster and chaos files hash a flat
    parameter dict.  ``None`` (a run without parameters) digests to ``None``.
    """
    if tree is None:
        return None
    sha = hashlib.sha256()

    def feed(node, path):
        if isinstance(node, dict):
            children = [(str(key), node[key]) for key in sorted(node)]
        elif isinstance(node, (list, tuple)):
            children = [(str(i), item) for i, item in enumerate(node)]
        else:
            array = np.ascontiguousarray(node)
            sha.update(f"{path or ''}|{array.dtype}|{array.shape}|".encode())
            sha.update(array.tobytes())
            return
        for key, child in children:
            feed(child, key if path is None else f"{path}/{key}")

    feed(tree, root)
    return sha.hexdigest()


def encode(value):
    """JSON-ready form of a record: floats as ``float.hex()``, arrays as
    their :func:`digest`, tuples as lists, everything else as it is."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        return digest(value)
    if isinstance(value, dict):
        return {key: encode(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(item) for item in value]
    return value


def load(name: str) -> dict:
    """The golden table stored in ``tests/data/<name>``."""
    return json.loads((DATA / name).read_text())


def write(path: Path, table: dict) -> None:
    """Store ``table`` one key per line, keys sorted, values compact, so a
    regenerated file's diff names the records that moved."""
    rows = ",\n".join(
        f"{json.dumps(key)}: {json.dumps(value, separators=(',', ':'))}"
        for key, value in sorted(table.items())
    )
    path.parent.mkdir(exist_ok=True)
    path.write_text("{\n" + rows + "\n}\n")


def _first_difference(found, golden, path: str) -> str:
    if isinstance(found, dict) and isinstance(golden, dict) and found.keys() == golden.keys():
        pairs = [(key, found[key], golden[key]) for key in golden]
    elif isinstance(found, list) and isinstance(golden, list) and len(found) == len(golden):
        pairs = [(str(i), a, b) for i, (a, b) in enumerate(zip(found, golden))]
    else:
        return f"{path}: {golden!r:.100} -> {found!r:.100}"
    key, a, b = next(pair for pair in pairs if pair[1] != pair[2])
    return _first_difference(a, b, f"{path}/{key}")


def assert_matches(found: dict, golden: dict) -> None:
    """Fail unless ``found`` stores as ``golden``, naming every key that
    moved and the path of the first value that differs."""
    found = json.loads(json.dumps(found))
    missing, extra = sorted(golden.keys() - found.keys()), sorted(found.keys() - golden.keys())
    assert not missing and not extra, f"keys missing: {missing}, keys added: {extra}"
    moved = sorted(key for key in golden if found[key] != golden[key])
    assert not moved, (
        f"{len(moved)} of {len(golden)} entries moved: {moved}; first difference at "
        + _first_difference(found[moved[0]], golden[moved[0]], moved[0])
    )


def capture(test_file: Path, rev: str | None = None) -> list[Path]:
    """Write the data files of the harness ``test_file`` (built at ``rev``)."""
    if rev is None:
        tables = importlib.import_module(f"tests.{test_file.stem}").TABLES
        for name, build in tables.items():
            write(DATA / name, build())
        return [DATA / name for name in tables]
    git = ["git", "-C", str(ROOT)]
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        subprocess.run([*git, "worktree", "add", "--detach", "--quiet", str(tree), rev], check=True)
        try:
            tests = tree / "tests"
            shutil.rmtree(tests / "data", ignore_errors=True)
            shutil.copy(Path(__file__).resolve(), tests / "golden.py")
            shutil.copy(test_file, tests / test_file.name)
            env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
            subprocess.run(
                [sys.executable, str(tests / "golden.py"), "capture", str(tests / test_file.name)],
                check=True, cwd=tree, env=env,
            )
            written = []
            for path in sorted((tests / "data").iterdir()):
                shutil.copy(path, DATA / path.name)
                written.append(DATA / path.name)
        finally:
            subprocess.run([*git, "worktree", "remove", "--force", str(tree)], check=True)
    return written


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_capture = sub.add_parser("capture", help="write a harness's golden data files")
    p_capture.add_argument("test_file", type=Path, help="harness module, e.g. tests/test_x.py")
    p_capture.add_argument("--at", metavar="REV", help="build the tables at this git revision")
    args = parser.parse_args(argv)
    for path in capture(args.test_file.resolve(), args.at):
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    # Import the harness as ``tests.<module>`` against this checkout's
    # ``src/``, whatever the working directory.
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]
    raise SystemExit(main())
