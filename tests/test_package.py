import ast
import os
import subprocess
import sys
from pathlib import Path

import geohg


def test_every_exported_name_resolves():
    missing = [name for name in geohg.__all__ if not hasattr(geohg, name)]
    assert missing == []
    assert len(set(geohg.__all__)) == len(geohg.__all__)


def test_import_starts_no_thread():
    # In a fresh interpreter, as this one has imported geohg already.
    code = ("import threading; n = threading.active_count(); import geohg; "
            "assert threading.active_count() == n, threading.enumerate()")
    # The child finds geohg where this interpreter did, installed or not.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_numpy_is_the_only_dependency():
    # Every absolute import under src/geohg must come from the standard
    # library or numpy; relative imports stay inside the package.
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    outside = []
    for path in sorted(Path(geohg.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert outside == []


def test_only_geodata_opens_files_for_reading():
    # Text inputs go through geodata's one reader, so comments, blank
    # lines, headers and line numbers follow one rule. The JSON checkpoint
    # reader is the one exception.
    readers = []
    for path in sorted(Path(geohg.__file__).parent.rglob("*.py")):
        if path.name == "geodata.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}                  # node -> name of its enclosing def
        for node in ast.walk(tree):         # parents before children
            for child in ast.iter_child_nodes(node):
                owner[child] = (node.name if isinstance(node, ast.FunctionDef)
                                else owner.get(node, "<module>"))
            func = getattr(node, "func", None)
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name != "open":      # open(...), io.open(...), path.open(...)
                continue
            mode = node.args[1:2] + [k.value for k in node.keywords
                                     if k.arg == "mode"]
            mode = getattr(mode[0], "value", None) if mode else "r"
            if not (isinstance(mode, str) and set(mode) & set("wax")):
                readers.append(f"{path.name}: {owner.get(node, '<module>')}")
    assert readers == ["model.py: load_checkpoint"]
