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


def calls(path):
    """(called name, name of the enclosing def, call node) for each call in
    the module at ``path``; the name is a call's function or attribute."""
    owner = {}                          # node -> name of its enclosing def
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        for child in ast.iter_child_nodes(node):    # parents before children
            owner[child] = (node.name if isinstance(node, ast.FunctionDef)
                            else owner.get(node, "<module>"))
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr",
                                                             None)
            yield name, owner.get(node, "<module>"), node


def modules():
    return sorted(Path(geohg.__file__).parent.rglob("*.py"))


def test_numpy_is_the_only_dependency():
    # Every absolute import under src/geohg must come from the standard
    # library or numpy; relative imports stay inside the package.
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    outside = []
    for path in modules():
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
    for path in modules():
        if path.name == "geodata.py":
            continue
        for name, owner, node in calls(path):
            if name != "open":      # open(...), io.open(...), path.open(...)
                continue
            mode = node.args[1:2] + [k.value for k in node.keywords
                                     if k.arg == "mode"]
            mode = getattr(mode[0], "value", None) if mode else "r"
            if not (isinstance(mode, str) and set(mode) & set("wax")):
                readers.append(f"{path.name}: {owner}")
    assert readers == ["model.py: load_checkpoint"]


def test_features_are_built_once_per_command():
    # The CLI featurizes its world in _load_world and hands the table to
    # every stage; synth derives its labels from its own world's table.
    callers = [f"{path.stem}.{owner}" for path in modules()
               for name, owner, _ in calls(path) if name == "featurize_all"]
    assert sorted(callers) == ["cli._load_world", "synth.generate"]
