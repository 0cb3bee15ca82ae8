"""Importing the package and its CLI loads neither `dataclasses` nor
`inspect`, which together cost a fresh interpreter about 20 ms.  pytest
imports both itself, so the check runs in a new interpreter.  Every
module imports only names it uses, and every function and class a module
defines is read elsewhere in the package or exported."""

import ast
import os
import pathlib
import subprocess
import sys

import toricaut

CHECK = ("import sys, toricaut, toricaut.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")


def test_import_loads_no_dataclasses_or_inspect():
    # the new interpreter imports the package this test imported
    src = os.path.dirname(os.path.dirname(toricaut.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", CHECK], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_every_imported_name_is_used():
    # __init__ imports to re-export, so it is left out
    unused = []
    for path in sorted(pathlib.Path(toricaut.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def test_every_helper_is_read():
    # each top-level function and class of a module is read by name in
    # the package outside its own body, unless the package exports it
    package = pathlib.Path(toricaut.__file__).parent
    exempt = set(toricaut.__all__) | {"corpus.corpus"}
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    defined = [(module, node) for module, tree in trees.items() if module != "__init__"
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    unread = []
    for module, node in defined:
        if node.name in exempt or f"{module}.{node.name}" in exempt:
            continue
        inside = {id(n) for n in ast.walk(node)}
        if not any(isinstance(n, ast.Name) and n.id == node.name and id(n) not in inside
                   for tree in trees.values() for n in ast.walk(tree)):
            unread.append(f"{module}.{node.name}")
    assert unread == []
