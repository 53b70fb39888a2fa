"""Fail on a name a module imports and never reads, and on a private
name of the package that no module of it reads.

    python tools/unused_imports.py [FILE ...]

Without arguments it checks every src/voteboard/*.py. Each file is parsed
with the stdlib ast. An imported name counts as read when the module loads
it as a plain name anywhere, annotations included, or, in a package's
__init__.py, lists it in __all__. `from __future__` imports are not names.
Without arguments it also checks each private module-level name of the
package: a function, class or constant whose name starts with one
underscore. It counts as read when its own module loads it as a plain name,
or another module imports it by name. Each unread name is printed as
FILE:LINE: NAME, and the exit status is 1 if there is any, else 0.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "voteboard"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _loaded(tree: ast.Module) -> set[str]:
    """The names the module loads as plain names."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unread_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each name the module at path imports and never reads."""
    tree = _parse(path)
    imported: dict[str, int] = {}
    read = _loaded(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif path.name == "__init__.py" and isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted([(line, name) for name, line in imported.items() if name not in read])


def unread_privates(paths: list[Path]) -> list[tuple[Path, int, str]]:
    """(path, line, name) of each private module-level function, class or
    constant of the modules at paths that none of them reads."""
    trees = {path: _parse(path) for path in paths}
    imported = {alias.name for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    unread = []
    for path, tree in trees.items():
        read = _loaded(tree) | imported
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [(path, node.lineno, name) for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and name not in read]
    return unread


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted(SRC.glob("*.py"))
    unread = [(path, line, name) for path in paths for line, name in unread_imports(path)]
    for path, line, name in unread:
        print(f"{path}:{line}: {name} is imported and never read")
    privates = [] if argv else unread_privates(paths)
    for path, line, name in privates:
        print(f"{path}:{line}: {name} is private and no module of the package reads it")
    return 1 if unread or privates else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
