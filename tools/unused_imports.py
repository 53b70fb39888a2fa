"""Fail on a name a module imports and never reads.

    python tools/unused_imports.py [FILE ...]

Without arguments it checks every src/voteboard/*.py. Each file is parsed
with the stdlib ast. An imported name counts as read when the module loads
it as a plain name anywhere, annotations included, or, in a package's
__init__.py, lists it in __all__. `from __future__` imports are not names.
Each unread name is printed as FILE:LINE: NAME, and the exit status is 1
if there is any, else 0.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "voteboard"


def unread_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each name the module at path imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif path.name == "__init__.py" and isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted([(line, name) for name, line in imported.items() if name not in read])


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted(SRC.glob("*.py"))
    unread = [(path, line, name) for path in paths for line, name in unread_imports(path)]
    for path, line, name in unread:
        print(f"{path}:{line}: {name} is imported and never read")
    return 1 if unread else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
