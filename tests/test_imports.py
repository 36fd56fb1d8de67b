"""Every imported name is used in its module.  The package `__init__` is not
scanned: its imports are the public re-exports."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    sources = [p for p in sorted(ROOT.glob("src/cubicforms/*.py")) if p.name != "__init__.py"]
    sources += sorted(ROOT.glob("tests/*.py"))
    unused = [item for path in sources for item in _unused_imports(path)]
    assert not unused, unused
