"""Every imported name is used in its module.  The package `__init__` is not
scanned: its imports are the public re-exports.  The package imports only
the standard library and numpy."""

import ast
import sys
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


def _imported_modules(path: Path) -> set:
    """The top-level module of every absolute import in the file."""
    tree = ast.parse(path.read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_src_imports_only_stdlib_and_numpy():
    # pyproject declares numpy as the one dependency; relative imports stay
    # inside the package
    allowed = set(sys.stdlib_module_names) | {"numpy", "cubicforms"}
    foreign = {
        f"{path.relative_to(ROOT)}: {name}"
        for path in sorted(ROOT.glob("src/cubicforms/*.py"))
        for name in _imported_modules(path) - allowed
    }
    assert not foreign, sorted(foreign)


def _float_powers(path: Path) -> list:
    """Every ** whose exponent holds a float constant or a true division."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            if any(
                isinstance(n, ast.Constant) and isinstance(n.value, float)
                or isinstance(n, ast.BinOp) and isinstance(n.op, ast.Div)
                for n in ast.walk(node.right)
            ):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return found


def test_exact_layers_take_no_float_root():
    # the strata, the oracle and the reduction bound their searches with
    # integer roots (isqrt, forms._icbrt); analytic's prediction is real
    # by design and is not scanned
    names = ("forms.py", "reduction.py", "enumeration.py")
    found = [x for name in names for x in _float_powers(ROOT / "src/cubicforms" / name)]
    assert not found, found
