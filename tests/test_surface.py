"""Every public name in src/srkd has a caller outside the tests.

A public top-level function, or a public method or property of a public
class, must be referenced (as a name, an attribute or an import) by the
package itself, a demo or the benchmark. The match is by name only, so it
catches an orphan whose name nothing else uses.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "srkd"

# numerics.softmax_rows is the tests' reference oracle for the softmax
# terms; nothing in the package needs it.
ALLOWED = {"numerics.softmax_rows"}


def _defined(path: Path):
    """(qualified name, bare name) of each public function, method and property."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, funcs) and not node.name.startswith("_"):
            yield f"{path.stem}.{node.name}", node.name
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, funcs) and not item.name.startswith("_"):
                    yield f"{path.stem}.{node.name}.{item.name}", item.name


def _referenced(paths) -> set[str]:
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_has_a_caller():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    callers = modules + sorted((ROOT / "demos").glob("*.py")) \
        + sorted((ROOT / "bench").rglob("*.py"))
    used = _referenced(callers)
    orphans = [qual for path in modules for qual, name in _defined(path)
               if name not in used and qual not in ALLOWED]
    assert not orphans, f"public names without a caller: {orphans}"
