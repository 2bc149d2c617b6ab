"""Every public name in src/srkd has a caller outside the tests.

A public top-level function, or a public method or property of a public
class, must be referenced (as a name, an attribute or an import) by the
package itself, a demo or the benchmark, or be a target that the
benchmark's tracer wraps (an attribute named by a string in its
SETUP_TARGETS or LAYER_TARGETS). The match is by name only, so it catches
an orphan whose name nothing else uses.

Names that numpy shares (`sum`, `exp`, `T`, the arithmetic dunders) always
look used by name, so `Tensor` is also checked at run time: every public
method and property and every arithmetic dunder of it must be called on
the package's own paths.
"""

import ast
import collections
import contextlib
import io
import runpy
from pathlib import Path

from srkd import cli, losses, trainer
from srkd.autodiff import Tensor
from srkd.cloud import SceneSpec, generate_scene

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "srkd"

TRACER = ROOT / "bench" / "tracer.py"


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


def _traced(path: Path) -> set[str]:
    """The attribute names, strings at index 1 of each (owner, attribute,
    span) entry, of the tracer's SETUP_TARGETS and LAYER_TARGETS tables."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("SETUP_TARGETS", "LAYER_TARGETS")
                for t in node.targets):
            names.update(entry.elts[1].value for entry in node.value.elts)
    return names


def test_every_public_name_has_a_caller():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    callers = modules + sorted((ROOT / "demos").glob("*.py")) \
        + sorted((ROOT / "bench").rglob("*.py"))
    used = _referenced(callers) | _traced(TRACER)
    orphans = [qual for path in modules for qual, name in _defined(path)
               if name not in used]
    assert not orphans, f"public names without a caller: {orphans}"


ARITHMETIC = {f"__{side}{op}__" for side in ("", "r", "i")
              for op in ("add", "sub", "mul", "matmul", "truediv", "pow")} \
    | {"__neg__", "__pos__", "__abs__"}


def _tensor_surface() -> list[str]:
    """Tensor's public methods and properties and its arithmetic dunders."""
    return [name for name, attr in vars(Tensor).items()
            if (not name.startswith("_") or name in ARITHMETIC)
            and (callable(attr) or isinstance(attr, property))]


def _counted(attr, name: str, calls: collections.Counter):
    """attr (a function, staticmethod or property) counting its calls in calls[name]."""
    fn = attr.fget if isinstance(attr, property) else getattr(attr, "__func__", attr)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    if isinstance(attr, property):
        return property(wrapper)
    return staticmethod(wrapper) if isinstance(attr, staticmethod) else wrapper


def test_every_tensor_method_runs_on_a_package_path(monkeypatch):
    calls = collections.Counter()
    names = _tensor_surface()
    for name in names:
        monkeypatch.setattr(Tensor, name, _counted(vars(Tensor)[name], name, calls))
    # one training step's objective and backward at the default weights
    weights = losses.LossWeights()
    student, batch, chosen = cli._gradcheck_batch(0, weights)
    comps = trainer.distill_objective(student, batch, chosen, weights)
    student.zero_grads()
    comps["l_total"].backward()
    # the noisy evaluation, and a demo that reads losses with item()
    cloud = generate_scene(SceneSpec(n_classes=4, points_per_scene=48, n_scenes=1), 0)
    trainer.evaluate(student, [cloud], 16, noise_tau=0.1)
    with contextlib.redirect_stdout(io.StringIO()):
        runpy.run_path(str(ROOT / "demos" / "loss_anatomy.py"))
    assert {"item", "backward"} <= set(names)
    unused = [name for name in names if not calls[name]]
    assert not unused, f"Tensor members no package path calls: {unused}"
