"""Every name a source module imports is used in it or re-exported, every
module-level private name is loaded somewhere in the package, every public
name has a user outside the tests, and every exception class is raised
somewhere in the package and caught where it must be.

No linter ships with the project, so these scans stand in for the
unused-import and dead-code rules.  The first parses each module of
``src/sbpbox`` and collects the names bound by ``import`` statements that are
never loaded and not listed in ``__all__``.  The second collects the
``_private`` functions, classes and constants defined at module level that
no module of the package loads, by name, attribute or ``from`` import.  The
third collects the public top-level functions and classes and the public
methods that no module of the package or of ``demos/`` loads in the same
way and that are not a target of the benchmark tracer's ``LAYERS`` table:
library surface that only tests use.  The dense oracle
``verify.dense_kkt_polish`` is the one name allowed there.  The fourth
collects the classes of ``errors.py`` that no ``raise`` statement of
the package names; the base class ``SbpError`` is exempt.  With it goes the
rule that a class exists only where a caller tells it apart: every class of
``errors.py`` besides ``SbpError`` must be named in an ``except`` clause of
the package; any other failure is a plain ``SbpError``.  The fifth reads
the ``LAYERS`` table of the benchmark's tracer and lists each traced
``module:function`` that no module of ``src/sbpbox`` defines at top level,
then resolves each one as ``Tracer.install`` does, after ``import
sbpbox.cli``, so a rename or deletion fails here and not only under
``perfbench/run.py --trace 1``.
The sixth lists the ``np.sum`` calls of the descent modules: their
quadrature goes through the dot-product reductions of ``sbpbox.grid``, and
the ``np.sum`` wrapper costs more per call than the arithmetic on the small
grids where the descent loop spends its time.  The seventh lists every
parameter of a function, method or lambda of the package that its body
never reads; ``self`` and ``cls`` are exempt, and nothing else is.  The
eighth lists every reference to an attribute ``unfold``, called or bound,
outside ``cli.py`` and ``problem.py``: a state lives on the grid it
descended on, and only the field dumps and the interpolation between
``refine`` levels (``cli``) and ``box_problem`` (``problem``), which
``verify`` and ``oracle`` call, unfold a field onto the whole box.  The
ninth lists every reference to an attribute ``fold`` outside the same two
modules: a problem is folded once, in its build (``problem``), and only
the interpolated starts of ``refine`` levels (``cli``) fold a box field
onto a sector.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sbpbox"
TRACER = SRC.parent.parent / "perfbench" / "tracer.py"
DEMOS = SRC.parent.parent / "demos"


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


def loaded_names(paths):
    """Every name the files load, by name, attribute or ``from`` import."""
    loaded = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                loaded |= {alias.name for alias in node.names}
    return loaded


def unloaded_private_names(paths):
    defined = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, node.lineno, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(path.name, node.lineno, t.id)
                            for t in targets if isinstance(t, ast.Name)]
    loaded = loaded_names(paths)
    return sorted((file, line, name) for file, line, name in defined
                  if name.startswith("_") and not name.startswith("__")
                  and name not in loaded)


def unloaded_public_names(paths, users, traced):
    """Public top-level functions and classes of ``paths``, and public
    methods as ``Class.method``, that no file of ``users`` loads and that
    ``traced`` does not name."""
    defined = []
    for path in paths:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, node.lineno, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(path.name, m.lineno, f"{node.name}.{m.name}", m.name)
                            for m in node.body if isinstance(m, ast.FunctionDef)]
    loaded = loaded_names(users) | set(traced)
    return sorted((file, line, label) for file, line, label, name in defined
                  if not name.startswith("_") and name not in loaded)


def defined_classes(errors_path, exempt):
    tree = ast.parse(errors_path.read_text(), filename=str(errors_path))
    return [(node.lineno, node.name) for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name not in exempt]


def exception_name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def unraised_exceptions(errors_path, paths, exempt=("SbpError",)):
    defined = defined_classes(errors_path, exempt)
    raised = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised.add(exception_name(
                    node.exc.func if isinstance(node.exc, ast.Call) else node.exc))
    return sorted((line, name) for line, name in defined if name not in raised)


def uncaught_exceptions(errors_path, paths, exempt=("SbpError",)):
    caught = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught |= {exception_name(t) for t in types}
    return sorted((line, name) for line, name in defined_classes(errors_path, exempt)
                  if name not in caught)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_scan_sees_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import math\nimport os.path\nfrom x import y as z\n"
                   "__all__ = ['z']\nprint(os.path.sep)\n")
    assert unused_imports(mod) == [(1, "math")]


def test_every_private_name_is_loaded():
    assert unloaded_private_names(sorted(SRC.glob("*.py"))) == []


def test_scan_sees_an_unloaded_private_name(tmp_path):
    a = tmp_path / "a.py"
    a.write_text("_LIMIT = 3\n_unused: int = 0\n\ndef _helper():\n    return _LIMIT\n\n"
                 "class _Dead:\n    pass\n\ndef _imported():\n    pass\n")
    b = tmp_path / "b.py"
    b.write_text("from a import _imported\nimport a\n\nprint(a._helper())\n")
    assert unloaded_private_names([a, b]) == [("a.py", 2, "_unused"),
                                               ("a.py", 7, "_Dead")]


def test_every_public_name_has_a_user_outside_the_tests():
    """Only the dense oracle that tests check the descent against is
    public surface without a user in the package, the demos or the tracer."""
    paths = sorted(SRC.glob("*.py"))
    traced = [spec.split(":")[1] for spec in traced_targets(TRACER)]
    unloaded = unloaded_public_names(paths, paths + sorted(DEMOS.glob("*.py")), traced)
    assert [(file, label) for file, _, label in unloaded] == [
        ("verify.py", "dense_kkt_polish")]


def test_scan_sees_an_unloaded_public_name(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("def used():\n    pass\n\ndef traced():\n    pass\n\n"
                   "def only_tested():\n    pass\n\ndef _private():\n    pass\n\n"
                   "class Report:\n    def describe(self):\n        pass\n\n"
                   "    def unused(self):\n        pass\n\n"
                   "    def __repr__(self):\n        pass\n")
    demo = tmp_path / "demo.py"
    demo.write_text("from lib import Report, used\n\nused()\nReport().describe()\n")
    assert unloaded_public_names([lib], [lib, demo], ["traced"]) == [
        ("lib.py", 7, "only_tested"), ("lib.py", 17, "Report.unused")]


def test_every_exception_is_raised():
    assert unraised_exceptions(SRC / "errors.py", sorted(SRC.glob("*.py"))) == []


def test_scan_sees_an_unraised_exception(tmp_path):
    errors = tmp_path / "errors.py"
    errors.write_text("class SbpError(Exception):\n    pass\n\n"
                      "class Raised(SbpError):\n    pass\n\n"
                      "class ByAttribute(SbpError):\n    pass\n\n"
                      "class Caught(SbpError):\n    pass\n")
    user = tmp_path / "user.py"
    user.write_text("import errors\nfrom errors import Caught, Raised\n\n"
                    "def f(x):\n    try:\n        raise Raised('x')\n"
                    "    except Caught:\n        raise\n"
                    "    raise errors.ByAttribute\n")
    assert unraised_exceptions(errors, [errors, user]) == [(10, "Caught")]


def test_every_exception_is_caught():
    assert uncaught_exceptions(SRC / "errors.py", sorted(SRC.glob("*.py"))) == []


def test_scan_sees_an_uncaught_exception(tmp_path):
    errors = tmp_path / "errors.py"
    errors.write_text("class SbpError(Exception):\n    pass\n\n"
                      "class Alone(SbpError):\n    pass\n\n"
                      "class InTuple(SbpError):\n    pass\n\n"
                      "class ByAttribute(SbpError):\n    pass\n\n"
                      "class OnlyRaised(SbpError):\n    pass\n")
    user = tmp_path / "user.py"
    user.write_text("import errors\nfrom errors import Alone, InTuple, OnlyRaised\n\n"
                    "def f(g):\n    try:\n        g()\n    except Alone:\n        pass\n"
                    "    except (ValueError, InTuple):\n        pass\n"
                    "    except errors.ByAttribute:\n        raise OnlyRaised('x')\n"
                    "    except:\n        pass\n")
    assert uncaught_exceptions(errors, [errors, user]) == [(13, "OnlyRaised")]


def traced_targets(tracer_path):
    """The ``module:function`` entries of the tracer's ``LAYERS`` table, read
    from its source without importing it."""
    tree = ast.parse(tracer_path.read_text(), filename=str(tracer_path))
    layers = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "LAYERS" for t in node.targets))
    return [spec for specs in ast.literal_eval(layers).values() for spec in specs]


def unresolved_traced_names(tracer_path):
    missing = []
    for spec in traced_targets(tracer_path):
        module, name = spec.split(":")
        path = SRC / (module.removeprefix("sbpbox.") + ".py")
        defined = {node.name for node in ast.parse(path.read_text()).body
                   if isinstance(node, ast.FunctionDef)} if path.exists() else set()
        if name not in defined:
            missing.append(spec)
    return missing


def test_every_traced_name_is_defined():
    assert unresolved_traced_names(TRACER) == []


def test_every_traced_target_resolves_after_importing_the_cli():
    """``Tracer.install`` looks each target up in ``sys.modules`` once the
    command line is imported; every one of the 18 must be a function there."""
    import sbpbox.cli  # noqa: F401  (loads every module the tracer wraps)

    specs = traced_targets(TRACER)
    assert len(specs) == 18
    unresolved = [spec for spec in specs
                  if not callable(getattr(sys.modules.get(spec.split(":")[0]),
                                          spec.split(":")[1], None))]
    assert unresolved == []


def test_scan_sees_an_unresolved_traced_name(tmp_path):
    tracer = tmp_path / "tracer.py"
    tracer.write_text('LAYERS = {"a": ("sbpbox.grid:laplacian_neumann", "sbpbox.grid:gone"),\n'
                      '          "b": ("sbpbox.nope:f",)}\n')
    assert unresolved_traced_names(tracer) == ["sbpbox.grid:gone", "sbpbox.nope:f"]


DESCENT_MODULES = ("optimize.py", "manifold.py", "functional.py", "reduction.py")


def numpy_sum_calls(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "numpy"}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "sum"
                  and isinstance(node.func.value, ast.Name)
                  and node.func.value.id in aliases)


@pytest.mark.parametrize("name", DESCENT_MODULES)
def test_descent_modules_do_not_call_np_sum(name):
    assert numpy_sum_calls(SRC / name) == []


def test_scan_sees_a_numpy_sum_call(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import numpy as np\nimport numpy\n\n"
                   "def f(x):\n    a = np.sum(x)\n    b = x.sum()\n"
                   "    return a + b + numpy.sum(x * x) + np.vdot(x, x)\n")
    assert numpy_sum_calls(mod) == [5, 7]


def unread_parameters(path):
    """``module.qualname.parameter`` for each parameter that the body of
    its function (nested functions included) never loads by name."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = f"{prefix}.{getattr(child, 'name', '<lambda>')}"
                args = child.args
                params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                          args.vararg, args.kwarg) if a is not None]
                body = child.body if isinstance(child.body, list) else [child.body]
                read = {n.id for stmt in body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                found.extend(f"{name}.{p}" for p in params
                             if p not in ("self", "cls") and p not in read)
                visit(child, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    return found


def test_every_parameter_is_read():
    assert [name for path in sorted(SRC.glob("*.py"))
            for name in unread_parameters(path)] == []


def test_scan_sees_an_unread_parameter(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def f(a, b, *args, c=1, **kw):\n    return a + c\n\n"
                   "class K:\n    def m(self, x):\n        def inner(y):\n"
                   "            return x\n        return inner\n\n"
                   "    @classmethod\n    def make(cls, z):\n        return cls()\n\n"
                   "g = lambda u, v: u\n")
    assert unread_parameters(mod) == ["mod.f.b", "mod.f.args", "mod.f.kw",
                                      "mod.K.m.inner.y", "mod.K.make.z", "mod.<lambda>.v"]


# The modules that fold or unfold a field: the CLI and the build.
FOLDING_MODULES = ("cli.py", "problem.py")


def attribute_references(path, attr):
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == attr)


def references_outside(attr):
    return {path.name: attribute_references(path, attr) for path in sorted(SRC.glob("*.py"))
            if path.name not in FOLDING_MODULES and attribute_references(path, attr)}


def test_only_the_dumps_the_levels_and_chi_unfold():
    assert references_outside("unfold") == {}


def test_only_the_build_and_the_levels_fold():
    assert references_outside("fold") == {}


def test_scan_sees_an_unfold_reference(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def unfold(f):\n    return f\n\n"
                   "def g(grid, u):\n    back = grid.unfold\n"
                   "    return grid.unfold(u) + back(u) + unfold(u)\n")
    assert attribute_references(mod, "unfold") == [5, 6]


def test_scan_sees_a_fold_reference(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def fold(f):\n    return f\n\n"
                   "def g(grid, u):\n    back = grid.fold\n"
                   "    return grid.fold(u) + back(u) + fold(u) + grid.unfold(u)\n")
    assert attribute_references(mod, "fold") == [5, 6]
