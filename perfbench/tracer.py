"""Per-layer call counts and times, measured from outside the program.

``Tracer.install`` replaces each traced function by a timing wrapper in
every loaded ``sbpbox`` module that binds it.  ``from .solvers import ...``
binds a name per importing module, so wrapping only the defining module
would miss calls: the CG closures call ``sbpbox.solvers.laplacian_neumann``,
not ``sbpbox.grid.laplacian_neumann``.  ``Tracer.restore`` puts every
original back.

Every layer reports its calls and its self time: the time inside the
function minus the time inside traced functions it called.  A few layers
also report inclusive time (``config.load_s``, ``problem.build_s``,
``reduction.phi_map.incl_s``, ``optimize.iter_s``).

Optimizer counts come from the single descent entry ``optimize._minimize``:
``minimize_on_M``, ``polish_positive``, ``excited_states`` and
``refinement_study`` all run through it.  A start that raises counts as
failed; its completed iterations are its gradient evaluations minus the one
of the iteration that raised (each iteration evaluates ``grad_J`` once).
"""

from __future__ import annotations

import sys
import time

# Layer name -> "module:function" of each traced function.  A name that no
# longer exists makes ``install`` raise instead of reporting zeros.
LAYERS = {
    "config.load": ("sbpbox.config:load_config",),
    "problem.build": ("sbpbox.problem:build_problem",),
    "solvers.helmholtz": ("sbpbox.solvers:solve_helmholtz_neumann",),
    "solvers.poisson_neumann": ("sbpbox.solvers:solve_poisson_neumann_zeromean",),
    "solvers.poisson_dirichlet": ("sbpbox.solvers:solve_poisson_dirichlet",),
    "grid.stencil": ("sbpbox.grid:laplacian_neumann", "sbpbox.grid:laplacian_dirichlet"),
    "reduction.phi_map": ("sbpbox.reduction:phi_map",),
    "functional.eval_J": ("sbpbox.functional:eval_J",),
    "functional.grad_J": ("sbpbox.functional:grad_J",),
    "manifold.retract": ("sbpbox.manifold:retract",),
    "manifold.tangent_project": ("sbpbox.manifold:tangent_project",),
    "manifold.constraint_representers": ("sbpbox.manifold:constraint_representers",),
    "optimize.minimize": ("sbpbox.optimize:_minimize",),
    "verify.audit": ("sbpbox.verify:residual_original_system",),
    "cli.io": ("sbpbox.grid:write_field", "sbpbox.verify:write_summary",
               "sbpbox.cli:_write_report"),
}

SOLVERS = ("solvers.helmholtz", "solvers.poisson_neumann", "solvers.poisson_dirichlet")


class _Layer:
    __slots__ = ("calls", "self_s", "incl_s", "raised")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.raised = 0


class Tracer:
    def __init__(self):
        self.layers = {name: _Layer() for name in LAYERS}
        self.stencil_bytes = 0
        self.descent_depth = 0
        self.descent_solves = 0
        self.runs = 0
        self.iters = 0
        self.trials = 0
        self.starts_failed = 0
        self._child_time: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        for layer, specs in LAYERS.items():
            for spec in specs:
                module_name, fname = spec.split(":")
                original = getattr(sys.modules[module_name], fname)
                wrapper = self._wrap(layer, original)
                for mod in list(sys.modules.values()):
                    if not getattr(mod, "__name__", "").startswith("sbpbox"):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, layer: str, fn):
        rec = self.layers[layer]
        descent = layer == "optimize.minimize"
        stencil = layer == "grid.stencil"
        solver = layer in SOLVERS
        retract = self.layers["manifold.retract"]
        grad = self.layers["functional.grad_J"]

        def wrapper(*args, **kwargs):
            if solver and self.descent_depth:
                self.descent_solves += 1
            if descent:
                self.descent_depth += 1
                retract_before, grad_before = retract.calls, grad.calls
            self._child_time.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec.raised += 1
                if descent:
                    self.starts_failed += 1
                    self.iters += max(grad.calls - grad_before - 1, 0)
                raise
            else:
                if descent:
                    self.iters += result.iterations
                    self.starts_failed += not result.converged
                if stencil:  # one read of the input, one write of the output
                    self.stencil_bytes += 2 * result.nbytes
            finally:
                elapsed = time.perf_counter() - t0
                rec.calls += 1
                rec.incl_s += elapsed
                rec.self_s += elapsed - self._child_time.pop()
                if self._child_time:
                    self._child_time[-1] += elapsed
                if descent:
                    self.descent_depth -= 1
                    self.runs += 1
                    # The first retraction of a run maps its start onto M;
                    # each later one is a line-search trial.
                    self.trials += max(retract.calls - retract_before - 1, 0)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        L = self.layers
        out: dict[str, tuple[float, str]] = {
            "config.load_s": (L["config.load"].incl_s, "s"),
            "problem.build_s": (L["problem.build"].incl_s, "s"),
        }
        for name in SOLVERS + ("grid.stencil", "reduction.phi_map",
                               "functional.eval_J", "functional.grad_J",
                               "manifold.retract", "manifold.tangent_project",
                               "manifold.constraint_representers", "verify.audit"):
            out[f"{name}.calls"] = (L[name].calls, "count")
            out[f"{name}.s"] = (L[name].self_s, "s")
        iters = self.iters
        out["solvers.solves_per_iter"] = (_ratio(self.descent_solves, iters), "ratio")
        out["grid.stencil.bytes_computed"] = (self.stencil_bytes, "B")
        out["reduction.phi_map.incl_s"] = (L["reduction.phi_map"].incl_s, "s")
        out["manifold.retract.failures"] = (L["manifold.retract"].raised, "count")
        out["optimize.runs"] = (self.runs, "count")
        out["optimize.iters"] = (iters, "count")
        out["optimize.iter_s"] = (_ratio(L["optimize.minimize"].incl_s, iters), "s")
        out["optimize.trials_per_iter"] = (_ratio(self.trials, iters), "ratio")
        out["optimize.armijo_accept_ratio"] = (_ratio(iters, self.trials), "ratio")
        out["optimize.starts_failed"] = (self.starts_failed, "count")
        out["cli.io.s"] = (L["cli.io"].self_s, "s")
        return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0
