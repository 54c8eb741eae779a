"""Ground state on the unit interval with linearly growing coupling.

Sets up q(x) = x with a right-face flux that pins the weighted mass at
alpha = 0.5, minimizes the reduced energy over the two-constraint manifold,
and prints the converged energy, multipliers, and strong-form residuals.
The state and its potential are written next to this script as binary
field dumps (a grid header, then raw float64) that read_field() loads back.
"""

import os

import numpy as np

from sbpbox import BoundaryData, CouplingSpec, Grid, build_problem, write_field
from sbpbox.manifold import feasible_init
from sbpbox.optimize import OptimizerOptions, minimize_on_M
from sbpbox.problem import classify_alpha
from sbpbox.verify import reconstruct_phi, residual_original_system

n = 129
alpha = 0.5

grid = Grid(lengths=(1.0,), n=(n,))
problem = build_problem(
    grid=grid,
    coupling=CouplingSpec("affine", {"a": 0.0, "b": 1.0}),
    h1=BoundaryData.zero(grid),
    h2=BoundaryData.constant(grid, {"x1": alpha}),
    kappa=1.0,
    p=3.0,
)

report = classify_alpha(problem)
print(f"alpha = {problem.alpha:.6f}, interior q range = "
      f"[{report.q_min:.3f}, {report.q_max:.3f}] -> {report.classification}")

result = minimize_on_M(problem, feasible_init(problem), OptimizerOptions())

print(f"converged: {result.converged} in {result.iterations} iterations")
print(f"J     = {result.j:.12f}")
print(f"omega = {result.omega:.12f}")
print(f"mu    = {result.mu:.12f}")
print(f"min u = {result.u.min():.3e}")

res = residual_original_system(problem, result.u, result.phi,
                               result.omega, result.mu, j=result.j)
print(f"eq1 residual (wide stencil)   = {res.eq1_res:.3e}")
print(f"eq1 residual (native stencil) = {res.eq1_res_native:.3e}")
print(f"eq2 residual                  = {res.eq2_res:.3e}")
print(f"flux mismatch                 = {res.bc_res:.3e}")

here = os.path.dirname(os.path.abspath(__file__))
write_field(os.path.join(here, "ground_u.bin"), grid, result.u)
write_field(os.path.join(here, "ground_phi.bin"), grid,
            reconstruct_phi(problem, result.phi, result.mu))
print("wrote ground_u.bin and ground_phi.bin")
