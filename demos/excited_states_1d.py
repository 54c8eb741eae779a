"""Multiple bound states in a multi-well coupling landscape.

The coupling oscillates through three wells; with a strong focusing term
(kappa = 20) a normalized lump pays an energy penalty to spread across
wells, so seeds started in different wells converge to genuinely different
critical points.  The run asks for three states and prints whatever
distinct ones survive deduplication, ordered by energy.
"""

import numpy as np

from sbpbox import BoundaryData, CouplingSpec, Grid, build_problem
from sbpbox.grid import dirichlet_energy
from sbpbox.optimize import OptimizerOptions, excited_states

n = 257
grid = Grid(lengths=(1.0,), n=(n,))
problem = build_problem(
    grid=grid,
    coupling=CouplingSpec("oscillating",
                          {"base": 1.0, "amplitude": 0.9,
                           "cycles": 3, "tilt": 0.1}),
    h1=BoundaryData.zero(grid),
    h2=BoundaryData.constant(grid, {"x1": 0.35}),
    kappa=20.0,
    p=3.0,
)

states = excited_states(problem, 3,
                        OptimizerOptions(max_iterations=8000))

x = grid.axes[0]
print(f"{len(states)} distinct states (energy-ordered):")
print(f"{'J':>16} {'dirichlet':>12} {'omega':>12} {'center':>8}")
for s in states:
    de = dirichlet_energy(grid, s.u)
    com = float(np.sum(x * s.u ** 2) / np.sum(s.u ** 2))
    print(f"{s.j:16.8f} {de:12.4f} {s.omega:12.4f} {com:8.3f}")

js = [s.j for s in states]
des = [dirichlet_energy(grid, s.u) for s in states]
assert all(b > a for a, b in zip(js, js[1:]))
assert all(b > a for a, b in zip(des, des[1:]))
print("energies and Dirichlet seminorms are strictly increasing")
