"""Map of alpha feasibility for two coupling shapes.

The weighted-mass constraint integrate(q u^2) = alpha can only hold for a
normalized u when alpha lies strictly between the extreme values of q on
the interior nodes, where a state lives.  This sweeps the target alpha
across and beyond that window for an affine coupling and for a compactly
supported bump on a base level, printing the classification at each step.
"""

import numpy as np

from sbpbox import BoundaryData, CouplingSpec, Grid, build_problem
from sbpbox.problem import classify_alpha

MARK = {"interior": ".", "infeasible": "x"}


def sweep(label, spec, alphas):
    print(f"\n{label}")
    print(f"{'alpha':>8} {'class':>12}")
    for a in alphas:
        g = Grid(lengths=(1.0,), n=(65,))
        problem = build_problem(
            grid=g, coupling=spec,
            h1=BoundaryData.zero(g),
            h2=BoundaryData.constant(g, {"x1": float(a)}),
            kappa=1.0, p=3.0)
        rep = classify_alpha(problem)
        print(f"{a:8.3f} {rep.classification:>12} {MARK[rep.classification]}")
    print("interior q range:", "[%.3f, %.3f]" % (rep.q_min, rep.q_max))


sweep("affine coupling q = x",
      CouplingSpec("affine", {"a": 0.0, "b": 1.0}),
      np.linspace(-0.2, 1.2, 15))

sweep("bump coupling (q = 0.5 outside the bump)",
      CouplingSpec("radial_bump",
                   {"base": 0.5, "height": 1.0, "center": [0.5],
                    "radius": 0.25}),
      np.linspace(0.3, 1.7, 15))

print("\n'.' interior (solvable), 'x' infeasible")
