"""Grid refinement study on the benchmark ground state.

Solves the same continuum problem at n = 33, 65, 129, 257, each grid
starting from the previous grid's state interpolated onto it, and reports
the descent iterations per grid and how the energy differences and
strong-form residuals shrink.  Second-order
stencils throughout, so the wide-stencil equation residual should drop by
about 4x per refinement and the energy differences likewise.
"""

from sbpbox import BoundaryData, CouplingSpec, Grid, build_problem
from sbpbox.cli import refinement_study


def factory(n):
    g = Grid(lengths=(1.0,), n=(n,))
    return build_problem(
        grid=g,
        coupling=CouplingSpec("affine", {"a": 0.0, "b": 1.0}),
        h1=BoundaryData.zero(g),
        h2=BoundaryData.constant(g, {"x1": 0.5}),
        kappa=1.0,
        p=3.0,
    )


study = refinement_study(factory, (33, 65, 129, 257))

print(f"{'n':>5} {'iters':>5} {'J':>18} {'eq1_res':>12} {'bc_res':>12}")
for rep in study.reports:
    label = "x".join(str(m) for m in rep.n)
    print(f"{label:>5} {rep.iters:5d} {rep.j:18.12f} {rep.eq1_res:12.3e} "
          f"{rep.bc_res:12.3e}")

print("observed orders (log2 of consecutive ratios):")
print("  energy differences:", ["%.2f" % o for o in study.j_orders])
print("  eq1 residual:      ", ["%.2f" % o for o in study.eq1_orders])
print("  flux mismatch:     ", ["%.2f" % o for o in study.bc_orders])
