"""Batch front end: solve, check feasibility, verify, refine, run oracles.

Exit codes: 0 on success, 2 when the compatibility value alpha is not
strictly inside the range of q on the interior nodes (the report is
printed, the optimizer never runs and nothing is written), 1 on invalid
input, I/O or solver failures and when no excited start converges, each
reported as one ``error:`` line.  ``refine`` computes
ground states only.  A ground descent that stops short of ``grad_tol``
still exits 0; its ``stop_reason`` in ``report.json`` says why.

All output files are written once, at the end of a successful run: a
``summary.csv`` table (one row per state or grid), per-state field dumps
``u_<i>.bin`` / ``phi_<i>.bin`` plus the shared ``chi.bin`` (binary float64
behind a grid header, see ``grid.write_field``), and a ``report.json`` with
the full residual and multiplier set, in strict JSON (an observed order
at the noise floor is ``null``).  An identical config produces
byte-identical outputs at a fixed BLAS thread count only: the thread count
changes the summation order of BLAS dots and products on large fields, so
ground-3d's ``eq1_res`` reads 0.043311848307765674 with
``OPENBLAS_NUM_THREADS=1`` and 0.04331184830776568 with 2.  ``--seed`` only
reaches the random test data of ``oracle``.

``refinement_study`` does the work of ``refine``: it solves on a sequence
of grids, each level starting from the previous level's state interpolated
onto the new grid, and reports observed convergence orders.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .config import RunConfig, load_config
from .errors import SbpError
from .grid import dirichlet_energy, read_field, write_field
from .manifold import feasible_init
from .optimize import (
    OptimizerOptions,
    SolveResult,
    excited_states,
    minimize_on_M,
    mirror_sector,
)
from .problem import FeasibilityReport, Problem, classify_alpha
from .reduction import phi_map
from .verify import (
    ResidualReport,
    dense_oracle_compare,
    reconstruct_phi,
    residual_original_system,
    write_summary,
)

__all__ = ["main", "RefinementStudy", "refinement_study"]

# Observed orders are nan where a value falls to this noise floor.
_ORDER_FLOOR = 1e-12
# A ground state whose minimum lies below this may change sign; it gets a
# progress line, and the exit code stays 0.
_MIN_U_FLOOR = -1e-8


def _say(quiet: bool, *parts) -> None:
    if not quiet:
        print(*parts)


def _gate_feasibility(problem: Problem, quiet: bool) -> FeasibilityReport | None:
    """Classify alpha and print the report; return it, or None after the
    refusal line when alpha fails the test."""
    report = classify_alpha(problem)
    if report.classification != "interior":
        print(report.describe())
        print("alpha is not strictly inside the range of q on the interior "
              "nodes, so no seed satisfies both constraints; refusing to optimize")
        return None
    _say(quiet, report.describe())
    return report


def _say_sector(quiet: bool, results: Sequence[SolveResult]) -> None:
    """One line naming the axes whose mirror sector the descents ran on."""
    _say(quiet, "descent on " + "; ".join(
        f"the mirror sector of axes {', '.join(map(str, axes))}" if axes else "the full box"
        for axes in sorted({res.folded for res in results})))


def _say_negative(quiet: bool, results: Sequence[SolveResult]) -> None:
    """One line per ground state whose minimum lies below ``_MIN_U_FLOOR``."""
    for i, res in enumerate(results):
        if float(res.u.min()) < _MIN_U_FLOOR:
            _say(quiet, f"state {i}: min u = {float(res.u.min()):.3e} lies below "
                        f"{_MIN_U_FLOOR:g}; it may change sign")


def _ground_descent(problem: Problem, opts: OptimizerOptions,
                    start: np.ndarray | None = None) -> SolveResult:
    """The descent on ``mirror_sector(problem)`` from its ``feasible_init``,
    or from the box field ``start`` folded onto the sector.  The folded
    fields live as long as the descent only."""
    sector = mirror_sector(problem)
    u0 = feasible_init(sector) if start is None else sector.grid.fold(start)
    return minimize_on_M(sector, u0, opts)


def _converged(problem: Problem, res: SolveResult, rep: ResidualReport) -> bool:
    """A state counts as converged when the optimizer converged and both
    constraints hold within the bounds of the acceptance tests."""
    return bool(res.converged
                and rep.norm_res <= 1e-10
                and rep.compat_res <= 1e-8 * (1.0 + abs(problem.alpha)))


def _state_entry(problem: Problem, index: int, res: SolveResult,
                 rep: ResidualReport) -> dict:
    return {
        "index": index,
        "J": rep.j,
        "omega": rep.omega,
        "mu": rep.mu,
        "iterations": res.iterations,
        "converged": _converged(problem, res, rep),
        "optimizer_converged": res.converged,
        "stop_reason": res.stop_reason,
        "grad_norm": res.grad_norm,
        "eq1_res": rep.eq1_res,
        "eq1_res_native": rep.eq1_res_native,
        "eq2_res": rep.eq2_res,
        "bc_res": rep.bc_res,
        "bc_res_second": rep.bc_res_second,
        "norm_res": rep.norm_res,
        "compat_res": rep.compat_res,
        "dirichlet_energy": 0.5 * dirichlet_energy(problem.grid, res.u),
        "min_u": float(res.u.min()),
    }


def _write_report(out: Path, cfg: RunConfig, feasibility: FeasibilityReport,
                  entries: list[dict], extra: dict | None = None) -> None:
    payload = {
        "alpha": feasibility.alpha,
        "feasibility": {
            "classification": feasibility.classification,
            "q_min": feasibility.q_min,
            "q_max": feasibility.q_max,
        },
        "config": cfg.values,
        "coupling_params": cfg.coupling_params,
        "mode": cfg.mode,
        "states": entries,
    }
    if extra:
        payload.update(extra)
    with open(out / "report.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _dump_state_fields(out: Path, problem: Problem, index: int,
                       res: SolveResult) -> None:
    write_field(out / f"u_{index}.bin", problem.grid, res.u)
    phi_full = reconstruct_phi(problem, res.phi, res.mu)
    write_field(out / f"phi_{index}.bin", problem.grid, phi_full)


def cmd_solve(cfg: RunConfig, out: Path, quiet: bool) -> int:
    t0 = time.perf_counter()
    problem = cfg.build_problem()
    feasibility = _gate_feasibility(problem, quiet)
    if feasibility is None:
        return 2
    opts = cfg.optimizer_options()
    if cfg.mode == "ground":
        _say(quiet, "minimizing from the tilted principal-mode start")
        states = [_ground_descent(problem, opts)]
        _say_negative(quiet, states)
    else:
        k = cfg.get("run.k")
        _say(quiet, f"search for {k} states from the slab seeds of genus {k}")
        states = excited_states(problem, k, opts)
        if not states:
            raise SbpError("no start converged; nothing to report")
    _say_sector(quiet, states)

    out.mkdir(parents=True, exist_ok=True)
    reports = []
    entries = []
    for i, res in enumerate(states):
        rep = residual_original_system(
            problem, res.u, res.phi, res.omega, res.mu,
            j=res.j, iterations=res.iterations)
        reports.append(rep)
        entries.append(_state_entry(problem, i, res, rep))
        if cfg.get("output.dump_fields"):
            _dump_state_fields(out, problem, i, res)
        _say(quiet,
             f"state {i}: J={rep.j:.10g} omega={rep.omega:.10g} "
             f"mu={rep.mu:.6g} grad={res.grad_norm:.2e} "
             f"iters={res.iterations} converged={res.converged}")
    write_summary(out / "summary.csv", reports)
    if cfg.get("output.dump_fields"):
        write_field(out / "chi.bin", problem.grid, problem.chi)
    _write_report(out, cfg, feasibility, entries)
    _say(quiet, f"wrote {out}/summary.csv ({len(states)} states, "
                f"{time.perf_counter() - t0:.1f}s)")
    return 0


def cmd_feasibility(cfg: RunConfig, quiet: bool) -> int:
    # ``solve`` gates ``grid.n`` and ``refine`` the first of ``run.grids``,
    # checked when the config sets that key; one line per distinct grid.
    grid, levels = cfg.grid(), [None]
    if "run.grids" in cfg.values and (cfg.get("run.grids")[0],) * grid.dim != grid.n:
        levels.append(cfg.get("run.grids")[0])
    reports = []
    for n in levels:
        problem = cfg.build_problem(n)
        reports.append(classify_alpha(problem))
        print(f"{'x'.join(map(str, problem.grid.n))} nodes: {reports[-1].describe()}")
    return 0 if all(r.classification == "interior" for r in reports) else 2


def cmd_verify(cfg: RunConfig, out: Path, quiet: bool) -> int:
    report_path = out / "report.json"
    if not report_path.exists():
        raise SbpError(f"no report.json under {out}; run solve first")
    with open(report_path) as fh:
        prior = json.load(fh)
    problem = cfg.build_problem()
    reports = []
    for entry in prior["states"]:
        i = entry["index"]
        grid_read, u = read_field(out / f"u_{i}.bin")
        if grid_read != problem.grid:
            raise SbpError(f"{out / f'u_{i}.bin'} grid does not match the config grid")
        rep = residual_original_system(
            problem, u, phi_map(problem, u), entry["omega"], entry["mu"],
            iterations=entry.get("iterations", 0))
        reports.append(rep)
        _say(quiet,
             f"state {i}: eq1={rep.eq1_res:.3e} eq2={rep.eq2_res:.3e} "
             f"bc={rep.bc_res:.3e} norm={rep.norm_res:.3e} "
             f"compat={rep.compat_res:.3e}")
    write_summary(out / "residuals.csv", reports)
    _say(quiet, f"wrote {out}/residuals.csv")
    return 0


def _orders(values: Sequence[float]) -> list[float]:
    """log2 ratios of consecutive entries; nan at or below ``_ORDER_FLOOR``."""
    out = []
    for a, b in zip(values, values[1:]):
        if a <= _ORDER_FLOOR or b <= _ORDER_FLOOR:
            out.append(float("nan"))
        else:
            out.append(float(np.log2(a / b)))
    return out


@dataclass(frozen=True)
class RefinementStudy:
    reports: tuple[ResidualReport, ...]
    results: tuple[SolveResult, ...]
    j_values: tuple[float, ...]
    j_diffs: tuple[float, ...]
    j_orders: tuple[float, ...]
    eq1_orders: tuple[float, ...]
    bc_orders: tuple[float, ...]


def _interpolate(u: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Multilinear interpolation of a nodal field onto the same box with
    ``shape`` nodes, one axis at a time.

    Node j of an axis with m nodes sits at t = j (n - 1) / (m - 1) in the
    index units of the n source nodes.  On nested grids (m = 2(n - 1) + 1)
    t is exact, so shared nodes are copied and midpoints are the average of
    their two neighbours; boundary values are copied.
    """
    for axis, m in enumerate(shape):
        n = u.shape[axis]
        t = np.arange(m) * (n - 1) / (m - 1)
        i = np.minimum(t.astype(int), n - 2)
        w = (t - i).reshape((m,) + (1,) * (u.ndim - axis - 1))
        u = (1.0 - w) * np.take(u, i, axis) + w * np.take(u, i + 1, axis)
    return u


def refinement_study(problem_factory: Callable[[int], Problem],
                     node_counts: Sequence[int],
                     opts: OptimizerOptions | None = None) -> RefinementStudy:
    """Solve the same continuum problem over a sequence of grids.

    ``problem_factory`` maps a per-axis node count to a Problem.  The first
    level starts from ``feasible_init``; each later level starts from the
    previous level's state interpolated onto its grid (``_interpolate``),
    which the descent retracts onto the constraint manifold.  Observed
    orders are reported as plain log2 ratios, so the counts should double
    the resolution each step.  Each level descends on its own mirror sector
    (``_ground_descent``); ``_interpolate`` keeps a mirror-invariant state
    exactly invariant.  Energies are compared through consecutive
    differences (no exact value is available), the residuals directly.
    """
    opts = opts or OptimizerOptions()
    reports: list[ResidualReport] = []
    results: list[SolveResult] = []
    for n in node_counts:
        prob = problem_factory(int(n))
        res = _ground_descent(
            prob, opts, _interpolate(results[-1].u, prob.grid.shape) if results else None)
        reports.append(residual_original_system(
            prob, res.u, res.phi, res.omega, res.mu,
            j=res.j, iterations=res.iterations))
        results.append(res)
    j_values = [rep.j for rep in reports]
    j_diffs = [abs(a - b) for a, b in zip(j_values, j_values[1:])]
    return RefinementStudy(
        reports=tuple(reports),
        results=tuple(results),
        j_values=tuple(j_values),
        j_diffs=tuple(j_diffs),
        j_orders=tuple(_orders(j_diffs)),
        eq1_orders=tuple(_orders([rep.eq1_res for rep in reports])),
        bc_orders=tuple(_orders([rep.bc_res for rep in reports])),
    )


def cmd_refine(cfg: RunConfig, out: Path, quiet: bool) -> int:
    if cfg.mode != "ground":
        raise ValueError(f"key 'run.mode': refine computes ground states only, "
                         f"got {cfg.mode!r}")
    grids = cfg.get("run.grids")
    # The gate checks the first level, the one ``feasible_init`` seeds, and
    # its problem serves that level.
    first = cfg.build_problem(grids[0])
    feasibility = _gate_feasibility(first, quiet)
    if feasibility is None:
        return 2
    opts = cfg.optimizer_options()
    _say(quiet, f"refinement over node counts {list(grids)}")
    study = refinement_study(
        lambda n: first if n == grids[0] else cfg.build_problem(n), grids, opts)
    _say_sector(quiet, study.results)
    _say_negative(quiet, study.results)
    out.mkdir(parents=True, exist_ok=True)
    write_summary(out / "summary.csv", study.reports)
    entries = []
    for i, (res, rep) in enumerate(zip(study.results, study.reports)):
        values = {k: getattr(rep, k) for k in ("omega", "mu", "eq1_res", "eq2_res",
                                               "bc_res", "norm_res", "compat_res")}
        entries.append({"index": i, "n": list(rep.n), "J": rep.j, **values,
                        "iterations": res.iterations,
                        "converged": _converged(first, res, rep)})
    # Strict JSON has no nan: an order at the noise floor is written as null.
    extra = {k: [None if math.isnan(v) else v for v in getattr(study, k)]
             for k in ("j_values", "j_diffs", "j_orders", "eq1_orders", "bc_orders")}
    _write_report(out, cfg, feasibility, entries, extra=extra)
    _say(quiet, f"observed eq1 orders: {['%.2f' % o for o in study.eq1_orders]}")
    _say(quiet, f"observed J orders:   {['%.2f' % o for o in study.j_orders]}")
    _say(quiet, f"wrote {out}/summary.csv")
    return 0


def cmd_oracle(cfg: RunConfig, seed: int, quiet: bool) -> int:
    problem = cfg.build_problem()
    rep = dense_oracle_compare(problem, seed=seed)
    for f in fields(rep):
        _say(quiet, f"{f.name:18s} {getattr(rep, f.name):.3e}")
    ok = rep.max_discrepancy() <= 1e-9 and rep.nullspace_sigma <= 1e-12
    print("oracle agreement OK" if ok else "ORACLE MISMATCH")
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbpbox",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("command",
                        choices=("solve", "feasibility", "verify", "refine", "oracle"))
    parser.add_argument("--config", required=True, help="path to key=value config")
    parser.add_argument("--out", default=None, help="output directory (default: output.dir)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the oracle's random test data (default 0)")
    parser.add_argument("--quiet", action="store_true", help="suppress progress lines")
    return parser


def main(argv=None) -> int:
    # Frozen, the objects made before the run are not scanned again by a
    # collection inside it.
    gc.freeze()
    try:
        return _run(argv)
    finally:
        gc.unfreeze()


def _run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return 1 if exc.code else 0
    try:
        cfg = load_config(args.config)
        out = Path(args.out) if args.out else Path(cfg.get("output.dir"))
        if args.command == "solve":
            return cmd_solve(cfg, out, args.quiet)
        if args.command == "feasibility":
            return cmd_feasibility(cfg, args.quiet)
        if args.command == "verify":
            return cmd_verify(cfg, out, args.quiet)
        if args.command == "refine":
            return cmd_refine(cfg, out, args.quiet)
        if args.command == "oracle":
            return cmd_oracle(cfg, args.seed, args.quiet)
        raise AssertionError(args.command)
    except (SbpError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
