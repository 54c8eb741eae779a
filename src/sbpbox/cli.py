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

``solve`` and ``refine`` run one loop over grid levels (``_levels``).
Level 0 runs the search: the ground descent from ``feasible_init``, or the
excited multi-start search.  Each later level carries every state of the
level before, interpolated onto its grid, by one ground descent on its
mirror sector.  Every state is audited against the strong form as its
level ends.  ``solve`` runs the loop over ``grid.n`` alone and ``refine``
over ``run.grids``, adding observed convergence orders over the levels;
``refinement_study`` runs it on problems built by the caller.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import time
from dataclasses import dataclass, fields
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Sequence

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
# The keys of a ``refine`` entry, besides ``n``; ``solve`` writes every key.
_REFINE_KEYS = ("index", "J", "omega", "mu", "eq1_res", "eq2_res", "bc_res",
                "norm_res", "compat_res", "iterations", "converged")
# A ground state whose minimum lies below this may change sign; it gets a
# progress line, and the exit code stays 0.
_MIN_U_FLOOR = -1e-8


def _say(quiet: bool, *parts) -> None:
    if not quiet:
        print(*parts)


def _ground_descent(problem: Problem, opts: OptimizerOptions,
                    start: np.ndarray | None = None) -> SolveResult:
    """The descent on ``mirror_sector(problem)`` from its ``feasible_init``,
    or from the box field ``start`` folded onto the sector.  The folded
    fields live as long as the descent only."""
    sector = mirror_sector(problem)
    u0 = feasible_init(sector) if start is None else sector.grid.fold(start)
    return minimize_on_M(sector, u0, opts)


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


def _audit(problem: Problem, index: int, res: SolveResult,
           dump: Path | None = None) -> tuple[ResidualReport, dict]:
    """The strong-form audit of state ``index`` and its ``report.json``
    entry; with ``dump``, its field dumps are written there.  The state
    counts as converged when the optimizer converged and both constraints
    of its own level's problem hold within the bounds of the acceptance
    tests."""
    rep = residual_original_system(problem, res.u, res.phi, res.omega, res.mu,
                                   j=res.j, iterations=res.iterations)
    if dump is not None:
        dump.mkdir(parents=True, exist_ok=True)
        write_field(dump / f"u_{index}.bin", problem.grid, res.u)
        write_field(dump / f"phi_{index}.bin", problem.grid,
                    reconstruct_phi(problem, res.phi, res.mu))
    return rep, {
        "index": index,
        "J": rep.j,
        "omega": rep.omega,
        "mu": rep.mu,
        "iterations": res.iterations,
        "converged": bool(res.converged and rep.norm_res <= 1e-10
                          and rep.compat_res <= 1e-8 * (1.0 + abs(problem.alpha))),
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


def _levels(problems: Iterable[Problem], opts: OptimizerOptions, k: int | None = None,
            dump: Path | None = None) -> tuple[list[SolveResult], list[ResidualReport], list]:
    """Descend on each level's problem in turn and ``_audit`` every state.

    Level 0 runs the search: the ground descent from ``feasible_init`` when
    ``k`` is None, else ``excited_states`` for ``k`` states.  Each later
    level carries every state of the level before: ``_interpolate`` onto
    its grid, then one ``_ground_descent`` on its sector, which retracts
    the start onto the constraint manifold.  Returns the states of all
    levels in order, their audits and their ``report.json`` entries.
    """
    results, reports, entries = [], [], []
    states = None
    for problem in problems:
        if states is not None:
            states = [_ground_descent(problem, opts, _interpolate(res.u, problem.grid.shape))
                      for res in states]
        elif k is None:
            states = [_ground_descent(problem, opts)]
        else:
            states = excited_states(problem, k, opts)
        for res in states:
            rep, entry = _audit(problem, len(results), res, dump)
            results.append(res)
            reports.append(rep)
            entries.append(entry)
    return results, reports, entries


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


def cmd_feasibility(cfg: RunConfig) -> int:
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
    """The state of each level of a ground refinement and its audit, with
    the observed orders over the levels."""

    results: tuple[SolveResult, ...]
    reports: tuple[ResidualReport, ...]

    @property
    def j_values(self) -> tuple[float, ...]:
        return tuple(rep.j for rep in self.reports)

    @property
    def j_diffs(self) -> tuple[float, ...]:
        return tuple(abs(a - b) for a, b in zip(self.j_values, self.j_values[1:]))

    @property
    def j_orders(self) -> tuple[float, ...]:
        return tuple(_orders(self.j_diffs))

    @property
    def eq1_orders(self) -> tuple[float, ...]:
        return tuple(_orders([rep.eq1_res for rep in self.reports]))

    @property
    def bc_orders(self) -> tuple[float, ...]:
        return tuple(_orders([rep.bc_res for rep in self.reports]))


def refinement_study(problem_factory: Callable[[int], Problem],
                     node_counts: Sequence[int],
                     opts: OptimizerOptions | None = None) -> RefinementStudy:
    """Solve the same continuum problem over a sequence of grids.

    The ground run of ``_levels`` over ``problem_factory(n)`` for each
    per-axis node count n, each level audited.  Observed orders are plain
    log2 ratios, so the counts should double the resolution each step.
    Each level descends on its own mirror sector; ``_interpolate`` keeps a
    mirror-invariant state exactly invariant.  Energies are compared
    through consecutive differences (no exact value is available), the
    residuals directly.
    """
    results, reports, _ = _levels(map(problem_factory, map(int, node_counts)),
                                  opts or OptimizerOptions())
    return RefinementStudy(tuple(results), tuple(reports))


def cmd_levels(cfg: RunConfig, out: Path, quiet: bool, refine: bool) -> int:
    """``solve`` runs ``_levels`` over ``grid.n`` alone and ``refine`` over
    ``run.grids``.  The progress lines follow the loop, as the first names
    the sectors of all levels."""
    t0 = time.perf_counter()
    if refine and cfg.mode != "ground":
        raise ValueError(f"key 'run.mode': refine computes ground states only, "
                         f"got {cfg.mode!r}")
    grids = cfg.get("run.grids") if refine else (None,)
    # The gate checks the first level, the one the search seeds, and its
    # problem serves that level.
    first = cfg.build_problem(grids[0])
    feasibility = classify_alpha(first)
    if feasibility.classification != "interior":
        print(feasibility.describe())
        print("alpha is not strictly inside the range of q on the interior "
              "nodes, so no seed satisfies both constraints; refusing to optimize")
        return 2
    _say(quiet, feasibility.describe())
    opts = cfg.optimizer_options()
    k = None if cfg.mode == "ground" else cfg.get("run.k")
    _say(quiet, f"refinement over node counts {list(grids)}" if refine
         else "minimizing from the tilted principal-mode start" if k is None
         else f"search for {k} states from the slab seeds of genus {k}")
    dump = out if cfg.get("output.dump_fields") and not refine else None
    results, reports, entries = _levels(
        chain([first], map(cfg.build_problem, grids[1:])), opts, k, dump)
    if not results:
        raise SbpError("no start converged; nothing to report")
    # One line naming the axes whose mirror sector the descents ran on.
    _say(quiet, "descent on " + "; ".join(
        f"the mirror sector of axes {', '.join(map(str, axes))}" if axes else "the full box"
        for axes in sorted({res.folded for res in results})))
    for i, (res, rep) in enumerate(zip(results, reports)):
        if not refine:
            _say(quiet, f"state {i}: J={rep.j:.10g} omega={rep.omega:.10g} "
                        f"mu={rep.mu:.6g} grad={res.grad_norm:.2e} "
                        f"iters={res.iterations} converged={res.converged}")
        if k is None and float(res.u.min()) < _MIN_U_FLOOR:
            _say(quiet, f"state {i}: min u = {float(res.u.min()):.3e} lies below "
                        f"{_MIN_U_FLOOR:g}; it may change sign")
    orders = None
    if refine:
        study = RefinementStudy(tuple(results), tuple(reports))
        entries = [{"n": list(rep.n), **{key: entry[key] for key in _REFINE_KEYS}}
                   for rep, entry in zip(reports, entries)]
        # Strict JSON has no nan: an order at the noise floor is written as null.
        orders = {key: [None if math.isnan(v) else v for v in getattr(study, key)]
                  for key in ("j_values", "j_diffs", "j_orders", "eq1_orders", "bc_orders")}
    out.mkdir(parents=True, exist_ok=True)
    write_summary(out / "summary.csv", reports)
    if dump is not None:
        write_field(out / "chi.bin", first.grid, first.chi)
    _write_report(out, cfg, feasibility, entries, orders)
    if not refine:
        _say(quiet, f"wrote {out}/summary.csv ({len(results)} states, "
                    f"{time.perf_counter() - t0:.1f}s)")
        return 0
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
        if args.command in ("solve", "refine"):
            return cmd_levels(cfg, out, args.quiet, args.command == "refine")
        if args.command == "feasibility":
            return cmd_feasibility(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, out, args.quiet)
        if args.command == "oracle":
            return cmd_oracle(cfg, args.seed, args.quiet)
        raise AssertionError(args.command)
    except (SbpError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
