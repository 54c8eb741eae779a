"""Peak memory of a run, traced with ``tracemalloc``.

Every bound is taken against the traced memory at the start of the measured
call, so the tests hold when tracing is already on (``python -X
tracemalloc``).  A field of the 25^3 box is 125,000 bytes.
"""

import tracemalloc
from contextlib import contextmanager

import pytest

from sbpbox import cli, config, solvers
from sbpbox.config import parse_config_text
from sbpbox.manifold import feasible_init
from sbpbox.optimize import minimize_on_M, mirror_sector
from sbpbox.verify import residual_original_system

# ``WORKLOADS["ground-3d"].config`` of perfbench/run.py.
GROUND_3D = """\
domain.dim = 3
grid.n = 25
physics.kappa = 1.0
physics.p = 3.0
coupling.kind = affine
coupling.a = 0.0
coupling.b = 1.0
boundary.h2.x1 = 0.5
run.mode = ground
output.dump_fields = true
"""


@contextmanager
def traced_peak():
    """Yields a list that receives the traced peak, in bytes, above the
    traced memory at entry."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    peak = []
    try:
        yield peak
    finally:
        peak.append(tracemalloc.get_traced_memory()[1] - base)
        if started:
            tracemalloc.stop()


def test_audit_holds_at_most_six_fields_above_its_inputs():
    """Every residual field is reduced to its norm and freed before the
    next is formed; with every field held whole to the end the audit took
    about 10 fields."""
    prob = parse_config_text(GROUND_3D).build_problem()
    sector = mirror_sector(prob)
    res = minimize_on_M(sector, feasible_init(sector))
    args = (prob, res.u, res.phi, res.omega, res.mu)
    first = residual_original_system(*args)  # builds what the grid caches
    with traced_peak() as peak:
        again = residual_original_system(*args)
    assert again == first
    assert peak[0] <= 6 * res.u.nbytes


def test_ground_3d_build_holds_at_most_six_fields():
    """The build solves theta and chi on the 25 x 13 x 13 sector with that
    sector's symbols, and unfolds chi onto the box; on the whole box, with
    the box's symbols, it peaked at 1,289 KB, above ten fields."""
    cfg = parse_config_text(GROUND_3D)
    solvers._build_symbols.cache_clear()
    with traced_peak() as peak:
        prob = cfg.build_problem()
    assert prob.sector.mirror == (1, 2)
    assert peak[0] <= 6 * prob.q.nbytes


@pytest.fixture(scope="module")
def ground_3d_run(tmp_path_factory):
    """The traced peak of an in-process ``sbpbox solve`` of the ground-3d
    workload, with the symbols of its grid built afresh, and its problems."""
    tmp = tmp_path_factory.mktemp("ground3d")
    cfg = tmp / "ground.cfg"
    cfg.write_text(GROUND_3D)
    problems = []

    def build_problem(*args, **kwargs):
        problems.append(build(*args, **kwargs))
        return problems[-1]

    build = config.build_problem
    solvers._build_symbols.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(config, "build_problem", build_problem)
        with traced_peak() as peak:
            rc = cli.main(["solve", "--config", str(cfg), "--out", str(tmp / "out"),
                           "--quiet"])
    assert rc == 0
    return peak[0], problems


def test_ground_3d_solve_peaks_below_2000_kb(ground_3d_run):
    """With the audit holding its fields whole and the grid caching its
    coordinate and cell-weight fields, this run peaked near 2,600 KB."""
    peak, _ = ground_3d_run
    assert peak <= 2000 * 1024


def test_ground_3d_solve_builds_no_coordinate_fields(ground_3d_run):
    _, problems = ground_3d_run
    assert len(problems) == 1
    assert "coords" not in vars(problems[0].grid)
