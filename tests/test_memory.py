"""Peak memory of a run, traced with ``tracemalloc``.

Every bound is taken against the traced memory at the start of the measured
call, so the tests hold when tracing is already on (``python -X
tracemalloc``).  A field of the 25^3 box is 125,000 bytes, one of its
25 x 13 x 13 mirror sector 33,800 bytes.
"""

import tracemalloc
from contextlib import contextmanager
from pathlib import Path

from sbpbox import cli, solvers
from sbpbox.config import parse_config_text
from sbpbox.manifold import feasible_init
from sbpbox.optimize import minimize_on_M
from sbpbox.verify import residual_original_system
from conftest import box_view

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
    res = minimize_on_M(prob, feasible_init(prob))
    args = (*box_view(res), res.omega, res.mu)
    first = residual_original_system(*args)  # builds what the grid caches
    with traced_peak() as peak:
        again = residual_original_system(*args)
    assert again == first
    assert peak[0] <= 6 * args[1].nbytes


def test_ground_3d_build_holds_at_most_four_box_fields():
    """The build evaluates q on the box, folds it onto the 25 x 13 x 13
    sector, drops the box's q, and solves theta and chi on the sector with
    that sector's symbols.  Unfolding chi onto the box and keeping q there,
    it peaked near 620,000 B; on the whole box, with the box's symbols, at
    1,289 KB, above ten box fields."""
    cfg = parse_config_text(GROUND_3D)
    solvers._build_symbols.cache_clear()
    with traced_peak() as peak:
        prob = cfg.build_problem()
    assert prob.grid.mirror == (1, 2)
    assert peak[0] <= 4 * 125_000


def solve_peak(tmp_path, text):
    """The traced peak of an in-process ``sbpbox solve`` of config
    ``text``, with the symbols of its grid built afresh."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    solvers._build_symbols.cache_clear()
    with traced_peak() as peak:
        rc = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out"),
                       "--quiet"])
    assert rc == 0
    return peak[0]


def ground_3d_solve_peak(tmp_path):
    """``solve_peak`` of the ground-3d workload."""
    return solve_peak(tmp_path, GROUND_3D)


def test_ground_3d_solve_peaks_below_2000_kb(tmp_path):
    """With the audit holding its fields whole and the grid caching its
    coordinate and cell-weight fields, this run peaked near 2,600 KB."""
    assert ground_3d_solve_peak(tmp_path) <= 2000 * 1024


def test_folded_audit_holds_at_most_six_sector_fields():
    """``cli._audit`` of a folded ground-3d state: on the 25 x 13 x 13
    sector it descended on, where its u and phi live.  On the box the audit
    held about 5.2 box fields, 19 sector fields."""
    prob = parse_config_text(GROUND_3D).build_problem()
    res = minimize_on_M(prob, feasible_init(prob))
    first = cli._audit(res)  # builds what the sector grid caches
    with traced_peak() as peak:
        again = cli._audit(res)
    assert again == first and again.n == (25, 25, 25)
    assert res.u.shape == (25, 13, 13)
    assert peak[0] <= 6 * res.u.nbytes


def test_ground_3d_solve_peaks_below_1450_kb(tmp_path):
    """The audit runs on the mirror sector of the descent; on the whole box
    it set this run's peak at 1,644 KB."""
    assert ground_3d_solve_peak(tmp_path) <= 1450 * 1024


def test_ground_3d_solve_peaks_below_850_kb(tmp_path):
    """The problem lives on its mirror sector: with the box problem's q and
    chi held for the whole run this run peaked at 997 KB."""
    assert ground_3d_solve_peak(tmp_path) <= 850 * 1024


def test_ground_3d_65_solve_peaks_below_13000_kb(tmp_path):
    """The ground-3d config on the 65^3 box, whose q and chi hold 4,291 KB
    on the box: held for the whole run, they set its peak near 15,760 KB."""
    assert solve_peak(tmp_path, GROUND_3D.replace("grid.n = 25", "grid.n = 65")) \
        <= 13000 * 1024


def test_3d_excited_solve_peaks_below_2000_kb(tmp_path):
    """``demos/configs/excited.cfg`` on the 25^3 box: the three states of
    the search live on their 25 x 13 x 13 mirror sector, and only the dumps
    unfold them.  With every state unfolded onto the box at the descent's
    exit this run peaked near 2,240 KB."""
    text = (Path(__file__).resolve().parent.parent / "demos" / "configs" / "excited.cfg"
            ).read_text()
    text = text.replace("domain.dim = 1", "domain.dim = 3").replace("grid.n = 257", "grid.n = 25")
    assert solve_peak(tmp_path, text) <= 2000 * 1024
