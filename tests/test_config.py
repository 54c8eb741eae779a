"""Config parsing: grammar, validation, assembly into problems."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from sbpbox import Grid, write_field
from sbpbox.config import CONFIG_KEYS, RunConfig, load_config, parse_config_text
from sbpbox.optimize import OptimizerOptions
from conftest import coords

GROUND = """
# benchmark setup
domain.dim = 1
domain.lengths = 1.0
grid.n = 33
physics.kappa = 1.0
physics.p = 3.0
coupling.kind = affine
coupling.a = 0.0
coupling.b = 1.0
boundary.h2.x1 = 0.5
run.mode = ground
"""


def test_parse_and_defaults():
    cfg = parse_config_text(GROUND)
    assert cfg.mode == "ground"
    assert cfg.get("grid.n") == (33,)
    assert cfg.get("physics.kappa") == 1.0
    # Unset keys fall back to the table defaults.
    assert cfg.get("optimizer.grad_tol") == CONFIG_KEYS["optimizer.grad_tol"][1]
    assert cfg.get("output.dir") == "out"
    grid = cfg.grid()
    assert grid == Grid(lengths=(1.0,), n=(33,))


def test_optimizer_defaults_are_the_options_defaults():
    """The config table takes its optimizer defaults from ``OptimizerOptions``."""
    assert RunConfig().optimizer_options() == OptimizerOptions()


def test_every_optimizer_option_is_set_by_its_config_key():
    """Each field of ``OptimizerOptions`` has the key ``optimizer.<field>``,
    and ``optimizer_options`` passes its value on: no option is left that
    a run cannot set, and no optimizer key sets nothing."""
    fields = dataclasses.fields(OptimizerOptions)
    assert {f"optimizer.{f.name}" for f in fields} == {
        key for key in CONFIG_KEYS if key.startswith("optimizer.")}
    cfg = parse_config_text(GROUND + "".join(
        f"optimizer.{f.name} = {2 * f.default + 1}\n" for f in fields))
    opts = cfg.optimizer_options()
    for f in fields:
        assert getattr(opts, f.name) == 2 * f.default + 1


# A typo, the optimizer settings that are module constants, and the seed,
# which only the command line's --seed sets.
@pytest.mark.parametrize("key", ["gridd.n", "run.seed", "optimizer.metric",
                                 "optimizer.initial_step", "optimizer.dedupe_l2",
                                 "optimizer.dedupe_j",
                                 "optimizer.samples_per_family"])
def test_parse_rejects_unknown_key(key):
    with pytest.raises(ValueError) as info:
        parse_config_text(GROUND + f"{key} = 1\n")
    assert key in str(info.value)


def test_readme_config_table_lists_every_key():
    """The README config table documents exactly the keys of CONFIG_KEYS,
    besides the ``coupling.<param>`` and ``boundary.*.<face>`` pattern rows."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Config format", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `([^`]+)`", section, flags=re.MULTILINE)
    assert {key for key in rows if "<" not in key} == set(CONFIG_KEYS)


def test_parse_rejects_duplicates_and_junk():
    for text in ("grid.n = 33\ngrid.n = 65\n", "coupling.b = 1\ncoupling.b = 2\n",
                 "boundary.h2.x1 = 0.5\nboundary.h2.x1 = 0.25\n"):
        with pytest.raises(ValueError, match=r":2: duplicate key"):
            parse_config_text(text)
    with pytest.raises(ValueError, match="expected key = value"):
        parse_config_text("just some words\n")
    with pytest.raises(ValueError, match="has empty value"):
        parse_config_text("grid.n =\n")
    with pytest.raises(ValueError, match="cannot parse 'lots' as ints"):
        parse_config_text("grid.n = lots\n")
    with pytest.raises(ValueError, match="unknown coupling parameter"):
        parse_config_text("coupling.sharpness = 2\n")
    with pytest.raises(ValueError, match="unknown face"):
        parse_config_text("boundary.h1.w0 = 1\n")


@pytest.mark.parametrize("mode", ["polish", "verify", "refine", "oracle"])
def test_parse_rejects_unknown_mode(mode):
    cfg = parse_config_text(GROUND.replace("run.mode = ground", f"run.mode = {mode}"))
    with pytest.raises(ValueError, match="unknown mode"):
        cfg.mode


def test_missing_required_key():
    cfg = parse_config_text("domain.dim = 1\n")
    with pytest.raises(ValueError) as info:
        cfg.get("grid.n")
    assert "grid.n" in str(info.value)


def test_scalar_broadcast_to_dimension():
    cfg = parse_config_text(
        "domain.dim = 2\ndomain.lengths = 2.0\ngrid.n = 17\n"
        "coupling.kind = affine\ncoupling.a = 1.0\ncoupling.b = 0.5\n")
    grid = cfg.grid()
    assert grid.lengths == (2.0, 2.0)
    assert grid.shape == (17, 17)
    mismatched = parse_config_text(
        "domain.dim = 2\ndomain.lengths = 1.0,2.0,3.0\ngrid.n = 17\n"
        "coupling.kind = affine\n")
    with pytest.raises(ValueError, match="must have 2 entries"):
        mismatched.grid()


def test_boundary_faces(tmp_path):
    cfg = parse_config_text(GROUND)
    grid = cfg.grid()
    h2 = cfg.boundary_data("h2", grid)
    assert float(h2.face(0, 1)) == 0.5
    assert float(h2.face(0, 0)) == 0.0

    # Per-face tabulated values; the node count must match the face.
    g2 = Grid(lengths=(1.0, 1.0), n=(9, 9))
    path = tmp_path / "face.csv"
    np.savetxt(path, np.linspace(0.0, 1.0, 9))
    cfg2 = parse_config_text(
        "domain.dim = 2\ngrid.n = 9\ncoupling.kind = affine\n"
        f"boundary.h1.x0 = file:{path}\n")
    h1 = cfg2.boundary_data("h1", g2)
    assert np.allclose(h1.face(0, 0), np.linspace(0.0, 1.0, 9))

    np.savetxt(path, np.linspace(0.0, 1.0, 7))
    with pytest.raises(ValueError, match="has 7 values, face needs 9"):
        cfg2.boundary_data("h1", g2)

    # Faces outside the dimension are rejected even when syntactically valid.
    cfg3 = parse_config_text(
        "domain.dim = 1\ngrid.n = 9\ncoupling.kind = affine\n"
        "boundary.h1.y0 = 1.0\n")
    with pytest.raises(ValueError, match="no such face in 1d"):
        cfg3.boundary_data("h1", Grid(lengths=(1.0,), n=(9,)))


def test_coupling_assembly(tmp_path):
    cfg = parse_config_text(
        "domain.dim = 1\ngrid.n = 17\ncoupling.kind = radial_bump\n"
        "coupling.base = 0.5\ncoupling.height = 2.0\n"
        "coupling.center = 0.5\ncoupling.radius = 0.25\n")
    spec = cfg.coupling()
    assert spec.kind == "radial_bump"
    assert spec.params["center"] == (0.5,)
    q = spec.evaluate(cfg.grid())
    assert q.max() == pytest.approx(2.5)

    g = Grid(lengths=(1.0,), n=(17,))
    path = tmp_path / "q.bin"
    write_field(path, g, np.full(g.shape, 1.5) + coords(g)[0])
    cfg2 = parse_config_text(
        f"domain.dim = 1\ngrid.n = 17\ncoupling.kind = tabulated\n"
        f"coupling.file = {path}\n")
    q2 = cfg2.coupling().evaluate(g)
    assert q2[0] == pytest.approx(1.5)


def test_build_problem_from_config():
    cfg = parse_config_text(GROUND)
    prob = cfg.build_problem()
    assert prob.alpha == pytest.approx(0.5, abs=1e-12)
    assert prob.p == 3.0
    coarse = cfg.build_problem(n_override=17)
    assert coarse.grid.shape == (17,)
    opts = cfg.optimizer_options()
    assert (opts.grad_tol, opts.max_iterations) == (
        CONFIG_KEYS["optimizer.grad_tol"][1],
        CONFIG_KEYS["optimizer.max_iterations"][1])


@pytest.mark.parametrize("dim, grids", [(1, 1), (2, 2)], ids=["1d-box", "2d-folded"])
@pytest.mark.parametrize("n_override", [None, 17])
def test_build_problem_makes_each_grid_once(monkeypatch, dim, grids, n_override):
    """A build constructs its grid once, with or without ``n_override``, and
    a folded box one more grid, its sector, on which the problem lives."""
    made = []
    post_init = Grid.__post_init__

    def counting(self):
        made.append(self)
        post_init(self)

    monkeypatch.setattr(Grid, "__post_init__", counting)
    prob = parse_config_text(GROUND.replace("domain.dim = 1", f"domain.dim = {dim}")
                             ).build_problem(n_override)
    assert prob.grid.box_n == ((n_override or 33),) * dim
    assert len(made) == grids
    assert made[-1] is prob.grid
    assert made[0] == prob.grid.box


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(GROUND)
    cfg = load_config(path)
    assert cfg.source == str(path)
    assert cfg.get("grid.n") == (33,)
