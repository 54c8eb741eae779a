"""End-to-end runs of the command line front end, in process through
``cli.main``; one test runs the ``python -m sbpbox`` entry point in a
subprocess."""

import csv
import gc
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from sbpbox import cli

DEMO_CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"

GROUND_CFG = """
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

EXCITED_CFG = """
domain.dim = 1
grid.n = 65
physics.kappa = 20.0
physics.p = 3.0
coupling.kind = oscillating
coupling.base = 1.0
coupling.amplitude = 0.9
coupling.cycles = 3
coupling.tilt = 0.1
boundary.h2.x1 = 0.35
run.mode = excited
run.k = 2
optimizer.max_iterations = 8000
"""

# The ground-3d workload of perfbench/run.py, which folds axes 1 and 2.
GROUND_3D_CFG = """
domain.dim = 3
grid.n = 25
physics.kappa = 1.0
physics.p = 3.0
coupling.kind = affine
coupling.a = 0.0
coupling.b = 1.0
boundary.h2.x1 = 0.5
run.mode = ground
"""

INFEASIBLE_CFG = GROUND_CFG.replace("boundary.h2.x1 = 0.5",
                                    "boundary.h2.x1 = 1.5")

CONSTANT_Q_CFG = """
domain.dim = 1
grid.n = 33
coupling.kind = affine
coupling.a = 2.0
coupling.b = 0.0
boundary.h2.x1 = 2.0
run.mode = ground
"""


def run_cli(*args):
    """``sbpbox *args`` in process: the exit code of ``cli.main`` and what it
    printed, as ``subprocess.run`` returns them."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(args))
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture(scope="module")
def solved_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("solve")
    cfg = write_cfg(tmp, GROUND_CFG)
    out = tmp / "out"
    proc = run_cli("solve", "--config", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return cfg, out, proc


def test_solve_ground_artifacts(solved_dir):
    cfg, out, proc = solved_dir
    for name in ("summary.csv", "u_0.bin", "phi_0.bin", "chi.bin",
                 "report.json"):
        assert (out / name).exists(), name
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["n"] == "33"
    assert float(rows[0]["norm_res"]) <= 1e-10
    report = json.loads((out / "report.json").read_text())
    assert report["feasibility"]["classification"] == "interior"
    state = report["states"][0]
    assert state["converged"] is True
    assert state["min_u"] >= -1e-8
    assert "minimizing" in proc.stdout


def test_entry_point_exit_codes(tmp_path, solved_dir):
    """``python -m sbpbox`` in a fresh process exits 0 on a solve and writes
    the bytes of the in-process solve, exits 2 on infeasible alpha, and
    exits 1 on a usage error."""
    def run(*args):
        return subprocess.run([sys.executable, "-m", "sbpbox", *args],
                              capture_output=True, text=True, timeout=600)

    cfg, out, _ = solved_dir
    fresh = tmp_path / "fresh"
    proc = run("solve", "--config", cfg, "--out", str(fresh))
    assert proc.returncode == 0, proc.stderr
    assert "minimizing" in proc.stdout
    for name in ("summary.csv", "u_0.bin", "phi_0.bin", "chi.bin", "report.json"):
        assert (fresh / name).read_bytes() == (out / name).read_bytes(), name
    proc = run("feasibility", "--config", write_cfg(tmp_path, INFEASIBLE_CFG, "bad.cfg"))
    assert proc.returncode == 2
    assert "infeasible" in proc.stdout
    proc = run("solve")
    assert proc.returncode == 1
    assert "usage: sbpbox" in proc.stderr


def test_solve_deterministic_outputs(tmp_path, solved_dir):
    cfg, out, _ = solved_dir
    rerun = tmp_path / "again"
    proc = run_cli("solve", "--config", cfg, "--out", str(rerun))
    assert proc.returncode == 0, proc.stderr
    for name in ("summary.csv", "u_0.bin", "phi_0.bin", "chi.bin",
                 "report.json"):
        assert (rerun / name).read_bytes() == (out / name).read_bytes(), name


def test_main_freezes_the_objects_made_before_the_run(tmp_path, solved_dir, monkeypatch):
    """``cli.main`` runs between ``gc.freeze`` and ``gc.unfreeze``, so a
    collection inside the run scans only the run's objects; nothing stays
    frozen after it, on success or on a usage error, and the outputs are
    those of a run without the freeze, byte for byte."""
    cfg, _, _ = solved_dir
    frozen = []
    load = cli.load_config
    monkeypatch.setattr(cli, "load_config",
                        lambda path: frozen.append(gc.get_freeze_count()) or load(path))
    assert run_cli("solve", "--config", cfg, "--out", str(tmp_path / "frozen")).returncode == 0
    assert frozen[0] > 0 and gc.get_freeze_count() == 0
    assert run_cli("solve").returncode == 1 and gc.get_freeze_count() == 0
    monkeypatch.setattr(gc, "freeze", lambda: None)
    assert run_cli("solve", "--config", cfg, "--out", str(tmp_path / "thawed")).returncode == 0
    for name in ("summary.csv", "u_0.bin", "phi_0.bin", "chi.bin", "report.json"):
        assert ((tmp_path / "frozen" / name).read_bytes()
                == (tmp_path / "thawed" / name).read_bytes()), name


def test_folded_3d_solve_agrees_across_blas_thread_counts(tmp_path):
    """A folded 3d ground solve in fresh processes with one and with two
    BLAS and OpenMP threads: the same iterations, and J within 1e-12
    relative."""
    cfg = write_cfg(tmp_path, GROUND_3D_CFG)
    states = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "sbpbox", "solve", "--config", cfg,
                               "--out", str(out), "--quiet"],
                              capture_output=True, text=True, timeout=600, env=env)
        assert proc.returncode == 0, proc.stderr
        states.append(json.loads((out / "report.json").read_text())["states"][0])
    one, two = states
    assert one["iterations"] == two["iterations"]
    assert two["J"] == pytest.approx(one["J"], rel=1e-12, abs=0.0)


def test_solve_quiet_suppresses_progress(tmp_path):
    cfg = write_cfg(tmp_path, GROUND_CFG)
    proc = run_cli("solve", "--config", cfg, "--out",
                   str(tmp_path / "o"), "--quiet")
    assert proc.returncode == 0
    assert proc.stdout.strip() == ""


def test_verify_recomputes_residuals(solved_dir):
    cfg, out, _ = solved_dir
    proc = run_cli("verify", "--config", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    with open(out / "residuals.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert float(rows[0]["eq2_res"]) <= 1e-6


def test_verify_rejects_other_grid(tmp_path, solved_dir):
    """verify on an n = 33 solve with an n = 17 config exits 1 and names
    the dump whose grid disagrees."""
    _, out, _ = solved_dir
    cfg = write_cfg(tmp_path, GROUND_CFG.replace("grid.n = 33", "grid.n = 17"))
    proc = run_cli("verify", "--config", cfg, "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "u_0.bin" in proc.stderr


def test_verify_needs_prior_solve(tmp_path):
    cfg = write_cfg(tmp_path, GROUND_CFG)
    proc = run_cli("verify", "--config", cfg, "--out", str(tmp_path / "none"))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "report.json" in proc.stderr


def test_feasibility_exit_codes(tmp_path):
    ok = write_cfg(tmp_path, GROUND_CFG, "ok.cfg")
    assert run_cli("feasibility", "--config", ok).returncode == 0
    bad = write_cfg(tmp_path, INFEASIBLE_CFG, "bad.cfg")
    proc = run_cli("feasibility", "--config", bad)
    assert proc.returncode == 2


def test_solve_refuses_infeasible_alpha(tmp_path):
    cfg = write_cfg(tmp_path, INFEASIBLE_CFG)
    out = tmp_path / "out"
    proc = run_cli("solve", "--config", cfg, "--out", str(out))
    assert proc.returncode == 2
    assert "refusing to optimize" in proc.stdout
    assert not (out / "summary.csv").exists()


@pytest.mark.parametrize("n, alpha", [(65, 0.99), (129, 1.0)])
def test_solve_refuses_alpha_outside_the_interior_range(tmp_path, capsys, n, alpha):
    """q = x brackets alpha on the interior nodes h .. 1 - h only: at
    alpha = 0.99 with n = 65, and at alpha = 1 with n = 129, ``feasibility``
    and ``solve`` exit 2, and ``solve`` writes nothing."""
    cfg = write_cfg(tmp_path, GROUND_CFG.replace("grid.n = 33", f"grid.n = {n}")
                    .replace("boundary.h2.x1 = 0.5", f"boundary.h2.x1 = {alpha}"))
    out = tmp_path / "out"
    assert cli.main(["feasibility", "--config", cfg]) == 2
    assert "infeasible" in capsys.readouterr().out
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert "refusing to optimize" in capsys.readouterr().out
    assert not out.exists()


def test_refine_gates_its_first_grid(tmp_path, capsys):
    """alpha = 0.96 lies inside the interior range of q = x at grid.n = 65
    but not at 17 nodes, the first of ``run.grids``: feasibility checks
    both grids and exits 2, and refine exits 2 before any solve and writes
    nothing."""
    cfg = write_cfg(tmp_path, GROUND_CFG.replace("grid.n = 33", "grid.n = 65")
                    .replace("boundary.h2.x1 = 0.5", "boundary.h2.x1 = 0.96")
                    + "run.grids = 17,33\n")
    out = tmp_path / "out"
    assert cli.main(["feasibility", "--config", cfg, "--quiet"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("65 nodes: ") and lines[0].endswith(": interior")
    assert lines[1].startswith("17 nodes: ") and lines[1].endswith(": infeasible")
    assert cli.main(["refine", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert "refusing to optimize" in capsys.readouterr().out
    assert not out.exists()


def test_solve_refuses_constant_coupling(tmp_path):
    cfg = write_cfg(tmp_path, CONSTANT_Q_CFG)
    out = tmp_path / "out"
    proc = run_cli("solve", "--config", cfg, "--out", str(out))
    assert proc.returncode == 2
    assert not (out / "summary.csv").exists()


def test_excited_mode_two_states(tmp_path):
    cfg = write_cfg(tmp_path, EXCITED_CFG)
    out = tmp_path / "out"
    proc = run_cli("solve", "--config", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    report = json.loads((out / "report.json").read_text())
    js = [s["J"] for s in report["states"]]
    des = [s["dirichlet_energy"] for s in report["states"]]
    assert len(js) == 2
    assert js[0] < js[1]
    assert des[0] < des[1]
    assert (out / "u_1.bin").exists()


def test_excited_cfg_in_2d_finds_two_audited_states(tmp_path):
    """``excited.cfg`` on the 33^2 square: the genus-2 slab seeds exist, so
    the search finds both wells' states, each converged and passing the
    residual audit."""
    text = (DEMO_CONFIGS / "excited.cfg").read_text()
    text = text.replace("domain.dim = 1", "domain.dim = 2").replace("grid.n = 257", "grid.n = 33")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    proc = run_cli("solve", "--config", cfg, "--out", str(out), "--quiet")
    assert proc.returncode == 0, proc.stderr
    states = json.loads((out / "report.json").read_text())["states"]
    assert len(states) == 2
    assert all(s["converged"] for s in states)
    assert states[0]["J"] < states[1]["J"]


def test_refine_reports_orders(tmp_path):
    cfg = write_cfg(tmp_path, GROUND_CFG + "run.grids = 17,33,65\n")
    out = tmp_path / "out"
    proc = run_cli("refine", "--config", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    report = json.loads((out / "report.json").read_text())
    assert len(report["j_values"]) == 3
    assert len(report["eq1_orders"]) == 2
    assert all(o >= 1.5 for o in report["eq1_orders"])
    assert "eq1 orders" in proc.stdout
    with open(out / "summary.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 3


def test_refine_report_is_strict_json(tmp_path):
    """Three equal grids give equal energies, so the J order sits at the
    noise floor: report.json writes it as null, never as NaN."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    cfg = write_cfg(tmp_path, GROUND_CFG + "run.grids = 33,33,33\n")
    out = tmp_path / "out"
    assert cli.main(["refine", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text(), parse_constant=reject)
    assert report["j_orders"] == [None]


def test_refine_report_iterations_and_one_build_per_grid(tmp_path, monkeypatch):
    """Each refine entry carries its descent's iterations, which match the
    ``iters`` column; the gate checks the first level and its problem serves
    that level, so every grid is built once, ``grid.n`` never; the first level starts from ``feasible_init``
    and each later one from the previous level's state, interpolated; a
    rerun writes the same bytes."""
    from sbpbox.config import RunConfig
    from sbpbox.manifold import feasible_init

    built = []
    build = RunConfig.build_problem

    def counting_build(self, n_override=None):
        built.append(n_override)
        return build(self, n_override)

    starts, states = [], []
    minimize = cli.minimize_on_M

    def spying_minimize(problem, u0, opts):
        starts.append((problem, u0))
        states.append(minimize(problem, u0, opts))
        return states[-1]

    monkeypatch.setattr(RunConfig, "build_problem", counting_build)
    monkeypatch.setattr(cli, "minimize_on_M", spying_minimize)
    cfg = write_cfg(tmp_path, GROUND_CFG + "run.grids = 17,33,65\n")
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert cli.main(["refine", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert built == [17, 33, 65] * 2
    report = json.loads((outs[0] / "report.json").read_text())
    with open(outs[0] / "summary.csv", newline="") as fh:
        iters = [int(row["iters"]) for row in csv.DictReader(fh)]
    assert [s["iterations"] for s in report["states"]] == iters
    assert len(starts) == len(states) == 6
    for i, (problem, u0) in enumerate(starts):
        expected = (feasible_init(problem) if i % 3 == 0
                    else problem.grid.fold(
                        cli._interpolate(states[i - 1].u, problem.grid.box_n)))
        assert np.array_equal(u0, expected), i
    for name in ("report.json", "summary.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.mark.parametrize("dim, n", [(1, 33), (2, 17)], ids=["1d", "2d-folded"])
def test_one_level_refine_is_the_solve(tmp_path, dim, n):
    """``solve`` at ``grid.n = n`` and ``refine`` over the one level n run the
    same level loop, so they write the same state bit for bit."""
    text = GROUND_CFG.replace("domain.dim = 1", f"domain.dim = {dim}").replace(
        "grid.n = 33", f"grid.n = {n}")
    states = []
    for command, extra in (("solve", ""), ("refine", f"run.grids = {n}\n")):
        out = tmp_path / command
        cfg = write_cfg(tmp_path, text + extra)
        assert cli.main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 0
        states += json.loads((out / "report.json").read_text())["states"]
    solved, refined = states
    assert refined["n"] == [n] * dim
    for key in ("J", "omega", "mu", "iterations", "eq1_res"):
        assert solved[key] == refined[key], key


REPORT_KEYS = {"alpha", "config", "coupling_params", "feasibility", "mode", "states"}
ORDER_KEYS = {"j_values", "j_diffs", "j_orders", "eq1_orders", "bc_orders"}
REFINE_STATE_KEYS = {"index", "n", "J", "omega", "mu", "eq1_res", "eq2_res", "bc_res",
                     "norm_res", "compat_res", "iterations", "converged"}
SOLVE_STATE_KEYS = REFINE_STATE_KEYS - {"n"} | {
    "optimizer_converged", "stop_reason", "grad_norm", "eq1_res_native",
    "bc_res_second", "dirichlet_energy", "min_u"}


@pytest.mark.parametrize("command, text, report_keys, state_keys, count", [
    ("solve", GROUND_CFG, REPORT_KEYS, SOLVE_STATE_KEYS, 1),
    ("solve", EXCITED_CFG, REPORT_KEYS, SOLVE_STATE_KEYS, 2),
    ("refine", GROUND_CFG + "run.grids = 17,33\n", REPORT_KEYS | ORDER_KEYS,
     REFINE_STATE_KEYS, 2),
], ids=["ground-solve", "excited-solve", "refine"])
def test_report_keys_and_output_files(tmp_path, command, text, report_keys, state_keys,
                                      count):
    """The exact key sets of ``report.json``, at top level and per state,
    and the exact files of each run: ``solve`` dumps each state's fields
    and ``chi``, ``refine`` writes ``summary.csv`` and ``report.json`` only."""
    out = tmp_path / "out"
    assert cli.main([command, "--config", write_cfg(tmp_path, text), "--out", str(out),
                     "--quiet"]) == 0
    files = {"summary.csv", "report.json"}
    if command == "solve":
        files |= {"chi.bin"} | {f"{name}_{i}.bin" for name in ("u", "phi") for i in range(count)}
    assert {path.name for path in out.iterdir()} == files
    report = json.loads((out / "report.json").read_text())
    assert set(report) == report_keys
    assert len(report["states"]) == count
    assert all(set(state) == state_keys for state in report["states"])


@pytest.mark.parametrize("mode", ["excited", "polish"])
def test_refine_accepts_ground_mode_only(tmp_path, capsys, monkeypatch, mode):
    """refine computes ground states only: any other run.mode is one
    ``error:`` line and exit 1 before any solve, with no output directory."""
    def no_solve(*args, **kwargs):
        raise AssertionError("refine solved before checking run.mode")

    monkeypatch.setattr(cli, "minimize_on_M", no_solve)
    cfg = write_cfg(tmp_path, GROUND_CFG.replace("run.mode = ground", f"run.mode = {mode}")
                    + "run.grids = 17,33\n")
    out = tmp_path / "out"
    assert cli.main(["refine", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "run.mode" in err and repr(mode) in err
    assert not out.exists()


def test_oracle_subcommand(tmp_path):
    cfg = write_cfg(tmp_path, GROUND_CFG.replace("grid.n = 33", "grid.n = 17"))
    proc = run_cli("oracle", "--config", cfg)
    assert proc.returncode == 0, proc.stderr
    assert "oracle agreement OK" in proc.stdout
    big = write_cfg(tmp_path, GROUND_CFG.replace("grid.n = 33",
                                                 "grid.n = 6001"), "big.cfg")
    proc = run_cli("oracle", "--config", big)
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_oracle_seed_override(tmp_path, monkeypatch, capsys):
    """--seed reaches the oracle's random test data; without it the seed is 0."""
    seen = []
    real = cli.dense_oracle_compare

    def spy(problem, seed=0):
        seen.append(seed)
        return real(problem, seed=seed)

    monkeypatch.setattr(cli, "dense_oracle_compare", spy)
    cfg = write_cfg(tmp_path, GROUND_CFG.replace("grid.n = 33", "grid.n = 17"))
    assert cli.main(["oracle", "--config", cfg, "--seed", "7", "--quiet"]) == 0
    assert "oracle agreement OK" in capsys.readouterr().out
    assert cli.main(["oracle", "--config", cfg, "--quiet"]) == 0
    assert seen == [7, 0]


def test_config_errors_exit_one(tmp_path):
    cfg = write_cfg(tmp_path, GROUND_CFG + "grid.m = 5\n")
    proc = run_cli("solve", "--config", cfg, "--out", str(tmp_path / "o"))
    assert proc.returncode == 1
    assert "grid.m" in proc.stderr
    proc = run_cli("solve", "--config", str(tmp_path / "missing.cfg"),
                   "--out", str(tmp_path / "o"))
    assert proc.returncode == 1


@pytest.mark.parametrize("args", [
    ("solve",),
    ("bogus", "--config", "x.cfg"),
    ("solve", "--config", "x.cfg", "--seed", "one"),
], ids=["no-config", "unknown-command", "bad-seed"])
def test_usage_errors_exit_one(args):
    """Usage errors are invalid input: exit 1, not argparse's 2, which is
    reserved for infeasible alpha."""
    proc = run_cli(*args)
    assert proc.returncode == 1
    assert "usage: sbpbox" in proc.stderr


@pytest.mark.parametrize("args", [("--help",), ("solve", "--help")])
def test_help_exits_zero(args):
    proc = run_cli(*args)
    assert proc.returncode == 0
    assert "--config" in proc.stdout


def test_seed_override_recorded(tmp_path):
    """--seed reaches only the oracle: the echoed config has no seed, and a
    solve with --seed 5 writes the report of a solve without it."""
    cfg = write_cfg(tmp_path, EXCITED_CFG)
    outs = [tmp_path / "a", tmp_path / "b"]
    for out, extra in zip(outs, (["--seed", "5"], [])):
        proc = run_cli("solve", "--config", cfg, "--out", str(out), *extra)
        assert proc.returncode == 0, proc.stderr
    report = (outs[0] / "report.json").read_bytes()
    assert "run.seed" not in json.loads(report)["config"]
    assert report == (outs[1] / "report.json").read_bytes()


@pytest.mark.parametrize("line, message", [
    ("grid.n = 2", "nodes per axis"),
    ("physics.p = 5", "exponent p"),
    ("optimizer.max_iterations = -4", "max_iterations"),
    ("optimizer.grad_tol = -1", "grad_tol"),
    ("coupling.radius = 0.2", "radius"),
    ("run.mode = excited\nrun.k = 0", "k >= 1"),
])
def test_invalid_input_is_one_error_line(tmp_path, capsys, line, message):
    """Out-of-range values exit 1 with an ``error:`` line, not a traceback,
    and write nothing."""
    key = line.split(" = ")[0]
    text = "".join(f"{ln}\n" for ln in GROUND_CFG.splitlines()
                   if not ln.startswith(key + " ")) + line + "\n"
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err
    assert not out.exists()


def test_excited_search_without_states_is_an_error(tmp_path, capsys, monkeypatch):
    """An excited search in which no start converges exits 1 with one
    ``error:`` line and writes nothing."""
    monkeypatch.setattr(cli, "excited_states", lambda problem, k, opts: [])
    cfg = write_cfg(tmp_path, EXCITED_CFG)
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no start converged" in err
    assert not out.exists()


def test_ground_stall_is_reported(tmp_path, monkeypatch):
    """A ground descent whose line search stalls still writes its state,
    with the stop reason in report.json."""
    from sbpbox import optimize

    monkeypatch.setattr(optimize, "_INITIAL_STEP", 1e-16)
    out = tmp_path / "out"
    rc = cli.main(["solve", "--config", str(DEMO_CONFIGS / "ground.cfg"),
                   "--out", str(out), "--quiet"])
    assert rc == 0
    state = json.loads((out / "report.json").read_text())["states"][0]
    assert state["stop_reason"] == "line_search_stall"
    assert state["optimizer_converged"] is False
    assert state["converged"] is False


def test_progress_names_the_folded_axes(tmp_path, capsys):
    """``solve`` and ``refine`` say in one line whether the descent ran on
    a mirror sector and along which axes; report.json gets no key for it."""
    square = GROUND_CFG.replace("domain.dim = 1", "domain.dim = 2")
    keys = []
    for command, text, line in [
            ("solve", GROUND_CFG, "descent on the full box"),
            ("solve", square, "descent on the mirror sector of axes 1"),
            ("refine", square + "run.grids = 9,17\n", "descent on the mirror sector of axes 1"),
            ("solve", EXCITED_CFG, "descent on the full box")]:
        out = tmp_path / f"out{len(keys)}"
        cfg = write_cfg(tmp_path, text)
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [s for s in lines if s.startswith("descent on")] == [line]
        report = json.loads((out / "report.json").read_text())
        keys.append((sorted(report), sorted(report["states"][0])))
    assert keys[0] == keys[1] == keys[3]


def test_sign_changing_ground_state_gets_one_line(tmp_path, capsys, monkeypatch):
    """A ground state whose minimum lies below -1e-8 is reported, not
    re-descended: ``solve`` and each ``refine`` level print one line naming
    it, exit 0 and write its ``min_u``."""
    from dataclasses import replace

    def negated(problem, u0, opts):
        res = minimize(problem, u0, opts)
        return replace(res, u=-np.abs(res.u))

    minimize = cli.minimize_on_M
    monkeypatch.setattr(cli, "minimize_on_M", negated)
    for command, text, count in [("solve", GROUND_CFG, 1),
                                 ("refine", GROUND_CFG + "run.grids = 17,33\n", 2)]:
        out = tmp_path / command
        assert cli.main([command, "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 0
        lines = [s for s in capsys.readouterr().out.splitlines() if "min u = " in s]
        assert len(lines) == count
        assert all(s.startswith(f"state {i}: ") for i, s in enumerate(lines))
    report = json.loads((tmp_path / "solve" / "report.json").read_text())
    assert report["states"][0]["min_u"] < -1e-8


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 3: the Gram matrix of (v, q v) is not centred, so the "
    "offset coupling q = 1000 + x reads as singular at the first retraction"))
def test_offset_affine_coupling_solves(tmp_path, capsys):
    """q = 1000 + x with alpha = 1000.5 is the constraint set of q = x with
    alpha = 0.5, which solves: the ansatz (a + b q) v and both constraints
    are invariant under a constant shift of q."""
    text = GROUND_CFG.replace("grid.n = 33", "grid.n = 65").replace(
        "coupling.a = 0.0", "coupling.a = 1000.0").replace(
        "boundary.h2.x1 = 0.5", "boundary.h2.x1 = 1000.5")
    out = tmp_path / "out"
    rc = cli.main(["solve", "--config", write_cfg(tmp_path, text), "--out", str(out),
                   "--quiet"])
    assert rc == 0, capsys.readouterr().err
    assert json.loads((out / "report.json").read_text())["states"][0]["converged"] is True
