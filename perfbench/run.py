"""Benchmark of the sbpbox command line.

Run from the repository root:

    python3 perfbench/run.py --workload refine-2d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each operation is one ``sbpbox solve`` or ``sbpbox refine`` call in a fresh
process (``worker.py``), one at a time (a closed loop with one client), with
BLAS/OpenMP threads pinned to 1.  The workload seed reaches the program only
as ``--seed``; ``excited-1d`` fixes it (see its definition).  Every
operation passes a correctness gate (exit code, convergence, reference
energies, ordering, observed convergence order) or counts as failed; any
failure makes the benchmark exit with code 1.

``--trace 0`` repeats the operation for ``--seconds`` (at least once) and
reports medians of the end-to-end metrics.  ``--trace 1`` runs the
operation once plain and once under the per-layer tracer (``tracer.py``),
checks that both write the same ``report.json`` byte for byte, and reports
the per-layer metrics and the tracing overhead.  The last line of standard output is one JSON object.
See README.md for what each metric means and which should move.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0          # a run must end within 180 s
SETUP_MIN_SECONDS = 1.0     # set-up repeats for at least this long (and 5 times)
J_REL_TOL = 1e-6
MIN_EQ1_ORDER = 1.8         # the bound of acceptance test 07

_AFFINE_BASE = """\
physics.kappa = 1.0
physics.p = 3.0
coupling.kind = affine
coupling.a = 0.0
coupling.b = 1.0
boundary.h2.x1 = 0.5
"""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                 # sbpbox subcommand
    config: str
    grids: tuple[int, ...]       # node counts per axis that the operation builds
    j_refs: tuple[float, ...]    # reference J of the leading states (or grids)
    cli_seed: int | None = None  # fixed --seed; None passes the benchmark seed


WORKLOADS = {w.name: w for w in (
    Workload(
        name="refine-2d",
        command="refine",
        config="domain.dim = 2\ngrid.n = 17\n" + _AFFINE_BASE + "run.grids = 17,33,65\n",
        grids=(17, 33, 65),
        j_refs=(9.35621219107859, 9.3799982251818, 9.385948711864799),
    ),
    Workload(
        name="ground-3d",
        command="solve",
        config="domain.dim = 3\ngrid.n = 25\n" + _AFFINE_BASE
               + "run.mode = ground\noutput.dump_fields = true\n",
        grids=(25,),
        j_refs=(14.204030210545575,),
    ),
    Workload(
        name="excited-1d",
        # demos/configs/excited.cfg at grid.n = 65: the frozen excited test.
        command="solve",
        config="""\
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
run.k = 3
optimizer.max_iterations = 8000
""",
        grids=(65,),
        j_refs=(58.89462859454396, 73.36864208910114),
        # The seed draws 4 of the 10 starts, and some seeds give a start that
        # stalls at the 8000-iteration cap (about 12 s more), so a mix of
        # seeds is too unsteady to bound.  Seed 1 has one such start, which
        # keeps that known failure in the workload; see README.md.
        cli_seed=1,
    ),
)}


# -- one operation -----------------------------------------------------------


@dataclass
class Op:
    ok: bool
    problems: list[str]
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    report: bytes = b""
    states_found: int = 0
    eq1_res: float = 0.0
    layers: dict | None = None
    out_bytes: int = 0


def _worker(root: Path, run_dir: Path, tag: str, args: list[str],
            env: dict, deadline: float) -> tuple[dict | None, str]:
    """Run worker.py; return (its result or None, a failure note)."""
    result = run_dir / f"{tag}.json"
    log = run_dir / f"{tag}.log"
    cmd = [sys.executable, str(HERE / "worker.py"), str(result)] + args
    with open(log, "wb") as fh:
        try:
            proc = subprocess.run(cmd, cwd=root, env=env, stdout=fh, stderr=fh,
                                  timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            return None, f"{tag}: timed out"
    if proc.returncode != 0 or not result.is_file():
        tail = log.read_text(errors="replace").strip().splitlines()[-3:]
        return None, f"{tag}: worker exit {proc.returncode}: {' | '.join(tail)}"
    with open(result) as fh:
        return json.load(fh), ""


def check_report(wl: Workload, report: dict) -> list[str]:
    """Correctness gate for one operation's report.json."""
    problems = []
    states = report.get("states", [])
    if not states:
        return ["no states in report.json"]
    for s in states:
        if s.get("converged") is not True:
            problems.append(f"state {s['index']} not converged")
    js = [s["J"] for s in states]
    if len(js) < len(wl.j_refs):
        problems.append(f"{len(js)} states, expected at least {len(wl.j_refs)}")
    for i, (j, ref) in enumerate(zip(js, wl.j_refs)):
        if abs(j - ref) > J_REL_TOL * abs(ref):
            problems.append(f"J[{i}] = {j!r}, reference {ref!r}")
    if wl.name == "excited-1d" and not all(b > a for a, b in zip(js, js[1:])):
        problems.append(f"J not strictly increasing: {js}")
    if wl.command == "refine":
        if len(states) != len(wl.grids):
            problems.append(f"{len(states)} grids in report, expected {len(wl.grids)}")
        orders = report.get("eq1_orders", [])
        if len(orders) != len(wl.grids) - 1 or min(orders, default=0.0) < MIN_EQ1_ORDER:
            problems.append(f"eq1 orders {orders} below {MIN_EQ1_ORDER}")
    return problems


def run_op(wl: Workload, root: Path, run_dir: Path, cfg: Path, tag: str,
           seed: int, trace: bool, env: dict, deadline: float) -> Op:
    out = run_dir / f"{tag}.out"
    seed = seed if wl.cli_seed is None else wl.cli_seed
    args = ["op"] + (["--trace"] if trace else []) + [
        "--", wl.command, "--config", str(cfg), "--out", str(out),
        "--seed", str(seed), "--quiet"]
    res, note = _worker(root, run_dir, tag, args, env, deadline)
    if res is None:
        return Op(ok=False, problems=[note])
    if res["rc"] != 0:
        return Op(ok=False, problems=[f"sbpbox exited with code {res['rc']}"])
    try:
        raw = (out / "report.json").read_bytes()
        report = json.loads(raw)
    except (OSError, ValueError) as exc:
        return Op(ok=False, problems=[f"report.json unreadable: {exc}"])
    problems = check_report(wl, report)
    states = report.get("states", [])
    eq1 = [s["eq1_res"] for s in states]
    return Op(
        ok=not problems, problems=problems, wall_s=res["wall_s"],
        peak_rss_mb=res["peak_rss_mb"], report=raw, states_found=len(states),
        eq1_res=(eq1[-1] if wl.command == "refine" else max(eq1)) if eq1 else 0.0,
        layers=res.get("layers"),
        out_bytes=sum(p.stat().st_size for p in out.iterdir() if p.is_file()),
    )


# -- one run -----------------------------------------------------------------


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(wl: Workload, root: Path, run_dir: Path, seed: int, seconds: float,
            trace: bool, env: dict, deadline: float) -> dict:
    """Run one workload; return its result object."""
    cfg = run_dir / f"{wl.name}.cfg"
    cfg.write_text(wl.config)
    if trace:
        plain = run_op(wl, root, run_dir, cfg, f"{wl.name}-plain", seed, False, env, deadline)
        traced = run_op(wl, root, run_dir, cfg, f"{wl.name}-traced", seed, True, env, deadline)
        ops = [plain, traced]
        if plain.ok and traced.ok and plain.report != traced.report:
            traced.ok = False
            traced.problems.append("traced report.json differs from the untraced one")
        metrics = {}
        if traced.ok and traced.layers is not None:
            layers = traced.layers
            if layers["optimize.runs"][0] < 1:
                traced.ok = False
                traced.problems.append("optimize._minimize was never called")
            metrics = {k: _metric(v, u) for k, (v, u) in layers.items()}
            runs = layers["optimize.runs"][0]
            metrics["optimize.starts_kept_ratio"] = _metric(
                traced.states_found / runs if runs else 0.0, "ratio")
            metrics["cli.io.bytes"] = _metric(traced.out_bytes, "B")
            if plain.ok:
                metrics["trace.overhead"] = _metric(traced.wall_s / plain.wall_s, "ratio")
    else:
        setup, note = _worker(root, run_dir, f"{wl.name}-setup", [
            "setup", "--config", str(cfg), "--grids", ",".join(map(str, wl.grids)),
            "--min-seconds", str(SETUP_MIN_SECONDS)], env, deadline)
        ops = []
        start = time.monotonic()
        while not ops or time.monotonic() - start < seconds:
            ops.append(run_op(wl, root, run_dir, cfg, f"{wl.name}-op{len(ops)}",
                              seed, False, env, deadline))
            if time.monotonic() > deadline:
                break
        if setup is None:
            ops.append(Op(ok=False, problems=[note]))
        good = [op for op in ops if op.ok]
        metrics = {}
        if good:
            metrics = {
                "wall_s": _metric(statistics.median(op.wall_s for op in good), "s"),
                "peak_rss_mb": _metric(statistics.median(op.peak_rss_mb for op in good), "MB"),
                "states_found": _metric(statistics.median(op.states_found for op in good), "count"),
                "pass_frac": _metric(len(good) / len(ops), "ratio"),
                "eq1_res": _metric(statistics.median(op.eq1_res for op in good), "1"),
            }
        if setup is not None:
            metrics["setup_s"] = _metric(
                statistics.median(setup["repeats"]), "s")
            print(f"[{wl.name}] set-up: {len(setup['repeats'])} repeats", flush=True)
    for i, op in enumerate(ops):
        state = "ok" if op.ok else "FAILED: " + "; ".join(op.problems)
        print(f"[{wl.name}] op {i}: wall {op.wall_s:.3f} s, "
              f"peak rss {op.peak_rss_mb:.1f} MB, {state}", flush=True)
    failed = sum(not op.ok for op in ops)
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


# -- environment ---------------------------------------------------------------


def environment(root: Path) -> dict:
    """Machine and source facts recorded with every result."""
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size

    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": caches,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "stencil_bytes": "computed from array sizes (one read + one write per call), not measured",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    # On SIGTERM, unwind: subprocess.run kills and reaps the running worker
    # and the run directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "sbpbox" / "cli.py").is_file():
        print(f"error: no sbpbox sources under {root / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    run_dir = root / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            results[name] = measure(WORKLOADS[name], root, run_dir, args.seed,
                                    args.seconds, bool(args.trace), env, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"env": environment(root)}, sort_keys=True))
    if len(names) == 1:
        final = results[names[0]]
    else:
        for name in names:
            print(f"{name} {json.dumps(results[name])}")
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n in names for k, v in results[n]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
