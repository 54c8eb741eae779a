"""One measured operation in a fresh process; started by ``run.py``.

    worker.py RESULT op [--trace] -- <sbpbox CLI arguments>
    worker.py RESULT setup --config PATH --grids N[,N...] --min-seconds S

``op`` times one call of ``sbpbox.cli.main`` (imports excluded), optionally
under the per-layer tracer.  ``setup`` repeats the set-up calls of a
workload -- ``load_config``, then ``build_problem`` and ``classify_alpha``
for each grid -- and records the time of each repeat.  Both write a JSON
object to RESULT.  ``sbpbox`` is imported from ``src`` under the working
directory and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _import_sbpbox():
    src = Path("src").resolve()
    sys.path.insert(0, str(src))
    import sbpbox.cli  # noqa: F401  (loads every layer module)
    import sbpbox
    if not Path(sbpbox.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"sbpbox imported from {sbpbox.__file__}, not from {src}")
    return sbpbox


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_op(cli_args: list[str], trace: bool) -> dict:
    sbpbox = _import_sbpbox()
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        t0 = time.perf_counter()
        rc = sbpbox.cli.main(cli_args)
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.restore()
    result = {"rc": rc, "wall_s": wall, "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        result["layers"] = tracer.metrics()
    return result


def run_setup(config: str, grids: list[int], min_seconds: float) -> dict:
    _import_sbpbox()
    from sbpbox.config import load_config
    from sbpbox.problem import classify_alpha
    repeats = []
    start = time.perf_counter()
    while len(repeats) < 5 or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter()
        cfg = load_config(config)
        total = time.perf_counter() - t0
        for n in grids:
            t0 = time.perf_counter()
            problem = cfg.build_problem(n)
            total += time.perf_counter() - t0
            t0 = time.perf_counter()
            classify_alpha(problem)
            total += time.perf_counter() - t0
        repeats.append(total)
    return {"repeats": repeats}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("result")
    sub = parser.add_subparsers(dest="mode", required=True)
    op = sub.add_parser("op")
    op.add_argument("--trace", action="store_true")
    op.add_argument("cli_args", nargs=argparse.REMAINDER)
    setup = sub.add_parser("setup")
    setup.add_argument("--config", required=True)
    setup.add_argument("--grids", required=True)
    setup.add_argument("--min-seconds", type=float, required=True)
    args = parser.parse_args(argv)

    if args.mode == "op":
        cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
        result = run_op(cli_args, args.trace)
    else:
        grids = [int(n) for n in args.grids.split(",")]
        result = run_setup(args.config, grids, args.min_seconds)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
