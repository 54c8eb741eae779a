"""Flat key=value run configuration.

Grammar: one `key = value` pair per line, `#` starts a comment, blank lines
ignored.  Keys use section dots (`domain.dim`, `coupling.kind`,
`boundary.h1.x0`, ...).  There is no expression language: the coupling comes
from a builtin family or a tabulated field file, boundary data are constants
or per-face tabulated files (`file:path`).  Unknown and repeated keys are
errors, so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import FACE_NAMES, BoundaryData, Grid
from .optimize import OptimizerOptions
from .problem import COUPLING_PARAMS, CouplingSpec, Problem, build_problem

__all__ = ["RunConfig", "load_config", "parse_config_text", "CONFIG_KEYS"]

_MODES = ("ground", "excited")
_FACE_OF = {face: name for name, face in FACE_NAMES.items()}
_COUPLING_PARAM_KEYS = {key for required, optional in COUPLING_PARAMS.values()
                        for key in required + optional}

# key -> (parser, default); None default means "required" for the few keys
# that have no sensible fallback.
CONFIG_KEYS = {
    "domain.dim": ("int", None),
    "domain.lengths": ("floats", None),
    "grid.n": ("ints", None),
    "physics.kappa": ("float", 1.0),
    "physics.p": ("float", 3.0),
    "coupling.kind": ("str", None),
    "optimizer.grad_tol": ("float", OptimizerOptions.grad_tol),
    "optimizer.max_iterations": ("int", OptimizerOptions.max_iterations),
    "run.mode": ("str", "ground"),
    "run.k": ("int", 3),
    "run.grids": ("ints", (65, 129, 257)),
    "output.dir": ("str", "out"),
    "output.dump_fields": ("bool", True),
}


def _parse_scalar(kind: str, key: str, raw: str):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            if raw.lower() in ("true", "yes", "1", "on"):
                return True
            if raw.lower() in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        if kind == "ints":
            return tuple(int(tok) for tok in raw.split(","))
        if kind == "floats":
            return tuple(float(tok) for tok in raw.split(","))
        return raw
    except ValueError as exc:
        raise ValueError(f"key {key!r}: cannot parse {raw!r} as {kind}") from exc


@dataclass
class RunConfig:
    """Parsed configuration; ``build_problem`` assembles the Problem lazily."""

    values: dict = field(default_factory=dict)
    coupling_params: dict = field(default_factory=dict)
    boundary: dict = field(default_factory=dict)
    source: str = "<memory>"

    def get(self, key: str):
        if key in self.values:
            return self.values[key]
        kind, default = CONFIG_KEYS[key]
        if default is None:
            raise ValueError(f"missing required key {key!r} in {self.source}")
        return default

    @property
    def mode(self) -> str:
        mode = self.get("run.mode")
        if mode not in _MODES:
            raise ValueError(f"key 'run.mode': unknown mode {mode!r}")
        return mode

    def grid(self, n_override=None) -> Grid:
        """The config's grid, or its box with ``n_override`` nodes per axis."""
        dim = self.get("domain.dim")
        if "domain.lengths" in self.values:
            lengths = self.values["domain.lengths"]
        else:
            lengths = (1.0,) * dim
        if len(lengths) == 1 and dim > 1:
            lengths = lengths * dim
        n = self.get("grid.n")
        if len(n) == 1 and dim > 1:
            n = n * dim
        if len(lengths) != dim or len(n) != dim:
            raise ValueError(
                f"domain.lengths/grid.n must have {dim} entries, got "
                f"{lengths} and {n}"
            )
        if n_override is not None:
            n = (int(n_override),) * dim
        return Grid(lengths=tuple(lengths), n=tuple(n))

    def coupling(self) -> CouplingSpec:
        return CouplingSpec(self.get("coupling.kind"), dict(self.coupling_params))

    def boundary_data(self, which: str, grid: Grid) -> BoundaryData:
        values = {}
        for (axis, side) in grid.faces():
            face_name = _FACE_OF[(axis, side)]
            spec = self.boundary.get((which, face_name))
            if spec is None:
                values[(axis, side)] = np.zeros(grid.face_shape(axis))
            elif isinstance(spec, float):
                values[(axis, side)] = np.full(grid.face_shape(axis), spec)
            else:
                face_vals = np.loadtxt(spec, comments="#", ndmin=1)
                shape = grid.face_shape(axis)
                if face_vals.size != int(np.prod(shape)):
                    raise ValueError(
                        f"boundary.{which}.{face_name}: file {spec!r} has "
                        f"{face_vals.size} values, face needs {int(np.prod(shape))}"
                    )
                values[(axis, side)] = face_vals.reshape(shape)
        # Reject keys naming faces that do not exist in this dimension.
        for (w, face_name) in self.boundary:
            if w == which and face_name not in _face_names_for(grid.dim):
                raise ValueError(
                    f"boundary.{which}.{face_name}: no such face in "
                    f"{grid.dim}d"
                )
        return BoundaryData(grid=grid, values=values)

    def optimizer_options(self) -> OptimizerOptions:
        return OptimizerOptions(
            grad_tol=self.get("optimizer.grad_tol"),
            max_iterations=self.get("optimizer.max_iterations"),
        )

    def build_problem(self, n_override=None) -> Problem:
        grid = self.grid(n_override)
        h1 = self.boundary_data("h1", grid)
        h2 = self.boundary_data("h2", grid)
        return build_problem(
            grid=grid, coupling=self.coupling(), h1=h1, h2=h2,
            kappa=self.get("physics.kappa"), p=self.get("physics.p"),
        )


def _face_names_for(dim: int) -> tuple[str, ...]:
    return tuple(name for name, (a, _) in FACE_NAMES.items() if a < dim)


def parse_config_text(text: str, source: str = "<memory>") -> RunConfig:
    cfg = RunConfig(source=source)
    seen = set()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{source}:{lineno}: expected key = value, got {raw_line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not raw:
            raise ValueError(f"{source}:{lineno}: key {key!r} has empty value")
        if key in seen:
            raise ValueError(f"{source}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        if key in CONFIG_KEYS:
            cfg.values[key] = _parse_scalar(CONFIG_KEYS[key][0], key, raw)
        elif key.startswith("coupling."):
            param = key[len("coupling."):]
            if param not in _COUPLING_PARAM_KEYS:
                raise ValueError(f"{source}:{lineno}: unknown coupling parameter {key!r}")
            if param == "file":
                cfg.coupling_params[param] = raw
            elif param in ("center",):
                cfg.coupling_params[param] = _parse_scalar("floats", key, raw)
            else:
                cfg.coupling_params[param] = _parse_scalar("float", key, raw)
        elif key.startswith("boundary.h1.") or key.startswith("boundary.h2."):
            _, which, face_name = key.split(".", 2)
            if face_name not in FACE_NAMES:
                raise ValueError(f"{source}:{lineno}: unknown face in key {key!r}")
            if raw.startswith("file:"):
                cfg.boundary[(which, face_name)] = raw[len("file:"):].strip()
            else:
                cfg.boundary[(which, face_name)] = _parse_scalar("float", key, raw)
        else:
            raise ValueError(f"{source}:{lineno}: unknown key {key!r}")
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config_text(text, source=str(path))
