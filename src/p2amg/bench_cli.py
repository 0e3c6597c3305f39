"""Config-driven benchmark runner.

Reads a JSON experiment description, assembles each requested problem
at each mesh level, runs the solver matrix (stand-alone multigrid,
multigrid-preconditioned CG, or multigrid-preconditioned GMRES) and
emits one table row per (level, solver) cell as CSV and/or Markdown.
Published iteration counts for the matching configurations are carried
along in a reference column.

Config schema (all keys except ``problem`` and ``solvers`` optional)::

    {
      "problem": "vector_laplace" | "elasticity_displacement"
                 | "elasticity_mixed" | "stokes",
      "levels": [4, 8, 16],          # subdivisions per axis
      "mu": 1.0, "lambda": 1.0,      # material parameters
      "coarsening": "separated" | "monolithic",
      "coarse_size_cap": 500,        # at most sparse_core.MAX_DENSE_COARSE
      "tolerance": 1e-11,            # default 1e-11 elliptic, 1e-9 saddle
      "solvers": [
        {"method": "amg",   "cycle": "V", "smoother": "GS-2-2"},
        {"method": "pcg",   "cycle": "V", "smoother": "GS-2-2"},
        {"method": "gmres", "cycle": "V", "smoother": "Braess-Sarazin-1-1",
         "precond": "2 V-cycles"}
      ]
    }

Per-solver keys ``tolerance`` and ``maxit`` override the defaults: the
experiment's tolerance, and 200 cycles for a stand-alone run or 500
Krylov iterations.  ``precond``, on a pcg or gmres entry only, reads
``"N V-cycle(s)"`` or ``"N W-cycle(s)"`` with N >= 1 and the entry's
``cycle`` letter.  A key outside this schema is rejected, at the top
level and in a solver entry alike.  ``load_config`` applies every
default, so each ``SolverEntry`` holds its resolved settings.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from .assembly import ProblemKind, ProblemSpec, assemble
from .coarsening import MONOLITHIC, SEPARATED, build_hierarchy
from .errors import DivergenceDetected, InvalidParameter, SolverError
from .krylov import KrylovConfig, gmres, pcg
from .mesh import generate_channel_mesh, generate_unit_cube_mesh, tag_boundary
from .multigrid import CycleConfig, Preconditioner, build_level_smoothers, solve_amg
from .smoothers import parse_smoother
from .sparse_core import MAX_DENSE_COARSE

__all__ = [
    "SolverEntry",
    "ExperimentConfig",
    "load_config",
    "build_case",
    "run_experiment",
    "emit_tables",
    "main",
]

CSV_COLUMNS = [
    "problem",
    "level",
    "n",
    "dof",
    "solver",
    "cycle",
    "smoother",
    "iterations",
    "converged",
    "final_rel_residual",
    "op_complexity",
    "wall_ms",
    "smoother_setup_ms",
    "paper_ref_value",
]

_CONFIG_KEYS = frozenset({"problem", "levels", "mu", "lambda", "coarsening",
                         "coarse_size_cap", "tolerance", "solvers"})
_SOLVER_KEYS = frozenset({"method", "smoother", "cycle", "precond", "tolerance", "maxit"})

DEFAULT_LEVELS = [4, 8, 16]
LARGE_LEVEL = 32
_EPS = 1e-12

CHANNEL_LENGTHS = (2.0, 1.0, 1.0)

#: Published iteration counts for matching configurations, indexed by
#: (problem, method, cycle, smoother, precond_cycles, coarsening) and
#: refinement level L1..L4 (our n = 4, 8, 16, 32).  None marks a run
#: reported as failed.
REFERENCE_ITERATIONS = {
    ("vector_laplace", "amg", "V", "JA-1-1-0.5", 1, SEPARATED): (129, 125, 124, 128),
    ("vector_laplace", "amg", "V", "JA-2-2-0.5", 1, SEPARATED): (65, 65, 65, 66),
    ("vector_laplace", "amg", "V", "GS-1-1", 1, SEPARATED): (43, 46, 47, 47),
    ("vector_laplace", "amg", "V", "GS-2-2", 1, SEPARATED): (23, 24, 24, 24),
    ("vector_laplace", "amg", "W", "JA-1-1-0.5", 1, SEPARATED): (128, 124, 121, 123),
    ("vector_laplace", "amg", "W", "JA-2-2-0.5", 1, SEPARATED): (65, 64, 63, 64),
    ("vector_laplace", "amg", "W", "GS-1-1", 1, SEPARATED): (43, 46, 47, 47),
    ("vector_laplace", "amg", "W", "GS-2-2", 1, SEPARATED): (23, 24, 24, 24),
    ("vector_laplace", "pcg", "V", "JA-1-1-0.5", 1, SEPARATED): (30, 30, 30, 30),
    ("vector_laplace", "pcg", "V", "JA-2-2-0.5", 1, SEPARATED): (21, 22, 22, 22),
    ("vector_laplace", "pcg", "V", "GS-1-1", 1, SEPARATED): (26, 29, 29, 30),
    ("vector_laplace", "pcg", "V", "GS-2-2", 1, SEPARATED): (17, 19, 19, 19),
    ("vector_laplace", "pcg", "W", "JA-1-1-0.5", 1, SEPARATED): (30, 30, 30, 29),
    ("vector_laplace", "pcg", "W", "JA-2-2-0.5", 1, SEPARATED): (21, 21, 21, 21),
    ("vector_laplace", "pcg", "W", "GS-1-1", 1, SEPARATED): (26, 29, 29, 29),
    ("vector_laplace", "pcg", "W", "GS-2-2", 1, SEPARATED): (17, 18, 18, 18),
    # non-separating comparison runs (2 W-cycles, one pre/post sweep)
    ("vector_laplace", "amg", "W", "GS-1-1", 1, MONOLITHIC): (90, 158, None, None),
    ("vector_laplace", "pcg", "W", "GS-1-1", 1, MONOLITHIC): (22, 25, 36, 64),
    ("elasticity_displacement", "amg", "V", "JA-1-1-0.5", 1, SEPARATED): (None,) * 4,
    ("elasticity_displacement", "amg", "V", "JA-2-2-0.5", 1, SEPARATED): (None,) * 4,
    ("elasticity_displacement", "amg", "V", "GS-1-1", 1, SEPARATED): (80, 78, 76, 75),
    ("elasticity_displacement", "amg", "V", "GS-2-2", 1, SEPARATED): (44, 40, 39, 39),
    ("elasticity_displacement", "amg", "W", "GS-1-1", 1, SEPARATED): (80, 78, 75, 73),
    ("elasticity_displacement", "amg", "W", "GS-2-2", 1, SEPARATED): (44, 40, 39, 44),
    ("elasticity_displacement", "pcg", "V", "JA-1-1-0.5", 1, SEPARATED): (50, 81, None, None),
    ("elasticity_displacement", "pcg", "V", "JA-2-2-0.5", 1, SEPARATED): (32, 63, None, None),
    ("elasticity_displacement", "pcg", "V", "GS-1-1", 1, SEPARATED): (40, 43, 43, 42),
    ("elasticity_displacement", "pcg", "V", "GS-2-2", 1, SEPARATED): (28, 27, 27, 27),
    ("elasticity_displacement", "pcg", "W", "JA-1-1-0.5", 1, SEPARATED): (47, 80, None, None),
    ("elasticity_displacement", "pcg", "W", "JA-2-2-0.5", 1, SEPARATED): (32, 62, None, None),
    ("elasticity_displacement", "pcg", "W", "GS-1-1", 1, SEPARATED): (39, 44, 42, 41),
    ("elasticity_displacement", "pcg", "W", "GS-2-2", 1, SEPARATED): (28, 27, 27, 26),
    ("elasticity_mixed", "amg", "V", "Braess-Sarazin-1-1", 1, SEPARATED): (135, 133, 125, 117),
    ("elasticity_mixed", "amg", "V", "Braess-Sarazin-2-2", 1, SEPARATED): (71, 70, 66, 62),
    ("elasticity_mixed", "amg", "V", "sGS-1-1", 1, SEPARATED): (107, 104, 99, 93),
    ("elasticity_mixed", "amg", "V", "sGS-2-2", 1, SEPARATED): (54, 53, 53, 59),
    ("elasticity_mixed", "gmres", "V", "Vanka-1-1", 1, SEPARATED): (60, 45, 49, 69),
    ("elasticity_mixed", "gmres", "V", "Vanka-1-1", 2, SEPARATED): (42, 30, 32, 45),
    ("elasticity_mixed", "gmres", "V", "Braess-Sarazin-1-1", 1, SEPARATED): (27, 27, 27, 27),
    ("elasticity_mixed", "gmres", "V", "Braess-Sarazin-1-1", 2, SEPARATED): (18, 19, 19, 19),
    ("elasticity_mixed", "gmres", "V", "sGS-1-1", 1, SEPARATED): (14, 18, 19, 21),
    ("elasticity_mixed", "gmres", "V", "sGS-1-1", 2, SEPARATED): (12, 15, 15, 15),
    ("stokes", "gmres", "V", "Braess-Sarazin-1-1", 1, SEPARATED): (25, 42, 38, 39),
    ("stokes", "gmres", "V", "Braess-Sarazin-1-1", 2, SEPARATED): (16, 17, 18, 21),
}


@dataclass(frozen=True)
class SolverEntry:
    """One cell family of the benchmark matrix, every default applied."""

    method: str  # amg | pcg | gmres
    cycle: CycleConfig
    tolerance: float
    maxit: int

    @property
    def label(self) -> str:
        letter = "VW"[self.cycle.nu - 1]
        if self.method == "amg":
            return f"AMG-{letter}"
        count = self.cycle.cycles_per_application
        return f"{self.method.upper()} ({count} {letter}-cycle{'s' if count > 1 else ''})"


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str
    solvers: tuple[SolverEntry, ...]
    levels: tuple[int, ...] = tuple(DEFAULT_LEVELS)
    mu: float = 1.0
    lam: float = 1.0
    coarsening: str = SEPARATED
    coarse_size_cap: int = 500


def _number(raw: dict, key: str, default, integer: bool = False):
    """``raw[key]``, or ``default`` when absent, checked to be a JSON number
    (``null`` passes only where the default is ``None``)."""
    value = raw.get(key, default)
    kinds = int if integer else (int, float)
    if (value is None and default is None) or (
        isinstance(value, kinds) and not isinstance(value, bool)
    ):
        return value
    expected = "an integer" if integer else "a number"
    raise InvalidParameter(f"{key} must be {expected}, got {value!r}")


def _tolerance(raw: dict, default: float) -> float:
    """``raw["tolerance"]`` in (0, 1), or ``default`` when absent or null."""
    tol = _number(raw, "tolerance", None)
    if tol is None:
        return default
    if not 0.0 < tol < 1.0:
        raise InvalidParameter(f"tolerance must lie in (0, 1), got {tol!r}")
    return tol


def _known_keys(raw: dict, known: frozenset) -> None:
    unknown = sorted(set(raw) - known)
    if unknown:
        raise InvalidParameter(f"unknown key(s) {', '.join(map(repr, unknown))}")


def _solver_entry(item: dict, tolerance: float) -> SolverEntry:
    """One solver entry with every default applied: the experiment's
    ``tolerance``, 200 stand-alone cycles or 500 Krylov iterations, and
    one cycle per preconditioner application."""
    method = item["method"]
    _known_keys(item, _SOLVER_KEYS)
    if method not in ("amg", "pcg", "gmres"):
        raise InvalidParameter(f"unknown method {method!r}")
    smoother = parse_smoother(item["smoother"])
    cycle = item.get("cycle", "V")
    if cycle not in ("V", "W"):
        raise InvalidParameter(f"unknown cycle {cycle!r}")
    maxit = _number(item, "maxit", None, integer=True)
    if maxit is None:
        maxit = 200 if method == "amg" else 500
    elif maxit < 1:
        raise InvalidParameter(f"maxit must be at least 1, got {maxit}")
    cycles = 1
    if "precond" in item:  # "N V-cycle(s)" or "N W-cycle(s)": N >= 1, the entry's letter
        if method == "amg":
            raise InvalidParameter("precond applies to pcg and gmres entries only")
        value = item["precond"]
        match = isinstance(value, str) and re.fullmatch(r"([1-9][0-9]*) ([VW])-cycles?", value)
        if not match or match[2] != cycle:
            raise InvalidParameter(
                f"precond must read 'N {cycle}-cycles' with N >= 1, got {value!r}"
            )
        cycles = int(match[1])
    cycle_config = CycleConfig(smoother, nu=1 if cycle == "V" else 2, cycles_per_application=cycles)
    return SolverEntry(method, cycle_config, _tolerance(item, tolerance), maxit)


def load_config(source) -> ExperimentConfig:
    """Parse an experiment config from a path or a dict."""
    if isinstance(source, dict):
        raw = source
    else:
        with open(source) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InvalidParameter(
                    f"{source}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
                ) from exc

    if not isinstance(raw, dict):
        raise InvalidParameter("config must be a JSON object")
    _known_keys(raw, _CONFIG_KEYS)
    try:
        problem = raw["problem"]
    except KeyError:
        raise InvalidParameter("config is missing the 'problem' key")
    try:
        kind = ProblemKind(problem)
    except ValueError:
        raise InvalidParameter(f"unknown problem kind {problem!r}")
    mu = float(_number(raw, "mu", 1.0))
    lam = float(_number(raw, "lambda", 1.0))
    spec = ProblemSpec(kind=kind, mu=mu, lam=lam)  # its parameter checks
    tolerance = _tolerance(raw, 1e-9 if spec.is_saddle else 1e-11)

    solvers = raw.get("solvers", [])
    if not isinstance(solvers, list):
        raise InvalidParameter("solvers must be a list")
    entries = []
    for i, item in enumerate(solvers):
        try:
            entries.append(_solver_entry(item, tolerance))
        except (KeyError, TypeError, InvalidParameter) as exc:
            raise InvalidParameter(f"solvers[{i}]: {exc}") from exc

    levels = raw.get("levels", DEFAULT_LEVELS)
    if not isinstance(levels, (list, tuple)) or not all(
        isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in levels
    ):
        raise InvalidParameter(f"levels must be positive integers, got {levels!r}")

    coarsening = raw.get("coarsening", SEPARATED)
    if coarsening not in (SEPARATED, MONOLITHIC):
        raise InvalidParameter(f"unknown coarsening mode {coarsening!r}")

    coarse_size_cap = _number(raw, "coarse_size_cap", 500, integer=True)
    if not 1 <= coarse_size_cap <= MAX_DENSE_COARSE:
        raise InvalidParameter(
            f"coarse_size_cap must lie in [1, {MAX_DENSE_COARSE}], got {coarse_size_cap}"
        )

    return ExperimentConfig(
        problem=problem,
        solvers=tuple(entries),
        levels=tuple(levels),
        mu=mu,
        lam=lam,
        coarsening=coarsening,
        coarse_size_cap=coarse_size_cap,
    )


# ---------------------------------------------------------------------------
# problem setup


def _cube_dirichlet(v) -> bool:
    return v[2] < _EPS or v[2] > 1.0 - _EPS


def _cube_data(v) -> np.ndarray:
    # clamped at the bottom, unit z-displacement prescribed on top
    return np.array([0.0, 0.0, 1.0 if v[2] > 0.5 else 0.0])


def _channel_wall(v) -> bool:
    _, ly, lz = CHANNEL_LENGTHS
    return v[1] < _EPS or v[1] > ly - _EPS or v[2] < _EPS or v[2] > lz - _EPS


def _channel_dirichlet(v) -> bool:
    # inflow and walls; the outflow facet x = lx stays traction-free
    return v[0] < _EPS or _channel_wall(v)


def _channel_data(v) -> np.ndarray:
    if v[0] < _EPS and not _channel_wall(v):
        return np.array([1.0, 0.0, 0.0])
    return np.zeros(3)


def build_case(problem: str, n: int, mu: float = 1.0, lam: float = 1.0):
    """Tagged mesh and problem spec for one benchmark cell."""
    kind = ProblemKind(problem)
    if kind is ProblemKind.STOKES:
        lx, ly, lz = CHANNEL_LENGTHS
        mesh = tag_boundary(
            generate_channel_mesh(2 * n, n, n, lx, ly, lz), _channel_dirichlet
        )
        spec = ProblemSpec(kind=kind, mu=mu, g_dirichlet=_channel_data)
    else:
        mesh = tag_boundary(generate_unit_cube_mesh(n), _cube_dirichlet)
        spec = ProblemSpec(kind=kind, mu=mu, lam=lam, g_dirichlet=_cube_data)
    return mesh, spec


_REFERENCE_LEVELS = {4: 0, 8: 1, 16: 2, 32: 3}


def _reference_key(config: ExperimentConfig, entry: SolverEntry) -> tuple:
    """The ``REFERENCE_ITERATIONS`` key of one config cell family."""
    return (
        config.problem,
        entry.method,
        "VW"[entry.cycle.nu - 1],
        entry.cycle.smoother.name,
        entry.cycle.cycles_per_application,
        config.coarsening,
    )


def _reference_value(config: ExperimentConfig, entry: SolverEntry, n: int):
    values = REFERENCE_ITERATIONS.get(_reference_key(config, entry))
    pos = _REFERENCE_LEVELS.get(n)
    if values is None or pos is None:
        return ""
    return "-" if values[pos] is None else values[pos]


def _failure_name(exc: Exception) -> str:
    """A failed row's ``iterations``: ``DIVERGED`` or the error's class name."""
    return "DIVERGED" if isinstance(exc, DivergenceDetected) else type(exc).__name__


def run_experiment(config: ExperimentConfig) -> list[dict]:
    """Run every (level, solver) cell; one result row per cell.

    Mesh, assembly and hierarchy are shared across the solver entries
    of a level, and so are the smoothers of the entries with the same
    smoother kind and omega, which is all the smoother state depends on.
    Rows appear in config order (levels outer, solvers
    inner).  A cell whose smoother setup or solve raises a
    ``SolverError`` or a ``MemoryError`` gets a row with ``converged``
    false and, in ``iterations``, ``DIVERGED`` for ``DivergenceDetected``
    or the error's class name otherwise; a level whose mesh, assembly or
    hierarchy raises one gives each of its cells such a row, with
    ``dof`` empty when no operator was assembled, and the other levels
    still run.  ``smoother_setup_ms`` is the
    build time of the row's smoother set, the same in every row that
    shares the set, and empty when the build raised.  ``wall_ms`` times
    the solve call alone and ``op_complexity`` is the level's
    ``Hierarchy.operator_complexity``; a failed cell leaves both empty.
    """
    return [row for pos, n in enumerate(config.levels) for row in _level_rows(config, pos, n)]


def _level_rows(config: ExperimentConfig, pos: int, n: int) -> list[dict]:
    """The rows of one level.  Its mesh, operators, hierarchy and
    smoothers are freed when it returns, before the next level is
    built."""
    rows = []
    level_failure = operator = None
    try:
        mesh, spec = build_case(config.problem, n, config.mu, config.lam)
        system = assemble(mesh, spec)
        operator = system.monolithic()
        rhs = system.rhs()
        hierarchy = build_hierarchy(
            system, mode=config.coarsening, coarse_size_cap=config.coarse_size_cap
        )
    except (SolverError, MemoryError) as exc:
        # only the name is kept: the traceback would hold the failed
        # build's arrays for the rest of the run
        level_failure = _failure_name(exc)
    smoother_sets, setup_ms = {}, {}
    for entry in config.solvers:
        smoother = entry.cycle.smoother
        key = (smoother.kind, smoother.omega)
        failure = level_failure
        if failure is None:
            try:
                if key not in smoother_sets:
                    start = time.perf_counter()
                    smoother_sets[key] = build_level_smoothers(hierarchy, entry.cycle)
                    setup_ms[key] = round(1e3 * (time.perf_counter() - start), 3)
                smoothers = smoother_sets[key]
                if entry.method == "amg":
                    start = time.perf_counter()
                    _, report = solve_amg(
                        hierarchy, rhs, entry.cycle, entry.tolerance, entry.maxit, smoothers
                    )
                else:
                    precond = Preconditioner(hierarchy, entry.cycle, smoothers)
                    kcfg = KrylovConfig(
                        method="cg" if entry.method == "pcg" else "gmres",
                        tol=entry.tolerance,
                        maxit=entry.maxit,
                    )
                    solve = pcg if entry.method == "pcg" else gmres
                    start = time.perf_counter()
                    _, report = solve(operator, rhs, precond, kcfg)
                wall_ms = round(1e3 * (time.perf_counter() - start), 3)
                iterations = report.iterations if report.converged else f">{entry.maxit}"
                converged = report.converged
                final = report.final_residual
                opc = hierarchy.operator_complexity
            except (SolverError, MemoryError) as exc:
                # one failed cell leaves the other cells' rows intact
                failure = _failure_name(exc)
        if failure is not None:
            iterations, converged, final, opc, wall_ms = failure, False, "", "", ""
        rows.append(
            {
                "problem": config.problem,
                "level": pos + 1,
                "n": n,
                "dof": "" if operator is None else operator.shape[0],
                "solver": entry.label,
                "cycle": entry.cycle.cycle_name,
                "smoother": smoother.name,
                "iterations": iterations,
                "converged": converged,
                "final_rel_residual": final,
                "op_complexity": opc,
                "wall_ms": wall_ms,
                "smoother_setup_ms": setup_ms.get(key, ""),
                "paper_ref_value": _reference_value(config, entry, n),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# table output


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def emit_tables(rows: list[dict], fmt: str, out_dir: str = ".") -> list[str]:
    """Write ``results.csv`` and/or ``results.md``; returns the paths."""
    paths = []
    if fmt in ("csv", "both"):
        path = os.path.join(out_dir, "results.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            for row in rows:
                writer.writerow({k: _format_cell(row[k]) for k in CSV_COLUMNS})
        paths.append(path)
    if fmt in ("md", "both"):
        path = os.path.join(out_dir, "results.md")
        with open(path, "w") as fh:
            fh.write(render_markdown(rows))
        paths.append(path)
    return paths


def render_markdown(rows: list[dict]) -> str:
    """Iterations table: one row per solver entry, one column per level."""
    if not rows:
        return "(no results)\n"
    levels = sorted({(r["level"], r["n"]) for r in rows})
    solvers = list(dict.fromkeys((r["solver"], r["cycle"], r["smoother"]) for r in rows))
    cells = {
        (r["solver"], r["cycle"], r["smoother"], r["level"]): (
            r["iterations"], r["paper_ref_value"]
        )
        for r in rows
    }
    out = [f"### {rows[0]['problem']}", ""]
    header = ["solver", "cycle", "smoother"] + [f"L{lv} (n={n})" for lv, n in levels]
    out.append("| " + " | ".join(header) + " |")
    out.append("|" + "---|" * len(header))
    for solver, cycle, smoother in solvers:
        cols = [solver, cycle, smoother]
        for lv, _ in levels:
            it, rv = cells.get((solver, cycle, smoother, lv), ("", ""))
            cols.append(f"{it} (ref {rv})" if rv != "" else f"{it}")
        out.append("| " + " | ".join(str(c) for c in cols) + " |")
    out.append("")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# CLI


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="p2amg-bench", description="Run the solver benchmark matrix."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a benchmark config")
    run.add_argument("config", help="path to the JSON experiment config")
    run.add_argument("--format", choices=("csv", "md", "both"), default="csv")
    run.add_argument("--out", default=".", help="output directory")
    run.add_argument(
        "--large",
        action="store_true",
        help=f"append the n={LARGE_LEVEL} refinement level",
    )
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
    except (OSError, InvalidParameter) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.large and LARGE_LEVEL not in config.levels:
        config = replace(config, levels=config.levels + (LARGE_LEVEL,))
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return 2

    rows = run_experiment(config)
    paths = emit_tables(rows, args.format, args.out)
    for path in paths:
        print(f"wrote {path}")
    for row in rows:
        print(
            f"  {row['problem']} n={row['n']} {row['solver']} {row['smoother']}: "
            f"{row['iterations']} iterations"
        )
    # an ablation run (monolithic coarsening) exits 0 whatever its counts
    ok = config.coarsening == MONOLITHIC or all(row["converged"] is True for row in rows)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
