"""Algebraic multigrid solvers and preconditioners for hierarchical
quadratic finite element systems in 3D."""

from .assembly import (
    BlockSystem,
    ProblemKind,
    ProblemSpec,
    assemble,
)
from .coarsening import (
    Hierarchy,
    build_hierarchy,
    build_prolongation,
    select_coarse,
)
from .krylov import KrylovConfig, gmres, pcg
from .mesh import (
    Mesh,
    generate_channel_mesh,
    generate_unit_cube_mesh,
    tag_boundary,
)
from .multigrid import (
    CycleConfig,
    Preconditioner,
    SolveReport,
    amg_cycle,
    solve_amg,
)
from .smoothers import SmootherConfig, SmootherKind, parse_smoother

__all__ = [
    "BlockSystem",
    "CycleConfig",
    "Hierarchy",
    "KrylovConfig",
    "Mesh",
    "Preconditioner",
    "ProblemKind",
    "ProblemSpec",
    "SmootherConfig",
    "SmootherKind",
    "SolveReport",
    "amg_cycle",
    "assemble",
    "build_hierarchy",
    "build_prolongation",
    "generate_channel_mesh",
    "generate_unit_cube_mesh",
    "gmres",
    "parse_smoother",
    "pcg",
    "select_coarse",
    "solve_amg",
    "tag_boundary",
]
