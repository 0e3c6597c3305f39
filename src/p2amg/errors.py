"""Exception types shared across the library."""


class SolverError(Exception):
    """Base class for all p2amg errors."""


class InvalidParameter(SolverError):
    """An argument violates a documented precondition."""


class DegenerateElement(SolverError):
    """A tetrahedron has non-positive or vanishing volume."""


class MissingTags(SolverError):
    """Assembly was requested on a mesh without boundary tags."""


class ShapeError(SolverError):
    """Operand dimensions do not conform."""


class SingularCoarseMatrix(SolverError):
    """The coarsest-level operator is numerically singular."""


class CoarseningFailure(SolverError):
    """A fine node ended up without any coarse neighbour."""


class SingularBlock(SolverError):
    """A diagonal node block is singular."""


class SingularPatch(SolverError):
    """A local Vanka patch cannot be solved: its velocity block is not
    positive definite or its one-pressure Schur complement not positive."""


class MalformedSystem(SolverError):
    """A saddle system is structurally inconsistent (e.g. an empty patch)."""


class DivergenceDetected(SolverError):
    """The stand-alone multigrid iteration blew up, or a Krylov residual is not finite."""


class IndefiniteBreakdown(SolverError):
    """CG met a non-positive curvature or an unsymmetric preconditioner."""


class StagnationDetected(SolverError):
    """GMRES made no meaningful progress over many iterations."""
