import numpy as np
import pytest

from p2amg import (
    ProblemKind,
    ProblemSpec,
    assemble,
    generate_unit_cube_mesh,
    tag_boundary,
)

EPS = 1e-12


def z_faces(v: np.ndarray) -> np.ndarray:
    return (v[:, 2] < EPS) | (v[:, 2] > 1.0 - EPS)


def everywhere(v: np.ndarray) -> np.ndarray:
    return np.ones(len(v), dtype=bool)


def nowhere(v: np.ndarray) -> np.ndarray:
    return np.zeros(len(v), dtype=bool)


def lid_displacement(v: np.ndarray) -> np.ndarray:
    g = np.zeros_like(v)
    g[:, 2] = v[:, 2] > 0.5
    return g


@pytest.fixture(scope="session")
def cube1():
    return tag_boundary(generate_unit_cube_mesh(1), z_faces)


@pytest.fixture(scope="session")
def cube2():
    return tag_boundary(generate_unit_cube_mesh(2), z_faces)


@pytest.fixture(scope="session")
def cube4():
    return tag_boundary(generate_unit_cube_mesh(4), z_faces)


@pytest.fixture(scope="session")
def laplace2(cube2):
    spec = ProblemSpec(kind=ProblemKind.VECTOR_LAPLACE, g_dirichlet=lid_displacement)
    return assemble(cube2, spec)


@pytest.fixture(scope="session")
def laplace4(cube4):
    spec = ProblemSpec(kind=ProblemKind.VECTOR_LAPLACE, g_dirichlet=lid_displacement)
    return assemble(cube4, spec)


@pytest.fixture(scope="session")
def stokes1(cube1):
    spec = ProblemSpec(kind=ProblemKind.STOKES, mu=0.5, g_dirichlet=lid_displacement)
    return assemble(cube1, spec)


@pytest.fixture(scope="session")
def stokes2(cube2):
    spec = ProblemSpec(kind=ProblemKind.STOKES, mu=0.5, g_dirichlet=lid_displacement)
    return assemble(cube2, spec)


@pytest.fixture(scope="session")
def mixed2(cube2):
    spec = ProblemSpec(
        kind=ProblemKind.ELASTICITY_MIXED,
        mu=1.15e6,
        lam=1.73e6,
        g_dirichlet=lid_displacement,
    )
    return assemble(cube2, spec)
