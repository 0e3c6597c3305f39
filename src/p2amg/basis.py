"""Hierarchical P1 + quadratic-bubble reference basis and quadrature.

The scalar basis on a tetrahedron consists of the four barycentric hat
functions followed by six edge bubbles ``4*lam_a*lam_b`` taken in
``mesh.TET_EDGES`` order.  Hats and bubbles are kept separate throughout
the library: vertex coefficients carry the piecewise-linear part of a
field and edge coefficients its quadratic correction.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .mesh import TET_EDGES

__all__ = [
    "N_SCALAR_BASIS",
    "ReferenceBasis",
    "tet_quadrature_degree4",
    "shape_gradients",
]

#: Scalar basis functions per tetrahedron (4 hats + 6 edge bubbles).
N_SCALAR_BASIS = 10


@dataclass(frozen=True)
class ReferenceBasis:
    """Quadrature rule in barycentric coordinates.

    ``points`` has shape (nq, 4) and ``weights`` shape (nq,); the
    weights sum to one, so an integral over a tet of volume V is
    ``V * sum(w_q * f(x_q))``.  The rule is exact for polynomials of
    total degree four.
    """

    points: np.ndarray
    weights: np.ndarray


def tet_quadrature_degree4() -> ReferenceBasis:
    """A new read-only symmetric 11-point rule on the tetrahedron, exact for degree 4."""
    points = [(0.25, 0.25, 0.25, 0.25)]
    weights = [-148.0 / 1875.0]

    a, b = 11.0 / 14.0, 1.0 / 14.0
    for i in range(4):
        p = [b] * 4
        p[i] = a
        points.append(tuple(p))
        weights.append(343.0 / 7500.0)

    c = 0.25 + 0.25 * np.sqrt(5.0 / 14.0)
    d = 0.25 - 0.25 * np.sqrt(5.0 / 14.0)
    for i, j in itertools.combinations(range(4), 2):
        p = [d] * 4
        p[i] = c
        p[j] = c
        points.append(tuple(p))
        weights.append(56.0 / 375.0)

    pts = np.array(points)
    wts = np.array(weights)
    pts.setflags(write=False)
    wts.setflags(write=False)
    return ReferenceBasis(points=pts, weights=wts)


def shape_gradients(bary: np.ndarray, grad_lambda: np.ndarray) -> np.ndarray:
    """Gradients of the ten basis functions at one barycentric point.

    Parameters
    ----------
    bary : (4,) array
        Barycentric coordinates of the evaluation point.
    grad_lambda : (m, 4, 3) array
        Constant hat gradients of ``m`` tetrahedra.

    Returns
    -------
    (m, 10, 3) array
    """
    m = grad_lambda.shape[0]
    out = np.empty((m, N_SCALAR_BASIS, 3))
    out[:, :4] = grad_lambda
    for k, (i, j) in enumerate(TET_EDGES):
        out[:, 4 + k] = 4.0 * (
            bary[i] * grad_lambda[:, j] + bary[j] * grad_lambda[:, i]
        )
    return out
