import itertools
import math

import numpy as np

from p2amg.basis import shape_gradients, tet_quadrature_degree4

from fem_oracles import shape_values, triangle_quadrature_degree4


def exact_tet_monomial(a, b, c):
    """int over the reference tet of x^a y^b z^c (x,y,z = lam2,lam3,lam4)."""
    return (
        math.factorial(a)
        * math.factorial(b)
        * math.factorial(c)
        / math.factorial(a + b + c + 3)
    )


def test_tet_rule_degree4_exact():
    rule = tet_quadrature_degree4()
    assert abs(rule.weights.sum() - 1.0) <= 1e-14
    for a, b, c in itertools.product(range(5), repeat=3):
        if a + b + c > 4:
            continue
        approx = (1.0 / 6.0) * np.sum(
            rule.weights
            * rule.points[:, 1] ** a
            * rule.points[:, 2] ** b
            * rule.points[:, 3] ** c
        )
        exact = exact_tet_monomial(a, b, c)
        assert abs(approx - exact) <= 1e-14 * max(1.0, abs(exact) * 1e3)


def test_tet_rule_x2y2():
    rule = tet_quadrature_degree4()
    approx = (1.0 / 6.0) * np.sum(
        rule.weights * rule.points[:, 1] ** 2 * rule.points[:, 2] ** 2
    )
    exact = exact_tet_monomial(2, 2, 0)
    assert abs(approx - exact) <= 1e-14 * abs(exact) / 1e-2


def test_triangle_rule_degree4_exact():
    pts, wts = triangle_quadrature_degree4()
    assert abs(wts.sum() - 1.0) <= 1e-12
    for a, b in itertools.product(range(5), repeat=2):
        if a + b > 4:
            continue
        approx = 0.5 * np.sum(wts * pts[:, 1] ** a * pts[:, 2] ** b)
        exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
        assert abs(approx - exact) <= 1e-13


def test_partition_of_unity():
    rng = np.random.default_rng(3)
    w = rng.random((20, 4))
    bary = w / w.sum(axis=1, keepdims=True)
    vals = shape_values(bary)
    # the four hats alone sum to one; bubbles are a hierarchical correction
    assert np.allclose(vals[:, :4].sum(axis=1), 1.0, atol=1e-14)


def test_bubbles_vanish_at_vertices():
    vals = shape_values(np.eye(4))
    assert np.allclose(vals[:, 4:], 0.0)
    assert np.allclose(vals[:, :4], np.eye(4))


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    coords = np.array(
        [[0.1, 0.0, -0.2], [1.2, 0.1, 0.0], [0.2, 0.9, 0.1], [0.3, 0.2, 1.1]]
    )
    # hat gradients from the affine system [x;1] = M [lam]
    m = np.vstack([coords.T, np.ones(4)])
    minv = np.linalg.inv(m)

    def bary(x):
        return minv @ np.append(x, 1.0)

    grad_lambda = minv[:, :3][None]  # rows are grad lam_i
    point = np.array([0.3, 0.3, 0.2])
    lam = bary(point)
    grads = shape_gradients(lam, grad_lambda)[0]

    h = 1e-6
    for d in range(3):
        e = np.zeros(3)
        e[d] = h
        fd = (shape_values(bary(point + e)) - shape_values(bary(point - e))) / (2 * h)
        assert np.allclose(grads[:, d], fd, atol=1e-7)
