"""Exact moments and quadrature grids."""

from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherestab.config import Config
from spherestab.moments import ball_moment, sphere_moment
from spherestab.quadrature import (
    build_ball_grid,
    build_circle_grid_segmented,
    build_sphere_grid,
    chebyshev_u_rule,
    default_sphere_grid,
    integrate,
)


def test_sphere_moment_basics():
    assert sphere_moment(3, (0, 0, 0)) == 1
    assert sphere_moment(3, (2, 0, 0)) == Fraction(1, 3)
    assert sphere_moment(3, (1, 0, 0)) == 0
    assert sphere_moment(3, (4, 0, 0)) == Fraction(1, 5)
    assert sphere_moment(3, (2, 2, 0)) == Fraction(1, 15)
    assert sphere_moment(2, (2, 0)) == Fraction(1, 2)
    assert sphere_moment(4, (2, 0, 0, 0)) == Fraction(1, 4)


def test_sphere_moment_against_high_res_grid():
    # independent oracle: Gauss-Legendre x trapezoid product grid
    g = build_sphere_grid(3, 60)
    for p in [(4, 0, 0), (2, 2, 2), (6, 2, 0), (0, 0, 8)]:
        vals = np.prod(g.nodes ** np.asarray(p), axis=1)
        assert abs(integrate(g, vals) - float(sphere_moment(3, p))) < 1e-12


def test_ball_moment_radial_factor():
    assert ball_moment(3, (0, 0, 0)) == 1
    assert ball_moment(3, (2, 0, 0)) == Fraction(3, 5) * Fraction(1, 3)
    assert ball_moment(3, (1, 0, 0)) == 0


def test_ball_moment_against_grid():
    g = build_ball_grid(3, 24)
    for p in [(2, 0, 0), (4, 2, 0), (0, 6, 0)]:
        vals = np.prod(g.nodes ** np.asarray(p), axis=1)
        assert abs(float(g.weights @ vals) - float(ball_moment(3, p))) < 1e-12


def test_moment_symmetry_under_permutation():
    assert sphere_moment(3, (4, 2, 0)) == sphere_moment(3, (0, 2, 4))
    assert sphere_moment(4, (2, 2, 0, 0)) == sphere_moment(4, (0, 0, 2, 2))


def test_circle_grid_uniform():
    g = build_sphere_grid(2, 8)
    assert g.size == 8
    assert np.allclose(g.weights, 1.0 / 8)


@pytest.mark.parametrize("n,res", [(2, 64), (3, 48), (4, 24)])
def test_grid_invariants(n, res):
    # the default resolutions: Config and the default grid share one cache
    assert Config().grid(n) is default_sphere_grid(n)
    g = build_sphere_grid(n, res)
    assert abs(g.weights.sum() - 1.0) <= 1e-14
    assert g.weights.min() >= 0.0
    assert np.max(np.abs(np.linalg.norm(g.nodes, axis=1) - 1.0)) <= 1e-14
    rng = np.random.default_rng(n)
    for _ in range(15):
        p = tuple(2 * rng.integers(0, 3, size=n))
        if sum(p) > g.exactness:
            continue
        vals = np.prod(g.nodes ** np.asarray(p), axis=1)
        assert abs(integrate(g, vals) - float(sphere_moment(n, p))) <= 1e-12


@pytest.mark.parametrize("m", [2, 3, 5, 24, 40])
def test_chebyshev_u_rule_moments(m):
    # int t^(2k) sqrt(1-t^2) dt / (pi/2) = (2k)! / (k! (k+1)! 4^k), odd moments 0,
    # for every degree the m-point rule claims (<= 2m - 1)
    t, w = chebyshev_u_rule(m)
    assert t.shape == w.shape == (m,)
    assert np.all(np.diff(t) > 0.0) and np.all(w > 0.0)
    for j in range(2 * m):
        k = j // 2
        exact = Fraction(factorial(2 * k), factorial(k) * factorial(k + 1) * 4**k) if j % 2 == 0 else 0
        assert abs(float(np.sum(w * t**j)) - float(exact)) <= 1e-15, j


def _loop_sphere_grid_3(resolution):
    """The n = 3 product grid assembled one polar ring at a time."""
    t, wt = np.polynomial.legendre.leggauss(resolution)
    nphi = 2 * resolution
    phi = 2.0 * np.pi * np.arange(nphi) / nphi
    s = np.sqrt(1.0 - t**2)
    nodes = np.empty((resolution * nphi, 3))
    weights = np.empty(resolution * nphi)
    for i in range(resolution):
        ring = slice(i * nphi, (i + 1) * nphi)
        nodes[ring, 0] = s[i] * np.cos(phi)
        nodes[ring, 1] = s[i] * np.sin(phi)
        nodes[ring, 2] = t[i]
        weights[ring] = 0.5 * wt[i] / nphi
    return nodes, weights


@pytest.mark.parametrize("resolution", [2, 5, 48])
def test_sphere_grid_3_matches_loop_reference(resolution):
    g = build_sphere_grid(3, resolution)
    nodes, weights = _loop_sphere_grid_3(resolution)
    assert np.array_equal(g.nodes, nodes) and np.array_equal(g.weights, weights)


def test_grid_odd_symmetry():
    g = build_sphere_grid(3, 16)
    vals = g.nodes[:, 0] * g.nodes[:, 1]
    assert abs(integrate(g, vals)) <= 1e-14
    vals = g.nodes[:, 0] ** 4
    assert abs(integrate(g, vals) - 0.2) <= 1e-12


def test_integrate_length_mismatch():
    g = build_sphere_grid(2, 8)
    with pytest.raises(ValueError):
        integrate(g, np.ones(7))


@settings(max_examples=25, deadline=None)
@given(a=st.floats(-5, 5), b=st.floats(-5, 5))
def test_integrate_linear(a, b):
    g = build_sphere_grid(2, 16)
    r = np.random.default_rng(0)
    f1, f2 = r.normal(size=(2, g.size))
    lhs = integrate(g, a * f1 + b * f2)
    rhs = a * integrate(g, f1) + b * integrate(g, f2)
    assert abs(lhs - rhs) <= 1e-10 * (1 + abs(a) + abs(b))


def test_segmented_circle_grid_exact_on_kinks():
    # integrand with a kink at the breakpoints, smooth trig inside
    a, b = 1.0, 2.5
    g = build_circle_grid_segmented([a, b], 32)
    theta = np.arctan2(g.nodes[:, 1], g.nodes[:, 0]) % (2 * np.pi)
    inside = (theta >= a) & (theta < b)
    vals = np.where(inside, np.cos(theta) ** 2, 0.0)
    exact = ((b - a) / 2 + (np.sin(2 * b) - np.sin(2 * a)) / 4) / (2 * np.pi)
    assert abs(integrate(g, vals) - exact) < 1e-14


def test_unsupported_dimension():
    with pytest.raises(ValueError):
        build_sphere_grid(5, 8)
