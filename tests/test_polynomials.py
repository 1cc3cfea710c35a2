"""Polynomial layer and its coefficient-space twin."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherestab.polynomials import Poly, _exponent_table, _exponents, evaluate, exps

from poly_oracle import (
    add,
    degree,
    diff,
    euler,
    exps_enumerated,
    field_surface_div,
    is_zero,
    laplacian,
    monomial_exponents,
    mul,
    pair,
    sphere_integral,
    xmul,
)


def _random_poly(rng, n=3, deg=3):
    coeffs = {}
    for d in range(deg + 1):
        for e in monomial_exponents(n, d):
            coeffs[e] = rng.normal()
    return Poly(n, coeffs)


def test_monomial_counts():
    assert len(monomial_exponents(3, 2)) == 6
    assert len(monomial_exponents(4, 3)) == 20
    assert monomial_exponents(2, 0) == [(0, 0)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_exponent_arrays_equal_the_enumeration(n):
    for k in range(31 if n <= 3 else 17):
        E = _exponents(n, k)
        want = exps_enumerated(n, k)
        assert E.dtype == np.int64 and E.shape == (len(want), n) and E.tolist() == [list(e) for e in want]
        assert exps(n, k) == want
        assert not E.flags.writeable
        with pytest.raises(ValueError):
            E[0, 0] = 1


def test_poly_terms_find_their_positions_by_code(rng):
    for n in (2, 3, 4):
        terms = {e: rng.normal() for d in range(7) for e in exps_enumerated(n, d)}
        p = Poly(n, terms)
        assert p.coeffs == terms
        for d, block in p.blocks.items():
            assert block.tolist() == [terms[e] for e in exps_enumerated(n, d)]
    for bad in ({(1, 0): 1.0}, {(2, -1, 0): 1.0}, {(1, 0, 0, 0): 1.0}):
        with pytest.raises(KeyError):
            Poly(3, bad)


def test_product_eval_consistency(rng):
    p, q = _random_poly(rng), _random_poly(rng)
    X = rng.normal(size=(25, 3))
    assert np.max(np.abs(mul(p, q)(X) - p(X) * q(X))) < 1e-10


def test_derivative_of_product(rng):
    p, q = _random_poly(rng, deg=2), _random_poly(rng, deg=2)
    X = rng.normal(size=(10, 3))
    lhs = diff(mul(p, q), 0)(X)
    rhs = mul(diff(p, 0), q)(X) + mul(p, diff(q, 0))(X)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_laplacian_examples():
    # x1^2 - x2^2 and x1 x2 are harmonic; |x|^2 is not
    assert is_zero(laplacian(Poly(3, {(2, 0, 0): 1.0, (0, 2, 0): -1.0})))
    assert is_zero(laplacian(Poly(3, {(1, 1, 0): 1.0})))
    r2 = Poly(3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0})
    assert abs(laplacian(r2).coeffs[(0, 0, 0)] - 6.0) < 1e-14


def test_sphere_integral_matches_pv(rng):
    p = _random_poly(rng)
    pv = p
    assert abs(sphere_integral(p) - sphere_integral(pv)) < 1e-12
    q = _random_poly(rng)
    direct = sphere_integral(mul(p, q))
    assert abs(pair(pv, q) - direct) < 1e-10


def test_pv_euler_identity(rng):
    # sum_i x_i d_i p has the degree-weighted coefficients of p
    p = _random_poly(rng, deg=4)
    pv = p
    direct = None
    for i in range(3):
        term = xmul(diff(pv, i), i)
        direct = term if direct is None else add(direct, term)
    X = rng.normal(size=(15, 3))
    assert np.max(np.abs(direct(X) - euler(pv)(X))) < 1e-9


def test_surface_divergence_pv_vs_pointwise(rng):
    from spherestab.spheremap import poly_map, surface_divergence

    comps = [_random_poly(rng, deg=3) for _ in range(3)]
    u = poly_map(3, comps)
    d = field_surface_div(comps)
    X = rng.normal(size=(30, 3))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    J = u.at(X)[1]()
    assert np.max(np.abs(d(X) - surface_divergence(J, X))) < 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
def test_moment_equals_poly_integral(a, b, c):
    from spherestab.moments import sphere_moment

    p = Poly(3, {(a, b, c): 1.0})
    assert abs(sphere_integral(p) - float(sphere_moment(3, (a, b, c)))) < 1e-15


def test_gram_rect_and_product_index_equal_exponent_sums():
    # oracle: position of p + q found by lookup, moment of p + q summed exactly
    from spherestab.moments import sphere_moment
    from spherestab.polynomials import _product_index, exps, gram_rect

    for n in range(2, 6):
        for k1 in range(7):
            for k2 in range(7):
                pos = {e: i for i, e in enumerate(exps(n, k1 + k2))}
                sums = [tuple(a + b for a, b in zip(p, q)) for p in exps(n, k1) for q in exps(n, k2)]
                assert np.array_equal(_product_index(n, k1, k2), [pos[s] for s in sums])
                want = np.array([float(sphere_moment(n, s)) for s in sums])
                assert np.array_equal(gram_rect(n, k1, k2), want.reshape(len(exps(n, k1)), len(exps(n, k2))))


def _evaluate_row_major(polys, points, chunk=1024):
    """`evaluate` with its monomial table laid out (nodes, monomials): the reference."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[1]
    kmax = max(degree(p) for p in polys)
    E = _exponent_table(n, kmax)
    C = np.zeros((E.shape[0], len(polys)))
    for j, p in enumerate(polys):
        for d, v in p.blocks.items():
            o = math.comb(n + d - 1, n)
            C[o : o + v.shape[0], j] = v
    out = np.empty((pts.shape[0], len(polys)))
    for s in range(0, pts.shape[0], chunk):
        part = pts[s : s + chunk]
        powers = np.empty((part.shape[0], n, kmax + 1))
        powers[:, :, 0] = 1.0
        for j in range(1, kmax + 1):
            powers[:, :, j] = powers[:, :, j - 1] * part
        table = powers[:, 0, E[:, 0]]
        for i in range(1, n):
            table *= powers[:, i, E[:, i]]
        out[s : s + chunk] = table @ C
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_evaluate_bit_identical_to_row_major_table(n, rng):
    for deg in range(7):
        polys = [_random_poly(rng, n, deg) for _ in range(1 + deg % 4)]
        for N in (1, 1023, 1024, 1025, 4608):
            X = rng.normal(size=(N, n))
            X /= np.linalg.norm(X, axis=1, keepdims=True)
            got = evaluate([(1, p.blocks) for p in polys], X)
            assert got.shape == (len(polys), N)
            assert np.array_equal(got, _evaluate_row_major(polys, X).T), (deg, N)
