"""Quadrature grids on S^{n-1} (n = 2, 3, 4) and on the unit ball.

Weights are normalized to sum to 1, matching the normalized-measure
convention used throughout.  Each grid declares an exactness degree d:
every monomial of total degree <= d integrates to its exact moment.

Grid recipes
------------
n = 2   uniform angles (trapezoid rule), exact for trig polynomials of
        degree < resolution;
n = 3   Gauss-Legendre in the polar cosine x uniform azimuth;
n = 4   Gauss-Chebyshev of the second kind (weight sqrt(1-t^2)), in
        closed form, in the first polar cosine x Gauss-Legendre in the
        second x uniform azimuth.  The Chebyshev rule absorbs the sin^2
        surface Jacobian exactly, which a plain Legendre rule cannot.

For the piecewise-defined circle maps there is a segmented grid whose
panels align with the breakpoints, so per-segment Gauss quadrature keeps
spectral accuracy across kinks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .moments import ball_moment, sphere_moment

DEFAULT_RESOLUTIONS = {2: 64, 3: 48, 4: 24}

__all__ = [
    "SphereGrid",
    "BallGrid",
    "chebyshev_u_rule",
    "build_sphere_grid",
    "sphere_grid",
    "default_sphere_grid",
    "covering_sphere_grid",
    "build_ball_grid",
    "covering_ball_grid",
    "build_circle_grid_segmented",
    "integrate",
]


@dataclass(frozen=True, eq=False)  # identity semantics: grids hash as objects
class SphereGrid:
    """Nodes and normalized weights on S^{n-1} with a declared exactness degree."""

    n: int
    nodes: np.ndarray    # (N, n) unit vectors
    weights: np.ndarray  # (N,) nonnegative, sum 1
    exactness: int

    def __post_init__(self):
        if self.nodes.shape[1] != self.n:
            raise ValueError("node dimension mismatch")
        if self.nodes.shape[0] != self.weights.shape[0]:
            raise ValueError("node/weight count mismatch")

    @property
    def size(self) -> int:
        return self.nodes.shape[0]


@dataclass(frozen=True, eq=False)
class BallGrid:
    """Nodes and normalized weights in the open unit ball B_1."""

    n: int
    nodes: np.ndarray
    weights: np.ndarray
    exactness: int

    @property
    def size(self) -> int:
        return self.nodes.shape[0]


def integrate(grid: SphereGrid | BallGrid, samples: np.ndarray) -> float:
    """Normalized integral of a per-node density; its length must match the grid.

    NumPy's pairwise sum rather than a BLAS dot: its error grows with log N,
    not N (E of a homothety stays at 1e-16), and on the 27 648 nodes of the
    default n = 4 grid a threaded ddot spends milliseconds waking its threads.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape[0] != grid.size:
        raise ValueError(f"expected {grid.size} samples, got {samples.shape[0]}")
    return float(np.sum(grid.weights * samples))


def chebyshev_u_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """m-point Gauss rule for the weight sqrt(1-t^2) on [-1, 1], normalized to mass 1.

    Gauss-Chebyshev of the second kind in closed form: t_i = cos(theta_i) and
    w_i = pi/(m+1) sin^2(theta_i) / (pi/2) at theta_i = i pi/(m+1), taken for
    i = m .. 1 so that the nodes ascend.  Exact to degree 2m - 1.
    """
    theta = np.arange(m, 0, -1) * np.pi / (m + 1)
    return np.cos(theta), np.pi / (m + 1) * np.sin(theta) ** 2 / (np.pi / 2.0)


def build_sphere_grid(n: int, resolution: int) -> SphereGrid:
    """Product quadrature grid on S^{n-1} for n in {2, 3, 4}."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    if n == 2:
        theta = 2.0 * np.pi * np.arange(resolution) / resolution
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        weights = np.full(resolution, 1.0 / resolution)
        return SphereGrid(2, nodes, weights, exactness=resolution - 1)
    if n == 3:
        t, wt = leggauss(resolution)
        nphi = 2 * resolution
        phi = 2.0 * np.pi * np.arange(nphi) / nphi
        st = np.sqrt(1.0 - t**2)
        nodes = np.empty((resolution, nphi, 3))
        nodes[..., 0] = st[:, None] * np.cos(phi)
        nodes[..., 1] = st[:, None] * np.sin(phi)
        nodes[..., 2] = t[:, None]
        weights = np.repeat(0.5 * wt / nphi, nphi)
        return SphereGrid(3, nodes.reshape(-1, 3), weights, exactness=min(2 * resolution - 1, nphi - 1))
    if n == 4:
        # measure: sin^2(theta1) sin(theta2) dtheta1 dtheta2 dphi
        t1, w1 = chebyshev_u_rule(resolution)
        t2, w2 = leggauss(resolution)
        nphi = 2 * resolution
        phi = 2.0 * np.pi * np.arange(nphi) / nphi
        w2 = w2 / 2.0
        s1 = np.sqrt(1.0 - t1**2)
        s2 = np.sqrt(1.0 - t2**2)
        r12 = (s1[:, None] * s2)[:, :, None]
        nodes = np.empty((resolution, resolution, nphi, 4))
        nodes[..., 0] = r12 * np.cos(phi)
        nodes[..., 1] = r12 * np.sin(phi)
        nodes[..., 2] = (s1[:, None] * t2)[:, :, None]
        nodes[..., 3] = t1[:, None, None]
        weights = np.repeat((w1[:, None] * w2 / nphi).ravel(), nphi)
        exact = min(2 * resolution - 1, nphi - 1)
        return SphereGrid(4, nodes.reshape(-1, 4), weights, exactness=exact)
    raise ValueError(f"unsupported dimension n={n} (grids exist for n in {{2,3,4}})")


@lru_cache(maxsize=None)
def sphere_grid(n: int, resolution: int) -> SphereGrid:
    """The grid of :func:`build_sphere_grid`, built once per (n, resolution)."""
    return build_sphere_grid(n, resolution)


def default_sphere_grid(n: int) -> SphereGrid:
    return sphere_grid(n, DEFAULT_RESOLUTIONS[n])


def covering_sphere_grid(n: int, degree: int) -> SphereGrid:
    """The smallest :func:`sphere_grid` of S^{n-1} exact to the given degree."""
    if n == 2:
        return sphere_grid(2, max(2, degree + 1))
    return sphere_grid(n, max(2, (degree + 2) // 2))


def build_ball_grid(n: int, resolution: int) -> BallGrid:
    """Radial Gauss-Legendre (with r^{n-1} Jacobian) x sphere grid."""
    sph = build_sphere_grid(n, resolution)
    nr = max(resolution // 2, 4)
    r, wr = leggauss(nr)
    r = 0.5 * (r + 1.0)          # map to (0, 1)
    wr = 0.5 * wr * n * r ** (n - 1)  # normalized radial measure n r^{n-1} dr
    nodes = np.concatenate([ri * sph.nodes for ri in r], axis=0)
    weights = np.concatenate([wri * sph.weights for wri, ri in zip(wr, r)])
    exact = min(sph.exactness, 2 * nr - 1 - (n - 1))
    return BallGrid(n, nodes, weights, exactness=exact)


@lru_cache(maxsize=None)
def covering_ball_grid(n: int, degree: int) -> BallGrid:
    """The smallest :func:`build_ball_grid` of B_1 exact to the given degree."""
    r = 2
    while (g := build_ball_grid(n, r)).exactness < degree:
        r += 1
    return g


def build_circle_grid_segmented(breakpoints: np.ndarray, points_per_segment: int) -> SphereGrid:
    """Gauss-Legendre panels on S^1 between consecutive breakpoint angles.

    Breakpoints must cover [0, 2*pi] after sorting (first 0, last 2*pi not
    required; the wrap segment is added automatically).  Exact for piecewise
    trig polynomials aligned with the panels, to machine precision.
    """
    bp = np.sort(np.mod(np.asarray(breakpoints, dtype=float), 2.0 * np.pi))
    bp = np.unique(np.concatenate([[0.0], bp, [2.0 * np.pi]]))
    t, wt = leggauss(points_per_segment)
    thetas, weights = [], []
    for a, b in zip(bp[:-1], bp[1:]):
        if b - a < 1e-14:
            continue
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        thetas.append(mid + half * t)
        weights.append(half * wt / (2.0 * np.pi))
    theta = np.concatenate(thetas)
    w = np.concatenate(weights)
    nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return SphereGrid(2, nodes, w, exactness=0)


def grid_moment_residual(grid: SphereGrid, p: tuple[int, ...]) -> float:
    """|quadrature - exact| for the monomial x^p; diagnostic for exactness."""
    vals = np.prod(grid.nodes ** np.asarray(p), axis=1)
    return abs(integrate(grid, vals) - float(sphere_moment(grid.n, p)))


def ball_grid_moment_residual(grid: BallGrid, p: tuple[int, ...]) -> float:
    vals = np.prod(grid.nodes ** np.asarray(p), axis=1)
    return abs(integrate(grid, vals) - float(ball_moment(grid.n, p)))
