"""Worked example families and stability-ratio experiments.

The two circle families have exact closed forms:

* flip family (parameter sigma in (0, 2pi)): the identity except on the
  arc of width sigma around the south point, where the map is a flip
  across the chord.  It is an isometry, its gradient gap to the identity
  and its volume deficit both equal (sigma - sin sigma)/pi  ~  sigma^3.
* stretch family (sigma in (0, 1/2)): a triple cover of a small arc via
  the piecewise-affine circle map f_sigma.  The winding number stays 1,
  the squared stretch deficit is 4 sigma^2/(1-2 sigma), and the signed
  speed gap integral is 4 sigma + 4 sigma^2/(1-2 sigma)  ~  sigma.

The ellipsoid family diag(1, 1, 1+sigma) x drives the conformal sweep,
and the short homothety (1-sigma) id the volume-only isometric sweep.
Sweeps record deficits, the nearest-rotation or nearest-Moebius left
side, their ratio, and fitted log-log rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .deficits import DeficitReport, deficit_report
from .forms import q_n, tangential_energy
from .moebius import nearest_moebius, nearest_rotation
from .quadrature import SphereGrid, build_circle_grid_segmented, integrate
from .spheremap import (
    SphereMap,
    _grid_for,
    _node_dots,
    identity_map,
    linear_map,
    sampled_map,
    tangential_jacobians,
    volume_integrand,
)

__all__ = [
    "flip_family",
    "stretch_family",
    "ellipsoid_family",
    "homothety_family",
    "grad_gap_to_identity",
    "signed_speed_gap",
    "rate_fit",
    "FamilySweep",
    "stability_sweep",
    "sweep_input_error",
    "family_dimension",
    "expansion_suite",
]


# open parameter interval of each family
_DOMAINS = {
    "flip": (0.0, 2.0 * np.pi),
    "stretch": (0.0, 0.5),
    "ellipsoid": (0.0, 1.0),
    "homothety": (0.0, 1.0),
}


def _domain_error(family: str, sigma: float) -> str | None:
    lo, hi = _DOMAINS[family]
    if lo < sigma < hi:
        return None
    return f"{family} parameter {float(sigma):g} must lie in ({lo:g}, {hi:g})"


def _check_parameter(family: str, sigma: float) -> None:
    problem = _domain_error(family, sigma)
    if problem:
        raise ValueError(problem)


def _circle_map(theta_breaks, u_of_theta, du_of_theta) -> SphereMap:
    grid = build_circle_grid_segmented(np.asarray(theta_breaks), 48)
    theta = np.arctan2(grid.nodes[:, 1], grid.nodes[:, 0]) % (2.0 * np.pi)
    U = u_of_theta(theta)
    dU = du_of_theta(theta)
    tang = np.stack([-np.sin(theta), np.cos(theta)], axis=1)
    J = dU[:, :, None] * tang[:, None, :]
    return sampled_map(grid, U, J)


def flip_family(sigma: float) -> SphereMap:
    """Circle map equal to the identity except on the sigma-arc at the
    south point, where it flips across the horizontal chord."""
    _check_parameter("flip", sigma)
    a = 1.5 * np.pi - 0.5 * sigma
    b = 1.5 * np.pi + 0.5 * sigma
    y0 = np.sin(a)

    def val(theta):
        flip = (theta >= a) & (theta < b)
        return np.stack([np.cos(theta), np.where(flip, 2.0 * y0 - np.sin(theta), np.sin(theta))], axis=1)

    def dval(theta):
        flip = (theta >= a) & (theta < b)
        return np.stack([-np.sin(theta), np.where(flip, -np.cos(theta), np.cos(theta))], axis=1)

    return _circle_map([0.0, a, b], val, dval)


def stretch_family(sigma: float) -> SphereMap:
    """Circle map from the triple-cover profile f_sigma on [0, 1]."""
    _check_parameter("stretch", sigma)

    def f(t):
        return np.where(t < sigma, t, np.where(t < 2.0 * sigma, 2.0 * sigma - t, (t - 2.0 * sigma) / (1.0 - 2.0 * sigma)))

    def fp(t):
        return np.where(t < sigma, 1.0, np.where(t < 2.0 * sigma, -1.0, 1.0 / (1.0 - 2.0 * sigma)))

    def val(theta):
        ft = f(theta / (2.0 * np.pi))
        return np.stack([np.cos(2.0 * np.pi * ft), np.sin(2.0 * np.pi * ft)], axis=1)

    def dval(theta):
        t = theta / (2.0 * np.pi)
        ft, fpt = f(t), fp(t)
        return fpt[:, None] * np.stack([-np.sin(2.0 * np.pi * ft), np.cos(2.0 * np.pi * ft)], axis=1)

    breaks = [0.0, 2.0 * np.pi * sigma, 4.0 * np.pi * sigma]
    return _circle_map(breaks, val, dval)


def ellipsoid_family(sigma: float, n: int = 3) -> SphereMap:
    """diag(1, ..., 1, 1+sigma) x; closed forms D = (n-1+(1+sigma)^2)/n etc."""
    _check_parameter("ellipsoid", sigma)
    d = np.ones(n)
    d[-1] = 1.0 + sigma
    return linear_map(np.diag(d))


def homothety_family(sigma: float, n: int = 3) -> SphereMap:
    """(1 - sigma) id: a globally short map with pure volume deficit."""
    _check_parameter("homothety", sigma)
    return linear_map((1.0 - sigma) * np.eye(n))


def grad_gap_to_identity(u: SphereMap, grid: SphereGrid | None = None) -> float:
    """Integral of |grad_T u - grad_T id|^2."""
    g = _grid_for(u, grid)
    X, _, J = u.sample(g)
    TJ = tangential_jacobians(J - np.eye(u.n), X)
    return integrate(g, _node_dots(TJ, TJ))


def signed_speed_gap(u: SphereMap, grid: SphereGrid | None = None) -> float:
    """Circle maps only: integral of (signed speed - 1)^2, the 1-d Dirichlet
    gap of the angular profile."""
    if u.n != 2:
        raise ValueError("signed speed defined for circle maps")
    g = grid or u.grid
    X, U, J = u.sample(g)
    omega = volume_integrand(U, J, X)
    return integrate(g, (omega - 1.0) ** 2)


def rate_fit(pairs) -> tuple[float, float, float]:
    """Least-squares slope of log(value) against log(sigma).

    Returns (slope, intercept, rms residual); rejects nonpositive data.
    """
    pairs = [(float(s), float(v)) for s, v in pairs]
    if len(pairs) < 4:
        raise ValueError("need at least 4 points for a rate fit")
    if any(s <= 0 or v <= 0 for s, v in pairs):
        raise ValueError("rate fit needs positive abscissae and values")
    xs = np.log([s for s, _ in pairs])
    ys = np.log([v for _, v in pairs])
    A = np.stack([xs, np.ones_like(xs)], axis=1)
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    resid = float(np.sqrt(np.mean((A @ coef - ys) ** 2)))
    return float(coef[0]), float(coef[1]), resid


# builder, default theorem, dimension n of the domain sphere S^{n-1}
_FAMILIES = {
    "flip": (flip_family, "isometric", 2),
    "stretch": (stretch_family, "isometric", 2),
    "homothety": (homothety_family, "isometric", 3),
    "ellipsoid": (ellipsoid_family, "conformal", 3),
}


def family_dimension(family: str) -> int:
    """n for a family of maps S^{n-1} -> R^n; the circle families (n = 2) carry their own grids."""
    return _FAMILIES[family][2]


def sweep_input_error(family: str, sigmas, theorem: str | None = None) -> str | None:
    """Why :func:`stability_sweep` cannot run on these inputs, or None if it can."""
    if family not in _FAMILIES:
        return f"unknown family {family!r}; choose from {sorted(_FAMILIES)}"
    _, default_thm, n = _FAMILIES[family]
    for s in sigmas:
        problem = _domain_error(family, s)
        if problem:
            return problem
    theorem = theorem or default_thm
    if theorem not in ("isometric", "conformal"):
        return "theorem must be 'isometric' or 'conformal'"
    if theorem == "conformal" and n != 3:
        return f"the conformal theorem needs maps of S^2 into R^3; the {family} family maps S^{n - 1}"
    return None


@dataclass
class FamilySweep:
    family: str
    theorem: str
    sigmas: list[float]
    reports: list[DeficitReport]
    lhs: list[float]
    energies: list[float]          # the family's natural energy gap
    ratios: list[float]
    energy_slope: tuple[float, float, float] | None = None
    notes: dict = field(default_factory=dict)

    def rows(self):
        for s, rep, l, r in zip(self.sigmas, self.reports, self.lhs, self.ratios):
            yield {
                "sigma": s,
                "lhs": l,
                "delta": rep.delta,
                "epsilon": rep.epsilon,
                "E": rep.combined if rep.combined is not None else float("nan"),
                "ratio": r,
            }


def stability_sweep(family: str, sigmas, theorem: str | None = None,
                    grid: SphereGrid | None = None) -> FamilySweep:
    """Per-sigma deficits, stability left side and ratio for one family.

    theorem = "isometric": lhs is the nearest-rotation gradient distance,
    ratio lhs/(delta + epsilon).  theorem = "conformal": lhs is the
    nearest-Moebius value, ratio lhs/E.
    """
    sig = sorted(float(s) for s in sigmas)
    problem = sweep_input_error(family, sig, theorem)
    if problem:
        raise ValueError(problem)
    builder, default_thm, _n = _FAMILIES[family]
    theorem = theorem or default_thm
    reports, lhs, energies, ratios = [], [], [], []
    for s in sig:
        u = builder(s)
        if u.is_sampled:
            grid = None  # circle families carry their own segmented grids
        rep = deficit_report(u, grid)
        reports.append(rep)
        if family == "flip":
            energies.append(grad_gap_to_identity(u))
        elif family == "stretch":
            energies.append(signed_speed_gap(u))
        else:
            energies.append(grad_gap_to_identity(u, grid))
        if theorem == "isometric":
            _, val = nearest_rotation(u, grid)
            lhs.append(val)
            rhs = rep.delta + rep.epsilon
        elif theorem == "conformal":
            res = nearest_moebius(u, grid)
            lhs.append(res.value)
            rhs = rep.combined
        ratios.append(lhs[-1] / rhs if rhs and rhs > 0 else float("inf"))
    sweep = FamilySweep(family, theorem, sig, reports, lhs, energies, ratios)
    try:
        sweep.energy_slope = rate_fit(zip(sig, energies))
    except ValueError:
        sweep.energy_slope = None
    return sweep


@dataclass
class ExpansionRow:
    label: str                 # e.g. "3,3,3" or "mixed"
    t: float
    deficit: float             # E_{n-1}(id + t w)
    quadratic: float           # t^2 q_n(w)
    remainder: float           # |deficit - quadratic|


def expansion_suite(n: int = 3, count: int = 20, kmax: int = 4,
                    ts=(1e-2, 1e-3), seed: int = 2024,
                    grid: SphereGrid | None = None) -> list[ExpansionRow]:
    """Second-order Taylor check: E(id + t w) tracks t^2 q_n(w) with a
    cubic remainder, for random unit-energy fields in the truncated space.

    The fields satisfy avg w = 0 and avg <w, x> = 0 by construction, so the
    scale normalization avg <id + t w, x> = 1 holds automatically.
    """
    from .deficits import combined_deficit
    from .operator import random_h_field

    rng = np.random.default_rng(seed)
    iden = identity_map(n)
    rows: list[ExpansionRow] = []
    for _ in range(count):
        w = random_h_field(n, kmax, rng)
        w = w.scale(1.0 / np.sqrt(tangential_energy(w)))
        qq = q_n(w, project=False)
        for t in ts:
            E = combined_deficit(iden + w.scale(t), grid)
            rows.append(ExpansionRow("mixed", t, E, t * t * qq, abs(E - t * t * qq)))
    return rows
