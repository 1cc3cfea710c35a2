"""The conformal group of S^{n-1}: explicit maps, recentering, gauge
fixing, and nearest-rotation / nearest-Moebius fits.

A group element is O compose phi_{xi,lam}, where phi_{xi,lam} is the
stereographic conjugate of a dilation by lam with pole xi:

    phi(x) = (2 lam x + (c (lam-1)^2 + 1 - lam^2) xi) / (c (1-lam^2) + 1 + lam^2),
    c = <x, xi>,

with analytic Jacobian.  Composition goes through the Lorentz-group
representation (boost of rapidity -log lam along xi), which returns exact
standard-form parameters without any stereographic algebra.

The solvers work in the boost chart phi_v = N'/D' (v = log(lam) xi),
smooth through v = 0, on analytic derivatives.  `recenter` zeroes the mean
of u compose phi_v by damped Newton over v; `gauge_fix` zeroes the
six-component first-moment functional (antisymmetrized first moments and
the first moment of the extension's divergence) of u compose R phi_v by
damped Newton with steps R <- exp(omega) R, v <- v + dv.  `nearest_moebius`
solves the rotation in closed form (Kabsch/Umeyama) for each boost v and
searches v by BFGS.

Both Newton functionals are moments against a node basis B followed by a
small matrix L, F = L vec(B U) for the values U of u: the recentring mean
has B = w (the weights) and L = I, the gauge functional B = w [x; psi_g]
(the coordinates and the degree-2 harmonics) and a fixed 6 x 24 L
(`_psi_moments`, which `psi_functional` evaluates too).  Every Newton
direction is a combination of a few per-node fields with coefficients in
(R, R v), so the Jacobian is a fixed contraction of the moments of those
fields against Du, accumulated over blocks of nodes by small GEMMs; each
block is sized so that no temporary reaches glibc's 128 KiB mmap
threshold.  u's values and Jacobians come from :meth:`SphereMap.at` and
:meth:`SphereMap.sample`, row-major and uncopied: a poly map's are
transposed views of its node-last monomial table.  A map without
Jacobians is refused where it is made, so every solver has them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import SolverError
from .harmonics import scalar_basis_coeffs
from .homogeneous import Stack
from .polynomials import evaluate, grad_index, linear_order
from .quadrature import SphereGrid, default_sphere_grid, integrate, sphere_grid
from .spheremap import (_BLOCK_BYTES, CallableBacking, SphereMap, _grid_for, _node_dots, callable_map,
                        projectors, tangential_jacobians, volume_integrand)

__all__ = [
    "MoebiusMap",
    "moebius_apply",
    "moebius_jacobian",
    "as_sphere_map",
    "compose_with_map",
    "inverse",
    "compose",
    "random_moebius",
    "conformality_residual",
    "dilation_scale",
    "psi_functional",
    "recenter",
    "gauge_fix",
    "nearest_rotation",
    "NearestMoebiusResult",
    "nearest_moebius",
]


@dataclass(frozen=True)
class MoebiusMap:
    """O compose phi_{xi, lam} on S^{n-1}.

    The (xi, lam) chart is two-to-one: phi_{-xi, lam} and phi_{xi, 1/lam}
    are the same map, so solvers may return either representative.
    """

    n: int
    O: np.ndarray
    xi: np.ndarray
    lam: float

    def __post_init__(self):
        O = np.asarray(self.O, dtype=float)
        xi = np.asarray(self.xi, dtype=float)
        object.__setattr__(self, "O", O)
        object.__setattr__(self, "xi", xi)
        if O.shape != (self.n, self.n):
            raise ValueError("orthogonal part has wrong shape")
        if np.max(np.abs(O.T @ O - np.eye(self.n))) > 1e-12:
            raise ValueError("orthogonal part is not orthogonal to 1e-12")
        if abs(np.linalg.norm(xi) - 1.0) > 1e-12:
            raise ValueError("pole must be a unit vector")
        if not self.lam > 0:
            raise ValueError("dilation must be positive")

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return moebius_apply(self, X)


def _dilation_parts(X: np.ndarray, xi: np.ndarray, lam: float):
    """phi_{xi,lam} = N / D at the M rows of X, with JN the Jacobian of N.

    Returns (D, N, JN): D = <x, xi> (1 - lam^2) + 1 + lam^2 of shape (M,),
    the numerator N of shape (M, n) and the constant (n, n) matrix
    JN = 2 lam I + (lam - 1)^2 xi xi^t.
    """
    c = X @ xi
    D = c * (1.0 - lam**2) + (1.0 + lam**2)
    if np.any(np.abs(D) <= 1e-14):
        raise ValueError("degenerate denominator (point off the sphere?)")
    g = c * (lam - 1.0) ** 2 + (1.0 - lam**2)
    N = 2.0 * lam * X + g[:, None] * xi
    JN = 2.0 * lam * np.eye(len(xi)) + (lam - 1.0) ** 2 * np.outer(xi, xi)
    return D, N, JN


def moebius_apply(phi: MoebiusMap, X: np.ndarray) -> np.ndarray:
    """Apply the map to unit vectors, rows of X."""
    return _apply(phi, _parts(phi, X))


def moebius_jacobian(phi: MoebiusMap, X: np.ndarray) -> np.ndarray:
    """Analytic ambient Jacobians at unit vectors, shape (N, n, n):
    O (JN / D - N c^t / D^2) with c = (1 - lam^2) xi the gradient of D."""
    return _jacobian(phi, _parts(phi, X))


def _parts(phi: MoebiusMap, X: np.ndarray):
    """`_dilation_parts` of phi at the rows of X: one application of phi."""
    return _dilation_parts(np.atleast_2d(np.asarray(X, dtype=float)), phi.xi, phi.lam)


def _apply(phi: MoebiusMap, parts) -> np.ndarray:
    D, N, _ = parts
    return (N / D[:, None]) @ phi.O.T


def _jacobian(phi: MoebiusMap, parts) -> np.ndarray:
    D, N, JN = parts
    J = (phi.O @ JN) / D[:, None, None]
    ON = N @ phi.O.T
    ON /= (D * D)[:, None]
    for k, c in enumerate((1.0 - phi.lam**2) * phi.xi):
        J[:, :, k] -= ON * c
    return J


def as_sphere_map(phi: MoebiusMap) -> SphereMap:
    return callable_map(phi.n, phi.n, lambda X: moebius_apply(phi, X), lambda X: moebius_jacobian(phi, X))


def compose_with_map(u: SphereMap, phi: MoebiusMap) -> SphereMap:
    """u compose phi as a callable-backed map (chain rule on Jacobians).

    Every evaluation applies phi once.  Its joint function takes u's values
    and Jacobians at phi(x) from :meth:`SphereMap.at`, one monomial table
    for a poly u.
    """
    def joint(X):
        parts = _parts(phi, X)
        U, jac = u.at(_apply(phi, parts))
        return U, lambda: np.matmul(jac(), _jacobian(phi, parts))

    return SphereMap(u.n, u.m, CallableBacking(lambda X: u.eval(moebius_apply(phi, X)), joint))


# ---------------------------------------------------------------------------
# group structure through the Lorentz representation
# ---------------------------------------------------------------------------

def _boost(xi: np.ndarray, s: float, n: int) -> np.ndarray:
    B = np.eye(n + 1)
    B[:n, :n] += (np.cosh(s) - 1.0) * np.outer(xi, xi)
    B[:n, n] = B[n, :n] = np.sinh(s) * xi
    B[n, n] = np.cosh(s)
    return B


def _lorentz(phi: MoebiusMap) -> np.ndarray:
    n = phi.n
    L = _boost(phi.xi, -np.log(phi.lam), n)
    R = np.eye(n + 1)
    R[:n, :n] = phi.O
    return R @ L


def _from_lorentz(L: np.ndarray, n: int) -> MoebiusMap:
    a = L[:n, n]
    na = np.linalg.norm(a)
    if na < 1e-14:
        O = _orthonormalize(L[:n, :n])
        return MoebiusMap(n, O, _default_pole(n), 1.0)
    ahat = a / na
    s = np.arcsinh(na)
    O = _orthonormalize((_boost(ahat, -s, n) @ L)[:n, :n])
    xi = O.T @ ahat
    xi = xi / np.linalg.norm(xi)
    return MoebiusMap(n, O, xi, float(np.exp(-s)))


def _orthonormalize(O: np.ndarray) -> np.ndarray:
    u, _, vt = np.linalg.svd(O)
    return u @ vt


def _default_pole(n: int) -> np.ndarray:
    xi = np.zeros(n)
    xi[-1] = 1.0
    return xi


def inverse(phi: MoebiusMap) -> MoebiusMap:
    """(O phi_{xi,lam})^{-1} = O^t phi_{O xi, 1/lam}."""
    return MoebiusMap(phi.n, phi.O.T, phi.O @ phi.xi, 1.0 / phi.lam)


def compose(phi1: MoebiusMap, phi2: MoebiusMap) -> MoebiusMap:
    """Standard-form parameters of phi1 compose phi2."""
    if phi1.n != phi2.n:
        raise ValueError("dimension mismatch")
    return _from_lorentz(_lorentz(phi1) @ _lorentz(phi2), phi1.n)


def random_moebius(rng: np.random.Generator, n: int = 3, lam_range=(0.5, 2.0),
                   rotate: bool = True) -> MoebiusMap:
    xi = rng.normal(size=n)
    xi /= np.linalg.norm(xi)
    lam = float(np.exp(rng.uniform(np.log(lam_range[0]), np.log(lam_range[1]))))
    if rotate:
        O = _orthonormalize(rng.normal(size=(n, n)))
        if np.linalg.det(O) < 0:
            O[:, 0] = -O[:, 0]
    else:
        O = np.eye(n)
    return MoebiusMap(n, O, xi, lam)


def conformality_residual(phi: MoebiusMap, grid: SphereGrid | None = None) -> float:
    """Max-node deviation of grad^t grad from (|grad|^2/(n-1)) I on T_xS."""
    X = (grid or default_sphere_grid(phi.n)).nodes
    TJ = tangential_jacobians(moebius_jacobian(phi, X), X)
    G = np.matmul(TJ.transpose(0, 2, 1), TJ)
    R = G - (np.sum(TJ * TJ, axis=(1, 2)) / (phi.n - 1))[:, None, None] * projectors(X)
    return float(np.max(np.sqrt(np.sum(R * R, axis=(1, 2)))))


def _boost_moebius(O: np.ndarray, v: np.ndarray) -> MoebiusMap:
    """O compose phi_{xi,lam} for the boost vector v = log(lam) xi."""
    nv = np.linalg.norm(v)
    if nv < 1e-14:
        return MoebiusMap(len(v), O, _default_pole(len(v)), 1.0)
    return MoebiusMap(len(v), O, v / nv, float(np.exp(nv)))


# below this |v| the boost coefficients come from their Taylor series, which
# are exact to roundoff there; the closed forms cancel like 1/|v|^4
_SERIES_CUTOFF = 0.1
# Taylor coefficients in s^0, s^2, ..., s^8 of h, beta, gamma and delta
_BOOST_SERIES = (
    (1.0, 1 / 6, 1 / 120, 1 / 5040, 1 / 362880),
    (1 / 2, 1 / 24, 1 / 720, 1 / 40320, 1 / 3628800),
    (1 / 3, 1 / 30, 1 / 840, 1 / 45360, 1 / 3991680),
    (1 / 12, 1 / 180, 1 / 6720, 1 / 453600, 1 / 47900160),
)


def _boost_coefficients(s: float) -> tuple[float, float, float, float]:
    """(h, beta, gamma, delta) at s = |v|, all even and smooth in s.

    h = sinh s / s, beta = (cosh s - 1) / s^2 and their radial derivatives
    gamma = h'(s) / s, delta = beta'(s) / s.
    """
    if s < _SERIES_CUTOFF:
        t = s * s
        return tuple(c0 + t * (c1 + t * (c2 + t * (c3 + t * c4))) for c0, c1, c2, c3, c4 in _BOOST_SERIES)
    try:
        sh, ch = math.sinh(s), math.cosh(s)
    except OverflowError:                      # s past about 710: outside the domain, like a degenerate D'
        raise ValueError("boost too large") from None
    half = 2.0 * math.sinh(0.5 * s) ** 2       # cosh s - 1 without cancellation
    return sh / s, half / s**2, (s * ch - sh) / s**3, (s * sh - 2.0 * half) / s**4


def _boost_parts(v: np.ndarray, X: np.ndarray):
    """phi_v = N'/D' at the rows of X: returns ((h, beta, gamma, delta), <v, x>, q, N').

    N' = x + beta <v, x> v - alpha and D' = cosh|v| - <alpha, x> with
    alpha = h v are N and D of `_dilation_parts` divided by 2 lam; q = 1/D'.
    """
    s = math.sqrt(float(v @ v))
    coef = _boost_coefficients(s)
    ch, alpha = math.cosh(s), coef[0] * v
    Dp = ch - X @ alpha
    if np.min(Dp) <= 1e-14 * ch:
        raise ValueError("degenerate denominator (boost too large)")
    xv = X @ v
    return coef, xv, 1.0 / Dp, X + (coef[1] * xv)[:, None] * v - alpha


# ---------------------------------------------------------------------------
# gauge functionals and solvers
# ---------------------------------------------------------------------------

def dilation_scale(u: SphereMap, grid: SphereGrid | None = None) -> float:
    """lambda_u = avg <u, x>, the linearization-compatible scale."""
    g = _grid_for(u, grid)
    X, U, _ = u.sample(g)
    return integrate(g, _node_dots(U, X))


def _moments(L: np.ndarray, B: np.ndarray, U: np.ndarray) -> np.ndarray:
    """L vec(B U) for values U (N, m): the moments P[b, i] = sum_a B_b(a) U_i(a) of U
    against the node basis B (r, N), taken b-major, then the matrix L (F, r m)."""
    return L @ (B @ U).ravel()


@lru_cache(maxsize=8)
def _psi_tables(grid: SphereGrid) -> tuple[np.ndarray, np.ndarray]:
    """The gauge functional's matrix L and the weighted degree-2 values w psi_g
    (G, N) at the nodes, the parts of :func:`_psi_moments` kept per grid."""
    n, S = grid.n, scalar_basis_coeffs(grid.n, 2)
    src, coef = grad_index(n, 2)
    grads = (S[:, src] * coef).reshape(-1, n, n)              # [g, i]: d_i psi_g over exps(n, 1)
    dcoef = linear_order(grads.transpose(1, 0, 2))
    r = n + S.shape[0]
    pairs = list(combinations(range(n), 2))
    L = np.zeros((len(pairs) + n, r, n))
    for p, (i, j) in enumerate(pairs):
        L[p, j, i], L[p, i, j] = 1.0, -1.0
    L[len(pairs):, n:, :] = dcoef.transpose(2, 1, 0) / n
    return L.reshape(len(L), r * n), evaluate([(S.shape[0], {2: S})], grid.nodes) * grid.weights


def _psi_moments(grid: SphereGrid) -> tuple[np.ndarray, np.ndarray]:
    """The gauge functional as moments (L, B): Psi(v) = L vec(B v) (:func:`_moments`).

    B = w [x; psi_g] holds the weighted coordinates and degree-2 basis values
    psi_g at the nodes, n + G rows, so P = B v holds the first moments
    P[j, i] = avg x_j v^i and alpha[g, i] = P[n + g, i] = avg psi_g v^i.  L
    takes P to the antisymmetrized first moments P[j, i] - P[i, j] and to
    avg (div v_h) x = sum_{g,i} alpha[g, i] dcoef[i, g] / n: the extension of
    alpha_{g,i} psi_g e_i has divergence sum_i alpha_{g,i} d_i psi_g, and
    dcoef[i, g, l] is the x_l coefficient of the linear d_i psi_g.

    B is stacked afresh on each call from the cached w psi_g: a B cached per
    grid outlives every solve, and moebius-fit's peak RSS read about 0.1 MB
    higher with it.
    """
    L, Pw = _psi_tables(grid)
    n = grid.n
    B = np.empty((n + len(Pw), grid.size))
    np.multiply(grid.nodes.T, grid.weights, out=B[:n])
    B[n:] = Pw
    return L, B


def psi_functional(v: SphereMap, grid: SphereGrid) -> np.ndarray:
    """Six-component gauge residual of a map v: S^2 -> R^3.

    First three entries: antisymmetrized first moments avg(v^i x_j - v^j x_i),
    (i,j) in ((1,2),(1,3),(2,3)); last three: avg (div v_h) x, evaluated from
    the degree-2 block in closed form.  Both are the moments of
    :func:`_psi_moments`, which the gauge solver zeroes.
    """
    U = v.sample(grid)[1] if v.is_sampled else v.eval(grid.nodes)
    return _moments(*_psi_moments(grid), U)


def _damped_newton(residual, move, x, first, tol: float):
    """Damped Newton on residual(x) = (f, jac), jac() the Jacobian of f with
    respect to the step d of move(x, d).

    From x with first = residual(x), each of at most 40 steps solves J d = -f
    (least squares if J is singular) and halves d, at most 12 times, until
    |f| decreases (a ValueError of residual counts as no decrease).  Returns (x, |f|,
    iterations, nfev, njev): steps taken, residual and Jacobian evaluations.
    """
    (f, jac), first = first, None
    norm = float(np.linalg.norm(f))
    it = nfev = njev = 0
    while norm > tol and it < 40:
        J = jac()
        jac = jn = None                      # drop the point's samples before the line search
        njev += 1
        try:
            step = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError:
            step = -np.linalg.lstsq(J, f, rcond=None)[0]
        if not (np.all(np.isfinite(step)) and np.any(step)):
            break
        for t in 0.5 ** np.arange(12):
            xn = move(x, t * step)
            nfev += 1
            try:
                fn, jn = residual(xn)
            except ValueError:
                continue
            nn = float(np.linalg.norm(fn))
            if nn < norm:
                break
        else:
            break
        x, f, jac, norm = xn, fn, jn, nn
        it += 1
    return x, norm, it, nfev, njev


# the turn columns from the moments of y_l Du_j: Du (e_k x y) = sum_jl eps_jkl y_l Du_j,
# so row (j, l) of this table holds eps_jkl over the columns k
_TURNS = np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0],
                   [0, 0, 1], [0, 0, 0], [-1, 0, 0],
                   [0, -1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)


def _chart_residual(u: SphereMap, grid: SphereGrid, L: np.ndarray, B: np.ndarray, turns: bool):
    """(R, v) -> (F, jac) for the moments F = L vec(B U) (:func:`_moments`) of the
    values U of u at y = R phi_v(x).

    jac() is the Jacobian in the step (omega, dv) of R <- exp(omega) R,
    v <- v + dv (in dv alone unless turns).  Its columns are the moments of
    Du(y) d for the directions d = e_k x y and R dphi_v/dv_k, where
    dphi_v/dv_k = q ((beta <v, x> - h) e_k + (beta x_k + (delta <v, x> - gamma) v_k) v - (dD'/dv_k) phi)
    and dD'/dv_k = h v_k - h x_k - gamma <v, x> v_k.  Every direction is a
    combination of per-node fields with coefficients in R and R v alone:
    R dphi_v/dv_k = a R e_k + c_k R v - e_k y with a = q (beta <v, x> - h),
    c_k = q (beta x_k + (delta <v, x> - gamma) v_k) and
    e_k = q (h (v_k - x_k) - gamma <v, x> v_k), and (e_k x y)_j = eps_jkl y_l.
    So with the fields W = (a, c_k, e_k y_j, y_l) and the per-node products
    T = K Du, K[f, i] = sum_b L[f, (b, i)] B_b, the Jacobian is a fixed
    contraction of the moments M = sum_nodes W T.

    M is accumulated over blocks of nodes, sized so that no temporary of a
    block exceeds spheremap._BLOCK_BYTES (the one block rule, under the mmap
    threshold): per block one GEMM B^t L for K, one batched
    3 x 3 product for T and one GEMM for M.  A one-row basis (the
    recentring's weights) folds into the fields instead, and the one GEMM
    per block reads Du itself.  u's values (N, m) and Jacobians (N, m, n)
    come from :meth:`SphereMap.at`: a poly map's are transposed views of
    its node-last monomial table, a callable map's its own arrays.  matmul
    reads both, so no sample is copied.  residual(state, sample) takes them
    at y when they are known.
    """
    X = grid.nodes
    N, F, m, r = len(X), L.shape[0], u.m, B.shape[0]
    Lk = L.reshape(F, r, m).transpose(1, 0, 2).reshape(r, F * m)   # K = B^t Lk per node
    S = 16 if turns else 13                    # fields a, c_k, e_k y_j and, for turns, y_l
    nb = max(1, _BLOCK_BYTES // (8 * max(F * m, F * 3, S)))

    def residual(state, sample=None):
        R, v = state
        (h, beta, gamma, delta), xv, q, Y = _boost_parts(v, X)
        Y *= q[:, None]                        # phi_v, in place of N'
        Y = Y @ R.T
        if sample is None:
            U, jac = u.at(Y)
        else:
            U, J_known = sample
            jac = lambda: J_known            # holds the Jacobians alone: U goes when residual returns

        def jacobian():
            J = jac()
            a, t, p = q * (beta * xv - h), q * (delta * xv - gamma), q * (h - gamma * xv)
            Xt, Yt = X.T, Y.T
            Wb = np.empty((S, min(nb, N)))
            M = np.zeros((S, (m if r == 1 else F) * 3))
            for a0 in range(0, N, nb):
                blk, k = slice(a0, a0 + nb), min(nb, N - a0)
                W = Wb[:, :k]
                qx = q[blk] * Xt[:, blk]
                W[0] = a[blk]
                np.multiply(v[:, None], t[blk], out=W[1:4])
                W[1:4] += beta * qx
                qx *= h
                e = v[:, None] * p[blk]
                e -= qx
                for c in range(3):
                    np.multiply(e[c], Yt[:, blk], out=W[4 + 3 * c:7 + 3 * c])
                if turns:
                    W[13:] = Yt[:, blk]
                if r == 1:                     # a one-row basis folds into the fields: the GEMM reads Du as it lies
                    W *= B[0, blk]
                    M += W @ J[blk].reshape(k, m * 3)
                else:
                    T = (B[:, blk].T @ Lk).reshape(k, F, m) @ J[blk]
                    M += W @ T.reshape(k, F * 3)
            M = np.matmul(Lk.reshape(F, m), M.reshape(S, m, 3)) if r == 1 else M.reshape(S, F, 3)
            cols = (M[0] @ R + (M[1:4] @ (R @ v)).T
                    - np.trace(M[4:13].reshape(3, 3, F, 3), axis1=1, axis2=3).T)
            return np.hstack([M[13:].transpose(1, 2, 0).reshape(F, 9) @ _TURNS, cols]) if turns else cols

        return _moments(L, B, U), jacobian

    return residual


def recenter(u: SphereMap, grid: SphereGrid | None = None, tol: float = 1e-8) -> MoebiusMap:
    """Find phi_v with avg u compose phi_v = 0, in the boost chart v = log(lam) xi.

    For unit-norm degree +-1 maps a zero exists.  Damped Newton on the
    analytic Jacobian starts at v = 0; only if that fails does it restart
    from the best 4 of a pole x dilation ladder along the mean, then from the
    best point of a coarse pole x dilation sweep.
    """
    if u.n != 3:
        raise ValueError("recentering implemented on S^2")
    g = _grid_for(u, grid)

    def sample():
        _, U, J = u.sample(g)
        if np.max(np.abs(np.linalg.norm(U, axis=1) - 1.0)) > 1e-6:
            raise ValueError("recentering expects a unit-norm map")
        return U, J

    return _recenter(u, g, tol, sample)


def _recenter(u: SphereMap, g: SphereGrid, tol: float, sample0) -> MoebiusMap:
    """`recenter` of u on the grid g; sample0() gives the values (N, m) and Jacobians
    (N, m, n) of u at its nodes, as :meth:`SphereMap.sample` does."""
    residual = _chart_residual(u, g, np.eye(u.m), g.weights[None], turns=False)
    I = np.eye(3)
    counts = np.zeros(3, dtype=int)            # Newton steps, residual and Jacobian evaluations

    def newton(v0, sample=None):              # sample(): u at phi_v0, taken here so the solve does not hold it
        first = [residual((I, v0), sample and sample())]   # popped into the solve, which drops its Jacobians
        f0 = first[0][0]                                   # the residual at v0: the ladder's direction
        (_, v), nrm, *run = _damped_newton(residual, lambda x, d: (I, x[1] + d), (I, v0), first.pop(), tol)
        counts[:] += [run[0], run[1] + 1, run[2]]
        return v, nrm, f0

    v, nrm, b = newton(np.zeros(3), sample0)
    if nrm > tol:
        ladder = np.outer([-1.0, 1.0], b / np.linalg.norm(b))
        coarse = sphere_grid(3, 8).nodes
        for poles, scales, tries in ((ladder, (0.15, 6.0, 9), 4), (coarse[:: len(coarse) // 64], (0.1, 10.0, 11), 1)):
            starts = [s0 * xi0 for xi0 in poles for s0 in np.log(np.geomspace(*scales))]
            counts[1] += len(starts)
            for v0 in sorted(starts, key=lambda v0: np.linalg.norm(residual((I, v0))[0]))[:tries]:
                v, nrm, _ = newton(v0)
                if nrm <= tol:
                    return _boost_moebius(I, v)
        raise SolverError(
            f"recentering failed after {counts[0]} Newton steps, {counts[1]} residual and "
            f"{counts[2]} Jacobian evaluations (residual {nrm:.2e}); is the map degree +-1 unit-norm?"
        )
    return _boost_moebius(I, v)


def _rotation_from_axis_angle(r: np.ndarray) -> np.ndarray:
    """exp of the skew matrix of r (Rodrigues)."""
    theta = np.linalg.norm(r)
    if theta < 1e-14:
        return np.eye(3) + _skew_of(r)
    K = _skew_of(r / theta)
    return np.eye(3) + np.sin(theta) * K + (1.0 - np.cos(theta)) * (K @ K)


def _skew_of(r: np.ndarray) -> np.ndarray:
    return np.array([[0.0, -r[2], r[1]], [r[2], 0.0, -r[0]], [-r[1], r[0], 0.0]])


def gauge_fix(u: SphereMap, grid: SphereGrid | None = None, tol: float = 1e-7) -> MoebiusMap:
    """Find phi = R phi_v in the identity component with Psi_{u}(phi) = 0.

    Zeroing the six first-moment components is equivalent to killing the
    projection of u compose phi onto the kernel block (skew fields plus the
    degree-2 complement).  Damped Newton from the identity on the analytic
    Jacobian of `_chart_residual`, evaluating a poly u once per step.  Needs
    u W^{1,2}-close to the identity.
    """
    if u.n != 3 or u.m != 3:
        raise ValueError("gauge fixing implemented for maps of S^2 into R^3")
    g = _grid_for(u, grid)
    residual = _chart_residual(u, g, *_psi_moments(g), turns=True)
    start = (np.eye(3), np.zeros(3))
    (R, v), nrm, it, nfev, njev = _damped_newton(
        residual, lambda x, d: (_rotation_from_axis_angle(d[:3]) @ x[0], x[1] + d[3:]),
        start, residual(start, u.sample(g)[1:]), tol)
    if nrm > tol:
        D = tangential_jacobians(u.at(g.nodes)[1](), g.nodes) - projectors(g.nodes)
        dist = math.sqrt(integrate(g, np.sum(D * D, axis=(1, 2))))
        raise SolverError(
            f"gauge Newton stalled at residual {nrm:.2e} after {it} steps, {nfev} residual and "
            f"{njev} Jacobian evaluations; initial W12 gradient distance to the identity was {dist:.3f}"
        )
    return _boost_moebius(R, v)


# ---------------------------------------------------------------------------
# nearest rotation / nearest Moebius
# ---------------------------------------------------------------------------

def _poly_tangential_mean(u: SphereMap) -> np.ndarray:
    """avg grad_T u = avg J - avg (J x) x^t of a poly map, from its coefficient stacks."""
    n, S = u.n, u.stack
    return Stack(n, 1, n * n, S.jac).integral().reshape(n, n) - Stack(n, 1, n, S.jx).first_moments()[0]


def nearest_rotation(u: SphereMap, grid: SphereGrid | None = None) -> tuple[np.ndarray, float]:
    """Closed-form minimizer of avg |grad_T u - O P_T|^2 over O(n).

    With M = avg (ambient grad u)(I - x x^t), the optimum is O = U V^t from
    the SVD of M, with value energy + (n-1) - 2 ||M||_*.
    """
    n = u.n
    if u.m != n:
        raise ValueError("nearest rotation needs a map into R^n")
    from .forms import tangential_energy

    if u.is_poly:
        M = _poly_tangential_mean(u)
        energy = tangential_energy(u)
    else:
        g = _grid_for(u, grid)
        X, U, J = u.sample(g)
        TJ = tangential_jacobians(J, X)
        M = (g.weights @ TJ.reshape(len(TJ), n * n)).reshape(n, n)
        energy = integrate(g, _node_dots(TJ, TJ))
    Um, s, Vt = np.linalg.svd(M)
    O = Um @ Vt
    value = energy + (n - 1) - 2.0 * float(np.sum(s))
    return O, max(value, 0.0)


@dataclass(frozen=True)
class NearestMoebiusResult:
    phi: MoebiusMap
    lam: float
    value: float
    recentred: bool
    nfev: int          # objective-and-gradient evaluations of the boost search
    converged: bool    # the gradient-norm test was met
    iterations: int    # accepted BFGS steps
    grad_norm: float   # |grad| of the fit value at the returned boost


def _fit_terms(v: np.ndarray, TJ_u: np.ndarray, X: np.ndarray, w: np.ndarray):
    """Best rotation for the boost v and the fit terms: returns (O, b, c, db, dc).

    With phi_v = N'/D' of `_boost_parts`, the ambient Jacobian is
    J0 = q (I + beta v v^t) + q^2 N' alpha^t.  b = max over O in SO(3) of avg <grad_T u, O J0> is the
    Kabsch/Umeyama value of K = avg grad_T u J0^t (grad_T u is already
    tangential, so K needs the ambient J0 only), and
    c = avg |grad_T phi_v|^2 = 2 avg q^2.  db and dc are the gradients in v;
    by the envelope argument db = <O, dK/dv> at the optimal O.
    """
    (h, beta, gamma, delta), xv, q, Np = _boost_parts(v, X)
    alpha = h * v
    wq = w * q
    wq2 = wq * q
    wq3 = wq2 * q
    P = np.eye(3) + beta * np.outer(v, v)
    TJ_rows = TJ_u.reshape(-1, 3)
    Y = (TJ_rows @ alpha).reshape(-1, 3)          # grad_T u alpha per node
    A = (wq @ TJ_u.reshape(-1, 9)).reshape(3, 3)
    K = A @ P + (Y * wq2[:, None]).T @ Np
    Uk, sv, Vt = np.linalg.svd(K)
    d = 1.0 if np.linalg.det(Uk @ Vt) > 0 else -1.0
    O = (Uk * [1.0, 1.0, d]) @ Vt
    b = float(sv[0] + sv[1] + d * sv[2])
    c = 2.0 * float(wq @ q)

    # per node, <O^t grad_T u, J0> = q t1 + q^2 s2; grad D' = alpha - h x - gamma <v, x> v
    t1 = TJ_u.reshape(-1, 9) @ (O @ P).ravel()
    m = Np @ O.T                                  # O N' per node
    s2 = np.sum(m * Y, axis=1)
    k = wq2 * t1 + 2.0 * wq3 * s2                 # weight of -grad D'
    vz = Y @ (O @ v)                              # <v, O^t grad_T u alpha>
    rv = np.sum(m * (TJ_rows @ v).reshape(-1, 3), axis=1)   # <v, grad_T u^t O N'>
    C = O.T @ A
    db = (-float(np.sum(k)) * alpha
          + (h * k + beta * wq2 * vz) @ X
          + ((wq2 * (beta * xv - h)) @ Y) @ O
          + h * ((wq2[:, None] * m).ravel() @ TJ_rows)
          + (gamma * float(k @ xv) + float(wq2 @ (gamma * rv + (delta * xv - gamma) * vz))
             + delta * float(v @ C @ v)) * v
          + beta * ((C + C.T) @ v))
    dc = -4.0 * (float(np.sum(wq3)) * alpha - h * (wq3 @ X) - gamma * float(wq3 @ xv) * v)
    return O, b, c, db, dc


def _bfgs(fun, x0: np.ndarray, gtol: float, fslack: float):
    """Minimize by BFGS with Armijo backtracking from the inverse Hessian (3/8) I.

    fun(x) returns (f, grad, extra) and f = inf where x is outside the domain.
    The Armijo test allows f to rise by fslack, the roundoff of f, so that
    steps near the minimum are judged by the gradient, which stays accurate
    far below that level.  At most 100 steps are taken.  Returns (x, f, grad,
    extra, iterations, nfev, converged); converged means |grad| <= gtol.  The
    (3/8) I start is the inverse of the Hessian of the fit value at a
    conformal map, about (8/3) I.
    """
    x = np.asarray(x0, dtype=float)
    f, g, extra = fun(x)
    nfev = 1
    if not np.isfinite(f):
        raise ValueError("fit objective is not finite at the start")
    H0 = (3.0 / 8.0) * np.eye(len(x))
    H = H0
    it = 0
    while np.linalg.norm(g) > gtol and it < 100:
        p = -H @ g
        slope = float(g @ p)
        if slope >= 0.0:                           # lost descent: restart from H0
            H = H0
            p = -H @ g
            slope = float(g @ p)
        t = 1.0
        for _ in range(30):
            xn = x + t * p
            fn, gn, en = fun(xn)
            nfev += 1
            if fn <= f + 1e-4 * t * slope + fslack:
                break
            t *= 0.5
        else:
            break                                  # no decrease left at roundoff
        step, dg = xn - x, gn - g
        sy = float(step @ dg)
        if sy > 0.0:
            Hy = H @ dg
            H = H + ((sy + dg @ Hy) / sy**2) * np.outer(step, step) \
                - (np.outer(Hy, step) + np.outer(step, Hy)) / sy
        x, f, g, extra = xn, fn, gn, en
        it += 1
    return x, f, g, extra, it, nfev, bool(np.linalg.norm(g) <= gtol)


def nearest_moebius(u: SphereMap, grid: SphereGrid | None = None) -> NearestMoebiusResult:
    """Approximately minimize avg |(1/lam) grad_T u - grad_T phi|^2.

    Over phi = O phi_{xi,lam} the value is c - b^2/a with a = avg |grad_T u|^2,
    b = avg <grad_T u, grad_T phi> and c = avg |grad_T phi|^2, at the scale
    lam = a/b.  For a fixed boost v = log(lam) xi the best rotation O is the
    closed-form Procrustes solution (`_fit_terms`), so only the three boost
    parameters are searched, by BFGS on the analytic gradient (stopping at
    |grad| <= 1e-9), from the inverse of the recentring of a norm-normalized
    copy of u (from v = 0 for a sampled u, which has no values off its grid).
    The result is an achieved upper bound, not a certified global minimum.
    """
    if u.n != 3 or u.m != 3:
        raise ValueError("nearest Moebius implemented for maps of S^2 into R^3")
    from .deficits import signed_volume

    g = _grid_for(u, grid)
    X, U, J_u = u.sample(g)
    w = g.weights
    if u.is_poly:   # from the cached node bundle, which a sweep's deficit report has just made
        volume = signed_volume(u, g)
    else:           # from this sample, not from a second one
        volume = integrate(g, volume_integrand(U, J_u, X))
    if abs(volume) <= 1e-10:
        raise ValueError("signed volume vanishes; no Moebius fit")
    radius = np.linalg.norm(U, axis=1)

    # start: the inverse of the recentring of u/r0, from this sample
    recentred = False
    v0 = np.zeros(3)
    r0 = integrate(g, radius)
    if not u.is_sampled and r0 > 1e-10 and np.max(np.abs(radius / r0 - 1.0)) < 0.3:
        try:
            # the mean of u/r0 is below 1e-8 where the mean of u is below 1e-8 r0
            start = inverse(_recenter(u, g, 1e-8 * r0, lambda: (U, J_u)))
            v0 = np.log(start.lam) * start.xi
            recentred = True
        except SolverError:
            pass
    TJ_u = tangential_jacobians(J_u, X)      # after the recentring, which holds the sample
    del U, J_u                               # not held through the boost search
    a = integrate(g, _node_dots(TJ_u, TJ_u))

    def objective(v):
        try:
            O, b, c, db, dc = _fit_terms(v, TJ_u, X, w)
        except ValueError:
            return np.inf, None, None
        if not b > 0:
            return np.inf, None, None
        return c - b * b / a, dc - (2.0 * b / a) * db, (O, b)

    # c is about 2 (the Dirichlet energy of a Moebius map of S^2), so f = c - b^2/a
    # carries an absolute roundoff of a few 1e-14 at every scale of u
    v, val, grad, (O, b), iterations, nfev, converged = _bfgs(objective, v0, gtol=1e-9, fslack=1e-13)
    return NearestMoebiusResult(_boost_moebius(O, v), float(a / b), float(val), recentred, nfev,
                                converged, iterations, float(np.linalg.norm(grad)))
