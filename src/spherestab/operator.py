"""The first-order volume-form operator on vector spherical harmonics.

A(w) = (div_S w) x - sum_j x_j grad_T w^j maps each degree-k block H_{n,k}
into itself and is self-adjoint there.  Its spectrum on H_{n,k} is exactly
{-k, 1, k+n-2}: the solenoidal part splits into the -k and +1 eigenspaces,
and the complement of the solenoidal part is the (k+n-2)-eigenspace.  The
kernel of the conformal-isoperimetric form is the span of the skew linear
fields (degree 1, eigenvalue 1) and the degree-2 complement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IntegrityError
from .harmonics import Subspace, _combine, _field_pairs, laplace_eigenvalue, vector_space_coeffs
from .homogeneous import Stack, l2_gram
from .polynomials import diff_matrix, evaluate, gram, linear_order
from .quadrature import integrate
from .spheremap import SphereMap, _grid_for, a_operator_values, sampled_map, stack_map

__all__ = [
    "apply_A",
    "a_matrix",
    "helmholtz_split",
    "eigenspaces",
    "self_adjointness_residual",
    "kernel_subspaces",
    "project_kernel",
    "project_h_n",
    "subspace_angle",
    "EigenField",
    "random_eigenfield",
    "random_h_field",
]

_CLUSTER_TOL = 1e-8


def apply_A(w: SphereMap) -> SphereMap:
    """Apply the volume-form operator exactly (poly) or pointwise on the grid of
    :func:`spheremap._grid_for` (sampled or callable)."""
    if w.m != w.n:
        raise ValueError("operator needs a map into R^n")
    if w.is_poly:
        return stack_map(w.stack.a_field)
    g = _grid_for(w, None)
    X, U, J = w.sample(g)
    return sampled_map(g, a_operator_values(U, J, X), None)


@lru_cache(maxsize=None)
def a_matrix(n: int, k: int) -> np.ndarray:
    """Matrix of A on the orthonormal basis of H_{n,k} (L2 inner products)."""
    B = vector_space_coeffs(n, k)          # (dim, n, M)
    AB = Stack(n, len(B), n, {k: B}).a_field.blocks[k]
    return _field_pairs(B, AB, gram(n, k))


def self_adjointness_residual(n: int, k: int) -> float:
    """Max-abs asymmetry of the A matrix on H_{n,k}."""
    M = a_matrix(n, k)
    return float(np.max(np.abs(M - M.T)))


@lru_cache(maxsize=None)
def helmholtz_split(n: int, k: int) -> tuple[Subspace, Subspace]:
    """Split H_{n,k} into fields with divergence-free extension and complement.

    Divergence-free is detected on exact polynomial coefficients, never by
    sampling: the rank counts the singular values of the divergence map
    above 1e-10 times the largest one (or 1e-10 when all are below 1, as at
    k = 1, where the map vanishes up to roundoff).
    """
    B = vector_space_coeffs(n, k)
    Dmap = sum(diff_matrix(n, k, i) @ B[:, i, :].T for i in range(n))
    _, s, vh = np.linalg.svd(Dmap)
    rank = int(np.sum(s > 1e-10 * max(1.0, s[0])))
    sol = Subspace(n, k, "sol", _combine(vh[rank:], B))
    perp = Subspace(n, k, "sol_perp", _combine(vh[:rank], B), eigenvalue=float(k + n - 2))
    return sol, perp


@lru_cache(maxsize=None)
def eigenspaces(n: int, k: int) -> tuple[Subspace, Subspace, Subspace]:
    """Eigenspaces of A on H_{n,k} for the eigenvalues (-k, 1, k+n-2).

    The matrix of A is assembled on the orthonormal basis, symmetrized and
    diagonalized; every eigenvalue must land within 1e-8 of one of the
    three predicted values, and the top eigenspace must coincide with the
    complement of the divergence-free part.
    """
    B = vector_space_coeffs(n, k)
    M = a_matrix(n, k)
    evals, evecs = np.linalg.eigh(0.5 * (M + M.T))
    centers = [float(-k), 1.0, float(k + n - 2)]
    dists = np.abs(evals[:, None] - np.array(centers))
    far = np.flatnonzero(dists.min(axis=1) > _CLUSTER_TOL)
    if far.size:
        raise IntegrityError(f"eigenvalue {evals[far[0]]} of A on H_({n},{k}) is not near any of {centers}")
    which = np.argmin(dists, axis=1)
    if k == 1:
        # H_{n,1,3} is trivial; for n=2, k=1 the centers 1 and k+n-2 collide
        which[which == 2] = 1
    eig1, eig2, eig3 = (
        Subspace(n, k, f"eig{j + 1}", _combine(evecs[:, which == j].T, B), eigenvalue=c)
        for j, c in enumerate(centers)
    )
    sol, perp = helmholtz_split(n, k)
    if eig3.dim != perp.dim:
        raise IntegrityError(f"sol-complement dim {perp.dim} != eigenvalue-{centers[2]} dim {eig3.dim}")
    if eig3.dim:
        ang = subspace_angle(eig3, perp)
        if ang > _CLUSTER_TOL:
            raise IntegrityError(f"top eigenspace deviates from sol-complement by {ang}")
    return eig1, eig2, eig3


def subspace_angle(S1: Subspace, S2: Subspace) -> float:
    """Deviation of two same-degree subspaces: 1 - smallest principal cosine."""
    if S1.k != S2.k or S1.n != S2.n:
        raise ValueError("subspace angle needs same (n, k)")
    if S1.dim != S2.dim:
        return 1.0
    if S1.dim == 0:
        return 0.0
    C = _field_pairs(S1.coeffs, S2.coeffs, gram(S1.n, S1.k))
    s = np.linalg.svd(C, compute_uv=False)
    return float(np.max(np.abs(1.0 - s)))


@lru_cache(maxsize=None)
def kernel_subspaces(n: int) -> tuple[Subspace, Subspace]:
    """The two blocks of the conformal kernel: skew degree-1 fields and the
    degree-2 complement of the divergence-free part."""
    k12 = eigenspaces(n, 1)[1]
    k23 = eigenspaces(n, 2)[2]
    if k12.dim != n * (n - 1) // 2:
        raise IntegrityError(f"dim of skew block is {k12.dim}, want n(n-1)/2")
    if k23.dim != n:
        raise IntegrityError(f"dim of degree-2 complement is {k23.dim}, want n")
    return k12, k23


def project_h_n(w: SphereMap, grid=None) -> tuple[SphereMap, dict]:
    """Remove the mean and the radial first moment so the map lies in H_n.

    Returns the projected map and a report of what was removed.
    """
    n = w.n
    if w.is_poly:
        S = w.stack
        mean = S.integral()[0]
        radial = float(Stack(n, 1, 1, S.inner_x).integral()[0, 0])
    else:
        g = _grid_for(w, grid)
        X, U, J = w.sample(g)
        mean = g.weights @ U
        radial = integrate(g, np.einsum("ai,ai->a", U, X))
    report = {"removed_mean": np.asarray(mean), "removed_radial": float(radial)}
    if np.max(np.abs(mean)) < 1e-15 and abs(radial) < 1e-15:
        return w, report
    if w.is_poly:
        blocks = dict(S.blocks)
        blocks[0] = blocks.get(0, np.zeros((1, n, 1))) - mean[:, None]
        blocks[1] = blocks.get(1, np.zeros((1, n, n))) - radial * linear_order(np.eye(n))
        return stack_map(Stack(n, 1, n, blocks)), report
    U2 = U - mean - radial * X
    J2 = None if J is None else J - radial * np.eye(n)
    return sampled_map(g, U2, J2), report


def project_kernel(w: SphereMap, grid=None) -> SphereMap:
    """L2/W12 projection onto the kernel block (skew + degree-2 complement)."""
    n = w.n
    w, _ = project_h_n(w, grid=grid)
    k12, k23 = kernel_subspaces(n)
    if w.is_poly:
        blocks = {}
        for S in (k12, k23):
            c = l2_gram(w.stack, Stack(n, S.dim, n, {S.k: S.coeffs}))[0]
            blocks[S.k] = (c @ S.coeffs.reshape(S.dim, -1)).reshape(1, n, -1)
        return stack_map(Stack(n, 1, n, blocks))
    g = _grid_for(w, grid)
    X, U, J = w.sample(g)
    # every basis field (and its Jacobian) in one monomial table
    parts = [(S.dim * n, {S.k: S.coeffs}) for S in (k12, k23)]
    if J is not None:
        parts += [(S.dim * n * n, Stack(n, S.dim, n, {S.k: S.coeffs}).jac) for S in (k12, k23)]
    table = evaluate(parts, X).T
    dim = k12.dim + k23.dim
    BV = table[:, : dim * n].reshape(-1, dim, n)
    c = np.array([integrate(g, f) for f in np.einsum("ai,abi->ba", U, BV)])
    jac = None if J is None else np.tensordot(table[:, dim * n :].reshape(-1, dim, n, n), c, axes=(1, 0))
    return sampled_map(g, np.tensordot(BV, c, axes=(1, 0)), jac)


def kernel_characterization_residual(w: SphereMap) -> tuple[float, float]:
    """Moment characterizations of a vanishing kernel projection.

    Returns (max |skew part of grad w_h(0)|, max |avg (div w_h) x_k|);
    both vanish iff the projection of w onto the kernel block is zero.
    Exact for poly maps.
    """
    from .harmonics import grad_origin, harmonicize

    if not w.is_poly:
        raise TypeError("characterization implemented for poly maps")
    B = grad_origin(w)
    skew = float(np.max(np.abs(B - B.T)))
    wh = harmonicize(w).stack
    divmom = float(np.max(np.abs(Stack(w.n, 1, 1, wh.div).first_moments())))
    return skew, divmom


@dataclass(frozen=True)
class EigenField:
    """A sampled element of one A-eigenspace, with its labels."""

    map: SphereMap
    n: int
    k: int
    i: int  # 1, 2 or 3


def random_eigenfield(n: int, k: int, i: int, rng: np.random.Generator) -> EigenField:
    """Random element of the (k, i) eigenspace of A with unit tangential energy."""
    S = eigenspaces(n, k)[i - 1]
    if S.dim == 0:
        raise ValueError(f"eigenspace ({n},{k},{i}) is trivial")
    c = rng.normal(size=S.dim)
    c /= np.linalg.norm(c)
    c /= np.sqrt(laplace_eigenvalue(n, k))
    return EigenField(S.element(c), n, k, i)


def random_h_field(n: int, kmax: int, rng: np.random.Generator) -> SphereMap:
    """Random element of the degree-truncated H_n with N(0,1) block weights."""
    total = None
    for k in range(1, kmax + 1):
        for i in (1, 2, 3):
            S = eigenspaces(n, k)[i - 1]
            if S.dim == 0:
                continue
            piece = S.element(rng.normal(size=S.dim))
            total = piece if total is None else total + piece
    return total
