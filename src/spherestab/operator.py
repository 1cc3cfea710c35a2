"""The first-order volume-form operator on vector spherical harmonics.

A(w) = (div_S w) x - sum_j x_j grad_T w^j maps each degree-k block H_{n,k}
into itself and is self-adjoint there.  Its spectrum on H_{n,k} is exactly
{-k, 1, k+n-2}: the solenoidal part splits into the -k and +1 eigenspaces,
and the complement of the solenoidal part is the (k+n-2)-eigenspace.  The
kernel of the conformal-isoperimetric form is the span of the skew linear
fields (degree 1, eigenvalue 1) and the degree-2 complement.

The float spectrum is built from one cached primitive, the derivative
coordinates D[j, c, b] = <psi^{k-1}_c, d_j psi^k_b> of the orthonormal
scalar harmonics (:func:`_grad_coords`): d_j psi^k_b is harmonic of degree
k-1, so D expands it exactly.  On the candidates e_j psi_b, which span
H_{n,k} for k >= 2 (at k = 1 less the radial field):

    A       generator form (A e_j psi_b)_i = (x_i d_j - x_j d_i) psi_b, so the
            matrix has blocks X_i D_j - X_j D_i, X_i = <psi^k, x_i psi^{k-1}>
    eig1    -k:      grad H_{n,k+1}, the columns of D_{k+1}
    eig3    k+n-2:   div* H_{n,k-1}, the rows of D_k
    eig2    1:       the orthogonal complement of both, from one QR

No eigensolver, SVD or rank threshold is involved.  Each block instead
passes a check against the matrix of A, the dims h(n,k+1), the remainder
and h(n,k-1), with eigen-residuals and orthonormality residuals of at most
1e-8; a block that fails raises IntegrityError.  That happens past the
degree ceiling, where the float scalar basis no longer carries the
spectrum.

The eigenspaces stay in the candidate coordinates: a
:class:`~spherestab.harmonics.Subspace` holds E_i, and monomial
coefficients are built from it only where a polynomial is needed.  The
seeded draws take N(0, I) in the coordinates of the orthonormal basis of
H_{n,k} and project it onto eig_i as E_i g.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrityError
from .harmonics import (
    Subspace,
    candidate_coeffs,
    degree1_coords,
    harmonic_dimension,
    laplace_eigenvalue,
    scalar_basis_coeffs,
)
from .homogeneous import Stack, l2_gram
from .polynomials import evaluate, grad_index, gram, linear_order, table_cache
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
    "EigenField",
    "random_eigenfield",
    "random_h_field",
]

_SPECTRUM_TOL = 1e-8


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


@table_cache
def _grad_coords(n: int, k: int) -> np.ndarray:
    """D[j, c, b] = <psi^{k-1}_c, d_j psi^k_b>, shape (n, h_{k-1}, h_k).

    d_j psi^k_b is harmonic of degree k-1, so these coordinates expand it
    exactly in the orthonormal scalar harmonics of degree k-1: one
    ``grad_index`` gather of the degree-k basis, one product with the
    moments of the degree-(k-1) basis.
    """
    S = scalar_basis_coeffs(n, k)
    src, coef = grad_index(n, k)
    grads = S.T[src] * coef[:, None]                      # (n M_{k-1}, h_k): rows (j, q)
    return (scalar_basis_coeffs(n, k - 1) @ gram(n, k - 1)) @ grads.reshape(n, -1, len(S))


def _rows(T: np.ndarray) -> np.ndarray:
    """(n, r, h) -> (r, n h): row c holds T[j, c, b] over the candidates e_j psi_b."""
    return T.transpose(1, 0, 2).reshape(T.shape[1], -1)


@table_cache
def a_matrix(n: int, k: int) -> np.ndarray:
    """Matrix of A on the orthonormal basis of H_{n,k} (L2 inner products).

    On the candidates e_j psi_b the entry <e_i psi_a, A e_j psi_b> is
    <psi_a, x_i d_j psi_b> - <psi_a, x_j d_i psi_b>, and <psi_a, x_i d_j psi_b>
    = sum_c <psi_a, x_i psi^{k-1}_c> D[j, c, b].  The x_i-pairings are the
    columns of the degree-k moments that x_i places the degree-(k-1)
    monomials on (the ``grad_index`` sources), so A costs n pairings of the
    h-row scalar stack.  At k = 1 the basis of H_{n,1} spans the candidates
    less the radial field, and the matrix is conjugated by its coordinates.
    """
    D = _grad_coords(n, k)
    h = D.shape[2]
    src, _ = grad_index(n, k)                              # x_i places monomial q on q + e_i = src[i, q]
    placed = (scalar_basis_coeffs(n, k) @ gram(n, k)).T[src].reshape(n, -1, h)
    XT = scalar_basis_coeffs(n, k - 1) @ placed           # XT[i, c, a] = <x_i psi^{k-1}_c, psi_a>
    Y = (_rows(XT).T @ _rows(D)).reshape(n, h, n, h)      # Y[i, a, j, b] = <psi_a, x_i d_j psi_b>
    M = (Y - Y.transpose(2, 1, 0, 3)).reshape(n * h, n * h)
    if k == 1:
        C = degree1_coords(n)
        M = C @ M @ C.T
    return M


def self_adjointness_residual(n: int, k: int) -> float:
    """Max-abs asymmetry of the A matrix on H_{n,k}."""
    M = a_matrix(n, k)
    return float(np.max(np.abs(M - M.T)))


def helmholtz_split(n: int, k: int) -> tuple[Subspace, Subspace]:
    """Split H_{n,k} into fields with divergence-free extension and complement.

    The divergence-free part is eig1 + eig2 and its complement is eig3
    (:func:`eigenspaces`), so no rank is decided here.
    """
    eig1, eig2, eig3 = eigenspaces(n, k)
    return Subspace(n, k, np.concatenate([eig1.coords, eig2.coords])), eig3


@table_cache
def eigenspaces(n: int, k: int) -> tuple[Subspace, Subspace, Subspace]:
    """Eigenspaces of A on H_{n,k} for the eigenvalues (-k, 1, k+n-2), by construction.

    In the candidate coordinates e_j psi_b, eig1 = grad H_{n,k+1} is spanned
    by the columns of D_{k+1}, eig3 = div* H_{n,k-1} by the rows of D_k
    (:func:`_grad_coords`); both sets are orthogonal with equal norms
    (Schur's lemma) and are only normalized.  eig2 is their orthogonal
    complement, the last columns of one complete Householder QR.  At k = 1
    the row of D_1 is the radial field, which H_{n,1} excludes, so eig3 is
    trivial.  The spaces must then pass the check: dims h(n,k+1), the
    remainder and h(n,k-1), max|A E_i - lambda_i E_i| and max|E E^t - I| at
    most 1e-8 against :func:`a_matrix`, or IntegrityError is raised.
    """
    up = _grad_coords(n, k + 1)
    h1 = up.shape[2]
    F = np.concatenate([up.transpose(2, 0, 1).reshape(h1, -1), _rows(_grad_coords(n, k))])
    F /= np.linalg.norm(F, axis=1)[:, None]
    Q = np.linalg.qr(F.T, mode="complete")[0]
    E = [F[:h1], np.ascontiguousarray(Q[:, len(F):].T), F[h1:] if k >= 2 else F[:0]]   # a view would keep all of Q
    lams = (float(-k), 1.0, float(k + n - 2))
    _check_eigenspaces(n, k, E, lams)
    return tuple(Subspace(n, k, Ei, eigenvalue=lam) for Ei, lam in zip(E, lams))


def _check_eigenspaces(n: int, k: int, E: list[np.ndarray], lams: tuple[float, ...]) -> None:
    """Raise IntegrityError unless the candidate coordinates E_i span eigenspaces of
    :func:`a_matrix` with the eigenvalues lams and the predicted dims, orthonormally."""
    h = lambda d: harmonic_dimension(n, d)
    dims, want = [len(Ei) for Ei in E], [h(k + 1), n * h(k) - h(k + 1) - h(k - 1), h(k - 1) if k >= 2 else 0]
    if dims != want:
        raise IntegrityError(f"eigenspace dims {dims} of A on H_({n},{k}), want {want}")
    if k == 1:
        C = degree1_coords(n)
        E = [Ei @ C.T for Ei in E]
    M = a_matrix(n, k)
    for i, (Ei, lam) in enumerate(zip(E, lams), start=1):
        res = float(np.max(np.abs(Ei @ M.T - lam * Ei), initial=0.0))
        orth = float(np.max(np.abs(Ei @ Ei.T - np.eye(len(Ei))), initial=0.0))
        if not max(res, orth) <= _SPECTRUM_TOL:
            raise IntegrityError(f"eig{i} of A on H_({n},{k}): eigen-residual {res:.1e}, "
                                 f"orthonormality residual {orth:.1e} (tolerance {_SPECTRUM_TOL:.0e})")


@table_cache
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


@dataclass(frozen=True)
class EigenField:
    """A sampled element of one A-eigenspace, with its labels."""

    map: SphereMap
    n: int
    k: int
    i: int  # 1, 2 or 3


def random_eigenfield(n: int, k: int, i: int, rng: np.random.Generator) -> EigenField:
    """Random element of the (k, i) eigenspace of A with unit tangential energy.

    A Gaussian drawn in the coordinates of the orthonormal basis of H_{n,k}
    is projected onto the eigenspace, so the draw does not depend on the
    basis chosen inside it.
    """
    S = eigenspaces(n, k)[i - 1]
    if S.dim == 0:
        raise ValueError(f"eigenspace ({n},{k},{i}) is trivial")
    c = S.coords @ _draw(n, k, rng)
    c /= np.linalg.norm(c)
    c /= np.sqrt(laplace_eigenvalue(n, k))
    return EigenField(S.element(c), n, k, i)


def random_h_field(n: int, kmax: int, rng: np.random.Generator) -> SphereMap:
    """Random element of the degree-truncated H_n: N(0, I) on each H_{n,k}, in the
    coordinates of its orthonormal basis."""
    blocks = {k: candidate_coeffs(n, k, _draw(n, k, rng)[None]) for k in range(1, kmax + 1)}
    return stack_map(Stack(n, 1, n, blocks))


def _draw(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """N(0, I) in the coordinates of the orthonormal basis of H_{n,k}, as candidate
    coordinates: that basis is the candidates e_j psi_b for k >= 2, and the
    rows of :func:`degree1_coords` at k = 1."""
    if k == 1:
        C = degree1_coords(n)
        return rng.normal(size=len(C)) @ C
    return rng.normal(size=n * harmonic_dimension(n, k))
