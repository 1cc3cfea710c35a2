"""Coefficient stacks: exact surface calculus on polynomial vector fields.

A batch of B polynomial fields with m components each is held as a
:class:`Stack`: one array ``blocks[d]`` of shape (B, m, M_d) per degree d,
row (b, i) holding the degree-d block of component i of field b over the
monomials ``exps(n, d)``.  A poly-backed map is a stack with B = 1, its
one representation: its values, Jacobians, forms and projections are all
read from these blocks and the derived stacks below.
Every operator is built from two index maps of
:mod:`spherestab.polynomials`, never from a matrix: D, the gradient, is a
gather, and X, the pairing with x, a scatter-add on the same indices:

    J = grad f        J_il = D_l f^i, degree d-1  (``grad_index(n, d)``)
    <f, x>            sum_j X_j f^j, degree d+1   (``xdot(W, n, d)``)
    J x               d f (Euler), degree d
    J^t x             (J^t x)_l = sum_a X_a D_l f^a, degree d
    div_S f           tr J - <J x, x>: sum_i D_i f^i at degree d-1,
                      -d <f, x> at degree d+1
    A f               (A f)_i = sum_j (X_i D_j - X_j D_i) f^j, degree d

A is degree-preserving on every homogeneous block, harmonic or not; this
is the one exact implementation of the volume-form operator on fields.
Its matrix on a harmonic block (``operator.a_matrix``) uses the same
building blocks, the gradient gather and the x placements, on the scalar
harmonics instead of the vector basis.

Sphere integrals are pairings of stacks: the sum over degree pairs of
equal parity of blk1 ``gram_rect(n, d1, d2)`` blk2^t, over all rows, for
every pair of fields in the two batches (:func:`pair`).  On S^{n-1} the
tangential blocks reduce to these pieces, with P = I - x x^t:

    |J P|^2     = |J|^2 - |J x|^2
    |P J P|^2   = |J|^2 - |J^t x|^2 - |J x|^2 + <J x, x>^2
    |(PJP)_sym|^2 = |J_sym|^2 - |J^t x + J x|^2 / 2 + <J x, x>^2

so the forms of :mod:`spherestab.forms` need Gram matrices of degrees up
to d+1 only.  The ``*_gram`` functions return (B1, B2) matrices of the
bilinear forms; a single field is a batch of one.  No Kronecker-expanded
operator is built.

``exps``, ``gram`` and ``gram_rect`` are re-exported from
:mod:`spherestab.polynomials`.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from .polynomials import Poly, _moments, exps, grad_index, gram, gram_rect, linear_order, xdot

__all__ = [
    "exps",
    "gram",
    "gram_rect",
    "Stack",
    "pair",
    "l2_gram",
    "energy_gram",
    "div_gram",
    "a_gram",
    "pjp_gram",
    "sym_gram",
]

Blocks = dict[int, np.ndarray]


def _add(out: Blocks, d: int, v: np.ndarray) -> None:
    out[d] = out[d] + v if d in out else v


def pair(n: int, P: Blocks, Q: Blocks, shape: tuple[int, int]) -> np.ndarray:
    """Exact sphere integrals of sum_k P_k Q_k for every pair of fields, shape (B1, B2).

    Blocks are (B, K, M_d) with the same K on both sides; odd degree sums
    integrate to zero and are skipped.
    """
    out = np.zeros(shape)
    for d1, a in P.items():
        for d2, b in Q.items():
            if (d1 + d2) % 2:
                continue
            G = gram_rect(n, d1, d2) if d1 <= d2 else gram_rect(n, d2, d1).T
            out += (a @ G).reshape(shape[0], -1) @ b.reshape(shape[1], -1).T
    return out


class Stack:
    """A batch of ``size`` poly fields with ``width`` components, as coefficient stacks.

    The derived stacks (Jacobian, J x, J^t x, <f, x>, div_S, A f) are
    computed once per instance, so the forms of one field share them.
    """

    def __init__(self, n: int, size: int, width: int, blocks: Blocks):
        self.n, self.size, self.width, self.blocks = n, size, width, blocks

    @classmethod
    def of(cls, fields: Sequence[Sequence[Poly]]) -> "Stack":
        """Stack of a batch of fields, each a sequence of Poly components."""
        n, width = fields[0][0].n, len(fields[0])
        blocks: Blocks = {}
        for b, f in enumerate(fields):
            for i, c in enumerate(f):
                for d, v in c.blocks.items():
                    if d not in blocks:
                        blocks[d] = np.zeros((len(fields), width, v.shape[0]))
                    blocks[d][b, i] = v
        return cls(n, len(fields), width, blocks)

    def polys(self) -> list[Poly]:
        """Components of the first field as Polys (the blocks are not copied)."""
        return [Poly.from_blocks(self.n, {d: C[0, i] for d, C in self.blocks.items()})
                for i in range(self.width)]

    def integral(self) -> np.ndarray:
        """Sphere means of every component, shape (size, width)."""
        out = np.zeros((self.size, self.width))
        for d, C in self.blocks.items():
            if d % 2 == 0:
                out += C @ _moments(self.n, d)
        return out

    def first_moments(self) -> np.ndarray:
        """Sphere means of every component times x_l, shape (size, width, n)."""
        out = np.zeros((self.size, self.width, self.n))
        for d, C in self.blocks.items():
            if d % 2:
                out += C @ linear_order(gram_rect(self.n, d, 1))
        return out

    # -- first-order pieces (all need width == n except jac and jx) -----------
    @cached_property
    def jac(self) -> Blocks:
        """J_il = D_l f^i at degree d-1, rows row-major over (i, l)."""
        n, B = self.n, self.size
        out = {}
        for d, C in self.blocks.items():
            if d >= 1:
                src, coef = grad_index(n, d)   # one term per entry: a gather, exact
                out[d - 1] = (C[..., src] * coef).reshape(B, self.width * n, -1)
        return out

    @cached_property
    def inner_x(self) -> Blocks:
        """<f, x> at degree d+1, one row."""
        return {d + 1: xdot(C, self.n, d)[:, None] for d, C in self.blocks.items()}

    @cached_property
    def jx(self) -> Blocks:
        """J x = d f on each degree-d block (Euler operator)."""
        return {d: d * C for d, C in self.blocks.items() if d >= 1}

    @cached_property
    def xjx(self) -> Blocks:
        """<J x, x> = d <f, x> at degree d+1."""
        return {d: (d - 1) * v for d, v in self.inner_x.items() if d >= 2}

    @cached_property
    def _jac_t(self) -> Blocks:
        """J^t per degree, shape (B, n, n, M), entry (l, a) = D_l f^a."""
        n = self.n
        return {d: J.reshape(self.size, n, n, -1).transpose(0, 2, 1, 3) for d, J in self.jac.items()}

    @cached_property
    def jtx(self) -> Blocks:
        """(J^t x)_l = sum_a X_a D_l f^a at degree d."""
        return {d + 1: xdot(Jt, self.n, d) for d, Jt in self._jac_t.items()}

    @cached_property
    def div(self) -> Blocks:
        """Ambient divergence tr J at degree d-1, one row."""
        n = self.n
        return {d: np.trace(J.reshape(self.size, n, n, -1), axis1=1, axis2=2)[:, None]
                for d, J in self.jac.items()}

    @cached_property
    def div_s(self) -> Blocks:
        """Surface divergence tr(J P) = tr J - <J x, x>, one row."""
        out = dict(self.div)
        for d, v in self.xjx.items():
            _add(out, d, -v)
        return out

    @cached_property
    def jac_sym(self) -> Blocks:
        """(J + J^t) / 2, rows over (i, l)."""
        return {d: 0.5 * (J + self._jac_t[d].reshape(J.shape)) for d, J in self.jac.items()}

    @cached_property
    def a_field(self) -> "Stack":
        """A f = (tr J) x - J^t x, degree by degree: (A f)_i = sum_j (X_i D_j - X_j D_i) f^j."""
        n, B = self.n, self.size
        blocks = {}
        for d, Jt in self._jac_t.items():
            W = np.negative(Jt, order="C")             # W[b, i, a] = delta_ai tr J - D_i f^a
            W[:, np.arange(n), np.arange(n)] += self.div[d]
            blocks[d + 1] = xdot(W, n, d)
        return Stack(n, B, n, blocks)


# ---------------------------------------------------------------------------
# bilinear forms on two batches, each a (size1, size2) matrix of exact integrals
# ---------------------------------------------------------------------------

def _shape(a: Stack, b: Stack) -> tuple[int, int]:
    return (a.size, b.size)


def l2_gram(a: Stack, b: Stack) -> np.ndarray:
    """int <f, g>."""
    return pair(a.n, a.blocks, b.blocks, _shape(a, b))


def energy_gram(a: Stack, b: Stack) -> np.ndarray:
    """int <grad_T f, grad_T g> = int <J_f, J_g> - <J_f x, J_g x>."""
    s = _shape(a, b)
    return pair(a.n, a.jac, b.jac, s) - pair(a.n, a.jx, b.jx, s)


def div_gram(a: Stack, b: Stack) -> np.ndarray:
    """int div_S f div_S g."""
    return pair(a.n, a.div_s, b.div_s, _shape(a, b))


def a_gram(a: Stack, b: Stack) -> np.ndarray:
    """int <f, A g>."""
    return pair(a.n, a.blocks, b.a_field.blocks, _shape(a, b))


def pjp_gram(a: Stack, b: Stack) -> np.ndarray:
    """int <P J_f P, P J_g P>."""
    n, s = a.n, _shape(a, b)
    return (pair(n, a.jac, b.jac, s) - pair(n, a.jtx, b.jtx, s)
            - pair(n, a.jx, b.jx, s) + pair(n, a.xjx, b.xjx, s))


def sym_gram(a: Stack, b: Stack) -> np.ndarray:
    """int <(P J_f P)_sym, (P J_g P)_sym>."""
    n, s = a.n, _shape(a, b)

    def r(S: Stack) -> Blocks:  # J^t x + J x
        out = dict(S.jtx)
        for d, v in S.jx.items():
            _add(out, d, v)
        return out

    return (pair(n, a.jac_sym, b.jac_sym, s) - 0.5 * pair(n, r(a), r(b), s)
            + pair(n, a.xjx, b.xjx, s))
