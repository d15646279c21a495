"""The dense einsum formulas for the structure-tensor kernels.

These are the definitions the package's kernels must reproduce, written
straight from c[i, j, k] (basis_i * basis_j = sum_k c[i, j, k] basis_k) with
no tables and no reshapes.  They cost O(N^3) per product and O(N^5) time and
O(N^3) memory a basis row for the associativity residual, so tests only call
them.
"""

from __future__ import annotations

import numpy as np


def multiply(c, x, y):
    return np.einsum("i,j,ijk->k", x, y, c)


def left_matrix(c, a):
    """Matrix of x -> a*x; column j is a*basis_j."""
    return np.einsum("i,ijk->kj", a, c)


def right_matrix(c, a):
    """Matrix of x -> x*a; column i is basis_i*a."""
    return np.einsum("j,ijk->ki", a, c)


def associativity_residual(c):
    """Largest entry of (e_i e_j) e_k - e_i (e_j e_k) over the whole basis,
    one i at a time."""
    gaps = []
    for ci in c:  # ci[j, m] = c[i, j, m]
        lhs = np.einsum("jm,mkl->jkl", ci, c, optimize=True)
        rhs = np.einsum("jkm,ml->jkl", c, ci, optimize=True)
        gaps.append(np.max(np.abs(lhs - rhs)))
    return float(np.max(gaps))


def rotation(n, rng):
    """A random orthogonal basis change f_i = sum_a basis[a, i] e_a that
    keeps the unit e_0; coordinates map as x_f = basis.T @ x_e."""
    q, r = np.linalg.qr(rng.standard_normal((n - 1, n - 1)))
    basis = np.eye(n)
    basis[1:, 1:] = q * np.sign(np.diag(r))
    return basis


def rotated(c, basis):
    """c in the basis f of `rotation`, with the unit rows and columns reset
    to the exact identity: a dense tensor of the same algebra."""
    n = c.shape[0]
    out = np.einsum("ai,bj,abm,mk->ijk", basis, basis, c, basis, optimize=True)
    out[0] = np.eye(n)
    out[:, 0] = np.eye(n)
    return out


def rebased(c, basis):
    """c in the basis f_i = sum_a basis[a, i] e_a, which need not be
    orthogonal (basis[:, 0] is the unit e_0), with the unit rows and columns
    reset to the exact identity."""
    n = c.shape[0]
    out = np.einsum("ai,bj,abm,km->ijk", basis, basis, c, np.linalg.inv(basis),
                    optimize=True)
    out[0] = np.eye(n)
    out[:, 0] = np.eye(n)
    return out


def rescaled_blades(c, labels, k, draw):
    """Cl(p,q)'s tensor c with generator g scaled by 2^(k sigma_g), sigma drawn
    by default_rng([1, draw]), and each blade (label "e12...") by the product
    of its generators' scales: an exact change of basis."""
    sigma = np.random.default_rng([1, draw]).choice([-1, 1], c.shape[0].bit_length() - 1)
    gen = np.ldexp(1.0, k * sigma)
    scales = [np.prod([gen[int(g) - 1] for g in label[1:]]) for label in labels]
    return rebased(c, np.diag(scales))


def matrix_basis(n):
    """The basis 1, E_ij ((i, j) != (0, 0)) of M_n(R), (i, j) in row-major
    order: an (n^2, n, n) array whose element 0 is the identity."""
    basis = np.eye(n * n).reshape(n * n, n, n)
    basis[0] = np.eye(n)
    return basis


def matrix_algebra(n):
    """The exact tensor of M_n(R) in matrix_basis: c[i, j] holds the
    coordinates of basis_i @ basis_j, where x = x_00 1 + sum x_ij E_ij
    less x_00 on the diagonal."""
    basis = matrix_basis(n)
    products = np.einsum("iab,jbc->ijac", basis, basis).reshape(n * n, n * n, n * n)
    products[:, :, n + 1::n + 1] -= products[:, :, :1]
    return products


def direct_sum(c, d):
    """A + B from tensors with the unit at index 0, in the basis 1 + 1, the
    other basis elements of A, 1 of B, the others of B: the unit kept as
    basis element 0."""
    n, m = c.shape[0], d.shape[0]
    out = np.zeros((n + m,) * 3)
    out[:n, :n, :n] = c
    out[n:, n:, n:] = d
    basis = np.eye(n + m)
    basis[n, 0] = 1.0  # column 0 is (1, 1)
    return rebased(out, basis)


def dual_numbers(c):
    """A[eps] = A (x) R[eps], eps^2 = 0, in the basis e_i, then e_i eps."""
    n = c.shape[0]
    out = np.zeros((2 * n,) * 3)
    out[:n, :n, :n] = c
    out[:n, n:, n:] = c
    out[n:, :n, n:] = c
    return out
