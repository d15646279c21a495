"""The dense einsum formulas for the structure-tensor kernels, and a corpus
of exact tensors beyond Clifford.

These are the definitions the package's kernels must reproduce, written
straight from c[i, j, k] (basis_i * basis_j = sum_k c[i, j, k] basis_k) with
no tables and no reshapes.  They cost O(N^3) per product and O(N^5) time and
O(N^3) memory a basis row for the associativity residual, so tests only call
them.  CORPUS, built here from integer entries with the unit as basis
element 0, is read by tests/test_structure_theory.py and tools/report_set.py.
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


def restricted(c, keep):
    """The subalgebra spanned by the basis elements `keep` (the unit's index
    0 first), which must be closed under the product."""
    keep = list(keep)
    dropped = np.delete(c[np.ix_(keep, keep)], keep, axis=2)
    assert not dropped.any(), "the kept basis elements do not span a subalgebra"
    return c[np.ix_(keep, keep, keep)]


def tensor_product(c, d):
    """A (x) B from tensors with the unit at index 0, in the basis e_i f_0,
    then e_i f_1, ...: basis element a n + i is e_i f_a, the unit stays
    basis element 0.  np.kron of the 3-index tensors."""
    return np.kron(d, c)


DUAL = np.zeros((2, 2, 2))  # R[eps]: 1, eps with eps*eps = 0
DUAL[0, 0, 0] = DUAL[0, 1, 1] = DUAL[1, 0, 1] = 1.0


def dual_numbers(c):
    """A[eps] = A (x) R[eps], eps^2 = 0, in the basis e_i, then e_i eps."""
    return tensor_product(c, DUAL)


def signed_table(table):
    """The tensor of a basis whose products are signed basis elements:
    table[i][j] = +-(k + 1) when basis_i * basis_j = +-basis_k."""
    t = np.array(table)
    c = np.zeros((len(t),) * 3)
    i, j = np.indices(t.shape)
    c[i, j, np.abs(t) - 1] = np.sign(t)
    return c


REAL = np.ones((1, 1, 1))
COMPLEX = signed_table([[1, 2], [2, -1]])  # 1, i
QUATERNIONS = signed_table([[1, 2, 3, 4], [2, -1, 4, -3], [3, -4, -1, 2], [4, 3, -2, -1]])  # 1, i, j, k

# name: (tensor, the simple factors of A / rad A as (field, n) for M_n(field))
CORPUS = {
    "M2(R)": (matrix_algebra(2), [("R", 2)]),
    "M3(R)": (matrix_algebra(3), [("R", 3)]),
    "M4(R)": (matrix_algebra(4), [("R", 4)]),
    "M3(C)": (tensor_product(matrix_algebra(3), COMPLEX), [("C", 3)]),
    "R[eps]": (dual_numbers(REAL), [("R", 1)]),
    "C[eps]": (dual_numbers(COMPLEX), [("C", 1)]),
    "H[eps]": (dual_numbers(QUATERNIONS), [("H", 1)]),
    # upper triangular 2 x 2 matrices in the basis 1, E01, E11: rad = R E01
    "T2(R)": (restricted(matrix_algebra(2), [0, 1, 3]), [("R", 1), ("R", 1)]),
    "R+C": (direct_sum(REAL, COMPLEX), [("R", 1), ("C", 1)]),
    "C+H": (direct_sum(COMPLEX, QUATERNIONS), [("C", 1), ("H", 1)]),
    "M2(R)+M3(R)": (direct_sum(matrix_algebra(2), matrix_algebra(3)), [("R", 2), ("R", 3)]),
}


def s_nonempty(name):
    """S = {s : s*s = -1} is empty exactly when a simple factor of CORPUS[name]
    is M_n(R) with n odd (tests/test_structure_theory.py)."""
    return not any(field == "R" and n % 2 for field, n in CORPUS[name][1])
