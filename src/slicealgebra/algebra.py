"""Real associative unital algebras given by dense structure constants.

An algebra of dimension N is the tensor c with

    basis_i * basis_j = sum_k c[i, j, k] * basis_k

plus a distinguished unit basis index.  Everything downstream (inverses,
zerodivisor tests, kernels, Newton searches) is built on L_a (x -> a*x),
with x*y = L_x y, and R_a (x -> x*a), L_a of the opposite algebra (c[j, i, k]).

The kernel is chosen once, from the tensor.  When each basis product is a
nonzero multiple of a single basis element and multiplying by a basis
element on either side permutes the basis (Clifford algebras, twisted group
algebras), L_a and R_a are signed permutation matrices scaled by the
entries of a, gathered from two N x N tables.  Every other tensor is
multiplied through one contiguous (N, N^2) matrix per side.  Both check
associativity one basis row at a time, by table lookups in O(N^2) memory a
row or by matrix products in O(N^3).

Clifford algebras R_{p,q} are built from bitmask blades, one bit per
generator, by the rule e_A e_B = +-e_{A xor B} (Dorst, Fontijne and Mann,
Geometric Algebra for Computer Science, ch. 19), for all pairs at once.
Blades are graded-lexicographically ordered, so that the unit is index 0
and the pseudoscalar is the last basis element.

Invertibility is decided on L_a alone: a is a zerodivisor exactly when
inverse(a) raises ZeroDivisorError.  Quotients need no inverse:
left_divide and right_divide are one LU solve each, and the one place where
LAPACK's LinAlgError becomes ZeroDivisorError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .config import MAX_CLIFFORD_GENERATORS, MAX_DIMENSION, within_tol
from .errors import (
    BadUnitError,
    DimensionMismatchError,
    NonAssociativeError,
    TooLargeError,
    ZeroDivisorError,
)
from .numerics import numerical_rank, vector_norm

_FLOAT = np.dtype(float)  # native float64, the dtype of an Element's coefficients


class kept_property(cached_property):
    """cached_property with no lock on a first read (3.8-3.11 take one, 3.12 none)."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        return instance.__dict__.setdefault(self.attrname, self.func(instance))


@dataclass(eq=False)
class Algebra:
    """Immutable container for one structure-constant algebra."""

    structure_constants: np.ndarray
    unit_index: int
    labels: tuple[str, ...]
    signature: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        c = np.asarray(self.structure_constants, dtype=float)
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise DimensionMismatchError(f"structure tensor must be cubic, got shape {c.shape}")
        c = np.ascontiguousarray(c)
        c.flags.writeable = False
        object.__setattr__(self, "structure_constants", c)
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) != c.shape[0]:
            raise DimensionMismatchError("label count must match dimension")
        table = self._product_table = _product_table(c)
        self._left = _operator_kernel(c, table)
        self._right = _operator_kernel(c.transpose(1, 0, 2),
                                       None if table is None else (table[0].T, table[1].T))

    @property
    def dimension(self) -> int:
        return self.structure_constants.shape[0]

    # -- element constructors ------------------------------------------------

    def element(self, coeffs: Iterable[float]) -> "Element":
        e = Element(self, coeffs.copy() if isinstance(coeffs, np.ndarray) else list(coeffs))
        if e.coeffs.shape != (self.dimension,):
            raise DimensionMismatchError(
                f"expected {self.dimension} coefficients, got {e.coeffs.shape}")
        return e

    def basis_element(self, i: int) -> "Element":
        v = np.zeros(self.dimension)
        v[i] = 1.0
        return Element(self, v)

    @kept_property
    def kept(self) -> dict:
        """The derived facts other modules keep per algebra object (its seed
        roots, quaternion frame, standard G, base fiber), freed with it by gc."""
        return {}

    @kept_property
    def unit_vector(self) -> np.ndarray:
        """The unit's coefficients: one read-only vector, built on first use."""
        return self.basis_element(self.unit_index).coeffs

    @kept_property
    def structure_norm(self) -> float:
        """mu, the Frobenius norm of the structure constants: ||x*y|| <= mu ||x|| ||y||."""
        return np.linalg.norm(self.structure_constants)

    @kept_property
    def _associativity(self) -> tuple[float, float]:
        """_associativity_defects(self), computed once (make_algebra checks it)."""
        return _associativity_defects(self)

    @property
    def associativity_residual(self) -> float:
        """Largest entry of (e_i e_j) e_k - e_i (e_j e_k), from make_algebra's check."""
        return self._associativity[0]

    @kept_property
    def basis_square_defects(self) -> np.ndarray:
        """||e_i*e_i + 1|| for each basis element: read-only, built on first use."""
        d = np.linalg.norm(self.structure_constants.diagonal().T + self.unit_vector, axis=1)
        d.flags.writeable = False
        return d

    def unit(self) -> "Element":
        return Element(self, self.unit_vector)

    def zero(self) -> "Element":
        return Element(self, np.zeros(self.dimension))

    def scalar(self, t: float) -> "Element":
        v = np.zeros(self.dimension)
        v[self.unit_index] = float(t)
        return Element(self, v)

    def random_element(self, rng: np.random.Generator) -> "Element":
        return Element(self, rng.standard_normal(self.dimension))

    # -- raw vector kernels --------------------------------------------------

    def multiply_vec(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Coefficients of x*y, computed as L_x @ y."""
        return self.left_matrix_vec(x) @ y

    def left_matrix_vec(self, a: np.ndarray) -> np.ndarray:
        """Matrix of x -> a*x; column j is a*basis_j."""
        if self._product_table is not None:
            index, value = self._left
            return a[index] * value
        n = self.dimension
        return (a @ self._left).reshape(n, n)

    def right_matrix_vec(self, a: np.ndarray) -> np.ndarray:
        """Matrix of x -> x*a; column i is basis_i*a."""
        if self._product_table is not None:
            index, value = self._right
            return a[index] * value
        n = self.dimension
        return (a @ self._right).reshape(n, n)

    def compatible(self, other: "Algebra") -> bool:
        if self is other:
            return True
        return (self.dimension == other.dimension
                and self.unit_index == other.unit_index
                and np.array_equal(self.structure_constants, other.structure_constants))

    def label_linear_combination(self, coeffs: np.ndarray) -> str:
        parts = [f"{r:+g}*{lab}"  # terms that round to 0 at 6 decimals are left out
                 for x, lab in zip(coeffs, self.labels) if (r := round(float(x), 6))]
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        sig = f", signature={self.signature}" if self.signature else ""
        return f"Algebra(dim={self.dimension}{sig})"


@dataclass(frozen=True, eq=False)
class Element:
    """An Algebra element; it owns its coefficient array and makes it read-only."""

    algebra: Algebra
    coeffs: np.ndarray
    _norm = None  # not a field; norm() sets it, not via __dict__, which slows later reads

    def __post_init__(self) -> None:
        c = self.coeffs  # checked before the cast, which would drop an imaginary part
        if type(c) is not np.ndarray or c.dtype is not _FLOAT:  # else kept as it is
            if c.dtype.kind == "c" if isinstance(c, np.ndarray) else np.iscomplexobj(c):
                raise ValueError("coefficients must be real")
            c = np.asarray(c, dtype=float)
            object.__setattr__(self, "coeffs", c)
        c.flags.writeable = False

    def _require_same(self, other: "Element") -> None:
        if not self.algebra.compatible(other.algebra):
            raise DimensionMismatchError("elements from incompatible algebras")

    def __add__(self, other: "Element") -> "Element":
        self._require_same(other)
        return Element(self.algebra, self.coeffs + other.coeffs)

    def __sub__(self, other: "Element") -> "Element":
        self._require_same(other)
        return Element(self.algebra, self.coeffs - other.coeffs)

    def __neg__(self) -> "Element":
        return Element(self.algebra, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Element):
            self._require_same(other)
            return Element(self.algebra,
                           self.algebra.multiply_vec(self.coeffs, other.coeffs))
        return Element(self.algebra, self.coeffs * float(other))

    def __rmul__(self, other) -> "Element":
        return Element(self.algebra, float(other) * self.coeffs)

    def __truediv__(self, other) -> "Element":
        return Element(self.algebra, self.coeffs / float(other))

    def norm(self) -> float:
        """np.linalg.norm(coeffs), bit for bit (numerics.vector_norm), kept from the first call."""
        if self._norm is None:
            object.__setattr__(self, "_norm", vector_norm(self.coeffs))
        return self._norm

    def __repr__(self) -> str:
        return f"<{self.algebra.label_linear_combination(self.coeffs)}>"


def make_algebra(structure_constants,
                 unit_index: int = 0,
                 labels: Sequence[str] | None = None,
                 signature: tuple[int, int] | None = None,
                 tol: float | None = None) -> Algebra:
    """Validate structure constants and wrap them as an Algebra.

    Entries must be finite.  Associativity is checked on the full basis by
    the tolerance rule: each associator (e_i e_j) e_k - e_i (e_j e_k) against
    the summed sizes sum_l sum_m |c_ijm c_mkl| + |c_jkm c_iml| of the products
    it compares (_associativity_defects), so that the verdict does not change
    with the scale of the basis.  The unit law is required to hold exactly
    on the tensor entries.
    """
    c = np.asarray(structure_constants, dtype=float)
    if labels is None:
        size = c.shape[0] if c.ndim else 0  # a scalar fails the shape check below
        labels = ["1" if i == unit_index else f"b{i}" for i in range(size)]
    algebra = Algebra(c, unit_index, tuple(labels), signature)
    n = algebra.dimension
    if n < 1:
        raise DimensionMismatchError("dimension must be at least 1")
    if n > MAX_DIMENSION:
        raise TooLargeError(f"dimension {n} exceeds the limit of {MAX_DIMENSION}")
    if not 0 <= unit_index < n:
        raise BadUnitError(f"unit index {unit_index} out of range")
    if not np.all(np.isfinite(c)):
        raise ValueError("structure constants must be finite")

    eye = np.eye(n)
    if not (np.array_equal(c[unit_index], eye) and np.array_equal(c[:, unit_index], eye)):
        raise BadUnitError("designated unit fails the unit law")

    absolute, relative = algebra._associativity
    if not within_tol(relative, 1.0, tol):
        raise NonAssociativeError(f"associativity violation {relative:.3e} of the size of the "
                                  f"products compared (largest entry {absolute:.3e})")
    return algebra


def _ratio(gap: np.ndarray, size: np.ndarray) -> float:
    """The largest gap / size, taken as 0 where size is 0 (both sides exactly 0)."""
    return float(np.divide(gap, size, out=np.zeros_like(gap), where=size > 0).max())


def _associativity_defects(algebra: Algebra) -> tuple[float, float]:
    """The largest entry of (e_i e_j) e_k - e_i (e_j e_k) over the whole
    basis, and the largest ratio, over the triples (i, j, k), of that
    associator's 1-norm to the summed sizes of the products it compares,
    sum_l sum_m |c_ijm c_mkl| + |c_jkm c_iml|.  (Entry by entry, the
    rounding-level entries of a rotated tensor would be compared with sizes
    of their own rounding level.)

    Both paths check one basis row i at a time.  With a product table both
    sides are single scaled basis elements, found by two table lookups each,
    in O(N^2) memory a row: where they land on one basis element the size
    is the sum of their moduli, elsewhere the associator is its own size.
    Otherwise row i is formed by two matrix products, in O(N^3) memory a
    row, and its sizes, summed over l first, in O(N^2).
    """
    worst = relative = 0.0
    if algebra._product_table is not None:
        idx, val = algebra._product_table
        for i in range(algebra.dimension):  # [j, k] of row i
            left_at, left = idx[idx[i]], val[i][:, None] * val[idx[i]]
            right_at, right = idx[i][idx], val * val[i][idx]
            same = left_at == right_at
            gap = np.where(same, np.abs(left - right), np.maximum(np.abs(left), np.abs(right)))
            row_worst = float(gap.max())
            worst = max(worst, row_worst)
            if row_worst:  # else every ratio of the row is 0
                size = np.abs(left) + np.abs(right)
                relative = max(relative, _ratio(np.where(same, gap, size), size))
        return worst, relative
    c = algebra.structure_constants
    n = algebra.dimension
    by_m = c.reshape(n, n * n)   # [m, (k, l)]
    by_jk = c.reshape(n * n, n)  # [(j, k), m]
    size_m = np.abs(c).sum(axis=2)  # [m, k]: sum_l |c[m, k, l]|
    size_jk = np.abs(by_jk)
    for row in c:  # row[j, m] = c[i, j, m]
        lhs = row @ by_m   # sum_m c[i, j, m] c[m, k, l]
        rhs = by_jk @ row  # sum_m c[j, k, m] c[i, m, l]
        gap = np.abs(lhs.reshape(n, n, n) - rhs.reshape(n, n, n))
        size_row = np.abs(row)
        # [j, k]: sum_l sum_m |c[i, j, m] c[m, k, l]| + |c[j, k, m] c[i, m, l]|
        size = size_row @ size_m + (size_jk @ size_row.sum(axis=1)).reshape(n, n)
        worst = max(worst, float(gap.max()))
        relative = max(relative, _ratio(gap.sum(axis=2), size))
    return worst, relative


def _product_table(c: np.ndarray):
    """(idx, val) with e_i e_j = val[i, j] e_{idx[i, j]}, or None.

    A table exists when every slice c[i, j, :] has exactly one nonzero entry
    and both i -> idx[i, j] and j -> idx[i, j] are bijections, so that L and
    R of a basis element are scaled permutations.
    """
    n = c.shape[0]
    nonzero = c != 0
    if n == 0 or not np.all(np.count_nonzero(nonzero, axis=2) == 1):
        return None
    idx = np.argmax(nonzero, axis=2)
    basis = np.arange(n)
    if not (np.all(np.sort(idx, axis=0) == basis[:, None])
            and np.all(np.sort(idx, axis=1) == basis)):
        return None
    return idx, np.take_along_axis(c, idx[:, :, None], axis=2)[:, :, 0]


def _operator_kernel(c: np.ndarray, table):
    """What left_matrix_vec reads for c: the contiguous (N, N^2) copy with
    L_a[k, j] = a @ c[:, j, k], or, from c's product table (idx, val), the
    gather with L_a[idx[i, j], j] = a_i val[i, j]: L_a = a[index] * value."""
    if table is None:
        n = c.shape[0]
        return c.transpose(0, 2, 1).reshape(n, n * n)
    index = np.argsort(table[0], axis=0)  # inverts the permutation in each column
    return index, np.take_along_axis(table[1], index, axis=0)


# -- Clifford construction ---------------------------------------------------


def clifford_algebra(p: int, q: int) -> Algebra:
    """The Clifford algebra R_{p,q} on n = p+q anticommuting generators.

    Basis blades e_I are indexed by subsets of {1..n}, ordered by cardinality
    and then lexicographically, so index 0 is the unit and the last index is
    the pseudoscalar e_1...e_n.  As bitmasks (bit g-1 for generator g),
    e_A e_B = sign * e_{A xor B}: sorting the generators of B past those of
    A takes one swap per pair a > b, and each shared generator beyond the
    first p squares to -1.
    """
    if p < 0 or q < 0:
        raise ValueError("signature parts must be nonnegative")
    n = p + q
    if n > MAX_CLIFFORD_GENERATORS:
        raise TooLargeError(f"{n} generators exceed the limit of {MAX_CLIFFORD_GENERATORS}")
    dim = 1 << n
    gens = [[g for g in range(n) if mask >> g & 1] for mask in range(dim)]
    blades = np.array(sorted(range(dim), key=lambda mask: (len(gens[mask]), gens[mask])))
    odd = np.array([len(g) % 2 for g in gens])
    a, b = blades[:, None], blades[None, :]
    flips = sum(odd[(a >> k) & b] for k in range(1, n)) + odd[a & b & ~((1 << p) - 1)]
    position = np.empty(dim, dtype=np.intp)
    position[blades] = np.arange(dim)
    c = np.zeros((dim, dim, dim))
    c[np.arange(dim)[:, None], np.arange(dim), position[a ^ b]] = 1 - 2 * (flips % 2)
    labels = tuple("e" + "".join(str(g + 1) for g in gens[mask]) if mask else "1"
                   for mask in blades)
    return make_algebra(c, unit_index=0, labels=labels, signature=(p, q))


# -- operations --------------------------------------------------------------


def _solve(op: np.ndarray, d: Element, c: Element) -> Element:
    try:
        return Element(d.algebra, np.linalg.solve(op, d.coeffs))
    except np.linalg.LinAlgError as exc:
        raise ZeroDivisorError(f"element {c!r} is singular") from exc


def inverse(a: Element) -> Element:
    """Two-sided inverse, once the singular values have shown L_a to be well
    conditioned: [L_a; R_a] y = [1; 1] by QR, backward stable for both a*y = 1
    and y*a = 1 (LU on L_a alone can leave y*a - 1 cond(L_a) times larger).
    Raises ZeroDivisorError exactly when is_zerodivisor(a)."""
    if is_zerodivisor(a):
        raise ZeroDivisorError(f"element {a!r} is numerically singular")
    alg = a.algebra
    q, r = np.linalg.qr(np.vstack([alg.left_matrix_vec(a.coeffs), alg.right_matrix_vec(a.coeffs)]))
    return Element(alg, np.linalg.solve(r, q.T @ np.tile(alg.unit_vector, 2)))


def left_divide(c: Element, d: Element) -> Element:
    """c^{-1}*d, the x with c*x = d, by one LU solve on L_c and no SVD.  Raises
    ZeroDivisorError only when LAPACK finds L_c exactly singular."""
    return _solve(c.algebra.left_matrix_vec(c.coeffs), d, c)


def right_divide(d: Element, c: Element) -> Element:
    """d*c^{-1}: the x with x*c = d, by one LU solve on R_c (as left_divide)."""
    return _solve(c.algebra.right_matrix_vec(c.coeffs), d, c)


def is_zerodivisor(a: Element) -> bool:
    """True when L_a is singular.  In a finite-dimensional associative
    unital algebra a*x = 1 forces x*a = 1, so L_a is singular exactly when
    R_a is, and one operator decides.  Singular means below full
    numerical_rank, from the singular values alone."""
    m = a.algebra.left_matrix_vec(a.coeffs)
    return numerical_rank(np.linalg.svd(m, compute_uv=False)) < a.algebra.dimension


# -- JSON interchange --------------------------------------------------------


def _json_plane(plane: np.ndarray) -> list:
    """One plane c[i] as JSON lists, integer-valued entries as ints."""
    return [[int(v) if v.is_integer() else v for v in row] for row in plane.tolist()]


def json_numbers(value) -> np.ndarray:
    """A JSON number or nested list of numbers as a float array.  Nothing is
    coerced: TypeError when some leaf is a boolean, a string or no number."""
    raw = np.asarray(value, dtype=object)  # the JSON values: numpy reads true among numbers as 1
    if not {int, float}.issuperset(map(type, raw.flat)):
        raise TypeError("expected numbers")
    return raw.astype(float)


def algebra_from_dict(data: dict, tol: float | None = None) -> Algebra:
    """The algebra of a JSON object, whose fields are not coerced: "dimension"
    and "unit_index" are integers, "labels" strings, the tensor numbers."""
    try:
        c = json_numbers(data["structure_constants"])
        n, unit_index, labels = data["dimension"], data["unit_index"], data["labels"]
        if not (type(n) is int and type(unit_index) is int and type(labels) is list
                and all(type(x) is str for x in labels)):
            raise TypeError("mistyped field")
    except (KeyError, TypeError, ValueError, OverflowError):  # a key missing or mistyped
        raise ValueError("expected an object with \"structure_constants\" (N x N x N), "
                         "\"dimension\", \"unit_index\" and \"labels\"") from None
    if c.shape != (n, n, n):
        raise DimensionMismatchError(
            f"declared dimension {n} does not match tensor shape {c.shape}")
    return make_algebra(c, unit_index=unit_index, labels=labels, tol=tol)


def dump_algebra(algebra: Algebra, path: str) -> None:
    """One JSON object and a newline, as json.dumps(sort_keys=True) spaces it:
    "dimension", "labels", "structure_constants" (c[i][j][k], integer-valued
    entries as ints) and "unit_index".  Written one plane c[i] at a time."""
    head = json.dumps({"dimension": algebra.dimension, "labels": list(algebra.labels)})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head[:-1] + ', "structure_constants": [')  # the keys in sorted order
        for i, plane in enumerate(algebra.structure_constants):
            fh.write((", " if i else "") + json.dumps(_json_plane(plane)))
        fh.write(f'], "unit_index": {json.dumps(algebra.unit_index)}}}\n')


def load_algebra(path: str, tol: float | None = None) -> Algebra:
    with open(path, "r", encoding="utf-8") as fh:
        return algebra_from_dict(json.load(fh), tol=tol)
