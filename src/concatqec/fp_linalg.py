"""Exact linear algebra over the prime fields F_p for small p.

Vectors and matrices are small immutable containers of plain Python
integers reduced modulo p.  Every operation is exact; there is no
floating point anywhere in this module.  Everything rests on one
kernel, row_reduce: Gauss-Jordan elimination to reduced row-echelon
form over a stack of int64 matrices at once, vectorized across the
stack, with entries below p <= 7 so no product can overflow.  It yields
the rank, a kernel basis and inverses, for which the container
functions pass a stack of one; the admissibility check passes every
error support of one size in a single stack.  Nothing enumerates the
vectors of F_p^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

import numpy as np

SUPPORTED_PRIMES = (2, 3, 5, 7)


class FpError(ValueError):
    """Raised when a field element, vector, or matrix is malformed."""


def check_prime(p: int) -> None:
    """Validate the field order.

    Args:
        p: candidate field order.

    Raises:
        FpError: if p is not one of the supported primes.
    """
    if p not in SUPPORTED_PRIMES:
        raise FpError(f"field order must be one of {SUPPORTED_PRIMES}, got {p}")


# The inverse of each residue mod p, with 0 sent to 0.
_INVERSES = {p: np.array([0] + [pow(v, p - 2, p) for v in range(1, p)])
             for p in SUPPORTED_PRIMES}


# ---------------------------------------------------------------------------
# Containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FpVector:
    """A fixed-length vector over F_p.

    Attributes:
        entries: tuple of canonical representatives in [0, p).
        p: field order, a supported prime.
    """

    entries: Tuple[int, ...]
    p: int

    def __post_init__(self) -> None:
        check_prime(self.p)
        object.__setattr__(self, "entries", tuple(int(v) for v in self.entries))
        for v in self.entries:
            if not 0 <= v < self.p:
                raise FpError(f"vector entry {v} outside [0, {self.p})")

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def length(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.entries)


@dataclass(frozen=True)
class FpMatrix:
    """A rectangular matrix over F_p with explicit shape.

    The explicit row and column counts keep degenerate shapes such as
    0 x k and k x 0 well defined; those shapes arise naturally when an
    index set used to cut a submatrix is empty.

    Attributes:
        entries: row-major tuple of row tuples, canonical values in [0, p).
        rows: number of rows.
        cols: number of columns.
        p: field order, a supported prime.
    """

    entries: Tuple[Tuple[int, ...], ...]
    rows: int
    cols: int
    p: int

    def __post_init__(self) -> None:
        check_prime(self.p)
        object.__setattr__(
            self, "entries", tuple(tuple(int(v) for v in row) for row in self.entries)
        )
        if len(self.entries) != self.rows:
            raise FpError(f"expected {self.rows} rows, got {len(self.entries)}")
        for row in self.entries:
            if len(row) != self.cols:
                raise FpError(f"expected {self.cols} columns, got {len(row)}")
            for v in row:
                if not 0 <= v < self.p:
                    raise FpError(f"matrix entry {v} outside [0, {self.p})")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]], p: int) -> "FpMatrix":
        """Build a matrix from an iterable of equal-length rows.

        Args:
            rows: row iterables; must be nonempty so the shape is defined.
            p: field order.

        Returns:
            The matrix with inferred shape.
        """
        grid = tuple(tuple(int(v) % p for v in row) for row in rows)
        if not grid:
            raise FpError("cannot infer shape from an empty row list")
        return cls(entries=grid, rows=len(grid), cols=len(grid[0]), p=p)

    @classmethod
    def zeros(cls, rows: int, cols: int, p: int) -> "FpMatrix":
        return cls(entries=tuple((0,) * cols for _ in range(rows)),
                   rows=rows, cols=cols, p=p)

    def entry(self, i: int, j: int) -> int:
        return self.entries[i][j]

    def is_symmetric_zero_diagonal(self) -> bool:
        """True when the matrix is a valid weighted adjacency matrix."""
        if self.rows != self.cols:
            return False
        for i in range(self.rows):
            if self.entries[i][i] != 0:
                return False
            for j in range(i + 1, self.cols):
                if self.entries[i][j] != self.entries[j][i]:
                    return False
        return True


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------

def mat_submatrix(a: FpMatrix, row_set: Iterable[int], col_set: Iterable[int]) -> FpMatrix:
    """Cut the block of a indexed by sorted row and column index sets.

    Args:
        a: source matrix.
        row_set: row indices, any iterable; used in sorted order.
        col_set: column indices, any iterable; used in sorted order.

    Returns:
        The |row_set| x |col_set| block.

    Raises:
        FpError: if any index is out of range or repeated.
    """
    rows = sorted(int(i) for i in row_set)
    cols = sorted(int(j) for j in col_set)
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        raise FpError("index sets must not contain repeats")
    for i in rows:
        if not 0 <= i < a.rows:
            raise FpError(f"row index {i} outside [0, {a.rows})")
    for j in cols:
        if not 0 <= j < a.cols:
            raise FpError(f"column index {j} outside [0, {a.cols})")
    grid = tuple(tuple(a.entries[i][j] for j in cols) for i in rows)
    return FpMatrix(entries=grid, rows=len(rows), cols=len(cols), p=a.p)


# ---------------------------------------------------------------------------
# Elimination
# ---------------------------------------------------------------------------

def row_reduce(stack: np.ndarray, p: int) -> Tuple[np.ndarray, np.ndarray]:
    """Reduced row-echelon forms over F_p of a stack of matrices, all at once.

    Gauss-Jordan elimination runs on every matrix of the stack together,
    one column at a time.  In each matrix some row not yet holding a
    pivot, with a nonzero entry in the column, becomes the pivot row: it
    is scaled to a leading 1 and cleared from every other row.  Which
    row does so changes nothing, as the reduced form is unique.  A
    matrix whose column has no such row meets a zero pivot row, which
    clears nothing.  Rows are put in echelon order once, at the end.

    Args:
        stack: integer array of shape (S, R, C), read modulo p; any of
            S, R and C may be 0.  It is not modified.
        p: field order, a supported prime.

    Returns:
        (reduced, pivots): the (S, R, C) int64 stack of reduced forms,
        each with its pivot rows first, a leading 1 that is 0 in every
        other row, then its zero rows; and the (S, C) boolean mask of
        each matrix's pivot columns, whose count is its rank.

    Raises:
        FpError: if p is not supported or the stack is not 3-d.
    """
    check_prime(p)
    # C order, so that flat below is a view of a.
    a = np.ascontiguousarray(np.asarray(stack, dtype=np.int64) % p)
    if a.ndim != 3:
        raise FpError(f"expected a stack of matrices, got shape {a.shape}")
    count, rows, cols = a.shape
    pivots = np.zeros((count, cols), dtype=bool)
    if not rows or not cols:
        return a, pivots
    # Flat views index a row of any matrix by one number.
    flat = a.reshape(count * rows, cols)
    # 1 for a row that holds no pivot yet, 0 for a pivot row.
    free = np.ones((count, rows), dtype=np.int64)
    free_flat = free.reshape(-1)
    first_row = np.arange(0, count * rows, rows)
    inverse = _INVERSES[p]
    for col in range(cols):
        column = a[:, :, col]
        # The largest entry of the free rows is nonzero when any is.
        candidates = column * free
        at = first_row + candidates.argmax(axis=1)
        value = candidates.take(at)
        # Row r loses factor_r times the scaled pivot row.  The pivot row's
        # factor is its entry less 1, which leaves it scaled.
        pivot = flat.take(at, axis=0) * inverse[value][:, np.newaxis]
        factor = column.flatten()
        factor[at] -= 1
        a -= factor.reshape(count, rows, 1) * pivot[:, np.newaxis, :]
        a %= p
        found = value != 0
        free_flat[at] -= found
        pivots[:, col] = found
    # A pivot row leads with its pivot column; the zero rows go last.
    lead = np.where(free, cols, (a != 0).argmax(axis=2))
    order = lead.argsort(axis=1, kind="stable")
    return flat.take(first_row[:, np.newaxis] + order, axis=0), pivots


def _array(a: FpMatrix) -> np.ndarray:
    """The entries of a as an int64 array of shape (a.rows, a.cols)."""
    return np.array(a.entries, dtype=np.int64).reshape(a.rows, a.cols)


def mat_rank(a: FpMatrix) -> int:
    """Rank over F_p by Gaussian elimination."""
    return int(row_reduce(_array(a)[np.newaxis], a.p)[1].sum())


def mat_inverse(a: FpMatrix) -> FpMatrix:
    """The inverse over F_p, read off the reduced form of [a | I].

    Raises:
        FpError: if a is not square or is singular.
    """
    n = a.rows
    grid = np.hstack([_array(a), np.eye(n, dtype=np.int64)])
    reduced, pivots = row_reduce(grid[np.newaxis], a.p)
    if a.cols != n or not pivots[0, :n].all():
        raise FpError(f"the {n} x {a.cols} matrix has no inverse over F_{a.p}")
    return FpMatrix(entries=tuple(map(tuple, reduced[0, :, n:].tolist())),
                    rows=n, cols=n, p=a.p)


def kernel_basis(a: FpMatrix) -> List[FpVector]:
    """A basis of {v : a v = 0} over F_p, in reduced row-echelon form.

    Each vector has a leading 1 that is 0 in every other vector, and the
    vectors are ordered by leading column.  So the kernel vector with
    coefficients c on this basis carries c_i at the i-th leading column
    and nothing before it, and kernel vectors sort lexicographically in
    the order of their coefficient vectors.

    Args:
        a: any shape, including 0 rows (the whole space is the kernel)
            and 0 columns (the kernel is {0} and the basis is empty).

    Returns:
        a.cols - rank(a) vectors of length a.cols.
    """
    reduced, pivots = row_reduce(_array(a)[np.newaxis], a.p)
    basis = echelon_kernel(reduced[0], pivots[0], a.p)
    return [FpVector(entries=tuple(v), p=a.p) for v in basis.tolist()]


def echelon_kernel(reduced: np.ndarray, pivots: np.ndarray, p: int) -> np.ndarray:
    """The basis kernel_basis gives, read off a matrix's reduced form.

    Args:
        reduced: an (R, C) reduced row-echelon form, as row_reduce gives.
        pivots: its (C,) boolean mask of pivot columns.
        p: field order.

    Returns:
        The (C - rank, C) int64 array of basis vectors, one per row.
    """
    free = np.flatnonzero(~pivots)
    # One solution per free column f: v_f = 1, the other free entries 0,
    # and the pivot entries read off the reduced rows.  Reducing these
    # vectors in turn gives the echelon basis of the same space.
    basis = np.zeros((len(free), len(pivots)), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -reduced[:pivots.sum()][:, free].T
    return row_reduce(basis[np.newaxis], p)[0][0]
