"""Exact linear algebra over the prime fields F_p for small p.

A matrix over F_p is one read-only int64 array with entries in [0, p),
validated once when it is built; every consumer reads that array.  A
vector is a small immutable tuple of plain Python integers, which keys
the syndrome table.  Every operation is exact; there is no floating
point anywhere in this module.  Everything rests on one kernel,
row_reduce: Gauss-Jordan elimination to reduced row-echelon form over a
stack of int64 matrices at once, vectorized across the stack, with
entries below p <= 7 so no product can overflow.  It yields ranks,
kernel bases and inverses; the admissibility check passes every error
support of one size in a single stack.  Nothing enumerates the vectors
of F_p^n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple, Union

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

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.entries)


@dataclass(frozen=True, eq=False)
class FpMatrix:
    """A rectangular matrix over F_p, held as one read-only int64 array.

    Construction validates the array once, with array operations, and
    keeps a read-only C-contiguous int64 copy, so no other reference can
    change it: the array must be 2-d and integer, with every entry in
    [0, p).  The 0 x k and k x 0 shapes are legal; they arise when an
    index set used to cut a submatrix is empty.  Matrices compare equal
    when p, the shape and the entries agree, however they were built, so
    a matrix can key a cache; its hash is computed once.

    Attributes:
        array: the (rows, cols) int64 entries, read-only.
        p: field order, a supported prime.
    """

    array: np.ndarray
    p: int
    _hash: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_prime(self.p)
        a = np.asarray(self.array)
        if a.ndim != 2:
            raise FpError(f"expected a 2-d matrix, got shape {a.shape}")
        if a.dtype.kind not in "iu":
            raise FpError(f"matrix entries must be integers, got {a.dtype}")
        a = np.ascontiguousarray(a, dtype=np.int64)
        # Read as unsigned, a negative entry lies above every p.
        if a.view(np.uint64).max(initial=0) >= self.p:
            bad = a[(a < 0) | (a >= self.p)][0]
            raise FpError(f"matrix entry {bad} outside [0, {self.p})")
        # A view of immutable bytes, which nothing can make writeable.
        data = a.tobytes()
        object.__setattr__(self, "array",
                           np.frombuffer(data, dtype=np.int64).reshape(a.shape))
        object.__setattr__(self, "_hash", hash((self.p, a.shape, data)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FpMatrix):
            return NotImplemented
        return (self._hash == other._hash and self.p == other.p
                and self.array.shape == other.array.shape
                and self.array.tobytes() == other.array.tobytes())

    def __hash__(self) -> int:
        return self._hash

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    @classmethod
    def from_rows(cls, rows: Union[np.ndarray, Sequence[Sequence[int]]],
                  p: int) -> "FpMatrix":
        """Build a matrix from equal-length integer rows, read modulo p.

        Args:
            rows: a sequence of rows, or a 2-d integer array; it must
                be nonempty so the shape is defined.
            p: field order.

        Returns:
            The matrix with inferred shape.
        """
        check_prime(p)
        if not len(rows):
            raise FpError("cannot infer shape from an empty row list")
        try:
            grid = np.array(rows, dtype=np.int64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise FpError(f"rows must be equal-length integer sequences: {exc}"
                          ) from None
        return cls(grid % p, p)

    def is_symmetric_zero_diagonal(self) -> bool:
        """True when the matrix is a valid weighted adjacency matrix."""
        a = self.array
        return (a.shape[0] == a.shape[1] and not a.diagonal().any()
                and bool((a == a.T).all()))


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


def mat_inverse(a: np.ndarray, p: int) -> np.ndarray:
    """The inverse over F_p of an integer matrix, read off the reduced
    form of [a | I].

    Args:
        a: 2-d integer array, read modulo p.  It is not modified.
        p: field order, a supported prime.

    Returns:
        The int64 inverse, with entries in [0, p).

    Raises:
        FpError: if a is not square or is singular.
    """
    rows, cols = a.shape
    grid = np.hstack([a, np.eye(rows, dtype=np.int64)])
    reduced, pivots = row_reduce(grid[np.newaxis], p)
    if cols != rows or not pivots[0, :rows].all():
        raise FpError(f"the {rows} x {cols} matrix has no inverse over F_{p}")
    return reduced[0, :, rows:]


def echelon_kernel(reduced: np.ndarray, pivots: np.ndarray, p: int) -> np.ndarray:
    """The echelon basis of a matrix's kernel, read off its reduced form.

    Each vector has a leading 1 that is 0 in every other vector, and the
    vectors are ordered by leading column.  So the kernel vector with
    coefficients c on this basis carries c_i at the i-th leading column
    and nothing before it, and kernel vectors sort lexicographically in
    the order of their coefficient vectors.

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
