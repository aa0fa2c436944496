"""Exact linear algebra over the prime fields F_p for small p.

All values are plain Python integers reduced modulo p, wrapped in small
immutable containers.  Every operation is exact; there is no floating
point anywhere in this module.  Sizes are desk scale (matrices of a few
dozen entries, exhaustive enumerations of at most a few thousand
vectors), so clarity wins over asymptotics throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Tuple

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

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric_zero_diagonal(self) -> bool:
        """True when the matrix is a valid weighted adjacency matrix."""
        if not self.is_square():
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


def mat_vec(a: FpMatrix, v: FpVector) -> FpVector:
    """Multiply matrix by column vector over F_p.

    Args:
        a: matrix of shape rows x cols.
        v: vector of length cols over the same field.

    Returns:
        The product vector of length rows.
    """
    if a.p != v.p:
        raise FpError(f"field mismatch: {a.p} vs {v.p}")
    if a.cols != len(v):
        raise FpError(f"shape mismatch: {a.rows}x{a.cols} times length {len(v)}")
    out = tuple(
        sum(a.entries[i][j] * v.entries[j] for j in range(a.cols)) % a.p
        for i in range(a.rows)
    )
    return FpVector(entries=out, p=a.p)


def mat_rank(a: FpMatrix) -> int:
    """Rank over F_p by fraction-free Gaussian elimination."""
    grid: List[List[int]] = [list(row) for row in a.entries]
    rank = 0
    for col in range(a.cols):
        pivot = None
        for r in range(rank, a.rows):
            if grid[r][col] % a.p != 0:
                pivot = r
                break
        if pivot is None:
            continue
        grid[rank], grid[pivot] = grid[pivot], grid[rank]
        inv = pow(grid[rank][col], a.p - 2, a.p)
        grid[rank] = [(v * inv) % a.p for v in grid[rank]]
        for r in range(a.rows):
            if r != rank and grid[r][col] % a.p != 0:
                factor = grid[r][col]
                grid[r] = [(grid[r][j] - factor * grid[rank][j]) % a.p
                           for j in range(a.cols)]
        rank += 1
        if rank == a.rows:
            break
    return rank


def mat_is_invertible(a: FpMatrix) -> bool:
    """Decide invertibility over F_p.

    Args:
        a: a square matrix; the empty 0 x 0 matrix counts as invertible.

    Returns:
        True when the matrix has full rank.

    Raises:
        FpError: if the matrix is not square.
    """
    if not a.is_square():
        raise FpError(f"invertibility undefined for shape {a.rows}x{a.cols}")
    return mat_rank(a) == a.rows


def all_vectors(p: int, length: int) -> Iterator[FpVector]:
    """Enumerate F_p^length in lexicographic order (leftmost digit slowest)."""
    check_prime(p)
    for digits in itertools.product(range(p), repeat=length):
        yield FpVector(entries=digits, p=p)


def kernel_pairs(a_ix: FpMatrix, a_ie: FpMatrix) -> List[Tuple[FpVector, FpVector]]:
    """Enumerate joint kernel pairs of a stacked pair of blocks.

    Finds every pair (u, w) with a_ix @ u + a_ie @ w = 0 by exhaustive
    enumeration over F_p^cols(a_ix) x F_p^cols(a_ie).  Pairs are returned
    in lexicographic order of (u, w), so the zero pair comes first.

    Args:
        a_ix: left block; both blocks must share row count and field.
        a_ie: right block.

    Returns:
        All solution pairs, including the trivial zero pair.

    Raises:
        FpError: on field or row-count mismatch.
    """
    if a_ix.p != a_ie.p:
        raise FpError(f"field mismatch: {a_ix.p} vs {a_ie.p}")
    if a_ix.rows != a_ie.rows:
        raise FpError(f"row mismatch: {a_ix.rows} vs {a_ie.rows}")
    p = a_ix.p
    pairs: List[Tuple[FpVector, FpVector]] = []
    for u in all_vectors(p, a_ix.cols):
        lhs_u = mat_vec(a_ix, u)
        for w in all_vectors(p, a_ie.cols):
            lhs_w = mat_vec(a_ie, w)
            total = tuple((x + y) % p for x, y in zip(lhs_u.entries, lhs_w.entries))
            if all(v == 0 for v in total):
                pairs.append((u, w))
    return pairs

