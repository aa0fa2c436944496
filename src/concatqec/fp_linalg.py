"""Exact linear algebra over the prime fields F_p for small p.

All values are plain Python integers reduced modulo p, wrapped in small
immutable containers.  Every operation is exact; there is no floating
point anywhere in this module.  Everything rests on one Gaussian
elimination to reduced row-echelon form, which yields the rank, a
kernel basis and inverses; nothing enumerates the vectors of F_p^n.
Matrices are desk scale (a few dozen rows and columns), so clarity wins
over asymptotics throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

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


def _row_reduce(grid: List[List[int]], cols: int, p: int) -> List[int]:
    """Bring the rows of grid to reduced row-echelon form over F_p, in place.

    Pivot rows come first, each with a leading 1 that is 0 in every other
    row; zero rows follow.

    Returns:
        The pivot columns, ascending; their count is the rank.
    """
    pivots: List[int] = []
    for col in range(cols):
        rank = len(pivots)
        if rank == len(grid):
            break
        pivot = next((r for r in range(rank, len(grid)) if grid[r][col]), None)
        if pivot is None:
            continue
        grid[rank], grid[pivot] = grid[pivot], grid[rank]
        inv = pow(grid[rank][col], p - 2, p)
        grid[rank] = [(v * inv) % p for v in grid[rank]]
        for r in range(len(grid)):
            if r != rank and grid[r][col]:
                factor = grid[r][col]
                grid[r] = [(v - factor * w) % p for v, w in zip(grid[r], grid[rank])]
        pivots.append(col)
    return pivots


def mat_rank(a: FpMatrix) -> int:
    """Rank over F_p by Gaussian elimination."""
    return len(_row_reduce([list(row) for row in a.entries], a.cols, a.p))


def mat_inverse(a: FpMatrix) -> FpMatrix:
    """The inverse over F_p, read off the reduced form of [a | I].

    Raises:
        FpError: if a is not square or is singular.
    """
    n = a.rows
    grid = [list(row) + [int(i == j) for j in range(n)]
            for i, row in enumerate(a.entries)]
    if a.cols != n or _row_reduce(grid, n, a.p) != list(range(n)):
        raise FpError(f"the {n} x {a.cols} matrix has no inverse over F_{a.p}")
    return FpMatrix(entries=tuple(tuple(row[n:]) for row in grid),
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
    grid = [list(row) for row in a.entries]
    pivots = _row_reduce(grid, a.cols, a.p)
    # One solution per free column f: v_f = 1, the other free entries 0,
    # and the pivot entries read off the reduced rows.  Reducing these
    # vectors in turn gives the echelon basis of the same space.
    basis = []
    for f in (j for j in range(a.cols) if j not in pivots):
        v = [0] * a.cols
        v[f] = 1
        for row, j in zip(grid, pivots):
            v[j] = -row[f] % a.p
        basis.append(v)
    _row_reduce(basis, a.cols, a.p)
    return [FpVector(entries=tuple(v), p=a.p) for v in basis]
