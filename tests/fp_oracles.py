"""The F_p elimination the library once ran, kept as an oracle, and the
matrix helpers only tests call.

The library reduced one matrix at a time in pure Python: a list of row
lists, the pivot of each column the first row from the current rank
down with a nonzero entry, swapped up, scaled to 1 and cleared from
every other row.  It now reduces a whole stack of matrices in one
vectorized pass (fp_linalg.row_reduce); the tests require it to give
this path's reduced rows and pivot columns, matrix by matrix.

zeros, rank and kernel_basis wrap the library's array form for the
tests that state their checks on FpMatrix and FpVector values.
"""

from typing import List

import numpy as np

from concatqec.fp_linalg import FpMatrix, FpVector, echelon_kernel, row_reduce


def row_reduce_lists(grid: List[List[int]], cols: int, p: int) -> List[int]:
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


def zeros(rows: int, cols: int, p: int) -> FpMatrix:
    """The rows x cols zero matrix over F_p."""
    return FpMatrix(np.zeros((rows, cols), dtype=np.int64), p)


def rank(a: FpMatrix) -> int:
    """Rank over F_p, the pivot count of the batched kernel's reduced form."""
    return int(row_reduce(a.array[np.newaxis], a.p)[1].sum())


def kernel_basis(a: FpMatrix) -> List[FpVector]:
    """A basis of {v : a v = 0} over F_p, in reduced row-echelon form.

    Args:
        a: any shape, including 0 rows (the whole space is the kernel)
            and 0 columns (the kernel is {0} and the basis is empty).

    Returns:
        a.cols - rank(a) vectors of length a.cols, as echelon_kernel
        orders them.
    """
    reduced, pivots = row_reduce(a.array[np.newaxis], a.p)
    basis = echelon_kernel(reduced[0], pivots[0], a.p)
    return [FpVector(entries=tuple(v), p=a.p) for v in basis.tolist()]
