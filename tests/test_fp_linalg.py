"""Tests for exact linear algebra over prime fields.

Covers vector/matrix construction rules, the read-only array form and
its equality, cuts of that array, the batched elimination kernel against
the one-matrix Python elimination kept in fp_oracles.py, rank against a
brute-force search for an inverse, and the reduced row-echelon kernel
basis.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from fp_oracles import kernel_basis, rank, row_reduce_lists, zeros

from concatqec.fp_linalg import (
    SUPPORTED_PRIMES,
    FpError,
    FpMatrix,
    FpVector,
    check_prime,
    mat_inverse,
    row_reduce,
)
from decoding_oracles import five_qubit_code_graph

# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def test_check_prime_accepts_supported_primes():
    for p in (2, 3, 5, 7):
        check_prime(p)


@pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, -3, 11])
def test_check_prime_rejects_non_supported(bad):
    with pytest.raises(FpError):
        check_prime(bad)


def test_vector_entries_must_be_canonical():
    v = FpVector((1, 0), 2)
    assert len(v) == 2
    assert not v.is_zero()
    assert FpVector((0, 0, 0), 3).is_zero()
    with pytest.raises(FpError):
        FpVector((2, 0), 2)
    with pytest.raises(FpError):
        FpVector((-1, 0), 2)


def test_matrix_from_rows_checks_shape():
    m = FpMatrix.from_rows([[1, 0], [0, 1]], 2)
    assert m.rows == 2 and m.cols == 2
    assert m.array[0, 0] == 1 and m.array[0, 1] == 0
    with pytest.raises(FpError, match="equal-length integer sequences"):
        FpMatrix.from_rows([[1, 0], [1]], 2)
    with pytest.raises(FpError, match="cannot infer shape from an empty row list"):
        FpMatrix.from_rows([], 2)


def test_matrix_from_rows_reads_entries_mod_p():
    m = FpMatrix.from_rows([[4, -1], [7, 9]], 3)
    assert m.array.tolist() == [[1, 2], [1, 0]]
    assert m.array.dtype == np.int64


def test_matrix_direct_construction_validates_entries():
    with pytest.raises(FpError, match=r"matrix entry 3 outside \[0, 2\)"):
        FpMatrix(np.array([[0, 3]]), 2)
    with pytest.raises(FpError, match=r"matrix entry -1 outside \[0, 2\)"):
        FpMatrix(np.array([[0, 1], [-1, 0]]), 2)
    with pytest.raises(FpError, match=r"expected a 2-d matrix, got shape \(2,\)"):
        FpMatrix(np.array([0, 1]), 2)
    with pytest.raises(FpError, match=r"expected a 2-d matrix, got shape \(1, 1, 1\)"):
        FpMatrix(np.zeros((1, 1, 1), dtype=np.int64), 2)
    with pytest.raises(FpError, match="matrix entries must be integers, got float64"):
        FpMatrix(np.array([[0.0, 1.0]]), 2)
    with pytest.raises(FpError, match="matrix entries must be integers, got bool"):
        FpMatrix(np.array([[True]]), 2)
    with pytest.raises(FpError, match="field order"):
        FpMatrix(np.zeros((1, 1), dtype=np.int64), 4)


def test_matrix_array_is_a_read_only_copy():
    source = np.array([[0, 1], [1, 0]], dtype=np.int32)
    m = FpMatrix(source, 2)
    assert m.array.dtype == np.int64 and m.array.flags.c_contiguous
    with pytest.raises(ValueError, match="read-only"):
        m.array[0, 0] = 1
    with pytest.raises(ValueError):
        m.array.flags.writeable = True
    # The caller's array is copied, so changing it later changes nothing.
    source[0, 1] = 0
    assert m.array[0, 1] == 1
    # A transposed view is stored in C order.
    assert FpMatrix(np.eye(3, dtype=np.int64)[:, ::-1].T, 2).array.flags.c_contiguous


@pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0), (0, 0)])
def test_matrix_degenerate_shapes(rows, cols):
    m = FpMatrix(np.zeros((rows, cols), dtype=np.int64), 5)
    assert (m.rows, m.cols) == (rows, cols)
    assert m == zeros(rows, cols, 5) and hash(m) == hash(zeros(rows, cols, 5))
    assert m != zeros(cols, rows, 5) or rows == cols
    assert m.is_symmetric_zero_diagonal() == (rows == cols)
    assert rank(m) == 0
    assert len(kernel_basis(m)) == cols


def test_equal_contents_compare_and_hash_equal():
    rows = [[0, 2, 1], [2, 0, 0], [1, 0, 0]]
    built = [FpMatrix.from_rows(rows, 3),
             FpMatrix(np.array(rows, dtype=np.int32), 3),
             FpMatrix(np.array(rows, dtype=np.int64), 3),
             FpMatrix.from_rows(np.array(rows) + 3, 3)]
    assert all(m == built[0] and hash(m) == hash(built[0]) for m in built)
    assert len(set(built)) == 1
    # p, shape and entries each tell matrices apart.
    assert FpMatrix.from_rows(rows, 5) != built[0]
    assert FpMatrix.from_rows([[0, 2, 1, 2, 0, 0, 1, 0, 0]], 3) != built[0]
    assert FpMatrix.from_rows([[0, 2, 1], [2, 0, 0], [1, 0, 1]], 3) != built[0]
    assert built[0] != rows


def test_adjacency_validation_flags():
    sym = FpMatrix.from_rows([[0, 1], [1, 0]], 2)
    asym = FpMatrix.from_rows([[0, 1], [0, 0]], 2)
    diag = FpMatrix.from_rows([[1, 0], [0, 0]], 2)
    assert sym.is_symmetric_zero_diagonal()
    assert not asym.is_symmetric_zero_diagonal()
    assert not diag.is_symmetric_zero_diagonal()


# ---------------------------------------------------------------------------
# Cuts of the array
# ---------------------------------------------------------------------------

# Adjacency matrix of the distance-3 five-qubit code graph: one input
# vertex (index 0) plus five code vertices (indices 1..5).
FIVE_ADJ = five_qubit_code_graph().adjacency


def _cut(a: FpMatrix, rows, cols) -> FpMatrix:
    return FpMatrix(a.array[np.ix_(rows, cols)], a.p)


def test_cut_input_row():
    assert _cut(FIVE_ADJ, [0], [1, 2, 3, 4, 5]).array.tolist() == [[1, 1, 1, 0, 0]]


def test_cut_of_the_full_range_equals_the_matrix():
    block = _cut(FIVE_ADJ, range(6), range(6))
    assert block == FIVE_ADJ and hash(block) == hash(FIVE_ADJ)
    assert block.array is not FIVE_ADJ.array


def test_cut_code_vertex_block():
    assert _cut(FIVE_ADJ, [1, 2], [4, 5]).array.tolist() == [[1, 0], [0, 1]]


def test_cut_with_empty_sets_gives_degenerate_shapes():
    block = _cut(FIVE_ADJ, [], [1, 2])
    assert block.rows == 0 and block.cols == 2
    assert _cut(FIVE_ADJ, [1, 2], []).rows == 2


# ---------------------------------------------------------------------------
# The elimination kernel
# ---------------------------------------------------------------------------


@st.composite
def stacks(draw):
    """A stack of matrices over F_p with p, all three sizes and the kind drawn.

    Kinds: dense and sparse random entries, all zero, and rank deficient
    (a product through an inner size below both sides).
    """
    p = draw(st.sampled_from(SUPPORTED_PRIMES))
    count, rows, cols = (draw(st.integers(0, top)) for top in (4, 6, 6))
    kind = draw(st.sampled_from(["dense", "sparse", "zero", "deficient"]))

    def entries(*shape, values=st.integers(0, p - 1)):
        flat = draw(st.lists(values, min_size=int(np.prod(shape)),
                             max_size=int(np.prod(shape))))
        return np.array(flat, dtype=np.int64).reshape(shape)

    if kind == "dense":
        stack = entries(count, rows, cols)
    elif kind == "sparse":
        stack = entries(count, rows, cols,
                        values=st.one_of(st.just(0), st.integers(1, p - 1)))
    elif kind == "zero":
        stack = np.zeros((count, rows, cols), dtype=np.int64)
    else:
        inner = draw(st.integers(0, max(min(rows, cols) - 1, 0)))
        stack = entries(count, rows, inner) @ entries(count, inner, cols) % p
    return p, stack


@given(stacks(), st.data())
@settings(max_examples=300, deadline=None)
def test_row_reduce_matches_the_python_elimination(drawn, data):
    p, stack = drawn
    before = stack.copy()
    reduced, pivots = row_reduce(stack, p)
    assert np.array_equal(stack, before)
    assert reduced.shape == stack.shape and pivots.shape == stack.shape[::2]
    for matrix, got_rows, got_pivots in zip(stack, reduced, pivots):
        grid = matrix.tolist()
        want = row_reduce_lists(grid, stack.shape[2], p)
        assert got_rows.tolist() == grid
        assert np.flatnonzero(got_pivots).tolist() == want
        assert int(got_pivots.sum()) == len(want)
    # The same values in another memory layout reduce the same way.
    other = np.ascontiguousarray(stack.transpose(0, 2, 1)).transpose(0, 2, 1)
    again, again_pivots = row_reduce(other, p)
    assert np.array_equal(again, reduced) and np.array_equal(again_pivots, pivots)
    # Zero rows and columns anywhere change no rank; admissibility
    # pads every support of one size to one shape this way.
    count, rows, cols = stack.shape
    at_rows = data.draw(st.lists(st.integers(0, rows), max_size=3))
    at_cols = data.draw(st.lists(st.integers(0, cols), max_size=3))
    padded = np.insert(np.insert(stack, at_rows, 0, axis=1), at_cols, 0, axis=2)
    assert np.array_equal(row_reduce(padded, p)[1].sum(axis=1), pivots.sum(axis=1))


def test_row_reduce_reads_entries_mod_p_and_refuses_bad_input():
    reduced, pivots = row_reduce([[[4, -1], [6, 9]]], 3)
    assert reduced.tolist() == [[[1, 2], [0, 0]]] and pivots.tolist() == [[True, False]]
    with pytest.raises(FpError, match="stack of matrices"):
        row_reduce(np.zeros((2, 2), dtype=np.int64), 3)
    with pytest.raises(FpError, match="field order"):
        row_reduce(np.zeros((1, 2, 2), dtype=np.int64), 4)


# ---------------------------------------------------------------------------
# Rank and invertibility
# ---------------------------------------------------------------------------


def _brute_force_invertible(m: FpMatrix) -> bool:
    """Check invertibility by searching for an explicit inverse."""
    n = m.rows
    p = m.p
    for candidate in itertools.product(range(p), repeat=n * n):
        inv = [candidate[i * n:(i + 1) * n] for i in range(n)]
        ok = True
        for i in range(n):
            for j in range(n):
                acc = sum(int(m.array[i, k]) * inv[k][j] for k in range(n)) % p
                if acc != (1 if i == j else 0):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def test_identity_is_invertible():
    eye = FpMatrix.from_rows([[1, 0], [0, 1]], 2)
    assert rank(eye) == 2


def test_all_ones_2x2_is_singular():
    ones = FpMatrix.from_rows([[1, 1], [1, 1]], 2)
    assert rank(ones) < 2


def test_empty_matrix_is_invertible():
    assert rank(zeros(0, 0, 2)) == 0


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2)])
def test_invertibility_matches_brute_force(p, n):
    for flat in itertools.product(range(p), repeat=n * n):
        rows = [list(flat[i * n:(i + 1) * n]) for i in range(n)]
        m = FpMatrix.from_rows(rows, p)
        assert (rank(m) == n) == _brute_force_invertible(m)


def test_rank_examples():
    assert rank(FpMatrix.from_rows([[1, 1], [1, 1]], 2)) == 1
    assert rank(zeros(3, 2, 5)) == 0
    assert rank(FpMatrix.from_rows([[2, 1], [1, 2]], 3)) == 1


def _matmul(a: FpMatrix, b: FpMatrix):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % a.p
                       for col in zip(*b.array.tolist()))
                 for row in a.array.tolist())


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_inverse_of_random_invertible_matrices(p):
    rng = random.Random(1000 + p)
    checked = 0
    while checked < 20:
        n = rng.randint(1, 8)
        m = FpMatrix.from_rows(
            [[rng.randrange(p) for _ in range(n)] for _ in range(n)], p)
        if rank(m) < n:
            with pytest.raises(FpError, match="has no inverse"):
                mat_inverse(m.array, p)
            continue
        # FpMatrix checks the inverse's dtype and range.
        inv = FpMatrix(mat_inverse(m.array, p), p)
        eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        assert (inv.rows, inv.cols) == (n, n)
        assert inv.array.dtype == np.int64
        assert _matmul(m, inv) == eye and _matmul(inv, m) == eye
        checked += 1


def test_inverse_refuses_singular_and_non_square_matrices():
    with pytest.raises(FpError, match="the 2 x 2 matrix has no inverse over F_2"):
        mat_inverse(np.array([[1, 1], [1, 1]]), 2)
    with pytest.raises(FpError, match="the 3 x 2 matrix has no inverse over F_5"):
        mat_inverse(zeros(3, 2, 5).array, 5)
    assert mat_inverse(zeros(0, 0, 3).array, 3).shape == (0, 0)
    # Entries are read modulo p, and the input is left as it was.
    a = np.array([[4, 1], [1, 0]])
    assert mat_inverse(a, 3).tolist() == [[0, 1], [1, 2]]
    assert a.tolist() == [[4, 1], [1, 0]]


# ---------------------------------------------------------------------------
# Kernel basis
# ---------------------------------------------------------------------------


def _product(a: FpMatrix, v: FpVector):
    return tuple(sum(x * y for x, y in zip(row, v.entries)) % a.p
                 for row in a.array.tolist())


def _span(basis, p, cols):
    """Every combination of the basis, in lexicographic coefficient order."""
    return [tuple(sum(c * v.entries[j] for c, v in zip(coeffs, basis)) % p
                  for j in range(cols))
            for coeffs in itertools.product(range(p), repeat=len(basis))]


def _assert_reduced_echelon(basis):
    leads = [next(j for j, x in enumerate(v.entries) if x) for v in basis]
    assert leads == sorted(set(leads))
    for v, lead in zip(basis, leads):
        assert v.entries[lead] == 1
        assert all(w.entries[lead] == 0 for w in basis if w is not v)


def test_kernel_trivial_case():
    assert kernel_basis(FpMatrix.from_rows([[1]], 2)) == []


def test_kernel_full_case():
    basis = kernel_basis(zeros(2, 2, 2))
    assert [v.entries for v in basis] == [(1, 0), (0, 1)]
    assert len(set(_span(basis, 2, 2))) == 4


def test_kernel_zero_pair_comes_first():
    # The echelon basis spans the kernel in lexicographic order of the
    # coefficients, which is lexicographic order of the pairs themselves.
    a_ix = zeros(1, 2, 3)
    a_ie = zeros(1, 1, 3)
    joint = FpMatrix(np.hstack([a_ix.array, a_ie.array]), 3)
    pairs = _span(kernel_basis(joint), 3, 3)
    assert len(pairs) == 27
    assert pairs[0] == (0, 0, 0)
    assert pairs == sorted(pairs)


def test_kernel_pairs_satisfy_the_equation():
    # Rows = code vertices {4,5}, columns split into the input vertex and
    # the support {1,2,3} of the five-qubit code graph: the support on
    # which the graph fails c5 for e = 2.
    a = _cut(FIVE_ADJ, [4, 5], [0, 1, 2, 3])
    basis = kernel_basis(a)
    assert [v.entries for v in basis] == [(1, 0, 0, 0), (0, 1, 1, 1)]
    assert len(basis) == a.cols - rank(a)
    for v in basis:
        assert _product(a, v) == (0, 0)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_kernel_basis_is_the_echelon_basis_of_the_kernel(p):
    rng = random.Random(p)
    for _ in range(60):
        rows, cols = rng.randint(0, 4), rng.randint(0, 4)
        a = FpMatrix(np.array([[rng.randrange(p) * (rng.random() < 0.6)
                                 for _ in range(cols)] for _ in range(rows)],
                               dtype=np.int64).reshape(rows, cols), p)
        basis = kernel_basis(a)
        assert len(basis) == cols - rank(a)
        assert all(len(v) == cols and _product(a, v) == (0,) * rows for v in basis)
        _assert_reduced_echelon(basis)
        # The span is the whole kernel, in lexicographic order.
        kernel = [v for v in itertools.product(range(p), repeat=cols)
                  if _product(a, FpVector(v, p)) == (0,) * rows]
        assert _span(basis, p, cols) == kernel


def test_kernel_of_degenerate_shapes():
    assert kernel_basis(zeros(3, 0, 5)) == []
    basis = kernel_basis(zeros(0, 3, 5))
    assert [v.entries for v in basis] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
