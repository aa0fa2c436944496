"""Tests for exact linear algebra over prime fields.

Covers vector/matrix construction rules, submatrix extraction, rank
and invertibility against a brute-force oracle, and exhaustive kernel
enumeration.
"""

import itertools

import pytest

from concatqec.fp_linalg import (
    FpError,
    FpMatrix,
    FpVector,
    all_vectors,
    check_prime,
    kernel_pairs,
    mat_is_invertible,
    mat_rank,
    mat_submatrix,
    mat_vec,
)
from concatqec.graph_code import five_qubit_code_graph

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
    assert v.length == 2
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
    assert m.entry(0, 0) == 1 and m.entry(0, 1) == 0
    with pytest.raises(FpError):
        FpMatrix.from_rows([[1, 0], [1]], 2)
    with pytest.raises(FpError):
        FpMatrix.from_rows([], 2)


def test_matrix_direct_construction_validates_entries():
    with pytest.raises(FpError):
        FpMatrix(entries=((0, 3),), rows=1, cols=2, p=2)
    with pytest.raises(FpError):
        FpMatrix(entries=((0, 1),), rows=2, cols=2, p=2)


def test_adjacency_validation_flags():
    sym = FpMatrix.from_rows([[0, 1], [1, 0]], 2)
    asym = FpMatrix.from_rows([[0, 1], [0, 0]], 2)
    diag = FpMatrix.from_rows([[1, 0], [0, 0]], 2)
    assert sym.is_symmetric_zero_diagonal()
    assert not asym.is_symmetric_zero_diagonal()
    assert not diag.is_symmetric_zero_diagonal()


# ---------------------------------------------------------------------------
# Submatrix extraction
# ---------------------------------------------------------------------------

# Adjacency matrix of the distance-3 five-qubit code graph: one input
# vertex (index 0) plus five code vertices (indices 1..5).
FIVE_ADJ = five_qubit_code_graph().adjacency


def test_submatrix_input_row():
    block = mat_submatrix(FIVE_ADJ, [0], [1, 2, 3, 4, 5])
    assert block.entries == ((1, 1, 1, 0, 0),)


def test_submatrix_full_range_is_identity_case():
    block = mat_submatrix(FIVE_ADJ, range(6), range(6))
    assert block == FIVE_ADJ


def test_submatrix_code_vertex_block():
    block = mat_submatrix(FIVE_ADJ, [1, 2], [4, 5])
    assert block.entries == ((1, 0), (0, 1))


def test_submatrix_empty_sets_give_degenerate_shapes():
    block = mat_submatrix(FIVE_ADJ, [], [1, 2])
    assert block.rows == 0 and block.cols == 2


def test_submatrix_rejects_out_of_range_and_repeats():
    with pytest.raises(FpError):
        mat_submatrix(FIVE_ADJ, [0, 6], [0])
    with pytest.raises(FpError):
        mat_submatrix(FIVE_ADJ, [0, 0], [1])


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
                acc = sum(m.entry(i, k) * inv[k][j] for k in range(n)) % p
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
    assert mat_is_invertible(eye)


def test_all_ones_2x2_is_singular():
    ones = FpMatrix.from_rows([[1, 1], [1, 1]], 2)
    assert not mat_is_invertible(ones)


def test_non_square_invertibility_is_an_error():
    rect = FpMatrix.from_rows([[1, 0, 1]], 2)
    with pytest.raises(FpError):
        mat_is_invertible(rect)


def test_empty_matrix_is_invertible():
    assert mat_is_invertible(FpMatrix.zeros(0, 0, 2))


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2)])
def test_invertibility_matches_brute_force(p, n):
    for flat in itertools.product(range(p), repeat=n * n):
        rows = [list(flat[i * n:(i + 1) * n]) for i in range(n)]
        m = FpMatrix.from_rows(rows, p)
        assert mat_is_invertible(m) == _brute_force_invertible(m)


def test_rank_examples():
    assert mat_rank(FpMatrix.from_rows([[1, 1], [1, 1]], 2)) == 1
    assert mat_rank(FpMatrix.zeros(3, 2, 5)) == 0
    assert mat_rank(FpMatrix.from_rows([[2, 1], [1, 2]], 3)) == 1


# ---------------------------------------------------------------------------
# Kernel enumeration
# ---------------------------------------------------------------------------


def test_kernel_trivial_case():
    a_ix = FpMatrix.from_rows([[1]], 2)
    a_ie = FpMatrix.zeros(1, 0, 2)
    pairs = kernel_pairs(a_ix, a_ie)
    assert len(pairs) == 1
    dx, de = pairs[0]
    assert dx.is_zero() and de.length == 0


def test_kernel_full_case():
    a_ix = FpMatrix.zeros(2, 1, 2)
    a_ie = FpMatrix.zeros(2, 1, 2)
    pairs = kernel_pairs(a_ix, a_ie)
    assert len(pairs) == 4


def test_kernel_zero_pair_comes_first():
    a_ix = FpMatrix.zeros(1, 2, 3)
    a_ie = FpMatrix.zeros(1, 1, 3)
    pairs = kernel_pairs(a_ix, a_ie)
    assert len(pairs) == 27
    assert pairs[0][0].is_zero() and pairs[0][1].is_zero()


def test_kernel_row_mismatch_is_an_error():
    with pytest.raises(FpError):
        kernel_pairs(FpMatrix.zeros(2, 1, 2), FpMatrix.zeros(3, 1, 2))


def test_kernel_pairs_satisfy_the_equation():
    # Rows = code vertices {3,4,5}, columns split into the input vertex
    # and the pair {1,2} of the five-qubit code graph.
    a_ix = mat_submatrix(FIVE_ADJ, [3, 4, 5], [0])
    a_ie = mat_submatrix(FIVE_ADJ, [3, 4, 5], [1, 2])
    pairs = kernel_pairs(a_ix, a_ie)
    assert pairs, "kernel always contains the zero pair"
    for dx, de in pairs:
        total = tuple(
            (x + y) % 2
            for x, y in zip(mat_vec(a_ix, dx).entries, mat_vec(a_ie, de).entries)
        )
        assert all(v == 0 for v in total)


def test_all_vectors_order_and_count():
    vecs = list(all_vectors(3, 2))
    assert len(vecs) == 9
    assert vecs[0].entries == (0, 0)
    assert vecs[1].entries == (0, 1)
    assert vecs[-1].entries == (2, 2)
