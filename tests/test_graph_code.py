"""Tests for graph-code encoding, admissibility, decoding, and correction.

The frozen oracles here are the 32 signed coefficient forms of the
five-qubit codeword, the 16-row syndrome lookup table, the closed-form
action of a shift/phase error on codeword amplitudes, and the dense
p**n x p**k encoding and p**n x p**n decoding matrices built from their
definitions.  The syndrome table, built by F_p Pauli algebra, is also
checked by decoding every error on every basis input, and against the
state-vector build kept in decoding_oracles.py.
"""

import itertools
import re
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from decoding_oracles import (build_syndrome_table_by_decoding, decoder_unitary,
                              outer_stage_by_parts,
                              five_qubit_code_graph)
from fp_oracles import kernel_basis, rank

from concatqec import fp_linalg, graph_code
from concatqec.graph_code import (
    CORRECTION_WORDS,
    CodeError,
    CodeGraph,
    DecodeError,
    GraphParseError,
    LogicalState,
    SyndromeTable,
    build_syndrome_table,
    check_admissibility,
    check_amplitude_count,
    correct,
    decode,
    encode,
    five_qubit_decoding_graph,
    format_error_label,
    parse_error_label,
    parse_graph,
    load_graph,
    weight_one_errors,
    word_error,
    word_mbs,
)
from concatqec.fp_linalg import FpMatrix, FpVector
from concatqec.statevec import (
    MAX_AMPLITUDES,
    PauliError,
    StateVector,
    apply_pauli_error,
    basis_state,
    fidelity_up_to_phase,
    index_to_digits,
    random_state,
)
from state_oracles import project_register, states_close

RNG = np.random.default_rng(20240818)

# Signed coefficient forms of the 32 codeword amplitudes: entry k holds
# (sign of c(0), sign of c(1)) for basis pattern k read as a binary
# number, most significant digit first.
CODEWORD_SIGNS = (
    (+1, +1), (+1, +1), (+1, +1), (-1, -1),
    (+1, -1), (-1, +1), (-1, +1), (-1, +1),
    (+1, -1), (-1, +1), (+1, -1), (+1, -1),
    (+1, +1), (+1, +1), (-1, -1), (+1, +1),
    (+1, -1), (+1, -1), (-1, +1), (+1, -1),
    (+1, +1), (-1, -1), (+1, +1), (+1, +1),
    (-1, -1), (+1, +1), (+1, +1), (+1, +1),
    (-1, +1), (-1, +1), (-1, +1), (+1, -1),
)


# ---------------------------------------------------------------------------
# Graph file parsing
# ---------------------------------------------------------------------------


def test_packaged_graphs_load():
    base = five_qubit_code_graph()
    assert (base.p, base.k, base.n, base.m) == (2, 1, 5, 0)
    dec = five_qubit_decoding_graph()
    assert (dec.p, dec.k, dec.n, dec.m) == (2, 1, 5, 4)


def test_parse_graph_accepts_comments_and_blank_lines():
    g = parse_graph("# a triangle feeding one input\n"
                    "p 2 X 1 Y 2 L 0\n"
                    "\n"
                    "0 1 1\n"
                    "# middle comment\n"
                    "0 2 1\n"
                    "1 2 1\n")
    assert (g.p, g.k, g.n, g.m) == (2, 1, 2, 0)
    assert g.adjacency.array[1, 2] == 1


def test_parse_graph_decoding_partition_layout():
    # Vertices are numbered inputs, then outputs, then syndromes.
    g = five_qubit_decoding_graph()
    assert g.inputs == (0,)
    assert g.outputs == (1, 2, 3, 4, 5)
    assert g.syndromes == (6, 7, 8, 9)


@pytest.mark.parametrize("text,line", [
    ("p 4 X 1 Y 2 L 0\n0 1 1\n", 1),              # non-prime field
    ("p 2 X 1 Y 2\n0 1 1\n", 1),                  # truncated header
    ("q 2 X 1 Y 2 L 0\n0 1 1\n", 1),              # wrong keyword
    ("p 2 X 1 Y 2 L 0\n0 0 1\n", 2),              # self-loop
    ("p 2 X 1 Y 2 L 0\n0 1 1\n0 1 1\n", 3),       # duplicate edge
    ("p 2 X 1 Y 2 L 0\n0 3 1\n", 2),              # vertex out of range
    ("p 2 X 1 Y 2 L 0\n0 1 2\n", 2),              # weight outside field
    ("p 2 X 1 Y 2 L 0\n0 1 0\n", 2),              # zero-weight edge
    ("p 2 X 1 Y 2 L 0\n0 1\n", 2),                # malformed edge line
])
def test_parse_graph_reports_line_numbers(text, line):
    with pytest.raises(GraphParseError) as exc:
        parse_graph(text)
    assert exc.value.line == line


def test_load_graph_round_trips_through_files(tmp_path):
    path = tmp_path / "pair.graph"
    path.write_text("p 3 X 1 Y 1 L 0\n0 1 2\n")
    g = load_graph(path)
    assert g.p == 3 and g.adjacency.array[0, 1] == 2


def test_the_packaged_graph_file_and_the_built_graph_share_one_decoder():
    # Parsed apart, the two graphs hold distinct arrays and are one
    # lru_cache key.
    loaded = load_graph(Path(graph_code.__file__).parent / "data"
                        / "five_qubit_decoding.graph")
    built = five_qubit_decoding_graph()
    assert loaded == built and hash(loaded) == hash(built)
    assert loaded.adjacency.array is not built.adjacency.array
    graph_code._decoder(built)
    for g in (loaded, built):
        before = graph_code._decoder.cache_info()
        graph_code._decoder(g)
        after = graph_code._decoder.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)


@pytest.mark.parametrize("p", range(12))
def test_parse_graph_accepts_exactly_the_supported_field_orders(p):
    header = f"p {p} X 1 Y 1 L 0\n"
    if p in fp_linalg.SUPPORTED_PRIMES:
        g = parse_graph(header + f"0 1 {p - 1}\n")
        assert g.p == p and g.adjacency.array.tolist() == [[0, p - 1], [p - 1, 0]]
    else:
        with pytest.raises(GraphParseError,
                           match=f"^line 1: unsupported field order {p}$"):
            parse_graph(header)


@pytest.mark.parametrize("data, line", [
    (b"\xff", 1),
    (b"p 3 X 1 Y 1 L 0\n# caf\xc3\xa9 \xff\n0 1 2\n", 2),
    (b"p 3 X 1 Y 1 L 0\r\n\r\n0 1 2 \x80\r\n", 3),
])
def test_load_graph_names_the_line_of_a_byte_that_is_not_utf8(
        tmp_path, data, line):
    path = tmp_path / "binary.graph"
    path.write_bytes(data)
    with pytest.raises(GraphParseError, match="is not UTF-8") as exc:
        load_graph(path)
    assert exc.value.line == line


@pytest.mark.parametrize("header, shown", [
    ("p 2 X 27 Y 1 L 0", "27 X vertices"),
    ("p 7 X 1 Y 1000000000 L 0", "1000000000 Y vertices"),
    ("p 3 X 1 Y 26 L 100000", "100000 L vertices"),
])
def test_an_oversized_vertex_set_is_refused_at_the_header(header, shown):
    # The header used to size a (|X| + |Y| + |L|)**2 adjacency list
    # before any check: |Y| = 1500 took over a second and 10**9 would
    # ask for 10**18 entries.
    start = time.perf_counter()
    with pytest.raises(CodeError, match=f"declares {shown}, above the limit "
                                        "of 26 qudits per register"):
        parse_graph(header + "\n0 1 1\n")
    assert time.perf_counter() - start < 0.1


def test_a_huge_amplitude_count_is_quoted_by_its_bit_length():
    # str() refuses an int of more than 4300 digits.
    with pytest.raises(CodeError, match=r"the encoder needs at least "
                                        r"2\*\*15000 amplitudes"):
        check_amplitude_count("the encoder", 2**15000 + 1)


# ---------------------------------------------------------------------------
# Structural validation
# ---------------------------------------------------------------------------


def test_code_graph_rejects_overlapping_partition():
    adj = FpMatrix.from_rows([[0, 1], [1, 0]], 2)
    with pytest.raises(CodeError):
        CodeGraph(p=2, adjacency=adj, inputs=(0,), outputs=(0, 1), syndromes=())


def test_code_graph_rejects_non_adjacency_matrix():
    bad = FpMatrix.from_rows([[1, 0], [0, 0]], 2)
    with pytest.raises(CodeError):
        CodeGraph(p=2, adjacency=bad, inputs=(0,), outputs=(1,), syndromes=())


def test_code_graph_requires_full_vertex_cover():
    adj = FpMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 0]], 2)
    with pytest.raises(CodeError):
        CodeGraph(p=2, adjacency=adj, inputs=(0,), outputs=(1,), syndromes=())


def test_logical_state_rejects_non_finite_coefficients():
    # Normalizing by an infinite norm would silently turn inf into nan,
    # and [1e200, 1e200], whose norm overflows, into zeros.
    for bad in ([np.inf, 1.0], [np.nan, 1.0], [1.0, complex(0, -np.inf)],
                [1e200, 1e200]):
        with pytest.raises(CodeError, match="finite"):
            LogicalState(p=2, coefficients=bad)


def test_logical_state_normalizes_and_validates():
    v = LogicalState(p=2, coefficients=[3.0, 4.0])
    assert np.allclose(np.abs(v.coefficients), [0.6, 0.8])
    assert LogicalState.computational(2, 1, (1,)).coefficients[1] == 1.0
    with pytest.raises(CodeError):
        LogicalState(p=2, coefficients=[1.0, 0.0, 0.0])
    with pytest.raises(CodeError):
        LogicalState(p=2, coefficients=[0.0, 0.0])


@pytest.mark.parametrize("bad", ["ab", [1, "x"], [[1, 2], [3]]])
def test_logical_state_refuses_coefficients_that_are_not_numeric(bad):
    with pytest.raises(CodeError, match=re.escape(
            f"coefficients {bad!r} are not numeric")):
        LogicalState(p=2, coefficients=bad)


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------


def test_decoding_graph_is_admissible():
    report = check_admissibility(five_qubit_decoding_graph(), 1)
    assert report.all_pass
    assert report.failing_witness is None


def test_code_graph_without_syndromes_fails_counting():
    report = check_admissibility(five_qubit_code_graph(), 1)
    assert not report.c1
    assert report.c5  # localization holds even without syndrome vertices


def test_syndrome_edges_violating_placement_are_caught():
    # An edge between two syndrome vertices breaks the no-internal-edges
    # condition; an input-syndrome edge breaks the separation condition.
    g_ll = parse_graph("p 2 X 1 Y 2 L 2\n0 1 1\n0 2 1\n1 3 1\n2 4 1\n3 4 1\n")
    rep = check_admissibility(g_ll, 1)
    assert not rep.c3
    g_xl = parse_graph("p 2 X 1 Y 2 L 2\n0 1 1\n0 2 1\n1 3 1\n2 4 1\n0 3 1\n")
    rep = check_admissibility(g_xl, 1)
    assert not rep.c4


def test_error_localization_failure_produces_witness():
    # A single output hanging off the input cannot localize errors on
    # itself once that output participates in the kernel equation.
    g = parse_graph("p 2 X 1 Y 2 L 1\n0 1 1\n0 2 1\n1 3 1\n")
    rep = check_admissibility(g, 1)
    assert not rep.c5
    assert rep.failing_witness is not None


def test_admissibility_bounds_are_enforced():
    # Every output of the star sees only the input, so on a support {y}
    # the kernel pair d_X = 0, d_E = 1 moves the input: c5 fails there.
    star = parse_graph("p 2 X 1 Y 9 L 8\n" +
                       "\n".join(f"0 {i} 1" for i in range(1, 10)))
    report = check_admissibility(star, 1)
    assert (report.c1, report.c2, report.c5) == (True, False, False)
    assert report.failing_witness == ((1,), FpVector((0,), 2), FpVector((1,), 2))
    wide = parse_graph("p 2 X 1 Y 20 L 19\n" +
                       "\n".join(f"0 {i} 1" for i in range(1, 21)))
    with pytest.raises(CodeError, match=r"ranges over 60459 error supports, "
                                        r"above the limit of 32768"):
        check_admissibility(wide, 3)
    with pytest.raises(CodeError, match="need e >= 1"):
        check_admissibility(wide, 0)
    with pytest.raises(CodeError):
        check_admissibility(five_qubit_decoding_graph(), 0)


@pytest.mark.parametrize("e", [1.5, None, "1"])
def test_admissibility_refuses_an_error_count_that_is_not_an_integer(e):
    with pytest.raises(CodeError, match=re.escape(
            f"error count e {e!r} is not an integer")):
        check_admissibility(five_qubit_decoding_graph(), e)


def test_wide_input_register_is_refused_before_any_elimination(monkeypatch):
    # |Y| = 8 and p = 5 are small, but c5 would range over F_5^(10 + |E|);
    # the encoder's own size check refuses the graph first.
    g = parse_graph("p 5 X 10 Y 8 L 0\n")

    def no_elimination(*args):
        raise AssertionError("an elimination ran")

    # Every way graph_code reaches the elimination kernel: directly, and
    # through the fp_linalg functions it imports, which call the kernel
    # by its fp_linalg name.
    monkeypatch.setattr(graph_code, "row_reduce", no_elimination)
    monkeypatch.setattr(fp_linalg, "row_reduce", no_elimination)
    for name in ("echelon_kernel", "mat_inverse"):
        monkeypatch.setattr(graph_code, name, no_elimination)
    with pytest.raises(CodeError, match=rf"the encoder needs {5**20} amplitudes"):
        check_admissibility(g, 1)
    # The patches do stop an elimination: a graph the size check lets
    # through runs into them.
    with pytest.raises(AssertionError, match="an elimination ran"):
        check_admissibility(five_qubit_decoding_graph(), 1)


def kernel_pairs(a_ix, a_ie, p):
    """Oracle: every (u, w) with a_ix u + a_ie w = 0 over F_p, by enumeration.

    Returns the u and w halves as two arrays whose rows run in
    lexicographic order of (u, w), so the zero pair comes first.
    """
    joint = np.hstack([a_ix, a_ie])
    cols = joint.shape[1]
    vectors = np.indices((p,) * cols).reshape(cols, -1).T
    kernel = vectors[~np.any(vectors @ joint.T % p, axis=1)]
    return kernel[:, :a_ix.shape[1]], kernel[:, a_ix.shape[1]:]


def _enumerated_report(g, e):
    """Reference: the five decoding conditions from their definitions.

    c5 asks every kernel pair (d_X, d_E) of [A_IX | A_IE] for d_X = 0
    and A_XE d_E = 0, here by enumerating F_p vectors; the witness is the
    lexicographically first failing pair of the first failing support.
    c2 takes the rank, which test_fp_linalg checks against a search for
    an explicit inverse.
    """
    adj = g.adjacency.array
    c1 = g.k + g.m == g.n
    c2 = c1 and rank(FpMatrix(graph_code._cross_block(g), g.p)) == g.n
    c3 = not adj[np.ix_(g.syndromes, g.syndromes)].any()
    c4 = not adj[np.ix_(g.inputs, g.syndromes)].any()
    for size in range(1, min(2 * e, g.n) + 1):
        for support in itertools.combinations(g.outputs, size):
            interior = [v for v in g.outputs if v not in support]
            d_x, d_e = kernel_pairs(adj[np.ix_(interior, g.inputs)],
                                    adj[np.ix_(interior, support)], g.p)
            a_xe = adj[np.ix_(g.inputs, support)]
            fails = d_x.any(axis=1) | (d_e @ a_xe.T % g.p).any(axis=1)
            if fails.any():
                first = int(np.argmax(fails))
                witness = (support, FpVector(d_x[first], g.p),
                           FpVector(d_e[first], g.p))
                return graph_code.AdmissibilityReport(
                    c1, c2, c3, c4, False, failing_witness=witness)
    return graph_code.AdmissibilityReport(c1, c2, c3, c4, True)


def _random_graph_any_numbering(p, k, n, m, rng, density, admissible_shape):
    """Random weights on a random share of edges, vertices numbered at random.

    With admissible_shape no edge lies inside L or between X and L, so
    c3 and c4 hold, as in the benchmark's graphs.  Roles are handed out
    through a random permutation, so inputs may be numbered after
    outputs and the index sets interleave.
    """
    size = k + n + m
    weights = rng.integers(p, size=(size, size))
    weights *= rng.random((size, size)) < density
    upper = np.triu(weights, k=1)
    if admissible_shape:
        upper[np.ix_(range(k + n, size), range(k + n, size))] = 0
        upper[np.ix_(range(k), range(k + n, size))] = 0
    role = upper + upper.T
    order = rng.permutation(size) if rng.random() < 0.3 else np.arange(size)
    adj = np.zeros_like(role)
    adj[np.ix_(order, order)] = role
    return CodeGraph(p=p, adjacency=FpMatrix.from_rows(adj.tolist(), p),
                     inputs=tuple(order[:k].tolist()),
                     outputs=tuple(order[k:k + n].tolist()),
                     syndromes=tuple(order[k + n:].tolist()))


# |Y| stops where the oracle would enumerate more than 20000 vectors per
# support, so p = 7 with |X| = 3 and e = 2 keeps |Y| <= 2.
@pytest.mark.parametrize("e", [1, 2])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_admissibility_matches_the_enumeration_oracle(p, k, e):
    rng = np.random.default_rng([p, k, e])
    max_n = max(n for n in range(1, 8) if p**(k + min(2 * e, n)) <= 20000)
    for _ in range(12):
        n = int(rng.integers(1, max_n + 1))
        m = n - k if n > k and rng.random() < 0.8 else int(rng.integers(3))
        g = _random_graph_any_numbering(p, k, n, m, rng,
                                        density=rng.choice([0.3, 0.6, 1.0]),
                                        admissible_shape=rng.random() < 0.7)
        assert check_admissibility(g, e) == _enumerated_report(g, e)


@pytest.mark.parametrize("e", [1, 2])
def test_admissibility_matches_the_oracle_on_benchmark_shaped_graphs(e):
    # p = 3, |X| = 1, |Y| = 7, |L| = 6 with every allowed edge weighted,
    # the benchmark's graph-cold shape; at e = 1 about one in five such
    # graphs passes c5, so both verdicts and many witnesses are compared.
    rng = np.random.default_rng(e)
    verdicts = set()
    for _ in range(40):
        g = _random_graph_any_numbering(3, 1, 7, 6, rng, density=1.0,
                                        admissible_shape=True)
        report = check_admissibility(g, e)
        assert report == _enumerated_report(g, e)
        verdicts.add(report.c5)
    assert verdicts == ({True, False} if e == 1 else {False})


@pytest.mark.parametrize("p, n, seed", [(7, 9, 0), (2, 26, 3)])
def test_admissibility_reaches_graphs_beyond_enumeration(p, n, seed):
    # Enumeration would need p**(1 + |E|) pairs per support and used to be
    # capped at p <= 5 and |Y| <= 8; both graphs pass every condition.
    rng = np.random.default_rng([p, n, seed])
    g = _random_graph_any_numbering(p, 1, n, n - 1, rng,
                                    density=1.0 if p == 7 else 0.5,
                                    admissible_shape=True)
    report = check_admissibility(g, 1)
    assert report.all_pass
    assert report == _enumerated_report(g, 1)


def _sequential_report(g, e):
    """Reference: condition c5 one support at a time, as the library once ran it.

    Each support cuts [A_IX | A_IE] and A_XE out of the adjacency matrix
    and scans the echelon kernel basis from its latest leading column
    for a pair that moves the input or reaches it.
    """
    adj = g.adjacency.array
    c1 = g.k + g.m == g.n
    c2 = c1 and rank(FpMatrix(graph_code._cross_block(g), g.p)) == g.n
    c3 = not adj[np.ix_(g.syndromes, g.syndromes)].any()
    c4 = not adj[np.ix_(g.inputs, g.syndromes)].any()
    for size in range(1, min(2 * e, g.n) + 1):
        for support in itertools.combinations(g.outputs, size):
            interior = tuple(v for v in g.outputs if v not in support)
            joint = FpMatrix(adj[np.ix_(interior, g.inputs + support)], g.p)
            a_xe = adj[np.ix_(g.inputs, support)].tolist()
            for v in reversed(kernel_basis(joint)):
                d_x, d_e = v.entries[:g.k], v.entries[g.k:]
                if any(d_x) or any(sum(a * d for a, d in zip(row, d_e)) % g.p
                                   for row in a_xe):
                    witness = (support, FpVector(d_x, g.p), FpVector(d_e, g.p))
                    return graph_code.AdmissibilityReport(
                        c1, c2, c3, c4, False, failing_witness=witness)
    return graph_code.AdmissibilityReport(c1, c2, c3, c4, True)


@pytest.mark.parametrize("p, n, seed, e, support", [
    (2, 16, 3, 2, (1, 4, 6, 16)),
    (2, 26, 3, 1, None),
    (7, 9, 0, 1, None),
])
def test_batched_c5_matches_the_per_support_loop(p, n, seed, e, support):
    # Larger than the graphs the enumeration oracle is run on: a c5
    # failure at the 886th of 2516 supports, and the two graphs of the
    # test above, which pass every condition.
    rng = np.random.default_rng([p, n, seed])
    g = _random_graph_any_numbering(p, 1, n, n - 1, rng,
                                    density=1.0 if p == 7 else 0.5,
                                    admissible_shape=True)
    report = check_admissibility(g, e)
    assert report == _sequential_report(g, e)
    assert (report.failing_witness or (None,))[0] == support


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("graph_factory", [five_qubit_code_graph,
                                           five_qubit_decoding_graph])
def test_codeword_signs_for_basis_inputs(graph_factory):
    g = graph_factory()
    norm = 1 / np.sqrt(32)
    for which in (0, 1):
        coeffs = [1.0, 0.0] if which == 0 else [0.0, 1.0]
        psi = encode(g, LogicalState(p=2, coefficients=coeffs))
        assert psi.n == 5
        for k in range(32):
            expected = CODEWORD_SIGNS[k][which] * norm
            assert abs(psi.amplitudes[k] - expected) < 1e-10, (which, k)


def test_encoding_is_linear_and_normalized():
    g = five_qubit_decoding_graph()
    c0, c1 = 0.6, 0.8j
    joint = encode(g, LogicalState(p=2, coefficients=[c0, c1]))
    e0 = encode(g, LogicalState(p=2, coefficients=[1, 0]))
    e1 = encode(g, LogicalState(p=2, coefficients=[0, 1]))
    combo = c0 * e0.amplitudes + c1 * e1.amplitudes
    assert np.max(np.abs(joint.amplitudes - combo)) < 1e-12
    assert abs(np.linalg.norm(joint.amplitudes) - 1.0) < 1e-12


def test_qutrit_encoding_matches_closed_form():
    # Single edge of weight w: amplitude of |y> given input x is
    # exp(2 pi i w x y / 3) c(x) / sqrt(3).
    g = parse_graph("p 3 X 1 Y 1 L 0\n0 1 2\n")
    coeffs = np.array([0.2 + 0.1j, -0.4, 0.5j])
    coeffs = coeffs / np.linalg.norm(coeffs)
    psi = encode(g, LogicalState(p=3, coefficients=coeffs))
    w = np.exp(2j * np.pi / 3)
    for y in range(3):
        expected = sum(w ** ((2 * x * y) % 3) * coeffs[x] for x in range(3))
        assert abs(psi.amplitudes[y] - expected / np.sqrt(3)) < 1e-12


def _dense_encoder(g):
    """Reference: the p**n x p**k matrix of unnormalized codeword amplitudes.

    Column x holds omega**theta(x, y) over all output strings y, where
    theta is the edge sum of the adjacency matrix restricted to the input
    and output vertices; syndrome vertices take no part.
    """
    adj = g.adjacency.array

    def digits(n):
        return np.array([index_to_digits(i, g.p, n) for i in range(g.p**n)],
                        dtype=np.int64).reshape(g.p**n, n)

    def pair_form(idx, d):
        return np.einsum("ki,ij,kj->k", d, np.triu(adj[np.ix_(idx, idx)], k=1), d)

    y_digits, x_digits = digits(g.n), digits(g.k)
    q_y = pair_form(list(g.outputs), y_digits)
    q_x = pair_form(list(g.inputs), x_digits)
    cross = y_digits @ adj[np.ix_(g.outputs, g.inputs)] @ x_digits.T
    exponent = (q_y[:, np.newaxis] + cross + q_x[np.newaxis, :]) % g.p
    return np.exp(2j * np.pi / g.p)**exponent


def _random_encoder_graph(p, k, n, m, rng, fail_c2=False):
    """A graph with random weights on every edge.

    With fail_c2 one output vertex sees neither X nor L, so the cross
    block has a zero row and the graph fails condition c2.
    """
    size = k + n + m
    upper = np.triu(rng.integers(p, size=(size, size)), k=1)
    adj = upper + upper.T
    if fail_c2:
        lone = k + int(rng.integers(n))
        others = list(range(k)) + list(range(k + n, size))
        adj[lone, others] = adj[others, lone] = 0
    return CodeGraph(
        p=p, adjacency=FpMatrix.from_rows(adj.tolist(), p),
        inputs=tuple(range(k)), outputs=tuple(range(k, k + n)),
        syndromes=tuple(range(k + n, size)))


# |Y| stops at 6, 5, 4 and 4 for p = 2, 3, 5, 7, so the dense reference
# stays below 2401 x 343.  Graphs without syndrome vertices may have
# |Y| < |X|; the c2 failures meet c1, |X| + |L| = |Y|.
@pytest.mark.parametrize("shape", ["no syndromes", "fails c2"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("p, max_n", [(2, 6), (3, 5), (5, 4), (7, 4)])
def test_encoder_matches_dense_reference(p, max_n, k, shape):
    rng = np.random.default_rng([p, k, len(shape)])
    for _ in range(3):
        if shape == "no syndromes":
            n = int(rng.integers(1, max_n + 1))
            g = _random_encoder_graph(p, k, n, 0, rng)
        else:
            n = int(rng.integers(k, max_n + 1))
            g = _random_encoder_graph(p, k, n, n - k, rng, fail_c2=True)
            assert rank(FpMatrix(graph_code._cross_block(g), g.p)) < g.n
        v = LogicalState(p=p, coefficients=random_state(p, k, rng).amplitudes)
        expected = _dense_encoder(g) @ v.coefficients
        expected /= np.linalg.norm(expected)
        assert np.max(np.abs(encode(g, v).amplitudes - expected)) < 1e-12


def test_encoder_reaches_a_graph_beyond_the_dense_map():
    # p = 7, |X| = 3, |Y| = 7, |L| = 4: a dense encoding map would hold
    # 7**10 amplitudes, above the package limit, while the codeword holds
    # 7**7.  Output i links to the i-th vertex of X + L and to later ones,
    # so the cross block is unit upper triangular and the graph meets c2.
    k, n, m = 3, 7, 4
    assert 7**(n + k) > MAX_AMPLITUDES
    rows = [[0] * (k + n + m) for _ in range(k + n + m)]
    edges = [(0, 1, 2), (1, 2, 5)]
    edges += [(k + i, k + (i + 1) % n, 1 + i % 6) for i in range(n)]
    cols = list(range(k)) + list(range(k + n, k + n + m))
    edges += [(k + i, cols[j], 1 if i == j else (i + 2 * j) % 7)
              for i in range(n) for j in range(i, n)]
    for u, v, w in edges:
        rows[u][v] = rows[v][u] = w
    g = CodeGraph(p=7, adjacency=FpMatrix.from_rows(rows, 7),
                  inputs=tuple(range(k)), outputs=tuple(range(k, k + n)),
                  syndromes=tuple(range(k + n, k + n + m)))
    rng = np.random.default_rng(7)
    v = LogicalState(p=7, coefficients=random_state(7, k, rng).amplitudes)
    psi = encode(g, v)
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12
    # The cross block has full rank, so every read-out of the Fourier
    # image repeats 7**(n - k) times and the codeword norm is sqrt(7**n).
    adj = np.array(rows)
    xs = [index_to_digits(x, 7, k) for x in range(7**k)]
    q_x = [sum(adj[a][b] * x[a] * x[b] for a in range(k) for b in range(a + 1, k))
           for x in xs]
    for y_index in rng.integers(7**n, size=40):
        y = index_to_digits(int(y_index), 7, n)
        q_y = sum(adj[k + a][k + b] * y[a] * y[b]
                  for a in range(n) for b in range(a + 1, n))
        phases = [q_y + q_x[j] + sum(adj[k + a][b] * y[a] * x[b]
                                     for a in range(n) for b in range(k))
                  for j, x in enumerate(xs)]
        amplitude = sum(np.exp(2j * np.pi * (t % 7) / 7) * c
                        for t, c in zip(phases, v.coefficients))
        assert abs(psi.amplitudes[y_index] - amplitude / 7**(n / 2)) < 1e-12
    syndrome, residual = decode(g, psi)
    assert syndrome.entries == (0,) * m
    assert fidelity_up_to_phase(residual, v.as_state()) >= 1 - 1e-10


def test_encode_validates_field_match():
    g = five_qubit_code_graph()
    with pytest.raises(CodeError):
        encode(g, LogicalState(p=3, coefficients=[1, 0, 0]))


# ---------------------------------------------------------------------------
# Closed-form corruption oracle
# ---------------------------------------------------------------------------


@given(st.tuples(*[st.integers(min_value=0, max_value=1) for _ in range(5)]),
       st.tuples(*[st.integers(min_value=0, max_value=1) for _ in range(5)]))
@settings(max_examples=60, deadline=None)
def test_error_action_matches_amplitude_shift_formula(b, s):
    # A shift/phase error maps amplitude at pattern d to the amplitude
    # previously at d - b, multiplied by the phase of s against d - b.
    g = five_qubit_decoding_graph()
    v = LogicalState(p=2, coefficients=random_state(2, 1, RNG).amplitudes)
    clean = encode(g, v)
    corrupted = apply_pauli_error(clean, PauliError(m=0, b=b, s=s, p=2))
    for idx in range(32):
        d = [(idx >> (4 - i)) & 1 for i in range(5)]
        src = [(d[i] - b[i]) % 2 for i in range(5)]
        phase = (-1) ** (sum(s[i] * src[i] for i in range(5)) % 2)
        src_idx = int("".join(map(str, src)), 2)
        expected = phase * clean.amplitudes[src_idx]
        assert abs(corrupted.amplitudes[idx] - expected) < 1e-12


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


def test_decoder_unitary_shape_and_unitarity():
    g = five_qubit_decoding_graph()
    t = decoder_unitary(g)
    assert t.shape == (32, 32)
    assert np.max(np.abs(t.conj().T @ t - np.eye(32))) < 1e-12


def _dense_decoder(g):
    """Reference: the dense p**n x p**n decoding matrix from its definition.

    Rows are decoded strings r (syndrome digits first, logical digits
    last), columns codeword strings y; the entry is p**(-n/2) times
    omega_bar**mu, where mu is the edge sum of the full adjacency matrix
    at the joint assignment (r, y).
    """
    adj = g.adjacency.array
    out_order = list(g.syndromes) + list(g.inputs)
    y_idx = list(g.outputs)
    digits = np.array([index_to_digits(i, g.p, g.n) for i in range(g.p**g.n)],
                      dtype=np.int64)

    def pair_form(sub):
        return np.einsum("ki,ij,kj->k", digits, np.triu(sub, k=1), digits)

    q_out = pair_form(adj[np.ix_(out_order, out_order)])
    q_y = pair_form(adj[np.ix_(y_idx, y_idx)])
    cross = digits @ adj[np.ix_(out_order, y_idx)] @ digits.T
    exponent = (q_out[:, np.newaxis] + cross + q_y[np.newaxis, :]) % g.p
    return np.exp(-2j * np.pi / g.p)**exponent / np.sqrt(float(g.p**g.n))


def _random_graph(p, k, n, rng, accept):
    """The first random graph whose admissibility report `accept` takes.

    Weights are drawn on every edge c3 and c4 allow, and |L| = n - k, so
    c1, c3 and c4 hold by construction.
    """
    m = n - k
    size = k + n + m
    inputs, syndromes = range(k), range(k + n, size)
    while True:
        upper = np.triu(rng.integers(p, size=(size, size)), k=1)
        upper[np.ix_(syndromes, syndromes)] = 0
        upper[np.ix_(inputs, syndromes)] = 0
        g = CodeGraph(
            p=p, adjacency=FpMatrix.from_rows((upper + upper.T).tolist(), p),
            inputs=tuple(inputs), outputs=tuple(range(k, k + n)),
            syndromes=tuple(syndromes))
        if accept(check_admissibility(g)):
            return g


# p = 5 stops at |Y| = 4 so the dense reference stays at 625 x 625.
@given(st.sampled_from([(2, 5), (3, 5), (5, 4)]).flatmap(
           lambda pn: st.tuples(st.just(pn[0]),
                                st.integers(min_value=1, max_value=pn[1]))),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_decoder_matches_dense_reference(pn, seed):
    p, n = pn
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, n + 1))
    g = _random_graph(p, k, n, rng, lambda report: report.c2)
    reference = _dense_decoder(g)
    assert np.max(np.abs(decoder_unitary(g) - reference)) < 1e-12
    # A Pauli error of any weight on a codeword leaves a definite
    # syndrome, so decode must read the reference image the same way.
    v = LogicalState(p=p, coefficients=random_state(p, k, rng).amplitudes)
    error = PauliError(m=int(rng.integers(p)),
                       b=tuple(int(b) for b in rng.integers(p, size=n)),
                       s=tuple(int(s) for s in rng.integers(p, size=n)), p=p)
    damaged = apply_pauli_error(encode(g, v), error)
    blocks = (reference @ damaged.amplitudes).reshape(p**(n - k), p**k)
    top = int(np.argmax(np.sum(np.abs(blocks)**2, axis=1)))
    syndrome, residual = decode(g, damaged)
    assert syndrome.entries == index_to_digits(top, p, n - k)
    expected = blocks[top] / np.linalg.norm(blocks[top])
    assert np.max(np.abs(residual.amplitudes - expected)) < 1e-12


# |Y| = 7 and 8 run the Fourier layer as three factors, 3 + 2 + 2 and
# 3 + 3 + 2 qudits, where |Y| <= 6 needs at most two.
@pytest.mark.parametrize("n", [7, 8])
def test_decoder_with_three_fourier_factors_matches_dense_reference(n):
    assert -(-n // graph_code.FOURIER_GROUP) == 3
    rng = np.random.default_rng(n)
    g = _random_graph(2, 1, n, rng, lambda report: report.c2)
    reference = _dense_decoder(g)
    assert np.max(np.abs(decoder_unitary(g) - reference)) < 1e-12
    x = random_state(2, n, rng).amplitudes
    assert np.max(np.abs(graph_code._decoder(g)(x) - reference @ x)) < 1e-12


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_fourier_real_form_is_the_complex_factor(p):
    rng = np.random.default_rng(p)
    for h in range(1, graph_code.FOURIER_GROUP + 1):
        factor = graph_code._fourier_factor(p, h)
        x = rng.normal(size=(3, 4, len(factor), 2)).view(np.complex128)[..., 0]
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
        real = graph_code._fourier_real_form(p, h)
        got = (x.view(np.float64) @ real).view(np.complex128)
        assert np.max(np.abs(got - x @ factor)) <= 1e-15, (p, h)


@pytest.mark.parametrize("p, n", [(2, 5), (2, 7), (3, 7), (5, 4)])
def test_batched_decoder_is_the_per_row_map_bit_for_bit(p, n):
    rng = np.random.default_rng(p * n)
    g = _random_graph(p, 1, n, rng, lambda report: report.c2)
    apply = graph_code._decoder(g)
    x = random_state(p, n, rng).amplitudes * rng.normal(size=(5, 1))
    batched = apply(x)
    for row, expected in zip(x, batched):
        assert np.array_equal(apply(row).view(np.uint64),
                              expected.view(np.uint64))


@given(st.sampled_from([2, 3, 5]),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=8, deadline=None)
def test_random_admissible_graph_decodes_every_weight_one_error(p, seed):
    rng = np.random.default_rng(seed)
    g = _random_graph(p, 1, 5, rng, lambda report: report.all_pass)
    inputs = [LogicalState.computational(p, 1, 0),
              LogicalState(p=p, coefficients=random_state(p, 1, rng).amplitudes)]
    codewords = [encode(g, v) for v in inputs]
    for v, codeword in zip(inputs, codewords):
        syndrome, residual = decode(g, codeword)
        assert syndrome.is_zero()
        assert fidelity_up_to_phase(residual, v.as_state()) >= 1 - 1e-10
    for error in weight_one_errors(p, 5):
        syndromes = {decode(g, apply_pauli_error(c, error))[0].entries
                     for c in codewords}
        assert len(syndromes) == 1
        assert syndromes != {(0,) * 4}


def test_clean_round_trip_on_a_large_qudit_graph():
    # p = 5, |Y| = 8: 390625 amplitudes, a size whose dense decoding
    # matrix would not fit in memory.  Output y links to the input, to
    # syndrome vertex y + 7 (y >= 2) and to its ring neighbour.
    edges = ([(0, y, 1) for y in range(1, 9)]
             + [(y + 7, y, 1 + y % 4) for y in range(2, 9)]
             + [(y, y % 8 + 1, 1 + y % 4) for y in range(1, 9)])
    g = parse_graph("p 5 X 1 Y 8 L 7\n"
                    + "\n".join(f"{u} {v} {w}" for u, v, w in edges))
    v = LogicalState(p=5, coefficients=[0.1, 0.5j, -0.3, 0.2, 0.4 + 0.1j])
    syndrome, residual = decode(g, encode(g, v))
    assert syndrome.entries == (0,) * 7
    assert fidelity_up_to_phase(residual, v.as_state()) >= 1 - 1e-10
    with pytest.raises(CodeError, match=rf"the dense decoding matrix needs "
                                        rf"{5**16} amplitudes"):
        decoder_unitary(g)


def test_graph_failing_c2_is_refused_before_any_register_work(monkeypatch):
    # c1 holds (1 + 1 = 2), but both outputs see only the input, so the
    # cross block [[1, 0], [1, 0]] has rank 1.
    g = parse_graph("p 2 X 1 Y 2 L 1\n0 1 1\n0 2 1\n")
    report = check_admissibility(g)
    assert report.c1 and not report.c2

    def no_register_work(*args):
        raise AssertionError("a p**n array was built")

    monkeypatch.setattr(graph_code, "_pair_form", no_register_work)
    monkeypatch.setattr(graph_code, "_image_index", no_register_work)
    with pytest.raises(DecodeError, match=r"rank 1 < \|Y\| = 2 over F_2"):
        decode(g, basis_state(2, (0, 0)))
    with pytest.raises(DecodeError, match=r"rank 1 < \|Y\| = 2 over F_2"):
        decoder_unitary(g)


def test_builds_hold_a_few_register_sized_arrays():
    # p = 3, |Y| = 11: the codeword holds 3**11 complex amplitudes.  The
    # encoder keeps one phase vector and one read index; the decoder two
    # phase vectors and one gather index, and each is built in place.
    rng = np.random.default_rng(11)
    g = _random_graph(3, 1, 11, rng, lambda report: report.c2)
    register_bytes = 16 * 3**11
    for build in (graph_code._encoder, graph_code._decoder):
        build.cache_clear()
        tracemalloc.start()
        try:
            build(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            build.cache_clear()
        assert peak < 4 * register_bytes, (build.__name__, peak / register_bytes)


def test_oversized_graph_is_refused_before_allocation():
    # p = 7, |Y| = 12 meets c1 and c2, but its register holds 7**12
    # amplitudes, above the package limit.
    edges = ([f"0 {y} 1" for y in range(1, 13)]
             + [f"{13 + i} {2 + i} 1" for i in range(11)])
    g = parse_graph("p 7 X 1 Y 12 L 11\n" + "\n".join(edges))
    assert 7**12 > MAX_AMPLITUDES
    with pytest.raises(CodeError, match=rf"the decoder needs {7**12} "
                                        rf"amplitudes, above the limit of "
                                        rf"{MAX_AMPLITUDES}"):
        decoder_unitary(g)
    with pytest.raises(CodeError, match=rf"the encoder needs {7**12} "
                                        "amplitudes"):
        encode(g, LogicalState.computational(7, 1, 0))


def test_clean_codeword_decodes_to_zero_syndrome():
    g = five_qubit_decoding_graph()
    v = LogicalState(p=2, coefficients=[0.6, 0.8])
    syndrome, residual = decode(g, encode(g, v))
    assert syndrome.entries == (0, 0, 0, 0)
    assert fidelity_up_to_phase(residual, v.as_state()) > 1 - 1e-10


def test_bit_flip_on_first_qubit_gives_its_syndrome():
    g = five_qubit_decoding_graph()
    v = LogicalState(p=2, coefficients=[0.6, 0.8])
    corrupted = apply_pauli_error(encode(g, v), PauliError.single(2, 5, 0, b=1))
    syndrome, residual = decode(g, corrupted)
    assert syndrome.entries == (0, 1, 1, 0)
    # residual carries a sign flip on the |1> component
    flipped = StateVector(p=2, n=1,
                          amplitudes=np.array([0.6, -0.8], dtype=complex))
    assert fidelity_up_to_phase(residual, flipped) > 1 - 1e-10


def test_mixed_error_inputs_are_rejected():
    g = five_qubit_decoding_graph()
    v = LogicalState(p=2, coefficients=[1.0, 0.0])
    clean = encode(g, v)
    corrupted = apply_pauli_error(clean, PauliError.single(2, 5, 0, b=1))
    blended = StateVector(
        p=2, n=5,
        amplitudes=(clean.amplitudes + corrupted.amplitudes) / np.sqrt(2))
    with pytest.raises(DecodeError):
        decode(g, blended)


def test_nondeterministic_syndrome_error_states_the_margin():
    # An equal blend of two syndromes puts probability 1/2 on each, and
    # the error quotes that top probability against the bound.
    g = five_qubit_decoding_graph()
    clean = encode(g, LogicalState(p=2, coefficients=[1.0, 0.0]))
    corrupted = apply_pauli_error(clean, PauliError.single(2, 5, 0, b=1))
    blended = StateVector(
        p=2, n=5,
        amplitudes=(clean.amplitudes + corrupted.amplitudes) / np.sqrt(2))
    with pytest.raises(DecodeError,
                       match=r"top probability 0\.5 <= bound 0\.999999999\)"):
        decode(g, blended)


def test_a_branch_too_small_to_normalize_is_refused():
    # The register's norm passes its floor, but spread over 16 syndromes
    # the likeliest branch's norm does not.
    g = five_qubit_decoding_graph()
    clean = encode(g, LogicalState(p=2, coefficients=[1.0, 0.0]))
    spread = sum(apply_pauli_error(clean, e).amplitudes
                 for e in [PauliError.identity(2, 5)] + weight_one_errors(2, 5))
    tiny = StateVector(p=2, n=5, amplitudes=spread / np.linalg.norm(spread) * 2e-14)
    with pytest.raises(DecodeError, match=r"cannot normalize a measured branch "
                                          r"of norm \S+ outside \[1e-14, inf\)"):
        decode(g, tiny)


@pytest.mark.parametrize("path", [
    None, Path(__file__).parent / "golden" / "qutrit_decoding.graph"],
    ids=["five-qubit", "qutrit"])
def test_decode_reads_the_syndrome_as_the_general_readout_does(path):
    # decode reads its syndrome straight off the decoder output; the
    # reference measures the same register's leading L digits.
    g = five_qubit_decoding_graph() if path is None else load_graph(path)
    rng = np.random.default_rng(29)
    v = LogicalState(p=g.p, coefficients=random_state(g.p, g.k, rng).amplitudes)
    clean = encode(g, v)
    for error in weight_one_errors(g.p, g.n):
        damaged = apply_pauli_error(clean, error)
        scaled = StateVector(p=g.p, n=g.n, amplitudes=damaged.amplitudes * 3.0)
        decoded = StateVector(p=g.p, n=g.n,
                              amplitudes=graph_code._decoder(g)(scaled.amplitudes))
        probs, branch = project_register(decoded, 0, g.m, 9.0)
        syndrome, residual = decode(g, scaled)
        assert syndrome == FpVector(
            index_to_digits(int(np.argmax(probs)), g.p, g.m), g.p)
        assert np.array_equal(residual.amplitudes, branch.amplitudes)
    blended = StateVector(p=g.p, n=g.n, amplitudes=(
        clean.amplitudes + damaged.amplitudes) / np.sqrt(2))
    probs, _ = project_register(StateVector(
        p=g.p, n=g.n, amplitudes=graph_code._decoder(g)(blended.amplitudes)),
        0, g.m, blended.norm() ** 2)
    with pytest.raises(DecodeError, match=re.escape(
            f"top probability {probs.max():.12g} <= ")):
        decode(g, blended)


def test_decode_requires_syndrome_vertices():
    g = five_qubit_code_graph()
    v = LogicalState(p=2, coefficients=[1.0, 0.0])
    with pytest.raises(CodeError):
        decode(g, encode(g, v))


@given(st.integers(min_value=0, max_value=10 ** 9))
@settings(max_examples=30, deadline=None)
def test_encode_decode_round_trip(seed):
    g = five_qubit_decoding_graph()
    v = LogicalState(
        p=2,
        coefficients=random_state(2, 1, np.random.default_rng(seed)).amplitudes)
    syndrome, residual = decode(g, encode(g, v))
    assert syndrome.entries == (0, 0, 0, 0)
    assert fidelity_up_to_phase(residual, v.as_state()) > 1 - 1e-10


# ---------------------------------------------------------------------------
# Error labels and correction words
# ---------------------------------------------------------------------------


def test_error_label_round_trips():
    for label in ("B1", "S5", "BS3", "SB2", "BSB5", "SBS4"):
        e = parse_error_label(label, 2, 5)
        assert format_error_label(e) == label
    assert format_error_label(PauliError.identity(2, 5)) == "None"


def test_error_label_rejects_malformed_input():
    for bad in ("Q1", "B0", "B6", "BSBS1", "1B"):
        with pytest.raises(CodeError):
            parse_error_label(bad, 2, 5)


def test_error_label_accepts_identity_spellings():
    for ident in ("", "None"):
        assert parse_error_label(ident, 2, 5).weight == 0


def test_correction_word_algebra():
    # Composition picks up a phase whenever a phase letter passes a
    # shift letter, which distinguishes the two orderings.
    assert word_mbs("B", 2) == (0, 1, 0)
    assert word_mbs("S", 2) == (0, 0, 1)
    assert word_mbs("BS", 2) == (0, 1, 1)
    assert word_mbs("SB", 2) == (1, 1, 1)
    assert word_mbs("BSB", 2) == (1, 0, 1)
    assert word_mbs("SBS", 2) == (1, 1, 0)
    assert word_mbs("", 2) == (0, 0, 0)


def test_word_error_places_operator_on_requested_qubit():
    e = word_error("BS", 2, 5, 4)
    assert e.b == (0, 0, 0, 0, 1)
    assert e.s == (0, 0, 0, 0, 1)
    assert e.m == 0


def test_word_matrices_match_letter_products():
    # A word denotes an operator product, so its rightmost letter acts
    # first; the collapsed (m, b, s) form must equal that product.
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    letters = {"B": x, "S": z}
    for word in CORRECTION_WORDS:
        mat = np.eye(2, dtype=complex)
        for ch in word:
            mat = mat @ letters[ch]
        m, b, s = word_mbs(word, 2)
        expect = (-1) ** m * np.linalg.matrix_power(x, b) @ np.linalg.matrix_power(z, s)
        assert np.max(np.abs(mat - expect)) < 1e-12


# ---------------------------------------------------------------------------
# Syndrome table and correction
# ---------------------------------------------------------------------------


def _full_table():
    g = five_qubit_decoding_graph()
    return g, build_syndrome_table(g, weight_one_errors(2, 5))


def test_syndrome_table_covers_all_sixteen_syndromes():
    _, table = _full_table()
    assert len(table.rows) == 16
    assert set(table.rows) == {tuple((w >> (3 - i)) & 1 for i in range(4))
                               for w in range(16)}


def test_syndrome_table_matches_golden_records(tmp_path):
    import pathlib
    _, table = _full_table()
    golden = pathlib.Path(__file__).parent / "golden" / "syndrome_table.records"
    assert table.to_records() == golden.read_text().splitlines()


def test_highlighted_row_bit_flip_first_qubit():
    _, table = _full_table()
    row = table.rows[(0, 1, 1, 0)]
    assert row.error_label == "B1"
    assert row.residual == "c(0)|0>-c(1)|1>"
    assert row.correction_label == "S5"


def test_every_tabulated_correction_restores_the_input():
    g, table = _full_table()
    for _ in range(3):
        v = LogicalState(p=2, coefficients=random_state(2, 1, RNG).amplitudes)
        clean = encode(g, v)
        for key, row in table.sorted_rows():
            error = parse_error_label(row.error_label, 2, 5) \
                if row.error_label != "None" else PauliError.identity(2, 5)
            damaged = apply_pauli_error(clean, error)
            syndrome, residual = decode(g, damaged)
            assert syndrome.entries == key
            fixed = correct(residual, syndrome, table)
            assert fidelity_up_to_phase(fixed, v.as_state()) > 1 - 1e-10


@pytest.mark.parametrize("path", [
    None, Path(__file__).parent / "golden" / "qutrit_decoding.graph"],
    ids=["five-qubit", "qutrit"])
def test_correct_applies_each_row_as_apply_pauli_error_does(path):
    g = five_qubit_decoding_graph() if path is None else load_graph(path)
    table = build_syndrome_table(g, weight_one_errors(g.p, g.n))
    rng = np.random.default_rng(41)
    residual = random_state(g.p, g.k, rng)
    for key, row in table.sorted_rows():
        got = correct(residual, FpVector(key, g.p), table).amplitudes
        expected = apply_pauli_error(residual, row.correction).amplitudes
        if g.p == 2:
            assert np.array_equal(got.view(np.uint64),
                                  expected.view(np.uint64)), key
        else:
            assert np.max(np.abs(got - expected)) <= 1e-15, key


def test_decode_and_correct_is_decode_then_correct():
    g = five_qubit_decoding_graph()
    table = build_syndrome_table(g, weight_one_errors(2, g.n))
    v = LogicalState(p=2, coefficients=[0.6, 0.8j])
    clean = encode(g, v)
    for error in [None] + weight_one_errors(2, g.n):
        damaged = clean if error is None else apply_pauli_error(clean, error)
        coefficients, readout = graph_code.decode_and_correct(g, damaged, table)
        syndrome, residual = decode(g, damaged)
        expected = correct(residual, syndrome, table).amplitudes
        assert np.array_equal(coefficients.view(np.uint64),
                              expected.view(np.uint64))
        _state, text, label = outer_stage_by_parts(g, clean, error, table)
        assert (readout.syndrome, readout.correction_label) == (text, label)
    with pytest.raises(CodeError, match=r"table \(p, k, m\) = \(2, 1, 0\)"):
        graph_code.decode_and_correct(g, clean, SyndromeTable(p=2, k=1, m=0))


def test_correct_rejects_untabulated_syndrome():
    # A table built from the identity alone only knows the zero
    # syndrome, so any other word has no correction entry.
    g = five_qubit_decoding_graph()
    table = build_syndrome_table(g, [])
    assert len(table.rows) == 1
    with pytest.raises(DecodeError):
        correct(basis_state(2, (0,)), FpVector((0, 1, 1, 0), 2), table)


def _decode_every_input(g, errors, table):
    """Decode every error on every logical basis input against the table.

    Each decoded syndrome must have a row, whose correction sends the
    decoded residual to the exact basis state.  Returns the decoded
    syndrome of each error label.
    """
    codewords = [encode(g, LogicalState.computational(g.p, g.k, j))
                 for j in range(g.p**g.k)]
    seen = {}
    for error in [PauliError.identity(g.p, g.n)] + list(errors):
        for j, codeword in enumerate(codewords):
            syndrome, residual = decode(g, apply_pauli_error(codeword, error))
            assert seen.setdefault(format_error_label(error),
                                   syndrome.entries) == syndrome.entries
            fixed = correct(residual, syndrome, table)
            target = np.zeros(g.p**g.k)
            target[j] = 1.0
            assert np.max(np.abs(fixed.amplitudes - target)) <= 1e-12
    return seen


# Random admissible graphs, three per case; p = 2 needs |Y| = 7 for one
# to turn up within a few hundred draws.
@pytest.mark.parametrize("p, n", [(2, 7), (3, 5), (5, 5)])
def test_syndrome_table_agrees_with_decoding_every_error(p, n):
    rng = np.random.default_rng(100 + p)
    for _ in range(3):
        g = _random_graph(p, 1, n, rng, lambda report: report.all_pass)
        errors = weight_one_errors(p, n)
        table = build_syndrome_table(g, errors)
        seen = _decode_every_input(g, errors, table)
        assert set(seen.values()) == set(table.rows)
        for key, row in table.rows.items():
            assert seen[row.error_label] == key


def test_syndrome_table_matches_the_decoding_oracle_on_qubit_graphs():
    g, table = _full_table()
    oracle = build_syndrome_table_by_decoding(
        g, weight_one_errors(2, 5))
    assert table.to_records() == oracle.to_records()
    assert table.rows == oracle.rows
    # The oracle's word search has no word for a pure -1 phase, so it
    # refuses some random graphs; the tables it does build must agree.
    rng = np.random.default_rng(5)
    compared = 0
    for _ in range(4):
        g = _random_graph(2, 1, 5, rng, lambda report: report.all_pass)
        errors = weight_one_errors(2, 5)
        try:
            oracle = build_syndrome_table_by_decoding(g, errors)
        except DecodeError as exc:
            assert "no correction found" in str(exc)
            continue
        assert build_syndrome_table(g, errors).to_records() == oracle.to_records()
        compared += 1
    assert compared >= 1


def test_syndrome_table_names_corrections_on_several_logical_qudits():
    # Two logical qutrits: a residual may act on both, and its label is
    # the product of one term per qudit, positions after the syndrome.
    rng = np.random.default_rng(7)
    g = _random_graph(3, 2, 7, rng, lambda report: report.c2)
    for error in weight_one_errors(3, 7):
        table = build_syndrome_table(g, [error])
        row = table.rows[max(table.rows)]
        if row.correction.weight == 2:
            break
    else:
        pytest.fail("no error leaves a residual on both logical qudits")
    _decode_every_input(g, [error], table)
    assert re.fullmatch(r"P\(m=\d,b=\d,s=\d\)6P\(m=0,b=\d,s=\d\)7",
                        row.correction_label)


def test_syndrome_table_runs_no_state_vector(monkeypatch):
    def refuse(*args):
        raise AssertionError("the table must not encode or decode")
    monkeypatch.setattr(graph_code, "encode", refuse)
    monkeypatch.setattr(graph_code, "decode", refuse)
    monkeypatch.setattr(graph_code, "_decoder", refuse)
    _, table = _full_table()
    assert len(table.rows) == 16


def test_syndrome_table_keeps_the_decoder_refusals():
    g = five_qubit_decoding_graph()
    unbalanced = CodeGraph(p=2, adjacency=g.adjacency, inputs=g.inputs,
                           outputs=g.outputs + (9,), syndromes=(6, 7, 8))
    with pytest.raises(CodeError, match=r"\|X\| \+ \|L\| = \|Y\|, got 1 \+ 3 != 6"):
        build_syndrome_table(unbalanced, [])
    # Cutting the edge 2-7 leaves syndrome vertex 7 isolated, so the
    # cross block loses rank.
    rows = g.adjacency.array.tolist()
    rows[2][7] = rows[7][2] = 0
    singular = CodeGraph(p=2, adjacency=FpMatrix.from_rows(rows, 2),
                         inputs=g.inputs, outputs=g.outputs,
                         syndromes=g.syndromes)
    with pytest.raises(DecodeError, match="rank 4 < |Y| = 5 over F_2"):
        build_syndrome_table(singular, [])


def test_pure_phase_labels_are_not_the_identity():
    assert format_error_label(PauliError.identity(3, 4)) == "None"
    phase = PauliError(m=2, b=(0,) * 4, s=(0,) * 4, p=3)
    assert format_error_label(phase) == "P(m=2,b=0,s=0)1"
    assert format_error_label(phase, offset=4) == "P(m=2,b=0,s=0)5"
    minus = PauliError(m=1, b=(0,), s=(0,), p=2)
    assert format_error_label(minus, offset=4) == "P(m=1,b=0,s=0)5"


def test_error_labels_take_a_position_resolver():
    # Primed positions are the resolver's business; by default they fail.
    def resolve(pos):
        return int(pos.rstrip("'")) - 1 + (3 if pos.endswith("'") else 0)
    e = parse_error_label(" SB2' ", 2, 6, resolve)
    assert format_error_label(e) == "SB5"
    assert parse_error_label("i", 2, 6, resolve).weight == 0
    with pytest.raises(CodeError, match="cannot parse error label \"B2'\""):
        parse_error_label("B2'", 2, 6)
    with pytest.raises(CodeError, match=r"error position 7 outside \[1, 6\]"):
        parse_error_label("B7", 2, 6)
