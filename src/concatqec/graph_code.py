"""Graph codes: encoding, admissibility checking, and exact decoding.

A code is specified by an undirected simple graph with F_p edge weights
whose vertices split into input vertices X (logical content), output
vertices Y (the physical codeword), and optional syndrome vertices L.
Encoding attaches a phase to every output string through the edge sum of
the adjacency matrix; decoding applies the inverse Fourier-type unitary
of the same graph extended by the syndrome vertices, after which the L
register holds a classical syndrome and the X register holds the
logical content up to a Pauli frame fixed by a lookup table.  Neither
map is built as a matrix: the encoder reads a Fourier transform of the
inputs at the cross block's image of each output string, and the decoder
is two phase layers, a relabelling of strings by the cross block between
Y and L + X (a permutation exactly when admissibility condition c2
holds) and a p-point Fourier transform on every qudit, so both cost
O(p**n) memory.  Registers and operators above statevec.MAX_AMPLITUDES
amplitudes are refused with a CodeError before anything is allocated.

Vertices are numbered with the X block first, then Y, then L.  Register
addresses follow vertex order, so the decoded register reads syndrome
digits first and logical digits last.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .fp_linalg import (
    FpMatrix,
    FpVector,
    check_prime,
    kernel_basis,
    mat_rank,
    mat_submatrix,
)
from .statevec import (
    DECODED_AMPLITUDE_TOL,
    DETERMINISM_BOUND,
    MAX_AMPLITUDES,
    ZERO_NORM_FLOOR,
    PauliError,
    StateVector,
    apply_pauli_error,
    basis_state,
    guard_norm,
    index_to_digits,
    normalize,
    project_register,
)

# Error supports condition c5 may range over: each costs one elimination
# of a matrix with at most |Y| rows, so 2**15 of them take seconds.  It
# admits e = 2 up to |Y| = 26, the encoder's limit at p = 2.
ADMISSIBILITY_MAX_SUPPORTS = 2**15
# Qudits per Kronecker factor of the decoder's Fourier layer.  Small
# factors keep each product below the size at which BLAS spreads it over
# threads (an 81 x 81 factor at 3**7 amplitudes runs on two), so a
# decode's time does not follow the load on a second core.  They also
# cut the work, p**n times the sum of the factor sizes.
FOURIER_GROUP = 3


class CodeError(ValueError):
    """Raised for invalid code descriptions or logical states."""


class DecodeError(RuntimeError):
    """Raised when decoding or correction cannot proceed."""


class GraphParseError(ValueError):
    """Raised on malformed graph files; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# Code description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CodeGraph:
    """A weighted graph with an input/output/syndrome vertex partition.

    Construction enforces structural sanity only: the three index sets
    must partition the vertex range and the adjacency matrix must be
    symmetric with zero diagonal.  The decoding conditions themselves
    are the business of check_admissibility, which must be able to
    report on graphs that violate them.

    Attributes:
        p: field order and qudit dimension.
        adjacency: symmetric zero-diagonal weight matrix over F_p.
        inputs: X vertex indices, ascending.
        outputs: Y vertex indices, ascending.
        syndromes: L vertex indices, ascending (may be empty).
    """

    p: int
    adjacency: FpMatrix
    inputs: Tuple[int, ...]
    outputs: Tuple[int, ...]
    syndromes: Tuple[int, ...]

    def __post_init__(self) -> None:
        check_prime(self.p)
        object.__setattr__(self, "inputs", tuple(sorted(self.inputs)))
        object.__setattr__(self, "outputs", tuple(sorted(self.outputs)))
        object.__setattr__(self, "syndromes", tuple(sorted(self.syndromes)))
        if self.adjacency.p != self.p:
            raise CodeError(f"adjacency field {self.adjacency.p} != p = {self.p}")
        if not self.adjacency.is_symmetric_zero_diagonal():
            raise CodeError("adjacency must be symmetric with zero diagonal")
        total = self.adjacency.rows
        combined = sorted(self.inputs + self.outputs + self.syndromes)
        if combined != list(range(total)):
            raise CodeError(
                f"inputs/outputs/syndromes must partition 0..{total - 1}, "
                f"got {combined}"
            )
        if not self.inputs or not self.outputs:
            raise CodeError("need at least one input and one output vertex")

    @property
    def k(self) -> int:
        """Number of logical qudits."""
        return len(self.inputs)

    @property
    def n(self) -> int:
        """Number of physical codeword qudits."""
        return len(self.outputs)

    @property
    def m(self) -> int:
        """Number of syndrome digits."""
        return len(self.syndromes)


@dataclass(eq=False)
class LogicalState:
    """Logical content for the input register of a code.

    Attributes:
        p: qudit dimension.
        coefficients: complex array of length p**k; normalized at
            construction, so a norm outside [ZERO_NORM_FLOOR, inf) (zero,
            NaN or overflowing) is rejected.
    """

    p: int
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        check_prime(self.p)
        self.coefficients = np.asarray(self.coefficients, dtype=np.complex128)
        if self.coefficients.ndim != 1 or self.coefficients.size == 0:
            raise CodeError("coefficients must form a nonempty 1-d array")
        k = round(np.log(self.coefficients.size) / np.log(self.p))
        if self.p**k != self.coefficients.size:
            raise CodeError(
                f"coefficient count {self.coefficients.size} is not a power of {self.p}"
            )
        norm = guard_norm(StateVector(self.p, k, self.coefficients).norm(),
                          ZERO_NORM_FLOOR, CodeError,
                          "logical state must be nonzero and finite: ")
        self.coefficients = self.coefficients / norm

    @property
    def k(self) -> int:
        return round(np.log(self.coefficients.size) / np.log(self.p))

    @classmethod
    def computational(cls, p: int, k: int, index: int) -> "LogicalState":
        """The basis state |index> on k logical qudits."""
        coeff = np.zeros(p**k, dtype=np.complex128)
        coeff[index] = 1.0
        return cls(p=p, coefficients=coeff)

    def as_state(self) -> StateVector:
        return StateVector(p=self.p, n=self.k, amplitudes=self.coefficients.copy())


# ---------------------------------------------------------------------------
# Graph file format
# ---------------------------------------------------------------------------

def parse_graph(text: str) -> CodeGraph:
    """Parse the plain-text graph format.

    The first content line is a header ``p <p> X <k> Y <n> L <m>``.
    Every following content line is an edge ``u v w`` with zero-based
    vertex indices and a nonzero weight in [1, p).  Blank lines and
    lines starting with ``#`` are ignored.

    Raises:
        GraphParseError: naming the first offending line.
        CodeError: when the header declares a vertex set too large for
            any register (see MAX_AMPLITUDES).
    """
    header: Optional[Tuple[int, int, int, int]] = None
    adjacency: List[List[int]] = []
    seen: set = set()
    total = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 8 or tokens[0] != "p" or tokens[2] != "X" \
                    or tokens[4] != "Y" or tokens[6] != "L":
                raise GraphParseError(
                    "expected header 'p <p> X <k> Y <n> L <m>'", lineno)
            try:
                p, k, n, m = (int(tokens[i]) for i in (1, 3, 5, 7))
            except ValueError:
                raise GraphParseError("header counts must be integers", lineno)
            if p not in (2, 3, 5, 7):
                raise GraphParseError(f"unsupported field order {p}", lineno)
            if k < 1 or n < 1 or m < 0:
                raise GraphParseError("need X >= 1, Y >= 1, L >= 0", lineno)
            # Refused before the adjacency list is built: a register of
            # more qudits exceeds MAX_AMPLITUDES for every p >= 2.
            limit = MAX_AMPLITUDES.bit_length() - 1
            for name, count in (("X", k), ("Y", n), ("L", m)):
                if count > limit:
                    raise CodeError(
                        f"graph declares {count} {name} vertices, above the "
                        f"limit of {limit} qudits per register")
            header = (p, k, n, m)
            total = k + n + m
            adjacency = [[0] * total for _ in range(total)]
            continue
        if len(tokens) != 3:
            raise GraphParseError("expected edge 'u v w'", lineno)
        try:
            u, v, w = (int(t) for t in tokens)
        except ValueError:
            raise GraphParseError("edge fields must be integers", lineno)
        p = header[0]
        if not (0 <= u < total and 0 <= v < total):
            raise GraphParseError(
                f"vertex index out of range 0..{total - 1}", lineno)
        if u == v:
            raise GraphParseError(f"self-loop at vertex {u}", lineno)
        if not 1 <= w < p:
            raise GraphParseError(
                f"edge weight {w} outside [1, {p})", lineno)
        pair = (min(u, v), max(u, v))
        if pair in seen:
            raise GraphParseError(f"duplicate edge {pair[0]} {pair[1]}", lineno)
        seen.add(pair)
        adjacency[u][v] = w
        adjacency[v][u] = w
    if header is None:
        raise GraphParseError("empty graph file", 1)
    p, k, n, m = header
    return CodeGraph(
        p=p,
        adjacency=FpMatrix.from_rows(adjacency, p=p),
        inputs=tuple(range(k)),
        outputs=tuple(range(k, k + n)),
        syndromes=tuple(range(k + n, total)),
    )


def load_graph(path: Union[str, Path]) -> CodeGraph:
    """Read and parse a UTF-8 graph file from disk.

    Raises:
        GraphParseError: naming the first offending line, also when it
            holds a byte that is not UTF-8.
        CodeError: as parse_graph.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[:exc.start].decode("utf-8")
        raise GraphParseError(f"byte 0x{data[exc.start]:02x} is not UTF-8",
                              len((before + "x").splitlines())) from None
    return parse_graph(text)


_FIVE_QUBIT_EDGES = (
    (0, 1), (0, 2), (0, 3),
    (1, 2), (1, 4), (2, 5), (3, 4), (3, 5), (4, 5),
)
_FIVE_QUBIT_SYNDROME_EDGES = ((1, 6), (2, 7), (4, 8), (5, 9))


def _graph_from_edges(total: int, edges: Sequence[Tuple[int, int]],
                      k: int, n: int, m: int) -> CodeGraph:
    rows = [[0] * total for _ in range(total)]
    for u, v in edges:
        rows[u][v] = 1
        rows[v][u] = 1
    return CodeGraph(
        p=2,
        adjacency=FpMatrix.from_rows(rows, p=2),
        inputs=tuple(range(k)),
        outputs=tuple(range(k, k + n)),
        syndromes=tuple(range(k + n, total)),
    )


def five_qubit_code_graph() -> CodeGraph:
    """The 3-regular six-vertex graph of the distance-3 five-qubit code."""
    return _graph_from_edges(6, _FIVE_QUBIT_EDGES, k=1, n=5, m=0)


def five_qubit_decoding_graph() -> CodeGraph:
    """The five-qubit code graph extended by four syndrome vertices."""
    return _graph_from_edges(
        10, _FIVE_QUBIT_EDGES + _FIVE_QUBIT_SYNDROME_EDGES, k=1, n=5, m=4)


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the five decoding-graph conditions.

    Attributes:
        c1: |X| + |L| equals |Y|.
        c2: the output rows restricted to input and syndrome columns
            form an invertible square matrix.
        c3: no edges inside L.
        c4: no edges between X and L.
        c5: the correctability condition for all error supports E with
            1 <= |E| <= 2e.
        failing_witness: present exactly when c5 fails; the triple
            (E vertex indices, d_X, d_E) exhibiting the violation.
    """

    c1: bool
    c2: bool
    c3: bool
    c4: bool
    c5: bool
    failing_witness: Optional[Tuple[Tuple[int, ...], FpVector, FpVector]] = None

    def __post_init__(self) -> None:
        if self.c5 and self.failing_witness is not None:
            raise CodeError("witness present although c5 passed")
        if not self.c5 and self.failing_witness is None:
            raise CodeError("c5 failed without a witness")

    @property
    def all_pass(self) -> bool:
        return self.c1 and self.c2 and self.c3 and self.c4 and self.c5


def check_admissibility(g: CodeGraph, e: int = 1) -> AdmissibilityReport:
    """Evaluate the decoding-graph conditions by linear algebra over F_p.

    Condition c5 (Schlingemann & Werner, PRA 65, 012308, 2002) asks,
    for every output subset E, that each pair (d_X, d_E) in the kernel
    of [A_IX | A_IE], with I the outputs outside E, has d_X = 0 and
    A_XE d_E = 0.  Both are linear in the pair, so it suffices to test
    the vectors of a kernel basis.  In the reduced row-echelon basis
    kernel vectors sort like their coefficient vectors, so the
    lexicographically first failing pair is the failing basis vector
    with the latest leading column.

    Args:
        g: graph under test.
        e: number of correctable errors; condition c5 ranges over all
            output subsets E with 1 <= |E| <= 2 e.

    Returns:
        Per-condition verdicts plus, for a c5 failure, the first failing
        support and its lexicographically first failing pair.

    Raises:
        CodeError: when e < 1, when the graph is too large to encode
            (see check_amplitude_count), or when c5 would range over
            more than ADMISSIBILITY_MAX_SUPPORTS supports; all before
            any elimination.
    """
    if e < 1:
        raise CodeError(f"need e >= 1, got {e}")
    check_amplitude_count("the encoder", max(g.p**g.n, g.p**(2 * g.k)))
    max_support = min(2 * e, g.n)
    supports = sum(math.comb(g.n, size) for size in range(1, max_support + 1))
    if supports > ADMISSIBILITY_MAX_SUPPORTS:
        raise CodeError(
            f"condition c5 ranges over {supports} error supports, above the "
            f"limit of {ADMISSIBILITY_MAX_SUPPORTS}")

    adj = g.adjacency
    c1 = g.k + g.m == g.n
    c2 = c1 and mat_rank(_cross_block(g)) == g.n
    a_ll = mat_submatrix(adj, g.syndromes, g.syndromes)
    c3 = all(v == 0 for row in a_ll.entries for v in row)
    a_xl = mat_submatrix(adj, g.inputs, g.syndromes)
    c4 = all(v == 0 for row in a_xl.entries for v in row)

    for size in range(1, max_support + 1):
        for support in itertools.combinations(g.outputs, size):
            interior = tuple(v for v in g.outputs if v not in support)
            # Columns: sorted inputs, then the sorted support.  One cut at
            # inputs + support would sort them together, and inputs may be
            # numbered after outputs.
            a_ix = mat_submatrix(adj, interior, g.inputs)
            a_ie = mat_submatrix(adj, interior, support)
            joint = FpMatrix(
                entries=tuple(u + w for u, w in zip(a_ix.entries, a_ie.entries)),
                rows=len(interior), cols=g.k + size, p=g.p)
            a_xe = mat_submatrix(adj, g.inputs, support)
            # The latest leading column first: see the docstring.
            for v in reversed(kernel_basis(joint)):
                d_x, d_e = v.entries[:g.k], v.entries[g.k:]
                if any(d_x) or any(sum(a * d for a, d in zip(row, d_e)) % g.p
                                   for row in a_xe.entries):
                    witness = (support, FpVector(d_x, g.p), FpVector(d_e, g.p))
                    return AdmissibilityReport(c1=c1, c2=c2, c3=c3, c4=c4,
                                               c5=False, failing_witness=witness)
    return AdmissibilityReport(c1=c1, c2=c2, c3=c3, c4=c4, c5=True)


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def check_amplitude_count(what: str, count: int) -> None:
    """Refuse an array of more than MAX_AMPLITUDES entries before it is built.

    Raises:
        CodeError: quoting the requested size and the limit.
    """
    if count > MAX_AMPLITUDES:
        # str() refuses an int of more than 4300 digits.
        shown = (count if count.bit_length() <= 64
                 else f"at least 2**{count.bit_length() - 1}")
        raise CodeError(f"{what} needs {shown} amplitudes, above the limit "
                        f"of {MAX_AMPLITUDES}")


def _pair_form(sub: np.ndarray, p: int) -> np.ndarray:
    """Edge sums of a symmetric integer matrix at every digit string, mod p.

    Entry y (strings in index order, first digit most significant) is
    sum_{i<j} sub[i, j] y_i y_j mod p.  It is summed on the (p,)*n grid
    one edge at a time, so it holds a single p**n array.
    """
    n = len(sub)
    total = np.zeros((p,) * n, dtype=np.int64)
    products = np.multiply.outer(np.arange(p), np.arange(p))
    for i, j in zip(*np.nonzero(np.triu(sub, k=1))):
        total += (sub[i, j] * products % p).reshape(
            [p if a in (i, j) else 1 for a in range(n)])
    total %= p
    return total.reshape(-1)


def _image_index(block: np.ndarray, p: int) -> np.ndarray:
    """The index of block @ y mod p, read as base-p digits, at every string y.

    The image's first row is its most significant digit.  It is built on
    the (p,)*n grid one output row at a time, so it holds two p**n arrays.
    """
    n = block.shape[1]
    index = np.zeros((p,) * n, dtype=np.int64)
    digit = np.zeros_like(index)
    for row in block:
        digit[...] = 0
        for j in np.nonzero(row)[0]:
            digit += (row[j] * np.arange(p) % p).reshape(
                [p if a == j else 1 for a in range(n)])
        digit %= p
        index *= p
        index += digit
    return index.reshape(-1)


def _fourier_factor(p: int, h: int) -> np.ndarray:
    """The p-point inverse Fourier matrix on each of h qudits, as p**h x p**h.

    Entry (d, d') is omega_bar**(d . d') / sqrt(p**h), and d . d' is the
    edge sum of the form [[0, I], [I, 0]] at the 2h digits (d, d').
    """
    dot = _pair_form(np.kron([[0, 1], [1, 0]], np.eye(h, dtype=np.int64)), p)
    return np.exp(-2j * np.pi / p)**dot.reshape(p**h, p**h) / np.sqrt(float(p**h))


@functools.lru_cache(maxsize=32)
def _encoder(g: CodeGraph) -> Callable[[np.ndarray], np.ndarray]:
    """The encoder of a graph, as a map from logical coefficients c.

    Codeword string y has amplitude sum_x c(x) omega**(q_y(y) + y.A x +
    q_x(x)), with q_y and q_x the edge sums inside Y and inside X and A
    the block between them; syndrome vertices take no part.  Summed over
    x, that is omega**q_y(y) * F(omega**q_x * c)[A y mod p] with F the
    p-point Fourier transform on the inputs: one p**k x p**k product and
    one gather, unnormalized, in O(p**n) numbers.

    Raises:
        CodeError: if the codeword or F would exceed MAX_AMPLITUDES.
    """
    check_amplitude_count("the encoder", max(g.p**g.n, g.p**(2 * g.k)))
    adj = np.array(g.adjacency.entries, dtype=np.int64)
    omega = np.exp(2j * np.pi / g.p)
    d_y = omega**_pair_form(adj[np.ix_(g.outputs, g.outputs)], g.p)
    q_x = _pair_form(adj[np.ix_(g.inputs, g.inputs)], g.p)
    fourier = np.conj(_fourier_factor(g.p, g.k)) * omega**q_x
    read = _image_index(adj[np.ix_(g.inputs, g.outputs)], g.p)
    return lambda coefficients: d_y * (fourier @ coefficients)[read]


def encode(g: CodeGraph, v: LogicalState) -> StateVector:
    """Encode logical content into a normalized codeword on the Y register.

    Raises:
        CodeError: if the logical state does not fit the input register.
    """
    if v.p != g.p:
        raise CodeError(f"logical field {v.p} does not match code p = {g.p}")
    if v.k != g.k:
        raise CodeError(f"logical register size {v.k} != |X| = {g.k}")
    amplitudes = _encoder(g)(v.coefficients)
    return normalize(StateVector(p=g.p, n=g.n, amplitudes=amplitudes))


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def _cross_block(g: CodeGraph) -> FpMatrix:
    """The output rows cut at the input and syndrome columns (condition c2)."""
    return mat_submatrix(g.adjacency, g.outputs, g.inputs + g.syndromes)


@functools.lru_cache(maxsize=32)
def _decoder(g: CodeGraph) -> Callable[[np.ndarray], np.ndarray]:
    """The inverse Fourier-type decoding unitary T of a graph, as a map.

    T sends codeword string y to decoded string r (syndrome digits
    first, logical digits last) with amplitude p**(-n/2) times
    omega_bar**(q_out(r) + r.A_cross y + q_y(y)), where q_out and q_y are
    the edge sums inside L + X and inside Y, and A_cross links the two.
    It factors as T = D_out F^(x)n Pi_A D_Y (Schlingemann & Werner,
    PRA 65, 012308, 2002): the phases of q_y, the relabelling
    y -> A_cross y mod p, which is a permutation exactly when condition
    c2 holds, the p-point inverse Fourier transform on every qudit, and
    the phases of q_out.  The transform runs as Kronecker factors on
    consecutive groups of at most FOURIER_GROUP qudits, each applied to
    the leading group and then rotated to the back, so the map keeps
    O(p**n) numbers and acts along the last axis of its argument.

    Raises:
        CodeError: if |X| + |L| != |Y|, which makes the operator
            non-square, or if it would exceed MAX_AMPLITUDES.
        DecodeError: if the cross block is singular over F_p, so the
            graph fails the invertibility condition c2.
    """
    if g.k + g.m != g.n:
        raise CodeError(
            f"decoder needs |X| + |L| = |Y|, got {g.k} + {g.m} != {g.n}")
    rank = mat_rank(_cross_block(g))
    if rank != g.n:
        raise DecodeError(
            f"decoding operator is not unitary: the cross block has rank "
            f"{rank} < |Y| = {g.n} over F_{g.p}, so the graph fails the "
            "invertibility condition c2")
    groups = [len(q) for q in np.array_split(range(g.n), -(-g.n // FOURIER_GROUP))]
    check_amplitude_count("the decoder", max(g.p**g.n, g.p**(2 * groups[0])))
    adj = np.array(g.adjacency.entries, dtype=np.int64)
    out_order = g.syndromes + g.inputs
    gather = np.argsort(_image_index(adj[np.ix_(out_order, g.outputs)], g.p))
    omega_bar = np.exp(-2j * np.pi / g.p)
    d_y = omega_bar**_pair_form(adj[np.ix_(g.outputs, g.outputs)], g.p)
    d_out = omega_bar**_pair_form(adj[np.ix_(out_order, out_order)], g.p)
    factors = [_fourier_factor(g.p, h) for h in groups]

    def apply(amplitudes: np.ndarray) -> np.ndarray:
        x = (d_y * amplitudes)[..., gather].reshape(-1, len(gather)).T
        for f in factors:
            # f is symmetric, so this is f on the leading group, moved last.
            x = x.reshape(len(f), -1).T @ f
        return d_out * x.reshape(amplitudes.shape)
    return apply


def decoder_unitary(g: CodeGraph) -> np.ndarray:
    """The decoding unitary as a dense p**n x p**n matrix.

    Its columns are the images of the codeword basis states under the
    map decode applies, so checks of this matrix check decode.

    Raises:
        CodeError, DecodeError: as the decoder does, and CodeError when
            the matrix would exceed MAX_AMPLITUDES entries.
    """
    apply = _decoder(g)
    check_amplitude_count("the dense decoding matrix", g.p**(2 * g.n))
    return apply(np.eye(g.p**g.n)).T


def decode(g: CodeGraph, corrupted: StateVector) -> Tuple[FpVector, StateVector]:
    """Apply the decoding unitary and read out the syndrome register.

    The syndrome measurement must be deterministic; a spread-out
    syndrome distribution means the input carries more damage than the
    graph can localize.  The decoder is unitary, so the syndrome is
    scored against the input's squared norm.

    Returns:
        (syndrome digits over the L register, residual logical state on
        the X register).

    Raises:
        CodeError: when the register does not fit the code, or its norm
            lies outside [ZERO_NORM_FLOOR, inf).
        DecodeError: when the syndrome is not deterministic, or its
            likeliest branch is too small to normalize.
    """
    if corrupted.p != g.p or corrupted.n != g.n:
        raise CodeError(
            f"register ({corrupted.p}, {corrupted.n}) does not match "
            f"code ({g.p}, {g.n})")
    norm = guard_norm(corrupted.norm(), ZERO_NORM_FLOOR, CodeError,
                      "register ")
    decoded = StateVector(p=g.p, n=g.n,
                          amplitudes=_decoder(g)(corrupted.amplitudes))
    probs, residual = project_register(decoded, 0, g.m, norm * norm,
                                       DecodeError)
    top = int(np.argmax(probs))
    if probs[top] <= DETERMINISM_BOUND:
        raise DecodeError(
            "uncorrectable or multi-error input: syndrome measurement is "
            f"not deterministic (top probability {probs[top]:.12g} <= "
            f"bound {DETERMINISM_BOUND:.12g})")
    return FpVector(entries=index_to_digits(top, g.p, g.m), p=g.p), residual


# ---------------------------------------------------------------------------
# Pauli words
# ---------------------------------------------------------------------------

# Single-qudit building blocks: B shifts the digit, S grades the phase.
_LETTERS = {"B": (0, 1, 0), "S": (0, 0, 1)}

# Search order for corrections.  Exact amplitude matching makes the
# phase-bearing words meaningful: a residual equal to minus a flipped
# state needs SBS, not B, to land back on the reference exactly.
CORRECTION_WORDS = ("", "B", "S", "BS", "SB", "BSB", "SBS")


def _compose_mbs(first: Tuple[int, int, int], then: Tuple[int, int, int],
                 p: int) -> Tuple[int, int, int]:
    """Group product: apply `first`, then `then`."""
    m1, b1, s1 = first
    m2, b2, s2 = then
    return ((m1 + m2 + s2 * b1) % p, (b1 + b2) % p, (s1 + s2) % p)


def word_mbs(word: str, p: int) -> Tuple[int, int, int]:
    """Reduce a letter word to (m, b, s); rightmost letter acts first."""
    acc = (0, 0, 0)
    for letter in reversed(word):
        if letter not in _LETTERS:
            raise CodeError(f"unknown Pauli letter {letter!r}")
        acc = _compose_mbs(acc, _LETTERS[letter], p)
    return acc


def word_error(word: str, p: int, n: int, q: int) -> PauliError:
    """The single-qudit operator of a letter word at address q."""
    m, b, s = word_mbs(word, p)
    return PauliError.single(p=p, n=n, q=q, b=b, s=s, m=m)


_MBS_TO_WORD = {}
for _w in CORRECTION_WORDS:
    _MBS_TO_WORD.setdefault(word_mbs(_w, 2), _w)

# The one error-label grammar: a letter word and a one-based position,
# which on a GHZ register may carry a prime for the ancilla half.
ERROR_LABEL_RE = re.compile(r"^(BSB|SBS|BS|SB|B|S)([1-9][0-9]*'?)$")


def format_error_label(e: PauliError) -> str:
    """Human-readable name of a weight <= 1 error, e.g. ``B1`` or ``None``."""
    if e.weight == 0:
        return "None"
    if e.weight > 1:
        raise CodeError("labels are defined for weight <= 1 errors")
    q = next(i for i in range(e.n) if e.b[i] or e.s[i])
    key = (e.m, e.b[q], e.s[q])
    if e.p == 2 and key in _MBS_TO_WORD and _MBS_TO_WORD[key]:
        return f"{_MBS_TO_WORD[key]}{q + 1}"
    return f"P(m={e.m},b={e.b[q]},s={e.s[q]}){q + 1}"


def parse_error_label(label: str, p: int, n: int) -> PauliError:
    """Parse labels like ``B1``, ``S3``, ``BS5``, or ``None``.

    Positions are one-based and must lie in [1, n].

    Raises:
        CodeError: on unknown words or out-of-range positions.
    """
    stripped = label.strip()
    if stripped.lower() in ("none", "i", ""):
        return PauliError.identity(p, n)
    match = ERROR_LABEL_RE.match(stripped)
    if not match or match.group(2).endswith("'"):
        raise CodeError(f"cannot parse error label {label!r}")
    word, pos = match.group(1), int(match.group(2))
    if not 1 <= pos <= n:
        raise CodeError(f"error position {pos} outside [1, {n}]")
    return word_error(word, p, n, pos - 1)


# ---------------------------------------------------------------------------
# Syndrome table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyndromeRow:
    """One table entry: what an error looks like after decoding.

    Attributes:
        error_label: name of the first error observed with this syndrome.
        residual: rendering of the decoded logical register before
            correction, as a combination of the logical coefficients.
        correction_label: name of the correction, e.g. ``S5`` or ``None``.
        correction: the correction operator on the logical register.
    """

    error_label: str
    residual: str
    correction_label: str
    correction: PauliError


@dataclass
class SyndromeTable:
    """Deterministic syndrome-to-correction lookup for a code.

    Attributes:
        p: field order.
        k: logical register size.
        m: syndrome digit count.
        rows: mapping from syndrome digit tuples to row records.
    """

    p: int
    k: int
    m: int
    rows: Dict[Tuple[int, ...], SyndromeRow] = field(default_factory=dict)

    def sorted_rows(self) -> List[Tuple[Tuple[int, ...], SyndromeRow]]:
        return sorted(self.rows.items())

    def to_records(self) -> List[str]:
        """One ``key=value`` record per row, sorted by syndrome."""
        lines = []
        for digits, row in self.sorted_rows():
            syndrome = "".join(str(d) for d in digits)
            lines.append(
                f"syndrome={syndrome} error={row.error_label} "
                f"residual={row.residual} correction={row.correction_label}")
        return lines

    def to_text(self) -> List[str]:
        """Aligned human-readable rows, sorted by syndrome."""
        header = (f"{'syndrome':<10}{'error':<8}{'residual':<22}correction")
        lines = [header]
        for digits, row in self.sorted_rows():
            syndrome = "".join(str(d) for d in digits)
            lines.append(f"{syndrome:<10}{row.error_label:<8}"
                         f"{row.residual:<22}{row.correction_label}")
        return lines


def weight_one_errors(p: int, n: int) -> List[PauliError]:
    """All nontrivial single-qudit errors, position major.

    Within a position, pure shifts come first, then pure phases, then
    mixed pairs; for p = 2 this yields B, S, BS per qubit.
    """
    errors = []
    for q in range(n):
        pairs = ([(b, 0) for b in range(1, p)]
                 + [(0, s) for s in range(1, p)]
                 + [(b, s) for b in range(1, p) for s in range(1, p)])
        for b, s in pairs:
            errors.append(PauliError.single(p=p, n=n, q=q, b=b, s=s))
    return errors


def _render_residual(residuals: Sequence[StateVector], p: int, k: int) -> str:
    """Describe decoded basis responses as signed coefficient terms.

    Each residual must be a signed basis state; the j-th one contributes
    a term ``c(j)|t>`` with its sign.  This covers qubit codes, where
    decoded frames are real signed permutations.
    """
    parts = []
    for j, res in enumerate(residuals):
        target = int(np.argmax(np.abs(res.amplitudes)))
        amp = res.amplitudes[target]
        if abs(amp - 1.0) <= DECODED_AMPLITUDE_TOL:
            sign = "+"
        elif abs(amp + 1.0) <= DECODED_AMPLITUDE_TOL:
            sign = "-"
        else:
            raise CodeError(
                "residual rendering expects signed basis states; "
                f"got amplitude {amp:.3f}")
        ket = "".join(str(d) for d in index_to_digits(target, p, k))
        parts.append((sign, f"c({j})|{ket}>"))
    rendered = parts[0][1] if parts[0][0] == "+" else "-" + parts[0][1]
    for sign, term in parts[1:]:
        rendered += sign + term
    return rendered


def build_syndrome_table(g: CodeGraph,
                         errors: Sequence[PauliError]) -> SyndromeTable:
    """Map each correctable error to its syndrome and correction.

    For every error the full decode pipeline runs on each logical basis
    state.  The correction is the first single-qudit Pauli word (length
    up to three, searched in a fixed order) that maps every decoded
    residual back onto its reference basis state exactly, amplitudes
    and phases included.  The identity row is always present.

    Raises:
        CodeError: if an error has weight above one or wrong shape.
        DecodeError: on syndrome collisions between errors that need
            different corrections, or if no correction word works.
    """
    table = SyndromeTable(p=g.p, k=g.k, m=g.m)
    all_errors = [PauliError.identity(g.p, g.n)] + list(errors)
    encoded_basis = [encode(g, LogicalState.computational(g.p, g.k, j))
                     for j in range(g.p**g.k)]
    reference = [basis_state(g.p, index_to_digits(j, g.p, g.k))
                 for j in range(g.p**g.k)]
    for error in all_errors:
        if error.p != g.p or error.n != g.n:
            raise CodeError(f"error shape ({error.p}, {error.n}) does not "
                            f"match code ({g.p}, {g.n})")
        if error.weight > 1:
            raise CodeError("syndrome table covers weight <= 1 errors")
        syndrome: Optional[Tuple[int, ...]] = None
        residuals: List[StateVector] = []
        for j, codeword in enumerate(encoded_basis):
            syn, res = decode(g, apply_pauli_error(codeword, error))
            if syndrome is None:
                syndrome = syn.entries
            elif syn.entries != syndrome:
                raise DecodeError(
                    f"error {format_error_label(error)} produces an "
                    "input-dependent syndrome")
            residuals.append(res)
        correction = _find_correction(residuals, reference, g.p, g.k)
        if correction is None:
            raise DecodeError(
                f"no correction found for error {format_error_label(error)}")
        word, q, op = correction
        label = "None" if word == "" else f"{word}{g.m + q + 1}"
        row = SyndromeRow(
            error_label=format_error_label(error),
            residual=_render_residual(residuals, g.p, g.k),
            correction_label=label,
            correction=op,
        )
        assert syndrome is not None
        existing = table.rows.get(syndrome)
        if existing is None:
            table.rows[syndrome] = row
        elif (existing.correction.m, existing.correction.b,
              existing.correction.s) != (op.m, op.b, op.s):
            raise DecodeError(
                f"syndrome collision: {existing.error_label} and "
                f"{row.error_label} share syndrome "
                f"{''.join(str(d) for d in syndrome)} but need different "
                "corrections")
    return table


def _find_correction(residuals: Sequence[StateVector],
                     reference: Sequence[StateVector],
                     p: int, k: int
                     ) -> Optional[Tuple[str, int, PauliError]]:
    """First Pauli word restoring every residual to its reference exactly."""
    candidates: List[Tuple[str, int]] = [("", 0)]
    for word in CORRECTION_WORDS[1:]:
        for q in range(k):
            candidates.append((word, q))
    for word, q in candidates:
        op = word_error(word, p, k, q) if word else PauliError.identity(p, k)
        if all(
            np.max(np.abs(apply_pauli_error(res, op).amplitudes
                          - ref.amplitudes)) <= DECODED_AMPLITUDE_TOL
            for res, ref in zip(residuals, reference)
        ):
            return word, q, op
    return None


def correct(residual: StateVector, syndrome: FpVector,
            table: SyndromeTable) -> StateVector:
    """Apply the table's correction for an observed syndrome.

    Raises:
        DecodeError: if the syndrome has no table entry.
    """
    key = syndrome.entries
    row = table.rows.get(key)
    if row is None:
        raise DecodeError(
            f"unrecognized syndrome {''.join(str(d) for d in key)}")
    return apply_pauli_error(residual, row.correction)
