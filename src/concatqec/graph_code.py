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

The decoder is a Clifford map, so the syndrome table needs no state
vector: build_syndrome_table pushes each error's Pauli label (m, b, s)
through the decoder's four layers by exact arithmetic over F_p and
reads the syndrome and the residual logical Pauli off the image.

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
    SUPPORTED_PRIMES,
    FpMatrix,
    FpVector,
    check_prime,
    echelon_kernel,
    mat_inverse,
    row_reduce,
)
from .statevec import (
    DETERMINISM_BOUND,
    MAX_AMPLITUDES,
    ZERO_NORM_FLOOR,
    PauliError,
    StateVector,
    apply_pauli_error,
    guard_norm,
    index_to_digits,
    normalize,
)

# Error supports condition c5 may range over.  It admits e = 2 up to
# |Y| = 26, the encoder's limit at p = 2.  The supports of each size go
# through one elimination, of two (|Y| + 2 |X|) x (|X| + |E|) matrices
# per support: the 17901 supports of a 26-output graph with |X| = 1 that
# passes c5 take 0.6 s and 142 MiB on a 2-core VM, and 2.8 s and
# 427 MiB with |X| = 8, failing at |E| = 4.
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
    adjacency = np.zeros((0, 0), dtype=np.int64)
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
            if p not in SUPPORTED_PRIMES:
                raise GraphParseError(f"unsupported field order {p}", lineno)
            if k < 1 or n < 1 or m < 0:
                raise GraphParseError("need X >= 1, Y >= 1, L >= 0", lineno)
            # Refused before the adjacency matrix is built: a register of
            # more qudits exceeds MAX_AMPLITUDES for every p >= 2.
            limit = MAX_AMPLITUDES.bit_length() - 1
            for name, count in (("X", k), ("Y", n), ("L", m)):
                if count > limit:
                    raise CodeError(
                        f"graph declares {count} {name} vertices, above the "
                        f"limit of {limit} qudits per register")
            header = (p, k, n, m)
            total = k + n + m
            adjacency = np.zeros((total, total), dtype=np.int64)
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
        # Every edge weight is nonzero, so a nonzero entry is an earlier edge.
        if adjacency[u, v]:
            raise GraphParseError(
                f"duplicate edge {min(u, v)} {max(u, v)}", lineno)
        adjacency[u, v] = adjacency[v, u] = w
    if header is None:
        raise GraphParseError("empty graph file", 1)
    p, k, n, m = header
    return CodeGraph(
        p=p,
        adjacency=FpMatrix(adjacency, p),
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


def five_qubit_decoding_graph() -> CodeGraph:
    """The five-qubit code graph extended by four syndrome vertices,
    parsed from the packaged data file."""
    return load_graph(Path(__file__).with_name("data")
                      / "five_qubit_decoding.graph")


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
    of J_E = [A_IX | A_IE], with I the outputs outside E, has d_X = 0
    and A_XE d_E = 0, that is, lies in the kernel of M_E = [[I_k, 0],
    [0, A_XE]].  Over F_p that is a rank test (Ketkar, Klappenecker,
    Kumar & Sarvepalli, IEEE TIT 52, 4892, 2006): c5 fails at E exactly
    when rank [J_E; M_E] exceeds rank J_E.  The supports of one size are
    decided together, by one elimination of a stack that holds both
    matrices of each.  Zero rows stand in for the rows of E and, below
    J_E alone, for those of M_E, so that all share one shape; zero rows
    change no rank.  The sizes run upwards and stop at the first that
    fails.

    Only the first failing support, in itertools.combinations order,
    needs a witness.  Both conditions are linear in the pair, so some
    vector of a kernel basis of J_E fails.  In the reduced row-echelon
    basis kernel vectors sort like their coefficient vectors, so the
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

    # Renumbered Y, then X, then L.
    order = g.outputs + g.inputs + g.syndromes
    adj = g.adjacency.array[np.ix_(order, order)]
    k, n = g.k, g.n
    c1 = k + g.m == n
    c2 = c1 and bool(row_reduce(adj[np.newaxis, :n, n:], g.p)[1].all())
    c3 = not adj[n + k:, n + k:].any()
    c4 = not adj[n:n + k, n + k:].any()

    # The rows of [J_E; M_E] for every E, at the columns Y + X: the Y rows,
    # the X rows cut to Y, and the identity on X.
    whole = np.zeros((n + 2 * k, n + k), dtype=np.int64)
    whole[:n + k, :n] = adj[:n + k, :n]
    whole[:n, n:] = adj[:n, n:n + k]
    whole[n + k:, n:] = np.eye(k, dtype=np.int64)
    for size in range(1, max_support + 1):
        # Two copies of the columns X + E per support.  Zero rows replace
        # the rows of E in both, and those of M_E in the first.
        cols = np.array([tuple(range(n, n + k)) + support for support in
                         itertools.combinations(range(n), size)])
        count = len(cols)
        stack = whole[:, cols].transpose(1, 0, 2)[:, np.newaxis].repeat(2, axis=1)
        stack[np.arange(count)[:, np.newaxis], :, cols[:, k:]] = 0
        stack[:, 0, n:] = 0
        reduced, pivots = row_reduce(
            stack.reshape(2 * count, n + 2 * k, k + size), g.p)
        ranks = pivots.sum(axis=1).reshape(count, 2)
        fails = ranks[:, 1] > ranks[:, 0]
        if not fails.any():
            continue
        first = int(np.argmax(fails))
        basis = echelon_kernel(reduced[2 * first], pivots[2 * first], g.p)
        a_xe = stack[first, 1, n:n + k, k:]
        # The failing vector with the latest leading column: see above.
        moved = (basis[:, :k].any(axis=1)
                 | (basis[:, k:] @ a_xe.T % g.p).any(axis=1))
        pair = basis[np.flatnonzero(moved)[-1]].tolist()
        witness = (tuple(g.outputs[q] for q in cols[first, k:]),
                   FpVector(pair[:k], g.p), FpVector(pair[k:], g.p))
        return AdmissibilityReport(c1=c1, c2=c2, c3=c3, c4=c4, c5=False,
                                   failing_witness=witness)
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


@functools.lru_cache(maxsize=None)
def _fourier_factor(p: int, h: int) -> np.ndarray:
    """The p-point inverse Fourier matrix on each of h qudits, as p**h x p**h.

    Entry (d, d') is omega_bar**(d . d') / sqrt(p**h), and d . d' is the
    edge sum of the form [[0, I], [I, 0]] at the 2h digits (d, d').  Every
    encoder and decoder of the same p shares it, so it is read-only.
    """
    dot = _pair_form(np.kron([[0, 1], [1, 0]], np.eye(h, dtype=np.int64)), p)
    factor = np.exp(-2j * np.pi / p)**dot.reshape(p**h, p**h) / np.sqrt(float(p**h))
    factor.flags.writeable = False
    return factor


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
    adj = g.adjacency.array
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

def _cross_block(g: CodeGraph) -> np.ndarray:
    """The output rows cut at the input and syndrome columns (condition c2)."""
    return g.adjacency.array[np.ix_(g.outputs, g.inputs + g.syndromes)]


def _decoder_groups(g: CodeGraph) -> List[int]:
    """Refuse a graph the decoder cannot run; give its Fourier group sizes.

    Raises:
        CodeError: if |X| + |L| != |Y|, which makes the operator
            non-square, or if it would exceed MAX_AMPLITUDES.
        DecodeError: if the cross block is singular over F_p, so the
            graph fails the invertibility condition c2.
    """
    if g.k + g.m != g.n:
        raise CodeError(
            f"decoder needs |X| + |L| = |Y|, got {g.k} + {g.m} != {g.n}")
    rank = int(row_reduce(_cross_block(g)[np.newaxis], g.p)[1].sum())
    if rank != g.n:
        raise DecodeError(
            f"decoding operator is not unitary: the cross block has rank "
            f"{rank} < |Y| = {g.n} over F_{g.p}, so the graph fails the "
            "invertibility condition c2")
    groups = [len(q) for q in np.array_split(range(g.n), -(-g.n // FOURIER_GROUP))]
    check_amplitude_count("the decoder", max(g.p**g.n, g.p**(2 * groups[0])))
    return groups


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
        CodeError, DecodeError: as _decoder_groups.
    """
    groups = _decoder_groups(g)
    adj = g.adjacency.array
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


def decode(g: CodeGraph, corrupted: StateVector) -> Tuple[FpVector, StateVector]:
    """Apply the decoding unitary and read out the syndrome register.

    The decoded register, syndrome digits first, is read as a p**m x p**k
    matrix whose row j is the branch of syndrome j.  The syndrome
    measurement must be deterministic; a spread-out syndrome
    distribution means the input carries more damage than the graph can
    localize.  The decoder is unitary, so the syndrome is scored against
    the input's squared norm.

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
    branches = _decoder(g)(corrupted.amplitudes).reshape(g.p**g.m, -1)
    parts = branches.view(np.float64)
    # einsum checks no floating-point flags, so an overflow is a quiet inf.
    branch2 = np.einsum("jk,jk->j", parts, parts)
    top = int(np.argmax(branch2))
    top_norm = guard_norm(math.sqrt(branch2[top]), ZERO_NORM_FLOOR, DecodeError,
                          "cannot normalize a measured branch of ")
    probability = branch2[top] / (norm * norm)
    if probability <= DETERMINISM_BOUND:
        raise DecodeError(
            "uncorrectable or multi-error input: syndrome measurement is "
            f"not deterministic (top probability {probability:.12g} <= "
            f"bound {DETERMINISM_BOUND:.12g})")
    return (FpVector(entries=index_to_digits(top, g.p, g.m), p=g.p),
            StateVector(p=g.p, n=g.k, amplitudes=branches[top] / top_norm))


# ---------------------------------------------------------------------------
# Pauli words
# ---------------------------------------------------------------------------

# Single-qudit building blocks: B shifts the digit, S grades the phase.
_LETTERS = {"B": (0, 1, 0), "S": (0, 0, 1)}

# Letter words of the qubit Paulis.  A label names an (m, b, s) by the
# first word here that reduces to it, so minus a flip reads SBS, not B.
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


def format_error_label(e: PauliError, offset: int = 0) -> str:
    """Human-readable name of an error, e.g. ``B1``, ``B5S6`` or ``None``.

    A label is the product of one term per qudit acted on; the phase
    omega**m joins the first, and a pure phase names the first position,
    so only the identity is ``None``.  Positions are shifted by offset.
    """
    if e.weight == 0 and e.m == 0:
        return "None"
    support = [q for q in range(e.n) if e.b[q] or e.s[q]] or [0]
    label = ""
    for q in support:
        m = e.m if q == support[0] else 0
        word = _MBS_TO_WORD.get((m, e.b[q], e.s[q])) if e.p == 2 else None
        label += (f"P(m={m},b={e.b[q]},s={e.s[q]})" if word is None
                  else word) + str(offset + q + 1)
    return label


def parse_error_label(label: str, p: int, n: int,
                      address: Optional[Callable[[str], int]] = None
                      ) -> PauliError:
    """Parse labels like ``B1``, ``S3``, ``BS5``, or ``None`` on n qudits.

    Args:
        address: maps the position text, which may end in a prime, to a
            zero-based address.  By default positions are one-based and
            unprimed.

    Raises:
        CodeError: on unknown words or out-of-range positions, and
            whatever address raises.
    """
    stripped = label.strip()
    if stripped.lower() in ("none", "i", ""):
        return PauliError.identity(p, n)
    match = ERROR_LABEL_RE.match(stripped)
    if not match or (address is None and match.group(2).endswith("'")):
        raise CodeError(f"cannot parse error label {label!r}")
    word, pos = match.groups()
    q = address(pos) if address else int(pos) - 1
    if not 0 <= q < n:
        raise CodeError(f"error position {q + 1} outside [1, {n}]")
    return word_error(word, p, n, q)


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
        correction_label: name of the correction on the decoded register
            (syndrome digits first), e.g. ``S5`` or ``None``.
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
        return [f"syndrome={''.join(str(d) for d in digits)} "
                f"error={row.error_label} residual={row.residual} "
                f"correction={row.correction_label}"
                for digits, row in self.sorted_rows()]

    def to_text(self) -> List[str]:
        """Aligned human-readable rows, sorted by syndrome.

        A column is 10, 8 or 22 wide, or two more than its widest cell.
        """
        cells = [("syndrome", "error", "residual", "correction")] + [
            ("".join(str(d) for d in digits), row.error_label, row.residual,
             row.correction_label) for digits, row in self.sorted_rows()]
        widths = [max([least] + [len(c[i]) + 2 for c in cells])
                  for i, least in enumerate((10, 8, 22))]
        return ["".join(c.ljust(w) for c, w in zip(row, widths)) + row[3]
                for row in cells]


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


def _decoded_pauli(g: CodeGraph
                   ) -> Callable[[PauliError], Tuple[int, np.ndarray, np.ndarray]]:
    """The decoder's conjugation P -> T P T^dagger, as a map of (m, b, s).

    T = D_out F^(x)n Pi_A D_Y is a Clifford map, so it sends the Pauli
    omega**m X**b Z**s on Y to a Pauli on L + X, one F_p step per layer
    (Gottesman, quant-ph/9705052):

    * D_Y and D_out, the phases of the edge sums Q(y) = sum_{i<j} A_ij
      y_i y_j inside Y and inside L + X: (m - Q(b), b, s - A b);
    * Pi_A, which is |y> -> |M y> with M the cross block: (m, M b, M^-T s);
    * the inverse Fourier transform on every qudit: (m - b.s, s, -b).
    """
    p = g.p
    adj = g.adjacency.array
    out_order = g.syndromes + g.inputs
    a_y = adj[np.ix_(g.outputs, g.outputs)]
    a_out = adj[np.ix_(out_order, out_order)]
    cross = adj[np.ix_(out_order, g.outputs)]
    cross_inv_t = mat_inverse(cross, p).T

    def phase_layer(a: np.ndarray, m: int, b: np.ndarray, s: np.ndarray):
        return (m - b @ np.triu(a) @ b) % p, b, (s - a @ b) % p

    def push(e: PauliError) -> Tuple[int, np.ndarray, np.ndarray]:
        m, b, s = phase_layer(a_y, e.m, np.array(e.b), np.array(e.s))
        b, s = cross @ b % p, cross_inv_t @ s % p
        m, b, s = (m - b @ s) % p, s, -b % p
        m, b, s = phase_layer(a_out, m, b, s)
        return int(m), b, s
    return push


def _render_residual(r: PauliError) -> str:
    """Describe a residual Pauli by its action on the logical coefficients.

    Coefficient c(j) lands on |j + b> with phase omega**(m + s.j).  For
    p = 2 the phase is a sign; otherwise it is written ``w^e*``.
    """
    rendered = ""
    for j in range(r.p**r.n):
        digits = np.array(index_to_digits(j, r.p, r.n))
        power = (r.m + digits @ r.s) % r.p
        ket = "".join(str(d) for d in (digits + r.b) % r.p)
        sign = "-" if r.p == 2 and power else "+"
        phase = f"w^{power}*" if r.p > 2 and power else ""
        rendered += f"{sign}{phase}c({j})|{ket}>"
    return rendered.removeprefix("+")


def build_syndrome_table(g: CodeGraph,
                         errors: Sequence[PauliError]) -> SyndromeTable:
    """Map each correctable error to its syndrome and correction.

    Each error is pushed through the decoder as a Pauli (_decoded_pauli),
    with no state vector.  A clean codeword of |x> decodes to exactly
    |0>|x> once c1 and c2 hold, so an error's image reads its syndrome
    off the L digits and leaves a residual Pauli on the X register,
    whose exact inverse is the correction.  The identity row is always
    present.

    Raises:
        CodeError: if an error has weight above one or wrong shape, or
            as _decoder_groups.
        DecodeError: as _decoder_groups, and on syndrome collisions
            between errors that need different corrections.
    """
    _decoder_groups(g)
    # A row renders p**k terms; the encoder's limit keeps that small.
    check_amplitude_count("the encoder", max(g.p**g.n, g.p**(2 * g.k)))
    push = _decoded_pauli(g)
    table = SyndromeTable(p=g.p, k=g.k, m=g.m)
    for error in [PauliError.identity(g.p, g.n)] + list(errors):
        if error.p != g.p or error.n != g.n:
            raise CodeError(f"error shape ({error.p}, {error.n}) does not "
                            f"match code ({g.p}, {g.n})")
        if error.weight > 1:
            raise CodeError("syndrome table covers weight <= 1 errors")
        m, b, s = push(error)
        syndrome = tuple(int(v) for v in b[:g.m])
        b, s = b[g.m:], s[g.m:]
        residual = PauliError(m=m, b=b, s=s, p=g.p)
        # The exact inverse: (X**b Z**s)**-1 = omega**(b.s) X**-b Z**-s.
        op = PauliError(m=int(b @ s - m) % g.p, b=-b % g.p, s=-s % g.p, p=g.p)
        row = SyndromeRow(error_label=format_error_label(error),
                          residual=_render_residual(residual),
                          correction_label=format_error_label(op, offset=g.m),
                          correction=op)
        existing = table.rows.get(syndrome)
        if existing is None:
            table.rows[syndrome] = row
        elif existing.correction != op:
            raise DecodeError(
                f"syndrome collision: {existing.error_label} and "
                f"{row.error_label} share syndrome "
                f"{''.join(str(d) for d in syndrome)} but need different "
                "corrections")
    return table


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
