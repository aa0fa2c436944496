"""Erasure protection for n message qubits via n GHZ-entangled ancillas.

The register holds 2n qubits: message qubits at addresses 0..n-1 carry
labels 1..n, ancilla qubits at addresses n..2n-1 carry labels 1'..n'.
Encoding entangles the two halves so that every single qubit, taken
alone, is maximally mixed; the content of the register is invisible to
anyone holding fewer than n+1 qubits.

When one qubit is lost, its position (classical side information) picks
a decoding program and a recovery program.  Both act only on undamaged
qubits, transfer the full message content onto the undamaged half, and
leave the damaged half disentangled, whatever corruption the damaged
qubit suffered.

Gate programs are stored in execution order.  The conventional operator
notation, where the rightmost factor acts first, is available from
``GateProgram.product_notation``.

This module alone knows gates.  One table spells the four kinds.  A
program compiles once: CX, CCX and CZ send each basis state to a signed
basis state, so a run of them over a span of w adjacent qubits composes
into one signed permutation of length 2**w, applied as one gather along
that span's axis plus one masked negation, and a Hadamard runs in place
on the two slabs of its qubit.  GateProgram.apply is the one runner of
the compiled programs.  Other modules receive a block's programs only
as the cached encoder isometry on its carried qubits.  The erased
block's decode stays here: erased_rows runs decoder then recovery for
the erasure position along the block's axis of a core and keeps the
rows whose padding reads 0, and split_erased splits the damaged half
off them.  concat's inner stage calls the pair, and recover calls it on
a lone block.  A block still held by its carried amplitudes needs
neither its register nor a program run per decode: carried_erasure_map
composes encoder, the corruption of the erased qubit, decoder and
recovery, once per block shape, into one gather from the carried
amplitudes, and carried_corruption checks the corruption against the
norm it leaves.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple, Union

import numpy as np

from .statevec import (
    BRANCH_NORM_FLOOR,
    PURITY_BOUND,
    ZERO_NORM_FLOOR,
    StateError,
    StateVector,
    apply_single_qudit,
    guard_norm,
    split_matrix,
)

MIN_BLOCK = 2
MAX_BLOCK = 6

PAULI_MATRICES = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


class GhzError(ValueError):
    """Raised for invalid layouts, positions, or programs."""


class RecoveryError(RuntimeError):
    """Raised when recovery leaves the surviving half entangled."""


def _check_block_size(n: int) -> None:
    if not MIN_BLOCK <= n <= MAX_BLOCK:
        raise GhzError(f"block size n must lie in [{MIN_BLOCK}, {MAX_BLOCK}], "
                       f"got {n}")


# ---------------------------------------------------------------------------
# Layout and positions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GhzLayout:
    """Address layout of an n-message-qubit block.

    Attributes:
        n: number of message qubits; the register holds 2n qubits.
    """

    n: int

    def __post_init__(self) -> None:
        _check_block_size(self.n)

    @property
    def total(self) -> int:
        return 2 * self.n

    def label(self, address: int) -> str:
        """Engineering label of an address: 1..n or 1'..n'."""
        if not 0 <= address < self.total:
            raise GhzError(f"address {address} outside [0, {self.total})")
        if address < self.n:
            return str(address + 1)
        return f"{address - self.n + 1}'"


_POSITION_RE = re.compile(r"^([1-9][0-9]*)('?)$")


@dataclass(frozen=True)
class ErasurePosition:
    """The known location of a lost qubit.

    Attributes:
        address: register address in [0, 2n).
        n: block size, needed to tell the two halves apart.
    """

    address: int
    n: int

    def __post_init__(self) -> None:
        _check_block_size(self.n)
        try:
            object.__setattr__(self, "address", operator.index(self.address))
        except TypeError:
            raise GhzError(f"erasure address {self.address!r} is not an "
                           f"integer") from None
        if not 0 <= self.address < 2 * self.n:
            raise GhzError(
                f"erasure address {self.address} outside [0, {2 * self.n})")

    @property
    def side(self) -> str:
        return "message" if self.address < self.n else "ancilla"

    @property
    def index_in_side(self) -> int:
        """Zero-based index within its half."""
        return self.address if self.address < self.n else self.address - self.n

    @property
    def label(self) -> str:
        return GhzLayout(self.n).label(self.address)

    @classmethod
    def from_label(cls, label: str, n: int) -> "ErasurePosition":
        """Parse labels like ``3`` (message) or ``3'`` (ancilla)."""
        match = _POSITION_RE.match(label.strip())
        if not match:
            raise GhzError(f"cannot parse position label {label!r}")
        index = int(match.group(1))
        if not 1 <= index <= n:
            raise GhzError(f"position index {index} outside [1, {n}]")
        address = index - 1 + (n if match.group(2) else 0)
        return cls(address=address, n=n)


# ---------------------------------------------------------------------------
# Gate programs
# ---------------------------------------------------------------------------

class _Kind(NamedTuple):
    """A gate kind: its address count, its name in error messages and
    its prefix in product notation."""

    arity: int
    name: str
    prefix: str


_KINDS = {"H": _Kind(1, "hadamard", "H"), "CX": _Kind(2, "cnot", "C"),
          "CCX": _Kind(3, "toffoli", "T"), "CZ": _Kind(2, "controlled-z", "Z")}
_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class Gate:
    """One gate: kind H, CX, CCX, or CZ with its addresses.

    For CX and CCX the last address is the target.  All four kinds are
    their own inverse.
    """

    kind: str
    qubits: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise GhzError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        arity = _KINDS[self.kind].arity
        if len(self.qubits) != arity:
            raise GhzError(f"{self.kind} takes {arity} "
                           f"addresses, got {len(self.qubits)}")
        if len(set(self.qubits)) != len(self.qubits):
            raise GhzError(f"{self.kind} addresses must be distinct: "
                           f"{self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise GhzError(f"negative address in {self.qubits}")


def hadamard_in_place(amps: np.ndarray, n: int, q: int) -> None:
    """Apply the Hadamard on qubit q to a C-contiguous n-qubit buffer."""
    view = amps.reshape(2**q, 2, 2**(n - 1 - q))
    a0 = view[:, 0]
    a1 = view[:, 1]
    total = a0 + a1
    np.subtract(a0, a1, out=a1)
    a1 *= _INV_SQRT2
    np.multiply(total, _INV_SQRT2, out=a0)


def compile_gates(gates: Sequence[Gate]) -> Tuple[int, tuple]:
    """Compile gates, in execution order.

    An H stays a step: its address.  A maximal run of CX, CCX and CZ
    gates (target last) becomes one step (src, negate) on the span from
    the lowest to the highest touched address: it moves the amplitude at
    span index src[y] to y, negated where negate[y] holds (None if none).

    Returns:
        (span start, steps), the input of GateProgram.apply.
    """
    touched = [q for gate in gates for q in gate.qubits]
    lo = min(touched, default=0)
    width = max(touched, default=0) - lo + 1
    index = np.arange(2**width)
    place = {q: 1 << (width - 1 - q + lo) for q in touched}
    steps: list = []
    for is_h, run in itertools.groupby(gates, key=lambda g: g.kind == "H"):
        if is_h:
            steps.extend(gate.qubits[0] for gate in run)
            continue
        src, negate = index, np.zeros(index.size, dtype=bool)
        for gate in run:
            *controls, last = gate.qubits
            active = np.all([index & place[q] for q in controls], axis=0)
            if gate.kind == "CZ":
                negate = negate ^ (active & (index & place[last] > 0))
            else:
                before = np.where(active, index ^ place[last], index)
                src, negate = src[before], negate[before]
        steps.append((src, negate if negate.any() else None))
    return lo, tuple(steps)


@dataclass(frozen=True)
class GateProgram:
    """A sequence of gates in execution order on a 2n-qubit block.

    Attributes:
        gates: gates, first-executed first.
        half: the block size n; addresses below half are message qubits.
    """

    gates: Tuple[Gate, ...]
    half: int

    def __post_init__(self) -> None:
        _check_block_size(self.half)
        for gate in self.gates:
            for q in gate.qubits:
                if q >= 2 * self.half:
                    raise GhzError(
                        f"address {q} outside block of {2 * self.half} qubits")

    def touched_addresses(self) -> frozenset:
        return frozenset(q for gate in self.gates for q in gate.qubits)

    @functools.cached_property
    def _compiled(self) -> Tuple[int, tuple]:
        return compile_gates(self.gates)

    @functools.cached_property
    def _span(self) -> Tuple[int, int]:
        """Lowest and highest touched address; (0, -1) with no gates."""
        touched = self.touched_addresses()
        return min(touched, default=0), max(touched, default=-1)

    def apply(self, s: StateVector, offset: int = 0) -> StateVector:
        """Run the program; offset shifts every address by a block base.

        The register's dimension and the shifted address span are
        checked before any amplitude is written; only a failing span
        walks the gates, to name the first bad address.  The program,
        compiled once by compile_gates, runs on a copy: one gather
        along its span's axis plus a masked negation per run of CX, CCX
        and CZ gates, and an in-place kernel per H.  Permuting and
        negating are exact, so the result is bit for bit that of the
        gates run one at a time.

        Raises:
            StateError: if s is not a qubit register or a shifted
                address falls outside it.
        """
        if s.p != 2:
            name = _KINDS[self.gates[0].kind].name if self.gates else (
                "a gate program")
            raise StateError(
                f"{name} is defined for p = 2 registers, got p = {s.p}")
        lo, hi = self._span
        if lo + offset < 0 or hi + offset >= s.n:
            for gate in self.gates:
                for q in gate.qubits:
                    s._check_address(q + offset)
        start, steps = self._compiled
        out = s.amplitudes
        for step in steps:
            if isinstance(step, tuple):
                src, negate = step
                out = np.take(out.reshape(2**(start + offset), src.size, -1),
                              src, axis=1)
                if negate is not None:
                    np.negative(out, out=out, where=negate[:, np.newaxis])
                out = out.reshape(-1)
                continue
            if out is s.amplitudes:
                out = out.copy()
            hadamard_in_place(out, s.n, step + offset)
        if out is s.amplitudes:
            out = out.copy()
        return StateVector(p=2, n=s.n, amplitudes=out)

    @functools.lru_cache(maxsize=64)
    def inverse(self) -> "GateProgram":
        """Reversed program; valid because every gate kind is an involution."""
        return GateProgram(gates=tuple(reversed(self.gates)), half=self.half)

    def product_notation(self) -> str:
        """Operator-product string, rightmost factor first.

        Gates render as C<control><target>, H<q>, T<c1><c2><target>, and
        Z<c><t> using one-based labels with primes for the ancilla half.
        """
        layout = GhzLayout(self.half)
        parts = []
        for gate in reversed(self.gates):
            parts.append(_KINDS[gate.kind].prefix
                         + "".join(layout.label(q) for q in gate.qubits))
        return "".join(parts)


# ---------------------------------------------------------------------------
# Program builders
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def build_encoder(n: int) -> GateProgram:
    """The encoding program for an n-message-qubit block.

    Pairs each message qubit with its ancilla, then spreads qubit n and
    qubit n' over their halves, producing twin GHZ-branch structure.
    """
    _check_block_size(n)
    gates: List[Gate] = []
    for i in range(n):
        gates.append(Gate("CX", (i, n + i)))
    gates.append(Gate("H", (n - 1,)))
    gates.append(Gate("H", (2 * n - 1,)))
    for i in range(n - 1):
        gates.append(Gate("CX", (n - 1, i)))
    for i in range(n - 1):
        gates.append(Gate("CX", (2 * n - 1, n + i)))
    return GateProgram(gates=tuple(gates), half=n)


@functools.lru_cache(maxsize=None)
def build_decoder(n: int, pos: ErasurePosition) -> GateProgram:
    """The decoding program for an erasure at pos.

    Acts entirely on the half opposite the damaged qubit, collapsing
    that half's GHZ branching back to basis form.
    """
    _check_block_size(n)
    if pos.n != n:
        raise GhzError(f"position block size {pos.n} != {n}")
    base = n if pos.side == "message" else 0
    gates: List[Gate] = []
    for i in range(n - 1):
        gates.append(Gate("CX", (base + n - 1, base + i)))
    gates.append(Gate("H", (base + n - 1,)))
    return GateProgram(gates=tuple(gates), half=n)


def _message_side_recovery(n: int, j: int) -> List[Gate]:
    """Recovery gates for an erased message qubit with one-based index j."""
    gates: List[Gate] = []
    twin = n + j - 1
    last_anc = 2 * n - 1
    if j < n:
        for i in range(n, 0, -1):
            if i != j:
                gates.append(Gate("CX", (twin, i - 1)))
        for i in range(n - 1, 0, -1):
            if i != j:
                gates.append(Gate("CX", (n + i - 1, i - 1)))
        k_addr = n - j - 1
        gates.append(Gate("CCX", (twin, last_anc, k_addr)))
        gates.append(Gate("CZ", (last_anc, k_addr)))
        gates.append(Gate("CCX", (twin, last_anc, k_addr)))
    else:
        for i in range(n - 1, 0, -1):
            gates.append(Gate("CX", (n + i - 1, i - 1)))
        gates.append(Gate("CZ", (last_anc, n - 2)))
    return gates


@functools.lru_cache(maxsize=None)
def build_recovery(n: int, pos: ErasurePosition) -> GateProgram:
    """The recovery program for an erasure at pos.

    After the matching decoder has run, this transfers the message
    content onto the undamaged half and strips the residual parity
    phase, using the damaged half's twin qubit as control only through
    its undamaged partners.
    """
    _check_block_size(n)
    if pos.n != n:
        raise GhzError(f"position block size {pos.n} != {n}")
    j = pos.index_in_side + 1
    gates = _message_side_recovery(n, j)
    if pos.side == "ancilla":
        gates = [
            Gate(g.kind, tuple(q + n if q < n else q - n for q in g.qubits))
            for g in gates
        ]
    return GateProgram(gates=tuple(gates), half=n)


# ---------------------------------------------------------------------------
# Cached block maps
# ---------------------------------------------------------------------------

class BlockSupport(NamedTuple):
    """A block's encoder isometry E, held by its nonzero rows.

    Attributes:
        rows: ascending indices of the nonzero rows of E.
        block: E[rows], of shape (len(rows), 2**c).
        adjoint: block's conjugate transpose, C-contiguous.
    """

    rows: np.ndarray
    block: np.ndarray
    adjoint: np.ndarray


@functools.lru_cache(maxsize=None)
def encoder_isometry(n: int, c: int) -> BlockSupport:
    """The encoder on c carried message qubits, by its support rows.

    E is the 2**(2n) x 2**c map whose column j is build_encoder(n)
    applied to |j> on message addresses 0..c-1 with every other qubit at
    |0>.  Each input goes to four GHZ branches of amplitude about +-1/2,
    so E has only 4 * 2**c nonzero rows, or 2**(c+1) when c = n and the
    last carried qubit sets only signs.  Only those rows are kept; the
    arrays are shared between callers and read-only.

    The encoder runs once, on 2n + c qubits whose last c label the
    input: from the sum over j of |j, 0...0>|j>, its (block, label)
    matrix is E.
    """
    if not 1 <= c <= n:
        raise GhzError(f"carried qubit count {c} outside [1, {n}]")
    inputs = np.arange(2**c)
    amplitudes = np.zeros(2**(2 * n + c), dtype=np.complex128)
    amplitudes[(inputs << 2 * n) + inputs] = 1.0
    columns = build_encoder(n).apply(StateVector(
        p=2, n=2 * n + c, amplitudes=amplitudes)).amplitudes.reshape(-1, 2**c)
    rows = np.flatnonzero(np.any(columns, axis=1))
    block = columns[rows]
    support = BlockSupport(rows=rows, block=block,
                           adjoint=np.ascontiguousarray(block.conj().T))
    for array in support:
        array.flags.writeable = False
    return support


class CarriedErasureMap(NamedTuple):
    """An erased block's decode read straight from its carried amplitudes.

    The map reads a core viewed as (pre, 2**c, post), the erased block's
    carried axis in the middle, and the 2 x 2 operator U that hit the
    erased qubit.  It writes the rows that erased_rows writes for the
    same core with the block's axis made physical and U applied, in the
    same order but not renormalized: row r is weight[r] * U.flat[entry[r]]
    * core.flat[source[r]], and weight[r] is 0 where no term reaches it.

    Attributes:
        weight: (rows,) complex weights.
        entry: (rows,) indices into U.flat.
        source: (rows,) flat core indices.
    """

    weight: np.ndarray
    entry: np.ndarray
    source: np.ndarray

    def rows(self, core: np.ndarray, operator: np.ndarray) -> np.ndarray:
        """The decoded rows of a core hit by operator, as a fresh 1-D array."""
        out = operator.reshape(-1).take(self.entry)
        out *= self.weight
        out *= core.reshape(-1).take(self.source)
        return out


@functools.lru_cache(maxsize=None)
def _composed_erasure(n: int, c: int, pos: ErasurePosition
                      ) -> CarriedErasureMap:
    """Encoder, a corruption at pos, decoder and recovery, composed.

    The map reads a core that is the block's carried axis alone.  The
    chain is linear in the corruption's four entries, so it is composed
    on the four matrix units |x><y| at pos: each unit is applied to the
    encoder isometry E by index arithmetic, and erased_rows runs
    decoder and recovery on the result.  Recovery leaves the damage a
    product with the codeword (Knill & Laflamme 1997), so each kept row
    is one term: a weight, one entry of the corruption, one carried
    amplitude.

    The build checks that each kept row has at most one term; that the
    programs leave no weight off the kept rows, which is why no norm is
    lost; and that E^dagger (|x><y| at pos) E is delta_xy I / 2, the
    identity carried_corruption's norm rests on.

    Raises:
        GhzError: when a check fails.
    """
    size, width = 4**n, 2**c
    support = encoder_isometry(n, c)
    # Per kept row, in (damaged, carried) order: its terms so far, and
    # its last term's weight and (unit, input) index.
    count = np.zeros(2**n * width, dtype=np.int64)
    weight = np.zeros(2**n * width, dtype=np.complex128)
    term = np.zeros(2**n * width, dtype=np.int64)
    bit = 1 << (2 * n - 1 - pos.address)
    index = np.arange(size)
    reads = {x: index[(index & bit > 0) == x] for x in (0, 1)}
    gap = lost = 0.0
    # One column j of E and one unit at a time, so that memory stays
    # that of one block register.
    for j in range(width):
        column = np.zeros(size, dtype=np.complex128)
        column[support.rows] = support.block[:, j]
        for x, y in itertools.product((0, 1), repeat=2):
            # |x><y| at pos: a row whose pos bit reads x takes the row
            # with that bit set to y.
            unit = np.zeros(size, dtype=np.complex128)
            unit[reads[x]] = column[reads[x] ^ (bit if x != y else 0)]
            # E^dagger of it is column j of delta_xy I / 2.
            reduced = support.adjoint @ unit[support.rows]
            reduced[j] -= 0.5 if x == y else 0.0
            gap = max(gap, float(np.abs(reduced).max()))
            # By that identity the unit has squared norm 1/2, all of
            # which the kept rows must hold.
            kept = erased_rows(unit, 0, c, pos)
            lost = max(lost, abs(float(np.vdot(kept, kept).real) - 0.5))
            found = kept != 0
            count += found
            weight[found] = kept[found]
            term[found] = (2 * x + y) * width + j
    if gap >= ZERO_NORM_FLOOR:
        raise GhzError(
            f"encoder for n = {n}, c = {c} does not leave qubit {pos.label} "
            f"maximally mixed (off by {gap:.3g})")
    if lost >= ZERO_NORM_FLOOR:
        raise GhzError(
            f"decoder and recovery for erasure {pos.label} leave weight "
            f"{lost:.3g} off the kept rows of a carried block "
            f"(n = {n}, c = {c})")
    most = int(count.max())
    if most > 1:
        raise GhzError(
            f"decoder and recovery for erasure {pos.label} leave {most} terms "
            f"on a kept row of a carried block (n = {n}, c = {c}), not one")
    entry, source = divmod(term, width)
    composed = CarriedErasureMap(weight=weight, entry=entry, source=source)
    for array in composed:
        array.flags.writeable = False
    return composed


@functools.lru_cache(maxsize=None)
def carried_erasure_map(n: int, c: int, pos: ErasurePosition, pre: int,
                        post: int) -> CarriedErasureMap:
    """Encoder, a corruption at pos, decoder and recovery, as one gather.

    The block carries c qubits, and pre and post amplitudes of a core
    sit before and after its carried axis.  The chain is composed once
    per block shape, by _composed_erasure, and only spread over pre and
    post here.

    Raises:
        GhzError: as _composed_erasure does.
    """
    composed = _composed_erasure(n, c, pos)
    width = 2**c
    shape = (2**n, pre, width, post)

    def spread(a: np.ndarray) -> np.ndarray:
        # Rows by (damaged, pre, carried, post), as erased_rows writes.
        return np.broadcast_to(a.reshape(2**n, 1, width, 1), shape).reshape(-1)

    carried_map = CarriedErasureMap(
        weight=spread(composed.weight),
        entry=spread(composed.entry),
        source=((np.arange(pre)[:, None, None] * width
                 + composed.source.reshape(2**n, 1, width, 1)) * post
                + np.arange(post)).reshape(-1))
    for array in carried_map:
        array.flags.writeable = False
    return carried_map


# ---------------------------------------------------------------------------
# Channel and recovery
# ---------------------------------------------------------------------------

_CORRUPTION_FAILED = (
    "corruption annihilated the state or overflowed its norm: ")


def resolve_corruption(corruption: Union[None, str, np.ndarray]) -> np.ndarray:
    """Turn a corruption descriptor into a 2 x 2 operator.

    None and "I" mean no disturbance; "X", "Y", "Z" name the Pauli
    matrices; anything else must already be a 2 x 2 array of finite
    entries, rescaled exactly by the power of two that puts its largest
    part in [0.5, 1), since renormalization removes the scale anyway.

    Raises:
        GhzError: on an unknown label, a non-numeric entry, a wrong
            shape, or a NaN or infinite entry.
    """
    if corruption is None:
        return PAULI_MATRICES["I"]
    if isinstance(corruption, str):
        if corruption not in PAULI_MATRICES:
            raise GhzError(f"unknown corruption label {corruption!r}")
        return PAULI_MATRICES[corruption]
    try:
        matrix = np.asarray(corruption, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise GhzError(
            f"corruption operator is not a numeric array ({exc})") from None
    if matrix.shape != (2, 2):
        raise GhzError(f"corruption operator shape {matrix.shape} != (2, 2)")
    if not np.all(np.isfinite(matrix)):
        raise GhzError("corruption operator has non-finite entries")
    parts = np.ascontiguousarray(matrix).view(np.float64)
    _, exponent = np.frexp(np.abs(parts).max())
    return np.ldexp(parts, -exponent).view(np.complex128)


def corrupt_qubit(s: StateVector, address: int,
                  corruption: Union[None, str, np.ndarray]) -> StateVector:
    """Apply a corruption to the qubit at one register address.

    Projective disturbances are renormalized.  A disturbance that
    leaves less than BRANCH_NORM_FLOOR of the state's norm annihilates it.

    Raises:
        GhzError: on a bad corruption, a state of norm outside
            [ZERO_NORM_FLOOR, inf), or an annihilating disturbance.
    """
    matrix = resolve_corruption(corruption)
    norm = guard_norm(s.norm(), ZERO_NORM_FLOOR, GhzError, _CORRUPTION_FAILED)
    damaged = apply_single_qudit(s, address, matrix)
    damaged_norm = damaged.norm()
    guard_norm(damaged_norm / norm, BRANCH_NORM_FLOOR, GhzError,
               _CORRUPTION_FAILED)
    # The buffer is fresh, so rescale it in place; dividing the float64
    # view by the real norm skips numpy's complex division.
    real = damaged.amplitudes.view(np.float64)
    real /= damaged_norm
    return damaged


def carried_corruption(s: StateVector, corruption: Union[None, str, np.ndarray]
                       ) -> Tuple[np.ndarray, float]:
    """Check a corruption of one qubit of a carried block, unapplied.

    s holds carried amplitudes, which stand for their encoding by the
    block's encoder isometry E.  As E^dagger (A at one address) E is
    tr(A) I / 2 (carried_erasure_map checks it), a corruption U leaves
    the encoded register ||U||_F^2 / 2 times the squared norm of s.
    corrupt_qubit's guards run on these norms, so both raise alike.

    Returns:
        (the resolved 2 x 2 operator, the corrupted register's squared
        norm before renormalization).

    Raises:
        GhzError: as corrupt_qubit does.
    """
    matrix = resolve_corruption(corruption)
    norm = guard_norm(s.norm(), ZERO_NORM_FLOOR, GhzError, _CORRUPTION_FAILED)
    damaged2 = float(np.vdot(matrix, matrix).real) / 2 * norm * norm
    guard_norm(math.sqrt(damaged2) / norm, BRANCH_NORM_FLOOR, GhzError,
               _CORRUPTION_FAILED)
    return matrix, damaged2


def erased_rows(core: np.ndarray, axis: int, c: int,
                pos: ErasurePosition) -> np.ndarray:
    """Decoder then recovery for an erasure at pos, along one axis of a
    core, through GateProgram.apply at that axis's qubit offset.

    The axis holds the erased block's 4**n register amplitudes, and the
    block carries c qubits.

    Returns:
        The rows whose padding reads 0, in (damaged half, pre, carried
        qubits, post) order, so that they reshape to the dropped x kept
        matrix, as a fresh 1-D array.
    """
    n = pos.n
    pre = math.prod(core.shape[:axis])
    post = math.prod(core.shape[axis + 1:])
    offset = sum(size.bit_length() - 1 for size in core.shape[:axis])
    s = StateVector(p=2, n=core.size.bit_length() - 1,
                    amplitudes=core.reshape(-1))
    for program in (build_decoder(n, pos), build_recovery(n, pos)):
        s = program.apply(s, offset)
    if pos.side == "message":
        # (pre, damaged, carried, padding, post)
        view = s.amplitudes.reshape(pre, 2**n, 2**c, 2**(n - c), post)
        rows = view[:, :, :, 0].transpose(1, 0, 2, 3)
    else:
        # (pre, carried, padding, damaged, post)
        view = s.amplitudes.reshape(pre, 2**c, 2**(n - c), 2**n, post)
        rows = view[:, :, 0].transpose(2, 0, 1, 3)
    return rows.reshape(-1)


def split_erased(rows: np.ndarray, n: int, norm: float
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Split the damaged half off decoded rows.

    The rows, damaged half first, reshape to the dropped x kept matrix,
    whose transpose split_matrix takes apart at scale norm.

    Returns:
        (kept amplitudes, the damaged half's amplitudes), as from
        split_matrix.

    Raises:
        RecoveryError: if the kept side's purity is at most PURITY_BOUND:
            it stays entangled with the damaged half, which means the
            damage exceeded one erasure.
    """
    kept, dropped, purity = split_matrix(rows.reshape(2**n, -1).T, norm)
    if purity <= PURITY_BOUND:
        raise RecoveryError(
            "recovery failed: residual entanglement with the damaged half "
            f"(purity {purity:.12g} <= bound {PURITY_BOUND:.12g})")
    return kept, dropped


def recover(s: StateVector, pos: ErasurePosition
            ) -> Tuple[StateVector, StateVector]:
    """Run decoding and recovery for a known erasure and split the halves.

    The register is one block carrying all n message qubits, so it has
    no padding: erased_rows runs decoder and recovery on it and keeps
    every row.

    Returns:
        (message content on the n surviving qubits, state of the
        discarded half).  The surviving half is the ancilla half for a
        message-side erasure and vice versa.

    Raises:
        GhzError: on a register of another size than the block.
        StateError: on a register that is not of qubits, or whose norm
            lies outside [ZERO_NORM_FLOOR, inf).
        RecoveryError: if the surviving half stays entangled with the
            damaged half, which means the damage exceeded one erasure.
    """
    n = pos.n
    if s.n != 2 * n:
        raise GhzError(f"register size {s.n} does not match block {n}")
    if s.p != 2:
        raise StateError(
            f"recovery is defined for p = 2 registers, got p = {s.p}")
    norm = guard_norm(s.norm(), ZERO_NORM_FLOOR, StateError,
                      "cannot split a state of zero or non-finite norm: ")
    kept, dropped = split_erased(erased_rows(s.amplitudes, 0, n, pos), n, norm)
    return (StateVector(p=2, n=n, amplitudes=kept),
            StateVector(p=2, n=n, amplitudes=dropped))
