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
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple, Union

import numpy as np

from .statevec import (
    BRANCH_NORM_FLOOR,
    PURITY_BOUND,
    ZERO_NORM_FLOOR,
    StateVector,
    apply_single_qudit,
    basis_state,
    check_qubit_gate,
    compile_gates,
    guard_norm,
    index_to_digits,
    run_compiled,
    split_factor,
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

    @property
    def message_addresses(self) -> Tuple[int, ...]:
        return tuple(range(self.n))

    @property
    def ancilla_addresses(self) -> Tuple[int, ...]:
        return tuple(range(self.n, 2 * self.n))

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

_GATE_ARITY = {"H": 1, "CX": 2, "CCX": 3, "CZ": 2}


@dataclass(frozen=True)
class Gate:
    """One gate: kind H, CX, CCX, or CZ with its addresses.

    For CX and CCX the last address is the target.  All four kinds are
    their own inverse.
    """

    kind: str
    qubits: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in _GATE_ARITY:
            raise GhzError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if len(self.qubits) != _GATE_ARITY[self.kind]:
            raise GhzError(f"{self.kind} takes {_GATE_ARITY[self.kind]} "
                           f"addresses, got {len(self.qubits)}")
        if len(set(self.qubits)) != len(self.qubits):
            raise GhzError(f"{self.kind} addresses must be distinct: "
                           f"{self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise GhzError(f"negative address in {self.qubits}")


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
        return compile_gates([(gate.kind, gate.qubits) for gate in self.gates])

    @functools.cached_property
    def _span(self) -> Tuple[int, int]:
        """Lowest and highest touched address; (0, -1) with no gates."""
        touched = self.touched_addresses()
        return min(touched, default=0), max(touched, default=-1)

    def apply(self, s: StateVector, offset: int = 0) -> StateVector:
        """Run the program; offset shifts every address by a block base.

        The shifted address span is checked against the register before
        any amplitude is written; only a failing check walks the gates,
        to name the first bad one.  The program, compiled once by
        statevec.compile_gates, runs as one gather per run of CX, CCX
        and CZ gates and an in-place kernel per H, bit for bit like the
        gates one at a time, on a copy.

        Raises:
            StateError: if s is not a qubit register or a shifted
                address falls outside it.
        """
        lo, hi = self._span
        if s.p != 2 or lo + offset < 0 or hi + offset >= s.n:
            for gate in self.gates:
                check_qubit_gate(s, gate.kind,
                                 tuple(q + offset for q in gate.qubits))
        return StateVector(p=s.p, n=s.n, amplitudes=run_compiled(
            s.amplitudes, s.n, offset, self._compiled))

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
        prefix = {"H": "H", "CX": "C", "CCX": "T", "CZ": "Z"}
        parts = []
        for gate in reversed(self.gates):
            parts.append(prefix[gate.kind]
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
    """
    if not 1 <= c <= n:
        raise GhzError(f"carried qubit count {c} outside [1, {n}]")
    columns = np.stack([
        build_encoder(n).apply(basis_state(
            2, index_to_digits(j, 2, c) + (0,) * (2 * n - c))).amplitudes
        for j in range(2**c)], axis=1)
    rows = np.flatnonzero(np.any(columns, axis=1))
    block = columns[rows]
    support = BlockSupport(rows=rows, block=block,
                           adjoint=np.ascontiguousarray(block.conj().T))
    for array in support:
        array.flags.writeable = False
    return support


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
# Channel and recovery
# ---------------------------------------------------------------------------

def resolve_corruption(corruption: Union[None, str, np.ndarray]) -> np.ndarray:
    """Turn a corruption descriptor into a 2 x 2 operator.

    None and "I" mean no disturbance; "X", "Y", "Z" name the Pauli
    matrices; anything else must already be a 2 x 2 array of finite
    entries, rescaled exactly by the power of two that puts its largest
    part in [0.5, 1), since renormalization removes the scale anyway.

    Raises:
        GhzError: on an unknown label, a wrong shape, or a NaN or
            infinite entry.
    """
    if corruption is None:
        return PAULI_MATRICES["I"]
    if isinstance(corruption, str):
        if corruption not in PAULI_MATRICES:
            raise GhzError(f"unknown corruption label {corruption!r}")
        return PAULI_MATRICES[corruption]
    matrix = np.asarray(corruption, dtype=np.complex128)
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
    what = "corruption annihilated the state or overflowed its norm: "
    norm = guard_norm(s.norm(), ZERO_NORM_FLOOR, GhzError, what)
    damaged = apply_single_qudit(s, address, matrix)
    damaged_norm = damaged.norm()
    guard_norm(damaged_norm / norm, BRANCH_NORM_FLOOR, GhzError, what)
    # The buffer is fresh, so rescale it in place; dividing the float64
    # view by the real norm skips numpy's complex division.
    real = damaged.amplitudes.view(np.float64)
    real /= damaged_norm
    return damaged


def apply_erasure(s: StateVector, pos: ErasurePosition,
                  corruption: Union[None, str, np.ndarray] = None
                  ) -> StateVector:
    """Corrupt the qubit at a known position.

    Args:
        s: a 2n-qubit register.
        pos: the lost qubit; callers keep it as classical side
            information for recover.
        corruption: what the environment did to the qubit: None or "I"
            for nothing, one of "X", "Y", "Z", or an arbitrary 2 x 2
            operator (unitary or projective).  Projective disturbances
            are renormalized.

    Raises:
        GhzError: on shape mismatch or an annihilating disturbance.
    """
    if s.n != 2 * pos.n:
        raise GhzError(f"register size {s.n} does not match block {pos.n}")
    return corrupt_qubit(s, pos.address, corruption)


def split_recovered(s: StateVector, keep: Sequence[int]
                    ) -> Tuple[StateVector, StateVector]:
    """Split recovered content at addresses keep off the damaged half.

    Returns:
        (kept factor, dropped factor), as from split_factor.

    Raises:
        RecoveryError: if the kept qubits stay entangled with the rest,
            which means the damage exceeded one erasure.
    """
    kept, dropped, purity = split_factor(s, keep)
    if purity <= PURITY_BOUND:
        raise RecoveryError(
            "recovery failed: residual entanglement with the damaged half "
            f"(purity {purity:.12g} <= bound {PURITY_BOUND:.12g})")
    return kept, dropped


def recover(s: StateVector, pos: ErasurePosition
            ) -> Tuple[StateVector, StateVector]:
    """Run decoding and recovery for a known erasure and split the halves.

    Returns:
        (message content on the n surviving qubits, state of the
        discarded half).  The surviving half is the ancilla half for a
        message-side erasure and vice versa.

    Raises:
        RecoveryError: if the surviving half stays entangled with the
            damaged half, which means the damage exceeded one erasure.
    """
    n = pos.n
    if s.n != 2 * n:
        raise GhzError(f"register size {s.n} does not match block {n}")
    staged = build_decoder(n, pos).apply(s)
    staged = build_recovery(n, pos).apply(staged)
    layout = GhzLayout(n)
    surviving = (layout.ancilla_addresses if pos.side == "message"
                 else layout.message_addresses)
    return split_recovered(staged, surviving)
