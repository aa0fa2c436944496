"""Concatenation of a graph code with the GHZ erasure code.

The outer graph code turns logical content into an n-qubit codeword
that corrects computational errors through syndrome decoding.  The
inner GHZ code wraps codeword qubits with entangled ancillas so that a
lost qubit at a known position can be regenerated.

The two layers meet through one block assignment: each inner block
carries a run of codeword qubits at message addresses 0..c-1, and any
message qubit it does not need is padding held at |0>.  The blocking
names an instance of it:

* ``whole-register``: one block carries all n codeword qubits (inner
  n = outer n, so there is no padding).
* ``per-qubit``: n blocks, each carrying one codeword qubit.

Both layers work per block through the block's encoder isometry E: the
encoder program's action on the qubits the block carries, with its
padding at |0>.  E sends each input to four GHZ branches, so only a few
of its rows are nonzero, and it is held by those rows alone.  Encoding
contracts them with each block's axis of the outer codeword and
scatters the small core this leaves into a zeroed register.  Decoding
checks the register's norm, gathers the support rows of every undamaged
block in one step and contracts them with E's adjoint, which leaves only
their carried qubits, and runs erasure recovery on the flagged block
alone in that reduced register.  It then checks that padding and
ancillas read |0>, scored against the whole register's norm so that
amplitudes off the support count as damage, applies any computational
error carried by the channel event to the surviving codeword, and
finally runs outer syndrome decoding plus table lookup correction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .ghz_erasure import (
    ErasurePosition,
    GhzError,
    GhzLayout,
    build_decoder,
    build_recovery,
    corrupt_qubit,
    encoder_isometry,
    split_recovered,
)
from .graph_code import (
    CodeGraph,
    CodeError,
    DecodeError,
    LogicalState,
    SyndromeTable,
    build_syndrome_table,
    check_amplitude_count,
    correct,
    decode,
    encode,
    format_error_label,
    weight_one_errors,
)
from .statevec import (
    DETERMINISM_BOUND,
    FIDELITY_BOUND,
    ZERO_NORM_FLOOR,
    PauliError,
    StateVector,
    apply_pauli_error,
    fidelity_up_to_phase,
    guard_norm,
    project_register,
    random_single_qubit_unitary,
    random_state,
)

__all__ = [
    "PauliError",
    "apply_pauli_error",
    "ChannelEvent",
    "ConcatScheme",
    "DecodeTrace",
    "concat_encode",
    "concat_decode",
    "effective_channel",
    "noise_identity",
    "noise_correctable",
    "noise_two_pauli",
]

WHOLE_REGISTER = "whole-register"
PER_QUBIT = "per-qubit"


# ---------------------------------------------------------------------------
# Channel events and schemes
# ---------------------------------------------------------------------------

@dataclass
class ChannelEvent:
    """What the channel did during one transmission.

    Attributes:
        pauli: optional computational error on the outer codeword
            register; it strikes the surviving qubits and is therefore
            applied after inner recovery.
        erasure: optional lost-qubit position inside its inner block,
            known classically.
        corruption: disturbance suffered by the erased qubit: None,
            a Pauli letter, or a 2 x 2 operator.
        block: inner block index hit by the erasure (always 0 in
            whole-register blocking).
    """

    pauli: Optional[PauliError] = None
    erasure: Optional[ErasurePosition] = None
    corruption: Union[None, str, np.ndarray] = None
    block: int = 0

    def __post_init__(self) -> None:
        if self.corruption is not None and self.erasure is None:
            raise GhzError("corruption given without an erasure position")
        if self.block < 0:
            raise GhzError(f"negative block index {self.block}")

    def describe(self) -> str:
        parts = []
        if self.erasure is not None:
            where = self.erasure.label
            if self.block:
                where = f"{self.block}:{where}"
            parts.append(f"erasure@{where}")
        if self.pauli is not None and self.pauli.weight > 0:
            if self.pauli.weight == 1:
                parts.append(format_error_label(self.pauli))
            else:
                parts.append(f"pauli(weight={self.pauli.weight})")
        return "+".join(parts) if parts else "none"

    def kind(self) -> str:
        """Coarse label for statistics."""
        has_pauli = self.pauli is not None and self.pauli.weight > 0
        if self.erasure is not None and has_pauli:
            return "erasure+pauli"
        if self.erasure is not None:
            return "erasure"
        if has_pauli:
            return "pauli"
        return "none"


@dataclass(frozen=True)
class ConcatScheme:
    """An outer graph code wrapped by an inner GHZ erasure code.

    Attributes:
        outer: the graph code; must be a qubit code with a decoder.
        inner: inner block layout.
        blocking: ``whole-register`` or ``per-qubit``.
        assignment: derived from blocking; the codeword qubits each
            inner block carries at its message addresses 0..c-1, in
            codeword order across the register.

    Construction raises CodeError when the physical register would
    exceed MAX_AMPLITUDES amplitudes.
    """

    outer: CodeGraph
    inner: GhzLayout
    blocking: str = WHOLE_REGISTER
    assignment: Tuple[Tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.outer.p != 2:
            raise CodeError("the inner code uses qubit gates; need p = 2")
        if self.blocking == WHOLE_REGISTER:
            if self.inner.n != self.outer.n:
                raise CodeError(
                    f"whole-register blocking needs inner n = outer |Y|; "
                    f"got {self.inner.n} vs {self.outer.n}")
            assignment = (tuple(range(self.outer.n)),)
        elif self.blocking == PER_QUBIT:
            assignment = tuple((q,) for q in range(self.outer.n))
        else:
            raise CodeError(f"unknown blocking {self.blocking!r}")
        qubits = len(assignment) * self.inner.total
        check_amplitude_count(
            f"{self.blocking} blocking with inner n = {self.inner.n} "
            f"({qubits} qubits)", 2**qubits)
        object.__setattr__(self, "assignment", assignment)

    @property
    def blocks(self) -> int:
        return len(self.assignment)

    @property
    def total_qubits(self) -> int:
        return self.blocks * self.inner.total


@dataclass
class DecodeTrace:
    """Record of one decoding run.

    Attributes:
        event: description of the channel event.
        syndrome: observed outer syndrome digits.
        correction: outer correction label applied.
        fidelity: squared overlap with the reference input when the
            caller knows it; None otherwise.
    """

    event: str
    syndrome: str
    correction: str
    fidelity: Optional[float] = None


@functools.lru_cache(maxsize=8)
def _outer_table(g: CodeGraph) -> SyndromeTable:
    return build_syndrome_table(g, weight_one_errors(g.p, g.n))


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def _map_block(t: np.ndarray, b: int, m: np.ndarray) -> np.ndarray:
    """Apply the matrix m to axis b of t; the other axes stay in place.

    The result is a fresh C-contiguous array, so the next block's
    reshape needs no copy.
    """
    shape = t.shape
    t = np.matmul(m, t.reshape(math.prod(shape[:b]), shape[b], -1))
    return t.reshape(shape[:b] + (len(m),) + shape[b + 1:])


def concat_encode(scheme: ConcatScheme, v: LogicalState) -> StateVector:
    """Encode logical content through both layers.

    Each block axis of the outer codeword is contracted with the
    support rows of the block's encoder isometry, and the core this
    leaves is scattered into a zeroed register in one step; no gate
    runs on the whole register.

    Returns:
        The physical register of scheme.total_qubits qubits: 2n for
        whole-register blocking, outer_n * 2 * inner_n for per-qubit
        blocking.
    """
    t = encode(scheme.outer, v).amplitudes.reshape(
        [2**len(carried) for carried in scheme.assignment])
    supports = [encoder_isometry(scheme.inner.n, len(carried))
                for carried in scheme.assignment]
    # Last block first: the blocks before it are still narrow, so the
    # matmul loops over few leading slices.
    for b in reversed(range(scheme.blocks)):
        t = _map_block(t, b, supports[b].block)
    register = np.zeros((2**scheme.inner.total,) * scheme.blocks,
                        dtype=np.complex128)
    register[np.ix_(*(support.rows for support in supports))] = t
    return StateVector(p=2, n=scheme.total_qubits,
                       amplitudes=register.reshape(-1))


# ---------------------------------------------------------------------------
# Channel application
# ---------------------------------------------------------------------------

def _check_event(scheme: ConcatScheme, event: ChannelEvent) -> None:
    """Reject side information that does not fit the scheme.

    Raises:
        GhzError: on an erasure of another block size or a block index
            outside the scheme.
        CodeError: on a Pauli error that is not a qubit error on the
            outer codeword.
    """
    if event.erasure is not None and event.erasure.n != scheme.inner.n:
        raise GhzError(
            f"erasure block size {event.erasure.n} != inner {scheme.inner.n}")
    if event.block >= scheme.blocks:
        raise GhzError(f"block index {event.block} outside [0, {scheme.blocks})")
    if event.pauli is not None and (event.pauli.p, event.pauli.n) != (
            2, scheme.outer.n):
        raise CodeError(
            f"pauli error on ({event.pauli.p}, {event.pauli.n}) does not "
            f"match the codeword (2, {scheme.outer.n})")


def apply_channel_damage(scheme: ConcatScheme, s: StateVector,
                         event: ChannelEvent) -> StateVector:
    """Apply the physical part of an event: the erasure-site corruption.

    The computational part (event.pauli) strikes the surviving codeword
    and is injected by concat_decode after inner recovery.
    """
    _check_event(scheme, event)
    if event.erasure is None:
        return s
    address = event.block * scheme.inner.total + event.erasure.address
    return corrupt_qubit(s, address, event.corruption)


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def _inner_stage(scheme: ConcatScheme, s: StateVector,
                 event: ChannelEvent) -> StateVector:
    """Reduce the inner blocks to the outer codeword register.

    The register's norm is checked first.  The support rows of every
    undamaged block are then gathered in one step, and each gathered
    axis is contracted with the adjoint of its block's encoder
    isometry, which keeps only its carried qubits.  The probability
    that their padding and ancillas read |0> is the squared norm left
    over the register's squared norm, so amplitudes the gather skips,
    off the support, count against it.  The erased block then runs its
    decoder and recovery programs on the reduced register, which move
    its content to the undamaged half.  Padding and ancillas must have
    read |0>, and the erased block's damaged half must split off as a
    product.

    Raises:
        CodeError: on a register whose norm is zero or not finite.
    """
    n_in, span = scheme.inner.n, scheme.inner.total
    erasure = event.erasure
    erased = event.block if erasure is not None else None
    norm = guard_norm(s.norm(), ZERO_NORM_FLOOR, CodeError, "register ")
    t = s.amplitudes.reshape((2**span,) * scheme.blocks)
    gathered = {block: encoder_isometry(n_in, len(carried))
                for block, carried in enumerate(scheme.assignment)
                if block != erased}
    if gathered:
        t = t[np.ix_(*(gathered[block].rows if block in gathered
                       else np.arange(2**span)
                       for block in range(scheme.blocks)))]
    for block, support in gathered.items():
        t = _map_block(t, block, support.adjoint)
    state = StateVector(p=2, n=int(np.log2(t.size)), amplitudes=t.reshape(-1))
    padding = (0, 0)
    if erasure is not None:
        base = sum(map(len, scheme.assignment[:event.block]))
        c = len(scheme.assignment[event.block])
        state = build_decoder(n_in, erasure).apply(state, offset=base)
        state = build_recovery(n_in, erasure).apply(state, offset=base)
        content = base + n_in if erasure.side == "message" else base
        padding = (content + c, n_in - c)

    # The contractions' norm counts in the all-zero probability; only a
    # lone erased block without padding has nothing to check.  (It has
    # no support to gather either: no amplitude is skipped.)
    if padding[1] or state.n < s.n:
        # A register wholly off the support leaves no branch to keep.
        probs, state = project_register(state, *padding, norm * norm,
                                        DecodeError)
        if int(np.argmax(probs)) != 0 or probs[0] <= DETERMINISM_BOUND:
            raise DecodeError(
                "inner unencoding left padding or ancilla qubits excited "
                f"(all-zero probability {probs[0]:.12g} <= bound "
                f"{DETERMINISM_BOUND:.12g}); undeclared damage present")

    if erasure is None:
        return state
    # What is left of the erased block: its n_in-qubit damaged half, and
    # its carried qubits before (ancilla side) or after (message side).
    damaged = base if erasure.side == "message" else base + c
    kept, _dropped = split_recovered(
        state, [q for q in range(state.n)
                if not damaged <= q < damaged + n_in])
    return kept


def concat_decode(scheme: ConcatScheme, s: StateVector, event: ChannelEvent
                  ) -> Tuple[LogicalState, DecodeTrace]:
    """Decode a physical register given known channel side information.

    The event's erasure position selects the inner recovery path; its
    Pauli component models a computational error on the surviving
    codeword and is applied between the inner and outer stages.

    Returns:
        (recovered logical state, trace with syndrome and correction).

    Raises:
        GhzError: when the event's erasure does not fit the scheme.
        CodeError: when the register or the event's Pauli error does
            not fit the scheme, or the register's norm is zero or not
            finite.
        DecodeError: when a syndrome is unreadable or unknown.
        RecoveryError: when inner recovery fails.
    """
    _check_event(scheme, event)
    if s.p != 2 or s.n != scheme.total_qubits:
        raise CodeError(
            f"register ({s.p}, {s.n}) does not match scheme "
            f"(2, {scheme.total_qubits})")
    codeword = _inner_stage(scheme, s, event)
    if event.pauli is not None:
        codeword = apply_pauli_error(codeword, event.pauli)
    syndrome, residual = decode(scheme.outer, codeword)
    table = _outer_table(scheme.outer)
    corrected = correct(residual, syndrome, table)
    recovered = LogicalState(p=2, coefficients=corrected.amplitudes)
    trace = DecodeTrace(
        event=event.describe(),
        syndrome="".join(str(d) for d in syndrome.entries),
        correction=table.rows[syndrome.entries].correction_label)
    return recovered, trace


# ---------------------------------------------------------------------------
# Noise models and channel statistics
# ---------------------------------------------------------------------------

NoiseModel = Callable[[np.random.Generator], ChannelEvent]


def noise_identity() -> NoiseModel:
    """A channel that never disturbs anything."""
    def draw(rng: np.random.Generator) -> ChannelEvent:
        del rng
        return ChannelEvent()
    return draw


def noise_correctable(scheme: ConcatScheme) -> NoiseModel:
    """One uniform erasure with random corruption plus at most one Pauli.

    Every draw stays within the design strength of the concatenated
    scheme, so decoding should restore fidelity 1.
    """
    n_out = scheme.outer.n

    def draw(rng: np.random.Generator) -> ChannelEvent:
        block = int(rng.integers(scheme.blocks))
        address = int(rng.integers(scheme.inner.total))
        pos = ErasurePosition(address=address, n=scheme.inner.n)
        corruption = random_single_qubit_unitary(rng)
        choice = int(rng.integers(3 * n_out + 1))
        pauli = None
        if choice > 0:
            q, which = divmod(choice - 1, 3)
            b, sp = ((1, 0), (0, 1), (1, 1))[which]
            pauli = PauliError.single(p=2, n=n_out, q=q, b=b, s=sp)
        return ChannelEvent(pauli=pauli, erasure=pos,
                            corruption=corruption, block=block)
    return draw


def noise_two_pauli(scheme: ConcatScheme) -> NoiseModel:
    """Two independent Pauli errors on distinct codeword qubits.

    Exceeds the outer code's distance, so some draws decode wrongly and
    show up as reduced fidelity.
    """
    n_out = scheme.outer.n

    def draw(rng: np.random.Generator) -> ChannelEvent:
        qa, qb = rng.choice(n_out, size=2, replace=False)
        b = [0] * n_out
        sp = [0] * n_out
        for q in (int(qa), int(qb)):
            which = int(rng.integers(3))
            bq, sq = ((1, 0), (0, 1), (1, 1))[which]
            b[q] = bq
            sp[q] = sq
        pauli = PauliError(m=0, b=tuple(b), s=tuple(sp), p=2)
        return ChannelEvent(pauli=pauli)
    return draw


def effective_channel(scheme: ConcatScheme, noise: NoiseModel,
                      trials: int, seed: int) -> Dict[str, float]:
    """Monte-Carlo estimate of the logical channel after decoding.

    Each trial draws a random logical input and a channel event, runs
    the full encode/damage/decode pipeline, and scores the fidelity of
    the recovered state against the input.

    Returns:
        Flat statistics: trial count, mean and minimum fidelity, the
        number and rate of trials below FIDELITY_BOUND, plus per-event-kind
        counts and mean fidelities.  Fixed seed gives identical output.

    Raises:
        CodeError: on fewer than one trial or a negative seed, before
            any draw.
    """
    if trials < 1:
        raise CodeError(f"need at least one trial, got {trials}")
    if seed < 0:
        raise CodeError(f"need a seed >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    k = scheme.outer.k
    fidelities: List[float] = []
    per_kind: Dict[str, List[float]] = {}
    for _ in range(trials):
        v = LogicalState(p=2, coefficients=random_state(2, k, rng).amplitudes)
        event = noise(rng)
        physical = concat_encode(scheme, v)
        physical = apply_channel_damage(scheme, physical, event)
        recovered, _trace = concat_decode(scheme, physical, event)
        f = fidelity_up_to_phase(v.as_state(), recovered.as_state())
        fidelities.append(f)
        per_kind.setdefault(event.kind(), []).append(f)
    failures = sum(1 for f in fidelities if f < FIDELITY_BOUND)
    stats: Dict[str, float] = {
        "trials": float(trials),
        "mean_fidelity": float(np.mean(fidelities)),
        "min_fidelity": float(np.min(fidelities)),
        "failures": float(failures),
        "failure_rate": failures / trials,
    }
    for kind in sorted(per_kind):
        stats[f"kind.{kind}.count"] = float(len(per_kind[kind]))
        stats[f"kind.{kind}.mean_fidelity"] = float(np.mean(per_kind[kind]))
    return stats
