"""Concatenation of a graph code with the GHZ erasure code.

The outer graph code turns logical content into an n-qubit codeword
that corrects computational errors through syndrome decoding.  The
inner GHZ code wraps codeword qubits with entangled ancillas so that a
lost qubit at a known position can be regenerated.  Two blockings are
supported:

* ``whole-register``: the full outer codeword forms the message half of
  a single inner block (n message plus n ancilla qubits).
* ``per-qubit``: every outer qubit gets its own inner block, padded
  with zeroed message qubits up to the inner block size.

Decoding undoes the inner layer first (erasure recovery when a position
is flagged, plain unencoding otherwise), then applies any computational
error carried by the channel event to the surviving codeword, and
finally runs outer syndrome decoding plus table lookup correction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .ghz_erasure import (
    ErasurePosition,
    GhzError,
    GhzLayout,
    RecoveryError,
    apply_erasure,
    build_decoder,
    build_encoder,
    build_recovery,
    recover,
    resolve_corruption,
)
from .graph_code import (
    CodeGraph,
    CodeError,
    DecodeError,
    LogicalState,
    SyndromeTable,
    build_syndrome_table,
    correct,
    decode,
    encode,
    format_error_label,
    weight_one_errors,
)
from .statevec import (
    DETERMINISM_BOUND,
    PauliError,
    StateVector,
    apply_pauli_error,
    apply_single_qudit,
    fidelity_up_to_phase,
    project_register,
    random_single_qubit_unitary,
    random_state,
    register_probabilities,
    split_factor,
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
    """

    outer: CodeGraph
    inner: GhzLayout
    blocking: str = WHOLE_REGISTER

    def __post_init__(self) -> None:
        if self.blocking not in (WHOLE_REGISTER, PER_QUBIT):
            raise CodeError(f"unknown blocking {self.blocking!r}")
        if self.outer.p != 2:
            raise CodeError("the inner code uses qubit gates; need p = 2")
        if self.blocking == WHOLE_REGISTER and self.inner.n != self.outer.n:
            raise CodeError(
                f"whole-register blocking needs inner n = outer |Y|; "
                f"got {self.inner.n} vs {self.outer.n}")

    @property
    def blocks(self) -> int:
        return 1 if self.blocking == WHOLE_REGISTER else self.outer.n

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

def concat_encode(scheme: ConcatScheme, v: LogicalState) -> StateVector:
    """Encode logical content through both layers.

    Returns:
        The physical register: 2n qubits for whole-register blocking,
        outer_n * 2 * inner_n qubits for per-qubit blocking.
    """
    outer_state = encode(scheme.outer, v)
    n_in = scheme.inner.n
    if scheme.blocking == WHOLE_REGISTER:
        padding = np.zeros(2**n_in, dtype=np.complex128)
        padding[0] = 1.0
        full = StateVector(p=2, n=2 * n_in,
                           amplitudes=np.kron(outer_state.amplitudes, padding))
        return build_encoder(n_in).apply(full)
    total = scheme.total_qubits
    block_span = scheme.inner.total
    shifts = np.array(
        [1 << (total - 1 - i * block_span) for i in range(scheme.outer.n)],
        dtype=np.int64)
    outer_digits = np.array(
        [[(idx >> (scheme.outer.n - 1 - i)) & 1 for i in range(scheme.outer.n)]
         for idx in range(2**scheme.outer.n)], dtype=np.int64)
    placed = outer_digits @ shifts
    amplitudes = np.zeros(2**total, dtype=np.complex128)
    amplitudes[placed] = outer_state.amplitudes
    full = StateVector(p=2, n=total, amplitudes=amplitudes)
    encoder = build_encoder(n_in)
    for i in range(scheme.blocks):
        full = encoder.apply(full, offset=i * block_span)
    return full


# ---------------------------------------------------------------------------
# Channel application
# ---------------------------------------------------------------------------

def apply_channel_damage(scheme: ConcatScheme, s: StateVector,
                         event: ChannelEvent) -> StateVector:
    """Apply the physical part of an event: the erasure-site corruption.

    The computational part (event.pauli) strikes the surviving codeword
    and is injected by concat_decode after inner recovery.
    """
    if event.erasure is None:
        return s
    if event.erasure.n != scheme.inner.n:
        raise GhzError(
            f"erasure block size {event.erasure.n} != inner {scheme.inner.n}")
    if event.block >= scheme.blocks:
        raise GhzError(f"block index {event.block} outside [0, {scheme.blocks})")
    if scheme.blocking == WHOLE_REGISTER:
        return apply_erasure(s, event.erasure, event.corruption)
    address = event.block * scheme.inner.total + event.erasure.address
    matrix = resolve_corruption(event.corruption)
    damaged = apply_single_qudit(s, address, matrix)
    norm = damaged.norm()
    if norm < 1e-12:
        raise GhzError("corruption annihilated the state")
    return StateVector(p=2, n=s.n, amplitudes=damaged.amplitudes / norm)


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def _inner_stage_whole(scheme: ConcatScheme, s: StateVector,
                       event: ChannelEvent) -> StateVector:
    """Reduce the single inner block to the outer codeword register."""
    n_in = scheme.inner.n
    if event.erasure is not None:
        surviving, _discard = recover(s, event.erasure)
        return surviving
    unencoded = build_encoder(n_in).inverse().apply(s)
    ancillas = list(range(n_in, 2 * n_in))
    probs = register_probabilities(unencoded, ancillas)
    if int(np.argmax(probs)) != 0 or probs[0] <= DETERMINISM_BOUND:
        raise DecodeError(
            "inner unencoding left the ancilla register excited "
            f"(all-zero probability {probs[0]:.12g} <= bound "
            f"{DETERMINISM_BOUND:.12g}); undeclared damage present")
    return project_register(unencoded, ancillas, (0,) * n_in)


def _inner_stage_blocks(scheme: ConcatScheme, s: StateVector,
                        event: ChannelEvent) -> StateVector:
    """Reduce per-qubit inner blocks to the outer codeword register."""
    n_in = scheme.inner.n
    span = scheme.inner.total
    erased_block = event.block if event.erasure is not None else None
    state = s
    for i in range(scheme.blocks):
        base = i * span
        if i == erased_block:
            assert event.erasure is not None
            state = build_decoder(n_in, event.erasure).apply(state, offset=base)
            state = build_recovery(n_in, event.erasure).apply(state, offset=base)
        else:
            state = build_encoder(n_in).inverse().apply(state, offset=base)

    zero_addrs: List[int] = []
    outer_addrs: List[int] = []
    discard_addrs: List[int] = []
    for i in range(scheme.blocks):
        base = i * span
        if i == erased_block:
            assert event.erasure is not None
            if event.erasure.side == "message":
                content_base = base + n_in
                discard_addrs.extend(range(base, base + n_in))
            else:
                content_base = base
                discard_addrs.extend(range(base + n_in, base + span))
            outer_addrs.append(content_base)
            zero_addrs.extend(range(content_base + 1, content_base + n_in))
        else:
            outer_addrs.append(base)
            zero_addrs.extend(range(base + 1, base + n_in))
            zero_addrs.extend(range(base + n_in, base + span))

    probs = register_probabilities(state, zero_addrs)
    if int(np.argmax(probs)) != 0 or probs[0] <= DETERMINISM_BOUND:
        raise DecodeError(
            "inner unencoding left padding or ancilla qubits excited "
            f"(all-zero probability {probs[0]:.12g} <= bound "
            f"{DETERMINISM_BOUND:.12g}); undeclared damage present")
    state = project_register(state, zero_addrs, (0,) * len(zero_addrs))

    if erased_block is None:
        return state
    remaining = sorted(outer_addrs + discard_addrs)
    keep_positions = [remaining.index(a) for a in outer_addrs]
    kept, _dropped, purity = split_factor(state, keep_positions)
    if purity <= 1.0 - 1e-9:
        raise RecoveryError(
            "recovery failed: residual entanglement with the damaged half "
            f"(purity {purity:.6f})")
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
        DecodeError: when a syndrome is unreadable or unknown.
        RecoveryError: when inner recovery fails.
    """
    if s.p != 2 or s.n != scheme.total_qubits:
        raise CodeError(
            f"register ({s.p}, {s.n}) does not match scheme "
            f"(2, {scheme.total_qubits})")
    if scheme.blocking == WHOLE_REGISTER:
        codeword = _inner_stage_whole(scheme, s, event)
    else:
        codeword = _inner_stage_blocks(scheme, s, event)
    if event.pauli is not None:
        codeword = apply_pauli_error(codeword, event.pauli)
    syndrome, residual = decode(scheme.outer, codeword)
    table = _outer_table(scheme.outer)
    key = syndrome.entries
    row = table.rows.get(key)
    if row is None:
        raise DecodeError(
            f"unrecognized syndrome {''.join(str(d) for d in key)}")
    corrected = correct(residual, syndrome, table)
    recovered = LogicalState(p=2, coefficients=corrected.amplitudes)
    trace = DecodeTrace(
        event=event.describe(),
        syndrome="".join(str(d) for d in key),
        correction=row.correction_label,
    )
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
        number and rate of trials below 1 - 1e-9, plus per-event-kind
        counts and mean fidelities.  Fixed seed gives identical output.
    """
    if trials < 1:
        raise CodeError(f"need at least one trial, got {trials}")
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
    failures = sum(1 for f in fidelities if f < 1.0 - 1e-9)
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
