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
of its rows are nonzero, and it is held by those rows alone.

The physical register is a BlockRegister: one tensor with one axis per
inner block.  An axis is carried, holding the block's 2**c codeword
amplitudes with E implied, or physical, holding its 2**(2n) amplitudes.
Encoding leaves every axis carried, so it is the outer codeword
reshaped.  A channel event touches one block.  Damage to a register
whose every axis is carried records the hit (block, position and
operator) and applies nothing.  Otherwise, or when anything reads a
recorded register's amplitudes, damage makes only the hit block's axis
physical, by contracting it with E's support rows and scattering them
onto the block's register indices, and corrupts the erased qubit there;
every other block keeps its carried amplitudes, since its encoding
would cancel against its unencoding.  No dense form is built: an axis
turns physical only when damage or decoding reaches its block.

When the event declares the recorded hit, decoding reads the erased
block's kept rows straight from the carried core in one gather, by
ghz_erasure's cached carried_erasure_map: encoder, corruption, decoder
and recovery composed once into one term per row.  Otherwise decoding
checks the register's norm, which E's isometry makes the physical one,
and makes the erased block's axis physical.  It gathers the support
rows of every other physical axis in one step and contracts them with
E's adjoint, which leaves only their carried qubits.  The flagged block
is decoded by ghz_erasure, which owns that decode: erased_rows runs the
decoder then recovery that the erasure position alone picks along the
block's axis of that reduced register, and keeps only the rows whose
padding reads |0>, damaged half first.  Their share of the whole
register's norm is the probability that padding and ancillas read |0>,
so amplitudes off the support count as damage; this module checks it,
against the recorded norm for a recorded hit.  split_erased then splits
the damaged half off the rows.  Decoding then applies any computational
error carried by the channel event to the surviving codeword, and
finally runs outer syndrome decoding plus table lookup correction.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .ghz_erasure import (
    ErasurePosition,
    GhzError,
    GhzLayout,
    carried_corruption,
    carried_erasure_map,
    corrupt_qubit,
    encoder_isometry,
    erased_rows,
    split_erased,
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
    MAX_AMPLITUDES,
    ZERO_NORM_FLOOR,
    PauliError,
    StateVector,
    apply_pauli_error,
    fidelity_up_to_phase,
    guard_norm,
    norm2,
    random_single_qubit_unitary,
    random_state,
)

__all__ = [
    "PauliError",
    "apply_pauli_error",
    "BlockRegister",
    "ChannelEvent",
    "ConcatScheme",
    "DecodeTrace",
    "concat_encode",
    "concat_decode",
    "effective_channel",
    "noise_identity",
    "noise_correctable",
    "noise_two_pauli",
    "NOISE_MODELS",
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
        try:
            self.block = operator.index(self.block)
        except TypeError:
            raise GhzError(f"block index {self.block!r} is not an "
                           f"integer") from None
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

    A scheme allocates nothing: its BlockRegister holds each block by
    its carried amplitudes until a block is hit, so per-qubit blocking
    runs at any inner n.  Only a core of more than MAX_AMPLITUDES
    amplitudes, such as two physical axes at inner n = 6, is refused.
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
    """

    event: str
    syndrome: str
    correction: str


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


class _Hit(NamedTuple):
    """A corruption of one erased qubit, recorded but not yet applied.

    Attributes:
        block: the hit block, whose axis is carried, as is every other.
        position: the erased qubit's position in the block.
        corruption: what corrupt_qubit applies: the event's label or
            None, else the resolved operator, which resolves to itself.
        operator: the resolved 2 x 2 operator.
        norm2: the squared norm of the register with the hit applied,
            before renormalization.
    """

    block: int
    position: ErasurePosition
    corruption: Union[None, str, np.ndarray]
    operator: np.ndarray
    norm2: float


class BlockRegister:
    """The physical register of a scheme, held as one tensor axis per block.

    Axis b of the core is either carried or physical.  A carried axis
    has 2**c entries, the amplitudes of the c codeword qubits block b
    carries, and stands for E applied to them.  A physical axis has
    2**(2n) entries, the block's register amplitudes.  As c <= n < 2n,
    the length tells the two apart.  E is an isometry, so the core's
    norm is the physical register's.

    A register may also hold a recorded hit (see apply_channel_damage):
    a corruption of one erased qubit of a register whose every axis is
    carried, not yet applied, so that concat_decode can read the erased
    block's rows straight from the carried core.  Any read of the
    amplitudes (core, physical, flat, expand) first applies the hit as
    apply_channel_damage once did: the block's axis made physical, then
    corrupt_qubit, so it reads bit for bit as that register.

    Attributes:
        scheme: the scheme whose blocks the axes follow.
        core: complex tensor with one axis per block, block 0 first.

    Raises:
        CodeError: on a core whose axes do not fit the scheme's blocks.
    """

    def __init__(self, scheme: ConcatScheme, core: np.ndarray) -> None:
        core = np.asarray(core, dtype=np.complex128)
        span = 2**scheme.inner.total
        widths = [2**len(carried) for carried in scheme.assignment]
        if core.ndim != len(widths) or any(
                size not in (width, span)
                for size, width in zip(core.shape, widths)):
            raise CodeError(
                f"core of shape {core.shape} does not fit blocks "
                f"{tuple(widths)} carried or {span} physical")
        self.scheme = scheme
        self._core = core
        self._hit: Optional[_Hit] = None

    @property
    def core(self) -> np.ndarray:
        """The amplitudes, one axis per block; a recorded hit is applied
        first."""
        hit = self._hit
        if hit is not None:
            carried = BlockRegister(self.scheme, self._core)
            self._core = carried._corrupted(hit.block, hit.position,
                                            hit.corruption)
            self._hit = None
        return self._core

    def physical(self, block: int) -> bool:
        return self.core.shape[block] == 2**self.scheme.inner.total

    def flat(self) -> StateVector:
        """The core as a register of its axes' qubits; no copy."""
        return _flat(self.core)

    def expand(self, block: int) -> "BlockRegister":
        """The register with block's axis made physical, or self if it is.

        Raises:
            CodeError: when the new core would exceed MAX_AMPLITUDES
                amplitudes, before it is allocated.
        """
        if self.physical(block):
            return self
        return BlockRegister(self.scheme, self._expanded(block))

    def _carried(self) -> bool:
        """Whether every axis is carried and no hit is recorded."""
        span = 2**self.scheme.inner.total
        return self._hit is None and span not in self._core.shape

    def _expanded_shape(self, block: int) -> List[int]:
        """The core's shape with block's axis physical.

        Raises:
            CodeError: when it holds more than MAX_AMPLITUDES amplitudes.
        """
        scheme = self.scheme
        shape = list(self._core.shape)
        shape[block] = 2**scheme.inner.total
        count = math.prod(shape)
        if count > MAX_AMPLITUDES:
            # The message is formatted only for a refusal.
            check_amplitude_count(
                f"{scheme.blocking} blocking with inner n = "
                f"{scheme.inner.n} ({count.bit_length() - 1} qubits)", count)
        return shape

    def _expanded(self, block: int) -> np.ndarray:
        """The core with block's axis made physical, or the core itself.

        The carried amplitudes are contracted with the support rows of
        the block's encoder isometry and placed on those rows of a
        zeroed core.
        """
        if self.physical(block):
            return self.core
        scheme = self.scheme
        support = encoder_isometry(scheme.inner.n,
                                   len(scheme.assignment[block]))
        core = np.zeros(self._expanded_shape(block), dtype=np.complex128)
        core[(slice(None),) * block + (support.rows,)] = _map_block(
            self.core, block, support.block)
        return core

    def _corrupted(self, block: int, position: ErasurePosition,
                   corruption: Union[None, str, np.ndarray]) -> np.ndarray:
        """A fresh core: block's axis made physical, then corrupt_qubit on
        its qubit at position."""
        core = self._expanded(block)
        address = sum(size.bit_length() - 1 for size in core.shape[:block])
        damaged = corrupt_qubit(_flat(core), address + position.address,
                                corruption)
        return damaged.amplitudes.reshape(core.shape)


def _flat(core: np.ndarray) -> StateVector:
    """A core as a register of its axes' qubits; no copy."""
    return StateVector(p=2, n=core.size.bit_length() - 1,
                       amplitudes=core.reshape(-1))


def concat_encode(scheme: ConcatScheme, v: LogicalState) -> BlockRegister:
    """Encode logical content through both layers.

    Every block axis stays carried, so the register is the outer
    codeword reshaped to one axis per block: no inner amplitude is
    computed until a block is hit.

    Returns:
        The register of scheme.total_qubits qubits (2n for
        whole-register blocking, outer_n * 2 * inner_n for per-qubit
        blocking) as a BlockRegister.
    """
    t = encode(scheme.outer, v).amplitudes.reshape(
        [2**len(carried) for carried in scheme.assignment])
    return BlockRegister(scheme, t)


# ---------------------------------------------------------------------------
# Channel application
# ---------------------------------------------------------------------------

def _check_inputs(scheme: ConcatScheme, s: BlockRegister,
                  event: ChannelEvent) -> None:
    """Reject a register or side information that does not fit the scheme.

    Raises:
        CodeError: on a register that is not a BlockRegister of the
            scheme, or a Pauli error that is not a qubit error on the
            outer codeword.
        GhzError: on an erasure of another block size or a block index
            outside the scheme.
    """
    if not isinstance(s, BlockRegister):
        raise CodeError(f"need a BlockRegister, got {type(s).__name__}")
    if s.scheme != scheme:
        raise CodeError("block register of another scheme")
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


def apply_channel_damage(scheme: ConcatScheme, s: BlockRegister,
                         event: ChannelEvent) -> BlockRegister:
    """Apply the physical part of an event: the erasure-site corruption.

    On a register whose every axis is carried, the hit is recorded, not
    applied: the result holds a copy of the carried core plus the block,
    the position and the resolved operator, which concat_decode reads in
    one gather when the event declares that erasure.  The register, the
    amplitude cap and the corruption are checked as for an applied hit,
    the norms by carried_corruption.  Otherwise, and on any read of the
    result's amplitudes, only the hit block's axis is made physical and
    the corruption acts on the erased qubit of that axis.  The result is
    fresh, or s itself for an event without an erasure.

    The computational part (event.pauli) strikes the surviving codeword
    and is injected by concat_decode after inner recovery.
    """
    _check_inputs(scheme, s, event)
    erasure = event.erasure
    if erasure is None:
        return s
    if not s._carried():
        return BlockRegister(scheme, s._corrupted(event.block, erasure,
                                                  event.corruption))
    s._expanded_shape(event.block)  # the amplitude cap
    matrix, norm2_hit = carried_corruption(s.flat(), event.corruption)
    corruption = event.corruption
    if corruption is not None and not isinstance(corruption, str):
        corruption = matrix
    recorded = BlockRegister(scheme, s.core.copy())
    recorded._hit = _Hit(event.block, erasure, corruption, matrix,
                         norm2_hit)
    return recorded


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def _require_all_zero(probability: float) -> None:
    """Raise DecodeError unless padding and ancillas read |0> with a
    probability above DETERMINISM_BOUND."""
    if probability <= DETERMINISM_BOUND:
        raise DecodeError(
            "inner unencoding left padding or ancilla qubits excited "
            f"(all-zero probability {probability:.12g} <= bound "
            f"{DETERMINISM_BOUND:.12g}); undeclared damage present")


def _inner_stage(scheme: ConcatScheme, register: BlockRegister,
                 event: ChannelEvent) -> StateVector:
    """Reduce the inner blocks to the outer codeword register.

    The register's norm is checked first, and the erased block's axis is
    made physical.  The support rows of every other physical axis are
    then gathered in one step, and each gathered axis is contracted with
    the adjoint of its block's encoder isometry, which keeps only its
    carried qubits; carried axes are already there.  The probability
    that their padding and ancillas read |0> is the squared norm left
    over the register's squared norm, so amplitudes the gather skips,
    off the support, count against it.

    The erased block runs decoder and recovery along its axis of the
    reduced register, by erased_rows, which keeps only the rows whose
    padding reads |0>, with the damaged half first.  Their squared norm
    over the register's is the all-zero probability, and when neither
    padding nor a gather can lose norm it is 1 and goes unchecked.  The
    damaged half must then split off the rows as a product.

    When the register records a hit that is the declared erasure, every
    axis is carried and nothing is expanded or applied: the same rows,
    unnormalized, are one gather from the carried core by the block's
    cached carried_erasure_map, and the recorded squared norm is the
    register's.  Any other recorded hit is applied first.

    Raises:
        CodeError: on a register whose norm is zero or not finite.
    """
    n_in = scheme.inner.n
    erasure = event.erasure
    erased = event.block if erasure is not None else None
    hit = register._hit
    if hit is not None and (hit.block, hit.position) == (erased, erasure):
        core = register._core
        c = len(scheme.assignment[erased])
        rows = carried_erasure_map(
            n_in, c, erasure, math.prod(core.shape[:erased]),
            math.prod(core.shape[erased + 1:])).rows(core, hit.operator)
        return _split_erased_block(rows, n_in, hit.norm2, c < n_in)
    norm = guard_norm(math.sqrt(norm2(register.core)), ZERO_NORM_FLOOR,
                      CodeError, "register ")
    t = register.core if erased is None else register._expanded(erased)
    gathered = {block: encoder_isometry(n_in, len(carried))
                for block, carried in enumerate(scheme.assignment)
                if block != erased and t.shape[block] == 2**(2 * n_in)}
    if gathered:
        t = t[np.ix_(*(gathered[block].rows if block in gathered
                       else np.arange(size)
                       for block, size in enumerate(t.shape)))]
    for block, support in gathered.items():
        t = _map_block(t, block, support.adjoint)

    if erasure is None:
        state = _flat(t)
        # A carried axis reads |0> with probability exactly 1, so only a
        # gather leaves anything to check.
        if gathered:
            # A register wholly off the support leaves no branch to keep.
            kept2 = norm2(state.amplitudes)
            kept = guard_norm(math.sqrt(kept2), ZERO_NORM_FLOOR, DecodeError,
                              "cannot normalize a measured branch of ")
            _require_all_zero(kept2 / (norm * norm))
            state = StateVector(p=2, n=state.n,
                                amplitudes=state.amplitudes / kept)
        return state

    c = len(scheme.assignment[erased])
    rows = erased_rows(t, erased, c, erasure)
    return _split_erased_block(rows, n_in, norm * norm,
                               c < n_in or bool(gathered))


def _split_erased_block(rows: np.ndarray, n_in: int, total2: float,
                        lossy: bool) -> StateVector:
    """The codeword left by the erased block's decoded rows.

    The rows' share of total2, the register's squared norm, is the
    all-zero probability, checked when lossy: when padding or a gather
    can lose norm.  split_erased then splits the damaged half off.
    """
    kept2 = norm2(rows)
    if lossy:
        _require_all_zero(kept2 / total2)
    kept, _dropped = split_erased(rows, n_in, math.sqrt(kept2))
    return StateVector(p=2, n=kept.size.bit_length() - 1, amplitudes=kept)


def concat_decode(scheme: ConcatScheme, s: BlockRegister,
                  event: ChannelEvent) -> Tuple[LogicalState, DecodeTrace]:
    """Decode a physical register given known channel side information.

    The event's erasure position selects the inner recovery path; its
    Pauli component models a computational error on the surviving
    codeword and is applied between the inner and outer stages.

    Returns:
        (recovered logical state, trace with syndrome and correction).

    Raises:
        GhzError: when the event's erasure does not fit the scheme.
        CodeError: when the register is not a BlockRegister of the
            scheme, the event's Pauli error does not fit it, or the
            register's norm is zero or not finite.
        DecodeError: when a syndrome is unreadable or unknown.
        RecoveryError: when inner recovery fails.
    """
    _check_inputs(scheme, s, event)
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

# Left unevaluated, so that importing the package never loads numpy.random.
NoiseModel = Callable[["np.random.Generator"], ChannelEvent]


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


# The noise models by name, each a factory of the scheme it samples.
NOISE_MODELS: Dict[str, Callable[[ConcatScheme], NoiseModel]] = {
    "identity": lambda scheme: noise_identity(),
    "correctable": noise_correctable,
    "two-pauli": noise_two_pauli,
}


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
