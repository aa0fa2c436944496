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
padding at |0>.

The physical register is a BlockRegister in one form: a carried core,
one tensor axis per block holding the block's 2**c codeword amplitudes
with E implied, plus the hits recorded on it.  Encoding gives the outer
codeword reshaped, with no hit.  Damage records a hit (block, address,
resolved 2 x 2 operator) and applies nothing; a second hit on a qubit
multiplies into the first.  No block's register amplitudes are ever
built.

Decoding reads every hit block from the carried core through one
composed map, ghz_erasure's cached carried_erasure_map: encoder, the
block's hits, then decoder and recovery for the declared erasure, or
E^dagger for a block without one, composed once by block shape and hit
sites into a few terms per row.  Each hit block without the declared
erasure is mapped along its axis first; an unhit block is already its
carried qubits.  The declared block's map then keeps the rows whose
padding reads |0>, damaged half first.  Their share of the register's
squared norm is the probability that padding and ancillas read |0>,
which this module checks; the squared norm is the core's under the same
maps with each hit U replaced by U^dagger U, and is recorded at damage.
split_erased then splits the damaged half off the rows.  Decoding then
applies any computational error carried by the channel event to the
surviving codeword, and finally runs outer syndrome decoding plus table
lookup correction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .ghz_erasure import (
    ErasurePosition,
    GhzError,
    GhzLayout,
    carried_erasure_map,
    resolve_corruption,
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
    decode_and_correct,
    encode,
    format_error_label,
    weight_one_errors,
)
from .statevec import (
    BRANCH_NORM_FLOOR,
    DETERMINISM_BOUND,
    FIDELITY_BOUND,
    MAX_AMPLITUDES,
    ZERO_NORM_FLOOR,
    PauliError,
    StateVector,
    apply_pauli_error,
    as_index,
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

    Raises:
        CodeError: on a pauli that is not a PauliError.
        GhzError: on an erasure that is not an ErasurePosition, a
            corruption without an erasure, or a block index that is not
            an integer >= 0.
    """

    pauli: Optional[PauliError] = None
    erasure: Optional[ErasurePosition] = None
    corruption: Union[None, str, np.ndarray] = None
    block: int = 0

    def __post_init__(self) -> None:
        if self.pauli is not None and not isinstance(self.pauli, PauliError):
            raise CodeError(f"event pauli {self.pauli!r} is not a PauliError")
        if self.erasure is not None and not isinstance(self.erasure,
                                                       ErasurePosition):
            raise GhzError(
                f"event erasure {self.erasure!r} is not an ErasurePosition")
        if self.corruption is not None and self.erasure is None:
            raise GhzError("corruption given without an erasure position")
        self.block = as_index(self.block, GhzError, "block index")
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

    A scheme allocates nothing: its BlockRegister holds every block by
    its carried amplitudes, hit or not, so per-qubit blocking runs at any
    inner n.  Only an erased block's decode whose gather has more than
    MAX_AMPLITUDES rows, 2**(inner n) times the core's size, is refused.
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

class Hit(NamedTuple):
    """A corruption recorded on one qubit of a carried block.

    Attributes:
        block: the hit block.
        address: the qubit's address in the block's register, [0, 2n).
        operator: the resolved 2 x 2 operator.
    """

    block: int
    address: int
    operator: np.ndarray


class BlockRegister:
    """The physical register of a scheme: a carried core plus recorded hits.

    Axis b of the core has 2**c entries, the amplitudes of the c codeword
    qubits block b carries, and stands for E applied to them.  Each hit
    stands for its operator applied after encoding, at most one per qubit
    (a second hit on a qubit multiplies into the first).  E is an
    isometry, so the core's norm is the physical register's until a
    block is hit.

    Attributes:
        scheme: the scheme whose blocks the axes follow.
        core: complex tensor with one axis per block, block 0 first.

    Raises:
        CodeError: on a core whose axes are not the scheme's carried
            blocks.
    """

    def __init__(self, scheme: ConcatScheme, core: np.ndarray) -> None:
        core = np.asarray(core, dtype=np.complex128)
        widths = tuple(2**len(carried) for carried in scheme.assignment)
        if core.shape != widths:
            raise CodeError(f"core of shape {core.shape} does not fit the "
                            f"carried blocks {widths}")
        self.scheme = scheme
        self.core = core
        # Per hit block: its ascending hit addresses and their operators.
        self._sites: Dict[int, Tuple[Tuple[int, ...],
                                     Tuple[np.ndarray, ...]]] = {}
        # The physical register's squared norm, recorded with the hits.
        self._norm2: Optional[float] = None

    @property
    def hits(self) -> Tuple[Hit, ...]:
        """The recorded hits, by block in the order first hit, then by
        address."""
        return tuple(Hit(block, address, op)
                     for block, (sites, ops) in self._sites.items()
                     for address, op in zip(sites, ops))


def _site_operator(ops: Tuple[np.ndarray, ...]) -> np.ndarray:
    """The Kronecker product of a block's site operators, in site order;
    the 1 x 1 identity for none."""
    if not ops:
        return np.ones((1, 1), dtype=np.complex128)
    return functools.reduce(np.kron, ops)


def _undeclared_map(scheme: ConcatScheme, t: np.ndarray, block: int,
                    sites: Tuple[int, ...], operator: np.ndarray
                    ) -> np.ndarray:
    """E^dagger (operator at sites) E applied along block's axis of t, a
    fresh array of t's shape."""
    shape = t.shape
    return carried_erasure_map(
        scheme.inner.n, len(scheme.assignment[block]), sites, None,
        math.prod(shape[:block]), math.prod(shape[block + 1:])).rows(
            t, operator).reshape(shape)


def concat_encode(scheme: ConcatScheme, v: LogicalState) -> BlockRegister:
    """Encode logical content through both layers.

    The register is the outer codeword reshaped to one carried axis per
    block, with no hit: no inner amplitude is ever computed.

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


_CORRUPTION_FAILED = (
    "corruption annihilated the state or overflowed its norm: ")


def _check_gather(scheme: ConcatScheme, core: np.ndarray) -> None:
    """Refuse an erased block's decode whose gather has more than
    MAX_AMPLITUDES rows, 2**(inner n) per core amplitude, before any is
    built.

    Raises:
        CodeError: quoting the row count and the limit.
    """
    count = 2**scheme.inner.n * core.size
    if count > MAX_AMPLITUDES:
        # The message is formatted only for a refusal.
        check_amplitude_count(
            f"the erased block's gather under {scheme.blocking} blocking "
            f"with inner n = {scheme.inner.n}", count)


def _physical_norm2(register: BlockRegister, norm: float) -> float:
    """The squared norm of the physical register, whose core has norm norm.

    It is <core, core> with each hit block's undeclared map applied for
    the hits' U^dagger U.  At one site that map is ||U||_F^2 / 2 times
    the identity, as E^dagger (A at one qubit) E is tr(A) I / 2 (the map
    build checks it), so only a block hit at two or more sites is mapped.
    """
    scale = 1.0
    t = register.core
    for block, (sites, ops) in register._sites.items():
        if len(sites) == 1:
            scale *= float(np.vdot(ops[0], ops[0]).real) / 2
        else:
            t = _undeclared_map(register.scheme, t, block, sites,
                                _site_operator(tuple(op.conj().T @ op
                                                     for op in ops)))
    if t is register.core:
        return scale * norm * norm
    return scale * float(np.vdot(register.core, t).real)


def apply_channel_damage(scheme: ConcatScheme, s: BlockRegister,
                         event: ChannelEvent) -> BlockRegister:
    """Record the physical part of an event: the erasure-site corruption.

    The result holds a copy of s's core and its hits plus this one: the
    block, the erased qubit's address and the resolved operator, which
    multiplies into an earlier hit on the same qubit.  Nothing is
    applied.  The gather's row count is checked against MAX_AMPLITUDES,
    then the corruption, then the core's norm and the share of the
    register's norm the hit leaves (at least BRANCH_NORM_FLOOR), as a
    corruption of the amplitudes would be, with GhzError.  The result is
    fresh, or s itself for an event without an erasure.

    The computational part (event.pauli) strikes the surviving codeword
    and is injected by concat_decode after inner recovery.
    """
    _check_inputs(scheme, s, event)
    erasure = event.erasure
    if erasure is None:
        return s
    _check_gather(scheme, s.core)
    matrix = resolve_corruption(event.corruption)
    norm = guard_norm(math.sqrt(norm2(s.core)), ZERO_NORM_FLOOR, GhzError,
                      _CORRUPTION_FAILED)
    recorded = BlockRegister(scheme, s.core.copy())
    recorded._sites = dict(s._sites)
    hit = dict(zip(*recorded._sites.get(event.block, ((), ()))))
    earlier = hit.get(erasure.address)
    hit[erasure.address] = matrix if earlier is None else matrix @ earlier
    sites = tuple(sorted(hit))
    recorded._sites[event.block] = (sites, tuple(hit[a] for a in sites))
    recorded._norm2 = _physical_norm2(recorded, norm)
    before = norm if s._norm2 is None else math.sqrt(s._norm2)
    guard_norm(math.sqrt(recorded._norm2) / before, BRANCH_NORM_FLOOR,
               GhzError, _CORRUPTION_FAILED)
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

    Every block is read from the carried core.  An unhit block without
    the declared erasure is its carried qubits already.  Each hit block
    without it is mapped along its axis by E^dagger (its hits) E, its
    undeclared map.  The declared block's map then runs encoder, its
    hits (none, the erased qubit's, or any others), decoder and
    recovery, and keeps the rows whose padding reads 0, damaged half
    first: one gather from the core.  Their squared norm over the
    register's is the all-zero probability, and the damaged half must
    then split off the rows as a product.  Without an erasure the
    reduced core's share of the norm is that probability.

    An unhit register's norm is checked here; a hit register's was
    recorded by damage.  An unhit register without an erasure is the
    codeword itself.

    Raises:
        CodeError: on a register whose norm is zero or not finite.
    """
    n_in = scheme.inner.n
    erasure = event.erasure
    erased = event.block if erasure is not None else None
    core = register.core
    total2 = register._norm2
    if total2 is None:
        norm = guard_norm(math.sqrt(norm2(core)), ZERO_NORM_FLOOR, CodeError,
                          "register ")
        if erasure is None:
            return StateVector(p=2, n=core.size.bit_length() - 1,
                               amplitudes=core.reshape(-1))
        total2 = norm * norm
    t = core
    for block, (sites, ops) in register._sites.items():
        if block != erased:
            t = _undeclared_map(scheme, t, block, sites, _site_operator(ops))

    if erasure is None:
        kept2 = norm2(t)
        # A register wholly off the code leaves no branch to keep.
        kept = guard_norm(math.sqrt(kept2), ZERO_NORM_FLOOR, DecodeError,
                          "cannot normalize a measured branch of ")
        _require_all_zero(kept2 / total2)
        return StateVector(p=2, n=t.size.bit_length() - 1,
                           amplitudes=t.reshape(-1) / kept)

    _check_gather(scheme, core)
    sites, ops = register._sites.get(erased, ((), ()))
    rows = carried_erasure_map(
        n_in, len(scheme.assignment[erased]), sites, erasure,
        math.prod(t.shape[:erased]), math.prod(t.shape[erased + 1:])).rows(
            t, _site_operator(ops))
    kept2 = norm2(rows)
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
    corrected, readout = decode_and_correct(scheme.outer, codeword,
                                            _outer_table(scheme.outer))
    trace = DecodeTrace(event=event.describe(), syndrome=readout.syndrome,
                        correction=readout.correction_label)
    return LogicalState(p=2, coefficients=corrected), trace


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
        CodeError: on a trial count or seed that is not an integer, fewer
            than one trial or a negative seed, before any draw.
    """
    trials = as_index(trials, CodeError, "trial count")
    seed = as_index(seed, CodeError, "seed")
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
