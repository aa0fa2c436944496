"""Dense state-vector simulation of small qudit registers.

A register of n qudits of dimension p is stored as a flat complex
amplitude array of length p**n.  Address 0 is the leftmost ket factor
and therefore the most significant base-p digit of the array index, so
|d0 d1 ... d_{n-1}> sits at index sum(d_k * p**(n-1-k)).

Gate application is matrix free.  A Hadamard is the one slab kernel:
it combines the two slabs of its qubit in the (before, 2, after) view
of a buffer the caller owns, in place.  CX, CCX and CZ send each basis
state to a signed basis state, so a run of them over a span of w
adjacent qubits composes into one signed permutation of length 2**w,
applied as one gather along that span's axis plus one masked negation.
A general single-qudit operator is one BLAS contraction over the
(pre, p, post) view of its address: a batched matmul when the trailing
block is long, one gemm against the operator tensored with the
identity on that block when it is short.  Every public operation
returns a fresh StateVector and leaves its argument untouched.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Type, Union

import numpy as np

from .fp_linalg import FpVector, check_prime

AMPLITUDE_TOL = 1e-10
DETERMINISM_BOUND = 1.0 - 1e-9
PURITY_BOUND = 1.0 - 1e-9
# A Monte-Carlo trial whose fidelity falls below this counts as a failure.
FIDELITY_BOUND = 1.0 - 1e-9
# A decoded amplitude within this of an exact value (a signed basis
# amplitude, or the reference state's) counts as exact.
DECODED_AMPLITUDE_TOL = 1e-8
# A disturbance that leaves less than this fraction of a state's norm
# annihilates it.
BRANCH_NORM_FLOOR = 1e-12
# A state or coefficient vector below this norm is zero; it has no
# normalized form.
ZERO_NORM_FLOOR = 1e-14
# Largest register or operator, in complex amplitudes (1 GiB), that the
# package builds; bigger requests raise a domain error before allocating.
MAX_AMPLITUDES = 2**26
# apply_single_qudit runs batched p x p matmuls when the block after its
# address holds at least this many amplitudes; below it, so many tiny
# batches cost more than one gemm of the register against (operator
# kron identity on the block).  Measured on 2 cores at 20 qubits: 16-long
# blocks take 12.9 ms as matmuls and 5.4 ms as one gemm.  32-long ones
# take 12.4 and 9.6 ms, but that 64-wide gemm raised peak RSS by 8 MB,
# and at 10 qubits it took about twice as long as the matmuls.
MATMUL_MIN_POST = 32


class StateError(ValueError):
    """Raised when a state, gate address, or measurement request is invalid."""


# ---------------------------------------------------------------------------
# Index arithmetic
# ---------------------------------------------------------------------------

def digits_to_index(digits: Sequence[int], p: int) -> int:
    """Pack base-p digits (most significant first) into a flat index."""
    index = 0
    for d in digits:
        index = index * p + int(d)
    return index


def index_to_digits(index: int, p: int, n: int) -> Tuple[int, ...]:
    """Unpack a flat index into n base-p digits, most significant first."""
    digits = []
    for k in range(n - 1, -1, -1):
        digits.append((index // p**k) % p)
    return tuple(digits)


# ---------------------------------------------------------------------------
# Registers
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class StateVector:
    """An n-qudit register of dimension-p systems.

    Attributes:
        p: qudit dimension, a supported prime.
        n: number of qudits.
        amplitudes: complex array of length p**n in the index convention
            described in the module docstring.
    """

    p: int
    n: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        check_prime(self.p)
        if self.n < 0:
            raise StateError(f"negative register size {self.n}")
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (self.p**self.n,):
            raise StateError(
                f"amplitude array has shape {self.amplitudes.shape}, "
                f"expected ({self.p**self.n},)"
            )

    def norm(self) -> float:
        """Euclidean norm, as one dot of the float64 view: NaN on a NaN
        amplitude, inf on overflow, without a warning."""
        parts = np.ascontiguousarray(self.amplitudes).view(np.float64)
        with np.errstate(over="ignore"):
            return math.sqrt(float(np.dot(parts, parts)))

    def _check_address(self, q: int) -> None:
        if not 0 <= q < self.n:
            raise StateError(f"qudit address {q} outside [0, {self.n})")


def basis_state(p: int, digits: Union[FpVector, Sequence[int]]) -> StateVector:
    """Build the computational basis state |d0 d1 ... d_{n-1}>.

    Args:
        p: qudit dimension.
        digits: digit string, most significant (leftmost factor) first.

    Returns:
        The basis state with a single unit amplitude.
    """
    check_prime(p)
    if isinstance(digits, FpVector):
        if digits.p != p:
            raise StateError(f"digit field {digits.p} does not match p={p}")
        digit_seq: Tuple[int, ...] = digits.entries
    else:
        digit_seq = tuple(int(d) for d in digits)
    for d in digit_seq:
        if not 0 <= d < p:
            raise StateError(f"digit {d} outside [0, {p})")
    n = len(digit_seq)
    amplitudes = np.zeros(p**n, dtype=np.complex128)
    amplitudes[digits_to_index(digit_seq, p)] = 1.0
    return StateVector(p=p, n=n, amplitudes=amplitudes)


def guard_norm(norm: float, floor: float, error: Type[Exception],
               what: str) -> float:
    """The one rule for a register's size: return norm if it lies in
    [floor, inf), else raise error("<what>norm <norm> outside [<floor>,
    inf)"), as the state is numerically zero, overflows or is NaN."""
    if not floor <= norm < math.inf:
        raise error(f"{what}norm {norm:.6g} outside [{floor:g}, inf)")
    return norm


def normalize(s: StateVector) -> StateVector:
    """Rescale to unit norm.

    Raises:
        StateError: if the norm lies outside [ZERO_NORM_FLOOR, inf): the
            state is numerically zero, or its norm overflows or is NaN.
    """
    norm = guard_norm(s.norm(), ZERO_NORM_FLOOR, StateError,
                      "cannot normalize a state of ")
    return StateVector(p=s.p, n=s.n, amplitudes=s.amplitudes / norm)


def states_close(a: StateVector, b: StateVector, tol: float = AMPLITUDE_TOL) -> bool:
    """Amplitude-wise equality within tolerance (phase sensitive)."""
    if a.p != b.p or a.n != b.n:
        return False
    return bool(np.max(np.abs(a.amplitudes - b.amplitudes)) <= tol)


# ---------------------------------------------------------------------------
# Qubit gate kernels (p = 2 only)
# ---------------------------------------------------------------------------

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_GATE_NAMES = {"H": "hadamard", "CX": "cnot", "CCX": "toffoli",
               "CZ": "controlled-z"}


def hadamard_in_place(amps: np.ndarray, n: int, q: int) -> None:
    """Apply the Hadamard on qubit q to a C-contiguous n-qubit buffer."""
    view = amps.reshape(2**q, 2, 2**(n - 1 - q))
    a0 = view[:, 0]
    a1 = view[:, 1]
    total = a0 + a1
    np.subtract(a0, a1, out=a1)
    a1 *= _INV_SQRT2
    np.multiply(total, _INV_SQRT2, out=a0)


def compile_gates(gates: Sequence[Tuple[str, Tuple[int, ...]]]
                  ) -> Tuple[int, tuple]:
    """Compile (kind, addresses) qubit gates, in execution order.

    An H stays a step: its address.  A maximal run of CX, CCX and CZ
    gates (target last) becomes one step (src, negate) on the span from
    the lowest to the highest touched address: it moves the amplitude at
    span index src[y] to y, negated where negate[y] holds (None if none).

    Returns:
        (span start, steps), the input of run_compiled.
    """
    touched = [q for _, qubits in gates for q in qubits]
    lo = min(touched, default=0)
    width = max(touched, default=0) - lo + 1
    index = np.arange(2**width)
    place = {q: 1 << (width - 1 - q + lo) for q in touched}
    steps: list = []
    for is_h, run in itertools.groupby(gates, key=lambda g: g[0] == "H"):
        if is_h:
            steps.extend(qubits[0] for _, qubits in run)
            continue
        src, negate = index, np.zeros(index.size, dtype=bool)
        for kind, (*controls, last) in run:
            active = np.all([index & place[q] for q in controls], axis=0)
            if kind == "CZ":
                negate = negate ^ (active & (index & place[last] > 0))
            else:
                before = np.where(active, index ^ place[last], index)
                src, negate = src[before], negate[before]
        steps.append((src, negate if negate.any() else None))
    return lo, tuple(steps)


def permute_signed(amps: np.ndarray, lo: int, src: np.ndarray,
                   negate: Optional[np.ndarray]) -> np.ndarray:
    """A fresh buffer: amps with (src, negate) applied from address lo."""
    out = np.take(amps.reshape(2**lo, src.size, -1), src, axis=1)
    if negate is not None:
        np.negative(out, out=out, where=negate[:, np.newaxis])
    return out.reshape(-1)


def run_compiled(amps: np.ndarray, n: int, offset: int,
                 compiled: Tuple[int, tuple]) -> np.ndarray:
    """Run compiled gates, each address shifted by offset, on a copy of
    an n-qubit buffer.  Addresses are trusted (see check_qubit_gate).

    Permuting and negating are exact, so the result is bit for bit that
    of the gates run one at a time.
    """
    lo, steps = compiled
    out = amps
    for step in steps:
        if isinstance(step, tuple):
            out = permute_signed(out, lo + offset, *step)
            continue
        if out is amps:
            out = amps.copy()
        hadamard_in_place(out, n, step + offset)
    return out.copy() if out is amps else out


def check_qubit_gate(s: StateVector, kind: str, qubits: Tuple[int, ...]) -> None:
    """Raise StateError unless the gate ``kind`` may act on ``qubits`` of s."""
    name = _GATE_NAMES[kind]
    if s.p != 2:
        raise StateError(f"{name} is defined for p = 2 registers, got p = {s.p}")
    if len(set(qubits)) != len(qubits):
        raise StateError(f"{name} addresses must be distinct: {qubits}")
    for q in qubits:
        s._check_address(q)


def _apply_qubit_gate(s: StateVector, kind: str,
                      qubits: Tuple[int, ...]) -> StateVector:
    check_qubit_gate(s, kind, qubits)
    out = run_compiled(s.amplitudes, s.n, 0, compile_gates([(kind, qubits)]))
    return StateVector(p=2, n=s.n, amplitudes=out)


def apply_hadamard(s: StateVector, q: int) -> StateVector:
    """Apply the Hadamard gate to qubit q."""
    return _apply_qubit_gate(s, "H", (q,))


def apply_cnot(s: StateVector, control: int, target: int) -> StateVector:
    """Apply CNOT with the given control and target qubits."""
    return _apply_qubit_gate(s, "CX", (control, target))


def apply_toffoli(s: StateVector, control_a: int, control_b: int,
                  target: int) -> StateVector:
    """Apply the doubly controlled NOT gate."""
    return _apply_qubit_gate(s, "CCX", (control_a, control_b, target))


def apply_controlled_z(s: StateVector, control: int, target: int) -> StateVector:
    """Apply controlled-Z; symmetric in its two addresses."""
    return _apply_qubit_gate(s, "CZ", (control, target))


# ---------------------------------------------------------------------------
# General qudit operations
# ---------------------------------------------------------------------------

def apply_single_qudit(s: StateVector, q: int, matrix: np.ndarray) -> StateVector:
    """Apply an arbitrary p x p operator to one qudit.

    The operator need not be unitary; callers modelling disturbances may
    pass projectors and renormalize afterwards.
    """
    s._check_address(q)
    mat = np.asarray(matrix, dtype=np.complex128)
    if mat.shape != (s.p, s.p):
        raise StateError(f"operator shape {mat.shape} != ({s.p}, {s.p})")
    pre = s.p**q
    post = s.p**(s.n - 1 - q)
    if post >= MATMUL_MIN_POST:
        out = np.matmul(mat, s.amplitudes.reshape(pre, s.p, post))
    else:
        # The transpose of kron(mat, I_post), built without np.kron's
        # outer product: entry ((b, j), (a, j)) is mat[a, b].
        wide = np.zeros((s.p, post, s.p, post), dtype=np.complex128)
        diagonal = np.arange(post)
        wide[:, diagonal, :, diagonal] = mat.T
        out = s.amplitudes.reshape(pre, s.p * post) @ wide.reshape(
            s.p * post, s.p * post)
    return StateVector(p=s.p, n=s.n, amplitudes=out.reshape(-1))


def apply_pauli(s: StateVector, q: int, b: int, shift_phase: int) -> StateVector:
    """Apply the generalized Pauli sigma^b tau^shift_phase to qudit q.

    The action on a basis digit a is
    |a> -> exp(2 pi i * shift_phase * a / p) |a + b mod p>.

    Args:
        s: input register.
        q: qudit address.
        b: cyclic shift amount in [0, p).
        shift_phase: phase gradient exponent in [0, p).
    """
    s._check_address(q)
    b = int(b) % s.p
    shift_phase = int(shift_phase) % s.p
    pre = s.p**q
    post = s.p**(s.n - 1 - q)
    view = s.amplitudes.reshape(pre, s.p, post).copy()
    if shift_phase:
        phases = np.exp(2j * np.pi * shift_phase * np.arange(s.p) / s.p)
        view *= phases[np.newaxis, :, np.newaxis]
    if b:
        view = np.roll(view, b, axis=1)
    return StateVector(p=s.p, n=s.n, amplitudes=view.reshape(-1))


# ---------------------------------------------------------------------------
# Generalized Pauli errors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PauliError:
    """A generalized Pauli operator on an n-qudit register.

    Acts on a basis string a as
    exp(2 pi i m / p) * exp(2 pi i <s, a> / p) |a + b mod p>,
    where b and s are digit vectors and m is a global phase exponent.

    Attributes:
        m: global phase exponent in [0, p).
        b: per-qudit cyclic shifts.
        s: per-qudit phase gradients.
        p: qudit dimension.
    """

    m: int
    b: Tuple[int, ...]
    s: Tuple[int, ...]
    p: int

    def __post_init__(self) -> None:
        check_prime(self.p)
        object.__setattr__(self, "b", tuple(int(v) for v in self.b))
        object.__setattr__(self, "s", tuple(int(v) for v in self.s))
        if len(self.b) != len(self.s):
            raise StateError(f"shift and phase vectors differ in length: "
                             f"{len(self.b)} vs {len(self.s)}")
        if not 0 <= self.m < self.p:
            raise StateError(f"phase exponent {self.m} outside [0, {self.p})")
        for v in self.b + self.s:
            if not 0 <= v < self.p:
                raise StateError(f"digit {v} outside [0, {self.p})")

    @property
    def n(self) -> int:
        return len(self.b)

    @property
    def weight(self) -> int:
        """Number of qudits acted on nontrivially."""
        return sum(1 for bv, sv in zip(self.b, self.s) if bv or sv)

    @classmethod
    def identity(cls, p: int, n: int) -> "PauliError":
        return cls(m=0, b=(0,) * n, s=(0,) * n, p=p)

    @classmethod
    def single(cls, p: int, n: int, q: int, b: int = 0, s: int = 0,
               m: int = 0) -> "PauliError":
        """A weight <= 1 error acting at address q."""
        if not 0 <= q < n:
            raise StateError(f"address {q} outside [0, {n})")
        bs = [0] * n
        ss = [0] * n
        bs[q] = b % p
        ss[q] = s % p
        return cls(m=m % p, b=tuple(bs), s=tuple(ss), p=p)


def apply_pauli_error(s: StateVector, e: PauliError) -> StateVector:
    """Apply a generalized Pauli error to a register.

    Raises:
        StateError: if the error and register disagree on p or n.
    """
    if e.p != s.p:
        raise StateError(f"error field {e.p} does not match register p={s.p}")
    if e.n != s.n:
        raise StateError(f"error length {e.n} does not match register n={s.n}")
    out = s
    for q in range(s.n):
        if e.b[q] or e.s[q]:
            out = apply_pauli(out, q, e.b[q], e.s[q])
    if e.m:
        phase = np.exp(2j * np.pi * e.m / s.p)
        out = StateVector(p=s.p, n=s.n, amplitudes=out.amplitudes * phase)
    elif out is s:
        out = StateVector(p=s.p, n=s.n, amplitudes=s.amplitudes.copy())
    return out


# ---------------------------------------------------------------------------
# Comparison, reduction, projection
# ---------------------------------------------------------------------------

def fidelity_up_to_phase(a: StateVector, b: StateVector) -> float:
    """Squared overlap |<a|b>|^2; insensitive to global phase.

    Raises:
        StateError: on register shape mismatch.
    """
    if a.p != b.p or a.n != b.n:
        raise StateError(f"register mismatch: ({a.p},{a.n}) vs ({b.p},{b.n})")
    return float(np.abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def reduced_density(s: StateVector, q: int) -> np.ndarray:
    """Trace out all qudits except q; returns its p x p density matrix."""
    s._check_address(q)
    view = s.amplitudes.reshape(s.p**q, s.p, s.p**(s.n - 1 - q))
    return np.einsum("iaj,ibj->ab", view, view.conj())


def project_register(s: StateVector, lo: int, width: int, norm2: float,
                     error: Type[Exception] = StateError
                     ) -> Tuple[np.ndarray, StateVector]:
    """Measure the qudits at addresses [lo, lo + width).

    Outcome j packs the span's digits, most significant first; its
    probability is its branch's squared norm over norm2, the squared norm
    of the register this one was reduced from (or its own).

    Returns:
        (outcome probabilities, the likeliest branch normalized, on the
        unmeasured qudits in their order).

    Raises:
        StateError: on a span outside the register.
        error: when the likeliest branch's norm lies outside
            [ZERO_NORM_FLOOR, inf): the register is zero, NaN or overflows.
    """
    if not 0 <= lo <= lo + width <= s.n:
        raise StateError(
            f"measured span [{lo}, {lo + width}) outside [0, {s.n}]")
    view = np.ascontiguousarray(s.amplitudes).reshape(s.p**lo, s.p**width, -1)
    parts = view.view(np.float64)
    # einsum checks no floating-point flags, so an overflow is a quiet inf.
    branch2 = np.einsum("ijk,ijk->j", parts, parts)
    top = int(np.argmax(branch2))
    norm = guard_norm(math.sqrt(branch2[top]), ZERO_NORM_FLOOR, error,
                      "cannot normalize a measured branch of ")
    branch = view[:, top] / norm
    return branch2 / norm2, StateVector(p=s.p, n=s.n - width,
                                        amplitudes=branch.reshape(-1))


# ---------------------------------------------------------------------------
# Factor extraction
# ---------------------------------------------------------------------------

def split_factor(s: StateVector, keep: Sequence[int]
                 ) -> Tuple[StateVector, StateVector, float]:
    """Split a (near) product state into kept and dropped factors.

    B is the kept x dropped matrix of the state scaled to unit norm and
    rho = B B^dagger.  The purity ||rho||_F^2 / tr(rho)^2 is
    sum(sigma^4) / sum(sigma^2)^2 over B's singular values.  The kept
    factor is rho times B's longest column, normalized: one power step,
    within about 1e-13 of the top left singular vector above
    PURITY_BOUND.  The dropped factor is kept^dagger B, normalized.  The
    roles swap if the kept side is the larger, so rho stays small.

    The kept addresses are sorted into ascending order in the returned
    factor.  The dropped factor's largest amplitude is rotated to the
    positive real axis; the kept factor absorbs the compensating phase,
    so the pair multiplies back to the original state.

    Returns:
        (kept factor, dropped factor, purity of the kept subsystem).

    Raises:
        StateError: on a bad address, or a norm outside
            [ZERO_NORM_FLOOR, inf).
    """
    kept_addrs = sorted(set(int(q) for q in keep))
    for q in kept_addrs:
        s._check_address(q)
    norm = guard_norm(s.norm(), ZERO_NORM_FLOOR, StateError,
                      "cannot split a state of zero or non-finite norm: ")
    rest = [q for q in range(s.n) if q not in kept_addrs]
    block = np.transpose(s.amplitudes.reshape((s.p,) * s.n),
                         kept_addrs + rest).reshape(s.p**len(kept_addrs), -1)
    flip = block.shape[0] > block.shape[1]
    block = (block.T if flip else block) / norm
    rho = block @ block.conj().T
    purity = float(np.vdot(rho, rho).real / np.trace(rho).real ** 2)
    longest = int(np.argmax(np.einsum("ij,ij->j", block, block.conj()).real))
    left = rho @ block[:, longest]
    left /= np.linalg.norm(left)
    right = left.conj() @ block
    right /= np.linalg.norm(right)
    kept_vec, dropped_vec = (right, left) if flip else (left, right)
    anchor = int(np.argmax(np.abs(dropped_vec)))
    phase = dropped_vec[anchor] / abs(dropped_vec[anchor])
    dropped_vec = dropped_vec * np.conj(phase)
    kept_vec = kept_vec * phase
    kept = StateVector(p=s.p, n=len(kept_addrs), amplitudes=kept_vec)
    dropped = StateVector(p=s.p, n=s.n - len(kept_addrs), amplitudes=dropped_vec)
    return kept, dropped, purity


# ---------------------------------------------------------------------------
# Random inputs for sweeps
# ---------------------------------------------------------------------------

def random_state(p: int, n: int, rng: np.random.Generator) -> StateVector:
    """Draw a Haar-like random pure state from complex normal amplitudes."""
    check_prime(p)
    amps = rng.normal(size=p**n) + 1j * rng.normal(size=p**n)
    return normalize(StateVector(p=p, n=n, amplitudes=amps))


def random_single_qubit_unitary(rng: np.random.Generator) -> np.ndarray:
    """Draw a Haar-random 2 x 2 unitary."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))
