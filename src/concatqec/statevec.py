"""Dense state-vector simulation of small qudit registers.

A register of n qudits of dimension p is stored as a flat complex
amplitude array of length p**n.  Address 0 is the leftmost ket factor
and therefore the most significant base-p digit of the array index, so
|d0 d1 ... d_{n-1}> sits at index sum(d_k * p**(n-1-k)).

Gate application is matrix free and works on reshaped views, never on
index arrays.  The qubit kernels see a register as a (2,)*n cube: a
Hadamard combines the two slices of its axis, a controlled X (CNOT or
Toffoli) swaps the target-0 and target-1 slabs of the control-1 slice,
and a controlled Z negates the slice where both qubits are 1.  They
write in place into a buffer the caller owns.  A general single-qudit
operator is one BLAS contraction over the (pre, p, post) view of its
address: a batched matmul when the trailing block is long, one gemm
against the operator tensored with the identity on that block when it
is short.  Every public operation returns a fresh StateVector and
leaves its argument untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple, Union

import numpy as np

from .fp_linalg import FpVector, check_prime

AMPLITUDE_TOL = 1e-10
HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-10
DETERMINISM_BOUND = 1.0 - 1e-9
PURITY_BOUND = 1.0 - 1e-9
# A Monte-Carlo trial whose fidelity falls below this counts as a failure.
FIDELITY_BOUND = 1.0 - 1e-9
# A decoded amplitude within this of an exact value (a signed basis
# amplitude, or the reference state's) counts as exact.
DECODED_AMPLITUDE_TOL = 1e-8
# A measured branch or a disturbed state below this norm is annihilated.
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

    @property
    def dim(self) -> int:
        return self.p**self.n

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def _check_address(self, q: int) -> None:
        if not 0 <= q < self.n:
            raise StateError(f"qudit address {q} outside [0, {self.n})")


@dataclass(eq=False)
class DensityMatrix:
    """A single-qudit density matrix with physicality checks at construction.

    Attributes:
        p: qudit dimension.
        matrix: p x p complex matrix; must be Hermitian within 1e-12,
            unit trace within 1e-12, and positive semidefinite within 1e-10.
    """

    p: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        check_prime(self.p)
        self.matrix = np.asarray(self.matrix, dtype=np.complex128)
        if self.matrix.shape != (self.p, self.p):
            raise StateError(f"density matrix shape {self.matrix.shape} != "
                             f"({self.p}, {self.p})")
        if np.max(np.abs(self.matrix - self.matrix.conj().T)) > HERMITIAN_TOL:
            raise StateError("density matrix is not Hermitian")
        if abs(np.trace(self.matrix) - 1.0) > HERMITIAN_TOL:
            raise StateError("density matrix trace differs from 1")
        if np.min(np.linalg.eigvalsh(self.matrix)) < -PSD_TOL:
            raise StateError("density matrix has a negative eigenvalue")

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


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


def normalize(s: StateVector) -> StateVector:
    """Rescale to unit norm.

    Raises:
        StateError: if the state is numerically zero.
    """
    norm = s.norm()
    if norm < ZERO_NORM_FLOOR:
        raise StateError("cannot normalize a zero state")
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


def _fixed_slice(amps: np.ndarray, n: int,
                 fixed: Dict[int, int]) -> np.ndarray:
    """View of an n-qubit buffer as a (2,)*n cube, with the axes in
    ``fixed`` held at given bits.

    The trailing Ellipsis keeps the result a view (0-d when every axis
    is fixed) rather than a scalar copy.
    """
    index = tuple(fixed.get(axis, slice(None)) for axis in range(n))
    return amps.reshape((2,) * n)[(*index, Ellipsis)]


def _hadamard_in_place(amps: np.ndarray, n: int, qubits: Tuple[int, ...]) -> None:
    (q,) = qubits
    a0 = _fixed_slice(amps, n, {q: 0})
    a1 = _fixed_slice(amps, n, {q: 1})
    total = a0 + a1
    np.subtract(a0, a1, out=a1)
    a1 *= _INV_SQRT2
    np.multiply(total, _INV_SQRT2, out=a0)


def _controlled_x_in_place(amps: np.ndarray, n: int,
                           qubits: Tuple[int, ...]) -> None:
    """Flip the last qubit where all the others are 1 (CX and CCX)."""
    *controls, target = qubits
    fixed = dict.fromkeys(controls, 1)
    low = _fixed_slice(amps, n, {**fixed, target: 0})
    high = _fixed_slice(amps, n, {**fixed, target: 1})
    saved = low.copy()
    low[...] = high
    high[...] = saved


def _controlled_z_in_place(amps: np.ndarray, n: int,
                           qubits: Tuple[int, ...]) -> None:
    both = _fixed_slice(amps, n, dict.fromkeys(qubits, 1))
    np.negative(both, out=both)


# Gate kind -> in-place kernel.  A kernel overwrites a C-contiguous
# amplitude buffer of an n-qubit register and trusts its addresses;
# check_qubit_gate validates them first.
QUBIT_KERNELS: Dict[str, Callable[[np.ndarray, int, Tuple[int, ...]], None]] = {
    "H": _hadamard_in_place,
    "CX": _controlled_x_in_place,
    "CCX": _controlled_x_in_place,
    "CZ": _controlled_z_in_place,
}
_GATE_NAMES = {"H": "hadamard", "CX": "cnot", "CCX": "toffoli",
               "CZ": "controlled-z"}


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
    out = s.amplitudes.copy()
    QUBIT_KERNELS[kind](out, s.n, qubits)
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


def reduced_density(s: StateVector, q: int) -> DensityMatrix:
    """Trace out all qudits except q and return its density matrix."""
    s._check_address(q)
    pre = s.p**q
    post = s.p**(s.n - 1 - q)
    view = s.amplitudes.reshape(pre, s.p, post)
    rho = np.einsum("iaj,ibj->ab", view, view.conj())
    return DensityMatrix(p=s.p, matrix=rho)


def _register_split(s: StateVector, qs: Sequence[int]) -> np.ndarray:
    """Reshape amplitudes to (outcomes of qs) x (rest), qs most significant."""
    addrs = list(qs)
    if len(set(addrs)) != len(addrs):
        raise StateError("measured addresses must be distinct")
    for q in addrs:
        s._check_address(q)
    rest = [q for q in range(s.n) if q not in addrs]
    perm = addrs + rest
    cube = s.amplitudes.reshape((s.p,) * s.n) if s.n else s.amplitudes.reshape(())
    moved = np.transpose(cube, perm) if s.n else cube
    return moved.reshape(s.p ** len(addrs), s.p ** len(rest))


def register_probabilities(s: StateVector, qs: Sequence[int]) -> np.ndarray:
    """Outcome distribution of a projective measurement of the qudits qs.

    Outcome index packs the digits of qs in the order given, most
    significant first.
    """
    block = _register_split(s, qs)
    return np.sum(np.abs(block) ** 2, axis=1)


def project_register(s: StateVector, qs: Sequence[int],
                     digits: Sequence[int]) -> StateVector:
    """Condition on a measurement outcome and drop the measured qudits.

    Returns:
        The renormalized state of the unmeasured qudits, which keep
        their relative order.

    Raises:
        StateError: if the outcome has vanishing probability.
    """
    addrs = list(qs)
    block = _register_split(s, addrs)
    outcome = digits_to_index(digits, s.p)
    if not 0 <= outcome < block.shape[0]:
        raise StateError(f"outcome {tuple(digits)} out of range")
    branch = block[outcome]
    norm = np.linalg.norm(branch)
    if norm < BRANCH_NORM_FLOOR:
        raise StateError(f"outcome {tuple(digits)} has zero probability")
    return StateVector(p=s.p, n=s.n - len(addrs), amplitudes=branch / norm)


# ---------------------------------------------------------------------------
# Factor extraction
# ---------------------------------------------------------------------------

def split_factor(s: StateVector, keep: Sequence[int]
                 ) -> Tuple[StateVector, StateVector, float]:
    """Split a (near) product state into kept and dropped factors.

    The kept addresses are sorted into ascending order in the returned
    factor.  The dropped factor's largest amplitude is rotated to the
    positive real axis; the kept factor absorbs the compensating phase,
    so the pair multiplies back to the original state.

    Returns:
        (kept factor, dropped factor, purity of the kept subsystem).
        Purity 1 certifies a clean product; callers decide how much
        residual entanglement to tolerate.
    """
    kept_addrs = sorted(set(int(q) for q in keep))
    for q in kept_addrs:
        s._check_address(q)
    dropped_addrs = [q for q in range(s.n) if q not in kept_addrs]
    perm = kept_addrs + dropped_addrs
    cube = s.amplitudes.reshape((s.p,) * s.n)
    block = np.transpose(cube, perm).reshape(
        s.p ** len(kept_addrs), s.p ** len(dropped_addrs))
    u, sv, vh = np.linalg.svd(block, full_matrices=False)
    total = float(np.sum(sv**2))
    purity = float(np.sum(sv**4)) / (total**2)
    kept_vec = u[:, 0]
    dropped_vec = vh[0, :]
    anchor = int(np.argmax(np.abs(dropped_vec)))
    phase = dropped_vec[anchor] / abs(dropped_vec[anchor])
    dropped_vec = dropped_vec * np.conj(phase)
    kept_vec = kept_vec * phase
    kept = StateVector(p=s.p, n=len(kept_addrs), amplitudes=kept_vec)
    dropped = StateVector(p=s.p, n=len(dropped_addrs), amplitudes=dropped_vec)
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
