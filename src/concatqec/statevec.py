"""Dense state-vector simulation of small qudit registers.

A register of n qudits of dimension p is stored as a flat complex
amplitude array of length p**n.  Address 0 is the leftmost ket factor
and therefore the most significant base-p digit of the array index, so
|d0 d1 ... d_{n-1}> sits at index sum(d_k * p**(n-1-k)).

Every public operation returns a fresh StateVector and leaves its
argument untouched.  One check, as_index, refuses a count, index or
digit that is not an integer, where int() would truncate it.

Every size check reads one squared norm, norm2, through one guard,
guard_norm.  One split, split_matrix, takes a near-product kept x
dropped matrix apart into its two factors for any p; its callers build
that matrix from their own layout.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Sequence, Tuple, Type, Union

import numpy as np

from .fp_linalg import FpVector, check_prime

DETERMINISM_BOUND = 1.0 - 1e-9
PURITY_BOUND = 1.0 - 1e-9
# A Monte-Carlo trial whose fidelity falls below this counts as a failure.
FIDELITY_BOUND = 1.0 - 1e-9
# A disturbance that leaves less than this fraction of a state's norm
# annihilates it.
BRANCH_NORM_FLOOR = 1e-12
# A state or coefficient vector below this norm is zero; it has no
# normalized form.
ZERO_NORM_FLOOR = 1e-14
# Largest register or operator, in complex amplitudes (1 GiB), that the
# package builds; bigger requests raise a domain error before allocating.
MAX_AMPLITUDES = 2**26


class StateError(ValueError):
    """Raised when a state or gate address is invalid."""


def as_index(value: object, error: Type[Exception], what: str) -> int:
    """value as an int (numpy integers pass), or error("<what> <value!r>
    is not an integer"); a float, string or None is never truncated.
    Range checks stay with the caller."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} {value!r} is not an integer") from None


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
        """Euclidean norm; see norm2."""
        return math.sqrt(norm2(self.amplitudes))

    def _check_address(self, q: int) -> None:
        if not 0 <= q < self.n:
            raise StateError(f"qudit address {q} outside [0, {self.n})")


def norm2(amplitudes: np.ndarray) -> float:
    """Squared Euclidean norm of a complex array, as one einsum over its
    float64 view: NaN on a NaN amplitude, and inf on overflow without a
    warning, as einsum checks no floating-point flags."""
    parts = np.ascontiguousarray(amplitudes).view(np.float64).reshape(-1)
    return float(np.einsum("i,i->", parts, parts))


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
        object.__setattr__(self, "m", as_index(self.m, StateError,
                                               "phase exponent"))
        object.__setattr__(self, "b", tuple(
            as_index(v, StateError, "digit") for v in self.b))
        object.__setattr__(self, "s", tuple(
            as_index(v, StateError, "digit") for v in self.s))
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
        q = as_index(q, StateError, "address")
        b, s, m = (as_index(v, StateError, what)
                   for v, what in ((b, "digit"), (s, "digit"),
                                   (m, "phase exponent")))
        if not 0 <= q < n:
            raise StateError(f"address {q} outside [0, {n})")
        bs = [0] * n
        ss = [0] * n
        bs[q] = b % p
        ss[q] = s % p
        return cls(m=m % p, b=tuple(bs), s=tuple(ss), p=p)


@functools.lru_cache(maxsize=None)
def _roots(p: int) -> np.ndarray:
    """exp(2 pi i k / p) for k in [0, p), read-only; at p = 2 exactly
    +-1, where exp(i pi) would leave an imaginary part of 1.2e-16."""
    roots = np.exp(2j * np.pi * np.arange(p) / p)
    if p == 2:
        roots[1] = -1
    roots.flags.writeable = False
    return roots


@functools.lru_cache(maxsize=None)
def _phase_column(p: int, gradient: int, shift: int, m: int) -> np.ndarray:
    """The phases a qudit's output digit y takes: exp(2 pi i (m +
    gradient * (y - shift)) / p), as y came from y - shift."""
    column = _roots(p)[(gradient * (np.arange(p) - shift) + m) % p]
    column = column[:, np.newaxis]
    column.flags.writeable = False
    return column


def apply_pauli_error(s: StateVector, e: PauliError) -> StateVector:
    """Apply a generalized Pauli error to a register.

    Amplitude y comes from y - b, digit by digit mod p: each shifted
    qudit's axis is rotated by two slice copies.  Each phased qudit's
    axis is then multiplied
    by a p-entry column of roots of unity, with the global phase folded
    into the first.  The roots are exact where they are +-1, so at p = 2
    a Z only negates.

    Raises:
        StateError: if the error and register disagree on p or n.
    """
    if e.p != s.p:
        raise StateError(f"error field {e.p} does not match register p={s.p}")
    if e.n != s.n:
        raise StateError(f"error length {e.n} does not match register n={s.n}")
    p, n = s.p, s.n
    out = s.amplitudes
    for q, shift in enumerate(e.b):
        if shift:
            source = out.reshape(p**q, p, -1)
            moved = np.empty_like(source)
            moved[:, shift:] = source[:, :p - shift]
            moved[:, :shift] = source[:, p - shift:]
            out = moved.reshape(-1)
    if out is s.amplitudes:
        out = out.copy()
    m = e.m
    for q, (shift, gradient) in enumerate(zip(e.b, e.s)):
        if gradient:
            view = out.reshape(p**q, p, -1)
            view *= _phase_column(p, gradient, shift, m)
            m = 0
    if m:
        out *= _roots(p)[m]
    return StateVector(p=p, n=n, amplitudes=out)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def fidelity_up_to_phase(a: StateVector, b: StateVector) -> float:
    """Squared overlap |<a|b>|^2; insensitive to global phase.

    Raises:
        StateError: on register shape mismatch.
    """
    if a.p != b.p or a.n != b.n:
        raise StateError(f"register mismatch: ({a.p},{a.n}) vs ({b.p},{b.n})")
    return float(np.abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


# ---------------------------------------------------------------------------
# Factor extraction
# ---------------------------------------------------------------------------

def split_matrix(block: np.ndarray, norm: float
                 ) -> Tuple[np.ndarray, np.ndarray, float]:
    """Split a (near) product kept x dropped matrix into its two factors.

    B is block / norm and rho = B B^dagger.  The purity ||rho||_F^2 /
    tr(rho)^2 is sum(sigma^4) / sum(sigma^2)^2 over B's singular values.
    The kept factor is rho times B's longest column, normalized: one
    power step, within about 1e-13 of the top left singular vector above
    PURITY_BOUND.  The dropped factor is kept^dagger B, normalized.  The
    roles swap if the kept side is the larger, so rho stays small.

    The dropped factor's largest amplitude is rotated to the positive
    real axis; the kept factor absorbs the compensating phase, so the
    pair multiplies back to block / norm.

    Returns:
        (kept factor, dropped factor, purity of the kept side).
    """
    flip = block.shape[0] > block.shape[1]
    block = (block.T if flip else block) / norm
    rho = block @ block.conj().T
    purity = float(np.vdot(rho, rho).real / rho.trace().real ** 2)
    longest = int(np.einsum("ij,ij->j", block, block.conj()).real.argmax())
    left = rho @ block[:, longest]
    left /= np.linalg.norm(left)
    right = left.conj() @ block
    right /= np.linalg.norm(right)
    kept, dropped = (right, left) if flip else (left, right)
    anchor = int(np.abs(dropped).argmax())
    phase = dropped[anchor] / abs(dropped[anchor])
    return kept * phase, dropped * np.conj(phase), purity


# ---------------------------------------------------------------------------
# Random inputs for sweeps
# ---------------------------------------------------------------------------

def random_state(p: int, n: int, rng: np.random.Generator) -> StateVector:
    """Draw a Haar-like random pure state from complex normal amplitudes.

    Raises:
        StateError: on a register size that is not an integer >= 0,
            before any draw.
    """
    check_prime(p)
    n = as_index(n, StateError, "register size")
    if n < 0:
        raise StateError(f"negative register size {n}")
    amps = rng.normal(size=p**n) + 1j * rng.normal(size=p**n)
    return normalize(StateVector(p=p, n=n, amplitudes=amps))


def random_single_qubit_unitary(rng: np.random.Generator) -> np.ndarray:
    """Draw a Haar-random 2 x 2 unitary."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))
