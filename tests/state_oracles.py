"""State-vector checks kept out of the library.

No library path compares two registers, takes a partial trace, measures
an arbitrary span of addresses or splits a register at arbitrary
addresses; the tests and the acceptance criteria do.  states_close is
amplitude-wise equality within a tolerance, reduced_density the
one-qudit marginal of a register, project_register the general readout
that graph_code.decode's syndrome readout is checked against, and
split_factor the address front end of the library's one split,
statevec.split_matrix.
"""

import math
from typing import Sequence, Tuple, Type

import numpy as np

from concatqec.statevec import (
    ZERO_NORM_FLOOR,
    StateError,
    StateVector,
    guard_norm,
    split_matrix,
)

AMPLITUDE_TOL = 1e-10


def states_close(a: StateVector, b: StateVector, tol: float = AMPLITUDE_TOL) -> bool:
    """Amplitude-wise equality within tolerance (phase sensitive)."""
    if a.p != b.p or a.n != b.n:
        return False
    return bool(np.max(np.abs(a.amplitudes - b.amplitudes)) <= tol)


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


def split_factor(s: StateVector, keep: Sequence[int]
                 ) -> Tuple[StateVector, StateVector, float]:
    """Split a (near) product state into kept and dropped factors.

    The state's kept x dropped matrix, read through one transpose of its
    qudit axes, goes to split_matrix with the state's norm.  The kept
    addresses are sorted into ascending order in the returned factor.

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
    kept, dropped, purity = split_matrix(block, norm)
    return (StateVector(p=s.p, n=len(kept_addrs), amplitudes=kept),
            StateVector(p=s.p, n=len(rest), amplitudes=dropped), purity)
