"""State-vector checks kept out of the library.

No library path compares two registers or takes a partial trace; the
tests and the acceptance criteria do.  states_close is amplitude-wise
equality within a tolerance, and reduced_density the one-qudit marginal
of a register.
"""

import numpy as np

from concatqec.statevec import StateVector

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
