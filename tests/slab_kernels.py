"""Gate-by-gate slab kernels for p = 2 registers, kept as an oracle.

Qubit gates once ran this way in the library: a register is a (2,)*n
cube, a controlled X swaps the target-0 and target-1 slabs of the slice
where its controls are 1, a controlled Z negates the slice where both
qubits are 1, and a Hadamard combines the two slabs of its axis.  Each
kernel overwrites a C-contiguous buffer in place.  The library now
composes runs of CX, CCX and CZ into one signed permutation; the tests
require its output to equal this path's bit for bit.
"""

from typing import Dict, Iterable, Tuple

import numpy as np

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _fixed_slice(amps: np.ndarray, n: int,
                 fixed: Dict[int, int]) -> np.ndarray:
    """View of the (2,)*n cube with the axes in ``fixed`` held at given
    bits; the trailing Ellipsis keeps a 0-d result a view."""
    index = tuple(fixed.get(axis, slice(None)) for axis in range(n))
    return amps.reshape((2,) * n)[(*index, Ellipsis)]


def _hadamard(amps: np.ndarray, n: int, qubits: Tuple[int, ...]) -> None:
    (q,) = qubits
    a0 = _fixed_slice(amps, n, {q: 0})
    a1 = _fixed_slice(amps, n, {q: 1})
    total = a0 + a1
    np.subtract(a0, a1, out=a1)
    a1 *= _INV_SQRT2
    np.multiply(total, _INV_SQRT2, out=a0)


def _controlled_x(amps: np.ndarray, n: int, qubits: Tuple[int, ...]) -> None:
    """Flip the last qubit where all the others are 1 (CX and CCX)."""
    *controls, target = qubits
    fixed = dict.fromkeys(controls, 1)
    low = _fixed_slice(amps, n, {**fixed, target: 0})
    high = _fixed_slice(amps, n, {**fixed, target: 1})
    saved = low.copy()
    low[...] = high
    high[...] = saved


def _controlled_z(amps: np.ndarray, n: int, qubits: Tuple[int, ...]) -> None:
    both = _fixed_slice(amps, n, dict.fromkeys(qubits, 1))
    np.negative(both, out=both)


KERNELS = {"H": _hadamard, "CX": _controlled_x, "CCX": _controlled_x,
           "CZ": _controlled_z}


def run_gates(amps: np.ndarray, n: int,
              gates: Iterable[Tuple[str, Tuple[int, ...]]]) -> np.ndarray:
    """Run (kind, register addresses) gates in order on a copy of amps."""
    out = amps.copy()
    for kind, qubits in gates:
        KERNELS[kind](out, n, qubits)
    return out
