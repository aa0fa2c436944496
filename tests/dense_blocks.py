"""Dense block isometries for the concatenated code, kept as an oracle.

The concatenated code once held each block's encoder isometry E as a
dense 2**(2n) x 2**c matrix.  Encoding contracted E with every block
axis of the outer codeword, and the inner stage contracted E^dagger
with every undamaged block.  The library now keeps only E's nonzero
rows: it scatters the encoded core into the register and gathers the
support rows back.  The tests require its encoding to equal this
path's bit for bit and its inner stage to agree to rounding.
"""

import functools
from typing import List, Sequence, Tuple

import numpy as np

from concatqec.concat import ConcatScheme, ChannelEvent, _map_block
from concatqec.ghz_erasure import (
    build_decoder,
    build_encoder,
    build_recovery,
    split_recovered,
)
from concatqec.graph_code import DecodeError, LogicalState, encode
from concatqec.statevec import (
    DETERMINISM_BOUND,
    StateVector,
    basis_state,
    index_to_digits,
)


def project_zero(s: StateVector, addrs: Sequence[int]
                 ) -> Tuple[float, StateVector]:
    """A plain-numpy readout: the probability that the qubits at addrs
    all read |0>, and the normalized state of the others given that."""
    cube = s.amplitudes.reshape((2,) * s.n)
    branch = cube[tuple(0 if q in addrs else slice(None)
                        for q in range(s.n))]
    weight = np.sum(np.abs(branch) ** 2)
    rest = StateVector(p=2, n=s.n - len(addrs),
                       amplitudes=branch.reshape(-1) / np.sqrt(weight))
    return weight / np.sum(np.abs(cube) ** 2), rest


@functools.lru_cache(maxsize=None)
def dense_isometry(n: int, c: int) -> np.ndarray:
    """Column j is build_encoder(n) applied to |j> on message addresses
    0..c-1 with every other qubit at |0>."""
    return np.stack([
        build_encoder(n).apply(basis_state(
            2, index_to_digits(j, 2, c) + (0,) * (2 * n - c))).amplitudes
        for j in range(2**c)], axis=1)


def dense_encode(scheme: ConcatScheme, v: LogicalState) -> StateVector:
    """Contract E with each block axis of the outer codeword, last first."""
    t = encode(scheme.outer, v).amplitudes.reshape(
        [2**len(carried) for carried in scheme.assignment])
    for b in reversed(range(scheme.blocks)):
        t = _map_block(t, b, dense_isometry(scheme.inner.n,
                                            len(scheme.assignment[b])))
    return StateVector(p=2, n=scheme.total_qubits, amplitudes=t.reshape(-1))


def dense_inner_stage(scheme: ConcatScheme, s: StateVector,
                      event: ChannelEvent) -> StateVector:
    """Contract E^dagger with every undamaged block, run decoder and
    recovery on the erased block, check that padding and ancillas read
    |0> (for a unit-norm register), and split off the damaged half."""
    n_in, span = scheme.inner.n, scheme.inner.total
    erasure = event.erasure
    erased = event.block if erasure is not None else None
    t = s.amplitudes.reshape((2**span,) * scheme.blocks)
    for block, carried in enumerate(scheme.assignment):
        if block != erased:
            adjoint = dense_isometry(n_in, len(carried)).conj().T
            t = _map_block(t, block, adjoint)
    state = StateVector(p=2, n=int(np.log2(t.size)), amplitudes=t.reshape(-1))
    zero_addrs: List[int] = []
    if erasure is not None:
        base = sum(map(len, scheme.assignment[:event.block]))
        c = len(scheme.assignment[event.block])
        state = build_decoder(n_in, erasure).apply(state, offset=base)
        state = build_recovery(n_in, erasure).apply(state, offset=base)
        content = base + n_in if erasure.side == "message" else base
        zero_addrs = list(range(content + c, content + n_in))
    if zero_addrs or state.n < s.n:
        prob, state = project_zero(state, zero_addrs)
        if prob <= DETERMINISM_BOUND:
            raise DecodeError("padding or ancilla qubits excited")
    if erasure is None:
        return state
    damaged = base if erasure.side == "message" else base + c
    kept, _dropped = split_recovered(
        state, [q for q in range(state.n)
                if not damaged <= q < damaged + n_in])
    return kept
