"""Dense block isometries and gate programs, kept as the inner oracle.

The concatenated code once held each block's encoder isometry E as a
dense 2**(2n) x 2**c matrix.  Encoding contracted E with every block
axis of the outer codeword, and the inner stage contracted E^dagger
with every undamaged block.  The library now keeps only E's nonzero
rows, and its register keeps one axis per block: carried (E implied,
never applied) until the block is hit, physical after.  It never builds
the dense register; dense_form does, by contracting every carried axis
with the dense E.  The tests require the library's support-row scatter
of each axis to equal this path bit for bit, and its inner stage to
agree with this path's on the dense form to rounding.

The library decodes an erased block by erased_rows, which runs the
decoder and recovery programs along the block's axis and keeps the
rows whose padding reads 0, then split_erased, which splits them as a
dropped x kept matrix.  Here the same programs run on the whole
register, and split_checked splits the surviving half off by address:
program_recover on one block is recover's oracle, and
dense_inner_stage, on every block of the dense form, concat's.
"""

import functools
from typing import List, Sequence, Tuple

import numpy as np

from concatqec.concat import (
    BlockRegister,
    ChannelEvent,
    ConcatScheme,
    _map_block,
)
from concatqec.ghz_erasure import (
    ErasurePosition,
    RecoveryError,
    build_decoder,
    build_encoder,
    build_recovery,
)
from concatqec.graph_code import DecodeError
from concatqec.statevec import (
    DETERMINISM_BOUND,
    PURITY_BOUND,
    StateVector,
    basis_state,
    index_to_digits,
)
from state_oracles import split_factor


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


def dense_form(register: BlockRegister) -> StateVector:
    """Contract E with each carried axis of the register, last first."""
    scheme = register.scheme
    t = register.core
    for b in reversed(range(scheme.blocks)):
        if not register.physical(b):
            t = _map_block(t, b, dense_isometry(scheme.inner.n,
                                                len(scheme.assignment[b])))
    return StateVector(p=2, n=scheme.total_qubits, amplitudes=t.reshape(-1))


def physical_blocks(scheme: ConcatScheme, s: StateVector) -> BlockRegister:
    """The dense register s as a block register with every axis physical."""
    return BlockRegister(scheme, s.amplitudes.reshape(
        (2**scheme.inner.total,) * scheme.blocks))


def split_checked(s: StateVector, keep: Sequence[int]
                  ) -> Tuple[StateVector, StateVector]:
    """split_factor at the addresses keep, refused with the library's
    RecoveryError text when the kept side's purity is at most
    PURITY_BOUND."""
    kept, dropped, purity = split_factor(s, keep)
    if purity <= PURITY_BOUND:
        raise RecoveryError(
            "recovery failed: residual entanglement with the damaged half "
            f"(purity {purity:.12g} <= bound {PURITY_BOUND:.12g})")
    return kept, dropped


def program_recover(s: StateVector, pos: ErasurePosition
                    ) -> Tuple[StateVector, StateVector]:
    """recover by the programs: decoder then recovery on the 2n-qubit
    register, then the surviving half split off the damaged one."""
    n = pos.n
    staged = build_recovery(n, pos).apply(build_decoder(n, pos).apply(s))
    return split_checked(
        staged, range(n, 2 * n) if pos.side == "message" else range(n))


def dense_inner_stage(scheme: ConcatScheme, register: BlockRegister,
                      event: ChannelEvent) -> StateVector:
    """concat's inner stage on the register's dense form.

    Contract E^dagger with every undamaged block, run decoder and
    recovery on the erased block, check that padding and ancillas read
    |0> (for a unit-norm register), and split off the damaged half.
    """
    s = dense_form(register)
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
    kept, _dropped = split_checked(
        state, [q for q in range(state.n)
                if not damaged <= q < damaged + n_in])
    return kept
