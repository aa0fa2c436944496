"""Dense block isometries, physical blocks and gate programs: the inner
oracle.

The library holds a register in one form: the carried core, one axis
of 2**c codeword amplitudes per block with the encoder isometry E
implied, plus the hits recorded on it, each a 2 x 2 operator on one
qubit of one block.  It never builds a block's register amplitudes; it
decodes every hit block through one composed map.  Here the same
register is built physically, by the gate programs and dense matrices:

* dense_form contracts every carried axis with the dense 2**(2n) x 2**c
  matrix E, then applies each recorded hit by apply_single_qudit, so its
  squared norm is the physical register's.  physical_inner_stage runs
  decoder and recovery on the erased block of a physical register and
  contracts every other block with E^dagger, and dense_inner_stage runs
  it on the dense form: the oracle for schemes whose whole register
  fits, whole-register blocking and per-qubit at inner n = 2.
* blockwise_inner_stage makes one block physical at a time: each hit
  block without the declared erasure becomes the 2**c x 2**c matrix
  E^dagger (its hits) E along its axis, and only the declared block's
  axis is physical when its programs run.  It is the oracle at every
  inner n, as the old library's physical-axis decode was.

corrupt_qubit, which the library once applied to a physical axis at
damage, apply_single_qudit, its kernel, and axis_rows, the decode of a
physical axis, live here as the oracle of the recorded hit and its
composed map.  program_recover on one block is recover's oracle.
"""

import functools
import math
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from concatqec.concat import BlockRegister, ChannelEvent, ConcatScheme
from concatqec.ghz_erasure import (
    ErasurePosition,
    GhzError,
    RecoveryError,
    build_decoder,
    build_encoder,
    build_recovery,
    resolve_corruption,
)
from concatqec.graph_code import DecodeError
from concatqec.statevec import (
    BRANCH_NORM_FLOOR,
    DETERMINISM_BOUND,
    PURITY_BOUND,
    ZERO_NORM_FLOOR,
    StateError,
    StateVector,
    basis_state,
    guard_norm,
    index_to_digits,
    norm2,
)
from state_oracles import split_factor

CORRUPTION_FAILED = "corruption annihilated the state or overflowed its norm: "


def apply_single_qudit(s: StateVector, q: int, matrix: np.ndarray
                       ) -> StateVector:
    """Apply an arbitrary p x p operator to one qudit, as one batched
    matmul over the (pre, p, post) view of its address.

    The operator need not be unitary; callers modelling disturbances may
    pass projectors and renormalize afterwards.
    """
    s._check_address(q)
    mat = np.asarray(matrix, dtype=np.complex128)
    if mat.shape != (s.p, s.p):
        raise StateError(f"operator shape {mat.shape} != ({s.p}, {s.p})")
    pre = s.p**q
    post = s.p**(s.n - 1 - q)
    out = np.matmul(mat, s.amplitudes.reshape(pre, s.p, post))
    return StateVector(p=s.p, n=s.n, amplitudes=out.reshape(-1))


def corrupt_qubit(s: StateVector, address: int,
                  corruption: Union[None, str, np.ndarray]) -> StateVector:
    """Apply a corruption to the qubit at one register address and
    renormalize.  A disturbance that leaves less than BRANCH_NORM_FLOOR
    of the state's norm annihilates it.

    Raises:
        GhzError: on a bad corruption, a state of norm outside
            [ZERO_NORM_FLOOR, inf), or an annihilating disturbance.
    """
    matrix = resolve_corruption(corruption)
    norm = guard_norm(s.norm(), ZERO_NORM_FLOOR, GhzError, CORRUPTION_FAILED)
    damaged = apply_single_qudit(s, address, matrix)
    damaged_norm = damaged.norm()
    guard_norm(damaged_norm / norm, BRANCH_NORM_FLOOR, GhzError,
               CORRUPTION_FAILED)
    real = damaged.amplitudes.view(np.float64)
    real /= damaged_norm
    return damaged


def map_block(t: np.ndarray, b: int, m: np.ndarray) -> np.ndarray:
    """Apply the matrix m to axis b of t; the other axes stay in place."""
    shape = t.shape
    t = np.matmul(m, t.reshape(math.prod(shape[:b]), shape[b], -1))
    return t.reshape(shape[:b] + (len(m),) + shape[b + 1:])


def project_zero(s: StateVector, addrs: Sequence[int]
                 ) -> Tuple[float, StateVector]:
    """A plain-numpy readout: the squared norm of the branch where the
    qubits at addrs all read |0>, and that branch normalized on the
    others."""
    cube = s.amplitudes.reshape((2,) * s.n)
    branch = cube[tuple(0 if q in addrs else slice(None)
                        for q in range(s.n))]
    weight = float(np.sum(np.abs(branch) ** 2))
    rest = StateVector(p=2, n=s.n - len(addrs),
                       amplitudes=branch.reshape(-1) / np.sqrt(weight))
    return weight, rest


@functools.lru_cache(maxsize=None)
def dense_isometry(n: int, c: int) -> np.ndarray:
    """Column j is build_encoder(n) applied to |j> on message addresses
    0..c-1 with every other qubit at |0>."""
    return np.stack([
        build_encoder(n).apply(basis_state(
            2, index_to_digits(j, 2, c) + (0,) * (2 * n - c))).amplitudes
        for j in range(2**c)], axis=1)


def dense_form(register: BlockRegister) -> StateVector:
    """Contract E with each axis of the register, last first, then apply
    each recorded hit, unnormalized."""
    scheme = register.scheme
    t = register.core
    for b in reversed(range(scheme.blocks)):
        t = map_block(t, b, dense_isometry(scheme.inner.n,
                                           len(scheme.assignment[b])))
    s = StateVector(p=2, n=scheme.total_qubits, amplitudes=t.reshape(-1))
    for hit in register.hits:
        s = apply_single_qudit(s, hit.block * scheme.inner.total
                               + hit.address, hit.operator)
    return s


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


def axis_rows(core: np.ndarray, axis: int, c: int, pos: ErasurePosition
              ) -> np.ndarray:
    """Decoder then recovery for an erasure at pos along one axis of a
    core that holds the block's 4**n register amplitudes, at that axis's
    qubit offset: the library's decode of a physical axis, before every
    block was read from its carried amplitudes.

    Returns:
        The rows whose padding reads 0, in (damaged half, pre, carried
        qubits, post) order, as a fresh 1-D array.
    """
    n = pos.n
    pre = math.prod(core.shape[:axis])
    post = math.prod(core.shape[axis + 1:])
    offset = sum(size.bit_length() - 1 for size in core.shape[:axis])
    s = StateVector(p=2, n=core.size.bit_length() - 1,
                    amplitudes=core.reshape(-1))
    for program in (build_decoder(n, pos), build_recovery(n, pos)):
        s = program.apply(s, offset)
    if pos.side == "message":
        # (pre, damaged, carried, padding, post)
        view = s.amplitudes.reshape(pre, 2**n, 2**c, 2**(n - c), post)
        rows = view[:, :, :, 0].transpose(1, 0, 2, 3)
    else:
        # (pre, carried, padding, damaged, post)
        view = s.amplitudes.reshape(pre, 2**c, 2**(n - c), 2**n, post)
        rows = view[:, :, 0].transpose(2, 0, 1, 3)
    return rows.reshape(-1)


def _require_all_zero(probability: float) -> None:
    """The library's all-zero refusal, word for word."""
    if probability <= DETERMINISM_BOUND:
        raise DecodeError(
            "inner unencoding left padding or ancilla qubits excited "
            f"(all-zero probability {probability:.12g} <= bound "
            f"{DETERMINISM_BOUND:.12g}); undeclared damage present")


def _decode_erased(scheme: ConcatScheme, state: StateVector, base: int,
                   erasure: ErasurePosition, c: int, total2: float
                   ) -> StateVector:
    """Decoder and recovery on the erased block's 2n qubits at base, its
    padding read as |0> against the register's squared norm total2, and
    the damaged half split off by address."""
    n_in = scheme.inner.n
    state = build_decoder(n_in, erasure).apply(state, offset=base)
    state = build_recovery(n_in, erasure).apply(state, offset=base)
    content = base + n_in if erasure.side == "message" else base
    kept2, state = project_zero(
        state, list(range(content + c, content + n_in)))
    _require_all_zero(kept2 / total2)
    damaged = base if erasure.side == "message" else base + c
    kept, _dropped = split_checked(
        state, [q for q in range(state.n)
                if not damaged <= q < damaged + n_in])
    return kept


def _unerased(state: StateVector, total2: float) -> StateVector:
    """The reduced register, whose share of total2 must be all-zero."""
    kept2 = norm2(state.amplitudes)
    _require_all_zero(kept2 / total2)
    return StateVector(p=2, n=state.n,
                       amplitudes=state.amplitudes / math.sqrt(kept2))


def dense_inner_stage(scheme: ConcatScheme, register: BlockRegister,
                      event: ChannelEvent) -> StateVector:
    """concat's inner stage on the register's dense form."""
    return physical_inner_stage(scheme, dense_form(register), event)


def physical_inner_stage(scheme: ConcatScheme, s: StateVector,
                         event: ChannelEvent) -> StateVector:
    """concat's inner stage on a physical register s of the scheme.

    Contract E^dagger with every block but the erased one, run decoder
    and recovery on the erased block, check that padding and ancillas
    read |0> against s's squared norm, and split off the damaged half.
    """
    total2 = norm2(s.amplitudes)
    n_in, span = scheme.inner.n, scheme.inner.total
    erasure = event.erasure
    erased = event.block if erasure is not None else None
    t = s.amplitudes.reshape((2**span,) * scheme.blocks)
    for block, carried in enumerate(scheme.assignment):
        if block != erased:
            adjoint = dense_isometry(n_in, len(carried)).conj().T
            t = map_block(t, block, adjoint)
    state = StateVector(p=2, n=t.size.bit_length() - 1,
                        amplitudes=t.reshape(-1))
    if erasure is None:
        return _unerased(state, total2)
    base = sum(map(len, scheme.assignment[:erased]))
    return _decode_erased(scheme, state, base, erasure,
                          len(scheme.assignment[erased]), total2)


def blockwise_inner_stage(scheme: ConcatScheme, register: BlockRegister,
                          event: ChannelEvent) -> StateVector:
    """concat's inner stage with one physical block at a time.

    Each hit block's columns M E are built by the dense E and
    apply_single_qudit.  A hit block without the declared erasure becomes
    E^dagger M E along its axis, and the register's squared norm is the
    core's under every hit block's (M E)^dagger M E.  Only then is the
    declared block's axis made physical, by M E, for its programs.
    """
    n_in, span = scheme.inner.n, scheme.inner.total
    erasure = event.erasure
    erased = event.block if erasure is not None else None
    hits: Dict[int, List] = {}
    for hit in register.hits:
        hits.setdefault(hit.block, []).append(hit)

    def physical(block: int) -> np.ndarray:
        # E's columns count as c more qubits after the block's 2n.
        carried = len(scheme.assignment[block])
        e = dense_isometry(n_in, carried)
        s = StateVector(p=2, n=span + carried, amplitudes=e.reshape(-1))
        for hit in hits.get(block, ()):
            s = apply_single_qudit(s, hit.address, hit.operator)
        return s.amplitudes.reshape(e.shape)

    core = register.core
    t, gram = core, core
    for block in hits:
        m = physical(block)
        gram = map_block(gram, block, m.conj().T @ m)
        if block != erased:
            e = dense_isometry(n_in, len(scheme.assignment[block]))
            t = map_block(t, block, e.conj().T @ m)
    total2 = float(np.vdot(core, gram).real)
    if erasure is None:
        return _unerased(StateVector(p=2, n=t.size.bit_length() - 1,
                                     amplitudes=t.reshape(-1)), total2)
    t = map_block(t, erased, physical(erased))
    base = sum(size.bit_length() - 1 for size in t.shape[:erased])
    state = StateVector(p=2, n=t.size.bit_length() - 1,
                        amplitudes=t.reshape(-1))
    return _decode_erased(scheme, state, base, erasure,
                          len(scheme.assignment[erased]), total2)
