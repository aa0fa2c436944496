"""Tests for the twin-GHZ erasure-correcting code.

The frozen oracles are the rendered operator products for the
five-qubit block (encoder, both decoders, all ten recovery programs),
the data-hiding property of the encoded state, and full recovery from
one erased qubit regardless of how the erased qubit was corrupted.
"""

import re
import warnings

import dense_blocks
import numpy as np
import pytest
import slab_kernels
from hypothesis import given, settings
from hypothesis import strategies as st

from concatqec import ghz_erasure

from concatqec.ghz_erasure import (
    MAX_BLOCK,
    MIN_BLOCK,
    ErasurePosition,
    Gate,
    GateProgram,
    GhzError,
    GhzLayout,
    RecoveryError,
    build_decoder,
    build_encoder,
    build_recovery,
    encoder_isometry,
    recover,
    resolve_corruption,
)
from concatqec.statevec import (
    StateError,
    StateVector,
    basis_state,
    fidelity_up_to_phase,
    normalize,
    random_single_qubit_unitary,
    random_state,
)
from dense_blocks import apply_single_qudit, corrupt_qubit
from state_oracles import reduced_density, states_close

RNG = np.random.default_rng(20240819)

# Rendered operator products for the five-qubit block.  Rightmost
# factor acts first; primes mark ancilla-side qubits.
ENCODER_5 = "C5'4'C5'3'C5'2'C5'1'C54C53C52C51H5'H5C55'C44'C33'C22'C11'"
DECODER_5 = {
    "message": "H5'C5'4'C5'3'C5'2'C5'1'",
    "ancilla": "H5C54C53C52C51",
}
RECOVERY_5 = {
    "1": "T1'5'4Z5'4T1'5'4C2'2C3'3C4'4C1'2C1'3C1'4C1'5",
    "2": "T2'5'3Z5'3T2'5'3C1'1C3'3C4'4C2'1C2'3C2'4C2'5",
    "3": "T3'5'2Z5'2T3'5'2C1'1C2'2C4'4C3'1C3'2C3'4C3'5",
    "4": "T4'5'1Z5'1T4'5'1C1'1C2'2C3'3C4'1C4'2C4'3C4'5",
    "5": "Z5'4C1'1C2'2C3'3C4'4",
    "1'": "T154'Z54'T154'C22'C33'C44'C12'C13'C14'C15'",
    "2'": "T253'Z53'T253'C11'C33'C44'C21'C23'C24'C25'",
    "3'": "T352'Z52'T352'C11'C22'C44'C31'C32'C34'C35'",
    "4'": "T451'Z51'T451'C11'C22'C33'C41'C42'C43'C45'",
    "5'": "Z54'C11'C22'C33'C44'",
}


def _encode(n: int, message: StateVector) -> StateVector:
    """Embed an n-qubit message and run the block encoder."""
    padded = np.kron(message.amplitudes,
                     basis_state(2, (0,) * n).amplitudes)
    joint = StateVector(p=2, n=2 * n, amplitudes=padded)
    return build_encoder(n).apply(joint)


# ---------------------------------------------------------------------------
# Layout and position bookkeeping
# ---------------------------------------------------------------------------


def test_layout_address_split():
    lay = GhzLayout(5)
    assert lay.total == 10
    assert [lay.label(a) for a in range(lay.total)] == [
        "1", "2", "3", "4", "5", "1'", "2'", "3'", "4'", "5'"]


def test_layout_rejects_out_of_range_sizes():
    with pytest.raises(GhzError):
        GhzLayout(1)
    with pytest.raises(GhzError):
        GhzLayout(7)


def test_erasure_position_labels():
    pos = ErasurePosition(address=0, n=5)
    assert pos.side == "message" and pos.label == "1"
    pos = ErasurePosition(address=9, n=5)
    assert pos.side == "ancilla" and pos.label == "5'"
    assert ErasurePosition.from_label("3'", 5).address == 7
    assert ErasurePosition.from_label("2", 5).address == 1


def test_erasure_position_rejects_bad_labels():
    for bad in ("0", "6", "6'", "x", "", "1''"):
        with pytest.raises(GhzError):
            ErasurePosition.from_label(bad, 5)
    with pytest.raises(GhzError):
        ErasurePosition(address=10, n=5)


@pytest.mark.parametrize("address", [1.0, 1.5, "1", None])
def test_erasure_position_refuses_a_non_integer_address(address):
    # A float address would otherwise decode at fidelity 1 from a
    # carried block, then fail with a TypeError once the amplitudes are
    # read.
    with pytest.raises(GhzError, match=re.escape(
            f"erasure address {address!r} is not an integer")):
        ErasurePosition(address=address, n=5)


@pytest.mark.parametrize("n", [5.0, "5", None])
def test_block_size_refuses_a_non_integer(n):
    # A float size would otherwise construct, and the damage step would
    # then leak numpy's TypeError on a register of 2.0**(2 n) entries.
    message = re.escape(f"block size {n!r} is not an integer")
    with pytest.raises(GhzError, match=message):
        GhzLayout(n)
    with pytest.raises(GhzError, match=message):
        ErasurePosition(address=1, n=n)
    with pytest.raises(GhzError, match=message):
        build_encoder(n)


def test_numpy_integer_block_sizes_become_ints():
    assert type(GhzLayout(np.int64(3)).n) is int
    assert type(ErasurePosition(address=1, n=np.int32(2)).n) is int
    assert build_encoder(np.int64(2)) == build_encoder(2)


# ---------------------------------------------------------------------------
# Gate programs
# ---------------------------------------------------------------------------


def test_program_inverse_undoes_application():
    prog = build_encoder(3)
    s = random_state(2, 6, RNG)
    out = prog.inverse().apply(prog.apply(s))
    assert states_close(out, s)


def test_gate_arity_is_validated():
    with pytest.raises(GhzError):
        Gate(kind="H", qubits=(0, 1))
    with pytest.raises(GhzError):
        Gate(kind="CX", qubits=(2,))
    with pytest.raises(GhzError):
        Gate(kind="Q", qubits=(0,))


@pytest.mark.parametrize("qubits, text", [
    ((1.7,), "gate address 1.7 is not an integer"),
    ((0, "1"), "gate address '1' is not an integer")])
def test_gate_refuses_an_address_that_is_not_an_integer(qubits, text):
    # Gate("H", (1.7,)) used to become H on qubit 1.
    kind = "H" if len(qubits) == 1 else "CX"
    with pytest.raises(GhzError, match=re.escape(text)):
        Gate(kind, qubits)
    assert Gate("H", (np.int64(2),)).qubits == (2,)


def test_program_apply_honors_address_offset():
    prog = GateProgram(gates=(Gate(kind="CX", qubits=(0, 1)),), half=2)
    s = basis_state(2, (0, 1, 0, 0))
    out = prog.apply(s, offset=1)
    assert states_close(out, basis_state(2, (0, 1, 1, 0)))


def test_program_rejects_addresses_outside_the_block():
    with pytest.raises(GhzError):
        GateProgram(gates=(Gate(kind="H", qubits=(4,)),), half=2)


# ---------------------------------------------------------------------------
# Programs against the dense oracle
# ---------------------------------------------------------------------------

def _dense_gate(kind, qubits, n):
    """The 2^n matrix of one gate, built column by column from bit strings."""
    dim = 2 ** n
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]

        def row(b):
            return sum(bit << (n - 1 - q) for q, bit in enumerate(b))

        if kind == "H":
            (q,) = qubits
            for out in (0, 1):
                flipped = bits.copy()
                flipped[q] = out
                sign = -1 if bits[q] and out else 1
                full[row(flipped), col] += sign / np.sqrt(2)
        elif kind == "CZ":
            full[col, col] = -1 if all(bits[q] for q in qubits) else 1
        else:
            flipped = bits.copy()
            if all(bits[q] for q in qubits[:-1]):
                flipped[qubits[-1]] ^= 1
            full[row(flipped), col] = 1
    return full


@st.composite
def _programs(draw):
    """A random H/CX/CCX/CZ program placed at a random offset in <= 6 qubits."""
    half = draw(st.integers(min_value=2, max_value=3))
    n = draw(st.integers(min_value=2 * half, max_value=6))
    offset = draw(st.integers(min_value=0, max_value=n - 2 * half))
    arity = {"H": 1, "CX": 2, "CCX": 3, "CZ": 2}
    gates = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        kind = draw(st.sampled_from(sorted(arity)))
        qubits = draw(st.permutations(range(2 * half)))[:arity[kind]]
        gates.append(Gate(kind, tuple(qubits)))
    return GateProgram(gates=tuple(gates), half=half), n, offset


@given(_programs(), st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_program_apply_matches_dense_oracle_and_one_gate_programs(case, seed):
    prog, n, offset = case
    s = random_state(2, n, np.random.default_rng(seed))
    before = s.amplitudes.copy()

    out = prog.apply(s, offset=offset)

    dense = np.eye(2 ** n, dtype=complex)
    gate_by_gate = s
    for gate in prog.gates:
        qs = tuple(q + offset for q in gate.qubits)
        dense = _dense_gate(gate.kind, qs, n) @ dense
        stepped = GateProgram(gates=(gate,), half=prog.half).apply(
            gate_by_gate, offset=offset)
        assert not np.shares_memory(stepped.amplitudes, gate_by_gate.amplitudes)
        gate_by_gate = stepped
    assert np.max(np.abs(out.amplitudes - dense @ before)) < 1e-12
    # Permutations, negations and the shared Hadamard kernel round the
    # same way in any grouping, so the results agree to the bit, signed
    # zeros included.
    assert np.array_equal(out.amplitudes.view(np.uint64),
                          gate_by_gate.amplitudes.view(np.uint64))
    assert not np.shares_memory(out.amplitudes, s.amplitudes)
    assert np.array_equal(s.amplitudes, before)


def test_program_apply_validates_every_gate_before_writing():
    # The bad address sits in the last gate, after gates that would
    # already have changed the state.
    prog = GateProgram(gates=(Gate("H", (0,)), Gate("CX", (0, 1)),
                              Gate("CZ", (1, 3))), half=2)
    s = random_state(2, 4, RNG)
    before = s.amplitudes.copy()
    with pytest.raises(StateError):
        prog.apply(s, offset=1)
    assert np.array_equal(s.amplitudes, before)

    qutrits = random_state(3, 4, RNG)
    before = qutrits.amplitudes.copy()
    with pytest.raises(StateError):
        prog.apply(qutrits)
    assert np.array_equal(qutrits.amplitudes, before)


# (qubits before the block, qubits after it) in the register.
PLACEMENTS = [(0, 0), (0, 2), (2, 1)]


@pytest.mark.parametrize("n", range(MIN_BLOCK, MAX_BLOCK + 1))
def test_builder_programs_match_the_slab_oracle_bit_for_bit(n):
    # Every encoder, decoder and recovery program and its inverse, run
    # as compiled signed permutations plus Hadamards, against the same
    # gates run one slab kernel at a time on random complex input.
    rng = np.random.default_rng(n)
    programs = [build_encoder(n)]
    for address in range(2 * n):
        pos = ErasurePosition(address, n)
        programs += [build_decoder(n, pos), build_recovery(n, pos)]
    programs += [prog.inverse() for prog in programs]
    for prog in programs:
        for before, after in PLACEMENTS:
            total = before + 2 * n + after
            amps = rng.normal(size=2**total) + 1j * rng.normal(size=2**total)
            s = StateVector(p=2, n=total, amplitudes=amps)
            kept = amps.copy()
            out = prog.apply(s, offset=before)
            want = slab_kernels.run_gates(
                kept, total, [(g.kind, tuple(q + before for q in g.qubits))
                              for g in prog.gates])
            assert np.array_equal(out.amplitudes.view(np.uint64),
                                  want.view(np.uint64)), (
                prog.product_notation(), before, after)
            assert np.array_equal(s.amplitudes.view(np.uint64),
                                  kept.view(np.uint64))


def test_program_errors_name_the_first_bad_gate():
    prog = GateProgram(gates=(Gate("H", (0,)), Gate("CCX", (0, 1, 3)),
                              Gate("CZ", (1, 3))), half=2)
    with pytest.raises(StateError,
                       match=re.escape("qudit address 4 outside [0, 4)")):
        prog.apply(random_state(2, 4, RNG), offset=1)
    with pytest.raises(StateError, match=re.escape(
            "hadamard is defined for p = 2 registers, got p = 3")):
        prog.apply(random_state(3, 4, RNG))


def test_program_refuses_a_qudit_register_even_without_gates():
    # The dimension is checked before the gates are looked at, so an
    # empty program refuses a qutrit register as any other program does,
    # and still copies a qubit register unchanged.
    empty = GateProgram(gates=(), half=2)
    qutrits = random_state(3, 4, RNG)
    with pytest.raises(StateError, match=re.escape(
            "a gate program is defined for p = 2 registers, got p = 3")):
        empty.apply(qutrits)
    s = random_state(2, 4, RNG)
    out = empty.apply(s)
    assert np.array_equal(out.amplitudes, s.amplitudes)
    assert not np.shares_memory(out.amplitudes, s.amplitudes)


def test_program_checks_its_address_span_once(monkeypatch):
    # A program whose shifted span fits the register runs without a
    # per-address check; one that does not walks the gates to name the
    # first bad address.
    calls = []
    check = StateVector._check_address

    def recording_check(*args):
        calls.append(args)
        check(*args)

    monkeypatch.setattr(StateVector, "_check_address", recording_check)
    prog = build_encoder(3)
    s = random_state(2, 10, RNG)
    for offset in range(5):
        prog.apply(s, offset=offset)
    assert calls == []
    for offset, address in ((5, 10), (-1, -1)):
        with pytest.raises(StateError, match=re.escape(
                f"qudit address {address} outside [0, 10)")):
            prog.apply(s, offset=offset)
    assert calls


def test_program_builders_and_inverse_are_shared():
    pos = ErasurePosition.from_label("2'", 4)
    assert build_encoder(4) is build_encoder(4)
    assert build_decoder(4, pos) is build_decoder(4, ErasurePosition(5, 4))
    assert build_recovery(4, pos) is build_recovery(4, pos)
    assert build_encoder(4).inverse() is build_encoder(4).inverse()


@pytest.mark.parametrize("n, c", [(n, c) for n in range(MIN_BLOCK, MAX_BLOCK + 1)
                                  for c in range(1, n + 1)])
def test_encoder_isometry_is_the_encoder_on_carried_inputs(n, c):
    # Column j of E is the encoder program run on |j> in the first c
    # message qubits, padding and ancillas at |0>.  E is held by its
    # nonzero rows: scattered back, they give every such column bit for
    # bit, and no other row of E is nonzero.
    support = encoder_isometry(n, c)
    rows, block, adjoint = support
    assert block.shape == (rows.size, 2**c)
    assert rows.size == (2**(c + 1) if c == n else 4 * 2**c)
    assert np.all(np.diff(rows) > 0)
    dense = np.zeros((4**n, 2**c), dtype=np.complex128)
    dense[rows] = block
    for j in range(2**c):
        digits = [(j >> (c - 1 - q)) & 1 for q in range(c)]
        column = build_encoder(n).apply(
            basis_state(2, digits + [0] * (2 * n - c)))
        got = np.ascontiguousarray(dense[:, j])
        assert np.array_equal(got.view(np.uint64),
                              column.amplitudes.view(np.uint64))
    assert np.array_equal(np.flatnonzero(np.any(dense, axis=1)), rows)
    assert np.all(np.any(block, axis=1))
    assert np.array_equal(adjoint, block.conj().T)
    assert adjoint.flags.c_contiguous
    assert np.max(np.abs(adjoint @ block - np.eye(2**c))) < 1e-12
    assert encoder_isometry(n, c) is support
    for array in support:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]


def test_encoder_isometry_runs_the_encoder_once_per_build(monkeypatch):
    # Every input rides on one register, labelled by c extra qubits, so
    # a build is one run of the encoder program whatever c is.
    calls = []
    apply = GateProgram.apply

    def recording_apply(self, s, offset=0):
        calls.append((self, s.n, offset))
        return apply(self, s, offset)

    monkeypatch.setattr(GateProgram, "apply", recording_apply)
    encoder_isometry.cache_clear()
    try:
        for n in range(MIN_BLOCK, MAX_BLOCK + 1):
            for c in range(1, n + 1):
                del calls[:]
                encoder_isometry(n, c)
                assert calls == [(build_encoder(n), 2 * n + c, 0)], (n, c)
    finally:
        encoder_isometry.cache_clear()


def test_encoder_isometry_rejects_carried_counts_outside_the_half():
    for c in (0, 3):
        with pytest.raises(GhzError, match="carried qubit count"):
            encoder_isometry(2, c)


# ---------------------------------------------------------------------------
# Operator product reproduction
# ---------------------------------------------------------------------------


def test_encoder_product_notation():
    assert build_encoder(5).product_notation() == ENCODER_5


def test_decoder_product_notation_both_sides():
    msg = build_decoder(5, ErasurePosition.from_label("1", 5))
    anc = build_decoder(5, ErasurePosition.from_label("1'", 5))
    assert msg.product_notation() == DECODER_5["message"]
    assert anc.product_notation() == DECODER_5["ancilla"]
    # the same decoder serves every erasure on its side
    for label in ("2", "3", "4", "5"):
        pos = ErasurePosition.from_label(label, 5)
        assert build_decoder(5, pos).product_notation() == DECODER_5["message"]


def test_recovery_product_notation_all_positions():
    for label, expected in RECOVERY_5.items():
        pos = ErasurePosition.from_label(label, 5)
        assert build_recovery(5, pos).product_notation() == expected, label


def test_recovery_avoids_damaged_qubit_for_odd_sizes():
    # The damaged address never appears in its own recovery program, so
    # recovery works even when the qubit leaks out of the qubit space.
    for n in (3, 5):
        for addr in range(2 * n):
            pos = ErasurePosition(address=addr, n=n)
            touched = build_recovery(n, pos).touched_addresses()
            touched |= build_decoder(n, pos).touched_addresses()
            assert addr not in touched, (n, pos.label)


# ---------------------------------------------------------------------------
# Encoded-state structure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_basis_messages_become_twin_ghz_products(n):
    # Each computational basis message turns into a product of two
    # n-qubit GHZ-type states with matched patterns.
    for value in (0, 2 ** n - 1):
        digits = tuple((value >> (n - 1 - i)) & 1 for i in range(n))
        out = _encode(n, basis_state(2, digits))
        nz = np.flatnonzero(np.abs(out.amplitudes) > 1e-12)
        assert len(nz) == 4
        assert np.allclose(np.abs(out.amplitudes[nz]), 0.5)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_every_qubit_of_the_encoded_state_is_hidden(n):
    message = random_state(2, n, RNG)
    encoded = _encode(n, message)
    for q in range(2 * n):
        rho = reduced_density(encoded, q)
        assert np.max(np.abs(rho - np.eye(2) / 2)) < 1e-10


def test_decoder_inverts_the_encoder_on_its_half():
    # Running the opposite-half decoder after the encoder leaves a
    # state whose decoded half is sharp, which is what block decoding
    # projects on; the direct inverse program is exact on everything.
    message = random_state(2, 3, RNG)
    encoded = _encode(3, message)
    undone = build_encoder(3).inverse().apply(encoded)
    expected = np.kron(message.amplitudes, basis_state(2, (0, 0, 0)).amplitudes)
    assert np.max(np.abs(undone.amplitudes - expected)) < 1e-12


# ---------------------------------------------------------------------------
# Erasure and corruption handling
# ---------------------------------------------------------------------------


def test_resolve_corruption_names_and_matrices():
    assert np.allclose(resolve_corruption(None), np.eye(2))
    assert np.allclose(resolve_corruption("I"), np.eye(2))
    assert np.allclose(resolve_corruption("X"), [[0, 1], [1, 0]])
    assert np.allclose(resolve_corruption("Z"), [[1, 0], [0, -1]])
    y = resolve_corruption("Y")
    assert np.allclose(y, [[0, -1j], [1j, 0]])
    custom = random_single_qubit_unitary(RNG)
    assert np.allclose(resolve_corruption(custom), custom)
    with pytest.raises(GhzError):
        resolve_corruption("Q")
    with pytest.raises(GhzError):
        resolve_corruption(np.eye(3))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(GhzError, match="non-finite"):
            resolve_corruption(np.array([[bad, 0], [0, 1]]))


@pytest.mark.parametrize("bad", [[["a", 1], [1, 0]], [[object(), 1], [1, 0]],
                                 [[1, 0], [0]]])
def test_resolve_corruption_refuses_non_numeric_entries(bad):
    # numpy refuses these with its own ValueError or TypeError.
    with pytest.raises(GhzError, match="corruption operator is not a "
                                       "numeric array"):
        resolve_corruption(bad)


def test_corrupt_qubit_corrupts_only_the_given_address():
    s = basis_state(2, (0, 0, 0, 0))
    out = corrupt_qubit(s, 1, "X")
    assert states_close(out, basis_state(2, (0, 1, 0, 0)))


def test_corrupt_qubit_returns_a_fresh_state_and_keeps_its_input():
    # Every address of ten qubits; the result is rescaled in place.
    s = random_state(2, 10, RNG)
    before = s.amplitudes.copy()
    ops = ["Y", random_single_qubit_unitary(RNG), np.diag([1.0, 0.0]),
           RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))]
    for address in range(s.n):
        for op in ops:
            out = corrupt_qubit(s, address, op)
            assert not np.shares_memory(out.amplitudes, s.amplitudes)
            assert abs(out.norm() - 1.0) < 1e-12
    assert np.array_equal(s.amplitudes.view(np.uint64),
                          before.view(np.uint64))


def test_projective_corruption_is_renormalized():
    s = random_state(2, 4, RNG)
    kept = np.diag([0.0, 1.0])
    for address in range(s.n):
        out = corrupt_qubit(s, address, kept)
        assert abs(out.norm() - 1.0) < 1e-12
        cube = s.amplitudes.reshape((2,) * s.n).copy()
        np.moveaxis(cube, address, 0)[0] = 0
        want = cube.reshape(-1) / np.linalg.norm(cube)
        assert np.max(np.abs(out.amplitudes - want)) < 1e-12


def test_annihilating_corruption_is_rejected():
    s = basis_state(2, (0, 1, 0, 0))
    with pytest.raises(GhzError, match=r"annihilated .* norm 0 "):
        corrupt_qubit(s, 1, np.diag([1.0, 0.0]))


def test_zero_corruption_is_rejected():
    s = random_state(2, 4, RNG)
    with pytest.raises(GhzError, match=r"annihilated .* norm 0 "):
        corrupt_qubit(s, 2, np.zeros((2, 2)))


def test_overflowing_corruption_is_rejected():
    # Every amplitude of this oversized register stays finite, but the
    # norm overflows; dividing by it would return an all-zero register.
    s = StateVector(p=2, n=4, amplitudes=np.full(16, 1e300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GhzError, match=r"overflowed its norm: norm inf "):
            corrupt_qubit(s, 0, np.eye(2))


@pytest.mark.parametrize("scale", [1e160, 1e-13])
def test_corruption_scale_is_removed(scale):
    # Unscaled, 1e160 * I overflows the damaged state's norm and
    # 1e-13 * I falls below the annihilation floor.
    s = random_state(2, 4, RNG)
    for address in range(s.n):
        out = corrupt_qubit(s, address, scale * np.eye(2))
        assert abs(out.norm() - 1.0) < 1e-12
        assert np.max(np.abs(out.amplitudes - s.amplitudes)) < 1e-15


def test_corruption_rescale_keeps_results_bit_identical():
    # The rescale is by a power of two, so every operator gives the bits
    # of the unscaled contraction divided by its norm.  The transposed
    # unitary is a non-contiguous view.
    s = random_state(2, 6, RNG)
    ops = [np.array([[0, -1j], [1j, 0]]), random_single_qubit_unitary(RNG).T,
           np.diag([1.0, 0.0]),
           RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))]
    for address in range(s.n):
        for op in ops:
            damaged = apply_single_qudit(s, address, op)
            want = damaged.amplitudes.view(np.float64) / damaged.norm()
            got = corrupt_qubit(s, address, op).amplitudes.view(np.float64)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    ones = np.ones((2, 2))
    for address in range(s.n):
        plain = corrupt_qubit(s, address, ones).amplitudes
        huge = corrupt_qubit(s, address, 2.0**1000 * ones).amplitudes
        assert np.array_equal(huge.view(np.uint64), plain.view(np.uint64))
        # 1e308 is no power of two, so its products round differently:
        # the result agrees to the last bits instead of bit for bit.
        near = corrupt_qubit(s, address, 1e308 * ones).amplitudes
        assert np.max(np.abs(near - plain)) < 1e-15


@pytest.mark.parametrize("n", [3, 5])
def test_recovery_restores_the_message_from_any_position(n):
    message = random_state(2, n, RNG)
    encoded = _encode(n, message)
    corruptions = [None, "X", "Y", "Z", random_single_qubit_unitary(RNG)]
    for addr in range(2 * n):
        pos = ErasurePosition(address=addr, n=n)
        for corr in corruptions:
            damaged = corrupt_qubit(encoded, pos.address, corr)
            recovered, _rest = recover(damaged, pos)
            assert recovered.n == n
            assert fidelity_up_to_phase(recovered, message) > 1 - 1e-9, \
                (n, pos.label, corr)


def test_even_blocks_recover_clean_erasures_everywhere():
    # For even n the published recovery formula targets the erased
    # qubit itself at position n/2 (there k = n - j equals j), so the
    # corruption-proof guarantee only covers the other positions; with
    # no actual corruption every position still recovers.
    for n in (2, 4):
        message = random_state(2, n, RNG)
        encoded = _encode(n, message)
        collision = {n // 2 - 1, n + n // 2 - 1}
        for addr in range(2 * n):
            pos = ErasurePosition(address=addr, n=n)
            recovered, _ = recover(
                corrupt_qubit(encoded, pos.address, None), pos)
            assert fidelity_up_to_phase(recovered, message) > 1 - 1e-9
            if addr not in collision:
                damaged = corrupt_qubit(encoded, pos.address, "Y")
                recovered, _ = recover(damaged, pos)
                assert fidelity_up_to_phase(recovered, message) > 1 - 1e-9


def test_recovery_rejects_two_qubit_damage():
    # Wrecking a second, undeclared qubit leaves the surviving half
    # entangled with the damaged half, which recovery must report.
    message = random_state(2, 3, RNG)
    encoded = _encode(3, message)
    pos = ErasurePosition(address=0, n=3)
    damaged = corrupt_qubit(encoded, pos.address,
                            random_single_qubit_unitary(RNG))
    damaged = corrupt_qubit(damaged, 1, random_single_qubit_unitary(RNG))
    with pytest.raises(RecoveryError):
        recover(damaged, pos)


def test_recovery_error_states_the_purity_and_bound():
    # A half-strength X rotation of a surviving qubit leaves the kept
    # half at purity 1/2, which the error quotes against the bound.
    encoded = _encode(3, basis_state(2, (0, 0, 0)))
    rotation = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
    damaged = corrupt_qubit(encoded, 4, rotation)
    with pytest.raises(RecoveryError,
                       match=r"purity 0\.5 <= bound 0\.999999999\)"):
        recover(damaged, ErasurePosition(address=0, n=3))


def test_recovery_refuses_zero_and_non_finite_registers():
    # A zero register or a NaN amplitude is a StateError from the norm
    # guard, as from the programs' split, not a ZeroDivisionError or a
    # failed SVD.
    nan = _encode(3, basis_state(2, (0, 1, 0))).amplitudes.copy()
    nan[5] = complex(np.nan, 0)
    pos = ErasurePosition(address=0, n=3)
    for amps, text in ((np.zeros(64, dtype=complex), "norm 0 outside"),
                       (nan, "non-finite")):
        s = StateVector(p=2, n=6, amplitudes=amps)
        with pytest.raises(StateError, match=text):
            dense_blocks.program_recover(s, pos)
        with pytest.raises(StateError, match=text):
            recover(s, pos)


@pytest.mark.parametrize("n", range(MIN_BLOCK, MAX_BLOCK + 1))
def test_recover_matches_the_gate_programs(n):
    # recover's kept rows and their split against decoder then recovery
    # on the whole register, split by address: at every position, under
    # every corruption, the same RecoveryError text, or else the same
    # kept (x) dropped product.  At even n, Y at the positions where
    # recovery targets the erased qubit leaves the halves entangled.
    rng = np.random.default_rng([20261020, n])
    encoded = _encode(n, random_state(2, n, rng))
    corruptions = [None, "X", "Y", "Z", random_single_qubit_unitary(rng)]
    refused = 0
    for addr in range(2 * n):
        pos = ErasurePosition(address=addr, n=n)
        for corr in corruptions:
            damaged = corrupt_qubit(encoded, addr, corr)
            try:
                want = dense_blocks.program_recover(damaged, pos)
            except RecoveryError as error:
                with pytest.raises(RecoveryError) as got:
                    recover(damaged, pos)
                assert str(got.value) == str(error)
                refused += 1
                continue
            kept, dropped = recover(damaged, pos)
            assert (kept.n, dropped.n) == (n, n)
            product = np.outer(kept.amplitudes, dropped.amplitudes)
            oracle = np.outer(want[0].amplitudes, want[1].amplitudes)
            assert np.max(np.abs(product - oracle)) <= 1e-12, (pos.label,
                                                                corr)
    assert (refused > 0) == (n % 2 == 0)


@pytest.mark.parametrize("s, error, text", [
    (StateVector(p=3, n=4, amplitudes=np.ones(81)), StateError,
     "recovery is defined for p = 2 registers, got p = 3"),
    (StateVector(p=5, n=4, amplitudes=np.ones(625)), StateError,
     "recovery is defined for p = 2 registers, got p = 5"),
    (StateVector(p=2, n=5, amplitudes=np.ones(32)), GhzError,
     "register size 5 does not match block 2"),
    (StateVector(p=3, n=3, amplitudes=np.ones(27)), GhzError,
     "register size 3 does not match block 2")])
def test_recover_refuses_other_fields_and_sizes_before_any_gather(
        s, error, text, monkeypatch):
    # A p = 3 register of four qutrits passes the size check, so without
    # the field check its amplitudes would reach erased_rows.
    def no_gather(*args):
        raise AssertionError("rows gathered before the register was checked")

    monkeypatch.setattr(ghz_erasure, "erased_rows", no_gather)
    with pytest.raises(error, match=re.escape(text)):
        recover(s, ErasurePosition(address=1, n=2))


@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.integers(min_value=0, max_value=9),
       st.sampled_from([None, "X", "Y", "Z"]))
@settings(max_examples=25, deadline=None)
def test_recovery_output_never_depends_on_the_corruption(seed, addr, corr):
    # Whatever hits the erased qubit, the recovered message state is
    # the same because the damaged qubit never enters the recovery.
    message = random_state(2, 5, np.random.default_rng(seed))
    encoded = _encode(5, message)
    pos = ErasurePosition(address=addr, n=5)
    baseline, _ = recover(corrupt_qubit(encoded, pos.address, None), pos)
    twisted, _ = recover(corrupt_qubit(encoded, pos.address, corr), pos)
    assert fidelity_up_to_phase(baseline, twisted) > 1 - 1e-9


def _carried_map_cases():
    """Every erasure address at inner n = 2 to 6 with one carried qubit
    or all n, each with 0-2 carried qubits before and after the block,
    cycled."""
    cases = []
    for n in range(MIN_BLOCK, MAX_BLOCK + 1):
        for c in sorted({1, n}):
            for address in range(2 * n):
                before, after = divmod(len(cases) % 9, 3)
                cases.append((n, c, address, before, after))
    return cases


@pytest.mark.parametrize("n, c, address, before, after", _carried_map_cases())
def test_carried_map_rows_are_the_applied_corruptions_rows(
        n, c, address, before, after):
    # The one gather from a carried core against the block's axis made
    # physical by E's support rows, corrupt_qubit on the erased qubit,
    # then decoder and recovery along that axis (the oracle's axis_rows):
    # the same rows after normalization, under the
    # Paulis, Haar unitaries, a scaled unitary and a projector.
    pos = ErasurePosition(address=address, n=n)
    rng = np.random.default_rng([n, c, address, 38])
    shape = (2**before, 2**c, 2**after)
    core = (rng.normal(size=shape) + 1j * rng.normal(size=shape)).reshape(
        shape)
    support = encoder_isometry(n, c)
    physical = np.zeros((2**before, 4**n, 2**after), dtype=np.complex128)
    physical[:, support.rows] = np.matmul(support.block, core)
    register = StateVector(p=2, n=before + 2 * n + after,
                           amplitudes=physical.reshape(-1))
    carried_map = ghz_erasure.carried_erasure_map(n, c, (address,), pos,
                                                  2**before, 2**after)
    unitaries = [random_single_qubit_unitary(rng) for _ in range(3)]
    corruptions = ["I", "X", "Y", "Z", *unitaries, 3.5 * unitaries[0],
                   np.diag([1.0, 0.0])]
    for corruption in corruptions:
        damaged = corrupt_qubit(register, before + address, corruption)
        want = dense_blocks.axis_rows(
            damaged.amplitudes.reshape(physical.shape), 1, c, pos)
        got = carried_map.rows(core, resolve_corruption(corruption))
        assert got.shape == want.shape
        gap = np.max(np.abs(got / np.linalg.norm(got)
                            - want / np.linalg.norm(want)))
        assert gap <= 1e-15, (corruption, gap)


def _padded_recovery(n, pos):
    # One CX more moves the carried qubit's content onto padding.
    recovery = build_recovery(n, pos)
    return GateProgram(gates=recovery.gates + (Gate("CX", (3, 4)),), half=n)


def _other_side_decoder(n, pos):
    return build_decoder(n, ErasurePosition(address=2 * n - 1 - pos.address,
                                            n=n))


def _doubled_isometry(n, c):
    support = encoder_isometry(n, c)
    return ghz_erasure.BlockSupport(support.rows, 2 * support.block,
                                    2 * support.adjoint)


@pytest.mark.parametrize("name, wrong, c, text", [
    ("build_recovery", _padded_recovery, 1,
     "decoder and recovery for erasure 1 leave weight 0.5 off the kept rows "
     "of a carried block (n = 3, c = 1)"),
    ("build_decoder", _other_side_decoder, 3,
     "decoder and recovery for erasure 1 leave 4 terms on a kept row of a "
     "carried block (n = 3, c = 3), not one"),
    ("encoder_isometry", _doubled_isometry, 2,
     "encoder for n = 3, c = 2 does not leave qubit 1 maximally mixed "
     "(off by 1.5)")])
def test_carried_map_refuses_programs_it_cannot_compose(
        name, wrong, c, text, monkeypatch):
    # Each wrong program still runs, so only the carried map's own
    # checks can refuse it, before any decode.
    pos = ErasurePosition(address=0, n=3)
    monkeypatch.setattr(ghz_erasure, name, wrong)
    ghz_erasure._composed_erasure.cache_clear()
    ghz_erasure.carried_erasure_map.cache_clear()
    try:
        with pytest.raises(GhzError, match=re.escape(text)):
            ghz_erasure.carried_erasure_map(3, c, (pos.address,), pos, 1, 1)
    finally:
        ghz_erasure._composed_erasure.cache_clear()
        ghz_erasure.carried_erasure_map.cache_clear()
