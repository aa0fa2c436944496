"""Tests for the concatenated code: graph code outside, GHZ code inside.

The anchor scenario is the ten-qubit pipeline: encode, erase message
qubit 1 while ancilla 1' takes a bit flip, recover, and read syndrome
0110 whose tabulated correction restores the input exactly.  Per-qubit
blocking scales the same machinery to a twenty-qubit register.  The
register-wide gate-program encoder, which the block contractions
replaced, stays here as their oracle.  Module dense_blocks holds the
dense block isometries, the oracle of the support-row scatter and
gather, and the one gate-program inner stage, the oracle of the
erased block's row selection and split.
"""

import itertools
import math
import re

import dense_blocks
import numpy as np
import pytest
import slab_kernels
from hypothesis import given, settings
from hypothesis import strategies as st

from concatqec import concat, ghz_erasure
from concatqec.concat import (
    PER_QUBIT,
    WHOLE_REGISTER,
    BlockRegister,
    ChannelEvent,
    ConcatScheme,
    apply_channel_damage,
    concat_decode,
    concat_encode,
    effective_channel,
    noise_correctable,
    noise_identity,
    noise_two_pauli,
)
from concatqec.ghz_erasure import (
    MAX_BLOCK,
    MIN_BLOCK,
    ErasurePosition,
    GateProgram,
    GhzError,
    GhzLayout,
    RecoveryError,
    build_decoder,
    build_encoder,
    build_recovery,
    corrupt_qubit,
    encoder_isometry,
)
from concatqec.graph_code import (
    CodeError,
    DecodeError,
    LogicalState,
    encode,
    five_qubit_decoding_graph,
)
from concatqec.statevec import (
    MAX_AMPLITUDES,
    PauliError,
    StateVector,
    apply_pauli_error,
    basis_state,
    fidelity_up_to_phase,
    random_single_qubit_unitary,
    random_state,
)
from state_oracles import split_factor

RNG = np.random.default_rng(20240820)


def _scheme(blocking=WHOLE_REGISTER, inner_n=None):
    g = five_qubit_decoding_graph()
    if inner_n is None:
        inner_n = 5 if blocking == WHOLE_REGISTER else 2
    return ConcatScheme(outer=g, inner=GhzLayout(inner_n), blocking=blocking)


def _random_logical(seed=None):
    rng = RNG if seed is None else np.random.default_rng(seed)
    return LogicalState(p=2, coefficients=random_state(2, 1, rng).amplitudes)


def _expand_all(register):
    """The register with every axis made physical by the library, last
    block first."""
    for b in reversed(range(register.scheme.blocks)):
        register = register.expand(b)
    return register


# ---------------------------------------------------------------------------
# Channel events
# ---------------------------------------------------------------------------


def test_event_requires_erasure_for_corruption():
    with pytest.raises(GhzError):
        ChannelEvent(corruption="X")
    with pytest.raises(GhzError):
        ChannelEvent(block=-1)


@pytest.mark.parametrize("block", [1.5, 1.0, "1"])
def test_event_refuses_a_non_integer_block(block):
    # A float block would otherwise reach apply_channel_damage and fail
    # there with a TypeError on list indices.
    with pytest.raises(GhzError, match=re.escape(
            f"block index {block!r} is not an integer")):
        ChannelEvent(block=block)


@pytest.mark.parametrize("recorded", [True, False])
def test_numpy_integer_indices_decode_on_both_paths(recorded):
    scheme = _scheme(PER_QUBIT)
    event = ChannelEvent(
        erasure=ErasurePosition(address=np.int64(3), n=scheme.inner.n),
        corruption="Y", block=np.int32(2))
    assert (type(event.block), type(event.erasure.address)) == (int, int)
    v = _random_logical(39)
    physical = apply_channel_damage(scheme, concat_encode(scheme, v), event)
    if not recorded:
        physical.core  # reading the amplitudes applies the hit
    recovered, trace = concat_decode(scheme, physical, event)
    assert trace.event == "erasure@2:2'"
    assert fidelity_up_to_phase(v.as_state(),
                                recovered.as_state()) > 1 - 1e-10


def test_event_description_strings():
    assert ChannelEvent().describe() == "none"
    pos = ErasurePosition.from_label("2'", 5)
    assert ChannelEvent(erasure=pos).describe() == "erasure@2'"
    both = ChannelEvent(pauli=PauliError.single(2, 5, 0, b=1), erasure=pos)
    assert both.describe() == "erasure@2'+B1"
    pos2 = ErasurePosition.from_label("1", 2)
    blocked = ChannelEvent(erasure=pos2, block=3)
    assert blocked.describe() == "erasure@3:1"
    wide = ChannelEvent(pauli=PauliError(m=0, b=(1, 1, 0, 0, 0),
                                         s=(0, 0, 0, 0, 0), p=2))
    assert wide.describe() == "pauli(weight=2)"


def test_event_kind_buckets():
    pos = ErasurePosition.from_label("1", 5)
    pauli = PauliError.single(2, 5, 2, s=1)
    assert ChannelEvent().kind() == "none"
    assert ChannelEvent(erasure=pos).kind() == "erasure"
    assert ChannelEvent(pauli=pauli).kind() == "pauli"
    assert ChannelEvent(pauli=pauli, erasure=pos).kind() == "erasure+pauli"
    # a weight-zero operator does not count as a computational error
    assert ChannelEvent(pauli=PauliError.identity(2, 5)).kind() == "none"


# ---------------------------------------------------------------------------
# Scheme validation
# ---------------------------------------------------------------------------


def test_scheme_shape_book_keeping():
    whole = _scheme(WHOLE_REGISTER)
    assert whole.blocks == 1 and whole.total_qubits == 10
    per = _scheme(PER_QUBIT)
    assert per.blocks == 5 and per.total_qubits == 20


def test_scheme_rejects_bad_configuration():
    g = five_qubit_decoding_graph()
    with pytest.raises(CodeError):
        ConcatScheme(outer=g, inner=GhzLayout(5), blocking="sideways")
    with pytest.raises(CodeError):
        ConcatScheme(outer=g, inner=GhzLayout(3), blocking=WHOLE_REGISTER)


def test_scheme_rejects_a_register_above_the_size_limit(monkeypatch):
    # Per-qubit blocking with inner n = 6 makes a 60-qubit register.  Its
    # block register holds 2**5 amplitudes, and one physical axis 2**16;
    # a second physical axis is refused, before it is allocated, quoting
    # both sizes.
    scheme = _scheme(PER_QUBIT, inner_n=6)
    one = concat_encode(scheme, _random_logical()).expand(0)
    assert one.core.size == 2**16
    monkeypatch.setattr(np, "zeros", None)
    with pytest.raises(CodeError,
                       match=rf"27 qubits\) needs {2**27} amplitudes, "
                             rf"above the limit of {MAX_AMPLITUDES}"):
        one.expand(1)


# ---------------------------------------------------------------------------
# Encoding structure
# ---------------------------------------------------------------------------


def test_whole_register_encoding_wraps_the_codeword():
    scheme = _scheme(WHOLE_REGISTER)
    v = LogicalState(p=2, coefficients=[0.6, 0.8])
    got = concat_encode(scheme, v).expand(0).flat()
    codeword = encode(scheme.outer, v)
    manual = np.kron(codeword.amplitudes, basis_state(2, (0,) * 5).amplitudes)
    expected = build_encoder(5).apply(StateVector(p=2, n=10, amplitudes=manual))
    assert np.max(np.abs(got.amplitudes - expected.amplitudes)) < 1e-12


def test_per_qubit_encoding_places_one_codeword_digit_per_block():
    scheme = _scheme(PER_QUBIT)
    v = LogicalState(p=2, coefficients=[0.6, 0.8])
    state = _expand_all(concat_encode(scheme, v)).flat()
    # undo every block encoder; slot 0 of each 4-qubit block carries the
    # codeword digit and the rest returns to |0>
    for i in range(5):
        state = build_encoder(2).inverse().apply(state, offset=4 * i)
    codeword = encode(scheme.outer, v)
    for idx in range(32):
        digits = [(idx >> (4 - i)) & 1 for i in range(5)]
        placed = sum(d << (19 - 4 * i) for i, d in enumerate(digits))
        assert abs(state.amplitudes[placed] - codeword.amplitudes[idx]) < 1e-12


# ---------------------------------------------------------------------------
# The register-wide gate-program path, kept as the oracle
# ---------------------------------------------------------------------------


def _gate_program_encode(scheme, v):
    """Scatter the codeword to its block addresses, then run the encoder
    program at every block offset of the whole register."""
    n_out, total = scheme.outer.n, scheme.total_qubits
    span = scheme.inner.total
    index = np.arange(2**n_out)
    placed = np.zeros(2**n_out, dtype=np.int64)
    for block, carried in enumerate(scheme.assignment):
        for slot, q in enumerate(carried):
            bit = (index >> (n_out - 1 - q)) & 1
            placed |= bit << (total - 1 - block * span - slot)
    amplitudes = np.zeros(2**total, dtype=np.complex128)
    amplitudes[placed] = encode(scheme.outer, v).amplitudes
    state = StateVector(p=2, n=total, amplitudes=amplitudes)
    for block in range(scheme.blocks):
        state = build_encoder(scheme.inner.n).apply(state, offset=block * span)
    return state


def _aligned_gap(a, b):
    """Largest amplitude gap between a and b up to one global phase.

    split_factor fixes the global phase on the dropped half's largest
    amplitude; the dropped half often holds two of equal size, and
    rounding picks one, so two paths agree up to one global phase.
    """
    overlap = np.vdot(b, a)
    return np.max(np.abs(a * np.conj(overlap) / abs(overlap) - b))


@given(st.sampled_from([WHOLE_REGISTER, PER_QUBIT]),
       st.sampled_from(["identity", "correctable", "two-pauli"]),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_block_contractions_match_the_gate_program_path(blocking, model, seed):
    scheme = _scheme(blocking)
    noise = {"identity": noise_identity(),
             "correctable": noise_correctable(scheme),
             "two-pauli": noise_two_pauli(scheme)}[model]
    v = _random_logical(seed)
    event = noise(np.random.default_rng(seed))
    expected = _gate_program_encode(scheme, v)
    got = concat_encode(scheme, v)
    assert np.max(np.abs(_expand_all(got).flat().amplitudes
                         - expected.amplitudes)) < 1e-12
    damaged = apply_channel_damage(
        scheme, dense_blocks.physical_blocks(scheme, expected), event)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(concat, "_inner_stage", dense_blocks.dense_inner_stage)
        reference, reference_trace = concat_decode(scheme, damaged, event)
    for physical in (damaged, apply_channel_damage(scheme, got, event)):
        recovered, trace = concat_decode(scheme, physical, event)
        assert trace == reference_trace
        assert _aligned_gap(recovered.coefficients,
                            reference.coefficients) < 1e-12


def test_gate_kernels_act_on_single_blocks_only(monkeypatch):
    # Only the erased block is decoded.  A recorded hit that the event
    # declares is one gather from the carried core, the outer codeword's
    # 2**5 amplitudes, and runs no program.  An applied hit runs decoder
    # and recovery on a register reduced to the other blocks' carried
    # qubits: the erased block's 2n qubits (at most 2 MAX_BLOCK) plus
    # theirs.  Neither reads the whole 20-qubit per-qubit register.
    reads = []
    gather = ghz_erasure.CarriedErasureMap.rows
    run = GateProgram.apply

    def recording_gather(self, core, operator):
        reads.append(("gather", core.size))
        return gather(self, core, operator)

    def recording_run(self, s, offset=0):
        reads.append(("program", s.n))
        return run(self, s, offset)

    monkeypatch.setattr(ghz_erasure.CarriedErasureMap, "rows",
                        recording_gather)
    monkeypatch.setattr(GateProgram, "apply", recording_run)
    for blocking, recorded in itertools.product((WHOLE_REGISTER, PER_QUBIT),
                                                (True, False)):
        scheme = _scheme(blocking)
        v = _random_logical(3)
        event = ChannelEvent(
            erasure=ErasurePosition(address=1, n=scheme.inner.n),
            corruption="Y", block=scheme.blocks - 1)
        # The first decode may build the maps, which runs the programs.
        for _warm in range(2):
            physical = apply_channel_damage(scheme, concat_encode(scheme, v),
                                            event)
            if not recorded:
                physical.core  # reading the amplitudes applies the hit
            del reads[:]
            recovered, _ = concat_decode(scheme, physical, event)
            assert fidelity_up_to_phase(v.as_state(),
                                        recovered.as_state()) > 1 - 1e-10
        if recorded:
            assert reads == [("gather", 2**scheme.outer.n)]
            continue
        others = scheme.outer.n - len(scheme.assignment[event.block])
        # Decoder, then recovery.
        assert reads == [("program", 2 * scheme.inner.n + others)] * 2


def _exact_norm2(a):
    return math.fsum((np.abs(a.reshape(-1))**2).tolist())


def _erased_rows_cases():
    """Every inner n, carried count c and erasure address, each with
    0-2 carried qubits before and after the block, cycled."""
    cases = []
    for n in range(MIN_BLOCK, MAX_BLOCK + 1):
        for c in range(1, n + 1):
            for address in range(2 * n):
                before, after = divmod(len(cases) % 9, 3)
                cases.append((n, c, address, before, after))
    return cases


@pytest.mark.parametrize("n, c, address, before, after", _erased_rows_cases())
def test_erased_rows_are_the_slab_kernels_rows_bit_for_bit(
        n, c, address, before, after):
    # Random complex blocks, mostly off the support, dense and with half
    # the entries +-0, on a core with one axis per qubit before the
    # block: erased_rows keeps the rows that decoder then recovery, run
    # one slab kernel at a time, write where the padding reads 0, signed
    # zeros included, and their share of the input's norm is the
    # programs' all-zero probability.
    pos = ErasurePosition(address=address, n=n)
    rng = np.random.default_rng([n, c, address])
    total = before + 2 * n + after
    gates = [(gate.kind, tuple(q + before for q in gate.qubits))
             for gate in build_decoder(n, pos).gates
             + build_recovery(n, pos).gates]
    dense = rng.normal(size=2**total) + 1j * rng.normal(size=2**total)
    for x in (dense, dense * (rng.random(2**total) < 0.5)):
        out = slab_kernels.run_gates(x, total, gates)
        content = before + (n if pos.side == "message" else 0)
        cube = out.reshape((2,) * total)
        kept = cube[(slice(None),) * (content + c) + (0,) * (n - c)]
        # (before, damaged, carried, after), damaged half first.
        want = kept.reshape(2**before, 2**n, 2**c, 2**after) if (
            pos.side == "message") else kept.reshape(
                2**before, 2**c, 2**n, 2**after).transpose(0, 2, 1, 3)
        core = x.reshape((2,) * before + (4**n, 2**after))
        got = ghz_erasure.erased_rows(core, before, c, pos).reshape(
            2**n, 2**before, 2**c, 2**after)
        assert np.array_equal(got.transpose(1, 0, 2, 3).view(np.uint64),
                              np.ascontiguousarray(want).view(np.uint64))
        # Sums rounded once, so only the programs' own rounding differs:
        # the rows over their input, against the programs' branch over
        # their output.
        got_probability = _exact_norm2(got) / _exact_norm2(x)
        want_probability = _exact_norm2(want) / _exact_norm2(out)
        assert abs(got_probability - want_probability) <= 1e-15


# ---------------------------------------------------------------------------
# The dense block isometries, kept as the oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("blocking", [WHOLE_REGISTER, PER_QUBIT])
def test_encoding_matches_the_dense_isometries_bit_for_bit(blocking):
    # Expanding every axis scatters each block's support rows; the dense
    # form contracts each carried axis with the whole of E.
    scheme = _scheme(blocking)
    inputs = [LogicalState(p=2, coefficients=[1, 0]),
              LogicalState(p=2, coefficients=[0, 1])]
    inputs += [_random_logical(seed) for seed in range(6)]
    for v in inputs:
        register = concat_encode(scheme, v)
        got = _expand_all(register).core.reshape(-1)
        want = dense_blocks.dense_form(register).amplitudes
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("form", ["blocks", "dense"])
@pytest.mark.parametrize("blocking", [WHOLE_REGISTER, PER_QUBIT])
def test_inner_stage_matches_the_dense_isometries_on_every_event(
        blocking, form, monkeypatch):
    # Every enumerable event, whole-register and per-qubit at n = 2: no
    # erasure, or an erasure at each address of each block with no
    # corruption or a Pauli one, each with every outer Pauli of weight at
    # most one.  The block register, carried or with every axis physical,
    # runs the one inner stage; the dense isometries on its dense form
    # are the oracle.
    scheme = _scheme(blocking)
    physical = concat_encode(scheme, _random_logical(11))
    if form == "dense":
        physical = dense_blocks.physical_blocks(
            scheme, dense_blocks.dense_form(physical))
    paulis = [None] + [PauliError.single(2, scheme.outer.n, q, b=b, s=sp)
                       for q in range(scheme.outer.n)
                       for b, sp in ((1, 0), (0, 1), (1, 1))]
    inner_events = [ChannelEvent()] + [
        ChannelEvent(erasure=ErasurePosition(address=a, n=scheme.inner.n),
                     corruption=corruption, block=block)
        for block in range(scheme.blocks)
        for a in range(scheme.inner.total)
        for corruption in (None, "X", "Y", "Z")]
    inner_stage = concat._inner_stage
    for inner in inner_events:
        damaged = apply_channel_damage(scheme, physical, inner)
        got = inner_stage(scheme, damaged, inner)
        want = dense_blocks.dense_inner_stage(scheme, damaged, inner)
        assert _aligned_gap(got.amplitudes, want.amplitudes) <= 1e-15
        for pauli in paulis:
            event = ChannelEvent(pauli=pauli, erasure=inner.erasure,
                                 corruption=inner.corruption,
                                 block=inner.block)
            decoded = []
            for reduced in (got, want):
                monkeypatch.setattr(concat, "_inner_stage",
                                    lambda *_, state=reduced: state)
                decoded.append(concat_decode(scheme, damaged, event))
            (recovered, trace), (reference, reference_trace) = decoded
            assert trace == reference_trace
            assert _aligned_gap(recovered.coefficients,
                                reference.coefficients) <= 1e-15


@pytest.mark.parametrize("declared", [None, 1])
def test_mixed_axes_report_undeclared_damage_like_the_dense_form(declared):
    # An undeclared half-strength X rotation makes block 0's axis
    # physical while the others stay carried; declaring nothing, or an
    # erasure in block 1 (whose axis decoding expands), must fail with
    # the all-zero probability 1/2, word for word as the register with
    # every axis physical does.
    scheme = _scheme(PER_QUBIT)
    rotation = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
    hit = ChannelEvent(erasure=ErasurePosition(address=0, n=2),
                       corruption=rotation)
    damaged = apply_channel_damage(
        scheme, concat_encode(scheme, _random_logical()), hit)
    assert [damaged.physical(b) for b in range(scheme.blocks)] == [
        True, False, False, False, False]
    event = ChannelEvent() if declared is None else ChannelEvent(
        erasure=ErasurePosition(address=0, n=2), block=declared)
    messages = []
    for form in (damaged, dense_blocks.physical_blocks(
            scheme, dense_blocks.dense_form(damaged))):
        with pytest.raises(DecodeError, match=re.escape(
                "all-zero probability 0.5 <= bound")) as info:
            concat_decode(scheme, form, event)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


# ---------------------------------------------------------------------------
# The ten-qubit pipeline
# ---------------------------------------------------------------------------


def test_erasure_with_ancilla_bit_flip_end_to_end():
    scheme = _scheme(WHOLE_REGISTER)
    v = LogicalState(p=2, coefficients=[0.6, 0.8])
    physical = concat_encode(scheme, v).expand(0).flat()
    # qubit 1 is erased; ancilla 1' (address 5) suffers a bit flip
    flipped = apply_pauli_error(physical, PauliError.single(2, 10, 5, b=1))
    event = ChannelEvent(erasure=ErasurePosition.from_label("1", 5))
    recovered, trace = concat_decode(
        scheme, dense_blocks.physical_blocks(scheme, flipped), event)
    assert trace.syndrome == "0110"
    assert trace.correction == "S5"
    assert fidelity_up_to_phase(v.as_state(), recovered.as_state()) > 1 - 1e-10


@pytest.mark.parametrize("coeffs", [(1.0, 0.0), (0.0, 1.0)])
def test_recovery_intermediate_state_is_the_shifted_codeword(coeffs):
    # After decoding and recovery for an erasure at qubit 1 with a bit
    # flip on 1', the surviving ancilla half holds the codeword with
    # its first digit flipped, amplitude by amplitude.
    scheme = _scheme(WHOLE_REGISTER)
    v = LogicalState(p=2, coefficients=list(coeffs))
    physical = concat_encode(scheme, v).expand(0).flat()
    flipped = apply_pauli_error(physical, PauliError.single(2, 10, 5, b=1))
    pos = ErasurePosition.from_label("1", 5)
    staged = build_recovery(5, pos).apply(build_decoder(5, pos).apply(flipped))
    kept, dropped, purity = split_factor(staged, keep=range(5, 10))
    assert purity > 1 - 1e-12
    codeword = encode(scheme.outer, v)
    shifted = np.zeros(32, dtype=complex)
    for k in range(32):
        shifted[k ^ 16] = codeword.amplitudes[k]
    assert np.max(np.abs(kept.amplitudes - shifted)) < 1e-10
    # the abandoned half settles into a fixed two-branch state
    support = np.flatnonzero(np.abs(dropped.amplitudes) > 1e-9)
    assert list(support) == [0b01111, 0b10000]


def test_clean_round_trip_reports_zero_syndrome():
    scheme = _scheme(WHOLE_REGISTER)
    v = _random_logical()
    recovered, trace = concat_decode(scheme, concat_encode(scheme, v),
                                     ChannelEvent())
    assert trace.syndrome == "0000"
    assert trace.correction == "None"
    assert fidelity_up_to_phase(v.as_state(), recovered.as_state()) > 1 - 1e-10


@given(st.integers(min_value=0, max_value=9),
       st.sampled_from([None, "X", "Y", "Z"]),
       st.integers(min_value=0, max_value=14),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_random_correctable_events_recover_exactly(addr, corr, pauli_idx, seed):
    scheme = _scheme(WHOLE_REGISTER)
    v = _random_logical(seed)
    q, which = divmod(pauli_idx, 3)
    b, sp = ((1, 0), (0, 1), (1, 1))[which]
    event = ChannelEvent(pauli=PauliError.single(2, 5, q, b=b, s=sp),
                         erasure=ErasurePosition(address=addr, n=5),
                         corruption=corr)
    physical = apply_channel_damage(scheme, concat_encode(scheme, v), event)
    recovered, _ = concat_decode(scheme, physical, event)
    assert fidelity_up_to_phase(v.as_state(), recovered.as_state()) > 1 - 1e-10


def test_double_pauli_decodes_to_the_wrong_codeword():
    # Two computational errors exceed the outer distance; the decoder
    # still returns a deterministic syndrome but corrects wrongly.
    scheme = _scheme(WHOLE_REGISTER)
    v = LogicalState(p=2, coefficients=[1.0, 0.0])
    event = ChannelEvent(pauli=PauliError(m=0, b=(1, 1, 0, 0, 0),
                                          s=(0, 0, 0, 0, 0), p=2))
    recovered, trace = concat_decode(scheme, concat_encode(scheme, v), event)
    assert trace.syndrome != "0000"
    assert fidelity_up_to_phase(v.as_state(), recovered.as_state()) < 1 - 1e-6


# ---------------------------------------------------------------------------
# Damage application and failure reporting
# ---------------------------------------------------------------------------


def test_apply_channel_damage_passthrough_and_validation():
    scheme = _scheme(WHOLE_REGISTER)
    s = concat_encode(scheme, _random_logical())
    assert apply_channel_damage(scheme, s, ChannelEvent()) is s
    with pytest.raises(GhzError):
        apply_channel_damage(
            scheme, s, ChannelEvent(erasure=ErasurePosition(address=0, n=3)))
    with pytest.raises(GhzError):
        apply_channel_damage(
            scheme, s,
            ChannelEvent(erasure=ErasurePosition(address=0, n=5), block=1))


def test_apply_channel_damage_returns_a_fresh_state_and_keeps_its_input():
    # The damaged register is fresh, of unit norm, and has only the hit
    # block's axis made physical; its dense form is the corruption
    # applied to the dense form of the input.
    for scheme in (_scheme(WHOLE_REGISTER), _scheme(PER_QUBIT)):
        blocks = concat_encode(scheme, _random_logical())
        before = blocks.core.copy()
        dense = dense_blocks.dense_form(blocks)
        for address in range(scheme.inner.total):
            event = ChannelEvent(
                erasure=ErasurePosition(address=address, n=scheme.inner.n),
                corruption=random_single_qubit_unitary(RNG),
                block=scheme.blocks - 1)
            out = apply_channel_damage(scheme, blocks, event)
            assert type(out) is BlockRegister
            assert not np.shares_memory(out.core, blocks.core)
            assert [out.physical(b) for b in range(scheme.blocks)] == [
                b == event.block for b in range(scheme.blocks)]
            assert abs(out.flat().norm() - 1.0) < 1e-12
            want = corrupt_qubit(
                dense, event.block * scheme.inner.total + address,
                event.corruption)
            assert np.max(np.abs(dense_blocks.dense_form(out).amplitudes
                                 - want.amplitudes)) < 1e-15
        assert np.array_equal(blocks.core.view(np.uint64),
                              before.view(np.uint64))


@pytest.mark.parametrize("blocking", [WHOLE_REGISTER, PER_QUBIT])
def test_a_recorded_hit_reads_bit_for_bit_as_the_applied_one(blocking):
    # Damage to a carried register records the hit; reading its core
    # applies it as damage once did, the block's axis made physical and
    # then corrupt_qubit, bit for bit.  An operator changed after the
    # damage does not reach the register.
    scheme = _scheme(blocking)
    blocks = concat_encode(scheme, _random_logical(8))
    rng = np.random.default_rng(38)
    unitary = random_single_qubit_unitary(rng)
    corruptions = [None, "I", "X", "Y", "Z", unitary, 3.5 * unitary,
                   np.diag([1.0, 0.0]), [[0, 1], [1, 0]]]
    for block in range(scheme.blocks):
        width = len(scheme.assignment[block])
        for address in range(scheme.inner.total):
            for corruption in corruptions:
                given = (corruption.copy()
                         if isinstance(corruption, np.ndarray) else corruption)
                event = ChannelEvent(erasure=ErasurePosition(
                    address=address, n=scheme.inner.n),
                    corruption=given, block=block)
                out = apply_channel_damage(scheme, blocks, event)
                assert out._hit is not None
                if isinstance(given, np.ndarray):
                    given[...] = 7
                want = corrupt_qubit(blocks.expand(block).flat(),
                                     block * width + address, corruption)
                assert np.array_equal(out.core.reshape(-1).view(np.uint64),
                                      want.amplitudes.view(np.uint64))


def _applied(register):
    """The register with any recorded hit applied, as damage once did."""
    register.core
    return register


def _hit(scheme, address, block, corruption="Y"):
    return ChannelEvent(erasure=ErasurePosition(address=address,
                                                n=scheme.inner.n),
                        corruption=corruption, block=block)


# Each case, from a scheme and a unitary: the hits damage applies in
# turn, and the event decoded.
SELECTION_CASES = {
    "declared": lambda scheme, u: (
        [_hit(scheme, 1, scheme.blocks - 1, u)],
        _hit(scheme, 1, scheme.blocks - 1, None)),
    "misdeclared-position": lambda scheme, u: (
        [_hit(scheme, 1, 0, u)], _hit(scheme, 2, 0, None)),
    "other-block": lambda scheme, u: (
        [_hit(scheme, 1, 0, u)], _hit(scheme, 1, scheme.blocks - 1, None)),
    "undeclared": lambda scheme, u: (
        [_hit(scheme, 0, 0, u)],
        ChannelEvent(pauli=PauliError.single(2, scheme.outer.n, 1, b=1))),
    "second-hit": lambda scheme, u: (
        [_hit(scheme, 3, 0, u), _hit(scheme, 1, scheme.blocks - 1, "X")],
        _hit(scheme, 1, scheme.blocks - 1, None)),
    "physical-axis": lambda scheme, u: (
        [_hit(scheme, 1, 0, u)], _hit(scheme, 1, 0, None)),
}


@pytest.mark.parametrize("case", list(SELECTION_CASES))
@pytest.mark.parametrize("blocking", [WHOLE_REGISTER, PER_QUBIT])
def test_only_the_declared_hit_decodes_from_the_carried_core(blocking, case):
    # A recorded hit that the event declares decodes from the carried
    # core, to rounding of the applied hit's result, with the same error
    # text when it fails.  Every other register, a hit in another block
    # or position, no declared erasure, a second hit or a hit on a
    # physical axis, is applied first: its output or error is the
    # applied register's, bit for bit.
    scheme = _scheme(blocking)
    unitary = random_single_qubit_unitary(np.random.default_rng(21))
    hits, event = SELECTION_CASES[case](scheme, unitary)
    outcomes = []
    for apply_first in (False, True):
        register = concat_encode(scheme, _random_logical(4))
        if case == "physical-axis":
            register = register.expand(hits[0].block)
        for hit in hits:
            register = apply_channel_damage(scheme, register, hit)
        if apply_first:
            _applied(register)
        try:
            outcomes.append(concat_decode(scheme, register, event))
        except (DecodeError, RecoveryError) as error:
            outcomes.append((type(error), str(error)))
    got, want = outcomes
    if isinstance(want[0], type):
        assert got == want
        return
    assert got[1] == want[1]
    # With one block, a hit in another block is the declared one.
    if case == "declared" or (case, blocking) == ("other-block",
                                                  WHOLE_REGISTER):
        assert _aligned_gap(got[0].coefficients,
                            want[0].coefficients) <= 1e-15
    else:
        assert np.array_equal(got[0].coefficients.view(np.uint64),
                              want[0].coefficients.view(np.uint64))


def test_undeclared_damage_is_detected():
    scheme = _scheme(WHOLE_REGISTER)
    v = _random_logical()
    physical = concat_encode(scheme, v)
    # corrupt a qubit while claiming the channel was clean
    sneaky = ChannelEvent(erasure=ErasurePosition(address=3, n=5),
                          corruption="Y")
    damaged = apply_channel_damage(scheme, physical, sneaky)
    with pytest.raises(DecodeError):
        concat_decode(scheme, damaged, ChannelEvent())


@pytest.mark.parametrize("blocking", [WHOLE_REGISTER, PER_QUBIT])
def test_undeclared_damage_error_states_the_margin(blocking):
    # A half-strength X rotation of an undeclared erasure leaves the
    # all-zero outcome of the ancilla and padding qubits at probability
    # 1/2, which the error quotes against the bound.
    scheme = _scheme(blocking)
    rotation = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
    sneaky = ChannelEvent(erasure=ErasurePosition(address=0, n=scheme.inner.n),
                          corruption=rotation)
    physical = concat_encode(scheme, _random_logical())
    damaged = apply_channel_damage(scheme, physical, sneaky)
    with pytest.raises(
            DecodeError,
            match=r"all-zero probability 0\.5 <= bound 0\.999999999\)"):
        concat_decode(scheme, damaged, ChannelEvent())


def test_erased_block_padding_is_checked_before_projection():
    # Per-qubit blocks pad their message half with |0>.  A Z on ancilla
    # 1' of block 0, declared as an erasure of qubit 1, leaves the
    # erased block's padding at |1> after recovery: its all-zero
    # probability is 0, which must be reported, not projected away.
    scheme = _scheme(PER_QUBIT)
    physical = concat_encode(scheme, _random_logical())
    hit = ChannelEvent(erasure=ErasurePosition(address=2, n=2),
                       corruption="Z")
    damaged = apply_channel_damage(scheme, physical, hit)
    declared = ChannelEvent(erasure=ErasurePosition(address=0, n=2))
    with pytest.raises(DecodeError,
                       match=r"all-zero probability 0 <= bound 0\.999999999"):
        concat_decode(scheme, damaged, declared)


@pytest.mark.parametrize("blocking", [WHOLE_REGISTER, PER_QUBIT])
def test_non_finite_corruption_is_rejected_before_decoding(blocking):
    scheme = _scheme(blocking)
    physical = concat_encode(scheme, _random_logical())
    for bad in (np.nan, np.inf):
        event = ChannelEvent(
            erasure=ErasurePosition(address=1, n=scheme.inner.n),
            corruption=np.array([[1.0, 0.0], [0.0, bad]]))
        with pytest.raises(GhzError, match="non-finite"):
            apply_channel_damage(scheme, physical, event)


@pytest.mark.parametrize("blocking", [WHOLE_REGISTER, PER_QUBIT])
def test_events_that_do_not_fit_the_scheme_are_rejected(blocking):
    # Side information for another scheme must fail before any decoding
    # work, never decode as if the erasure had not happened.
    scheme = _scheme(blocking)
    physical = concat_encode(scheme, _random_logical())
    outside = ChannelEvent(
        erasure=ErasurePosition(address=0, n=scheme.inner.n),
        block=scheme.blocks + 2)
    wrong_size = ChannelEvent(erasure=ErasurePosition(address=0, n=3))
    short = ChannelEvent(pauli=PauliError.single(2, 4, 0, b=1))
    qutrit = ChannelEvent(pauli=PauliError.single(3, 5, 0, b=1))
    for run in (apply_channel_damage, concat_decode):
        for event in (outside, wrong_size):
            with pytest.raises(GhzError):
                run(scheme, physical, event)
        for event in (short, qutrit):
            with pytest.raises(CodeError, match="does not match the codeword"):
                run(scheme, physical, event)


@pytest.mark.parametrize("run", [apply_channel_damage, concat_decode])
@pytest.mark.parametrize("erased", [False, True])
@pytest.mark.parametrize("register, message", [
    pytest.param(lambda scheme: dense_blocks.dense_form(
        concat_encode(scheme, _random_logical(2))),
        "need a BlockRegister, got StateVector", id="dense"),
    pytest.param(lambda scheme: basis_state(2, (0,) * 9),
                 "need a BlockRegister, got StateVector", id="nine-qubits"),
    pytest.param(lambda scheme: None,
                 "need a BlockRegister, got NoneType", id="none"),
    pytest.param(lambda scheme: "x", "need a BlockRegister, got str",
                 id="string"),
    pytest.param(lambda scheme: np.zeros(2**scheme.total_qubits),
                 "need a BlockRegister, got ndarray", id="ndarray"),
    pytest.param(lambda scheme: concat_encode(_scheme(PER_QUBIT),
                                              _random_logical(2)),
                 "block register of another scheme", id="per-qubit")])
def test_a_register_that_is_not_a_block_register_of_the_scheme_is_rejected(
        run, erased, register, message, monkeypatch):
    # Both entry points take only a BlockRegister of their own scheme and
    # refuse anything else before any work: a dense register of the right
    # size is no longer read as every axis physical, and an event without
    # an erasure no longer passes its register through unchecked.
    scheme = _scheme(WHOLE_REGISTER)
    event = _last_block_erasure(scheme) if erased else ChannelEvent()
    s = register(scheme)

    def no_work(*args):
        raise AssertionError("work began before the register was checked")

    for name in ("encoder_isometry", "corrupt_qubit", "carried_corruption",
                 "carried_erasure_map", "_inner_stage"):
        monkeypatch.setattr(concat, name, no_work)
    with pytest.raises(CodeError, match=re.escape(message)):
        run(scheme, s, event)


def _off_support_index(scheme, block):
    """A register index whose digit for block lies off the support rows
    of that block's encoder isometry, the other blocks' digits on theirs."""
    span = 2**scheme.inner.total
    digits = []
    for b, carried in enumerate(scheme.assignment):
        rows = encoder_isometry(scheme.inner.n, len(carried)).rows
        digits.append(np.setdiff1d(np.arange(span), rows)[0] if b == block
                      else rows[0])
    return int(np.ravel_multi_index(digits, (span,) * scheme.blocks))


def _last_block_erasure(scheme):
    return ChannelEvent(erasure=ErasurePosition(address=1, n=scheme.inner.n),
                        block=scheme.blocks - 1)


@pytest.mark.parametrize("blocking, form", [
    pytest.param(WHOLE_REGISTER, "dense", id=WHOLE_REGISTER),
    pytest.param(PER_QUBIT, "dense", id=PER_QUBIT),
    pytest.param(WHOLE_REGISTER, "blocks", id=f"{WHOLE_REGISTER}-blocks"),
    pytest.param(PER_QUBIT, "blocks", id=f"{PER_QUBIT}-blocks")])
@pytest.mark.parametrize("erased", [False, True])
@pytest.mark.parametrize("bad, shown", [
    (np.nan, "nan"), (np.inf, "inf"), (1e300, "inf"), (0.0, "0")])
def test_a_register_of_bad_norm_is_refused_before_any_gather(
        blocking, form, erased, bad, shown, monkeypatch):
    # A NaN, an infinity or a 1e300 (whose square overflows) off the
    # encoder's support of a register with every axis physical, or in a
    # carried register's core, or an all-zero register of either form,
    # must raise with the norm quoted before a support row is read.
    scheme = _scheme(blocking)
    event = _last_block_erasure(scheme) if erased else ChannelEvent()
    blocks = concat_encode(scheme, _random_logical(5))
    if form == "dense":
        blocks = dense_blocks.physical_blocks(
            scheme, dense_blocks.dense_form(blocks))
        index = _off_support_index(scheme, 0)
    else:
        index = 0
    amplitudes = blocks.core.reshape(-1).copy()
    if bad == 0:
        amplitudes[:] = 0
    else:
        amplitudes[index] = bad
    register = BlockRegister(scheme, amplitudes.reshape(blocks.core.shape))

    def no_gather(*args):
        raise AssertionError("support rows read before the norm check")

    monkeypatch.setattr(concat, "encoder_isometry", no_gather)
    with pytest.raises(CodeError, match=re.escape(
            f"register norm {shown} outside [1e-14, inf)")):
        concat_decode(scheme, register, event)


@pytest.mark.parametrize("blocking, erased", [
    (WHOLE_REGISTER, False), (PER_QUBIT, False), (PER_QUBIT, True)])
@pytest.mark.parametrize("junk, shown", [(1.0, "0.5"), (1e150, "1e-300")])
def test_junk_off_the_support_fails_the_all_zero_check(blocking, erased,
                                                      junk, shown):
    # The gather never reads an amplitude off the support; the junk
    # still counts in the register norm, so the all-zero probability
    # drops to 1 / (1 + junk**2).  These decoded as clean before.
    scheme = _scheme(blocking)
    event = _last_block_erasure(scheme) if erased else ChannelEvent()
    amplitudes = dense_blocks.dense_form(
        concat_encode(scheme, _random_logical(5))).amplitudes.copy()
    amplitudes[_off_support_index(scheme, 0)] = junk
    register = dense_blocks.physical_blocks(
        scheme, StateVector(p=2, n=scheme.total_qubits, amplitudes=amplitudes))
    with pytest.raises(DecodeError, match=re.escape(
            f"all-zero probability {shown} <= bound")):
        concat_decode(scheme, register, event)


@pytest.mark.parametrize("blocking", [WHOLE_REGISTER, PER_QUBIT])
@pytest.mark.parametrize("erased", [False, True])
def test_a_scaled_clean_register_still_decodes(blocking, erased):
    scheme = _scheme(blocking)
    event = _last_block_erasure(scheme) if erased else ChannelEvent()
    v = _random_logical(6)
    blocks = concat_encode(scheme, v)
    dense = dense_blocks.dense_form(blocks)
    for scaled in (BlockRegister(scheme, 2 * blocks.core),
                   dense_blocks.physical_blocks(scheme, StateVector(
                       p=2, n=dense.n, amplitudes=2 * dense.amplitudes))):
        recovered, trace = concat_decode(scheme, scaled, event)
        assert trace.syndrome == "0" * scheme.outer.m
        assert fidelity_up_to_phase(v.as_state(),
                                    recovered.as_state()) > 1 - 1e-12


# ---------------------------------------------------------------------------
# Per-qubit blocking at twenty qubits
# ---------------------------------------------------------------------------


def test_per_qubit_clean_round_trip():
    scheme = _scheme(PER_QUBIT)
    v = _random_logical()
    recovered, trace = concat_decode(scheme, concat_encode(scheme, v),
                                     ChannelEvent())
    assert trace.syndrome == "0000"
    assert fidelity_up_to_phase(v.as_state(), recovered.as_state()) > 1 - 1e-10


def test_per_qubit_erasure_with_pauli_recovers():
    scheme = _scheme(PER_QUBIT)
    v = _random_logical()
    event = ChannelEvent(pauli=PauliError.single(2, 5, 3, b=1, s=1),
                         erasure=ErasurePosition(address=2, n=2),
                         corruption="X", block=1)
    physical = apply_channel_damage(scheme, concat_encode(scheme, v), event)
    recovered, trace = concat_decode(scheme, physical, event)
    assert trace.event == "erasure@1:1'+BS4"
    assert fidelity_up_to_phase(v.as_state(), recovered.as_state()) > 1 - 1e-10


def test_per_qubit_erasure_in_every_block_recovers():
    # Each block is erased once, the address rotating through the block,
    # and the erased qubit suffers a random unitary.
    scheme = _scheme(PER_QUBIT)
    rng = np.random.default_rng(41)
    for block in range(scheme.blocks):
        v = _random_logical(block)
        pos = ErasurePosition(address=block % scheme.inner.total,
                              n=scheme.inner.n)
        event = ChannelEvent(erasure=pos, block=block,
                             corruption=random_single_qubit_unitary(rng))
        physical = apply_channel_damage(scheme, concat_encode(scheme, v), event)
        recovered, trace = concat_decode(scheme, physical, event)
        assert trace.syndrome == "0000"
        assert fidelity_up_to_phase(v.as_state(),
                                    recovered.as_state()) > 1 - 1e-10


@pytest.mark.parametrize("blocking", [WHOLE_REGISTER, PER_QUBIT])
def test_two_damaged_qubits_in_the_declared_block_never_decode(blocking):
    # An undeclared second loss in the erased block exceeds the inner
    # code: decoding must fail loudly, not return a clean-looking state.
    scheme = _scheme(blocking)
    block = scheme.blocks - 1
    rng = np.random.default_rng(17)
    span = scheme.inner.total
    for declared in range(span):
        for other in range(span):
            if other == declared:
                continue
            physical = concat_encode(scheme, _random_logical(other))
            for address in (other, declared):
                hit = ChannelEvent(
                    erasure=ErasurePosition(address=address, n=scheme.inner.n),
                    corruption=random_single_qubit_unitary(rng), block=block)
                physical = apply_channel_damage(scheme, physical, hit)
            event = ChannelEvent(
                erasure=ErasurePosition(address=declared, n=scheme.inner.n),
                block=block)
            with pytest.raises((RecoveryError, DecodeError)):
                concat_decode(scheme, physical, event)


def test_per_qubit_blocking_runs_past_the_dense_size_limit():
    # Inner n = 6 makes a 60-qubit register.  Its blocks stay carried
    # until hit, so correctable events decode exactly without it.
    scheme = _scheme(PER_QUBIT, inner_n=6)
    stats = effective_channel(scheme, noise_correctable(scheme), trials=20,
                              seed=3)
    assert stats["failures"] == 0
    assert stats["min_fidelity"] > 1 - 1e-9


# ---------------------------------------------------------------------------
# Monte-Carlo channel statistics
# ---------------------------------------------------------------------------


def test_effective_channel_is_deterministic_per_seed():
    scheme = _scheme(WHOLE_REGISTER)
    a = effective_channel(scheme, noise_correctable(scheme), trials=20, seed=7)
    b = effective_channel(scheme, noise_correctable(scheme), trials=20, seed=7)
    c = effective_channel(scheme, noise_correctable(scheme), trials=20, seed=8)
    assert a == b
    assert a != c


@pytest.mark.parametrize("blocking", [WHOLE_REGISTER, PER_QUBIT])
def test_effective_channel_agrees_with_hits_applied_before_decoding(
        blocking, monkeypatch):
    scheme = _scheme(blocking)
    recorded = effective_channel(scheme, noise_correctable(scheme),
                                 trials=40, seed=38)
    damage = concat.apply_channel_damage
    monkeypatch.setattr(concat, "apply_channel_damage",
                        lambda *args: _applied(damage(*args)))
    applied = effective_channel(scheme, noise_correctable(scheme),
                                trials=40, seed=38)
    assert recorded.keys() == applied.keys()
    for key, value in applied.items():
        assert abs(recorded[key] - value) <= 1e-12, key


def test_carried_maps_compose_once_per_block_shape():
    # Per-qubit at inner n = 2: one composition for each of the four
    # erasure positions, whichever blocks the hits strike; only the
    # spread over the carried amplitudes around the block is per shape.
    scheme = _scheme(PER_QUBIT)
    ghz_erasure._composed_erasure.cache_clear()
    ghz_erasure.carried_erasure_map.cache_clear()
    effective_channel(scheme, noise_correctable(scheme), trials=40, seed=39)
    assert ghz_erasure._composed_erasure.cache_info().currsize == 4
    assert ghz_erasure.carried_erasure_map.cache_info().currsize > 4


def test_effective_channel_refuses_a_negative_seed_before_drawing():
    def never(rng):
        raise AssertionError("drew an event")

    with pytest.raises(CodeError, match=r"need a seed >= 0, got -1"):
        effective_channel(_scheme(), never, trials=3, seed=-1)


def test_effective_channel_statistics_by_model():
    scheme = _scheme(WHOLE_REGISTER)
    clean = effective_channel(scheme, noise_identity(), trials=10, seed=1)
    assert clean["failures"] == 0
    assert clean["min_fidelity"] > 1 - 1e-9
    assert clean["kind.none.count"] == 10
    good = effective_channel(scheme, noise_correctable(scheme), trials=25,
                             seed=2)
    assert good["failures"] == 0
    assert good["min_fidelity"] > 1 - 1e-9
    bad = effective_channel(scheme, noise_two_pauli(scheme), trials=25, seed=3)
    assert bad["failures"] > 0
    assert bad["mean_fidelity"] < 1 - 1e-3
    assert bad["failure_rate"] == bad["failures"] / 25


def test_per_qubit_effective_channel_is_pinned():
    # Statistics of three correctable per-qubit trials at seed 5: counts
    # exactly, fidelities at the 12 significant digits of the records
    # output, since their last bits follow the floating-point summation
    # order of the decoder.
    scheme = _scheme(PER_QUBIT)
    stats = effective_channel(scheme, noise_correctable(scheme), trials=3,
                              seed=5)
    fidelities = ("mean_fidelity", "min_fidelity",
                  "kind.erasure+pauli.mean_fidelity")
    assert {k: v for k, v in stats.items() if k not in fidelities} == {
        "trials": 3.0,
        "failures": 0.0,
        "failure_rate": 0.0,
        "kind.erasure+pauli.count": 3.0,
    }
    assert {k: f"{stats[k]:.12g}" for k in fidelities} == dict.fromkeys(
        fidelities, "1")


def test_effective_channel_rejects_empty_runs():
    scheme = _scheme(WHOLE_REGISTER)
    with pytest.raises(CodeError):
        effective_channel(scheme, noise_identity(), trials=0, seed=1)
