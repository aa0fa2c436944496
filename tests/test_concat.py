"""Tests for the concatenated code: graph code outside, GHZ code inside.

The anchor scenario is the ten-qubit pipeline: encode, erase message
qubit 1 while ancilla 1' takes a bit flip, recover, and read syndrome
0110 whose tabulated correction restores the input exactly.  Per-qubit
blocking scales the same machinery to a twenty-qubit register.  The
register-wide gate-program path, which the block contractions replaced,
stays here as their oracle, and the dense block isometries (module
dense_blocks) as the oracle of the support-row encode and gather.
"""

import re

import dense_blocks
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concatqec import concat, statevec
from concatqec.concat import (
    PER_QUBIT,
    WHOLE_REGISTER,
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
    ErasurePosition,
    GhzError,
    GhzLayout,
    RecoveryError,
    build_decoder,
    build_encoder,
    build_recovery,
    encoder_isometry,
    split_recovered,
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
    split_factor,
)

RNG = np.random.default_rng(20240820)


def _scheme(blocking=WHOLE_REGISTER, inner_n=None):
    g = five_qubit_decoding_graph()
    if inner_n is None:
        inner_n = 5 if blocking == WHOLE_REGISTER else 2
    return ConcatScheme(outer=g, inner=GhzLayout(inner_n), blocking=blocking)


def _random_logical(seed=None):
    rng = RNG if seed is None else np.random.default_rng(seed)
    return LogicalState(p=2, coefficients=random_state(2, 1, rng).amplitudes)


# ---------------------------------------------------------------------------
# Channel events
# ---------------------------------------------------------------------------


def test_event_requires_erasure_for_corruption():
    with pytest.raises(GhzError):
        ChannelEvent(corruption="X")
    with pytest.raises(GhzError):
        ChannelEvent(block=-1)


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


def test_scheme_rejects_a_register_above_the_size_limit():
    # Per-qubit blocking with inner n = 3 needs 5 * 6 = 30 qubits; the
    # scheme refuses it before any register exists, quoting both sizes.
    g = five_qubit_decoding_graph()
    with pytest.raises(CodeError,
                       match=rf"30 qubits\) needs {2**30} amplitudes, "
                             rf"above the limit of {MAX_AMPLITUDES}"):
        ConcatScheme(outer=g, inner=GhzLayout(3), blocking=PER_QUBIT)


# ---------------------------------------------------------------------------
# Encoding structure
# ---------------------------------------------------------------------------


def test_whole_register_encoding_wraps_the_codeword():
    scheme = _scheme(WHOLE_REGISTER)
    v = LogicalState(p=2, coefficients=[0.6, 0.8])
    got = concat_encode(scheme, v)
    codeword = encode(scheme.outer, v)
    manual = np.kron(codeword.amplitudes, basis_state(2, (0,) * 5).amplitudes)
    expected = build_encoder(5).apply(StateVector(p=2, n=10, amplitudes=manual))
    assert np.max(np.abs(got.amplitudes - expected.amplitudes)) < 1e-12


def test_per_qubit_encoding_places_one_codeword_digit_per_block():
    scheme = _scheme(PER_QUBIT)
    v = LogicalState(p=2, coefficients=[0.6, 0.8])
    state = concat_encode(scheme, v)
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


def _gate_program_inner_stage(scheme, s, event):
    """Decoder and recovery on the erased block and the inverse encoder
    on every other block, all on the whole register; then padding and
    ancillas are projected onto |0> and the damaged half split off."""
    n_in, span = scheme.inner.n, scheme.inner.total
    erasure = event.erasure
    erased_block = event.block if erasure is not None else None
    state = s
    outer_addrs, zero_addrs, discard_addrs = [], [], []
    for block, carried in enumerate(scheme.assignment):
        base = block * span
        if block == erased_block:
            state = build_decoder(n_in, erasure).apply(state, offset=base)
            state = build_recovery(n_in, erasure).apply(state, offset=base)
            content = base + n_in if erasure.side == "message" else base
            discard = base if erasure.side == "message" else base + n_in
            discard_addrs.extend(range(discard, discard + n_in))
        else:
            state = build_encoder(n_in).inverse().apply(state, offset=base)
            content = base
            zero_addrs.extend(range(base + n_in, base + span))
        outer_addrs.extend(range(content, content + len(carried)))
        zero_addrs.extend(range(content + len(carried), content + n_in))
    if zero_addrs:
        _prob, state = dense_blocks.project_zero(state, zero_addrs)
    if erased_block is None:
        return state
    remaining = sorted(outer_addrs + discard_addrs)
    kept, _dropped = split_recovered(
        state, [remaining.index(a) for a in outer_addrs])
    return kept


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
    assert np.max(np.abs(got.amplitudes - expected.amplitudes)) < 1e-12
    damaged = apply_channel_damage(scheme, expected, event)
    recovered, trace = concat_decode(scheme, damaged, event)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(concat, "_inner_stage", _gate_program_inner_stage)
        reference, reference_trace = concat_decode(scheme, damaged, event)
    assert trace == reference_trace
    assert _aligned_gap(recovered.coefficients, reference.coefficients) < 1e-12


def test_gate_kernels_act_on_single_blocks_only(monkeypatch):
    # Only the erased block runs gate programs, on a register reduced to
    # the other blocks' carried qubits; no kernel sees the whole
    # 20-qubit per-qubit register.
    sizes = []
    permute, hadamard = statevec.permute_signed, statevec.hadamard_in_place

    def recording_permute(amps, lo, src, negate):
        sizes.append(int(np.log2(amps.size)))
        return permute(amps, lo, src, negate)

    def recording_hadamard(amps, n, q):
        sizes.append(n)
        hadamard(amps, n, q)

    monkeypatch.setattr(statevec, "permute_signed", recording_permute)
    monkeypatch.setattr(statevec, "hadamard_in_place", recording_hadamard)
    for blocking in (WHOLE_REGISTER, PER_QUBIT):
        scheme = _scheme(blocking)
        v = _random_logical(3)
        event = ChannelEvent(
            erasure=ErasurePosition(address=1, n=scheme.inner.n),
            corruption="Y", block=scheme.blocks - 1)
        physical = apply_channel_damage(scheme, concat_encode(scheme, v), event)
        recovered, _ = concat_decode(scheme, physical, event)
        assert fidelity_up_to_phase(v.as_state(),
                                    recovered.as_state()) > 1 - 1e-10
    assert sizes and max(sizes) <= 2 * MAX_BLOCK


# ---------------------------------------------------------------------------
# The dense block isometries, kept as the oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("blocking", [WHOLE_REGISTER, PER_QUBIT])
def test_encoding_matches_the_dense_isometries_bit_for_bit(blocking):
    scheme = _scheme(blocking)
    inputs = [LogicalState(p=2, coefficients=[1, 0]),
              LogicalState(p=2, coefficients=[0, 1])]
    inputs += [_random_logical(seed) for seed in range(6)]
    for v in inputs:
        got = concat_encode(scheme, v).amplitudes
        want = dense_blocks.dense_encode(scheme, v).amplitudes
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_inner_stage_matches_the_dense_isometries_on_every_event(monkeypatch):
    # Every enumerable per-qubit n = 2 event: no erasure, or an erasure
    # at each address of each block with no corruption or a Pauli one,
    # each with every outer Pauli of weight at most one.
    scheme = _scheme(PER_QUBIT)
    physical = concat_encode(scheme, _random_logical(11))
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


# ---------------------------------------------------------------------------
# The ten-qubit pipeline
# ---------------------------------------------------------------------------


def test_erasure_with_ancilla_bit_flip_end_to_end():
    scheme = _scheme(WHOLE_REGISTER)
    v = LogicalState(p=2, coefficients=[0.6, 0.8])
    physical = concat_encode(scheme, v)
    # qubit 1 is erased; ancilla 1' (address 5) suffers a bit flip
    flipped = apply_pauli_error(physical, PauliError.single(2, 10, 5, b=1))
    event = ChannelEvent(erasure=ErasurePosition.from_label("1", 5))
    recovered, trace = concat_decode(scheme, flipped, event)
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
    physical = concat_encode(scheme, v)
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
    scheme = _scheme(WHOLE_REGISTER)
    s = concat_encode(scheme, _random_logical())
    before = s.amplitudes.copy()
    for address in range(scheme.inner.total):
        event = ChannelEvent(erasure=ErasurePosition(address=address, n=5),
                             corruption=random_single_qubit_unitary(RNG))
        out = apply_channel_damage(scheme, s, event)
        assert not np.shares_memory(out.amplitudes, s.amplitudes)
        assert abs(out.norm() - 1.0) < 1e-12
    assert np.array_equal(s.amplitudes.view(np.uint64),
                          before.view(np.uint64))


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


def test_register_size_mismatch_is_rejected():
    scheme = _scheme(WHOLE_REGISTER)
    with pytest.raises(CodeError):
        concat_decode(scheme, basis_state(2, (0,) * 9), ChannelEvent())


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


@pytest.mark.parametrize("blocking", [WHOLE_REGISTER, PER_QUBIT])
@pytest.mark.parametrize("erased", [False, True])
@pytest.mark.parametrize("bad, shown", [
    (np.nan, "nan"), (np.inf, "inf"), (1e300, "inf"), (0.0, "0")])
def test_a_register_of_bad_norm_is_refused_before_any_gather(
        blocking, erased, bad, shown, monkeypatch):
    # A NaN, an infinity or a 1e300 (whose square overflows) off the
    # encoder's support, or an all-zero register, must raise with the
    # norm quoted before a support row is read.
    scheme = _scheme(blocking)
    event = _last_block_erasure(scheme) if erased else ChannelEvent()
    amplitudes = concat_encode(scheme, _random_logical(5)).amplitudes.copy()
    if bad == 0:
        amplitudes[:] = 0
    else:
        amplitudes[_off_support_index(scheme, 0)] = bad
    register = StateVector(p=2, n=scheme.total_qubits, amplitudes=amplitudes)

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
    amplitudes = concat_encode(scheme, _random_logical(5)).amplitudes.copy()
    amplitudes[_off_support_index(scheme, 0)] = junk
    register = StateVector(p=2, n=scheme.total_qubits, amplitudes=amplitudes)
    with pytest.raises(DecodeError, match=re.escape(
            f"all-zero probability {shown} <= bound")):
        concat_decode(scheme, register, event)


@pytest.mark.parametrize("blocking", [WHOLE_REGISTER, PER_QUBIT])
@pytest.mark.parametrize("erased", [False, True])
def test_a_scaled_clean_register_still_decodes(blocking, erased):
    scheme = _scheme(blocking)
    event = _last_block_erasure(scheme) if erased else ChannelEvent()
    v = _random_logical(6)
    physical = concat_encode(scheme, v)
    scaled = StateVector(p=2, n=physical.n, amplitudes=2 * physical.amplitudes)
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
