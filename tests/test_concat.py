"""Tests for the concatenated code: graph code outside, GHZ code inside.

The anchor scenario is the ten-qubit pipeline: encode, erase message
qubit 1 while ancilla 1' takes a bit flip, recover, and read syndrome
0110 whose tabulated correction restores the input exactly.  Per-qubit
blocking scales the same machinery to a twenty-qubit register.  The
register-wide gate-program encoder, which the block contractions
replaced, stays here as their oracle.  Module dense_blocks holds the
dense block isometries, the physical form of a register with its hits
applied, and the gate-program inner stages, dense and block by block:
the oracles of every composed map and of the erased block's split.
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

from concatqec import concat, ghz_erasure, graph_code
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
    encoder_isometry,
    resolve_corruption,
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
from decoding_oracles import outer_stage_by_parts
from dense_blocks import corrupt_qubit
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


@pytest.mark.parametrize("kwargs, error, text", [
    (dict(pauli="X"), CodeError, "event pauli 'X' is not a PauliError"),
    (dict(pauli=np.eye(2)), CodeError, "is not a PauliError"),
    (dict(erasure=3), GhzError, "event erasure 3 is not an ErasurePosition"),
    (dict(erasure="1"), GhzError,
     "event erasure '1' is not an ErasurePosition")])
def test_event_refuses_side_information_of_another_type(kwargs, error, text):
    # ChannelEvent(pauli="X") used to reach concat_decode and fail there
    # with an AttributeError.
    with pytest.raises(error, match=re.escape(text)):
        ChannelEvent(**kwargs)


@pytest.mark.parametrize("declared", [True, False])
def test_numpy_integer_indices_decode(declared):
    # The hit is recorded under int indices, and decodes declared or, with
    # an identity corruption, undeclared.
    scheme = _scheme(PER_QUBIT)
    event = ChannelEvent(
        erasure=ErasurePosition(address=np.int64(3), n=scheme.inner.n),
        corruption="Y" if declared else "I", block=np.int32(2))
    assert (type(event.block), type(event.erasure.address)) == (int, int)
    v = _random_logical(39)
    physical = apply_channel_damage(scheme, concat_encode(scheme, v), event)
    assert [(hit.block, hit.address) for hit in physical.hits] == [(2, 3)]
    assert all(type(i) is int for i in physical.hits[0][:2])
    if not declared:
        event = ChannelEvent()
    recovered, trace = concat_decode(scheme, physical, event)
    assert trace.event == ("erasure@2:2'" if declared else "none")
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


@pytest.mark.parametrize("run", ["damage", "decode"])
def test_scheme_rejects_a_gather_above_the_size_limit(run, monkeypatch):
    # The erased block's gather has 2**(inner n) rows per core amplitude,
    # 2**10 at whole-register n = 5.  Under a limit of 2**9 both damage
    # and the decode of an unhit register refuse it, quoting both sizes,
    # before any row is built.
    scheme = _scheme(WHOLE_REGISTER)
    register = concat_encode(scheme, _random_logical())
    event = _last_block_erasure(scheme)

    def no_gather(*args):
        raise AssertionError("rows built before the size check")

    limit = 2**9
    for module in (concat, graph_code):
        monkeypatch.setattr(module, "MAX_AMPLITUDES", limit)
    monkeypatch.setattr(concat, "carried_erasure_map", no_gather)
    monkeypatch.setattr(concat, "resolve_corruption", no_gather)
    with pytest.raises(CodeError, match=re.escape(
            f"gather under whole-register blocking with inner n = 5 needs "
            f"{2**10} amplitudes, above the limit of {limit}")):
        if run == "damage":
            apply_channel_damage(scheme, register, event)
        else:
            concat_decode(scheme, register, event)
    assert MAX_AMPLITUDES == 2**26


# ---------------------------------------------------------------------------
# Encoding structure
# ---------------------------------------------------------------------------


def test_whole_register_encoding_wraps_the_codeword():
    scheme = _scheme(WHOLE_REGISTER)
    v = LogicalState(p=2, coefficients=[0.6, 0.8])
    got = dense_blocks.dense_form(concat_encode(scheme, v))
    codeword = encode(scheme.outer, v)
    manual = np.kron(codeword.amplitudes, basis_state(2, (0,) * 5).amplitudes)
    expected = build_encoder(5).apply(StateVector(p=2, n=10, amplitudes=manual))
    assert np.max(np.abs(got.amplitudes - expected.amplitudes)) < 1e-12


def test_per_qubit_encoding_places_one_codeword_digit_per_block():
    scheme = _scheme(PER_QUBIT)
    v = LogicalState(p=2, coefficients=[0.6, 0.8])
    state = dense_blocks.dense_form(concat_encode(scheme, v))
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
    assert np.max(np.abs(dense_blocks.dense_form(got).amplitudes
                         - expected.amplitudes)) < 1e-12
    # The gate-program register, damaged by corrupt_qubit and decoded by
    # the programs, against the recorded hit decoded by its composed map.
    if event.erasure is not None:
        expected = corrupt_qubit(
            expected, event.block * scheme.inner.total + event.erasure.address,
            event.corruption)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(concat, "_inner_stage", lambda scheme, _, event:
                   dense_blocks.physical_inner_stage(scheme, expected, event))
        reference, reference_trace = concat_decode(scheme, got, event)
    recovered, trace = concat_decode(
        scheme, apply_channel_damage(scheme, got, event), event)
    assert trace == reference_trace
    assert _aligned_gap(recovered.coefficients,
                        reference.coefficients) < 1e-12


def test_gate_kernels_act_on_single_blocks_only(monkeypatch):
    # Every hit block is one gather from the carried core, the outer
    # codeword's 2**5 amplitudes, and a decode runs no program.  A hit
    # the event declares, or one elsewhere in the declared block, is one
    # gather; a hit in another block adds its undeclared map's gather
    # first.  None reads the whole 20-qubit per-qubit register.
    reads = []
    gather = ghz_erasure.CarriedErasureMap.rows
    run = GateProgram.apply

    def recording_gather(self, core, operator):
        reads.append(("gather", core.size, self.weight.shape[1]))
        return gather(self, core, operator)

    def recording_run(self, s, offset=0):
        reads.append(("program", s.n))
        return run(self, s, offset)

    monkeypatch.setattr(ghz_erasure.CarriedErasureMap, "rows",
                        recording_gather)
    monkeypatch.setattr(GateProgram, "apply", recording_run)
    for blocking in (WHOLE_REGISTER, PER_QUBIT):
        scheme = _scheme(blocking)
        last = scheme.blocks - 1
        declared = _hit(scheme, 1, last, None)
        # Each hit, with the terms per row of each gather it reads: one
        # for the declared hit, two for an undeclared map (tr U I / 2),
        # and a few for a misdeclared hit.
        cases = [(_hit(scheme, 1, last, "Y"), [1]),
                 (_hit(scheme, 2, last, "Y"), None)]
        if scheme.blocks > 1:
            cases.append((_hit(scheme, 1, 0, "X"), [2, 1]))
        for hit, terms in cases:
            # The first decode may build the maps, which runs the programs.
            for _warm in range(2):
                physical = apply_channel_damage(
                    scheme, concat_encode(scheme, _random_logical(3)), hit)
                del reads[:]
                try:
                    concat_decode(scheme, physical, declared)
                except (DecodeError, RecoveryError):
                    pass
            assert [read[:2] for read in reads] == [
                ("gather", 2**scheme.outer.n)] * len(terms or [None])
            if terms is not None:
                assert [read[2] for read in reads] == terms


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
    # the entries +-0, inside a core with one axis per qubit before the
    # block: erased_rows, on each lone block of the core, keeps the rows
    # that decoder then recovery, run one slab kernel at a time over the
    # whole core, write where the padding reads 0, signed zeros included,
    # and their share of the input's norm is the programs' all-zero
    # probability.
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
        core = x.reshape(2**before, 4**n, 2**after)
        got = np.stack([np.stack([
            ghz_erasure.erased_rows(core[i, :, k], c, pos).reshape(
                2**n, 2**c) for k in range(2**after)], axis=-1)
            for i in range(2**before)])
        assert np.array_equal(got.view(np.uint64),
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
    # The register is the codeword reshaped, one carried axis per block,
    # and each block's support rows are the dense E's nonzero rows, bit
    # for bit; the composed maps read E by those rows alone.
    scheme = _scheme(blocking)
    for carried in set(map(len, scheme.assignment)):
        support = encoder_isometry(scheme.inner.n, carried)
        dense = dense_blocks.dense_isometry(scheme.inner.n, carried)
        assert np.array_equal(dense[support.rows].view(np.uint64),
                              support.block.view(np.uint64))
        off = np.setdiff1d(np.arange(len(dense)), support.rows)
        assert not dense[off].any()
    inputs = [LogicalState(p=2, coefficients=[1, 0]),
              LogicalState(p=2, coefficients=[0, 1])]
    inputs += [_random_logical(seed) for seed in range(6)]
    for v in inputs:
        register = concat_encode(scheme, v)
        assert register.hits == ()
        assert np.array_equal(
            register.core.reshape(-1).view(np.uint64),
            encode(scheme.outer, v).amplitudes.view(np.uint64))


@pytest.mark.parametrize("form", ["blocks", "dense"])
@pytest.mark.parametrize("blocking", [WHOLE_REGISTER, PER_QUBIT])
def test_inner_stage_matches_the_dense_isometries_on_every_event(
        blocking, form, monkeypatch):
    # Every enumerable event, whole-register and per-qubit at n = 2: no
    # erasure, or an erasure at each address of each block with no
    # corruption or a Pauli one, each with every outer Pauli of weight at
    # most one.  The recorded register runs the one inner stage; the
    # oracle is the dense isometries on its dense form, or one physical
    # block at a time.
    scheme = _scheme(blocking)
    physical = concat_encode(scheme, _random_logical(11))
    oracle = {"dense": dense_blocks.dense_inner_stage,
              "blocks": dense_blocks.blockwise_inner_stage}[form]
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
        want = oracle(scheme, damaged, inner)
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
    # An undeclared half-strength X rotation of block 0 is recorded while
    # the other blocks stay unhit; declaring nothing, or an erasure in
    # block 1, must fail with the all-zero probability 1/2, word for word
    # as the dense form does.
    scheme = _scheme(PER_QUBIT)
    rotation = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
    hit = ChannelEvent(erasure=ErasurePosition(address=0, n=2),
                       corruption=rotation)
    damaged = apply_channel_damage(
        scheme, concat_encode(scheme, _random_logical()), hit)
    assert [(h.block, h.address) for h in damaged.hits] == [(0, 0)]
    event = ChannelEvent() if declared is None else ChannelEvent(
        erasure=ErasurePosition(address=0, n=2), block=declared)
    messages = []
    for decode in (lambda: concat_decode(scheme, damaged, event),
                   lambda: dense_blocks.dense_inner_stage(scheme, damaged,
                                                          event)):
        with pytest.raises(DecodeError, match=re.escape(
                "all-zero probability 0.5 <= bound")) as info:
            decode()
        messages.append(str(info.value))
    assert messages[0] == messages[1]


# ---------------------------------------------------------------------------
# The ten-qubit pipeline
# ---------------------------------------------------------------------------


def test_erasure_with_ancilla_bit_flip_end_to_end():
    scheme = _scheme(WHOLE_REGISTER)
    v = LogicalState(p=2, coefficients=[0.6, 0.8])
    # qubit 1 is erased; ancilla 1' (address 5) suffers a bit flip,
    # recorded as a hit
    flipped = apply_channel_damage(scheme, concat_encode(scheme, v),
                                   _hit(scheme, 5, 0, "X"))
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
    physical = dense_blocks.dense_form(concat_encode(scheme, v))
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
    # The damaged register is fresh and records the hit on a copy of the
    # carried core; its dense form is the corruption applied to the dense
    # form of the input, before renormalization, whose squared norm the
    # register records.
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
            assert [(hit.block, hit.address) for hit in out.hits] == [
                (event.block, address)]
            got = dense_blocks.dense_form(out)
            assert abs(got.norm()**2 / out._norm2 - 1) < 1e-13
            want = corrupt_qubit(
                dense, event.block * scheme.inner.total + address,
                event.corruption)
            assert np.max(np.abs(got.amplitudes / got.norm()
                                 - want.amplitudes)) < 1e-15
        assert np.array_equal(blocks.core.view(np.uint64),
                              before.view(np.uint64))
        assert blocks.hits == ()


@pytest.mark.parametrize("blocking", [WHOLE_REGISTER, PER_QUBIT])
def test_a_recorded_hit_is_its_resolved_operator(blocking):
    # Damage records resolve_corruption's operator bit for bit, and the
    # squared norm corrupt_qubit's guard reads, ||U||_F^2 / 2 times the
    # core's.  An operator changed after the damage does not reach the
    # register.
    scheme = _scheme(blocking)
    blocks = concat_encode(scheme, _random_logical(8))
    rng = np.random.default_rng(38)
    unitary = random_single_qubit_unitary(rng)
    corruptions = [None, "I", "X", "Y", "Z", unitary, 3.5 * unitary,
                   np.diag([1.0, 0.0]), [[0, 1], [1, 0]]]
    norm = np.linalg.norm(blocks.core)
    for block in range(scheme.blocks):
        for address in range(scheme.inner.total):
            for corruption in corruptions:
                given = (corruption.copy()
                         if isinstance(corruption, np.ndarray) else corruption)
                event = ChannelEvent(erasure=ErasurePosition(
                    address=address, n=scheme.inner.n),
                    corruption=given, block=block)
                out = apply_channel_damage(scheme, blocks, event)
                if isinstance(given, np.ndarray):
                    given[...] = 7
                (hit,) = out.hits
                want = resolve_corruption(corruption)
                assert (hit.block, hit.address) == (block, address)
                assert np.array_equal(hit.operator.view(np.uint64),
                                      want.view(np.uint64))
                assert out._norm2 == (float(np.vdot(want, want).real) / 2
                                      * norm * norm)
                # A label's operator is the module's shared matrix.
                assert not (isinstance(corruption, str)
                            and hit.operator.flags.writeable)


def test_a_second_hit_on_a_qubit_multiplies_into_the_first():
    # Two hits at one address are one hit, their product, later first;
    # two at different addresses are two sites of one block, whose
    # recorded squared norm depends on the state.
    scheme = _scheme(PER_QUBIT)
    rng = np.random.default_rng(61)
    u, w = (random_single_qubit_unitary(rng) for _ in range(2))
    register = concat_encode(scheme, _random_logical(61))
    for corruption in (u, w):
        register = apply_channel_damage(scheme, register,
                                        _hit(scheme, 2, 1, corruption))
    (hit,) = register.hits
    assert np.max(np.abs(hit.operator - resolve_corruption(w)
                         @ resolve_corruption(u))) < 1e-16
    # At whole-register n = 5 two diag(1, 0) hits keep a share of the
    # norm that depends on the carried state (any two qubits of a
    # five-qubit codeword are maximally mixed, so the cores are random).
    scheme = _scheme(WHOLE_REGISTER)
    projector = np.diag([1.0, 0.0])
    norms = []
    for seed in (1, 2):
        register = BlockRegister(scheme, random_state(
            2, 5, np.random.default_rng(seed)).amplitudes)
        for address in (3, 0):
            register = apply_channel_damage(
                scheme, register, _hit(scheme, address, 0, projector))
        assert [(h.block, h.address) for h in register.hits] == [(0, 0),
                                                                 (0, 3)]
        dense = dense_blocks.dense_form(register).norm()**2
        assert abs(register._norm2 / dense - 1) < 1e-14
        norms.append(register._norm2)
    assert abs(norms[0] - norms[1]) > 1e-3


def test_a_second_hit_that_annihilates_the_state_is_refused():
    # corrupt_qubit's guard at the second hit: diag(0, 1) after diag(1, 0)
    # on one qubit leaves nothing, quoted as the share of the norm left.
    scheme = _scheme(WHOLE_REGISTER)
    register = apply_channel_damage(
        scheme, concat_encode(scheme, _random_logical()),
        _hit(scheme, 3, 0, np.diag([1.0, 0.0])))
    with pytest.raises(GhzError, match=re.escape(
            "corruption annihilated the state or overflowed its norm: "
            "norm 0 outside [1e-12, inf)")):
        apply_channel_damage(scheme, register,
                             _hit(scheme, 3, 0, np.diag([0.0, 1.0])))


@pytest.mark.parametrize("shape", [(1024,), (32, 1), (2,) * 5],
                         ids=["physical", "two-axes", "per-qubit-axes"])
def test_a_core_that_is_not_carried_is_refused(shape):
    # The one register form: a whole-register core is the 2**5 carried
    # amplitudes of its one block, never a block's register amplitudes.
    with pytest.raises(CodeError, match=re.escape(
            f"core of shape {shape} does not fit the carried blocks (32,)")):
        BlockRegister(_scheme(WHOLE_REGISTER), np.zeros(shape))


def _hit(scheme, address, block, corruption="Y"):
    return ChannelEvent(erasure=ErasurePosition(address=address,
                                                n=scheme.inner.n),
                        corruption=corruption, block=block)


# Each case, from a scheme and two unitaries: the hits damage records in
# turn, and the event decoded.
SELECTION_CASES = {
    "declared": lambda scheme, u, w: (
        [_hit(scheme, 1, scheme.blocks - 1, u)],
        _hit(scheme, 1, scheme.blocks - 1, None)),
    "misdeclared-position": lambda scheme, u, w: (
        [_hit(scheme, 1, 0, u)], _hit(scheme, 2, 0, None)),
    "other-block": lambda scheme, u, w: (
        [_hit(scheme, 1, 0, u)], _hit(scheme, 1, scheme.blocks - 1, None)),
    "undeclared": lambda scheme, u, w: (
        [_hit(scheme, 0, 0, u)],
        ChannelEvent(pauli=PauliError.single(2, scheme.outer.n, 1, b=1))),
    "second-hit": lambda scheme, u, w: (
        [_hit(scheme, 3, 0, u), _hit(scheme, 1, scheme.blocks - 1, "X")],
        _hit(scheme, 1, scheme.blocks - 1, None)),
    "same-qubit-twice": lambda scheme, u, w: (
        [_hit(scheme, 1, 0, u), _hit(scheme, 1, 0, w)], _hit(scheme, 1, 0,
                                                             None)),
    "two-sites-declared": lambda scheme, u, w: (
        [_hit(scheme, 1, 0, u), _hit(scheme, 2, 0, w)], _hit(scheme, 1, 0,
                                                             None)),
    "two-sites-undeclared": lambda scheme, u, w: (
        [_hit(scheme, 1, 0, "Z"), _hit(scheme, 3, 0, "Z")], ChannelEvent()),
    "declared-without-hit": lambda scheme, u, w: (
        [], _hit(scheme, 2, scheme.blocks - 1, None)),
}


def _decoded(scheme, register, event):
    """concat_decode's result, or the type of the error it raises."""
    try:
        return concat_decode(scheme, register, event)
    except (DecodeError, RecoveryError) as error:
        return type(error)


@pytest.mark.parametrize("case", list(SELECTION_CASES))
@pytest.mark.parametrize("blocking", [WHOLE_REGISTER, PER_QUBIT])
def test_every_hit_decodes_from_the_carried_core_as_the_oracle(blocking,
                                                               case):
    # Every register decodes from its carried core, a hit in another
    # block or position, no declared erasure, a second hit, two hits on
    # one qubit or none included.  The oracle decodes the same register
    # one physical block at a time: the same trace and coefficients within
    # 1e-15, or the same error type.
    scheme = _scheme(blocking)
    rng = np.random.default_rng(21)
    u, w = (random_single_qubit_unitary(rng) for _ in range(2))
    hits, event = SELECTION_CASES[case](scheme, u, w)
    register = concat_encode(scheme, _random_logical(4))
    for hit in hits:
        register = apply_channel_damage(scheme, register, hit)
    got = _decoded(scheme, register, event)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(concat, "_inner_stage", dense_blocks.blockwise_inner_stage)
        want = _decoded(scheme, register, event)
    if isinstance(want, type):
        assert got is want
        return
    assert got[1] == want[1]
    assert _aligned_gap(got[0].coefficients, want[0].coefficients) <= 1e-15


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

    for name in ("resolve_corruption", "carried_erasure_map", "_inner_stage"):
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
    pytest.param(WHOLE_REGISTER, "hit", id=f"{WHOLE_REGISTER}-hit"),
    pytest.param(PER_QUBIT, "hit", id=f"{PER_QUBIT}-hit"),
    pytest.param(WHOLE_REGISTER, "blocks", id=f"{WHOLE_REGISTER}-blocks"),
    pytest.param(PER_QUBIT, "blocks", id=f"{PER_QUBIT}-blocks")])
@pytest.mark.parametrize("erased", [False, True])
@pytest.mark.parametrize("bad, shown", [
    (np.nan, "nan"), (np.inf, "inf"), (1e300, "inf"), (0.0, "0")])
def test_a_register_of_bad_norm_is_refused_before_any_gather(
        blocking, form, erased, bad, shown, monkeypatch):
    # A NaN, an infinity or a 1e300 (whose square overflows) in a carried
    # core, or an all-zero core, must raise with the norm quoted before a
    # map is read: by decoding, or by damage recording a hit on it.
    scheme = _scheme(blocking)
    event = _last_block_erasure(scheme) if erased else ChannelEvent()
    amplitudes = concat_encode(scheme, _random_logical(5)).core.copy()
    if bad == 0:
        amplitudes[...] = 0
    else:
        amplitudes.reshape(-1)[0] = bad
    register = BlockRegister(scheme, amplitudes)

    def no_gather(*args):
        raise AssertionError("a map was read before the norm check")

    monkeypatch.setattr(concat, "carried_erasure_map", no_gather)
    if form == "blocks":
        with pytest.raises(CodeError, match=re.escape(
                f"register norm {shown} outside [1e-14, inf)")):
            concat_decode(scheme, register, event)
        return
    hit = _hit(scheme, 1, scheme.blocks - 1, "Y" if erased else None)
    with pytest.raises(GhzError, match=re.escape(
            "corruption annihilated the state or overflowed its norm: "
            f"norm {shown} outside [1e-14, inf)")):
        apply_channel_damage(scheme, register, hit)


@pytest.mark.parametrize("blocking", [WHOLE_REGISTER, PER_QUBIT])
@pytest.mark.parametrize("erased", [False, True])
def test_a_scaled_clean_register_still_decodes(blocking, erased):
    # A core scaled by 2, unhit or with an identity hit recorded on the
    # erased qubit, decodes as the unscaled one.
    scheme = _scheme(blocking)
    event = _last_block_erasure(scheme) if erased else ChannelEvent()
    v = _random_logical(6)
    scaled = BlockRegister(scheme, 2 * concat_encode(scheme, v).core)
    hit = apply_channel_damage(scheme, scaled, _last_block_erasure(scheme))
    for register in (scaled, hit):
        recovered, trace = concat_decode(scheme, register, event)
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


def _inner_outcome(stage, scheme, register, event):
    """An inner stage's codeword amplitudes, or the type of its error."""
    try:
        return stage(scheme, register, event).amplitudes
    except (DecodeError, RecoveryError) as error:
        return type(error)


def _oracle_cases(blocking, n):
    """Each (hit block, hit address, declared block, declared position or
    None) of one hit: every address against no declaration and every
    position of its own block, and for per-qubit of the last block."""
    scheme = _scheme(blocking, n)
    last = scheme.blocks - 1
    for address in range(2 * n):
        for declared in [None, *range(2 * n)]:
            yield 0, address, 0, declared
            if last:
                yield 0, address, last, declared


@pytest.mark.parametrize("blocking, n", [(WHOLE_REGISTER, 5)] + [
    (PER_QUBIT, n) for n in range(MIN_BLOCK, MAX_BLOCK + 1)])
def test_every_hit_and_declaration_match_the_blockwise_oracle(blocking, n):
    # One Haar-unitary hit at every address of a block, against every
    # declared position of that block or the last one, or none: the
    # composed maps give the blockwise oracle's codeword within 1e-15 up
    # to one global phase, or its error type.  A sample of two hits in
    # one block, declared at one of them, elsewhere or nowhere, too.
    scheme = _scheme(blocking, n)
    rng = np.random.default_rng([42, n])
    encoded = concat_encode(scheme, _random_logical(n))
    cases = [([(block, address)], declared_block, declared)
             for block, address, declared_block, declared
             in _oracle_cases(blocking, n)]
    for first, second in itertools.islice(
            itertools.combinations(range(2 * n), 2), 0, None, n):
        for declared in (None, first, (second + 1) % (2 * n)):
            cases.append(([(0, first), (0, second)], 0, declared))
    refused = 0
    for hits, declared_block, declared in cases:
        register = encoded
        for block, address in hits:
            register = apply_channel_damage(scheme, register, _hit(
                scheme, address, block, random_single_qubit_unitary(rng)))
        event = ChannelEvent() if declared is None else _hit(
            scheme, declared, declared_block, None)
        got, want = (_inner_outcome(stage, scheme, register, event)
                     for stage in (concat._inner_stage,
                                   dense_blocks.blockwise_inner_stage))
        if isinstance(want, type):
            assert got is want, (hits, declared_block, declared)
            refused += 1
            continue
        assert _aligned_gap(got, want) <= 1e-15, (hits, declared_block,
                                                  declared)
    assert 0 < refused < len(cases)


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
def test_effective_channel_agrees_with_the_blockwise_oracle(
        blocking, monkeypatch):
    scheme = _scheme(blocking)
    recorded = effective_channel(scheme, noise_correctable(scheme),
                                 trials=40, seed=38)
    monkeypatch.setattr(concat, "_inner_stage",
                        dense_blocks.blockwise_inner_stage)
    oracle = effective_channel(scheme, noise_correctable(scheme),
                               trials=40, seed=38)
    assert recorded.keys() == oracle.keys()
    for key, value in oracle.items():
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


@pytest.mark.parametrize("trials, seed, text", [
    (1.5, 0, "trial count 1.5 is not an integer"),
    (2, "x", "seed 'x' is not an integer"),
    (None, 0, "trial count None is not an integer"),
    (2, 1.0, "seed 1.0 is not an integer")])
def test_effective_channel_refuses_counts_that_are_not_integers(
        trials, seed, text):
    def never(rng):
        raise AssertionError("drew an event")

    with pytest.raises(CodeError, match=re.escape(text)):
        effective_channel(_scheme(), never, trials=trials, seed=seed)


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


@pytest.mark.parametrize("blocking", [WHOLE_REGISTER, PER_QUBIT])
def test_outer_stage_reads_as_decode_then_correct_bit_for_bit(blocking):
    # concat_decode's one decode_and_correct call against the outer stage
    # by parts, on the same inner codeword: recorded hits and events
    # without an erasure, for each noise model.
    scheme = _scheme(blocking)
    table = concat._outer_table(scheme.outer)
    rng = np.random.default_rng(53)
    paths = set()
    for name, model in concat.NOISE_MODELS.items():
        draw = model(scheme)
        for _ in range(8):
            event, v = draw(rng), _random_logical(rng.integers(2**32))
            def damaged():
                return apply_channel_damage(
                    scheme, concat_encode(scheme, v), event)
            paths.add((name, event.erasure is not None))
            codeword = concat._inner_stage(scheme, damaged(), event)
            try:
                expected = outer_stage_by_parts(scheme.outer, codeword,
                                                event.pauli, table)
            except DecodeError as exc:
                with pytest.raises(DecodeError, match=re.escape(str(exc))):
                    concat_decode(scheme, damaged(), event)
                continue
            recovered, trace = concat_decode(scheme, damaged(), event)
            state, syndrome, label = expected
            assert np.array_equal(recovered.coefficients.view(np.uint64),
                                  state.coefficients.view(np.uint64))
            assert (trace.syndrome, trace.correction) == (syndrome, label)
    assert paths == {
        ("identity", False), ("correctable", True), ("two-pauli", False)}
