"""One norm rule at every guarded entry point.

Every entry point below reads its input's norm through one guard in
statevec.  A zero, NaN, infinite or overflowing input raises the entry
point's documented error quoting the norm.  A valid input rescaled by c
reads as the unscaled one: the same discrete outcome (a syndrome or a
measured outcome) and the same states within 1e-15.
"""

import re

import numpy as np
import pytest

from concatqec.concat import (
    PER_QUBIT,
    WHOLE_REGISTER,
    BlockRegister,
    ChannelEvent,
    ConcatScheme,
    apply_channel_damage,
    concat_decode,
    concat_encode,
)
from concatqec.ghz_erasure import (
    ErasurePosition,
    GhzError,
    GhzLayout,
    build_encoder,
    corrupt_qubit,
    recover,
)
from concatqec.graph_code import (
    CodeError,
    LogicalState,
    decode,
    encode,
    five_qubit_decoding_graph,
)
from concatqec.statevec import (
    PauliError,
    StateError,
    StateVector,
    apply_pauli_error,
    normalize,
    random_single_qubit_unitary,
    random_state,
)
from state_oracles import project_register

GRAPH = five_qubit_decoding_graph()
V = LogicalState(p=2, coefficients=[0.6, 0.8j])


def _rng():
    return np.random.default_rng(20261018)


def _normalize():
    def run(amps):
        s = StateVector(p=2, n=3, amplitudes=amps)
        return None, [normalize(s).amplitudes]
    return random_state(2, 3, _rng()).amplitudes * 1.7, run, StateError


def _logical_state():
    def run(amps):
        return None, [LogicalState(p=2, coefficients=amps).coefficients]
    return np.array([0.6, 0.8j]), run, CodeError


def _project_register():
    # The tests' reference readout, which decode's syndrome readout is
    # checked against, keeps the rule too.
    def run(amps):
        s = StateVector(p=2, n=3, amplitudes=amps)
        norm = s.norm()
        probs, branch = project_register(s, 1, 1, norm * norm)
        return int(np.argmax(probs)), [probs, branch.amplitudes]
    return random_state(2, 3, _rng()).amplitudes, run, StateError


def _recover():
    # A three-qubit message, encoded, with ancilla 2' rotated away.
    rng = _rng()
    message = random_state(2, 3, rng).amplitudes
    padded = np.kron(message, np.eye(8)[0])
    encoded = build_encoder(3).apply(StateVector(p=2, n=6, amplitudes=padded))
    pos = ErasurePosition(address=4, n=3)
    damaged = corrupt_qubit(encoded, pos.address,
                            random_single_qubit_unitary(rng))

    def run(amps):
        kept, dropped = recover(StateVector(p=2, n=6, amplitudes=amps), pos)
        return None, [kept.amplitudes, dropped.amplitudes]
    return damaged.amplitudes, run, StateError


def _corrupt_qubit():
    rng = _rng()
    unitary = random_single_qubit_unitary(rng)

    def run(amps):
        s = StateVector(p=2, n=4, amplitudes=amps)
        return None, [corrupt_qubit(s, 1, unitary).amplitudes]
    return random_state(2, 4, rng).amplitudes, run, GhzError


def _decode():
    flipped = apply_pauli_error(encode(GRAPH, V),
                                PauliError.single(2, 5, 0, b=1))

    def run(amps):
        syndrome, residual = decode(
            GRAPH, StateVector(p=2, n=5, amplitudes=amps))
        return syndrome.entries, [residual.amplitudes]
    return flipped.amplitudes, run, CodeError


def _concat_decode(blocking):
    def build():
        scheme = ConcatScheme(outer=GRAPH, inner=GhzLayout(
            5 if blocking == WHOLE_REGISTER else 2), blocking=blocking)
        event = ChannelEvent(
            pauli=PauliError.single(2, 5, 2, b=1, s=1),
            erasure=ErasurePosition(address=1, n=scheme.inner.n),
            corruption="Y", block=scheme.blocks - 1)
        physical = apply_channel_damage(
            scheme, concat_encode(scheme, V), event)

        def run(amps):
            register = BlockRegister(scheme, amps.reshape(physical.core.shape))
            recovered, trace = concat_decode(scheme, register, event)
            return trace.syndrome, [recovered.coefficients]
        return physical.core.reshape(-1), run, CodeError
    return build


GUARDED = {
    "normalize": _normalize,
    "LogicalState": _logical_state,
    "project_register": _project_register,
    "recover": _recover,
    "corrupt_qubit": _corrupt_qubit,
    "decode": _decode,
    "concat_decode-whole-register": _concat_decode(WHOLE_REGISTER),
    "concat_decode-per-qubit": _concat_decode(PER_QUBIT),
}


@pytest.mark.parametrize("entry", list(GUARDED))
@pytest.mark.parametrize("bad, shown", [
    (0.0, "0"), (np.nan, "nan"), (np.inf, "inf"), (1e300, "inf")])
def test_a_bad_norm_is_refused_quoting_it(entry, bad, shown):
    # graph_code.decode used to return syndrome 0000 for a NaN or a
    # 1e300 codeword; project_register returned a NaN state.
    valid, run, error = GUARDED[entry]()
    amps = valid.astype(complex)
    if bad == 0:
        amps[:] = 0
    else:
        amps[0] = bad
    with pytest.raises(error, match=re.escape(
            f"norm {shown} outside [1e-14, inf)")):
        run(amps)


@pytest.mark.parametrize("entry", list(GUARDED))
@pytest.mark.parametrize("scale", [2.0**-40, 0.99999, 3.0],
                         ids=["2**-40", "0.99999", "3"])
def test_a_scaled_input_reads_as_the_unscaled_one(entry, scale):
    # graph_code.decode used to refuse a codeword scaled by 0.99999 as
    # "not deterministic (top probability 0.9999800001)".
    valid, run, _ = GUARDED[entry]()
    want_label, want = run(valid.copy())
    got_label, got = run(scale * valid)
    assert got_label == want_label
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) <= 1e-15
