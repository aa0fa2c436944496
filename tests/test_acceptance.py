"""Acceptance suite: the eight headline checks for this package.

Each criterion prints exactly one PASS/FAIL line with its timing, so a
plain ``python3 tests/test_acceptance.py`` gives a readable scorecard.
Under pytest every criterion is its own test.

The criteria:
  1. The shipped five-qubit decoding graph is admissible for one error,
     with the check (one F_p kernel basis per error support) finishing
     under a second.
  2. Encoding reproduces all 32 signed codeword coefficient forms.
  3. The generated syndrome table matches the golden sixteen-row file.
  4. The block operator programs match their rendered products and the
     encoded block hides every qubit.
  5. The ten-qubit worked example (erasure at 1, bit flip at 1')
     yields syndrome 0110 and exact recovery, with the documented
     intermediate state.
  6. 1350 joint damage cases (10 positions x 9 corruptions x 15
     Pauli errors) all recover exactly in under a minute.
  7. Bit-indexed gate kernels agree with dense matrices, and the
     decoder operator is unitary to 1e-12.
  8. Machine-readable CLI output is byte-identical across repeat runs.
"""

import contextlib
import io
import pathlib
import time

import numpy as np
from decoding_oracles import decoder_unitary
from dense_blocks import dense_form, physical_blocks

from concatqec.cli import main as cli_main
from concatqec.concat import (
    ChannelEvent,
    ConcatScheme,
    apply_channel_damage,
    concat_decode,
    concat_encode,
)
from concatqec.ghz_erasure import (
    MAX_BLOCK,
    ErasurePosition,
    Gate,
    GateProgram,
    GhzLayout,
    build_decoder,
    build_encoder,
    build_recovery,
)
from concatqec.graph_code import (
    LogicalState,
    build_syndrome_table,
    check_admissibility,
    encode,
    five_qubit_decoding_graph,
    weight_one_errors,
)
from concatqec.statevec import (
    PauliError,
    StateVector,
    apply_pauli_error,
    apply_single_qudit,
    basis_state,
    digits_to_index,
    fidelity_up_to_phase,
    index_to_digits,
    random_single_qubit_unitary,
    random_state,
)
from state_oracles import reduced_density, split_factor

GOLDEN = pathlib.Path(__file__).parent / "golden" / "syndrome_table.records"

# Signed coefficient forms of the 32 codeword amplitudes, index k giving
# (sign of c(0), sign of c(1)).
CODEWORD_SIGNS = (
    (+1, +1), (+1, +1), (+1, +1), (-1, -1),
    (+1, -1), (-1, +1), (-1, +1), (-1, +1),
    (+1, -1), (-1, +1), (+1, -1), (+1, -1),
    (+1, +1), (+1, +1), (-1, -1), (+1, +1),
    (+1, -1), (+1, -1), (-1, +1), (+1, -1),
    (+1, +1), (-1, -1), (+1, +1), (+1, +1),
    (-1, -1), (+1, +1), (+1, +1), (+1, +1),
    (-1, +1), (-1, +1), (-1, +1), (+1, -1),
)

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


def _report(number: int, title: str, ok: bool, elapsed: float) -> bool:
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict}  criterion {number}: {title}  ({elapsed:.2f} s)")
    return ok


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def criterion_1_admissibility() -> bool:
    start = time.perf_counter()
    report = check_admissibility(five_qubit_decoding_graph(), 1)
    elapsed = time.perf_counter() - start
    ok = report.all_pass and elapsed < 1.0
    return _report(1, "decoding graph admissible for one error in < 1 s",
                   ok, elapsed)


def criterion_2_codeword() -> bool:
    start = time.perf_counter()
    g = five_qubit_decoding_graph()
    ok = True
    scales = []
    for which in (0, 1):
        coeffs = [1.0, 0.0] if which == 0 else [0.0, 1.0]
        psi = encode(g, LogicalState(p=2, coefficients=coeffs))
        # fix the single allowed global scale from the first entry
        scale = psi.amplitudes[0] / CODEWORD_SIGNS[0][which]
        scales.append(scale)
        for k in range(32):
            expected = CODEWORD_SIGNS[k][which] * scale
            if abs(psi.amplitudes[k] - expected) >= 1e-10:
                ok = False
    ok = ok and abs(scales[0] - scales[1]) < 1e-10
    return _report(2, "all 32 signed codeword coefficients reproduced",
                   ok, time.perf_counter() - start)


def criterion_3_syndrome_table() -> bool:
    start = time.perf_counter()
    g = five_qubit_decoding_graph()
    table = build_syndrome_table(g, weight_one_errors(2, 5))
    golden = GOLDEN.read_text().splitlines()
    ok = table.to_records() == golden and len(table.rows) == 16
    return _report(3, "sixteen-row syndrome table identical to golden file",
                   ok, time.perf_counter() - start)


def criterion_4_ghz_operators() -> bool:
    start = time.perf_counter()
    ok = build_encoder(5).product_notation() == ENCODER_5
    msg = build_decoder(5, ErasurePosition.from_label("1", 5))
    anc = build_decoder(5, ErasurePosition.from_label("1'", 5))
    ok = ok and msg.product_notation() == DECODER_5["message"]
    ok = ok and anc.product_notation() == DECODER_5["ancilla"]
    for label, expected in RECOVERY_5.items():
        pos = ErasurePosition.from_label(label, 5)
        ok = ok and build_recovery(5, pos).product_notation() == expected
    message = random_state(2, 5, np.random.default_rng(41))
    padded = np.kron(message.amplitudes, basis_state(2, (0,) * 5).amplitudes)
    encoded = build_encoder(5).apply(StateVector(p=2, n=10, amplitudes=padded))
    for q in range(10):
        rho = reduced_density(encoded, q)
        ok = ok and np.max(np.abs(rho - np.eye(2) / 2)) < 1e-10
    return _report(4, "block operator products and data hiding reproduced",
                   ok, time.perf_counter() - start)


def criterion_5_worked_example() -> bool:
    start = time.perf_counter()
    g = five_qubit_decoding_graph()
    scheme = ConcatScheme(outer=g, inner=GhzLayout(5))
    pos = ErasurePosition.from_label("1", 5)
    flip = PauliError.single(2, 10, 5, b=1)
    ok = True
    # intermediate state, basis input by basis input
    for coeffs in ((1.0, 0.0), (0.0, 1.0)):
        v = LogicalState(p=2, coefficients=list(coeffs))
        damaged = apply_pauli_error(dense_form(concat_encode(scheme, v)), flip)
        staged = build_recovery(5, pos).apply(
            build_decoder(5, pos).apply(damaged))
        kept, _dropped, purity = split_factor(staged, keep=range(5, 10))
        codeword = encode(g, v)
        for k in range(32):
            if abs(kept.amplitudes[k ^ 16] - codeword.amplitudes[k]) >= 1e-10:
                ok = False
        ok = ok and purity > 1 - 1e-10
    # full pipeline on a superposition input
    v = LogicalState(p=2, coefficients=[0.6, 0.8])
    damaged = apply_pauli_error(dense_form(concat_encode(scheme, v)), flip)
    recovered, trace = concat_decode(scheme, physical_blocks(scheme, damaged),
                                     ChannelEvent(erasure=pos))
    ok = ok and trace.syndrome == "0110" and trace.correction == "S5"
    fid = fidelity_up_to_phase(v.as_state(), recovered.as_state())
    ok = ok and fid > 1 - 1e-10
    return _report(5, "worked example: syndrome 0110, exact recovery",
                   ok, time.perf_counter() - start)


def criterion_6_joint_protection() -> bool:
    start = time.perf_counter()
    g = five_qubit_decoding_graph()
    scheme = ConcatScheme(outer=g, inner=GhzLayout(5))
    corruptions = [None, "X", "Y", "Z"]
    for seed in (101, 102, 103, 104, 105):
        corruptions.append(
            random_single_qubit_unitary(np.random.default_rng(seed)))
    rng = np.random.default_rng(77)
    cases = 0
    worst = 1.0
    for addr in range(10):
        pos = ErasurePosition(address=addr, n=5)
        for corr in corruptions:
            for q in range(5):
                for b, sp in ((1, 0), (0, 1), (1, 1)):
                    v = LogicalState(
                        p=2, coefficients=random_state(2, 1, rng).amplitudes)
                    event = ChannelEvent(
                        pauli=PauliError.single(2, 5, q, b=b, s=sp),
                        erasure=pos, corruption=corr)
                    physical = apply_channel_damage(
                        scheme, concat_encode(scheme, v), event)
                    recovered, _ = concat_decode(scheme, physical, event)
                    worst = min(worst, fidelity_up_to_phase(
                        v.as_state(), recovered.as_state()))
                    cases += 1
    elapsed = time.perf_counter() - start
    ok = cases == 1350 and worst > 1 - 1e-10 and elapsed < 60.0
    return _report(6, f"joint protection: {cases} cases, worst fidelity "
                      f"1 - {1 - worst:.1e}", ok, elapsed)


def criterion_7_oracle_equivalence() -> bool:
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    ok = True

    def lift(op, qs, n):
        span = len(qs)
        full = np.zeros((2 ** n, 2 ** n), dtype=complex)
        for col in range(2 ** n):
            bits = index_to_digits(col, 2, n)
            sub_in = digits_to_index([bits[q] for q in qs], 2)
            for sub_out in range(2 ** span):
                amp = op[sub_out, sub_in]
                if amp == 0:
                    continue
                out_bits = list(bits)
                for q, d in zip(qs, index_to_digits(sub_out, 2, span)):
                    out_bits[q] = d
                full[digits_to_index(out_bits, 2), col] += amp
        return full

    def run_gate(s, kind, *qubits):
        # One gate, as a one-gate program wide enough for any n here.
        return GateProgram(gates=(Gate(kind, qubits),),
                           half=MAX_BLOCK).apply(s)

    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                    dtype=complex)
    cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    toffoli = np.eye(8, dtype=complex)
    toffoli[[6, 7], [6, 7]] = 0
    toffoli[6, 7] = toffoli[7, 6] = 1

    for n in (1, 2, 3, 4):
        for q in range(n):
            s = random_state(2, n, rng)
            u = random_single_qubit_unitary(rng)
            for kernel_out, full in (
                    (run_gate(s, "H", q), lift(h, [q], n)),
                    (apply_single_qudit(s, q, u), lift(u, [q], n))):
                dev = np.max(np.abs(kernel_out.amplitudes - full @ s.amplitudes))
                ok = ok and dev < 1e-12
        for c in range(n):
            for t in range(n):
                if c == t:
                    continue
                s = random_state(2, n, rng)
                for kernel_out, full in (
                        (run_gate(s, "CX", c, t), lift(cnot, [c, t], n)),
                        (run_gate(s, "CZ", c, t), lift(cz, [c, t], n))):
                    dev = np.max(np.abs(kernel_out.amplitudes
                                        - full @ s.amplitudes))
                    ok = ok and dev < 1e-12
        for a in range(n):
            for b in range(n):
                for t in range(n):
                    if len({a, b, t}) != 3:
                        continue
                    s = random_state(2, n, rng)
                    full = lift(toffoli, [a, b, t], n)
                    dev = np.max(np.abs(run_gate(s, "CCX", a, b, t).amplitudes
                                        - full @ s.amplitudes))
                    ok = ok and dev < 1e-12

    t_mat = decoder_unitary(five_qubit_decoding_graph())
    defect = np.max(np.abs(t_mat.conj().T @ t_mat - np.eye(32)))
    ok = ok and defect < 1e-12
    return _report(7, "gate kernels match dense matrices; decoder unitary",
                   ok, time.perf_counter() - start)


def criterion_8_determinism() -> bool:
    start = time.perf_counter()

    def capture(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(argv)
        return code, buf.getvalue()

    ok = True
    for argv in (
            ["syndrome-table", "--format", "records"],
            ["monte-carlo", "--format", "records", "--trials", "40",
             "--seed", "9", "--noise", "correctable"]):
        runs = [capture(argv) for _ in range(3)]
        ok = ok and all(code == 0 for code, _ in runs)
        ok = ok and runs[0][1] == runs[1][1] == runs[2][1]
    return _report(8, "CLI records output byte-identical across 3 runs",
                   ok, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# pytest bindings and standalone entry
# ---------------------------------------------------------------------------


def test_criterion_1_admissibility():
    assert criterion_1_admissibility()


def test_criterion_2_codeword():
    assert criterion_2_codeword()


def test_criterion_3_syndrome_table():
    assert criterion_3_syndrome_table()


def test_criterion_4_ghz_operators():
    assert criterion_4_ghz_operators()


def test_criterion_5_worked_example():
    assert criterion_5_worked_example()


def test_criterion_6_joint_protection():
    assert criterion_6_joint_protection()


def test_criterion_7_oracle_equivalence():
    assert criterion_7_oracle_equivalence()


def test_criterion_8_determinism():
    assert criterion_8_determinism()


if __name__ == "__main__":
    results = [
        criterion_1_admissibility(),
        criterion_2_codeword(),
        criterion_3_syndrome_table(),
        criterion_4_ghz_operators(),
        criterion_5_worked_example(),
        criterion_6_joint_protection(),
        criterion_7_oracle_equivalence(),
        criterion_8_determinism(),
    ]
    raise SystemExit(0 if all(results) else 1)
