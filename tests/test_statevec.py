"""Tests for the dense state-vector simulator.

The central oracle is a naive dense-matrix simulator built inline with
Kronecker products: every qubit gate kernel must agree with the
explicit matrix route on small registers, and bit for bit with the
slab kernels of slab_kernels.py.  The rest covers indexing conventions,
generalized Pauli action, measurement, reduction, and the
product-factor extraction used by erasure recovery, against
np.linalg.svd.
"""

import itertools
import re

import numpy as np
import pytest
import slab_kernels
from hypothesis import given, settings
from hypothesis import strategies as st

from concatqec.fp_linalg import FpVector
from concatqec.statevec import (
    MATMUL_MIN_POST,
    PURITY_BOUND,
    PauliError,
    StateError,
    StateVector,
    apply_cnot,
    apply_controlled_z,
    apply_hadamard,
    apply_pauli,
    apply_pauli_error,
    apply_single_qudit,
    apply_toffoli,
    basis_state,
    digits_to_index,
    fidelity_up_to_phase,
    index_to_digits,
    normalize,
    project_register,
    reduced_density,
    random_single_qubit_unitary,
    random_state,
    split_factor,
    states_close,
)

RNG = np.random.default_rng(20240817)

H2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


# ---------------------------------------------------------------------------
# Indexing conventions
# ---------------------------------------------------------------------------


def test_digit_index_round_trip_examples():
    # Leftmost digit is the most significant base-p digit.
    assert digits_to_index((0, 1, 1, 0, 0), 2) == 12
    assert digits_to_index((2, 1), 3) == 7
    assert index_to_digits(12, 2, 5) == (0, 1, 1, 0, 0)
    assert index_to_digits(7, 3, 2) == (2, 1)


@given(st.sampled_from([2, 3, 5]), st.integers(min_value=1, max_value=6),
       st.data())
@settings(max_examples=100, deadline=None)
def test_digit_index_round_trip_property(p, n, data):
    idx = data.draw(st.integers(min_value=0, max_value=p ** n - 1))
    assert digits_to_index(index_to_digits(idx, p, n), p) == idx


def test_basis_state_places_single_amplitude():
    s = basis_state(2, (0, 1, 1, 0, 0))
    assert s.n == 5 and s.p == 2
    assert s.amplitudes[12] == 1.0
    assert np.count_nonzero(s.amplitudes) == 1


def test_basis_state_accepts_field_vectors():
    s = basis_state(3, FpVector((2, 1), 3))
    assert s.amplitudes[7] == 1.0


def test_state_vector_shape_is_validated():
    with pytest.raises(StateError):
        StateVector(p=2, n=2, amplitudes=np.zeros(3, dtype=complex))


def test_normalize_and_zero_rejection():
    s = StateVector(p=2, n=1, amplitudes=np.array([3.0, 4.0], dtype=complex))
    t = normalize(s)
    assert np.allclose(t.amplitudes, [0.6, 0.8])
    with pytest.raises(StateError):
        normalize(StateVector(p=2, n=1, amplitudes=np.zeros(2, dtype=complex)))


@pytest.mark.parametrize("amplitudes, shown", [
    ([1e200, 0], "inf"), ([np.inf, 0], "inf"), ([np.nan, 1], "nan"),
    ([0, 0], "0"), ([1e-15, 0], "1e-15")])
def test_normalize_refuses_a_norm_outside_the_floor_and_infinity(
        amplitudes, shown):
    # An overflowing norm used to divide the state down to all zeros.
    s = StateVector(p=2, n=1, amplitudes=np.array(amplitudes, dtype=complex))
    with pytest.raises(StateError, match=re.escape(
            f"cannot normalize a state of norm {shown} outside [1e-14, inf)")):
        normalize(s)
    assert np.array_equal(normalize(StateVector(
        p=2, n=1, amplitudes=np.array([1e150, 0], dtype=complex))).amplitudes,
        [1, 0])


# ---------------------------------------------------------------------------
# Gate kernels versus explicit dense matrices
# ---------------------------------------------------------------------------


def _lift(op: np.ndarray, qs, n: int, p: int = 2) -> np.ndarray:
    """Build the full p^n matrix acting as op on qudits qs (in order)."""
    span = len(qs)
    full = np.zeros((p ** n, p ** n), dtype=complex)
    for col in range(p ** n):
        digits = index_to_digits(col, p, n)
        sub_in = digits_to_index([digits[q] for q in qs], p)
        for sub_out in range(p ** span):
            amp = op[sub_out, sub_in]
            if amp == 0:
                continue
            out_digits = list(digits)
            for q, d in zip(qs, index_to_digits(sub_out, p, span)):
                out_digits[q] = d
            full[digits_to_index(out_digits, p), col] += amp
    return full


CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                dtype=complex)
CZ = np.diag([1, 1, 1, -1]).astype(complex)
TOFFOLI = np.eye(8, dtype=complex)
TOFFOLI[[6, 7], [6, 7]] = 0
TOFFOLI[6, 7] = TOFFOLI[7, 6] = 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hadamard_matches_dense_oracle(n):
    for q in range(n):
        full = _lift(H2, [q], n)
        s = random_state(2, n, RNG)
        got = apply_hadamard(s, q)
        assert np.max(np.abs(got.amplitudes - full @ s.amplitudes)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cnot_matches_dense_oracle(n):
    for c in range(n):
        for t in range(n):
            if c == t:
                continue
            full = _lift(CNOT, [c, t], n)
            s = random_state(2, n, RNG)
            got = apply_cnot(s, c, t)
            assert np.max(np.abs(got.amplitudes - full @ s.amplitudes)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_controlled_z_matches_dense_oracle(n):
    for c in range(n):
        for t in range(n):
            if c == t:
                continue
            full = _lift(CZ, [c, t], n)
            s = random_state(2, n, RNG)
            got = apply_controlled_z(s, c, t)
            assert np.max(np.abs(got.amplitudes - full @ s.amplitudes)) < 1e-12


@pytest.mark.parametrize("n", [3, 4])
def test_toffoli_matches_dense_oracle(n):
    for a in range(n):
        for b in range(n):
            for t in range(n):
                if len({a, b, t}) != 3:
                    continue
                full = _lift(TOFFOLI, [a, b, t], n)
                s = random_state(2, n, RNG)
                got = apply_toffoli(s, a, b, t)
                assert np.max(np.abs(got.amplitudes - full @ s.amplitudes)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_single_qudit_kernel_matches_dense_oracle(n):
    for q in range(n):
        u = random_single_qubit_unitary(RNG)
        full = _lift(u, [q], n)
        s = random_state(2, n, RNG)
        got = apply_single_qudit(s, q, u)
        assert np.max(np.abs(got.amplitudes - full @ s.amplitudes)) < 1e-12


def _single_qudit_operators(p):
    """A random unitary, a projector and a random complex p x p matrix."""
    z = RNG.normal(size=(p, p)) + 1j * RNG.normal(size=(p, p))
    unitary, _ = np.linalg.qr(z)
    projector = np.zeros((p, p), dtype=complex)
    projector[0, 0] = 1
    general = RNG.normal(size=(p, p)) + 1j * RNG.normal(size=(p, p))
    return [unitary, projector, general]


# Each register is large enough that some address leaves a trailing
# block of at least MATMUL_MIN_POST amplitudes (batched matmul) and
# others a shorter one (one gemm against the widened operator).
@pytest.mark.parametrize("p, n", [(2, 8), (3, 5), (5, 4)])
def test_single_qudit_kernel_matches_dense_oracle_on_both_paths(p, n):
    posts = [p ** (n - 1 - q) for q in range(n)]
    assert max(posts) >= MATMUL_MIN_POST > min(posts)
    s = random_state(p, n, RNG)
    before = s.amplitudes.copy()
    for q in range(n):
        for op in _single_qudit_operators(p):
            got = apply_single_qudit(s, q, op)
            want = _lift(op, [q], n, p) @ s.amplitudes
            assert np.max(np.abs(got.amplitudes - want)) < 1e-12, (p, n, q)
            assert (got.p, got.n) == (p, n)
            assert not np.shares_memory(got.amplitudes, s.amplitudes)
    assert np.array_equal(s.amplitudes.view(np.uint64),
                          before.view(np.uint64))


def _qubit_gate_cases(n):
    """Every placement of H, CNOT, Toffoli and CZ on n qubits, with its
    public kernel."""
    cases = [(apply_hadamard, (q,)) for q in range(n)]
    for qs in itertools.permutations(range(n), 2):
        cases.append((apply_cnot, qs))
        cases.append((apply_controlled_z, qs))
    for qs in itertools.permutations(range(n), 3):
        cases.append((apply_toffoli, qs))
    return cases


def test_kernels_return_fresh_buffers_and_keep_their_input():
    s = random_state(2, 4, RNG)
    before = s.amplitudes.copy()
    for kernel, qs in _qubit_gate_cases(4):
        out = kernel(s, *qs)
        assert not np.shares_memory(out.amplitudes, s.amplitudes)
    assert np.array_equal(s.amplitudes, before)


def test_gates_reject_bad_addresses():
    s = basis_state(2, (0, 0))
    with pytest.raises(StateError):
        apply_hadamard(s, 2)
    with pytest.raises(StateError):
        apply_cnot(s, 0, 0)
    with pytest.raises(StateError):
        apply_controlled_z(s, 1, 1)


_KINDS = {apply_hadamard: "H", apply_cnot: "CX", apply_toffoli: "CCX",
          apply_controlled_z: "CZ"}


@pytest.mark.parametrize("n", range(1, 9))
def test_single_gates_match_the_slab_oracle_bit_for_bit(n):
    rng = np.random.default_rng(100 + n)
    s = StateVector(p=2, n=n, amplitudes=rng.normal(size=2**n)
                    + 1j * rng.normal(size=2**n))
    before = s.amplitudes.copy()
    for kernel, qs in _qubit_gate_cases(n):
        got = kernel(s, *qs)
        want = slab_kernels.run_gates(before, n, [(_KINDS[kernel], qs)])
        assert np.array_equal(got.amplitudes.view(np.uint64),
                              want.view(np.uint64)), (kernel.__name__, qs)
    assert np.array_equal(s.amplitudes.view(np.uint64), before.view(np.uint64))


def test_gate_errors_name_the_gate_and_the_address():
    s = basis_state(2, (0, 0, 0))
    qutrits = basis_state(3, (0, 0))
    cases = [
        (lambda: apply_hadamard(s, 3), "qudit address 3 outside [0, 3)"),
        (lambda: apply_cnot(s, 0, 0), "cnot addresses must be distinct: (0, 0)"),
        (lambda: apply_toffoli(s, 0, 1, 5), "qudit address 5 outside [0, 3)"),
        (lambda: apply_controlled_z(s, -1, 1),
         "qudit address -1 outside [0, 3)"),
        (lambda: apply_cnot(qutrits, 0, 1),
         "cnot is defined for p = 2 registers, got p = 3"),
    ]
    for call, text in cases:
        with pytest.raises(StateError, match=f"^{re.escape(text)}$"):
            call()


def test_qubit_gates_reject_higher_dimension():
    s = basis_state(3, (0, 0))
    with pytest.raises(StateError):
        apply_hadamard(s, 0)


# ---------------------------------------------------------------------------
# Generalized Pauli action
# ---------------------------------------------------------------------------


def test_qubit_pauli_matches_matrices():
    s = random_state(2, 3, RNG)
    for q in range(3):
        x_route = apply_single_qudit(s, q, X2)
        z_route = apply_single_qudit(s, q, Z2)
        assert states_close(apply_pauli(s, q, 1, 0), x_route)
        assert states_close(apply_pauli(s, q, 0, 1), z_route)
        # combined action phases first, then shifts: the matrix X.Z
        y_route = apply_single_qudit(s, q, X2 @ Z2)
        assert states_close(apply_pauli(s, q, 1, 1), y_route)


def test_qutrit_pauli_shift_and_phase():
    s = basis_state(3, (1,))
    shifted = apply_pauli(s, 0, 1, 0)
    assert np.argmax(np.abs(shifted.amplitudes)) == 2
    phased = apply_pauli(s, 0, 0, 1)
    w = np.exp(2j * np.pi / 3)
    assert abs(phased.amplitudes[1] - w) < 1e-12


def test_pauli_error_weight_and_validation():
    e = PauliError.single(2, 5, 2, b=1, s=1)
    assert e.n == 5 and e.weight == 1
    assert PauliError.identity(2, 4).weight == 0
    with pytest.raises(StateError):
        PauliError(m=0, b=(2, 0), s=(0, 0), p=2)
    with pytest.raises(StateError):
        PauliError(m=0, b=(0,), s=(0, 0), p=2)


def test_apply_pauli_error_matches_per_qubit_route():
    s = random_state(2, 4, RNG)
    e = PauliError(m=1, b=(1, 0, 1, 0), s=(0, 1, 1, 0), p=2)
    direct = apply_pauli_error(s, e)
    manual = s
    for q in range(4):
        manual = apply_pauli(manual, q, e.b[q], e.s[q])
    manual = StateVector(p=2, n=4,
                         amplitudes=manual.amplitudes * np.exp(2j * np.pi / 2))
    assert states_close(direct, manual)


@given(st.integers(min_value=0, max_value=1), st.integers(min_value=0, max_value=1),
       st.integers(min_value=0, max_value=1), st.integers(min_value=0, max_value=1))
@settings(max_examples=40, deadline=None)
def test_pauli_error_group_composition(b1, s1, b2, s2):
    # Applying e2 after e1 equals the single group element with added
    # shifts and a commutation phase from moving shifts past phases.
    s = random_state(2, 1, RNG)
    e1 = PauliError(m=0, b=(b1,), s=(s1,), p=2)
    e2 = PauliError(m=0, b=(b2,), s=(s2,), p=2)
    combo = PauliError(m=(s2 * b1) % 2, b=((b1 + b2) % 2,), s=((s1 + s2) % 2,),
                       p=2)
    two_step = apply_pauli_error(apply_pauli_error(s, e1), e2)
    one_step = apply_pauli_error(s, combo)
    assert states_close(two_step, one_step, tol=1e-12)


# ---------------------------------------------------------------------------
# Fidelity, reduction, measurement
# ---------------------------------------------------------------------------


def test_fidelity_ignores_global_phase():
    s = random_state(2, 2, RNG)
    rotated = StateVector(p=2, n=2, amplitudes=np.exp(0.7j) * s.amplitudes)
    assert abs(fidelity_up_to_phase(s, rotated) - 1.0) < 1e-12
    other = basis_state(2, (0, 0))
    assert fidelity_up_to_phase(other, basis_state(2, (1, 1))) < 1e-12


def test_reduced_density_of_product_state():
    s = basis_state(2, (0, 1))
    rho0 = reduced_density(s, 0)
    rho1 = reduced_density(s, 1)
    assert np.allclose(rho0, [[1, 0], [0, 0]])
    assert np.allclose(rho1, [[0, 0], [0, 1]])


def test_reduced_density_of_entangled_pair_is_maximally_mixed():
    bell = normalize(StateVector(p=2, n=2,
                                 amplitudes=np.array([1, 0, 0, 1], dtype=complex)))
    for q in range(2):
        assert np.max(np.abs(reduced_density(bell, q) - I2 / 2)) < 1e-12


def test_project_register_orders_outcomes_by_register_digits():
    s = normalize(StateVector(p=2, n=2,
                              amplitudes=np.array([1, 0, 0, 2], dtype=complex)))
    probs, _ = project_register(s, 1, 1, 1.0)
    assert np.allclose(probs, [0.2, 0.8])
    # A p = 3 span in the middle: outcome j packs the digits of addresses
    # 1 and 2, most significant first.
    t = random_state(3, 4, np.random.default_rng(5))
    cube = np.abs(t.amplitudes.reshape(3, 3, 3, 3)) ** 2
    probs, _ = project_register(t, 1, 2, 1.0)
    assert np.allclose(probs, cube.sum(axis=(0, 3)).reshape(-1))


def test_project_register_drops_measured_qudits():
    s = normalize(StateVector(
        p=2, n=2, amplitudes=np.array([1, 0, 0, 1.1], dtype=complex)))
    probs, t = project_register(s, 0, 1, 1.0)
    # conditioning on the likelier outcome of qubit 0, 1, leaves the
    # second qubit in |1>
    assert int(np.argmax(probs)) == 1
    assert t.n == 1
    assert states_close(t, basis_state(2, (1,)))
    # Scored against twice the squared norm, each outcome counts half.
    halved, _ = project_register(s, 0, 1, 2.0)
    assert np.allclose(halved, probs / 2)
    for lo, width in ((-1, 1), (2, 1), (1, 2)):
        with pytest.raises(StateError, match="measured span"):
            project_register(s, lo, width, 1.0)


# ---------------------------------------------------------------------------
# Product-factor extraction
# ---------------------------------------------------------------------------


def test_split_factor_recovers_exact_products():
    left = random_state(2, 2, RNG)
    right = random_state(2, 1, RNG)
    joint = StateVector(p=2, n=3,
                        amplitudes=np.kron(left.amplitudes, right.amplitudes))
    kept, dropped, purity = split_factor(joint, keep=[2])
    assert purity > 1 - 1e-12
    assert fidelity_up_to_phase(kept, right) > 1 - 1e-12
    assert fidelity_up_to_phase(dropped, left) > 1 - 1e-12
    # phase convention: the dropped factor's dominant amplitude is real
    # and positive, so kron(dropped, kept) rebuilds the joint state.
    rebuilt = np.kron(dropped.amplitudes, kept.amplitudes)
    assert np.max(np.abs(rebuilt - joint.amplitudes)) < 1e-10


def test_split_factor_reports_low_purity_for_entangled_cuts():
    bell = normalize(StateVector(p=2, n=2,
                                 amplitudes=np.array([1, 0, 0, 1], dtype=complex)))
    _, _, purity = split_factor(bell, keep=[0])
    assert abs(purity - 0.5) < 1e-12


def _place(kept, dropped, p, keep, n):
    """Amplitudes of kept (x) dropped with kept on the sorted addresses
    keep and dropped on the others, each in ascending order."""
    order = list(keep) + [q for q in range(n) if q not in keep]
    joint = np.multiply.outer(kept, dropped).reshape((p,) * n)
    return np.transpose(joint, np.argsort(order)).reshape(-1)


def _svd_split(s, keep):
    """The SVD oracle: (top left vector, top right vector, purity)."""
    dropped = [q for q in range(s.n) if q not in keep]
    block = np.transpose(s.amplitudes.reshape((s.p,) * s.n),
                         list(keep) + dropped).reshape(
        s.p ** len(keep), s.p ** len(dropped))
    u, sv, vh = np.linalg.svd(block, full_matrices=False)
    return u[:, 0], vh[0], float(np.sum(sv**4) / np.sum(sv**2) ** 2)


# (p, n, kept addresses): the kept side smaller, equal and larger than
# the dropped one, empty and full.
SPLIT_CASES = [(2, 3, (2,)), (2, 4, (0, 2)), (2, 10, (5, 6, 7, 8, 9)),
               (2, 10, (0, 3, 4, 7, 8, 9)), (3, 4, (1, 3)), (3, 3, (0, 1)),
               (5, 3, (1,)), (2, 4, ()), (2, 3, (0, 1, 2))]


def _assert_anchored(dropped):
    # The dropped factor's largest amplitude sits on the positive real axis.
    top = dropped.amplitudes[np.argmax(np.abs(dropped.amplitudes))]
    assert top.real > 0 and abs(top.imag) <= 1e-15 * top.real


@pytest.mark.parametrize("p, n, keep", SPLIT_CASES)
def test_split_factor_of_exact_products_multiplies_back(p, n, keep):
    a = random_state(p, len(keep), RNG).amplitudes
    b = random_state(p, n - len(keep), RNG).amplitudes
    s = StateVector(p=p, n=n, amplitudes=_place(a, b, p, keep, n))
    kept, dropped, purity = split_factor(s, keep)
    rebuilt = _place(kept.amplitudes, dropped.amplitudes, p, keep, n)
    assert np.max(np.abs(rebuilt - s.amplitudes)) < 1e-15
    assert abs(purity - 1) < 1e-15
    assert abs(abs(np.vdot(a, kept.amplitudes)) - 1) < 1e-15
    _assert_anchored(dropped)
    # The state is scaled to unit norm first, so a power-of-two scale
    # that would overflow rho changes nothing.
    big = StateVector(p=p, n=n, amplitudes=s.amplitudes * 2.0**300)
    big_kept, big_dropped, big_purity = split_factor(big, keep)
    assert np.array_equal(big_kept.amplitudes, kept.amplitudes)
    assert np.array_equal(big_dropped.amplitudes, dropped.amplitudes)
    assert big_purity == purity


@pytest.mark.parametrize("p, n, keep", SPLIT_CASES)
def test_split_factor_purity_matches_the_svd(p, n, keep):
    s = random_state(p, n, RNG)
    _kept, dropped, purity = split_factor(s, keep)
    _u, _v, want = _svd_split(s, keep)
    assert abs(purity - want) < 1e-12
    _assert_anchored(dropped)


def _near_product(p, n, keep, purity, rng):
    """sqrt(1 - e) u1 v1 + sqrt(e) u2 v2 with orthonormal pairs, where
    (1 - e)^2 + e^2 = purity."""
    e = (1 - np.sqrt(2 * purity - 1)) / 2
    pairs = []
    for size in (p ** len(keep), p ** (n - len(keep))):
        z = rng.normal(size=(size, 2)) + 1j * rng.normal(size=(size, 2))
        pairs.append(np.linalg.qr(z)[0].T)
    (u1, u2), (v1, v2) = pairs
    return StateVector(p=p, n=n, amplitudes=(
        np.sqrt(1 - e) * _place(u1, v1, p, keep, n)
        + np.sqrt(e) * _place(u2, v2, p, keep, n)))


@pytest.mark.parametrize("p, n, keep", [c for c in SPLIT_CASES
                                        if 0 < len(c[2]) < c[1]])
@pytest.mark.parametrize("margin", [-1e-11, 1e-11])
def test_split_factor_near_products_fall_on_the_svd_side_of_the_bound(
        p, n, keep, margin):
    s = _near_product(p, n, keep, PURITY_BOUND + margin, RNG)
    kept, dropped, purity = split_factor(s, keep)
    u1, v1, want = _svd_split(s, keep)
    assert abs(purity - want) < 1e-13
    assert (purity > PURITY_BOUND) == (want > PURITY_BOUND) == (margin > 0)
    assert abs(np.vdot(u1, kept.amplitudes)) ** 2 > 1 - 1e-12
    assert abs(np.vdot(v1, dropped.amplitudes)) ** 2 > 1 - 1e-12
    _assert_anchored(dropped)


def test_split_factor_refuses_zero_and_non_finite_states():
    zero = np.zeros(16, dtype=complex)
    tiny = np.full(16, 1e-16, dtype=complex)
    nan = random_state(2, 4, RNG).amplitudes
    nan[3] = np.nan
    inf = random_state(2, 4, RNG).amplitudes
    inf[0] = complex(0, np.inf)
    for amps, text in ((zero, "norm 0 outside"), (tiny, "norm 4e-16 outside"),
                       (nan, "non-finite"), (inf, "non-finite")):
        with pytest.raises(StateError, match=text):
            split_factor(StateVector(p=2, n=4, amplitudes=amps), [0, 1])


def test_random_state_is_normalized_and_seeded():
    a = random_state(2, 3, np.random.default_rng(5))
    b = random_state(2, 3, np.random.default_rng(5))
    assert abs(np.linalg.norm(a.amplitudes) - 1.0) < 1e-12
    assert np.allclose(a.amplitudes, b.amplitudes)


def test_random_single_qubit_unitary_is_unitary():
    u = random_single_qubit_unitary(np.random.default_rng(8))
    assert np.max(np.abs(u.conj().T @ u - I2)) < 1e-12
