"""Decoding oracles kept out of the library.

decoder_unitary is the library's decoding map applied to every codeword
basis state, as a dense p**n x p**n matrix, so checks of the matrix
check decode.

build_syndrome_table_by_decoding is the syndrome table built by decoding
state vectors.  The library once built its table by encoding every logical basis state,
applying every error, running the full decode, and reading the row off
the decoded amplitudes: the correction was the first single-qudit word
of CORRECTION_WORDS that maps every decoded residual back onto its
basis state to DECODED_AMPLITUDE_TOL, and the residual was rendered
from the sign of each decoded amplitude.  So it covers only qubit codes
whose corrections are such words.  The library now pushes Pauli labels
through the decoder over F_p instead; where this build returns a table,
the tests require the two to print the same records.

five_qubit_code_graph is the five-qubit code's graph without syndrome
vertices, which no decoder can run, read from the package's data file;
the tests use it for the codeword and the conditions it fails.
"""

from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from concatqec import graph_code
from concatqec.graph_code import (
    CORRECTION_WORDS,
    CodeError,
    CodeGraph,
    DecodeError,
    LogicalState,
    SyndromeRow,
    SyndromeTable,
    _decoder,
    check_amplitude_count,
    decode,
    encode,
    format_error_label,
    load_graph,
    word_error,
)
from concatqec.statevec import (
    PauliError,
    StateVector,
    apply_pauli_error,
    basis_state,
    index_to_digits,
)


def five_qubit_code_graph() -> CodeGraph:
    """The 3-regular six-vertex graph of the distance-3 five-qubit code."""
    return load_graph(Path(graph_code.__file__).with_name("data")
                      / "five_qubit_code.graph")


def decoder_unitary(g: CodeGraph) -> np.ndarray:
    """The decoding unitary as a dense p**n x p**n matrix.

    Raises:
        CodeError, DecodeError: as the decoder does, and CodeError when
            the matrix would exceed MAX_AMPLITUDES entries.
    """
    apply = _decoder(g)
    check_amplitude_count("the dense decoding matrix", g.p**(2 * g.n))
    return apply(np.eye(g.p**g.n)).T


# A decoded amplitude within this of an exact value (a signed basis
# amplitude, or the reference state's) counts as exact.
DECODED_AMPLITUDE_TOL = 1e-8


def _render_residual(residuals: Sequence[StateVector], p: int, k: int) -> str:
    """Describe decoded basis responses as signed coefficient terms."""
    parts = []
    for j, res in enumerate(residuals):
        target = int(np.argmax(np.abs(res.amplitudes)))
        amp = res.amplitudes[target]
        if abs(amp - 1.0) <= DECODED_AMPLITUDE_TOL:
            sign = "+"
        elif abs(amp + 1.0) <= DECODED_AMPLITUDE_TOL:
            sign = "-"
        else:
            raise CodeError(
                "residual rendering expects signed basis states; "
                f"got amplitude {amp:.3f}")
        ket = "".join(str(d) for d in index_to_digits(target, p, k))
        parts.append((sign, f"c({j})|{ket}>"))
    rendered = parts[0][1] if parts[0][0] == "+" else "-" + parts[0][1]
    for sign, term in parts[1:]:
        rendered += sign + term
    return rendered


def _find_correction(residuals: Sequence[StateVector],
                     reference: Sequence[StateVector],
                     p: int, k: int
                     ) -> Optional[Tuple[str, int, PauliError]]:
    """First Pauli word restoring every residual to its reference exactly."""
    candidates: List[Tuple[str, int]] = [("", 0)]
    for word in CORRECTION_WORDS[1:]:
        for q in range(k):
            candidates.append((word, q))
    for word, q in candidates:
        op = word_error(word, p, k, q) if word else PauliError.identity(p, k)
        if all(
            np.max(np.abs(apply_pauli_error(res, op).amplitudes
                          - ref.amplitudes)) <= DECODED_AMPLITUDE_TOL
            for res, ref in zip(residuals, reference)
        ):
            return word, q, op
    return None


def build_syndrome_table_by_decoding(g: CodeGraph,
                                     errors: Sequence[PauliError]
                                     ) -> SyndromeTable:
    """The table of the full decode pipeline run on every basis input.

    Raises:
        DecodeError: on an input-dependent syndrome, a syndrome collision
            between errors that need different corrections, or when no
            correction word works.
        CodeError: when a residual is not a signed basis state.
    """
    table = SyndromeTable(p=g.p, k=g.k, m=g.m)
    encoded_basis = [encode(g, LogicalState.computational(g.p, g.k, j))
                     for j in range(g.p**g.k)]
    reference = [basis_state(g.p, index_to_digits(j, g.p, g.k))
                 for j in range(g.p**g.k)]
    for error in [PauliError.identity(g.p, g.n)] + list(errors):
        syndrome: Optional[Tuple[int, ...]] = None
        residuals: List[StateVector] = []
        for codeword in encoded_basis:
            syn, res = decode(g, apply_pauli_error(codeword, error))
            if syndrome is None:
                syndrome = syn.entries
            elif syn.entries != syndrome:
                raise DecodeError(
                    f"error {format_error_label(error)} produces an "
                    "input-dependent syndrome")
            residuals.append(res)
        correction = _find_correction(residuals, reference, g.p, g.k)
        if correction is None:
            raise DecodeError(
                f"no correction found for error {format_error_label(error)}")
        word, q, op = correction
        row = SyndromeRow(
            error_label=format_error_label(error),
            residual=_render_residual(residuals, g.p, g.k),
            correction_label="None" if word == "" else f"{word}{g.m + q + 1}",
            correction=op,
        )
        existing = table.rows.get(syndrome)
        if existing is None:
            table.rows[syndrome] = row
        elif existing.correction != op:
            raise DecodeError(
                f"syndrome collision: {existing.error_label} and "
                f"{row.error_label} share syndrome "
                f"{''.join(str(d) for d in syndrome)} but need different "
                "corrections")
    return table
