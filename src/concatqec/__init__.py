"""Exact simulation of graph codes, GHZ erasure protection, and their
concatenation on small qudit registers.

The package splits into layers: fp_linalg (exact arithmetic over F_p),
statevec (dense register simulation), graph_code (encoding, syndrome
decoding), ghz_erasure (erasure recovery programs), concat (the joint
pipeline), and cli (command line front end).
"""

from .concat import (
    ChannelEvent,
    ConcatScheme,
    DecodeTrace,
    concat_decode,
    concat_encode,
    effective_channel,
)
from .fp_linalg import FpMatrix, FpVector
from .ghz_erasure import (
    ErasurePosition,
    GateProgram,
    GhzLayout,
    build_decoder,
    build_encoder,
    build_recovery,
    recover,
)
from .graph_code import (
    AdmissibilityReport,
    CodeGraph,
    LogicalState,
    SyndromeTable,
    build_syndrome_table,
    check_admissibility,
    correct,
    decode,
    decode_and_correct,
    encode,
    five_qubit_decoding_graph,
    load_graph,
    parse_graph,
)
from .statevec import PauliError, StateVector, apply_pauli_error, basis_state

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport",
    "ChannelEvent",
    "CodeGraph",
    "ConcatScheme",
    "DecodeTrace",
    "ErasurePosition",
    "FpMatrix",
    "FpVector",
    "GateProgram",
    "GhzLayout",
    "LogicalState",
    "PauliError",
    "StateVector",
    "SyndromeTable",
    "apply_pauli_error",
    "basis_state",
    "build_decoder",
    "build_encoder",
    "build_recovery",
    "build_syndrome_table",
    "check_admissibility",
    "concat_decode",
    "concat_encode",
    "correct",
    "decode",
    "decode_and_correct",
    "effective_channel",
    "encode",
    "five_qubit_decoding_graph",
    "load_graph",
    "parse_graph",
    "recover",
]
