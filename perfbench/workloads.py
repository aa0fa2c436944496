"""The benchmark's workloads: inputs made from a seed, one timed op, its check.

Constructing a workload is its set-up, which ``setup_s`` measures: the
scheme, the first-call cache fills of the outer code and, for
``graph-cold``, the pool of random admissible graphs.  Inputs for op ``i``
come from a generator seeded with ``(seed, stream, i)``, so an op's inputs
do not depend on how many ops a run manages.  Ops call the package through
module attributes (``concat.concat_encode``, ``graph_code.decode``) so that
the tracer can wrap them for a traced run.

Every check here runs outside the timed region and uses only numpy for
fidelities, so it does not lean on the code it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple

import numpy as np

from concatqec import concat, graph_code, statevec
from concatqec.fp_linalg import FpMatrix
from concatqec.ghz_erasure import GhzLayout

FIDELITY_FLOOR = 1.0 - 1e-9
FIDELITY_MATCH = 1e-9

WARMUP_STREAM = 0
TIMED_STREAM = 1
GRAPH_STREAM = 2


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Squared overlap of two state vectors, each normalised here."""
    return float(abs(np.vdot(a, b)) ** 2
                 / (np.vdot(a, a).real * np.vdot(b, b).real))


def prime_outer_caches(outer: graph_code.CodeGraph) -> None:
    """Fill the outer code's first-call caches: encoding map, decoder
    unitary and syndrome table.

    One identity round trip through the whole-register scheme does it;
    the per-qubit scheme shares the same outer code, so it is primed
    without paying for a 20-qubit register.
    """
    scheme = concat.ConcatScheme(outer, GhzLayout(outer.n), concat.WHOLE_REGISTER)
    v = graph_code.LogicalState.computational(outer.p, outer.k, 0)
    physical = concat.concat_encode(scheme, v)
    concat.concat_decode(scheme, physical, concat.ChannelEvent())


@dataclass
class ConcatInput:
    kind: str
    logical: graph_code.LogicalState
    event: concat.ChannelEvent


class ConcatWorkload:
    """Round trips of the five-qubit code through a GHZ-protected scheme.

    Each op: ``concat_encode`` -> ``apply_channel_damage`` ->
    ``concat_decode`` on a random logical qubit and one channel event,
    whose noise model is drawn from ``MIX`` (cumulative probability, model).
    """

    BLOCKING: str
    INNER_N: int
    MIX: Sequence[Tuple[float, str]]
    fresh_graph_per_op = False
    max_ops = None

    def __init__(self, seed: int, smoke: bool) -> None:
        del smoke
        self.seed = seed
        self.outer = graph_code.five_qubit_decoding_graph()
        self.scheme = concat.ConcatScheme(self.outer, GhzLayout(self.INNER_N),
                                          self.BLOCKING)
        self.models = {
            "correctable": concat.noise_correctable(self.scheme),
            "two-pauli": concat.noise_two_pauli(self.scheme),
            "identity": concat.noise_identity(),
        }
        prime_outer_caches(self.outer)
        self._table = None

    def make_input(self, stream: int, i: int) -> ConcatInput:
        rng = np.random.default_rng([self.seed, stream, i])
        u = rng.random()
        kind = next(k for cumulative, k in self.MIX if u < cumulative)
        amplitudes = statevec.random_state(2, self.outer.k, rng).amplitudes
        logical = graph_code.LogicalState(p=2, coefficients=amplitudes)
        return ConcatInput(kind=kind, logical=logical,
                           event=self.models[kind](rng))

    def op(self, inp: ConcatInput) -> Any:
        physical = concat.concat_encode(self.scheme, inp.logical)
        physical = concat.apply_channel_damage(self.scheme, physical, inp.event)
        return concat.concat_decode(self.scheme, physical, inp.event)

    def outputs_key(self, inp: ConcatInput, out: Any) -> Tuple:
        _recovered, trace = out
        return (inp.kind, trace.syndrome, trace.correction)

    def check(self, inp: ConcatInput, out: Any) -> bool:
        recovered, trace = out
        f = fidelity(inp.logical.coefficients, recovered.coefficients)
        if inp.kind == "two-pauli":
            ref_syndrome, ref_f = self._bare_decode(inp)
            return trace.syndrome == ref_syndrome and abs(f - ref_f) <= FIDELITY_MATCH
        if inp.kind == "identity" and trace.syndrome != "0" * self.outer.m:
            return False
        return f >= FIDELITY_FLOOR

    def _bare_decode(self, inp: ConcatInput) -> Tuple[str, float]:
        """Decode the same Pauli on the bare outer codeword, no inner layer."""
        if self._table is None:
            self._table = graph_code.build_syndrome_table(
                self.outer, graph_code.weight_one_errors(2, self.outer.n))
        codeword = graph_code.encode(self.outer, inp.logical)
        damaged = statevec.apply_pauli_error(codeword, inp.event.pauli)
        syndrome, residual = graph_code.decode(self.outer, damaged)
        corrected = graph_code.correct(residual, syndrome, self._table)
        return ("".join(str(d) for d in syndrome.entries),
                fidelity(inp.logical.coefficients, corrected.amplitudes))


class WholeRegisterMixed(ConcatWorkload):
    """One 10-qubit block: many small kernel calls, overhead-bound."""

    BLOCKING = concat.WHOLE_REGISTER
    INNER_N = 5
    MIX = ((0.6, "correctable"), (0.8, "two-pauli"), (1.0, "identity"))
    WARMUP_OPS = 50
    FIXED_OPS = 1000
    SMOKE_OPS = 20


class PerQubitCorrectable(ConcatWorkload):
    """Five 4-qubit blocks, 20 qubits: memory-bound kernels on 2**20 amplitudes.

    Inner n = 2 is the largest that fits: n = 3 asks for a 16 GiB register.
    """

    BLOCKING = concat.PER_QUBIT
    INNER_N = 2
    MIX = ((1.0, "correctable"),)
    WARMUP_OPS = 1
    FIXED_OPS = 3
    SMOKE_OPS = 1


# Graph shape of graph-cold: the decoder acts on p**n = 3**7 = 2187 amplitudes.
GRAPH_P, GRAPH_K, GRAPH_N, GRAPH_M = 3, 1, 7, 6
# Candidates checked in set-up whatever the seed, so that set-up does the same
# work for every seed; about one in five is admissible.
GRAPH_CANDIDATES = 80


def random_graph(rng: np.random.Generator) -> graph_code.CodeGraph:
    """Random F_p weights on every edge admissibility allows.

    Edges inside L and between X and L are never drawn, since
    admissibility forbids them.
    """
    inputs = tuple(range(GRAPH_K))
    outputs = tuple(range(GRAPH_K, GRAPH_K + GRAPH_N))
    syndromes = tuple(range(GRAPH_K + GRAPH_N, GRAPH_K + GRAPH_N + GRAPH_M))
    size = GRAPH_K + GRAPH_N + GRAPH_M
    upper = np.triu(rng.integers(GRAPH_P, size=(size, size)), k=1)
    upper[np.ix_(syndromes, syndromes)] = 0
    upper[np.ix_(inputs, syndromes)] = 0
    return graph_code.CodeGraph(
        p=GRAPH_P, adjacency=FpMatrix.from_rows((upper + upper.T).tolist(), GRAPH_P),
        inputs=inputs, outputs=outputs, syndromes=syndromes)


def admissible_graphs(rng: np.random.Generator, count: int) -> List[graph_code.CodeGraph]:
    """The first ``count`` candidates that pass ``check_admissibility``.

    At least ``GRAPH_CANDIDATES`` candidates are checked; more are drawn
    only when too few of those pass.
    """
    found: List[graph_code.CodeGraph] = []
    tried = 0
    while tried < GRAPH_CANDIDATES or len(found) < count:
        g = random_graph(rng)
        tried += 1
        if graph_code.check_admissibility(g).all_pass:
            found.append(g)
    return found[:count]


@dataclass
class GraphInput:
    graph: graph_code.CodeGraph
    logical: graph_code.LogicalState


class GraphCold:
    """Decode a fresh random admissible graph per op.

    Each op: ``check_admissibility``, ``encode`` of a random qutrit, then
    ``decode`` of the clean codeword (which builds the decoder) and of
    every weight-one error.  Graph ``0`` of the pool serves the warm-up;
    timed op ``i`` uses graph ``i + 1``, so no op finds a decoder cached.
    """

    fresh_graph_per_op = True
    WARMUP_OPS = 1
    FIXED_OPS = 3
    SMOKE_OPS = 1
    # Each cached decoder holds 2187**2 complex amplitudes (73 MiB) for the
    # life of the process, so the pool also bounds the run's memory.
    POOL = 8
    SMOKE_POOL = 2

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        pool = self.SMOKE_POOL if smoke else self.POOL
        rng = np.random.default_rng([seed, GRAPH_STREAM])
        self.graphs = admissible_graphs(rng, pool + 1)
        self.max_ops = pool
        self.errors = graph_code.weight_one_errors(GRAPH_P, GRAPH_N)

    def make_input(self, stream: int, i: int) -> GraphInput:
        rng = np.random.default_rng([self.seed, stream, i])
        graph = self.graphs[0 if stream == WARMUP_STREAM else i + 1]
        amplitudes = statevec.random_state(GRAPH_P, GRAPH_K, rng).amplitudes
        logical = graph_code.LogicalState(p=GRAPH_P, coefficients=amplitudes)
        return GraphInput(graph=graph, logical=logical)

    def op(self, inp: GraphInput) -> Any:
        g = inp.graph
        report = graph_code.check_admissibility(g)
        codeword = graph_code.encode(g, inp.logical)
        clean = graph_code.decode(g, codeword)
        damaged = [graph_code.decode(g, statevec.apply_pauli_error(codeword, e))
                   for e in self.errors]
        return report, clean, damaged

    def outputs_key(self, inp: GraphInput, out: Any) -> Tuple:
        _report, clean, damaged = out
        return tuple(syndrome.entries for syndrome, _res in [clean] + damaged)

    def check(self, inp: GraphInput, out: Any) -> bool:
        report, (syndrome, residual), damaged = out
        return (report.all_pass
                and syndrome.is_zero()
                and fidelity(inp.logical.coefficients, residual.amplitudes)
                >= FIDELITY_FLOOR
                and len(damaged) == len(self.errors)
                and not any(s.is_zero() for s, _res in damaged))


WORKLOADS = {
    "wr-mixed": WholeRegisterMixed,
    "pq-correctable": PerQubitCorrectable,
    "graph-cold": GraphCold,
}
