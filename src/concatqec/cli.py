"""Command line front end.

Subcommands:

* ``verify-graph``: parse a graph file and evaluate the admissibility
  conditions; exit 0 only when all pass.
* ``syndrome-table``: print the syndrome lookup table of a code.
* ``worked-example``: run the combined erasure plus bit-flip
  demonstration end to end and report syndrome, correction, fidelity.
* ``monte-carlo``: estimate the logical channel under a named noise
  model.

Every subcommand takes ``--graph``, ``--p`` and ``--format``, plus only
the flags it reads; any other flag is a usage error, reported under the
subcommand's own usage line.  Exit codes: 0
success, 1 domain failure (inadmissible graph, failed decode), 2 usage
or parse error.  With ``--format records`` output is one record per
line of space-separated ``key=value`` pairs.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from .concat import (
    NOISE_MODELS,
    ChannelEvent,
    ConcatScheme,
    apply_channel_damage,
    concat_decode,
    concat_encode,
    effective_channel,
)
from .ghz_erasure import ErasurePosition, GhzError, GhzLayout, RecoveryError
from .graph_code import (
    CodeError,
    CodeGraph,
    DecodeError,
    GraphParseError,
    LogicalState,
    build_syndrome_table,
    check_admissibility,
    five_qubit_decoding_graph,
    load_graph,
    parse_error_label,
    weight_one_errors,
)
from .statevec import (
    PauliError,
    StateError,
    apply_pauli_error,
    basis_state,
    fidelity_up_to_phase,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

class UsageError(Exception):
    """A bad flag value, reported with exit code 2."""


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser: a flag it does not read is reported under
    its own usage line, not the root's."""

    def parse_known_args(self, args=None, namespace=None):
        parsed, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return parsed, extras


def _load_configured_graph(args: argparse.Namespace) -> CodeGraph:
    """Load the graph named by ``--graph``, or the packaged default."""
    if args.graph is None:
        g = five_qubit_decoding_graph()
    else:
        g = load_graph(args.graph)
    if args.p is not None and args.p != g.p:
        raise GraphParseError(f"graph declares p={g.p}, expected p={args.p}",
                              line=1)
    return g


def _emit(lines: List[str]) -> None:
    for line in lines:
        print(line)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_verify_graph(args: argparse.Namespace) -> int:
    """Check a graph against the decoding conditions."""
    g = _load_configured_graph(args)
    report = check_admissibility(g, e=args.e)
    verdict = {True: "pass", False: "fail"}
    named = [
        ("c1", "register sizes balance"),
        ("c2", "output block invertibility"),
        ("c3", "no edges inside syndromes"),
        ("c4", "no input-syndrome edges"),
        ("c5", "error localization"),
    ]
    if args.format == "records":
        pairs = [f"{key}={verdict[getattr(report, key)]}" for key, _ in named]
        pairs.append(f"result={verdict[report.all_pass]}")
        if report.failing_witness is not None:
            support, d_x, d_e = report.failing_witness
            pairs.append("witness_support=" + ",".join(str(v) for v in support))
            pairs.append("witness_dx=" + "".join(str(v) for v in d_x.entries))
            pairs.append("witness_de=" + "".join(str(v) for v in d_e.entries))
        _emit([" ".join(pairs)])
    else:
        lines = [f"{key} {title}: {verdict[getattr(report, key)]}"
                 for key, title in named]
        if report.failing_witness is not None:
            support, d_x, d_e = report.failing_witness
            lines.append(
                f"witness: support={support} "
                f"dx={''.join(str(v) for v in d_x.entries)} "
                f"de={''.join(str(v) for v in d_e.entries)}")
        lines.append(f"result: {verdict[report.all_pass]}")
        _emit(lines)
    return EXIT_OK if report.all_pass else EXIT_DOMAIN


def cmd_syndrome_table(args: argparse.Namespace) -> int:
    """Print the syndrome-to-correction table of the configured code."""
    g = _load_configured_graph(args)
    table = build_syndrome_table(g, weight_one_errors(g.p, g.n))
    if args.format == "records":
        _emit(table.to_records())
    else:
        _emit(table.to_text())
    return EXIT_OK


def cmd_worked_example(args: argparse.Namespace) -> int:
    """Run the erasure-plus-error demonstration on the packaged code."""
    g = _load_configured_graph(args)
    n = g.n
    scheme = ConcatScheme(outer=g, inner=GhzLayout(n))
    try:
        pos = ErasurePosition.from_label(args.erasure_pos, n)
        physical_error = parse_error_label(
            args.error, 2, 2 * n,
            lambda label: ErasurePosition.from_label(label, n).address)
    except (GhzError, CodeError) as exc:
        raise UsageError(str(exc))

    coeffs = [0.6, 0.8]
    v = LogicalState(p=2, coefficients=coeffs)
    register = concat_encode(scheme, v)
    if physical_error.weight:
        # The Pauli strikes one qubit of the one block: a recorded hit
        # with its exact 2 x 2 operator, read off apply_pauli_error.
        q = next(q for q, (b, s) in enumerate(zip(physical_error.b,
                                                   physical_error.s)) if b or s)
        single = PauliError(m=physical_error.m, b=(physical_error.b[q],),
                            s=(physical_error.s[q],), p=2)
        operator = np.stack([apply_pauli_error(basis_state(2, (a,)),
                                               single).amplitudes
                             for a in (0, 1)], axis=1)
        register = apply_channel_damage(scheme, register, ChannelEvent(
            erasure=ErasurePosition(address=q, n=n), corruption=operator))
    event = ChannelEvent(erasure=pos)
    recovered, trace = concat_decode(scheme, register, event)
    fidelity = fidelity_up_to_phase(v.as_state(), recovered.as_state())

    error_name = args.error.strip() if physical_error.weight else "none"
    surviving = "ancilla" if pos.side == "message" else "message"
    if args.format == "records":
        _emit([f"erasure={pos.label} error={error_name} "
               f"syndrome={trace.syndrome} correction={trace.correction} "
               f"fidelity={fidelity:.6f}"])
    else:
        _emit([
            f"input c(0)={coeffs[0]:.6f} c(1)={coeffs[1]:.6f}",
            f"encoded {scheme.total_qubits} qubits "
            f"({n} message, {n} ancilla)",
            f"channel error {error_name}; erasure declared at {pos.label}",
            f"recovery onto {surviving} half",
            f"syndrome {trace.syndrome}",
            f"correction {trace.correction}",
            f"fidelity {fidelity:.6f}",
        ])
    return EXIT_OK


def cmd_monte_carlo(args: argparse.Namespace) -> int:
    """Sample the effective logical channel under a named noise model."""
    g = _load_configured_graph(args)
    scheme = ConcatScheme(outer=g, inner=GhzLayout(g.n))
    stats = effective_channel(scheme, NOISE_MODELS[args.noise](scheme),
                              trials=args.trials, seed=args.seed)
    if args.format == "records":
        _emit([f"noise={args.noise} seed={args.seed} "
               + " ".join(f"{key}={value:.12g}"
                          for key, value in stats.items())])
    else:
        lines = [f"noise: {args.noise}", f"seed: {args.seed}"]
        lines += [f"{key}: {value:.12g}" for key, value in stats.items()]
        _emit(lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------

def seed(text: str) -> int:
    """A --seed value: a non-negative integer, as numpy's generators need."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The parser; each subcommand takes only the flags it reads.

    A parsed namespace names its command in ``run``, which takes the
    namespace itself.
    """
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--graph", metavar="PATH", default=None,
                        help="graph file (default: packaged five-qubit code)")
    shared.add_argument("--p", type=int, default=None,
                        help="expected field order of the graph")
    shared.add_argument("--format", choices=("text", "records"),
                        default="text", help="output style")
    parser = argparse.ArgumentParser(
        prog="concatqec",
        description="graph-code and GHZ erasure-code simulator")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_SubcommandParser)

    verify = sub.add_parser("verify-graph", parents=[shared],
                            help="check the decoding conditions")
    verify.add_argument("--e", type=int, default=1,
                        help="designed number of correctable errors")
    verify.set_defaults(run=cmd_verify_graph)

    table = sub.add_parser("syndrome-table", parents=[shared],
                           help="print the syndrome lookup table")
    table.set_defaults(run=cmd_syndrome_table)

    worked = sub.add_parser("worked-example", parents=[shared],
                            help="run the erasure-plus-error demonstration")
    worked.add_argument("--erasure-pos", default="1", metavar="LABEL",
                        help="erased qubit label, e.g. 1 or 5'")
    worked.add_argument("--error", default="B1'", metavar="LABEL",
                        help="physical error label, e.g. B1' or none")
    worked.set_defaults(run=cmd_worked_example)

    carlo = sub.add_parser("monte-carlo", parents=[shared],
                           help="estimate the effective logical channel")
    carlo.add_argument("--seed", type=seed, default=1234,
                       help="random seed")
    carlo.add_argument("--trials", type=int, default=200,
                       help="Monte-Carlo sample count")
    carlo.add_argument("--noise", choices=NOISE_MODELS,
                       default="correctable", help="noise model")
    carlo.set_defaults(run=cmd_monte_carlo)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (GraphParseError, OSError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CodeError, GhzError, StateError, DecodeError, RecoveryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
