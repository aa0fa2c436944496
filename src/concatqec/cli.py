"""Command line front end.

Subcommands:

* ``verify-graph``: parse a graph file and evaluate the admissibility
  conditions; exit 0 only when all pass.
* ``syndrome-table``: print the syndrome lookup table of a code.
* ``worked-example``: run the combined erasure plus bit-flip
  demonstration end to end and report syndrome, correction, fidelity.
* ``monte-carlo``: estimate the logical channel under a named noise
  model.

Exit codes: 0 success, 1 domain failure (inadmissible graph, failed
decode), 2 usage or parse error.  With ``--format records`` output is
one record per line of space-separated ``key=value`` pairs.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from importlib import resources
from typing import List, Optional

from .concat import (
    ChannelEvent,
    ConcatScheme,
    effective_channel,
    noise_correctable,
    noise_identity,
    noise_two_pauli,
    concat_decode,
    concat_encode,
)
from .ghz_erasure import ErasurePosition, GhzError, GhzLayout, RecoveryError
from .graph_code import (
    ERROR_LABEL_RE,
    CodeError,
    CodeGraph,
    DecodeError,
    GraphParseError,
    LogicalState,
    build_syndrome_table,
    check_admissibility,
    load_graph,
    parse_graph,
    weight_one_errors,
    word_mbs,
)
from .statevec import PauliError, StateError, apply_pauli_error, fidelity_up_to_phase

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

DEFAULT_GRAPH_RESOURCE = "five_qubit_decoding.graph"


class UsageError(Exception):
    """A bad flag value, reported with exit code 2."""


@dataclass
class RunConfig:
    """Parsed command line options shared by all subcommands.

    Attributes:
        command: subcommand name.
        graph: path to a graph file, or None for the packaged default.
        p: expected field order; mismatch with the file is a usage error.
        e: designed number of correctable errors for admissibility.
        erasure_pos: erased qubit label, e.g. ``1`` or ``5'``.
        error: physical error label, e.g. ``B1'``, or ``none``.
        seed: random seed for sampling paths.
        trials: Monte-Carlo sample count.
        format: ``text`` or ``records``.
        noise: noise model name for monte-carlo.
    """

    command: str
    graph: Optional[str] = None
    p: Optional[int] = None
    e: int = 1
    erasure_pos: str = "1"
    error: str = "B1'"
    seed: int = 1234
    trials: int = 200
    format: str = "text"
    noise: str = "correctable"


def _load_configured_graph(config: RunConfig) -> CodeGraph:
    """Load the graph named by the config, or the packaged default."""
    if config.graph is None:
        text = (resources.files(__package__) / "data"
                / DEFAULT_GRAPH_RESOURCE).read_text(encoding="utf-8")
        g = parse_graph(text)
    else:
        g = load_graph(config.graph)
    if config.p is not None and config.p != g.p:
        raise GraphParseError(f"graph declares p={g.p}, expected p={config.p}",
                              line=1)
    return g


def _parse_physical_error(label: str, n: int) -> Optional[PauliError]:
    """Parse an error label on the 2n-qubit register; primes hit ancillas."""
    stripped = label.strip()
    if stripped.lower() in ("none", "i", ""):
        return None
    match = ERROR_LABEL_RE.match(stripped)
    if not match:
        raise CodeError(f"cannot parse error label {label!r}")
    word = match.group(1)
    address = ErasurePosition.from_label(match.group(2), n).address
    m, b, s = word_mbs(word, 2)
    return PauliError.single(p=2, n=2 * n, q=address, b=b, s=s, m=m)


def _emit(lines: List[str]) -> None:
    for line in lines:
        print(line)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_verify_graph(config: RunConfig) -> int:
    """Check a graph against the decoding conditions."""
    g = _load_configured_graph(config)
    report = check_admissibility(g, e=config.e)
    verdict = {True: "pass", False: "fail"}
    named = [
        ("c1", "register sizes balance"),
        ("c2", "output block invertibility"),
        ("c3", "no edges inside syndromes"),
        ("c4", "no input-syndrome edges"),
        ("c5", "error localization"),
    ]
    if config.format == "records":
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


def cmd_syndrome_table(config: RunConfig) -> int:
    """Print the syndrome-to-correction table of the configured code."""
    g = _load_configured_graph(config)
    table = build_syndrome_table(g, weight_one_errors(g.p, g.n))
    if config.format == "records":
        _emit(table.to_records())
    else:
        _emit(table.to_text())
    return EXIT_OK


def cmd_worked_example(config: RunConfig) -> int:
    """Run the erasure-plus-error demonstration on the packaged code."""
    g = _load_configured_graph(config)
    n = g.n
    scheme = ConcatScheme(outer=g, inner=GhzLayout(n))
    try:
        pos = ErasurePosition.from_label(config.erasure_pos, n)
        physical_error = _parse_physical_error(config.error, n)
    except (GhzError, CodeError) as exc:
        raise UsageError(str(exc))

    coeffs = [0.6, 0.8]
    v = LogicalState(p=2, coefficients=coeffs)
    state = concat_encode(scheme, v)
    if physical_error is not None:
        state = apply_pauli_error(state, physical_error)
    event = ChannelEvent(erasure=pos)
    recovered, trace = concat_decode(scheme, state, event)
    fidelity = fidelity_up_to_phase(v.as_state(), recovered.as_state())

    error_name = "none" if physical_error is None else config.error.strip()
    surviving = "ancilla" if pos.side == "message" else "message"
    if config.format == "records":
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


def cmd_monte_carlo(config: RunConfig) -> int:
    """Sample the effective logical channel under a named noise model."""
    g = _load_configured_graph(config)
    scheme = ConcatScheme(outer=g, inner=GhzLayout(g.n))
    factories = {
        "identity": lambda: noise_identity(),
        "correctable": lambda: noise_correctable(scheme),
        "two-pauli": lambda: noise_two_pauli(scheme),
    }
    noise = factories[config.noise]()
    stats = effective_channel(scheme, noise, trials=config.trials,
                              seed=config.seed)
    if config.format == "records":
        _emit([f"noise={config.noise} seed={config.seed} "
               + " ".join(f"{key}={value:.12g}"
                          for key, value in stats.items())])
    else:
        lines = [f"noise: {config.noise}", f"seed: {config.seed}"]
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
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--graph", metavar="PATH", default=None,
                        help="graph file (default: packaged five-qubit code)")
    shared.add_argument("--p", type=int, default=None,
                        help="expected field order of the graph")
    shared.add_argument("--e", type=int, default=1,
                        help="designed number of correctable errors")
    shared.add_argument("--erasure-pos", default="1", metavar="LABEL",
                        help="erased qubit label, e.g. 1 or 5'")
    shared.add_argument("--error", default="B1'", metavar="LABEL",
                        help="physical error label, e.g. B1' or none")
    shared.add_argument("--seed", type=seed, default=1234,
                        help="random seed")
    shared.add_argument("--trials", type=int, default=200,
                        help="Monte-Carlo sample count")
    shared.add_argument("--format", choices=("text", "records"),
                        default="text", help="output style")
    shared.add_argument("--noise",
                        choices=("identity", "correctable", "two-pauli"),
                        default="correctable",
                        help="noise model for monte-carlo")
    parser = argparse.ArgumentParser(
        prog="concatqec",
        description="graph-code and GHZ erasure-code simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("verify-graph", parents=[shared],
                   help="check the decoding conditions")
    sub.add_parser("syndrome-table", parents=[shared],
                   help="print the syndrome lookup table")
    sub.add_parser("worked-example", parents=[shared],
                   help="run the erasure-plus-error demonstration")
    sub.add_parser("monte-carlo", parents=[shared],
                   help="estimate the effective logical channel")
    return parser


_COMMANDS = {
    "verify-graph": cmd_verify_graph,
    "syndrome-table": cmd_syndrome_table,
    "worked-example": cmd_worked_example,
    "monte-carlo": cmd_monte_carlo,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    config = RunConfig(
        command=args.command,
        graph=args.graph,
        p=args.p,
        e=args.e,
        erasure_pos=args.erasure_pos,
        error=args.error,
        seed=args.seed,
        trials=args.trials,
        format=args.format,
        noise=args.noise,
    )
    try:
        return _COMMANDS[config.command](config)
    except (GraphParseError, OSError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CodeError, GhzError, StateError, DecodeError, RecoveryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
