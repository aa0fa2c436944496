"""Estimate the effective logical channel under the built-in noise models.

Runs Monte-Carlo batches through the full encode/damage/decode pipeline
for each noise model and blocking mode, and prints mean and minimum
fidelity together with the failure rate.  The correctable model should
show zero failures at any sample size; the two-Pauli model shows how
the code degrades beyond its design strength.

Usage:
    python3 scripts/run_channel_statistics.py
    python3 scripts/run_channel_statistics.py --trials 200 --seed 11
    python3 scripts/run_channel_statistics.py --per-qubit --inner-n 2
"""

import argparse
import sys

from concatqec.concat import (
    NOISE_MODELS,
    PER_QUBIT,
    WHOLE_REGISTER,
    ConcatScheme,
    effective_channel,
)
from concatqec.ghz_erasure import GhzError, GhzLayout
from concatqec.graph_code import CodeError, five_qubit_decoding_graph


def run(args: argparse.Namespace) -> None:
    """Print one table row per noise model for the parsed flags."""
    blocking = PER_QUBIT if args.per_qubit else WHOLE_REGISTER
    inner_n = args.inner_n
    if inner_n is None:
        inner_n = 2 if args.per_qubit else 5
    trials = args.trials
    if trials is None:
        trials = 10 if args.per_qubit else 100
    scheme = ConcatScheme(outer=five_qubit_decoding_graph(),
                          inner=GhzLayout(inner_n), blocking=blocking)
    print(f"blocking={blocking} register={scheme.total_qubits} qubits "
          f"trials={trials} seed={args.seed}")
    print(f"{'model':>12}  {'mean_fid':>10}  {'min_fid':>10}  {'fail_rate':>9}")
    for name, model in NOISE_MODELS.items():
        stats = effective_channel(scheme, model(scheme), trials=trials,
                                  seed=args.seed)
        print(f"{name:>12}  {stats['mean_fidelity']:>10.6f}  "
              f"{stats['min_fidelity']:>10.6f}  "
              f"{stats['failure_rate']:>9.4f}")
        kinds = sorted({key.split(".")[1] for key in stats
                        if key.startswith("kind.")})
        for kind in kinds:
            count = int(stats[f"kind.{kind}.count"])
            mean = stats[f"kind.{kind}.mean_fidelity"]
            print(f"{'':>12}    {kind:<14} n={count:<4} mean={mean:.6f}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Monte-Carlo logical channel statistics")
    parser.add_argument("--trials", type=int, default=None,
                        help="samples per model (default 100, or 10 "
                             "per-qubit)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--per-qubit", action="store_true",
                        help="use one inner block per codeword qubit")
    parser.add_argument("--inner-n", type=int, default=None,
                        help="inner block size (default 5, or 2 per-qubit)")
    args = parser.parse_args()
    try:
        run(args)
    except (CodeError, GhzError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
