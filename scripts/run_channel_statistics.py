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
from dataclasses import dataclass

from concatqec.concat import (
    PER_QUBIT,
    WHOLE_REGISTER,
    ConcatScheme,
    effective_channel,
    noise_correctable,
    noise_identity,
    noise_two_pauli,
)
from concatqec.ghz_erasure import GhzError, GhzLayout
from concatqec.graph_code import CodeError, five_qubit_decoding_graph


@dataclass
class StatsConfig:
    """Parameters of one statistics run.

    Attributes:
        trials: Monte-Carlo samples per noise model.
        seed: generator seed shared by all models for comparability.
        blocking: register layout of the concatenated code.
        inner_n: inner block size (must equal 5 for whole-register).
    """

    trials: int = 100
    seed: int = 7
    blocking: str = WHOLE_REGISTER
    inner_n: int = 5


def run(config: StatsConfig) -> None:
    g = five_qubit_decoding_graph()
    scheme = ConcatScheme(outer=g, inner=GhzLayout(config.inner_n),
                          blocking=config.blocking)
    models = (
        ("identity", noise_identity()),
        ("correctable", noise_correctable(scheme)),
        ("two-pauli", noise_two_pauli(scheme)),
    )
    print(f"blocking={config.blocking} register={scheme.total_qubits} qubits "
          f"trials={config.trials} seed={config.seed}")
    print(f"{'model':>12}  {'mean_fid':>10}  {'min_fid':>10}  {'fail_rate':>9}")
    for name, noise in models:
        stats = effective_channel(scheme, noise, trials=config.trials,
                                  seed=config.seed)
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
    blocking = PER_QUBIT if args.per_qubit else WHOLE_REGISTER
    inner_n = args.inner_n
    if inner_n is None:
        inner_n = 2 if args.per_qubit else 5
    trials = args.trials
    if trials is None:
        trials = 10 if args.per_qubit else 100
    try:
        run(StatsConfig(trials=trials, seed=args.seed, blocking=blocking,
                        inner_n=inner_n))
    except (CodeError, GhzError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
