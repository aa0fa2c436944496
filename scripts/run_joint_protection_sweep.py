"""Sweep every joint damage pattern the concatenated code must survive.

For each erasure position, corruption type, and single-qubit
computational error, the script encodes a random logical qubit, applies
the damage, decodes, and records the fidelity of the recovered state.
The final table groups worst-case fidelities by erasure position so a
single glance shows whether any position or corruption type lags.

Usage:
    python3 scripts/run_joint_protection_sweep.py
    python3 scripts/run_joint_protection_sweep.py --seed 5 --unitaries 3
"""

import argparse
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from concatqec.concat import (
    ChannelEvent,
    ConcatScheme,
    apply_channel_damage,
    concat_decode,
    concat_encode,
)
from concatqec.ghz_erasure import ErasurePosition, GhzLayout
from concatqec.graph_code import LogicalState, five_qubit_decoding_graph
from concatqec.statevec import (
    PauliError,
    fidelity_up_to_phase,
    random_single_qubit_unitary,
    random_state,
)


# Fidelity shortfall treated as failure.
TOLERANCE = 1e-10


@dataclass
class SweepResult:
    """Accumulated outcomes keyed by erasure label."""

    cases: int = 0
    failures: int = 0
    worst: float = 1.0
    by_position: Dict[str, float] = field(default_factory=dict)
    by_corruption: Dict[str, float] = field(default_factory=dict)


def corruption_name(corr) -> str:
    if corr is None:
        return "none"
    if isinstance(corr, str):
        return corr
    return "unitary"


def run_sweep(args: argparse.Namespace) -> SweepResult:
    """Decode every case for the parsed ``--seed`` and ``--unitaries``."""
    g = five_qubit_decoding_graph()
    scheme = ConcatScheme(outer=g, inner=GhzLayout(g.n))
    corruptions: List = [None, "X", "Y", "Z"]
    for k in range(args.unitaries):
        corruptions.append(random_single_qubit_unitary(
            np.random.default_rng(args.seed + 1000 + k)))
    paulis: List[Tuple[int, int, int]] = [
        (q, b, s) for q in range(g.n) for b, s in ((1, 0), (0, 1), (1, 1))]

    rng = np.random.default_rng(args.seed)
    result = SweepResult()
    for addr in range(scheme.total_qubits):
        pos = ErasurePosition(address=addr, n=scheme.inner.n)
        for corr in corruptions:
            for q, b, s in paulis:
                v = LogicalState(
                    p=2, coefficients=random_state(2, 1, rng).amplitudes)
                event = ChannelEvent(
                    pauli=PauliError.single(2, g.n, q, b=b, s=s),
                    erasure=pos, corruption=corr)
                physical = apply_channel_damage(
                    scheme, concat_encode(scheme, v), event)
                recovered, _ = concat_decode(scheme, physical, event)
                fid = fidelity_up_to_phase(v.as_state(), recovered.as_state())
                result.cases += 1
                result.worst = min(result.worst, fid)
                if fid < 1.0 - TOLERANCE:
                    result.failures += 1
                label = pos.label
                result.by_position[label] = min(
                    result.by_position.get(label, 1.0), fid)
                cname = corruption_name(corr)
                result.by_corruption[cname] = min(
                    result.by_corruption.get(cname, 1.0), fid)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(
        description="sweep erasure x corruption x computational error")
    parser.add_argument("--seed", type=int, default=77)
    parser.add_argument("--unitaries", type=int, default=5,
                        help="random corruption unitaries beyond I/X/Y/Z")
    args = parser.parse_args()
    if args.seed < 0:
        print(f"error: need a seed >= 0, got {args.seed}", file=sys.stderr)
        return 1
    if args.unitaries < 0:
        print(f"error: need --unitaries >= 0, got {args.unitaries}",
              file=sys.stderr)
        return 1
    start = time.perf_counter()
    result = run_sweep(args)
    elapsed = time.perf_counter() - start

    print(f"cases:     {result.cases}")
    print(f"failures:  {result.failures}  (shortfall > {TOLERANCE:g})")
    print(f"worst:     1 - {1.0 - result.worst:.3e}")
    print(f"runtime:   {elapsed:.1f} s")
    print()
    print("worst fidelity by erasure position")
    for label in sorted(result.by_position):
        print(f"  {label:>3}  1 - {1.0 - result.by_position[label]:.3e}")
    print("worst fidelity by corruption")
    for name in sorted(result.by_corruption):
        print(f"  {name:>7}  1 - {1.0 - result.by_corruption[name]:.3e}")
    return 0 if result.failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
