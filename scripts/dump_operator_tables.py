"""Print every symbolic table the package generates.

Covers the code graph adjacency matrix, the admissibility verdict, the
32 signed codeword coefficient forms, the sixteen-row syndrome lookup
table, and the rendered GHZ-block operator programs for encoding,
decoding, and recovery at every erasure position.

Usage:
    python3 scripts/dump_operator_tables.py
    python3 scripts/dump_operator_tables.py --block-size 3
"""

import argparse
import sys

import numpy as np

from concatqec.ghz_erasure import (
    ErasurePosition,
    GhzError,
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


def dump_graph() -> None:
    g = five_qubit_decoding_graph()
    print("=== decoding graph ===")
    print(f"p={g.p}  inputs={g.k}  outputs={g.n}  syndromes={g.m}")
    print("adjacency matrix (inputs, then outputs, then syndromes):")
    for row in g.adjacency.array.tolist():
        print("  " + " ".join(str(v) for v in row))
    report = check_admissibility(g, 1)
    checks = [("c1", report.c1), ("c2", report.c2), ("c3", report.c3),
              ("c4", report.c4), ("c5", report.c5)]
    verdict = "  ".join(f"{name}={'pass' if ok else 'fail'}"
                        for name, ok in checks)
    print(f"admissibility (one error): {verdict}")
    print()


def dump_codeword() -> None:
    g = five_qubit_decoding_graph()
    e0 = encode(g, LogicalState(p=2, coefficients=[1.0, 0.0]))
    e1 = encode(g, LogicalState(p=2, coefficients=[0.0, 1.0]))
    scale = float(np.max(np.abs(e0.amplitudes)))
    print("=== codeword coefficients (x 1/sqrt(32)) ===")
    for k in range(32):
        s0 = int(round(float(e0.amplitudes[k].real) / scale))
        s1 = int(round(float(e1.amplitudes[k].real) / scale))
        pattern = format(k, "05b")
        terms = []
        for sign, name in ((s0, "c(0)"), (s1, "c(1)")):
            if sign:
                terms.append(("+" if sign > 0 else "-") + name)
        print(f"  |{pattern}>  {''.join(terms)}")
    print()


def dump_syndrome_table() -> None:
    g = five_qubit_decoding_graph()
    table = build_syndrome_table(g, weight_one_errors(2, 5))
    print("=== syndrome lookup table ===")
    for line in table.to_text():
        print("  " + line)
    print()


def dump_block_operators(layout: GhzLayout) -> None:
    n = layout.n
    print(f"=== GHZ block operators (n={n}, {layout.total} qubits) ===")
    print(f"encoder:  {build_encoder(n).product_notation()}")
    msg = build_decoder(n, ErasurePosition(address=0, n=n))
    anc = build_decoder(n, ErasurePosition(address=n, n=n))
    print(f"decoder (message-side erasure):  {msg.product_notation()}")
    print(f"decoder (ancilla-side erasure):  {anc.product_notation()}")
    for addr in range(layout.total):
        pos = ErasurePosition(address=addr, n=n)
        print(f"recovery {pos.label:>3}:  "
              f"{build_recovery(n, pos).product_notation()}")
    print()


def main() -> int:
    parser = argparse.ArgumentParser(description="dump all symbolic tables")
    parser.add_argument("--block-size", type=int, default=5,
                        help="GHZ block size n (2..6)")
    args = parser.parse_args()
    try:
        layout = GhzLayout(args.block_size)
    except GhzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    dump_graph()
    dump_codeword()
    dump_syndrome_table()
    dump_block_operators(layout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
