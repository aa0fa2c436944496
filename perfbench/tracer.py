"""Spans around the calls each concatqec layer makes into the next.

For a traced run only, ``Tracer.install`` replaces module attributes with
recording wrappers, and ``uninstall`` puts the originals back:

* every function ``concat`` imports from another package module;
* every function ``ghz_erasure`` imports (the four gate kernels as it
  looks them up, ``split_factor``, ``apply_single_qudit``), plus its own
  ``build_*`` functions, which ``recover`` calls;
* ``GateProgram.apply`` and ``GateProgram.inverse``;
* ``concat_encode``, ``apply_channel_damage``, ``concat_decode``, and
  ``graph_code``'s ``encode``, ``decode`` and ``check_admissibility``,
  which the benchmark calls directly.

Nothing inside ``graph_code`` or ``fp_linalg`` is wrapped, so a decode or
an admissibility check is one span.  A span records its name, start, end,
parent span and op id; gate-kernel spans also record the register size
2**n.  Spans stay in memory until ``save``.
"""

from __future__ import annotations

import inspect
import time
from pathlib import Path
from typing import Any, Callable, Dict, List

import numpy as np

from concatqec import concat, ghz_erasure, graph_code

KERNELS = {
    "apply_hadamard": "H",
    "apply_cnot": "CX",
    "apply_toffoli": "CCX",
    "apply_controlled_z": "CZ",
}
REGISTER_SPANS = ("statevec.register_probabilities", "statevec.project_register",
                  "statevec.split_factor")
BUILD_SPANS = ("ghz_erasure.build_encoder", "ghz_erasure.build_decoder",
               "ghz_erasure.build_recovery", "ghz_erasure.GateProgram.inverse")
CONCAT_STAGES = {"encode": "concat.concat_encode",
                 "damage": "concat.apply_channel_damage",
                 "decode": "concat.concat_decode"}
DECODE_SPAN = "graph_code.decode"


class Tracer:
    """In-memory span recorder; records only while ``active`` is set."""

    def __init__(self) -> None:
        self.active = False
        self.op_id = -1
        self.names: List[str] = []
        self.parent: List[int] = []
        self.op: List[int] = []
        self.start: List[int] = []
        self.end: List[int] = []
        self.amplitudes: List[int] = []
        self._stack: List[int] = []
        self._restore: List[tuple] = []

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             amplitudes: int = 0) -> Any:
        if not self.active:
            return fn(*args, **kwargs)
        sid = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.amplitudes.append(amplitudes)
        self._stack.append(sid)
        self.start.append(0)
        self.end.append(0)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.start[sid] = t0
            self.end[sid] = t1

    def run_op(self, op_id: int, fn: Callable, *args: Any) -> Any:
        """Run one op as a root span, recording spans inside it."""
        self.op_id = op_id
        self.active = True
        try:
            return self.call("op", fn, args, {})
        finally:
            self.active = False

    # -- installing wrappers -------------------------------------------------

    def _wrap(self, owner: Any, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        tracer = self
        if attr in KERNELS:
            def wrapper(*args, **kwargs):
                return tracer.call(name, original, args, kwargs,
                                   amplitudes=2 ** args[0].n)
        else:
            def wrapper(*args, **kwargs):
                return tracer.call(name, original, args, kwargs)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap_imports(self, module: Any) -> None:
        """Wrap each function ``module`` imports from another package module."""
        for attr, obj in list(vars(module).items()):
            if (inspect.isfunction(obj) and obj.__module__ != module.__name__
                    and obj.__module__.startswith("concatqec.")):
                layer = obj.__module__.rsplit(".", 1)[-1]
                self._wrap(module, attr, f"{layer}.{attr}")

    def install(self) -> None:
        self._wrap_imports(concat)
        self._wrap_imports(ghz_erasure)
        for attr in ("build_encoder", "build_decoder", "build_recovery"):
            self._wrap(ghz_erasure, attr, f"ghz_erasure.{attr}")
        for attr in ("apply", "inverse"):
            self._wrap(ghz_erasure.GateProgram, attr, f"ghz_erasure.GateProgram.{attr}")
        for attr in ("concat_encode", "apply_channel_damage", "concat_decode"):
            self._wrap(concat, attr, f"concat.{attr}")
        for attr in ("encode", "decode", "check_admissibility"):
            self._wrap(graph_code, attr, f"graph_code.{attr}")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def save(self, path: Path) -> None:
        """Write the spans as arrays; ``names`` is indexed by ``name_id``."""
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(table),
                 name_id=np.array([index[n] for n in self.names], dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int64),
                 op=np.array(self.op, dtype=np.int64),
                 start_ns=np.array(self.start, dtype=np.int64),
                 end_ns=np.array(self.end, dtype=np.int64),
                 amplitudes=np.array(self.amplitudes, dtype=np.int64))

    def layer_metrics(self, ops: int, fresh_graph_per_op: bool) -> Dict[str, float]:
        """Per-op layer metrics over every recorded span.

        Times are self times in ms (span duration minus the part its child
        spans cover), except the ``concat`` stage times, which include
        their children.  ``graph_code.decoder_build_ms`` is the first
        decode of each op minus the median of the other decodes when every
        op brings a fresh graph, and 0 otherwise.
        """
        names = np.array(self.names)
        parent = np.array(self.parent, dtype=np.int64)
        dur = (np.array(self.end, dtype=np.int64)
               - np.array(self.start, dtype=np.int64)).astype(float)
        amplitudes = np.array(self.amplitudes, dtype=np.int64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_ms = (dur - covered) / 1e6

        def where(*span_names: str) -> np.ndarray:
            return np.isin(names, span_names)

        def per_op(x: float) -> float:
            return float(x) / ops

        kernels = where(*(f"statevec.{k}" for k in KERNELS))
        decode = where(DECODE_SPAN)
        build_ms = (per_op(_decoder_build_ms(names, np.array(self.op), dur / 1e6))
                    if fresh_graph_per_op else 0.0)
        m: Dict[str, float] = {}
        for attr, kind in KERNELS.items():
            m[f"statevec.gate_calls.{kind}"] = per_op(np.sum(where(f"statevec.{attr}")))
        m["statevec.gate_ms"] = per_op(self_ms[kernels].sum())
        m["statevec.gate_amplitudes"] = per_op(amplitudes[kernels].sum())
        m["statevec.gate_bytes_computed"] = 32 * m["statevec.gate_amplitudes"]
        m["statevec.register_ms"] = per_op(self_ms[where(*REGISTER_SPANS)].sum())
        m["ghz_erasure.programs_built"] = per_op(np.sum(where(*BUILD_SPANS)))
        m["ghz_erasure.build_ms"] = per_op(self_ms[where(*BUILD_SPANS)].sum())
        apply = where("ghz_erasure.GateProgram.apply")
        m["ghz_erasure.program_apply_ms"] = per_op(self_ms[apply].sum())
        m["ghz_erasure.program_apply_calls"] = per_op(np.sum(apply))
        m["graph_code.decoder_build_ms"] = build_ms
        m["graph_code.decode_ms"] = per_op(self_ms[decode].sum()) - build_ms
        m["graph_code.decode_calls"] = per_op(np.sum(decode))
        m["graph_code.encode_ms"] = per_op(self_ms[where("graph_code.encode")].sum())
        m["fp_linalg.admissibility_ms"] = per_op(
            self_ms[where("graph_code.check_admissibility")].sum())
        stages = where(*CONCAT_STAGES.values())
        for stage, span in CONCAT_STAGES.items():
            m[f"concat.{stage}_ms"] = per_op(dur[where(span)].sum() / 1e6)
        m["concat.self_ms"] = per_op(self_ms[stages].sum())
        return m


def _decoder_build_ms(names: np.ndarray, op: np.ndarray, dur_ms: np.ndarray) -> float:
    """Total decoder build time: each op's first decode minus a cached one.

    Spans are numbered in the order they start, so an op's first decode
    span is its lowest-numbered one.
    """
    decodes = np.flatnonzero(names == DECODE_SPAN)
    _ops, first = np.unique(op[decodes], return_index=True)
    warm = np.delete(decodes, first)
    cached = float(np.median(dur_ms[warm])) if warm.size else 0.0
    return float((dur_ms[decodes[first]] - cached).sum())
