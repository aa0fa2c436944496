"""The benchmark's workloads and tracer against the library.

perfbench/ imports library modules and wraps their attributes by name.
A library change that breaks either fails here, in tier-1, and not only
in the benchmark's own step.  perfbench/ is only read: its modules are
loaded from their files, under names of their own.
"""

import importlib.util
import sys
from pathlib import Path

from concatqec import concat, ghz_erasure, graph_code

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _attributes():
    owners = (concat, ghz_erasure, graph_code, ghz_erasure.GateProgram)
    return {(owner.__name__, name): value for owner in owners
            for name, value in vars(owner).items()}


def test_the_tracer_wraps_a_workload_op_and_puts_every_name_back():
    workloads = _load("workloads")
    tracer = _load("tracer").Tracer()
    before = _attributes()
    tracer.install()
    try:
        for workload in (workloads.WholeRegisterMixed,
                         workloads.PerQubitCorrectable):
            work = workload(seed=1, smoke=True)
            for i in range(3):
                inp = work.make_input(workloads.TIMED_STREAM, i)
                assert work.check(inp, tracer.run_op(i, work.op, inp))
    finally:
        tracer.uninstall()
    assert _attributes() == before
    assert {"concat.concat_encode", "concat.apply_channel_damage",
            "concat.concat_decode"} <= set(tracer.names)
