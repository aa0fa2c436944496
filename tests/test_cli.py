"""Tests for the command-line interface.

Exercises every subcommand through main(), checks the exit-code
contract (0 success, 1 domain failure, 2 usage failure), and pins the
machine-readable outputs against golden content and repeat runs.
"""

import argparse
import os
import pathlib
import re
import subprocess
import sys

import pytest

from concatqec import cli
from concatqec.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, build_parser, main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "syndrome_table.records"
# The installed console script is checked against the next file in CI.
MONTE_CARLO_GOLDEN = (pathlib.Path(__file__).parent / "golden"
                      / "monte_carlo.records")
WORKED_EXAMPLE_GOLDEN = (pathlib.Path(__file__).parent / "golden"
                         / "worked_example.records")
# The installed console script is checked against the same file in CI.
VERIFY_GRAPH_E2_GOLDEN = (pathlib.Path(__file__).parent / "golden"
                          / "verify_graph_e2.records")


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# verify-graph
# ---------------------------------------------------------------------------


def test_verify_graph_default_passes(capsys):
    code, out, err = _run(capsys, "verify-graph")
    assert code == EXIT_OK
    assert "result: pass" in out
    assert err == ""


def test_verify_graph_records_format(capsys):
    code, out, _ = _run(capsys, "verify-graph", "--format", "records")
    assert code == EXIT_OK
    line = out.strip()
    for token in ("c1=pass", "c2=pass", "c3=pass", "c4=pass", "c5=pass",
                  "result=pass"):
        assert token in line


def test_verify_graph_flags_inadmissible_input(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("p 2 X 1 Y 2 L 1\n0 1 1\n0 2 1\n1 3 1\n")
    code, out, _ = _run(capsys, "verify-graph", "--graph", str(bad))
    assert code == EXIT_DOMAIN
    assert "result: fail" in out


@pytest.mark.parametrize("fmt, expected", [
    ("records", VERIFY_GRAPH_E2_GOLDEN.read_text()),
    ("text", "c1 register sizes balance: pass\n"
             "c2 output block invertibility: pass\n"
             "c3 no edges inside syndromes: pass\n"
             "c4 no input-syndrome edges: pass\n"
             "c5 error localization: fail\n"
             "witness: support=(1, 2, 3) dx=0 de=111\n"
             "result: fail\n"),
])
def test_verify_graph_two_errors_matches_golden(capsys, fmt, expected):
    # The five-qubit code corrects one error, not two: a weight-3 support
    # carries a kernel vector that moves the codeword without reaching
    # the input.  The witness is the lexicographically first failing pair.
    code, out, err = _run(capsys, "verify-graph", "--e", "2", "--format", fmt)
    assert code == EXIT_DOMAIN
    assert out == expected
    assert err == ""


def test_verify_graph_missing_file_is_usage_error(capsys):
    code, _, err = _run(capsys, "verify-graph", "--graph", "/no/such.graph")
    assert code == EXIT_USAGE
    assert "error:" in err


def test_verify_graph_malformed_file_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("p 2 X 1 Y 2 L 0\n0 0 1\n")
    code, _, err = _run(capsys, "verify-graph", "--graph", str(bad))
    assert code == EXIT_USAGE
    assert "line 2" in err


def test_verify_graph_field_override_must_match(tmp_path, capsys):
    good = tmp_path / "tiny.graph"
    good.write_text("p 3 X 1 Y 1 L 0\n0 1 1\n")
    code, _, err = _run(capsys, "verify-graph", "--graph", str(good), "--p", "2")
    assert code == EXIT_USAGE
    assert "error:" in err


# ---------------------------------------------------------------------------
# syndrome-table
# ---------------------------------------------------------------------------


def test_syndrome_table_records_match_golden(capsys):
    code, out, _ = _run(capsys, "syndrome-table", "--format", "records")
    assert code == EXIT_OK
    assert out.splitlines() == GOLDEN.read_text().splitlines()


def test_syndrome_table_of_a_qutrit_graph_matches_golden(capsys):
    # Rows name qutrit errors as P(m=..,b=..,s=..) and write residual
    # phases as powers of w = exp(2 pi i / 3).
    graph = str(GOLDEN.parent / "qutrit_decoding.graph")
    assert _run(capsys, "verify-graph", "--graph", graph)[0] == EXIT_OK
    golden = GOLDEN.parent / "qutrit_syndrome_table.records"
    code, out, err = _run(capsys, "syndrome-table", "--format", "records",
                          "--graph", graph)
    assert (code, err) == (EXIT_OK, "")
    assert out == golden.read_text()
    assert len(out.splitlines()) == 41


def test_syndrome_table_text_has_header_and_rows(capsys):
    code, out, _ = _run(capsys, "syndrome-table")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0].split() == ["syndrome", "error", "residual", "correction"]
    assert len(lines) == 17


def test_syndrome_table_rejects_an_oversized_graph(tmp_path, capsys):
    # p = 7 with |Y| = 12 passes parsing, whose cap of 26 qudits per
    # vertex set holds for every p, but its encoder would need 7**12
    # amplitudes.
    edges = ([f"0 {y} 1" for y in range(1, 13)]
             + [f"{13 + i} {2 + i} 1" for i in range(11)])
    big = tmp_path / "big.graph"
    big.write_text("p 7 X 1 Y 12 L 11\n" + "\n".join(edges) + "\n")
    code, out, err = _run(capsys, "syndrome-table", "--graph", str(big))
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err.startswith("error:") and f"{7**12} amplitudes" in err


def test_verify_graph_refuses_an_oversized_header_at_once(tmp_path, capsys):
    big = tmp_path / "big.graph"
    big.write_text("p 2 X 1 Y 1000000000 L 0\n")
    code, out, err = _run(capsys, "verify-graph", "--graph", str(big))
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err == ("error: graph declares 1000000000 Y vertices, above the "
                   "limit of 26 qudits per register\n")


def test_verify_graph_reports_a_file_that_is_not_utf8(tmp_path, capsys):
    binary = tmp_path / "binary.graph"
    binary.write_bytes(b"p 2 X 1 Y 1 L 0\n0 1 1 \xff\n")
    code, out, err = _run(capsys, "verify-graph", "--graph", str(binary))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: line 2: byte 0xff is not UTF-8\n"


# ---------------------------------------------------------------------------
# worked-example
# ---------------------------------------------------------------------------


def test_worked_example_reports_the_anchor_run(capsys):
    code, out, _ = _run(capsys, "worked-example")
    assert code == EXIT_OK
    assert "syndrome 0110" in out
    assert "correction S5" in out
    assert "fidelity 1.000000" in out


def test_worked_example_clean_channel(capsys):
    code, out, _ = _run(capsys, "worked-example", "--error", "None")
    assert code == EXIT_OK
    assert "syndrome 0000" in out
    assert "correction None" in out
    assert "fidelity 1.000000" in out


def test_worked_example_accepts_other_damage(capsys):
    # another combination where the physical flip lands cleanly on the
    # surviving half: erase qubit 5, flip ancilla 3'
    code, out, _ = _run(capsys, "worked-example", "--error", "B3'",
                        "--erasure-pos", "5")
    assert code == EXIT_OK
    assert "syndrome 0011" in out
    assert "correction S5" in out
    assert "fidelity 1.000000" in out


def test_worked_example_reports_honest_miscorrection(capsys):
    # a phase error does not commute through the recovery circuit the
    # way a bit flip does, so the pipeline completes but the reported
    # fidelity shows the damage instead of pretending success
    code, out, _ = _run(capsys, "worked-example", "--error", "BS3",
                        "--erasure-pos", "4'")
    assert code == EXIT_OK
    assert "syndrome 0111" in out
    assert "fidelity 1.000000" not in out


def test_worked_example_records_match_golden(capsys):
    # Every erasure position against no error and every weight-one B, S
    # and BS label, byte for byte: 310 runs, 138 of which report a
    # fidelity below 1 because the error does not commute through
    # recovery.
    positions = [str(q) for q in range(1, 6)] + [f"{q}'" for q in range(1, 6)]
    errors = ["None"] + [kind + label for kind in ("B", "S", "BS")
                         for label in positions]
    out = ""
    for erasure in positions:
        for error in errors:
            code, text, err = _run(capsys, "worked-example", "--format",
                                   "records", "--erasure-pos", erasure,
                                   "--error", error)
            assert (code, err) == (EXIT_OK, "")
            out += text
    assert out == WORKED_EXAMPLE_GOLDEN.read_text()
    assert sum("fidelity=1.000000" not in line
               for line in out.splitlines()) == 138


def test_worked_example_rejects_bad_error_label(capsys):
    code, _, err = _run(capsys, "worked-example", "--error", "Q7")
    assert code == EXIT_USAGE
    assert "error:" in err


def test_worked_example_rejects_bad_erasure_label(capsys):
    code, _, err = _run(capsys, "worked-example", "--erasure-pos", "9")
    assert code == EXIT_USAGE
    assert "error:" in err


# ---------------------------------------------------------------------------
# monte-carlo
# ---------------------------------------------------------------------------


def test_monte_carlo_identity_noise_is_perfect(capsys):
    code, out, _ = _run(capsys, "monte-carlo", "--noise", "identity",
                        "--trials", "5", "--seed", "3")
    assert code == EXIT_OK
    assert "mean_fidelity: 1" in out
    assert "failures: 0" in out


def test_monte_carlo_output_repeats_exactly(capsys):
    args = ("monte-carlo", "--trials", "15", "--seed", "9",
            "--noise", "two-pauli", "--format", "records")
    first = _run(capsys, *args)
    second = _run(capsys, *args)
    third = _run(capsys, *args)
    assert first == second == third
    assert first[0] == EXIT_OK


def test_monte_carlo_records_match_golden(capsys):
    # The records of all three noise models at seed 11, 100 trials each,
    # byte for byte.
    out = ""
    for noise in ("identity", "correctable", "two-pauli"):
        code, text, _ = _run(capsys, "monte-carlo", "--noise", noise,
                             "--seed", "11", "--trials", "100",
                             "--format", "records")
        assert code == EXIT_OK
        out += text
    assert out == MONTE_CARLO_GOLDEN.read_text()


def test_monte_carlo_seed_changes_output(capsys):
    base = ("monte-carlo", "--trials", "15", "--noise", "two-pauli")
    _, out_a, _ = _run(capsys, *base, "--seed", "1")
    _, out_b, _ = _run(capsys, *base, "--seed", "2")
    assert out_a != out_b


def test_monte_carlo_rejects_unknown_noise():
    with pytest.raises(SystemExit) as exc:
        main(["monte-carlo", "--noise", "bogus"])
    assert exc.value.code == EXIT_USAGE


def test_monte_carlo_rejects_a_negative_seed(capsys):
    # numpy's generators used to refuse it with a traceback.
    with pytest.raises(SystemExit) as exc:
        main(["monte-carlo", "--seed", "-1"])
    assert exc.value.code == EXIT_USAGE
    assert "seed must be >= 0, got -1" in capsys.readouterr().err


def test_monte_carlo_rejects_zero_trials(capsys):
    code, _, err = _run(capsys, "monte-carlo", "--trials", "0")
    assert code == EXIT_DOMAIN
    assert "error:" in err


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_USAGE


# The flags each subcommand reads, and so the only ones it accepts.
SUBCOMMAND_FLAGS = {
    "verify-graph": {"--graph", "--p", "--format", "--e"},
    "syndrome-table": {"--graph", "--p", "--format"},
    "worked-example": {"--graph", "--p", "--format", "--erasure-pos",
                       "--error"},
    "monte-carlo": {"--graph", "--p", "--format", "--seed", "--trials",
                    "--noise"},
}


def _subcommand_flags():
    """Each subparser of build_parser() with its option strings."""
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return {name: {flag for a in sub._actions for flag in a.option_strings}
            - {"-h", "--help"}
            for name, sub in action.choices.items()}


@pytest.mark.parametrize("argv", [
    ("syndrome-table", "--e", "2"),
    ("verify-graph", "--seed", "5"),
    ("worked-example", "--trials", "0"),
    ("monte-carlo", "--erasure-pos", "9"),
])
def test_subcommands_refuse_a_flag_they_do_not_read(monkeypatch, capsys,
                                                    argv):
    # Each of these used to be accepted, ignored, and exit 0.  The flag is
    # refused while parsing, before any graph is loaded.
    def no_graph(args):
        raise AssertionError("graph loaded")
    monkeypatch.setattr(cli, "_load_configured_graph", no_graph)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith(f"usage: concatqec {argv[0]} ")
    assert "unrecognized arguments: " + " ".join(argv[1:]) in captured.err


def test_each_subcommand_and_readme_list_only_the_flags_it_reads():
    assert _subcommand_flags() == SUBCOMMAND_FLAGS
    # README's synopsis lists each subcommand's flags, no more, no fewer.
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("## Command line", 1)[1]
    synopsis = section.split("```text\n", 1)[1].split("```", 1)[0]
    documented = {line.split()[1]: set(re.findall(r"\[(--[a-z-]+)", line))
                  for line in synopsis.splitlines()}
    assert documented == SUBCOMMAND_FLAGS


def test_module_execution_round_trip():
    result = subprocess.run(
        [sys.executable, "-m", "concatqec", "verify-graph", "--format",
         "records"],
        capture_output=True, text=True)
    assert result.returncode == EXIT_OK
    assert "result=pass" in result.stdout


def _script(name, *args):
    """Run scripts/<name> with the package on its path."""
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(root / "scripts" / name), *args],
        capture_output=True, text=True, env=env)


@pytest.mark.parametrize("inner_n, message", [
    ("7", "block size n must lie in"),
])
def test_channel_statistics_script_reports_domain_errors(inner_n, message):
    # Like the CLI, the script turns a scheme it cannot build into one
    # error line and exit code 1, not a traceback.
    result = _script("run_channel_statistics.py", "--per-qubit",
                     "--inner-n", inner_n)
    assert result.returncode == EXIT_DOMAIN
    assert result.stderr.startswith("error: ") and message in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("block_size", ["9", "1", "-3"])
def test_operator_tables_script_refuses_a_bad_block_size(block_size):
    # The dump used to print 68 lines of tables before the GHZ block
    # programs raised a traceback; the size is now checked first.
    result = _script("dump_operator_tables.py", "--block-size", block_size)
    assert result.returncode == EXIT_DOMAIN
    assert result.stderr == (f"error: block size n must lie in [2, 6], "
                             f"got {block_size}\n")
    assert result.stdout == ""


def test_channel_statistics_script_runs_per_qubit_blocks_of_three():
    # Inner n = 3 makes a 30-qubit register, past the dense size limit;
    # the block register never builds it, so the run completes.
    result = _script("run_channel_statistics.py", "--per-qubit",
                     "--inner-n", "3")
    assert result.returncode == EXIT_OK
    assert result.stderr == ""
    assert "register=30 qubits" in result.stdout
    assert "correctable    1.000000    1.000000     0.0000" in result.stdout


def test_joint_protection_sweep_refuses_a_negative_seed():
    # numpy's generators take no negative seed; the script says so in
    # one error line before any case runs.
    result = _script("run_joint_protection_sweep.py", "--seed", "-1")
    assert result.returncode == EXIT_DOMAIN
    assert result.stderr == "error: need a seed >= 0, got -1\n"
    assert result.stdout == ""


def test_joint_protection_sweep_refuses_a_negative_unitary_count():
    # range(-5) would add no unitary and run the sweep as --unitaries 0.
    result = _script("run_joint_protection_sweep.py", "--unitaries", "-5")
    assert result.returncode == EXIT_DOMAIN
    assert result.stderr == "error: need --unitaries >= 0, got -5\n"
    assert result.stdout == ""


@pytest.mark.parametrize("block_size, lines", [("5", 83), ("3", 79)])
def test_operator_tables_script_matches_golden(block_size, lines):
    # The dump prints the adjacency matrix, the admissibility verdict, the
    # 32 signed codeword forms of the encoder, the syndrome table and the
    # GHZ block programs; all of it is pinned byte for byte.
    golden = (pathlib.Path(__file__).parent / "golden"
              / f"operator_tables_n{block_size}.txt")
    result = _script("dump_operator_tables.py", "--block-size", block_size)
    assert result.returncode == EXIT_OK
    assert result.stderr == ""
    assert len(result.stdout.splitlines()) == lines
    assert result.stdout == golden.read_text()
