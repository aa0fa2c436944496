"""Tests for the command-line interface.

Exercises every subcommand through main(), checks the exit-code
contract (0 success, 1 domain failure, 2 usage failure), and pins the
machine-readable outputs against golden content and repeat runs.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from concatqec.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "syndrome_table.records"
MONTE_CARLO_GOLDEN = (pathlib.Path(__file__).parent / "golden"
                      / "monte_carlo.records")


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
    ("records", "c1=pass c2=pass c3=pass c4=pass c5=fail result=fail "
                "witness_support=1,2,3 witness_dx=0 witness_de=111\n"),
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


def test_module_execution_round_trip():
    result = subprocess.run(
        [sys.executable, "-m", "concatqec", "verify-graph", "--format",
         "records"],
        capture_output=True, text=True)
    assert result.returncode == EXIT_OK
    assert "result=pass" in result.stdout


@pytest.mark.parametrize("inner_n, message", [
    ("3", "30 qubits"),
    ("7", "block size n must lie in"),
])
def test_channel_statistics_script_reports_domain_errors(inner_n, message):
    # Like the CLI, the script turns a scheme it cannot build into one
    # error line and exit code 1, not a traceback.
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_channel_statistics.py"),
         "--per-qubit", "--inner-n", inner_n],
        capture_output=True, text=True, env=env)
    assert result.returncode == EXIT_DOMAIN
    assert result.stderr.startswith("error: ") and message in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("block_size, lines", [("5", 83), ("3", 79)])
def test_operator_tables_script_matches_golden(block_size, lines):
    # The dump prints the adjacency matrix, the admissibility verdict, the
    # 32 signed codeword forms of the encoder, the syndrome table and the
    # GHZ block programs; all of it is pinned byte for byte.
    root = pathlib.Path(__file__).resolve().parent.parent
    golden = root / "tests" / "golden" / f"operator_tables_n{block_size}.txt"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(root / "scripts" / "dump_operator_tables.py"),
         "--block-size", block_size],
        capture_output=True, text=True, env=env)
    assert result.returncode == EXIT_OK
    assert result.stderr == ""
    assert len(result.stdout.splitlines()) == lines
    assert result.stdout == golden.read_text()
