"""Tests for the command-line front end: documents, sweeps, search, checks."""

import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from naqc.cli import (
    EXIT_CONSISTENCY,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_STATE,
    DocumentError,
    decode_state_document,
    evaluate_lines,
    fmt,
    main,
)
from naqc.coherence import Measure
from naqc.qcore import NotAStateError
from naqc.states import bell, maximally_mixed, pure_alpha

SCI_NUMBER = re.compile(r"^-?\d\.\d{14}e[+-]\d{2,3}$")


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def dense_doc_of(rho):
    return {
        "nqubits": rho.nqubits,
        "re": rho.matrix.real.tolist(),
        "im": rho.matrix.imag.tolist(),
    }


class TestStateDocuments:
    def test_family_block(self):
        rho = decode_state_document({"family": "bell", "params": {}})
        np.testing.assert_allclose(rho.matrix, bell().matrix, atol=1e-15)

    def test_dense_block(self):
        rho = decode_state_document(dense_doc_of(pure_alpha(0.3)))
        np.testing.assert_allclose(rho.matrix, pure_alpha(0.3).matrix, atol=1e-15)

    def test_exactly_one_block(self):
        with pytest.raises(DocumentError):
            decode_state_document({"family": "bell", "nqubits": 2})
        with pytest.raises(DocumentError):
            decode_state_document({})
        with pytest.raises(DocumentError):
            decode_state_document([1, 2, 3])

    def test_dense_block_shape_checks(self):
        with pytest.raises(DocumentError, match="missing"):
            decode_state_document({"nqubits": 2, "re": [[1]]})
        with pytest.raises(DocumentError, match="shape"):
            decode_state_document({"nqubits": 2, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]})
        with pytest.raises(DocumentError, match="nqubits"):
            decode_state_document({"nqubits": 5, "re": [], "im": []})

    def test_invalid_dense_state(self):
        doc = dense_doc_of(bell())
        doc["re"][0][0] += 0.5  # breaks the trace
        with pytest.raises(NotAStateError):
            decode_state_document(doc)


class TestEvaluate:
    def test_bell_violation_exits_zero(self, tmp_path, capsys):
        path = write_doc(tmp_path, "bell.json", {"family": "bell", "params": {}})
        assert main(["evaluate", "--state", path, "--measure", "l1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "nqubits: 2" in out
        assert re.search(r"double jk=12: .* violated=yes", out)
        assert re.search(r"triple: .* satisfied=yes", out)

    def test_three_qubit_dispatch(self, tmp_path, capsys):
        path = write_doc(
            tmp_path, "ghz.json", {"family": "ghz_alpha", "params": {"alpha": 0.5}}
        )
        assert main(["evaluate", "--state", path, "--measure", "skew"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "nqubits: 3" in out
        assert "t1:" in out and "t3:" in out

    def test_measure_all_renders_three_blocks(self, tmp_path, capsys):
        path = write_doc(tmp_path, "bell.json", {"family": "bell", "params": {}})
        assert main(["evaluate", "--state", path, "--measure", "all"]) == EXIT_OK
        out = capsys.readouterr().out
        for measure in Measure:
            assert f"measure: {measure.value}" in out

    def test_family_and_dense_agree_exactly(self):
        rho_family = decode_state_document(
            {"family": "pure_alpha", "params": {"alpha": 0.3}}
        )
        rho_dense = decode_state_document(dense_doc_of(pure_alpha(0.3)))
        lines_family = evaluate_lines(rho_family, list(Measure))
        lines_dense = evaluate_lines(rho_dense, list(Measure))
        assert lines_family == lines_dense

    def test_malformed_json_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["evaluate", "--state", str(path)]) == EXIT_PARSE

    def test_missing_file_is_parse_error(self, capsys):
        assert main(["evaluate", "--state", "/nonexistent.json"]) == EXIT_PARSE

    def test_single_qubit_state_is_state_error(self, tmp_path, capsys):
        doc = {"nqubits": 1, "re": [[0.5, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}
        path = write_doc(tmp_path, "one.json", doc)
        assert main(["evaluate", "--state", path]) == EXIT_STATE

    def test_invalid_state_is_state_error(self, tmp_path, capsys):
        doc = dense_doc_of(bell())
        doc["re"][0][0] += 0.5
        path = write_doc(tmp_path, "bad.json", doc)
        assert main(["evaluate", "--state", path]) == EXIT_STATE

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_state_is_state_error(self, tmp_path, capsys, value):
        doc = dense_doc_of(maximally_mixed(2))
        doc["re"][0][0] = value
        path = write_doc(tmp_path, "diagonal.json", doc)
        assert main(["evaluate", "--state", path]) == EXIT_STATE
        doc = dense_doc_of(maximally_mixed(2))
        doc["re"][0][1] = doc["re"][1][0] = value
        path = write_doc(tmp_path, "symmetric.json", doc)
        assert main(["evaluate", "--state", path]) == EXIT_STATE
        assert capsys.readouterr().out == ""

    def test_out_of_range_family_parameter_is_parse_error(self, tmp_path, capsys):
        path = write_doc(
            tmp_path, "bad.json", {"family": "pure_alpha", "params": {"alpha": 1.5}}
        )
        assert main(["evaluate", "--state", path]) == EXIT_PARSE


def run_sweep(tmp_path, name, *args):
    out = tmp_path / name
    code = main(["sweep", *args, "--out", str(out)])
    return code, out


class TestSweep:
    def test_pure_family_csv(self, tmp_path, capsys):
        code, out = run_sweep(
            tmp_path,
            "pure.csv",
            "--family", "pure_alpha",
            "--from", "0", "--to", "1", "--step", "0.01",
            "--measure", "l1",
        )
        assert code == EXIT_OK
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "alpha,S0,S12_half,S012_third,epsilon"
        assert len(lines) == 102
        rows = [list(map(float, line.split(","))) for line in lines[1:]]
        mid = next(r for r in rows if abs(r[0] - 0.5) < 1e-12)
        assert mid[1] == pytest.approx(0.0, abs=1e-10)
        assert mid[2] == pytest.approx(3.0, abs=1e-10)
        assert mid[3] == pytest.approx(2.0, abs=1e-10)
        for row in (rows[0], rows[-1]):
            assert row[1] == pytest.approx(2.0, abs=1e-10)
            assert row[2] == pytest.approx(2.0, abs=1e-10)
            assert row[3] == pytest.approx(2.0, abs=1e-10)
        assert all(r[4] == rows[0][4] for r in rows)
        assert rows[0][4] == pytest.approx(math.sqrt(6.0), abs=1e-14)

    def test_cells_are_full_precision_and_finite(self, tmp_path, capsys):
        code, out = run_sweep(
            tmp_path,
            "w.csv",
            "--family", "werner",
            "--from", "0", "--to", "1", "--step", "0.25",
        )
        assert code == EXIT_OK
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "p,S0,S12_half,S012_third,epsilon"
        for line in lines[1:]:
            for cell in line.split(","):
                assert SCI_NUMBER.match(cell), cell
                assert math.isfinite(float(cell))

    def test_ghz_family_csv(self, tmp_path, capsys):
        code, out = run_sweep(
            tmp_path,
            "ghz.csv",
            "--family", "ghz_alpha",
            "--from", "0", "--to", "1", "--step", "0.1",
        )
        assert code == EXIT_OK
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "alpha,T1,T2,T3,bound_3eps,bound_9eps"
        for line in lines[1:]:
            alpha, t1, t2, t3, b3, b9 = map(float, line.split(","))
            assert t3 == pytest.approx(t1 + t2, abs=1e-12)
            assert b3 == pytest.approx(3 * math.sqrt(6.0), abs=1e-12)
            assert b9 == pytest.approx(9 * math.sqrt(6.0), abs=1e-12)
            assert t3 <= b9 + 1e-9

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = (
            "--family", "pure_alpha",
            "--from", "0", "--to", "1", "--step", "0.05",
            "--measure", "relent",
        )
        _, first = run_sweep(tmp_path, "a.csv", *args)
        _, second = run_sweep(tmp_path, "b.csv", *args)
        assert first.read_bytes() == second.read_bytes()

    def test_bad_step_is_parse_error(self, tmp_path, capsys):
        code, _ = run_sweep(
            tmp_path, "x.csv",
            "--family", "pure_alpha",
            "--from", "0", "--to", "1", "--step", "-0.1",
        )
        assert code == EXIT_PARSE

    def test_unwritable_path_is_error(self, capsys):
        code = main([
            "sweep", "--family", "pure_alpha",
            "--from", "0", "--to", "1", "--step", "0.5",
            "--out", "/nonexistent-dir/x.csv",
        ])
        assert code == EXIT_PARSE


class TestSearch:
    def test_deterministic_output(self, capsys):
        args = [
            "search", "--nqubits", "2", "--criterion", "double12",
            "--samples", "60", "--seed", "7",
        ]
        assert main(args) == EXIT_OK
        first = capsys.readouterr().out
        assert main(args) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second
        assert "max value:" in first
        assert f"bound: {fmt(2 * math.sqrt(6.0))}" in first
        assert "best state r:" in first

    def test_triple_respects_complementarity(self, capsys):
        args = [
            "search", "--nqubits", "2", "--criterion", "triple",
            "--samples", "200", "--seed", "3",
        ]
        assert main(args) == EXIT_OK
        out = capsys.readouterr().out
        value = float(re.search(r"max value: (\S+)", out).group(1))
        assert value <= 3 * math.sqrt(6.0) + 1e-9
        assert "violated: no" in out

    def test_three_qubit_t3(self, capsys):
        args = [
            "search", "--nqubits", "3", "--criterion", "t3",
            "--samples", "40", "--seed", "5", "--measure", "skew",
        ]
        assert main(args) == EXIT_OK
        out = capsys.readouterr().out
        value = float(re.search(r"max value: (\S+)", out).group(1))
        assert value <= 9 * 2.0 + 1e-9

    def test_criterion_must_match_qubit_count(self, capsys):
        code = main([
            "search", "--nqubits", "3", "--criterion", "double12",
            "--samples", "10", "--seed", "1",
        ])
        assert code == EXIT_PARSE

    def test_samples_must_be_positive(self, capsys):
        code = main([
            "search", "--nqubits", "2", "--criterion", "triple",
            "--samples", "0", "--seed", "1",
        ])
        assert code == EXIT_PARSE


class TestCheck:
    @pytest.mark.parametrize(
        "suite",
        [
            "coherence-complementarity",
            "bipartite-complementarity",
            "tripartite-complementarity",
            "no-signalling",
            "mixing-monotonicity",
        ],
    )
    def test_suites_pass_on_small_samples(self, suite, capsys):
        code = main(["check", "--suite", suite, "--seed", "1", "--samples", "150"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "result: PASS" in out
        assert "worst" in out

    def test_default_sample_count_for_coherence_suite(self, capsys):
        code = main(["check", "--suite", "coherence-complementarity", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "samples: 10000" in out

    def test_unknown_suite_is_parse_error(self, capsys):
        assert main(["check", "--suite", "nope"]) == EXIT_PARSE


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        path = write_doc(tmp_path, "bell.json", {"family": "bell", "params": {}})
        proc = subprocess.run(
            [sys.executable, "-m", "naqc", "evaluate", "--state", path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "nqubits: 2" in proc.stdout

    def test_exit_code_constants(self):
        assert (EXIT_OK, EXIT_PARSE, EXIT_STATE, EXIT_CONSISTENCY) == (0, 2, 3, 4)
