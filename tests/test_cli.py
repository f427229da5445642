"""Tests for the command-line front end: documents, sweeps, search, checks."""

import argparse
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import naqc
from naqc import cli, qcore, steering
from naqc.cli import (
    EXIT_CONSISTENCY,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_STATE,
    EXIT_SUITE,
    DocumentError,
    decode_state_document,
    evaluate_lines,
    fmt,
    main,
)
from naqc.coherence import Measure
from naqc.qcore import NotAStateError
from naqc.states import bell, maximally_mixed, pure_alpha, random_mixed, random_pure, to_bloch
from naqc.steering import CRITERIA, steering_report, tripartite_report

SCI_NUMBER = re.compile(r"^-?\d\.\d{14}e[+-]\d{2,3}$")


def child_env() -> dict:
    """The environment for a ``python -m naqc`` child process, with this
    checkout's ``src`` first on its path and every warning an error."""
    src = str(Path(naqc.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    return {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([src, path]) if path else src,
        "PYTHONWARNINGS": "error",
    }


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

    @pytest.mark.parametrize("nqubits", [2.0, True, 1.0, "2"])
    def test_non_integer_nqubits_is_parse_error(self, tmp_path, capsys, nqubits):
        doc = dense_doc_of(bell())
        doc["nqubits"] = nqubits
        with pytest.raises(DocumentError, match="nqubits"):
            decode_state_document(doc)
        path = write_doc(tmp_path, "d.json", doc)
        assert main(["evaluate", "--state", path]) == EXIT_PARSE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "key, doc",
        [
            ("re", {"nqubits": 2, "re": [["0.25", 0, 0, 0], [0, 0.25, 0, 0],
                                         [0, 0, 0.25, 0], [0, 0, 0, 0.25]],
                    "im": [[0] * 4] * 4}),
            ("re", {"nqubits": 1, "re": [[True, 0], [0, 0]], "im": [[0, 0], [0, 0]]}),
            ("im", {"nqubits": 1, "re": [[1, 0], [0, 0]], "im": [[0, False], [0, 0]]}),
            ("re", {"nqubits": 1, "re": [[1, 10**400], [0, 0]], "im": [[0, 0], [0, 0]]}),
            ("p", {"family": "werner", "params": {"p": True}}),
            ("alpha", {"family": "pure_alpha", "params": {"alpha": "0.5"}}),
            ("alpha", {"family": "pure_alpha", "params": {"alpha": [0.5]}}),
            ("alpha", {"family": "ghz_alpha", "params": {"alpha": None}}),
            ("r", {"family": "general_bloch",
                   "params": {"r": ["0", 0, 0], "s": [0, 0, 0], "T": [[0] * 3] * 3}}),
            ("s", {"family": "general_bloch",
                   "params": {"r": [0, 0, 0], "s": [0, False, 0], "T": [[0] * 3] * 3}}),
            ("T", {"family": "general_bloch",
                   "params": {"r": [0, 0, 0], "s": [0, 0, 0],
                              "T": [[True, 0, 0], [0, -1, 0], [0, 0, 1]]}}),
        ],
    )  # fmt: skip
    def test_non_number_entries_are_parse_errors(self, tmp_path, capsys, key, doc):
        """Strings, booleans and nulls are not read as numbers, nor are ints
        a float cannot hold; read as numbers, each of these documents would
        evaluate or crash. The error names the key."""
        path = write_doc(tmp_path, "d.json", doc)
        assert main(["evaluate", "--state", path]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.search(rf"\b{key}\b", captured.err)

    @pytest.mark.parametrize(
        "key, doc",
        [
            ("param", {"family": "bell", "param": {"x": 1}}),
            ("param", {"family": "werner", "param": {"p": 0.5}}),
            ("measure", {"family": "pure_alpha", "params": {"alpha": 0.5}, "measure": "skew"}),
            ("comment", {**dense_doc_of(bell()), "comment": "the Bell state"}),
            ("famly", {"famly": "bell"}),
        ],
    )
    def test_keys_outside_the_block_are_parse_errors(self, tmp_path, capsys, key, doc):
        """A misspelled or extra key is refused and named, not dropped."""
        path = write_doc(tmp_path, "d.json", doc)
        assert main(["evaluate", "--state", path]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{key!r}" in captured.err

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
        assert re.search(r"double12: .* violated=yes", out)
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

    @pytest.mark.parametrize("depth", [990, 100_000])
    def test_deeply_nested_document_is_parse_error(self, tmp_path, capsys, depth):
        path = tmp_path / "deep.json"
        path.write_text(
            '{"nqubits": 2, "re": ' + "[" * depth + "]" * depth + ', "im": []}',
            encoding="utf-8",
        )
        assert main(["evaluate", "--state", str(path)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: state document is nested too deeply\n"

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

    @pytest.mark.parametrize(
        "doc",
        [
            {"nqubits": 2, "re": [[0.5, 1e200, 0, 0], [1e200, 0.5, 0, 0], [0] * 4, [0] * 4],
             "im": [[0, 1e200, 0, 0], [-1e200, 0, 0, 0], [0] * 4, [0] * 4]},
            {"nqubits": 2, "re": (np.eye(4) / 4).tolist(),
             "im": np.diag([math.inf, 0, 0, 0]).tolist()},
            {"family": "general_bloch",
             "params": {"r": [1e200, 0, 0], "s": [0, 0, 0], "T": np.zeros((3, 3)).tolist()}},
        ],
        ids=["1e200-block", "infinite-imaginary-part", "general-bloch-1e200"],
    )  # fmt: skip
    def test_numbers_no_state_holds_are_one_line_state_errors(self, tmp_path, capsys, doc):
        """pytest makes any warning an exception, so none comes before the error."""
        path = write_doc(tmp_path, "large.json", doc)
        assert main(["evaluate", "--state", path]) == EXIT_STATE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: invalid state: .*\n", captured.err)

    def test_out_of_range_family_parameter_is_parse_error(self, tmp_path, capsys):
        path = write_doc(
            tmp_path, "bad.json", {"family": "pure_alpha", "params": {"alpha": 1.5}}
        )
        assert main(["evaluate", "--state", path]) == EXIT_PARSE

    @pytest.mark.parametrize("defect", ["eigenvalue", "hermiticity"])
    def test_low_probability_branches_of_an_accepted_state(self, tmp_path, capsys, defect):
        """Charlie finds the AB state on |00> and |01> with p ~ 1e-8, and
        dividing by p scales the slack the state was accepted with by 1 / p:
        an eigenvalue of -5e-11, or |M - M^dag| = 8e-11. The state is still
        evaluated."""
        if defect == "eigenvalue":
            matrix = np.diag([1 - 1e-8 + 5e-11, 1e-8, 0, -5e-11, 0, 0, 0, 0])
        else:
            matrix = np.diag([1 - 1e-8, 1e-8, 0, 0, 0, 0, 0, 0]).astype(complex)
            matrix[1, 3] = matrix[3, 1] = 4e-11j
        doc = {"nqubits": 3, "re": matrix.real.tolist(), "im": matrix.imag.tolist()}
        path = write_doc(tmp_path, "low.json", doc)
        assert main(["evaluate", "--state", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("t3: ") == 3

    @pytest.mark.parametrize("nqubits", [2, 3])
    def test_low_probability_diagonal_states_every_measure(self, tmp_path, capsys, nqubits):
        """Alice's (two qubits) or Charlie's (three) outcome z = 1 has
        p ~ 1e-8 and holds the eigenvalue -5e-11: a branch of Bloch vector
        about 1.01 long on two qubits, and of an AB state of eigenvalue
        -5e-3 on three."""
        if nqubits == 2:
            matrix = np.diag([1 - 1e-8 + 5e-11, 0, 1e-8, -5e-11])
        else:
            matrix = np.diag([1 - 1e-8 + 5e-11, 1e-8, 0, -5e-11, 0, 0, 0, 0])
        doc = {"nqubits": nqubits, "re": matrix.tolist(), "im": np.zeros_like(matrix).tolist()}
        path = write_doc(tmp_path, "low.json", doc)
        assert main(["evaluate", "--state", path, "--measure", "all"]) == EXIT_OK
        assert capsys.readouterr().out.count("t3: " if nqubits == 3 else "triple: ") == 3

    def test_t3_at_the_eigenvalue_floor(self, tmp_path, capsys):
        """The lowest eigenvalue -1e-10 puts skew's t3 1.8e-9 above 18, the
        weighted excesses of its 36 branches, within t3's derived tolerance."""
        matrix = np.diag([1 - 1e-8 + 1e-10, 1e-8, 0, -1e-10, 0, 0, 0, 0])
        doc = {"nqubits": 3, "re": matrix.tolist(), "im": np.zeros_like(matrix).tolist()}
        path = write_doc(tmp_path, "floor.json", doc)
        assert main(["evaluate", "--state", path, "--measure", "all"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("t3: ") == 3
        assert "t3: value=1.80000000018000e+01 bound=1.80000000000000e+01" in out

    def test_a_separable_state_above_its_bound_by_the_slack_is_not_flagged(
        self, tmp_path, capsys
    ):
        """The diagonal, so separable, state of the eigenvalue -5e-11: skew's
        t1 and t2 pass their bounds by 3e-10 and 6e-10, which the accepted
        slack allows, so neither may certify steering."""
        matrix = np.diag([1 - 1e-8 + 5e-11, 1e-8, 0, -5e-11, 0, 0, 0, 0])
        doc = {"nqubits": 3, "re": matrix.tolist(), "im": np.zeros_like(matrix).tolist()}
        path = write_doc(tmp_path, "separable.json", doc)
        assert main(["evaluate", "--state", path, "--measure", "skew"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "t1: value=6.00000000030000e+00 bound=6.00000000000000e+00 violated=no" in out
        assert "t2: value=1.20000000006000e+01 bound=1.20000000000000e+01 violated=no" in out


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

    @pytest.mark.parametrize(
        "bounds",
        [
            ("0", "inf", "0.5"),
            ("-inf", "1", "0.5"),
            ("0", "1", "inf"),
            ("0", "nan", "0.5"),
            ("nan", "1", "0.5"),
            ("0", "1", "nan"),
            ("0", "1", "1e-320"),  # finite, but 1 / step points overflow
        ],
    )
    def test_non_finite_bounds_are_parse_errors(self, tmp_path, capsys, bounds):
        start, stop, step = bounds
        code, out = run_sweep(
            tmp_path, "x.csv",
            "--family", "pure_alpha",
            f"--from={start}", f"--to={stop}", f"--step={step}",
        )
        assert code == EXIT_PARSE
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_range_parameter_writes_no_file(self, tmp_path, capsys):
        code, out = run_sweep(
            tmp_path, "x.csv",
            "--family", "werner",
            "--from", "0", "--to", "2", "--step", "0.5",
        )  # fmt: skip
        assert code == EXIT_PARSE
        assert "must lie in [0, 1], got 2.0" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_points_are_made_when_asked_for(self):
        """A billion points take no memory until they are asked for; point k
        is min(start + k * step, stop)."""
        tracemalloc.start()
        try:
            count, point = cli._sweep_grid(0.0, 1.0, 1e-9)
            points = [point(k) for k in (0, 5, 6, count - 1)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 1_000_000_001
        assert points == [0.0, 5 * 1e-9, 6 * 1e-9, 1.0]
        assert peak < 2**20

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

    @pytest.mark.parametrize(
        "nqubits, criterion, measure, seed",
        [(2, "double12", "l1", 7), (2, "triple", "skew", 2**64 + 5), (3, "t1", "relent", 2**40)],
    )
    def test_best_sample_replays_from_its_seed_sequence(
        self, capsys, nqubits, criterion, measure, seed
    ):
        """The printed best sample is state K of the public samplers seeded
        with ``SeedSequence([seed, K])``: pure at even K, full-rank at odd K.
        On two qubits the best-state rows are the ``fmt`` words of its
        ``to_bloch`` (r, s, T), and every word parses as a float."""
        args = [
            "search", "--nqubits", str(nqubits), "--criterion", criterion,
            "--measure", measure, "--samples", "40", "--seed", str(seed),
        ]  # fmt: skip
        assert main(args) == EXIT_OK
        out = capsys.readouterr().out
        index = int(re.search(r"^best sample: index=(\d+) ", out, re.M).group(1))
        assert f"reproduce with: numpy SeedSequence([{seed}, {index}])" in out
        ss = np.random.SeedSequence([seed, index])
        if index % 2 == 0:
            rho = random_pure(nqubits, ss)
        else:
            rho = random_mixed(nqubits, 2**nqubits, ss)
        if nqubits == 3:
            result = getattr(tripartite_report(rho, Measure(measure)), criterion)
            assert "best state" not in out
        else:
            report = steering_report(rho, Measure(measure))
            result = report.triple if criterion == "triple" else dict(report.doubles)[(1, 2)]
            bloch = to_bloch(rho)
            rows = [("r", bloch.r), ("s", bloch.s)]
            rows += [(f"T[{i}]", row) for i, row in enumerate(bloch.T)]
            printed = re.findall(r"^best state (\S+): (.*)$", out, re.M)
            assert printed == [(label, " ".join(map(fmt, row))) for label, row in rows]
            for _, words in printed:
                assert len([float(word) for word in words.split(" ")]) == 3
        violated = "yes" if result.violated else "no"
        assert (
            f"\nmax value: {fmt(result.value)}\nbound: {fmt(result.bound)}\n"
            f"violated: {violated}\n"
        ) in out

    @pytest.mark.parametrize("nqubits", [2, 3])
    def test_search_accepts_exactly_the_table_criteria(self, capsys, nqubits):
        names = [*CRITERIA[2], *CRITERIA[3], "single3", "double21", "t0", "t4", "total"]
        for name in names:
            code = main([
                "search", "--nqubits", str(nqubits), "--criterion", name,
                "--samples", "3", "--seed", "1",
            ])  # fmt: skip
            assert (code == EXIT_OK) == (name in CRITERIA[nqubits]), name
        assert capsys.readouterr().err.count("is not valid for") == len(names) - len(
            CRITERIA[nqubits]
        )

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

    def test_each_chunk_is_validated_once_and_nothing_after(self, monkeypatch, capsys):
        """The best state is printed from its validated chunk: no second
        validation and no ``DensityMatrix``."""
        validated, built = [], []
        validate = qcore._validate
        init = qcore.DensityMatrix.__init__

        def counting_validate(mats):
            validated.append(mats.shape)
            validate(mats)

        def counting_init(self, matrix):
            built.append(matrix)
            init(self, matrix)

        for module in (qcore, cli, steering):
            monkeypatch.setattr(module, "_validate", counting_validate, raising=False)
        monkeypatch.setattr(qcore.DensityMatrix, "__init__", counting_init)
        monkeypatch.setattr(cli, "CHUNK", 64)
        argv = [
            "search", "--nqubits", "2", "--criterion", "double12",
            "--samples", "150", "--seed", "7",
        ]  # fmt: skip
        assert main(argv) == EXIT_OK
        assert validated == [(64, 4, 4), (64, 4, 4), (22, 4, 4)]
        assert built == []
        assert capsys.readouterr().out.count("best state ") == 5


class TestCheck:
    def test_default_sample_count_for_coherence_suite(self, capsys):
        code = main(["check", "--suite", "coherence-complementarity", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "samples: 10000" in out

    @pytest.mark.parametrize("suite", ["tripartite-complementarity", "no-signalling"])
    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_must_be_positive(self, suite, samples, capsys):
        code = main(["check", "--suite", suite, "--samples", samples])
        captured = capsys.readouterr()
        assert code == EXIT_PARSE
        assert captured.out == ""
        assert "samples must be at least 1" in captured.err

    def test_seed_must_be_non_negative(self, capsys):
        """The coherence suite seeds numpy's ``default_rng`` directly, not
        the CLI's samplers (``test_a_negative_seed_is_a_parse_error``); it
        names the flag all the same."""
        suite = "coherence-complementarity"
        code = main(["check", "--suite", suite, "--seed", "-5", "--samples", "3"])
        captured = capsys.readouterr()
        assert code == EXIT_PARSE
        assert captured.out == ""
        assert "error: seed must be a non-negative integer, got -5" in captured.err

    def test_tripartite_check_compares_t3_with_the_shift_totals(self, monkeypatch, capsys):
        """t3 is held to Charlie's outcomes weighting the AB shift totals, a
        sum ``_tripartite`` does not add: t1 and t3 moved together by 1e-9,
        so that t3 = t1 + t2 still holds, fail the suite. The suite scores
        all three measures in one call, so the shift reaches each of them."""
        argv = ["check", "--suite", "tripartite-complementarity", "--samples", "20"]
        assert main(argv) == EXIT_OK
        gap = re.search(r"^worst \|t3 - \(t1 \+ t2\)\|: (\S+)$", capsys.readouterr().out, re.M)
        assert 0.0 <= float(gap.group(1)) <= 1e-12
        tripartite = cli._tripartite

        def shifted(cond, measures, shifts):
            assert measures == tuple(Measure)
            t = tripartite(cond, measures, shifts)
            assert t.shape[0] == len(measures)
            t[..., [0, 2]] += 1e-9
            return t

        monkeypatch.setattr(cli, "_tripartite", shifted)
        assert main(argv) == EXIT_SUITE
        out = capsys.readouterr().out
        gap = re.search(r"^worst \|t3 - \(t1 \+ t2\)\|: (\S+)$", out, re.M)
        assert float(gap.group(1)) == pytest.approx(1e-9, rel=1e-3)
        assert "result: FAIL" in out

    @pytest.mark.parametrize("seed", [0, 7, 2**64 + 5])
    def test_mixing_weights_are_not_drawn_by_sample_zeros_generator(self, seed, monkeypatch):
        """The mixing suite's weights come in order from
        ``SeedSequence(seed).spawn(1)[0]``, not from ``default_rng(seed)``,
        which is sample 0's generator. They are read back from the
        (first, second, mixed, white-noise mixed) stacks the suite conditions."""
        sample_zero, weights = np.random.default_rng(seed), []
        first_sample = cli._generators(seed, range(1))[0]
        assert sample_zero.bit_generator.state == first_sample.bit_generator.state

        def spied(mats, condition=cli._condition):
            first, second, mixed, _ = mats
            d = first - second
            dot = np.sum((mixed - second) * d.conj(), axis=(1, 2)).real
            weights.extend(dot / np.sum(abs(d) ** 2, axis=(1, 2)))
            return condition(mats)

        monkeypatch.setattr(cli, "_condition", spied)
        argv = ["check", "--suite", "mixing-monotonicity", "--samples", "20", "--seed", str(seed)]
        assert main(argv) == EXIT_OK
        own = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0]).uniform(size=20)
        assert np.allclose(weights, own, rtol=0.0, atol=1e-12)
        assert np.min(np.abs(weights - sample_zero.uniform(size=20))) > 1e-6

    def test_mixing_check_compares_white_noise_mixes_with_scaled_shifts(self, monkeypatch, capsys):
        """Mixing a state with I/4 scales each branch's p b by the weight, so
        the l1 shifts are linear in it: shifts made concave (``s ** 0.9``)
        stay convex enough on random pairs but fail the white-noise mixes."""
        argv = ["check", "--suite", "mixing-monotonicity", "--samples", "20"]
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        shifts = cli._shifts

        def concave(cond, measures):
            s, total = shifts(cond, measures)
            return s**0.9, total

        monkeypatch.setattr(cli, "_shifts", concave)
        assert main(argv) == EXIT_SUITE
        out = capsys.readouterr().out
        assert float(re.search(r"^worst convexity margin .*: (\S+)$", out, re.M).group(1)) > 0.0
        assert float(re.search(r"^worst white-noise margin .*: (\S+)$", out, re.M).group(1)) < -0.05
        assert "result: FAIL" in out

    def test_unknown_suite_is_parse_error(self, capsys):
        with pytest.raises(SystemExit, match=f"^{EXIT_PARSE}$"):
            main(["check", "--suite", "nope"])
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("naqc check: error: argument --suite: invalid choice: 'nope'")
        assert all(name in last for name in cli.SUITES)

    def test_help_names_every_suite(self, capsys):
        with pytest.raises(SystemExit, match=f"^{EXIT_OK}$"):
            main(["check", "-h"])
        out = capsys.readouterr().out
        assert all(name in out for name in cli.SUITES)

    @pytest.mark.parametrize("poison", [np.nan, 1.5])
    def test_coherence_suite_rejects_an_invalid_draw(self, poison, monkeypatch, capsys):
        draw = cli.random_bloch_qubit_vector
        count = iter(range(100))

        def poisoned(rng):
            r = draw(rng)
            return np.array([poison, 0.0, 0.0]) if next(count) == 5 else r

        monkeypatch.setattr(cli, "random_bloch_qubit_vector", poisoned)
        code = main(["check", "--suite", "coherence-complementarity", "--samples", "20"])
        assert code == EXIT_STATE
        assert "Bloch vector norm" in capsys.readouterr().err

    def test_a_nan_residual_fails_the_no_signalling_suite(self, monkeypatch, capsys):
        """A NaN in one Bloch component of one branch, past the conditioning's
        guards, stays in the running maximum: the suite prints nan and fails."""
        condition = cli._condition

        def poisoned(matrices):
            cond = condition(matrices)
            bloch = cond.bloch.copy()
            bloch[3, 1, 0, 2] = np.nan
            return cond._replace(bloch=bloch)

        monkeypatch.setattr(cli, "_condition", poisoned)
        assert main(["check", "--suite", "no-signalling", "--samples", "20"]) == EXIT_SUITE
        out = capsys.readouterr().out
        assert "worst reconstruction residual: nan\n" in out
        assert "result: FAIL" in out

    def test_a_nan_spread_fails_the_bipartite_suite(self, monkeypatch, capsys):
        """A NaN in one decomposition spread stays in the running maximum."""
        totals, name = cli._COMPLEMENTARITY[2]

        def poisoned(*args):
            for total, spread in totals(*args):
                spread = spread.copy()
                spread.flat[3] = np.nan
                yield total, spread

        monkeypatch.setitem(cli._COMPLEMENTARITY, 2, (poisoned, name))
        argv = ["check", "--suite", "bipartite-complementarity", "--samples", "20"]
        assert main(argv) == EXIT_SUITE
        out = capsys.readouterr().out
        assert "worst decomposition spread: nan\n" in out
        assert "result: FAIL" in out


SAMPLING_COMMANDS = [
    ["search", "--nqubits", "2", "--criterion", "double12", "--samples", "20"],
    ["search", "--nqubits", "3", "--criterion", "t1", "--samples", "20"],
    ["check", "--suite", "bipartite-complementarity", "--samples", "20"],
    ["check", "--suite", "tripartite-complementarity", "--samples", "20"],
    ["check", "--suite", "no-signalling", "--samples", "20"],
    ["check", "--suite", "mixing-monotonicity", "--samples", "20"],
]  # fmt: skip


@pytest.mark.parametrize("poison, message", [("nan", "nan"), ("not PSD", "negative eigenvalue")])
@pytest.mark.parametrize("argv", SAMPLING_COMMANDS, ids=lambda argv: "-".join(argv[:4]))
def test_an_invalid_draw_is_rejected(argv, poison, message, monkeypatch, capsys):
    """The stacked check of each chunk of draws turns one bad draw into
    exit 3 before any of the chunk is evaluated."""
    draw = cli._random_states

    def poisoned(nqubits, seeds, rank=None):
        mats = draw(nqubits, seeds, rank)
        if rank is not None and len(mats):
            k = len(mats) // 2
            if poison == "nan":
                mats[k, 1, 1] = np.nan
            else:  # Hermitian with unit trace and the eigenvalue -0.5
                mats[k] = np.diag([1.5, -0.5] + [0.0] * (mats.shape[-1] - 2))
        return mats

    monkeypatch.setattr(cli, "_random_states", poisoned)
    assert main(argv + ["--seed", "2"]) == EXIT_STATE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid state" in captured.err and message in captured.err


@pytest.mark.parametrize("argv", SAMPLING_COMMANDS, ids=lambda argv: "-".join(argv[:4]))
def test_a_negative_seed_is_a_parse_error(argv):
    """A negative master seed fails with a message that names the flag, and
    fails at once: cutting a negative int into 32-bit words never ends,
    and its list of words grows without bound. The child gets 30 s and
    1 GiB of address space, so such a loop fails the test quickly."""
    proc = subprocess.run(
        [sys.executable, "-m", "naqc", *argv, "--seed", "-1"],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=30,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
    )
    assert proc.returncode == EXIT_PARSE
    assert proc.stdout == ""
    assert proc.stderr == "error: seed must be a non-negative integer, got -1\n"


@pytest.mark.parametrize(
    "argv, count",
    [
        (["search", "--nqubits", "2", "--criterion", "double12", "--seed", "1",
          "--samples", "99999999999999999999"], "99999999999999999999"),
        (["check", "--suite", "no-signalling", "--samples", "99999999999999999999"],
         "99999999999999999999"),
        (["sweep", "--family", "werner", "--from", "0", "--to", "1", "--step", "1e-300"],
         "1.0000000000009999e+300 points"),
    ],
    ids=["search", "check", "sweep"],
)  # fmt: skip
def test_a_count_past_the_largest_range_is_a_parse_error(argv, count, tmp_path, capsys):
    """A sample or point count above ``sys.maxsize``, which no ``range`` can
    hold, exits 2 with the count named, before any file is opened."""
    out = tmp_path / "kept.csv"
    out.write_bytes(b"alpha,S0\n1,2\n")
    if argv[0] == "sweep":
        argv = argv + ["--out", str(out)]
    assert main(argv) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"must be at most {sys.maxsize}, got {count}" in captured.err
    assert out.read_bytes() == b"alpha,S0\n1,2\n"


class TestParserReuse:
    """``main`` builds its parser once per process and parses each command
    in one pass of that command's own parser; an argv that names no command
    goes to the top parser. Commands run one after another in one process,
    failing parses and help among them, must print and exit exactly as each
    does in a process of its own."""

    # argvs whose parse fails or prints help: main must print and exit as
    # the top parser's full pass over the whole argv does
    ROUTES = [
        ["search", "--nqubits", "2", "--criterion", "triple", "--samples", "x", "--seed", "3"],
        [], ["bogus"], ["-h"], ["search", "-h"],
    ]  # fmt: skip

    COMMANDS = [
        ["search", "--nqubits", "2", "--criterion", "double12", "--samples", "20", "--seed", "3"],
        ["check", "--suite", "no-signalling", "--samples", "20", "--seed", "3"],
        *ROUTES,
    ]  # fmt: skip

    @staticmethod
    def _run(parse, argv, capsys) -> tuple:
        try:
            code = parse(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_one_process_matches_separate_processes(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # help's wrap width, here and in the children
        separate = []
        for argv in self.COMMANDS:
            proc = subprocess.run(
                [sys.executable, "-m", "naqc", *argv],
                capture_output=True,
                text=True,
                env=child_env(),
                timeout=30,
            )
            separate.append((proc.returncode, proc.stdout, proc.stderr))
        together = [self._run(main, argv, capsys) for argv in self.COMMANDS]
        assert together == separate
        assert [code for code, _, _ in together] == [
            EXIT_OK, EXIT_OK, EXIT_PARSE, EXIT_PARSE, EXIT_PARSE, EXIT_OK, EXIT_OK,
        ]  # fmt: skip

    @pytest.mark.parametrize("argv", ROUTES, ids=repr)
    def test_routes_print_as_the_top_parsers_pass(self, argv, capsys):
        full_pass = self._run(cli.build_parser().parse_args, argv, capsys)
        assert self._run(main, argv, capsys) == full_pass

    def test_each_command_is_parsed_once_by_its_own_parser(self, tmp_path, monkeypatch):
        bell_path = write_doc(tmp_path, "bell.json", {"family": "bell", "params": {}})
        out = str(tmp_path / "werner.csv")
        argvs = [
            ["evaluate", "--state", bell_path, "--measure", "l1"],
            ["sweep", "--family", "werner", "--from", "0", "--to", "1", "--step", "0.5", "--out", out],
            ["search", "--nqubits", "2", "--criterion", "double12", "--samples", "4", "--seed", "3"],
            ["check", "--suite", "no-signalling", "--samples", "4", "--seed", "3"],
        ]  # fmt: skip
        parse_known_args = argparse.ArgumentParser.parse_known_args
        progs = []

        def counted(self, *args, **kwargs):
            progs.append(self.prog)
            return parse_known_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        for argv in argvs:
            progs.clear()
            assert main(argv) == EXIT_OK
            assert progs == [f"naqc {argv[0]}"]

    def test_unrecognized_argument_is_reported_by_the_command_parser(self, capsys):
        argv = ["check", "--suite", "no-signalling", "--samples", "5", "extra"]
        code, out, err = self._run(main, argv, capsys)
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith("usage: naqc check ")
        assert err.splitlines()[-1] == "naqc check: error: unrecognized arguments: extra"


@pytest.mark.parametrize("command", ["evaluate", "search", "check"])
def test_a_report_is_one_write(command, tmp_path, monkeypatch):
    """evaluate, search and check hand their whole report, each line ending
    in a newline, to one write of stdout: a reader that closes the pipe
    after the first lines leaves no later write of the report to fail."""
    argv = {
        "evaluate": ["evaluate", "--state", write_doc(tmp_path, "bell.json", {"family": "bell"})],
        "search": ["search", "--nqubits", "2", "--criterion", "triple", "--samples", "4",
                   "--seed", "3"],
        "check": ["check", "--suite", "no-signalling", "--samples", "4", "--seed", "3"],
    }[command]  # fmt: skip
    writes = []

    class Recording(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    monkeypatch.setattr(sys, "stdout", Recording())
    assert main(argv) == EXIT_OK
    assert len(writes) == 1
    assert writes[0].endswith("\n") and writes[0].count("\n") >= 5


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        path = write_doc(tmp_path, "bell.json", {"family": "bell", "params": {}})
        proc = subprocess.run(
            [sys.executable, "-m", "naqc", "evaluate", "--state", path],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=30,
        )
        assert proc.returncode == 0
        assert "nqubits: 2" in proc.stdout

    def test_import_and_evaluate_leave_numpy_random_unimported(self, tmp_path):
        """Importing ``numpy.random`` takes about 20 ms, which only sampling
        needs: a fresh process that imports naqc and evaluates a family
        document never imports it."""
        doc = {"family": "ghz_alpha", "params": {"alpha": 0.3}}
        path = write_doc(tmp_path, "ghz.json", doc)
        script = (
            "import sys\n"
            "import naqc\n"
            "assert 'numpy.random' not in sys.modules, 'import naqc'\n"
            "from naqc.cli import main\n"
            f"code = main(['evaluate', '--state', {path!r}])\n"
            "assert 'numpy.random' not in sys.modules, 'naqc evaluate'\n"
            "sys.exit(code)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=30,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "t3: " in proc.stdout

    def test_exit_code_constants(self):
        assert (EXIT_OK, EXIT_PARSE, EXIT_STATE, EXIT_CONSISTENCY) == (0, 2, 3, 4)
