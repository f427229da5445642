"""Tests for the command-line front end: documents, sweeps, search, checks."""

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
from hypothesis import given, settings
from hypothesis import strategies as st

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
from naqc.states import bell, maximally_mixed, pure_alpha, random_mixed, random_pure
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
        with ``SeedSequence([seed, K])``: pure at even K, full-rank at odd K."""
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
        else:
            report = steering_report(rho, Measure(measure))
            result = report.triple if criterion == "triple" else dict(report.doubles)[(1, 2)]
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
        validation, no ``DensityMatrix`` and no ``np.array2string``."""
        validated, built, formatted = [], [], []
        validate = qcore._validate
        init = qcore.DensityMatrix.__init__

        def counting_validate(mats, weights=None):
            validated.append(mats.shape)
            validate(mats, weights)

        def counting_init(self, matrix):
            built.append(matrix)
            init(self, matrix)

        for module in (qcore, cli, steering):
            monkeypatch.setattr(module, "_validate", counting_validate)
        monkeypatch.setattr(qcore.DensityMatrix, "__init__", counting_init)
        monkeypatch.setattr(np, "array2string", lambda *a, **k: formatted.append(a))
        monkeypatch.setattr(cli, "CHUNK", 64)
        argv = [
            "search", "--nqubits", "2", "--criterion", "double12",
            "--samples", "150", "--seed", "7",
        ]  # fmt: skip
        assert main(argv) == EXIT_OK
        assert validated == [(64, 4, 4), (64, 4, 4), (22, 4, 4)]
        assert built == [] and formatted == []
        assert capsys.readouterr().out.count("best state ") == 5


# the ends of positional notation: a magnitude below 1e-4 or from 1e8 on,
# or a max/min ratio above 1e3, switches to scientific
NEAR_CUTOFFS = [
    [1e-4, 0.05, 0.0999],
    [np.nextafter(1e-4, 0.0), 0.05, 0.0999],
    [1e-4, 0.1, -0.05],
    [1e-4, np.nextafter(0.1, 1.0), 0.05],
    [0.25, 250.0, -1.0],
    [0.25, np.nextafter(250.0, 300.0), -1.0],
    [np.nextafter(1e8, 0.0), 1e7, 2e5],
    [1e8, 1e7, 2e5],
]
VECTORS = [
    [0.0, 0.0, 0.0],
    [-0.0, 0.0, -0.0],
    [-0.0, 0.5, 0.0],
    [1.0, -1.0, 1.0],
    [-1.0, -1.0, -1.0],
    [1.0, 0.0, -0.0],
    *NEAR_CUTOFFS,
    [1e-5, 1e-100, 0.5],  # exponents of two and three digits
    [-1e-5, 1e-100, 1e100],
    [5e-324, 1e-310, 0.123456789012],  # subnormals print digits beyond their shortest repr
    [0.1234567890125, -0.1234567890135, 0.9999999999995],  # round at the 12th digit
    [0.9999999999999, -0.4999999999999, 1e-13],
    [0.1234567890125, 1.2345678901249e-5, 0.5],
    [1 / 3, -2 / 3, 0.1],
]


class TestVectorStr:
    """``cli._vector_str`` prints exactly what ``np.array2string(x,
    precision=12)`` prints for search's best state."""

    @pytest.mark.parametrize("values", VECTORS)
    def test_known_cases(self, values):
        x = np.array(values, dtype=float)
        assert cli._vector_str(x) == np.array2string(x, precision=12)

    @pytest.mark.parametrize("values", [[0.5, 0.25], [1e-7], [-2.0, 1e-9, 3.0, 0.125]])
    def test_other_lengths(self, values):
        x = np.array(values, dtype=float)
        assert cli._vector_str(x) == np.array2string(x, precision=12)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3))
    @settings(max_examples=2000, derandomize=True, deadline=None)
    def test_any_finite_vector(self, values):
        x = np.array(values, dtype=float)
        assert cli._vector_str(x) == np.array2string(x, precision=12)

    @given(
        st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
        st.lists(st.integers(-6, 1), min_size=3, max_size=3),
    )
    @settings(max_examples=1000, derandomize=True, deadline=None)
    def test_bloch_sized_vectors(self, values, exponents):
        """Entries of r, s and T, at magnitudes around the two cutoffs."""
        x = np.array(values) * 10.0 ** np.array(exponents, dtype=float)
        assert cli._vector_str(x) == np.array2string(x, precision=12)


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

    @pytest.mark.parametrize("suite", ["tripartite-complementarity", "no-signalling"])
    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_must_be_positive(self, suite, samples, capsys):
        code = main(["check", "--suite", suite, "--samples", samples])
        captured = capsys.readouterr()
        assert code == EXIT_PARSE
        assert captured.out == ""
        assert "samples must be at least 1" in captured.err

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

    def test_unknown_suite_is_parse_error(self, capsys):
        assert main(["check", "--suite", "nope"]) == EXIT_PARSE

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
    """A negative master seed fails with numpy's ``SeedSequence`` message,
    and fails at once: cutting a negative int into 32-bit words never ends,
    and its list of words grows without bound. The child gets 30 s and
    1 GiB of address space, so such a loop fails the test quickly."""
    with pytest.raises(ValueError) as numpy_error:
        np.random.SeedSequence([-1, 0])
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
    assert proc.stderr == f"error: {numpy_error.value}\n"


class TestParserReuse:
    """``main`` builds its parser once per process. Commands run one after
    another in one process, a failing parse among them, must print and
    exit exactly as each does in a process of its own."""

    COMMANDS = [
        ["search", "--nqubits", "2", "--criterion", "double12", "--samples", "20", "--seed", "3"],
        ["search", "--nqubits", "2", "--criterion", "triple", "--samples", "x", "--seed", "3"],
        ["check", "--suite", "no-signalling", "--samples", "20", "--seed", "3"],
    ]  # fmt: skip

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_one_process_matches_separate_processes(self, capsys):
        separate = []
        for argv in self.COMMANDS:
            proc = subprocess.run(
                [sys.executable, "-m", "naqc", *argv],
                capture_output=True,
                text=True,
                env=child_env(),
            )
            separate.append((proc.returncode, proc.stdout))
        together = []
        for argv in self.COMMANDS:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            together.append((code, capsys.readouterr().out))
        assert together == separate
        assert [code for code, _ in together] == [EXIT_OK, EXIT_PARSE, EXIT_OK]


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        path = write_doc(tmp_path, "bell.json", {"family": "bell", "params": {}})
        proc = subprocess.run(
            [sys.executable, "-m", "naqc", "evaluate", "--state", path],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert "nqubits: 2" in proc.stdout

    def test_exit_code_constants(self):
        assert (EXIT_OK, EXIT_PARSE, EXIT_STATE, EXIT_CONSISTENCY) == (0, 2, 3, 4)
