"""Golden outputs: the library's results are reproducible bit for bit.

``golden.json`` holds, for a fixed seeded set of states (30 random and 10
family two-qubit states, 8 random and 2 GHZ-family three-qubit states),
the exact ``float.hex`` of every value and bound of ``steering_report`` and
``tripartite_report`` under all three measures, with the violation flags;
the SHA-256 of the CSV bytes that ``naqc sweep`` writes for the
``pure_alpha``, ``ghz_alpha`` and ``werner`` families (skew, step 0.01);
and the SHA-256 of the exit code and stdout of every ``naqc check`` suite
and of two ``naqc search`` runs (``CLI_RUNS``). The test recomputes all of
them and requires equality. ``EVALUATE_SHA256`` pins the bytes ``naqc
evaluate`` prints for every golden state under all three measures.

A change that alters any output bit on purpose (reordered floating-point
work, a new generator) is a contract change: regenerate the file with

    PYTHONPATH=src python tests/test_golden.py

and commit it together with the change and the reason in CHANGES.md. Never
regenerate it to make an unintended difference go away. The same run
prints the evaluate digest, for a deliberate change of ``EVALUATE_SHA256``.
"""

import contextlib
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np

from naqc.cli import evaluate_lines, main
from naqc.coherence import Measure
from naqc.states import ghz_alpha, pure_alpha, random_mixed, random_pure, werner
from naqc.steering import steering_report, tripartite_report

GOLDEN = Path(__file__).with_name("golden.json")
SEED = 20240
SWEEPS = ("pure_alpha", "ghz_alpha", "werner")
SUITES = (
    "coherence-complementarity",
    "bipartite-complementarity",
    "tripartite-complementarity",
    "no-signalling",
    "mixing-monotonicity",
)
CLI_RUNS = {
    **{f"check {suite}": ["check", "--suite", suite, "--samples", "300", "--seed", "1"]
       for suite in SUITES},
    "search 2q double12 l1": ["search", "--nqubits", "2", "--criterion", "double12",
                              "--measure", "l1", "--samples", "300", "--seed", "1"],
    "search 3q t1 skew": ["search", "--nqubits", "3", "--criterion", "t1",
                          "--measure", "skew", "--samples", "100", "--seed", "1"],
}  # fmt: skip
EVALUATE_SHA256 = "b902e20dc5ec1410f36b072f3a45fc93d9d31359845f36920ea23d64c0a7fce6"


def random_states(nqubits: int, count: int) -> list:
    """Haar-pure states alternating with Ginibre states of every rank."""
    states = []
    for index in range(count):
        ss = np.random.SeedSequence([SEED, nqubits, index])
        if index % 2 == 0:
            states.append(random_pure(nqubits, ss))
        else:
            states.append(random_mixed(nqubits, 1 + (index // 2) % 2**nqubits, ss))
    return states


def golden_states() -> dict:
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    return {
        2: random_states(2, 30) + [pure_alpha(a) for a in grid] + [werner(p) for p in grid],
        3: random_states(3, 8) + [ghz_alpha(0.5), ghz_alpha(1 / math.sqrt(2))],
    }


def report_record(report) -> str:
    """Every value of a report as exact hex, then its flags as 0/1 digits."""
    if hasattr(report, "shift"):
        results = list(report.singles) + [r for _, r in report.doubles] + [report.triple]
        values = list(report.shift.values) + [v for _, v in report.decompositions]
    else:
        results = [report.t1, report.t2, report.t3]
        values = []
    values += [v for r in results for v in (r.value, r.bound)]
    flags = "".join("1" if r.violated else "0" for r in results)
    return " ".join([float(v).hex() for v in values] + [flags])


def sweep_digest(family: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / f"{family}.csv"
        argv = ["sweep", "--family", family, "--from", "0", "--to", "1",
                "--step", "0.01", "--measure", "skew", "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        return hashlib.sha256(out.read_bytes()).hexdigest()


def cli_digest(argv: list) -> str:
    """SHA-256 of the exit code and the stdout of one command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


def compute() -> dict:
    reports = {}
    for nqubits, states in golden_states().items():
        report = steering_report if nqubits == 2 else tripartite_report
        reports[f"{nqubits}q"] = {
            m.value: [report_record(report(rho, m)) for rho in states] for m in Measure
        }
    return {
        "reports": reports,
        "sweep_sha256": {f: sweep_digest(f) for f in SWEEPS},
        "cli_sha256": {name: cli_digest(argv) for name, argv in CLI_RUNS.items()},
    }


def differences(actual: dict, golden: dict) -> list[str]:
    """One line per report kind and measure that differs, with the largest
    |delta| over its values and its first differing record, then one line
    per sweep or command whose digest differs. A last-bit drift shows as a delta near
    1e-16; a regression as a large one or a flipped flag."""
    lines = []
    for kind, measures in golden["reports"].items():
        for measure, expected in measures.items():
            got = actual["reports"][kind][measure]
            differing = [i for i, (a, b) in enumerate(zip(got, expected)) if a != b]
            if not differing and len(got) == len(expected):
                continue
            delta = max(
                (
                    abs(float.fromhex(a) - float.fromhex(b))
                    for g, e in zip(got, expected)
                    for a, b in zip(g.split()[:-1], e.split()[:-1])
                ),
                default=float("nan"),
            )
            first = differing[0] if differing else min(len(got), len(expected))
            lines.append(
                f"{kind} {measure}: {len(differing)} of {len(expected)} records differ, "
                f"max |delta| = {delta:.3g}; first is record {first}: "
                f"got {got[first] if first < len(got) else None!r}, "
                f"golden {expected[first] if first < len(expected) else None!r}"
            )
    for family, digest in golden["sweep_sha256"].items():
        if actual["sweep_sha256"].get(family) != digest:
            lines.append(f"sweep {family}: CSV digest {actual['sweep_sha256'].get(family)} != {digest}")
    for name, digest in golden["cli_sha256"].items():
        if actual["cli_sha256"].get(name) != digest:
            lines.append(f"{name}: output digest {actual['cli_sha256'].get(name)} != {digest}")
    return lines


def evaluate_digest() -> str:
    """SHA-256 of the lines ``naqc evaluate --measure all`` prints for every
    golden state, two-qubit states first."""
    text = "".join(
        line + "\n"
        for states in golden_states().values()
        for rho in states
        for line in evaluate_lines(rho, list(Measure))
    )
    return hashlib.sha256(text.encode()).hexdigest()


def test_evaluate_output_matches_its_digest():
    assert evaluate_digest() == EVALUATE_SHA256


def test_outputs_match_golden_bit_for_bit():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    lines = differences(compute(), golden)
    assert not lines, "outputs differ from golden.json:\n" + "\n".join(lines)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
    print(f"EVALUATE_SHA256 = {evaluate_digest()!r}")
