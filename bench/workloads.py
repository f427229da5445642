"""The benchmark's workloads: inputs drawn from a seed, one op at a time, and
the checks every op's output must pass.

An op is the unit that is timed and checked:

* ``search-2q``: one ``naqc search --nqubits 2 --criterion double12
  --measure l1`` command over ``SEARCH_BATCH`` states, through
  ``naqc.cli.main``;
* ``check-tripartite``: one ``naqc check --suite tripartite-complementarity``
  command over ``CHECK_BATCH`` states (one Haar-pure, one Ginibre);
* ``scalar-calls``: ``DensityMatrix(matrix)`` and then ``steering_report``
  (two qubits) or ``tripartite_report`` (three qubits) for all three
  measures, on state ``k`` drawn from the seed (``prepare`` draws it before
  the op is timed); 3 of every 4 are two-qubit.

Op ``k`` of a CLI workload passes the master seed ``(seed << 32) + k``, so
each op sees new states. The library is reached through module attributes
at call time, so the tracer's wrappers see every call.

Checks: on ``DEFAULT_SEED`` the first ops are compared with the committed
values in ``reference.json`` to within ``TOL``. On every seed each output
must satisfy the all-states invariants, search's best index is replayed
through the scalar API, and an op that runs again must repeat its first
result.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np

import naqc.cli
import naqc.coherence
import naqc.qcore
import naqc.states
import naqc.steering

DEFAULT_SEED = 0
TOL = 1e-9  # round-off allowed against the reference and between equal values
EXACT_TOL = 1e-12  # regroupings of one sum

SEARCH_BATCH = 32
CHECK_BATCH = 2
SCALAR_GATE = 256  # scalar ops with committed reference values
REFERENCE_OPS = 8  # CLI ops per workload with committed reference values

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def _binary_entropy(p: float) -> float:
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


# the triple-sum bound of each measure, written out independently of naqc
EPSILON = {
    "l1": math.sqrt(6.0),
    "relent": 3.0 * _binary_entropy((1.0 + 1.0 / math.sqrt(3.0)) / 2.0),
    "skew": 2.0,
}
MEASURES = tuple(naqc.coherence.Measure(name) for name in EPSILON)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``naqc.cli.main(argv)`` with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = naqc.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _field(pattern: str, text: str) -> re.Match:
    match = re.search(pattern, text, re.MULTILINE)
    if match is None:
        raise ValueError(f"output has no line matching {pattern!r}")
    return match


def _cli_failure(result) -> str | None:
    code, _out, err = result
    if code != 0:
        return f"exit code {code}: {err.strip()[:200]}"
    return None


def _flag_errors(name: str, res, bound: float) -> list[str]:
    errors = []
    if abs(res.bound - bound) > TOL:
        errors.append(f"{name} bound {res.bound!r} != {bound!r}")
    if abs(res.value - res.bound) > TOL and res.violated != (res.value > res.bound):
        errors.append(f"{name} violated={res.violated} for value {res.value!r}")
    return errors


def steering_errors(report, eps: float) -> list[str]:
    """All-states invariants of one bipartite report."""
    s = [float(x) for x in report.shift.values]
    total = s[0] + s[1] + s[2]
    errors = []
    if min(s) < 0.0 or total > 3.0 * eps + TOL:
        errors.append(f"shifts {s} outside [0, 3 eps]")
    for j, res in enumerate(report.singles):
        if abs(res.value - s[j]) > EXACT_TOL:
            errors.append(f"single {j} value {res.value!r} != s{j}")
        errors += _flag_errors(f"single {j}", res, eps)
    for (j, k), res in report.doubles:
        if abs(res.value - (s[j] + s[k])) > EXACT_TOL:
            errors.append(f"double {j}{k} value {res.value!r} != s{j} + s{k}")
        errors += _flag_errors(f"double {j}{k}", res, 2.0 * eps)
    if abs(report.triple.value - total) > EXACT_TOL or report.triple.violated:
        errors.append(f"triple {report.triple} disagrees with total {total!r}")
    for label, value in report.decompositions:
        if abs(value - total) > EXACT_TOL:
            errors.append(f"decomposition {label} = {value!r} != {total!r}")
    return errors


def tripartite_errors(report, eps: float) -> list[str]:
    """All-states invariants of one tripartite report."""
    t1, t2, t3 = report.t1.value, report.t2.value, report.t3.value
    errors = []
    if abs(t3 - (t1 + t2)) > EXACT_TOL:
        errors.append(f"t3 {t3!r} != t1 + t2 = {t1 + t2!r}")
    if min(t1, t2) < 0.0 or t3 > 9.0 * eps + TOL or report.t3.violated:
        errors.append(f"(t1, t2, t3) = {(t1, t2, t3)} outside [0, 9 eps]")
    errors += _flag_errors("t1", report.t1, 3.0 * eps)
    errors += _flag_errors("t2", report.t2, 6.0 * eps)
    return errors


def _differs(values, expected) -> bool:
    return len(values) != len(expected) or any(
        abs(float(a) - float(b)) > TOL for a, b in zip(values, expected)
    )


class Workload:
    """Seed, reference values and the first result of every op run so far."""

    name = ""
    group = 1  # ops per unit of the call mix; a run's ops end on a multiple

    def __init__(self, seed: int, reference: list | None) -> None:
        self.seed = seed
        self.reference = reference or []
        self.first_results: dict[int, list[float]] = {}

    def prepare(self, k: int) -> None:
        """Make op k's inputs; called before the op is timed."""

    def summary_errors(self, k: int, summary: list[float]) -> list[str]:
        """Errors of an op's summary against its reference and its first run."""
        errors = []
        expected = self.first_results.setdefault(k, summary)
        if _differs(summary, expected):
            errors.append(f"op {k} gave {summary}, its first run gave {expected}")
        if k < len(self.reference) and _differs(summary, self.reference[k]):
            errors.append(f"op {k} gave {summary}, reference is {self.reference[k]}")
        return errors


class CliWorkload(Workload):
    """A workload whose op is one ``naqc`` command over ``batch`` states."""

    batch = 1
    gate_ops = REFERENCE_OPS

    @property
    def states_per_op(self) -> int:
        return self.batch

    def master_seed(self, k: int) -> int:
        return (self.seed << 32) + k

    def argv(self, k: int, samples: int) -> list[str]:
        raise NotImplementedError

    def run(self, k: int):
        return run_cli(self.argv(k, self.batch))

    def errors(self, k: int, result) -> list[str]:
        failure = _cli_failure(result)
        if failure:
            return [failure]
        summary = self.summary(result)
        return self.invariant_errors(k, summary) + self.summary_errors(k, summary)


class Search2q(CliWorkload):
    name = "search-2q"
    batch = SEARCH_BATCH

    def argv(self, k, samples):
        return [
            "search", "--nqubits", "2", "--criterion", "double12", "--measure", "l1",
            "--samples", str(samples), "--seed", str(self.master_seed(k)),
        ]  # fmt: skip

    def summary(self, result) -> list[float]:
        """[max value, best index, bound]."""
        text = result[1]
        return [
            float(_field(r"^max value: (\S+)$", text).group(1)),
            int(_field(r"^best sample: index=(\d+) kind=\w+$", text).group(1)),
            float(_field(r"^bound: (\S+)$", text).group(1)),
        ]

    def invariant_errors(self, k, summary) -> list[str]:
        value, best, bound = summary
        eps = EPSILON["l1"]
        if not 0 <= best < self.batch:
            return [f"best index {best} outside the batch"]
        errors = []
        if abs(bound - 2.0 * eps) > TOL:
            errors.append(f"bound {bound!r} != 2 eps")
        seed = np.random.SeedSequence([self.master_seed(k), best])
        if best % 2 == 0:
            rho = naqc.states.random_pure(2, seed)
        else:
            rho = naqc.states.random_mixed(2, 4, seed)
        report = naqc.steering.steering_report(rho, naqc.coherence.Measure.L1)
        errors += steering_errors(report, eps)
        replayed = dict(report.doubles)[(1, 2)].value
        if abs(replayed - value) > TOL:
            errors.append(f"best index {best} replays to {replayed!r}, not {value!r}")
        return errors


class CheckTripartite(CliWorkload):
    name = "check-tripartite"
    batch = CHECK_BATCH

    def argv(self, k, samples):
        return [
            "check", "--suite", "tripartite-complementarity",
            "--samples", str(samples), "--seed", str(self.master_seed(k)),
        ]  # fmt: skip

    def summary(self, result) -> list[float]:
        """Worst t3 margin per measure, then the worst |t3 - (t1 + t2)|."""
        text = result[1]
        margins = [
            float(_field(rf"^measure {name}: worst margin (\S+)$", text).group(1))
            for name in EPSILON
        ]
        gap = float(_field(r"^worst \|t3 - \(t1 \+ t2\)\|: (\S+)$", text).group(1))
        _field(r"^result: PASS$", text)
        return margins + [gap]

    def invariant_errors(self, k, summary) -> list[str]:
        errors = []
        for (name, eps), margin in zip(EPSILON.items(), summary):
            if not -TOL <= margin <= 9.0 * eps + TOL:
                errors.append(f"{name} margin {margin!r} outside [0, 9 eps]")
        if summary[3] > EXACT_TOL:
            errors.append(f"|t3 - (t1 + t2)| = {summary[3]!r}")
        return errors


def scalar_state(seed: int, i: int) -> np.ndarray:
    """State ``i``: three qubits when i % 4 == 3, else two; Haar-pure and
    full-rank Ginibre alternate in groups of four."""
    rng = np.random.default_rng([seed, i])
    dim = 8 if i % 4 == 3 else 4
    rank = 1 if (i // 4) % 2 == 0 else dim
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


def scalar_op(matrix: np.ndarray) -> list:
    """Validate a state, then report it for all three measures."""
    rho = naqc.qcore.DensityMatrix(matrix)
    if rho.nqubits == 2:
        return [naqc.steering.steering_report(rho, m) for m in MEASURES]
    return [naqc.steering.tripartite_report(rho, m) for m in MEASURES]


class ScalarCalls(Workload):
    name = "scalar-calls"
    group = 4
    gate_ops = SCALAR_GATE
    states_per_op = 1

    def __init__(self, seed: int, reference: list | None) -> None:
        super().__init__(seed, reference)
        self.matrix = None  # op k's state, drawn by prepare(k) before each run

    def prepare(self, k: int) -> None:
        self.matrix = scalar_state(self.seed, k)

    def run(self, k: int):
        return scalar_op(self.matrix)

    @staticmethod
    def summary(reports) -> list[float]:
        """(t1, t2, t3) or (s0, s1, s2) of each measure's report."""
        values = []
        for report in reports:
            if hasattr(report, "t3"):
                values += [report.t1.value, report.t2.value, report.t3.value]
            else:
                values += [float(x) for x in report.shift.values]
        return values

    def errors(self, k: int, reports) -> list[str]:
        errors = []
        for report, eps in zip(reports, EPSILON.values()):
            if k % 4 == 3:
                errors += tripartite_errors(report, eps)
            else:
                errors += steering_errors(report, eps)
        return errors + self.summary_errors(k, self.summary(reports))


WORKLOADS = {cls.name: cls for cls in (Search2q, CheckTripartite, ScalarCalls)}


def load_reference(name: str, seed: int) -> list | None:
    """Committed reference values, used only on the default seed."""
    if seed != DEFAULT_SEED:
        return None
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)[name]


def make(name: str, seed: int):
    return WORKLOADS[name](seed, load_reference(name, seed))


def first_state(name: str, seed: int) -> bool:
    """Evaluate the workload's first state once; True when it succeeded."""
    if name == ScalarCalls.name:
        scalar_op(scalar_state(seed, 0))
        return True
    code, _out, _err = run_cli(WORKLOADS[name](seed, None).argv(0, 1))
    return code == 0
