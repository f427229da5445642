"""Command-line front end.

Subcommands: ``evaluate`` a state document, ``sweep`` a family into a CSV,
``search`` random states for maximal criterion values, and ``check`` the
Monte-Carlo property suites. Violations are results, not errors: evaluate
exits 0 either way. Exit codes: 0 success, 2 parse or argument error,
3 invalid state, 4 internal consistency breach, 5 suite failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .coherence import Measure, coherence_triple
from .qcore import (
    BlochQubit,
    ConsistencyError,
    DensityMatrix,
    NotAStateError,
    _bloch_vector,
)
from .states import (
    from_family,
    random_bloch_qubit_vector,
    random_mixed,
    random_pure,
    to_bloch,
)
from .steering import (
    DOUBLE_PAIRS,
    SteeringReport,
    TripartiteReport,
    conditional_states,
    shift_values,
    steering_report,
    tripartite_report,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_STATE = 3
EXIT_CONSISTENCY = 4
EXIT_SUITE = 5

MEASURE_CHOICES = ("l1", "relent", "skew")

SEARCH_CRITERIA = {
    2: ("single0", "single1", "single2", "double01", "double02", "double12", "triple"),
    3: ("t1", "t2", "t3"),
}

SUITE_SAMPLES = {
    "coherence-complementarity": 10_000,
    "bipartite-complementarity": 10_000,
    "tripartite-complementarity": 1_000,
    "no-signalling": 1_000,
    "mixing-monotonicity": 1_000,
}


class DocumentError(ValueError):
    """The state document is malformed."""


def fmt(x: float) -> str:
    """Fixed 15-significant-digit scientific notation, round-trip safe."""
    return f"{float(x):.14e}"


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def decode_state_document(doc) -> DensityMatrix:
    """Decode a JSON state document: a dense matrix block or a family block."""
    if not isinstance(doc, dict):
        raise DocumentError("state document must be a JSON object")
    dense_keys = {"nqubits", "re", "im"} & doc.keys()
    family_keys = {"family", "params"} & doc.keys()
    if bool(dense_keys) == bool(family_keys):
        raise DocumentError(
            "state document must contain exactly one of a dense block "
            "{nqubits, re, im} or a family block {family, params}"
        )
    if dense_keys:
        missing = {"nqubits", "re", "im"} - doc.keys()
        if missing:
            raise DocumentError(f"dense block is missing keys {sorted(missing)}")
        nqubits = doc["nqubits"]
        if nqubits not in (1, 2, 3):
            raise DocumentError(f"nqubits must be 1, 2 or 3, got {nqubits!r}")
        dim = 2 ** nqubits
        try:
            re = np.asarray(doc["re"], dtype=float)
            im = np.asarray(doc["im"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise DocumentError(f"re/im blocks are not numeric arrays: {exc}") from exc
        if re.shape != (dim, dim) or im.shape != (dim, dim):
            raise DocumentError(
                f"re and im must both have shape ({dim}, {dim}), "
                f"got {re.shape} and {im.shape}"
            )
        if not (np.isfinite(re).all() and np.isfinite(im).all()):
            raise NotAStateError("re/im blocks have non-finite entries")
        return DensityMatrix(re + 1j * im)
    family = doc.get("family")
    if not isinstance(family, str):
        raise DocumentError("family block needs a string 'family' name")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise DocumentError("'params' must be an object")
    return from_family(family, params)


def load_state_document(path: str) -> DensityMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return decode_state_document(doc)


def _measures(selector: str) -> list[Measure]:
    if selector == "all":
        return [Measure.L1, Measure.RELATIVE_ENTROPY, Measure.SKEW_INFORMATION]
    return [Measure(selector)]


def render_steering_report(report: SteeringReport) -> list[str]:
    eps = report.measure.epsilon
    s = report.shift.values
    lines = [
        f"measure: {report.measure.value}",
        f"epsilon: {fmt(eps)}",
        f"s0: {fmt(s[0])}",
        f"s1: {fmt(s[1])}",
        f"s2: {fmt(s[2])}",
    ]
    for j, res in enumerate(report.singles):
        label = f"single j={j}" if j == 0 else f"single j={j} (generalized)"
        lines.append(
            f"{label}: value={fmt(res.value)} bound={fmt(res.bound)} "
            f"violated={_yesno(res.violated)}"
        )
    for (j, k), res in report.doubles:
        lines.append(
            f"double jk={j}{k}: value={fmt(res.value)} bound={fmt(res.bound)} "
            f"violated={_yesno(res.violated)}"
        )
    t = report.triple
    lines.append(
        f"triple: value={fmt(t.value)} bound={fmt(t.bound)} "
        f"satisfied={_yesno(not t.violated)}"
    )
    for label, value in report.decompositions:
        lines.append(f"decomposition {label}: {fmt(value)}")
    return lines


def render_tripartite_report(report: TripartiteReport) -> list[str]:
    lines = [
        f"measure: {report.measure.value}",
        f"epsilon: {fmt(report.measure.epsilon)}",
    ]
    for name, res in (("t1", report.t1), ("t2", report.t2)):
        lines.append(
            f"{name}: value={fmt(res.value)} bound={fmt(res.bound)} "
            f"violated={_yesno(res.violated)}"
        )
    t3 = report.t3
    lines.append(
        f"t3: value={fmt(t3.value)} bound={fmt(t3.bound)} "
        f"satisfied={_yesno(not t3.violated)}"
    )
    return lines


def evaluate_lines(rho: DensityMatrix, measures: list[Measure]) -> list[str]:
    if rho.nqubits == 2:
        reports = [steering_report(rho, m) for m in measures]
        renderer = render_steering_report
    elif rho.nqubits == 3:
        reports = [tripartite_report(rho, m) for m in measures]
        renderer = render_tripartite_report
    else:
        raise NotAStateError("evaluate needs a 2- or 3-qubit state")
    lines = [f"nqubits: {rho.nqubits}"]
    for report in reports:
        lines.append("")
        lines.extend(renderer(report))
    return lines


def cmd_evaluate(args) -> int:
    rho = load_state_document(args.state)
    for line in evaluate_lines(rho, _measures(args.measure)):
        print(line)
    return EXIT_OK


def _sweep_grid(start: float, stop: float, step: float) -> list[float]:
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    if stop < start:
        raise ValueError(f"sweep range is empty: from {start} to {stop}")
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    return [min(start + k * step, stop) for k in range(count)]


def cmd_sweep(args) -> int:
    measure = Measure(args.measure)
    grid = _sweep_grid(args.start, args.stop, args.step)
    if args.family in ("pure_alpha", "werner"):
        param = "alpha" if args.family == "pure_alpha" else "p"
        header = f"{param},S0,S12_half,S012_third,epsilon"
        rows = []
        for x in grid:
            rho = from_family(args.family, {param: x})
            s = shift_values(rho, measure).values
            rows.append(
                [x, s[0], (s[1] + s[2]) / 2.0, s.sum() / 3.0, measure.epsilon]
            )
    elif args.family == "ghz_alpha":
        header = "alpha,T1,T2,T3,bound_3eps,bound_9eps"
        rows = []
        for x in grid:
            report = tripartite_report(from_family("ghz_alpha", {"alpha": x}), measure)
            rows.append(
                [
                    x,
                    report.t1.value,
                    report.t2.value,
                    report.t3.value,
                    report.t1.bound,
                    report.t3.bound,
                ]
            )
    else:
        raise ValueError(f"unknown sweep family {args.family!r}")
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _sample_state(nqubits: int, master_seed: int, index: int) -> tuple[DensityMatrix, str]:
    seed = np.random.SeedSequence([master_seed, index])
    if index % 2 == 0:
        return random_pure(nqubits, seed), "pure"
    return random_mixed(nqubits, 2 ** nqubits, seed), "mixed"


def _criterion_of_report(name: str, rho: DensityMatrix, measure: Measure):
    if name.startswith("single"):
        j = int(name[len("single"):])
        return steering_report(rho, measure).singles[j]
    if name.startswith("double"):
        j, k = int(name[-2]), int(name[-1])
        pair_index = DOUBLE_PAIRS.index((j, k))
        return steering_report(rho, measure).doubles[pair_index][1]
    if name == "triple":
        return steering_report(rho, measure).triple
    return getattr(tripartite_report(rho, measure), name)


def cmd_search(args) -> int:
    nqubits = args.nqubits
    if args.criterion not in SEARCH_CRITERIA[nqubits]:
        raise ValueError(
            f"criterion {args.criterion!r} is not valid for {nqubits} qubits; "
            f"choose from {SEARCH_CRITERIA[nqubits]}"
        )
    if args.samples < 1:
        raise ValueError(f"samples must be at least 1, got {args.samples}")
    measure = Measure(args.measure)
    best_value = -1.0
    best_index = -1
    best_kind = ""
    bound = None
    for index in range(args.samples):
        rho, kind = _sample_state(nqubits, args.seed, index)
        result = _criterion_of_report(args.criterion, rho, measure)
        bound = result.bound
        if result.value > best_value:
            best_value, best_index, best_kind = result.value, index, kind
    npure = (args.samples + 1) // 2
    print(f"criterion: {args.criterion}")
    print(f"measure: {measure.value}")
    print(f"nqubits: {nqubits}")
    print(f"samples: {args.samples} ({npure} pure, {args.samples - npure} mixed)")
    print(f"master seed: {args.seed}")
    print(f"max value: {fmt(best_value)}")
    print(f"bound: {fmt(bound)}")
    print(f"violated: {_yesno(best_value > bound + 1e-12)}")
    print(f"best sample: index={best_index} kind={best_kind}")
    print(f"reproduce with: numpy SeedSequence([{args.seed}, {best_index}])")
    if nqubits == 2:
        rho, _ = _sample_state(nqubits, args.seed, best_index)
        bloch = to_bloch(rho)
        print(f"best state r: {np.array2string(bloch.r, precision=12)}")
        print(f"best state s: {np.array2string(bloch.s, precision=12)}")
        for i, row in enumerate(bloch.T):
            print(f"best state T[{i}]: {np.array2string(row, precision=12)}")
    return EXIT_OK


class SuiteResult:
    def __init__(self, lines: list[str], passed: bool) -> None:
        self.lines = lines
        self.passed = passed


def _suite_coherence_complementarity(seed: int, samples: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    worst = {m: np.inf for m in Measure}
    for _ in range(samples):
        state = BlochQubit(random_bloch_qubit_vector(rng))
        for m in Measure:
            margin = m.epsilon - coherence_triple(state, m).total
            worst[m] = min(worst[m], margin)
    lines = [
        f"measure {m.value}: worst margin {fmt(worst[m])}" for m in Measure
    ]
    passed = all(worst[m] >= -1e-9 for m in Measure)
    return SuiteResult(lines, passed)


def _suite_bipartite_complementarity(seed: int, samples: int) -> SuiteResult:
    worst = {m: np.inf for m in Measure}
    worst_spread = 0.0
    for index in range(samples):
        rho, _ = _sample_state(2, seed, index)
        for m in Measure:
            report = steering_report(rho, m)
            worst[m] = min(worst[m], report.triple.bound - report.triple.value)
            values = [v for _, v in report.decompositions]
            worst_spread = max(worst_spread, max(values) - min(values))
    lines = [f"measure {m.value}: worst margin {fmt(worst[m])}" for m in Measure]
    lines.append(f"worst decomposition spread: {fmt(worst_spread)}")
    passed = all(worst[m] >= -1e-9 for m in Measure) and worst_spread <= 1e-12
    return SuiteResult(lines, passed)


def _suite_tripartite_complementarity(seed: int, samples: int) -> SuiteResult:
    worst = {m: np.inf for m in Measure}
    worst_gap = 0.0
    for index in range(samples):
        rho, _ = _sample_state(3, seed, index)
        for m in Measure:
            report = tripartite_report(rho, m)
            worst[m] = min(worst[m], report.t3.bound - report.t3.value)
            worst_gap = max(
                worst_gap, abs(report.t3.value - (report.t1.value + report.t2.value))
            )
    lines = [f"measure {m.value}: worst margin {fmt(worst[m])}" for m in Measure]
    lines.append(f"worst |t3 - (t1 + t2)|: {fmt(worst_gap)}")
    passed = all(worst[m] >= -1e-9 for m in Measure) and worst_gap <= 1e-12
    return SuiteResult(lines, passed)


def _suite_no_signalling(seed: int, samples: int) -> SuiteResult:
    worst = 0.0
    for index in range(samples):
        rho, _ = _sample_state(2, seed, index)
        reduced = _bloch_vector(rho.matrix[:2, :2] + rho.matrix[2:, 2:])
        for axis in (1, 2, 3):
            averaged = np.zeros(3)
            for branch in conditional_states(rho, axis):
                averaged += branch.probability * branch.state.r
            worst = max(worst, float(np.max(np.abs(averaged - reduced))))
    lines = [f"worst reconstruction residual: {fmt(worst)}"]
    return SuiteResult(lines, worst <= 1e-10)


def _suite_mixing_monotonicity(seed: int, samples: int) -> SuiteResult:
    worst = np.inf
    for index in range(samples):
        rho1, _ = _sample_state(2, seed, 2 * index)
        rho2, _ = _sample_state(2, seed, 2 * index + 1)
        weight = np.random.default_rng(
            np.random.SeedSequence([seed, index, 2])
        ).uniform()
        mixed = DensityMatrix(weight * rho1.matrix + (1.0 - weight) * rho2.matrix)
        for m in Measure:
            s_mix = shift_values(mixed, m).values
            s_convex = (
                weight * shift_values(rho1, m).values
                + (1.0 - weight) * shift_values(rho2, m).values
            )
            worst = min(worst, float(np.min(s_convex - s_mix)) + 1e-9)
    lines = [f"worst convexity margin (incl. 1e-9 tolerance): {fmt(worst)}"]
    return SuiteResult(lines, worst >= 0.0)


SUITES = {
    "coherence-complementarity": _suite_coherence_complementarity,
    "bipartite-complementarity": _suite_bipartite_complementarity,
    "tripartite-complementarity": _suite_tripartite_complementarity,
    "no-signalling": _suite_no_signalling,
    "mixing-monotonicity": _suite_mixing_monotonicity,
}


def cmd_check(args) -> int:
    if args.suite not in SUITES:
        raise ValueError(
            f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}"
        )
    samples = args.samples if args.samples else SUITE_SAMPLES[args.suite]
    result = SUITES[args.suite](args.seed, samples)
    print(f"suite: {args.suite}")
    print(f"samples: {samples}")
    print(f"seed: {args.seed}")
    for line in result.lines:
        print(line)
    print(f"result: {'PASS' if result.passed else 'FAIL'}")
    return EXIT_OK if result.passed else EXIT_SUITE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="naqc",
        description=(
            "Evaluate coherence-based steering criteria (nonlocal advantage "
            "of quantum coherence) on two- and three-qubit states."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="evaluate all criteria on one state")
    p_eval.add_argument("--state", required=True, help="JSON state document")
    p_eval.add_argument(
        "--measure", choices=MEASURE_CHOICES + ("all",), default="all"
    )
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = sub.add_parser("sweep", help="sweep a family parameter into a CSV")
    p_sweep.add_argument(
        "--family", required=True, choices=("pure_alpha", "ghz_alpha", "werner")
    )
    p_sweep.add_argument("--from", dest="start", type=float, required=True)
    p_sweep.add_argument("--to", dest="stop", type=float, required=True)
    p_sweep.add_argument("--step", type=float, required=True)
    p_sweep.add_argument("--measure", choices=MEASURE_CHOICES, default="l1")
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_search = sub.add_parser(
        "search", help="random-search for the maximal criterion value"
    )
    p_search.add_argument("--nqubits", type=int, choices=(2, 3), required=True)
    p_search.add_argument("--criterion", required=True)
    p_search.add_argument("--samples", type=int, required=True)
    p_search.add_argument("--seed", type=int, required=True)
    p_search.add_argument("--measure", choices=MEASURE_CHOICES, default="l1")
    p_search.set_defaults(func=cmd_search)

    p_check = sub.add_parser("check", help="run a Monte-Carlo property suite")
    p_check.add_argument("--suite", required=True)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument(
        "--samples", type=int, default=0, help="override the default sample count"
    )
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotAStateError as exc:
        print(f"error: invalid state: {exc}", file=sys.stderr)
        return EXIT_STATE
    except ConsistencyError as exc:
        print(f"error: internal consistency breach: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
