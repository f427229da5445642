"""Command-line front end.

Subcommands: ``evaluate`` a state document, ``sweep`` a family into a CSV,
``search`` random states for maximal criterion values, and ``check`` the
Monte-Carlo property suites. Violations are results, not errors: evaluate
exits 0 either way. Exit codes: 0 success, 2 parse or argument error,
3 invalid state, 4 internal consistency breach, 5 suite failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .coherence import Measure, _checked_totals
from .qcore import (
    BLOCH_NORM_TOL,
    ConsistencyError,
    DensityMatrix,
    NotAStateError,
    _bloch_vector,
    _check_bound,
    _norm,
    _validate,
)
from .states import (
    _generators,
    _random_states,
    from_family,
    random_bloch_qubit_vector,
    to_bloch,
)
from .steering import (
    SteeringReport,
    TripartiteReport,
    _condition,
    _flag,
    _shifts,
    _tripartite,
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

# states (or Bloch vectors) drawn, stacked and evaluated together by every
# sampling command and by sweep; results do not depend on it
CHUNK = 64

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


def _check_numbers(key: str, value) -> None:
    """Raise ``DocumentError`` unless ``value`` is a JSON number (a float,
    or an int that converts to one; not a bool) or a list nested from them.
    Non-finite floats pass: the state and family checks reject them."""
    if isinstance(value, list):
        for item in value:
            _check_numbers(key, item)
    elif not (type(value) is float or type(value) is int and abs(value) <= sys.float_info.max):
        raise DocumentError(f"{key!r} entries must be JSON numbers that fit a float: {value!r}")


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
        if type(nqubits) is not int or nqubits not in (1, 2, 3):
            raise DocumentError(
                f"nqubits must be the integer 1, 2 or 3, got {nqubits!r}"
            )
        dim = 2 ** nqubits
        _check_numbers("re", doc["re"])
        _check_numbers("im", doc["im"])
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
    for key, value in params.items():
        _check_numbers(key, value)
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
    if not np.isfinite([start, stop, step]).all():
        raise ValueError(
            f"sweep bounds and step must be finite, "
            f"got from {start} to {stop} step {step}"
        )
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    if stop < start:
        raise ValueError(f"sweep range is empty: from {start} to {stop}")
    count = np.floor((stop - start) / step + 1e-9) + 1
    if not np.isfinite(count):
        raise ValueError(
            f"sweep point count must be finite, got {count} points "
            f"from {start} to {stop} step {step}"
        )
    return [min(start + k * step, stop) for k in range(int(count))]


def cmd_sweep(args) -> int:
    measure = Measure(args.measure)
    eps = measure.epsilon
    grid = _sweep_grid(args.start, args.stop, args.step)
    param = "p" if args.family == "werner" else "alpha"
    if args.family == "ghz_alpha":
        header = "alpha,T1,T2,T3,bound_3eps,bound_9eps"
    else:
        header = f"{param},S0,S12_half,S012_third,epsilon"
    rows = []
    for xs in _chunks(grid):
        cond = _condition(np.stack([from_family(args.family, {param: x}).matrix for x in xs]))
        if cond.charlie is None:
            s = _shifts(cond, measure)[0]
            columns = [s[:, 0], (s[:, 1] + s[:, 2]) / 2.0, s.sum(axis=-1) / 3.0, eps]
        else:
            columns = [*_tripartite(cond, measure).T, 3.0 * eps, 9.0 * eps]
        rows += np.column_stack(np.broadcast_arrays(xs, *columns)).tolist()
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _chunks(items):
    """Consecutive slices of up to CHUNK ``items``, each made and evaluated as one stack."""
    return (items[start : start + CHUNK] for start in range(0, len(items), CHUNK))


def _samples(nqubits: int, master_seed: int, indices: range) -> np.ndarray:
    """The validated stack of samples ``indices``: sample i is drawn from
    ``SeedSequence([master_seed, i])``, Haar-pure at even i and full-rank
    Ginibre at odd i."""
    rngs = _generators([[master_seed, i] for i in indices])
    mats = np.empty((len(rngs),) + (2**nqubits,) * 2, dtype=complex)
    even = indices[0] % 2  # the position of the first even index
    mats[even::2] = _random_states(nqubits, rngs[even::2])
    mats[1 - even :: 2] = _random_states(nqubits, rngs[1 - even :: 2], 2**nqubits)
    _validate(mats)
    return mats


def _sampled(nqubits: int, master_seed: int, count: int):
    """The ``_chunks`` of samples 0 .. count - 1, each with its stack."""
    return ((idx, _samples(nqubits, master_seed, idx)) for idx in _chunks(range(count)))


def _criterion_values(name: str, cond, measure: Measure) -> tuple[np.ndarray, float]:
    """A search criterion's value for every state of a conditioned stack,
    read as the reports read it, and its bound."""
    eps = measure.epsilon
    if name in SEARCH_CRITERIA[3]:
        k = int(name[1]) - 1
        return _tripartite(cond, measure)[:, k], (3.0, 6.0, 9.0)[k] * eps
    s, total = _shifts(cond, measure)
    if name.startswith("single"):
        return s[:, int(name[-1])], eps
    if name.startswith("double"):
        return s[:, int(name[-2])] + s[:, int(name[-1])], 2.0 * eps
    return total, 3.0 * eps


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
    for indices, matrices in _sampled(nqubits, args.seed, args.samples):
        values, bound = _criterion_values(args.criterion, _condition(matrices), measure)
        k = int(values.argmax())  # the first maximum, as the strict > below keeps
        if values[k] > best_value:
            best_value, best_index, best_matrix = float(values[k]), indices[k], matrices[k]
    best_kind = "pure" if best_index % 2 == 0 else "mixed"
    npure = (args.samples + 1) // 2
    print(f"criterion: {args.criterion}")
    print(f"measure: {measure.value}")
    print(f"nqubits: {nqubits}")
    print(f"samples: {args.samples} ({npure} pure, {args.samples - npure} mixed)")
    print(f"master seed: {args.seed}")
    print(f"max value: {fmt(best_value)}")
    print(f"bound: {fmt(bound)}")
    print(f"violated: {_yesno(_flag(best_value, bound).violated)}")
    print(f"best sample: index={best_index} kind={best_kind}")
    print(f"reproduce with: numpy SeedSequence([{args.seed}, {best_index}])")
    if nqubits == 2:
        bloch = to_bloch(DensityMatrix(best_matrix))
        print(f"best state r: {np.array2string(bloch.r, precision=12)}")
        print(f"best state s: {np.array2string(bloch.s, precision=12)}")
        for i, row in enumerate(bloch.T):
            print(f"best state T[{i}]: {np.array2string(row, precision=12)}")
    return EXIT_OK


SuiteResult = tuple[list[str], bool]  # (lines, passed)


def _suite_coherence_complementarity(seed: int, samples: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    worst = {m: np.inf for m in Measure}
    for indices in _chunks(range(samples)):
        r = np.stack([random_bloch_qubit_vector(rng) for _ in indices])
        norm = _norm(r)
        _check_bound("Bloch vector norm", norm, 1.0, BLOCH_NORM_TOL, NotAStateError)
        for m in Measure:
            total = _checked_totals(m.evaluate(r, norm), m)
            worst[m] = min(worst[m], float(np.min(m.epsilon - total)))
    lines = [f"measure {m.value}: worst margin {fmt(worst[m])}" for m in Measure]
    return lines, all(worst[m] >= -1e-9 for m in Measure)


def _suite_bipartite_complementarity(seed: int, samples: int) -> SuiteResult:
    worst = {m: np.inf for m in Measure}
    worst_spread = 0.0
    for _, matrices in _sampled(2, seed, samples):
        cond = _condition(matrices)
        for m in Measure:
            s, total = _shifts(cond, m)
            worst[m] = min(worst[m], float(np.min(3.0 * m.epsilon - total)))
            s0, s1, s2 = s[:, 0], s[:, 1], s[:, 2]
            # the four groupings of SteeringReport.decompositions
            groupings = (s0 + s1 + s2, (s0 + s1) + s2, (s0 + s2) + s1, (s1 + s2) + s0)
            spread = np.max(groupings, axis=0) - np.min(groupings, axis=0)
            worst_spread = max(worst_spread, float(spread.max()))
    lines = [f"measure {m.value}: worst margin {fmt(worst[m])}" for m in Measure]
    lines.append(f"worst decomposition spread: {fmt(worst_spread)}")
    return lines, all(worst[m] >= -1e-9 for m in Measure) and worst_spread <= 1e-12


def _suite_tripartite_complementarity(seed: int, samples: int) -> SuiteResult:
    worst = {m: np.inf for m in Measure}
    worst_gap = 0.0
    for _, matrices in _sampled(3, seed, samples):
        cond = _condition(matrices)
        for m in Measure:
            t1, t2, t3 = _tripartite(cond, m).T
            worst[m] = min(worst[m], float(np.min(9.0 * m.epsilon - t3)))
            worst_gap = max(worst_gap, float(np.max(np.abs(t3 - (t1 + t2)))))
    lines = [f"measure {m.value}: worst margin {fmt(worst[m])}" for m in Measure]
    lines.append(f"worst |t3 - (t1 + t2)|: {fmt(worst_gap)}")
    return lines, all(worst[m] >= -1e-9 for m in Measure) and worst_gap <= 1e-12


def _suite_no_signalling(seed: int, samples: int) -> SuiteResult:
    worst = 0.0
    for _, matrices in _sampled(2, seed, samples):
        cond = _condition(matrices)
        reduced = _bloch_vector(matrices[:, :2, :2] + matrices[:, 2:, 2:])
        # Bob's state averaged over the outcomes of each of Alice's axes
        averaged = (cond.prob[..., None] * cond.bloch).sum(axis=-2)
        worst = max(worst, float(np.max(np.abs(averaged - reduced[:, None, :]))))
    return [f"worst reconstruction residual: {fmt(worst)}"], worst <= 1e-10


def _suite_mixing_monotonicity(seed: int, samples: int) -> SuiteResult:
    worst = np.inf
    for indices in _chunks(range(samples)):
        # samples 2i and 2i + 1 of each pair index i, interleaved
        drawn = _samples(2, seed, range(2 * indices.start, 2 * indices.stop))
        rngs = _generators([[seed, i, 2] for i in indices])
        weight = np.array([rng.uniform() for rng in rngs])[:, None]
        first, second = drawn[0::2], drawn[1::2]
        mixed = weight[..., None] * first + (1.0 - weight[..., None]) * second
        _validate(mixed)
        conds = [_condition(mats) for mats in (first, second, mixed)]
        for m in Measure:
            s1, s2, s_mix = (_shifts(cond, m)[0] for cond in conds)
            s_convex = weight * s1 + (1.0 - weight) * s2
            worst = min(worst, float(np.min(s_convex - s_mix)) + 1e-9)
    return [f"worst convexity margin (incl. 1e-9 tolerance): {fmt(worst)}"], worst >= 0.0


SUITES = {
    "coherence-complementarity": _suite_coherence_complementarity,
    "bipartite-complementarity": _suite_bipartite_complementarity,
    "tripartite-complementarity": _suite_tripartite_complementarity,
    "no-signalling": _suite_no_signalling,
    "mixing-monotonicity": _suite_mixing_monotonicity,
}


def cmd_check(args) -> int:
    if args.suite not in SUITES:
        raise ValueError(f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}")
    samples = SUITE_SAMPLES[args.suite] if args.samples is None else args.samples
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    lines, passed = SUITES[args.suite](args.seed, samples)
    print(f"suite: {args.suite}")
    print(f"samples: {samples}")
    print(f"seed: {args.seed}")
    for line in lines:
        print(line)
    print(f"result: {'PASS' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_SUITE


@functools.cache
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
        "--samples", type=int, help="override the suite's default sample count"
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
