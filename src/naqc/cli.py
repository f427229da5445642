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
from collections.abc import Callable

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
    _bloch_of,
    _generators,
    _random_states,
    from_family,
    random_bloch_qubit_vector,
)
from .steering import (
    CRITERIA,
    CriterionResult,
    SteeringReport,
    TripartiteReport,
    _condition,
    _criteria,
    _decompositions,
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


def _vector_str(x: np.ndarray) -> str:
    """``np.array2string(x, precision=12)`` of a 1-D float vector of finite
    values short enough for one line (3 values always are), without
    ``array2string``'s per-call set-up.

    It follows numpy's ``FloatingFormat`` in its default ``maxprec`` mode. A
    first pass prints each value to at most 12 digits with trailing zeros
    trimmed, the second pads them to one width: positional notation pads
    with spaces only, so it reuses the first pass; scientific notation (a
    nonzero magnitude below 1e-4 or from 1e8 on, or a max/min ratio above
    1e3) gives every value as many fraction digits as the longest and its
    exponent as many digits as the widest, which ``format_float_scientific``
    prints again.
    """
    values = [float(v) for v in x]
    magnitudes = [abs(v) for v in values if v != 0.0]
    if magnitudes and (
        max(magnitudes) >= 1e8 or min(magnitudes) < 1e-4 or max(magnitudes) / min(magnitudes) > 1e3
    ):
        parts = [np.format_float_scientific(v, precision=12, trim=".").split("e") for v in values]
        pad_left = max(mantissa.index(".") for mantissa, _ in parts)
        digits = max(len(mantissa) - mantissa.index(".") - 1 for mantissa, _ in parts)
        exp_digits = max(len(exponent) for _, exponent in parts) - 1
        words = [
            np.format_float_scientific(
                v, precision=digits, min_digits=digits, trim="k",
                pad_left=pad_left, exp_digits=exp_digits,
            )
            for v in values
        ]  # fmt: skip
    else:
        strs = [np.format_float_positional(v, precision=12, trim=".") for v in values]
        pad_left = max(s.index(".") for s in strs)
        width = pad_left + 1 + max(len(s) - s.index(".") - 1 for s in strs)
        words = [s.rjust(pad_left + len(s) - s.index(".")).ljust(width) for s in strs]
    return "[" + " ".join(words) + "]"


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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return decode_state_document(doc)
    except RecursionError as exc:
        # json.load and _check_numbers recurse once per level of nesting
        raise DocumentError("state document is nested too deeply") from exc


def _measures(selector: str) -> list[Measure]:
    if selector == "all":
        return [Measure.L1, Measure.RELATIVE_ENTROPY, Measure.SKEW_INFORMATION]
    return [Measure(selector)]


def _criterion_lines(labelled: list[tuple[str, CriterionResult]]) -> list[str]:
    """One line per (label, result); the last criterion holds for every
    state, so its line says whether it is satisfied, not violated."""
    lines = []
    for n, (label, res) in enumerate(labelled, 1):
        if n < len(labelled):
            flag = f"violated={_yesno(res.violated)}"
        else:
            flag = f"satisfied={_yesno(not res.violated)}"
        lines.append(f"{label}: value={fmt(res.value)} bound={fmt(res.bound)} {flag}")
    return lines


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
    labelled = [
        (f"single j={j}" if j == 0 else f"single j={j} (generalized)", res)
        for j, res in enumerate(report.singles)
    ]
    labelled += [(f"double jk={j}{k}", res) for (j, k), res in report.doubles]
    lines += _criterion_lines(labelled + [("triple", report.triple)])
    for label, value in report.decompositions:
        lines.append(f"decomposition {label}: {fmt(value)}")
    return lines


def render_tripartite_report(report: TripartiteReport) -> list[str]:
    results = (report.t1, report.t2, report.t3)
    return [
        f"measure: {report.measure.value}",
        f"epsilon: {fmt(report.measure.epsilon)}",
        *_criterion_lines(list(zip(CRITERIA[3], results))),
    ]


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


def _sweep_grid(start: float, stop: float, step: float) -> tuple[int, Callable[[int], float]]:
    """The number of sweep points and the map from k to point k, which is
    min(start + k * step, stop); no point is made before it is asked for."""
    if not np.isfinite([start, stop, step]).all():
        raise ValueError(
            f"sweep bounds and step must be finite, "
            f"got from {start} to {stop} step {step}"
        )
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    if stop < start:
        raise ValueError(f"sweep range is empty: from {start} to {stop}")
    # the slack absorbs round-off: 1e-9 that of short grids, 1e-12 per
    # point that of long ones
    count = np.floor((stop - start) / step * (1.0 + 1e-12) + 1e-9) + 1
    if not np.isfinite(count):
        raise ValueError(
            f"sweep point count must be finite, got {count} points "
            f"from {start} to {stop} step {step}"
        )
    return int(count), lambda k: min(start + k * step, stop)


def cmd_sweep(args) -> int:
    measure = Measure(args.measure)
    count, point = _sweep_grid(args.start, args.stop, args.step)
    param = "p" if args.family == "werner" else "alpha"
    nqubits = 3 if args.family == "ghz_alpha" else 2
    if nqubits == 3:
        header = "alpha,T1,T2,T3,bound_3eps,bound_9eps"
    else:
        header = f"{param},S0,S12_half,S012_third,epsilon"
    # the grid runs from its first point to its last, so both in range
    # means every point is: a bad parameter fails before the file is opened
    for k in (0, count - 1):
        from_family(args.family, {param: point(k)})
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for ks in _chunks(range(count)):
            xs = [point(k) for k in ks]
            cond = _condition(np.stack([from_family(args.family, {param: x}).matrix for x in xs]))
            if nqubits == 2:
                c = _criteria(2, _shifts(cond, measure)[0].T, measure)
                single, double, triple = c["single0"], c["double12"], c["triple"]
                columns = [single.value, double.value / 2.0, triple.value / 3.0, single.bound]
            else:
                t1, t2, t3 = _criteria(3, _tripartite(cond, measure).T, measure).values()
                columns = [t1.value, t2.value, t3.value, t1.bound, t3.bound]
            for row in np.column_stack(np.broadcast_arrays(xs, *columns)).tolist():
                fh.write(",".join(fmt(v) for v in row) + "\n")
    print(f"wrote {count} rows to {args.out}")
    return EXIT_OK


def _chunks(items):
    """Consecutive slices of up to CHUNK ``items``, each made and evaluated as one stack."""
    return (items[start : start + CHUNK] for start in range(0, len(items), CHUNK))


def _samples(nqubits: int, master_seed: int, indices: range) -> np.ndarray:
    """The validated stack of samples ``indices``: sample i is drawn from
    ``SeedSequence([master_seed, i])``, Haar-pure at even i and full-rank
    Ginibre at odd i."""
    rngs = _generators(master_seed, indices)
    mats = np.empty((len(rngs),) + (2**nqubits,) * 2, dtype=complex)
    even = indices[0] % 2  # the position of the first even index
    mats[even::2] = _random_states(nqubits, rngs[even::2])
    mats[1 - even :: 2] = _random_states(nqubits, rngs[1 - even :: 2], 2**nqubits)
    _validate(mats)
    return mats


def _sampled(nqubits: int, master_seed: int, count: int):
    """The ``_chunks`` of samples 0 .. count - 1, each with its stack."""
    return ((idx, _samples(nqubits, master_seed, idx)) for idx in _chunks(range(count)))


def cmd_search(args) -> int:
    nqubits = args.nqubits
    if args.criterion not in CRITERIA[nqubits]:
        raise ValueError(
            f"criterion {args.criterion!r} is not valid for {nqubits} qubits; "
            f"choose from {tuple(CRITERIA[nqubits])}"
        )
    if args.samples < 1:
        raise ValueError(f"samples must be at least 1, got {args.samples}")
    measure = Measure(args.measure)
    best = None
    for indices, matrices in _sampled(nqubits, args.seed, args.samples):
        cond = _condition(matrices)
        parts = _shifts(cond, measure)[0] if nqubits == 2 else _tripartite(cond, measure)
        res = _criteria(nqubits, parts.T, measure)[args.criterion]
        k = int(res.value.argmax())  # the first maximum, as the strict > below keeps
        if best is None or res.value[k] > best.value:
            best = CriterionResult(float(res.value[k]), res.bound, bool(res.violated[k]))
            best_index, best_matrix = indices[k], matrices[k]
    best_kind = "pure" if best_index % 2 == 0 else "mixed"
    npure = (args.samples + 1) // 2
    print(f"criterion: {args.criterion}")
    print(f"measure: {measure.value}")
    print(f"nqubits: {nqubits}")
    print(f"samples: {args.samples} ({npure} pure, {args.samples - npure} mixed)")
    print(f"master seed: {args.seed}")
    print(f"max value: {fmt(best.value)}")
    print(f"bound: {fmt(best.bound)}")
    print(f"violated: {_yesno(best.violated)}")
    print(f"best sample: index={best_index} kind={best_kind}")
    print(f"reproduce with: numpy SeedSequence([{args.seed}, {best_index}])")
    if nqubits == 2:
        bloch = _bloch_of(best_matrix)  # validated with its chunk
        print(f"best state r: {_vector_str(bloch.r)}")
        print(f"best state s: {_vector_str(bloch.s)}")
        for i, row in enumerate(bloch.T):
            print(f"best state T[{i}]: {_vector_str(row)}")
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
        s = _shifts(_condition(matrices), tuple(Measure))[0]
        for m, s_m in zip(Measure, s):
            *_, total = _criteria(2, s_m.T, m).values()
            worst[m] = min(worst[m], float(np.min(total.bound - total.value)))
        groupings = [value for _, value in _decompositions(*np.moveaxis(s, -1, 0))]
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
        shifts = _shifts(cond, tuple(Measure))
        t = _tripartite(cond, tuple(Measure), shifts)
        for m, t_m in zip(Measure, t):
            *_, total = _criteria(3, t_m.T, m).values()
            worst[m] = min(worst[m], float((total.bound - total.value).min()))
        # t1 + t2 added the other way round: Charlie's outcomes weighting
        # the shift totals of his AB states, not t1 and t2 term by term
        added = (cond.charlie * shifts[1]).sum(axis=(-2, -1))
        worst_gap = max(worst_gap, float(np.abs(t[..., 2] - added).max()))
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
        rngs = _generators(seed, indices, (2,))
        weight = np.array([rng.uniform() for rng in rngs])[:, None]
        first, second = drawn[0::2], drawn[1::2]
        mixed = weight[..., None] * first + (1.0 - weight[..., None]) * second
        _validate(mixed)
        s = _shifts(_condition(np.stack([first, second, mixed])), tuple(Measure))[0]
        s_convex = weight * s[:, 0] + (1.0 - weight) * s[:, 1]
        worst = min(worst, float(np.min(s_convex - s[:, 2])) + 1e-9)
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
