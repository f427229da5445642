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

from .coherence import CoherenceTriple, Measure, _bounds
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
    _FAMILIES,
    _generators,
    _pauli_tensor,
    _random_states,
    from_family,
    random_bloch_qubit_vector,
)
from .steering import (
    _MEASURES,
    CRITERIA,
    CriterionResult,
    _condition,
    _criteria,
    _decompositions,
    _limits,
    _parts,
    _row,
    _scored,
    _shifts,
    _tripartite,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_STATE = 3
EXIT_CONSISTENCY = 4
EXIT_SUITE = 5

MEASURE_CHOICES = tuple(m.value for m in _MEASURES)

# states (or Bloch vectors) drawn, stacked and evaluated together by every
# sampling command and by sweep; results do not depend on it
CHUNK = 512

_IDENTITY_4 = np.eye(4)  # np.eye runs a Python frame per call


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
    """Decode a JSON state document: a dense matrix block or a family block,
    and no other key."""
    if not isinstance(doc, dict):
        raise DocumentError("state document must be a JSON object")
    dense_keys = {"nqubits", "re", "im"} & doc.keys()
    family_keys = {"family", "params"} & doc.keys()
    if bool(dense_keys) == bool(family_keys):
        raise DocumentError(
            "state document must contain exactly one of a dense block {nqubits, re, im} "
            f"or a family block {{family, params}}, got keys {sorted(doc, key=str)}"
        )
    if unknown := sorted(doc.keys() - dense_keys - family_keys, key=str):
        block = "dense" if dense_keys else "family"
        raise DocumentError(f"state document has keys outside its {block} block: {unknown}")
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
        with np.errstate(invalid="ignore"):  # 1j * inf is nan + inf j, which _validate rejects
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
    return list(_MEASURES) if selector == "all" else [Measure(selector)]


def evaluate_lines(rho: DensityMatrix, measures: list[Measure]) -> list[str]:
    """What ``evaluate`` prints: per measure, the shifts of a two-qubit
    ``rho``, one line per criterion of ``CRITERIA``, by name, and the
    groupings of the shift total. The last criterion holds for every state,
    so its line says whether it is satisfied, not violated."""
    n = rho.nqubits
    if n not in CRITERIA:
        raise NotAStateError("evaluate needs a 2- or 3-qubit state")
    lines = [f"nqubits: {n}"]
    for m in measures:
        parts = _row(rho, m, n).tolist()
        lines += ["", f"measure: {m.value}", f"epsilon: {fmt(m.epsilon)}"]
        if n == 2:
            lines += [f"s{j}: {fmt(value)}" for j, value in enumerate(parts)]
        results = _criteria(n, parts, m)
        for k, (name, res) in enumerate(results.items(), 1):
            if k < len(results):
                flag = f"violated={_yesno(res.violated)}"
            else:
                flag = f"satisfied={_yesno(not res.violated)}"
            lines.append(f"{name}: value={fmt(res.value)} bound={fmt(res.bound)} {flag}")
        if n == 2:
            lines += [f"decomposition {label}: {fmt(v)}" for label, v in _decompositions(*parts)]
    return lines


def cmd_evaluate(args) -> int:
    rho = load_state_document(args.state)
    sys.stdout.write("\n".join(evaluate_lines(rho, _measures(args.measure))) + "\n")
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
    if float(count) > sys.maxsize:  # the most a range can hold
        raise ValueError(
            f"sweep point count must be at most {sys.maxsize}, got {count} points "
            f"from {start} to {stop} step {step}"
        )
    return int(count), lambda k: min(start + k * step, stop)


def cmd_sweep(args) -> int:
    measure = Measure(args.measure)
    count, point = _sweep_grid(args.start, args.stop, args.step)
    _, (param,) = _FAMILIES[args.family]
    # the grid runs from its first point to its last, so both in range
    # means every point is: a bad parameter fails before the file is opened
    for k in (0, count - 1):
        nqubits = from_family(args.family, {param: point(k)}).nqubits
    if nqubits == 3:
        header = f"{param},T1,T2,T3,bound_3eps,bound_9eps"
    else:
        header = f"{param},S0,S12_half,S012_third,epsilon"
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for ks in _chunks(range(count)):
            xs = [point(k) for k in ks]
            cond = _condition(np.stack([from_family(args.family, {param: x}).matrix for x in xs]))
            c = _criteria(nqubits, _parts(cond, (measure,))[0].T, measure)
            if nqubits == 2:
                # s_0, then the means (s_1 + s_2) / 2 and (s_0 + s_1 + s_2) / 3:
                # each criterion over its bound's multiple of epsilon
                names = ("single0", "double12", "triple")
                columns = [c[name].value / CRITERIA[2][name][1] for name in names]
                columns.append(c["single0"].bound)
            else:
                t1, t2, t3 = c.values()
                columns = [t1.value, t2.value, t3.value, t1.bound, t3.bound]
            for row in np.column_stack(np.broadcast_arrays(xs, *columns)).tolist():
                fh.write(",".join(fmt(v) for v in row) + "\n")
    print(f"wrote {count} rows to {args.out}")
    return EXIT_OK


def _chunks(items):
    """Consecutive slices of up to CHUNK ``items``, each made and evaluated as one stack."""
    return (items[start : start + CHUNK] for start in range(0, len(items), CHUNK))


def _samples(nqubits: int, master_seed: int, indices: range) -> np.ndarray:
    """The stack of samples ``indices``, certified by one ``_validate``: sample
    i is drawn in place from ``SeedSequence([master_seed, i])``, Haar-pure at
    even i and full-rank Ginibre at odd i."""
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


def _check_run(samples: int, seed: int) -> None:
    """Raise ``ValueError`` unless a sampling command's count and seed are usable."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if samples > sys.maxsize:  # the most a range can hold
        raise ValueError(f"samples must be at most {sys.maxsize}, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def cmd_search(args) -> int:
    nqubits = args.nqubits
    if args.criterion not in CRITERIA[nqubits]:
        raise ValueError(
            f"criterion {args.criterion!r} is not valid for {nqubits} qubits; "
            f"choose from {tuple(CRITERIA[nqubits])}"
        )
    _check_run(args.samples, args.seed)
    measure = Measure(args.measure)
    limits = {args.criterion: _limits(nqubits, measure)[args.criterion]}
    best = None
    for indices, matrices in _sampled(nqubits, args.seed, args.samples):
        parts = _parts(_condition(matrices), (measure,))[0]
        res = _scored(parts.T, limits)[args.criterion]
        k = int(res.value.argmax())  # the first maximum, as the strict > below keeps
        if best is None or res.value[k] > best.value:
            best = CriterionResult(float(res.value[k]), res.bound, bool(res.violated[k]))
            best_index, best_matrix = indices[k], matrices[k]
    best_kind = "pure" if best_index % 2 == 0 else "mixed"
    npure = (args.samples + 1) // 2
    lines = [
        f"criterion: {args.criterion}",
        f"measure: {measure.value}",
        f"nqubits: {nqubits}",
        f"samples: {args.samples} ({npure} pure, {args.samples - npure} mixed)",
        f"master seed: {args.seed}",
        f"max value: {fmt(best.value)}",
        f"bound: {fmt(best.bound)}",
        f"violated: {_yesno(best.violated)}",
        f"best sample: index={best_index} kind={best_kind}",
        f"reproduce with: numpy SeedSequence([{args.seed}, {best_index}])",
    ]
    if nqubits == 2:
        R = _pauli_tensor(best_matrix)  # validated with its chunk
        for label, row in zip(("r", "s", "T[0]", "T[1]", "T[2]"), (R[1:, 0], R[0, 1:], *R[1:, 1:])):
            lines.append(f"best state {label}: {' '.join(map(fmt, row))}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


SuiteResult = tuple[list[str], bool]  # (lines, passed)


def _bloch_totals(seed: int, samples: int, measures: tuple):
    """Per chunk of qubit draws: each measure's triple sums, and 0.0, as a
    qubit has no second quantity to check."""
    rng = np.random.default_rng(seed)
    for indices in _chunks(range(samples)):
        r = np.array([random_bloch_qubit_vector(rng) for _ in indices])
        norm = _norm(r)
        _check_bound("Bloch vector norm", norm, 1.0, BLOCH_NORM_TOL, NotAStateError)
        yield np.array([CoherenceTriple._totals(m.evaluate(r, norm), m) for m in measures]), 0.0


def _shift_totals(seed: int, samples: int, measures: tuple):
    """Per chunk of two-qubit samples: each measure's shift totals, and the
    spread of the decompositions of the triple criterion."""
    for _, matrices in _sampled(2, seed, samples):
        s, total = _shifts(_condition(matrices), measures)
        groupings = [value for _, value in _decompositions(*s.transpose(2, 0, 1))]
        yield total, np.maximum.reduce(groupings, axis=0) - np.minimum.reduce(groupings, axis=0)


def _t3_totals(seed: int, samples: int, measures: tuple):
    """Per chunk of three-qubit samples: each measure's t3, and |t3 - (t1 + t2)|."""
    for _, matrices in _sampled(3, seed, samples):
        cond = _condition(matrices)
        shifts = _shifts(cond, measures)
        t3 = _tripartite(cond, measures, shifts)[..., 2]
        # t1 + t2 added the other way round: Charlie's outcomes weighting
        # the shift totals of his AB states, not t1 and t2 term by term
        yield t3, np.abs(t3 - np.add.reduce(cond.charlie * shifts[1], axis=(-2, -1)))


# per qubit count n: the chunks of totals whose sums the suite holds to
# 3 ** (n - 1) * epsilon, and the name of the second quantity it holds to 1e-12
_COMPLEMENTARITY = {
    1: (_bloch_totals, None),
    2: (_shift_totals, "decomposition spread"),
    3: (_t3_totals, "|t3 - (t1 + t2)|"),
}


def _suite_complementarity(nqubits: int, seed: int, samples: int) -> SuiteResult:
    totals, second_name = _COMPLEMENTARITY[nqubits]
    bound = _bounds(_MEASURES, nqubits)[0][:, None]  # 3 ** (n - 1) * epsilon, as in _criteria
    worst = np.array([np.inf] * len(_MEASURES))
    worst_second = 0.0
    for total, second in totals(seed, samples, _MEASURES):
        # each measure's lowest margin bound - total, as _criteria reports it
        np.minimum(worst, np.minimum.reduce(bound - total, axis=1), out=worst)
        # np.maximum keeps a NaN, where max(0.0, nan) would drop it
        worst_second = np.maximum(worst_second, np.maximum.reduce(second, axis=None))
    lines = [f"measure {m}: worst margin {fmt(w)}" for m, w in zip(MEASURE_CHOICES, worst)]
    if second_name is not None:
        lines.append(f"worst {second_name}: {fmt(worst_second)}")
    return lines, bool(np.minimum.reduce(worst) >= -1e-9 and worst_second <= 1e-12)


def _suite_no_signalling(seed: int, samples: int) -> SuiteResult:
    worst = 0.0
    for _, matrices in _sampled(2, seed, samples):
        cond = _condition(matrices)
        reduced = _bloch_vector(matrices[:, :2, :2] + matrices[:, 2:, 2:])
        # Bob's state averaged over the outcomes of each of Alice's axes
        averaged = np.add.reduce(cond.prob[..., None] * cond.bloch, axis=-2)
        # np.maximum keeps a NaN, where max(0.0, nan) would drop it
        worst = np.maximum.reduce(np.abs(averaged - reduced[:, None, :]), axis=None, initial=worst)
    return [f"worst reconstruction residual: {fmt(worst)}"], bool(worst <= 1e-10)


def _mixing_margins(seed: int, samples: int):
    """Per chunk of sample pairs: the lowest convexity and white-noise margins."""
    # the weights come in order from a generator of their own: SeedSequence
    # pads [seed] with zeros, so default_rng(seed) would be sample 0's
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    for indices in _chunks(range(samples)):
        # samples 2i and 2i + 1 of each pair index i, interleaved
        drawn = _samples(2, seed, range(2 * indices.start, 2 * indices.stop))
        weight = rng.uniform(size=(len(indices), 1))
        first, second = drawn[0::2], drawn[1::2]
        mixed = weight[..., None] * first + (1.0 - weight[..., None]) * second
        # the same weight mixes the first state with I/4, whose shifts are 0:
        # every branch's p b scales by it, so l1's shifts are linear in it
        noisy = weight[..., None] * first + (1.0 - weight[..., None]) * _IDENTITY_4 / 4
        s = _shifts(_condition(np.array([first, second, mixed, noisy])), _MEASURES)[0]
        s_convex = weight * s[:, 0] + (1.0 - weight) * s[:, 1]
        convexity = np.minimum.reduce(s_convex - s[:, 2], axis=None)
        yield convexity, np.minimum.reduce(weight * s[:, 0] - s[:, 3], axis=None)


def _suite_mixing_monotonicity(seed: int, samples: int) -> SuiteResult:
    # the lowest convexity and white-noise margins of all chunks
    worst = np.minimum.reduce(np.add(list(_mixing_margins(seed, samples)), 1e-9), axis=0)
    names = ("convexity", "white-noise")
    lines = [f"worst {n} margin (incl. 1e-9 tolerance): {fmt(w)}" for n, w in zip(names, worst)]
    return lines, bool(np.minimum.reduce(worst) >= 0.0)


# each suite and its default sample count
SUITES = {
    "coherence-complementarity": (functools.partial(_suite_complementarity, 1), 10_000),
    "bipartite-complementarity": (functools.partial(_suite_complementarity, 2), 10_000),
    "tripartite-complementarity": (functools.partial(_suite_complementarity, 3), 1_000),
    "no-signalling": (_suite_no_signalling, 1_000),
    "mixing-monotonicity": (_suite_mixing_monotonicity, 1_000),
}


def cmd_check(args) -> int:
    suite, default_samples = SUITES[args.suite]
    samples = default_samples if args.samples is None else args.samples
    _check_run(samples, args.seed)
    lines, passed = suite(args.seed, samples)
    lines = [f"suite: {args.suite}", f"samples: {samples}", f"seed: {args.seed}", *lines]
    sys.stdout.write("\n".join(lines) + f"\nresult: {'PASS' if passed else 'FAIL'}\n")
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
    families = tuple(name for name, (_, params) in _FAMILIES.items() if len(params) == 1)
    p_sweep.add_argument("--family", required=True, choices=families)
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
    p_check.add_argument("--suite", required=True, choices=tuple(SUITES))
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument(
        "--samples", type=int, help="override the suite's default sample count"
    )
    p_check.set_defaults(func=cmd_check)
    parser._commands = sub.choices  # each command name's parser
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    # the command word names its parser, so that parser alone parses the
    # rest: the top parser's own pass would only pick it; any other argv
    # (none, -h, an unknown command) goes through the top parser
    command = parser._commands.get(argv[0]) if argv else None
    args = parser.parse_args(argv) if command is None else command.parse_args(argv[1:])
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotAStateError as exc:
        print(f"error: invalid state: {exc}", file=sys.stderr)
        return EXIT_STATE
    except ConsistencyError as exc:
        print(f"error: internal consistency breach: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except (OSError, ValueError) as exc:  # a DocumentError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
