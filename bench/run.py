"""naqc benchmark: one workload per process, closed loop, one op at a time.

Run from the root of a checkout:

    python3 bench/run.py --workload search-2q --seed 0 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics: ``states_per_s``, op
latency p50 and p99 (an op's latency is the fastest of its ``PASSES`` runs),
``setup_s`` (median over fresh processes that import naqc and evaluate the
workload's first state), all four scaled to a reference host speed (see
``probe``), then ``peak_rss_mb`` and ``failed_frac``. With ``--trace 1``
it alternates untraced and traced windows and prints the per-layer metrics
from the spans of the traced ones. Every op's output is checked (see
workloads.py). The last line of standard output is one JSON object: correct,
attempted, failed and metrics. See README.md in this directory.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread; set before numpy is imported, inherited by children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

PASSES = 5  # runs of every timed op with --trace 0; its latency is the fastest
SETUP_RUNS = 10  # set-up processes per --trace 0 run, spread over the run
SETUP_PROBES = 25  # probes after a set-up process, whose median scales its time
WINDOWS = 10  # timed windows of a --trace 1 run, alternately untraced and traced
SETUP_TIMEOUT_S = 60
MAX_REPORTED_ERRORS = 5

# calls per state (per op for scalar-calls) at the commit that defined the
# benchmark; a later change to the call structure shows up as a difference
BASELINE_CALLS = {
    "search-2q": {
        "states.sample": 1, "qcore.validate": 1, "steering.condition": 3,
        "qcore.bloch": 6, "coherence.eval": 18,
    },
    "check-tripartite": {
        "states.sample": 1, "qcore.validate": 19, "steering.condition": 54,
        "qcore.bloch": 108, "coherence.eval": 324,
    },
    # per 4 ops: three two-qubit (1 / 9 / 18 / 54) and one three-qubit (19 / 54 / 108 / 324)
    "scalar-calls": {
        "states.sample": 0, "qcore.validate": 22 / 4, "steering.condition": 81 / 4,
        "qcore.bloch": 162 / 4, "coherence.eval": 486 / 4,
    },
}  # fmt: skip


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("search-2q", "check-tripartite", "scalar-calls")
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


class Tally:
    """Attempted and failed ops, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        if not errors:
            return
        self.failed += 1
        if self.failed <= MAX_REPORTED_ERRORS:
            print(f"bench: {label} failed: {'; '.join(errors)}", file=sys.stderr)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(numpy_version: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "naqc").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest()[:16],
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


# The host's speed changes by up to 40% within seconds, with CPU time tracking
# wall time, so every op is timed between two runs of a fixed probe that does
# the same kind of work as naqc (small complex numpy arrays, a Python loop)
# and its time is scaled by PROBE_REF_S / (mean of the two probe times): the
# op's time on a host where the probe takes PROBE_REF_S. A set-up process is
# scaled by the median of SETUP_PROBES probes run, once warm, right after it.
# Unscaled figures are printed alongside.
PROBE_REF_S = 500e-6
_PROBE_INPUTS = [
    np.random.default_rng(i).normal(size=(4, 4)) + 0j for i in range(8)
]


def probe() -> float:
    """Seconds taken by the fixed probe workload (no naqc code)."""
    start = time.perf_counter()
    acc = 0.0
    for m in _PROBE_INPUTS:
        h = m + m.conj().T
        acc += float(np.linalg.eigvalsh(h)[0])
        acc += float(np.trace(np.kron(np.eye(2), h[:2, :2]) @ h).real)
        for j in range(40):
            acc += j * 0.5
    return time.perf_counter() - start


def warm_probe() -> float:
    """The probe's time once warm again after the process slept or traced."""
    for _ in range(3):
        seconds = probe()
    return seconds


def run_op(wl, k: int):
    """Run op k; returns (seconds, result or None, exception message or None)."""
    wl.prepare(k)
    start = time.perf_counter()
    try:
        result = wl.run(k)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, result, None


def check_op(wl, tally: Tally, k: int, result, error: str | None) -> None:
    if error is None:
        try:
            errors = wl.errors(k, result)
        except (ValueError, TypeError, AttributeError, KeyError, IndexError) as exc:
            errors = [f"unreadable output: {type(exc).__name__}: {exc}"]
    else:
        errors = [error]
    tally.record(f"{wl.name} op {k}", errors)


def setup_child(wl_name: str, seed: int, tally: Tally):
    """A function that runs one fresh process, which imports naqc and
    evaluates the workload's first state, and returns its wall seconds from
    spawn to exit, unscaled and scaled."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "first_state.py"), wl_name, str(seed)]

    def run_once() -> float:
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S,
            )  # fmt: skip
            errors = [] if proc.returncode == 0 else [f"exit {proc.returncode}: {proc.stderr[-300:]}"]
        except subprocess.TimeoutExpired:
            errors = [f"no exit within {SETUP_TIMEOUT_S} s"]
        elapsed = time.perf_counter() - start
        tally.record("setup run", errors)
        warm_probe()
        host = statistics.median(probe() for _ in range(SETUP_PROBES))
        return elapsed, elapsed * PROBE_REF_S / host

    return run_once


def timed_op(wl, k: int, before: float):
    """Run op k after a probe that took ``before`` seconds and probe again;
    returns (raw seconds, scaled seconds, the new probe's time, result,
    exception message)."""
    elapsed, result, error = run_op(wl, k)
    after = probe()
    return elapsed, elapsed * 2.0 * PROBE_REF_S / (before + after), after, result, error


class Window:
    """Ops of one traced or untraced window: states, raw and scaled op seconds."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.states = 0
        self.raw = []
        self.scaled = []


def run_window(wl, tally: Tally, k: int, seconds: float, tracer=None) -> tuple[Window, int]:
    """Closed loop over ops from op ``k`` for ``seconds``, traced when given a
    tracer; returns the window and the next op index.

    The window ends on a multiple of the workload's call-mix group. Outputs
    are checked outside the timed ops: after each op, or at the end of a
    traced window once the tracer is removed.
    """
    window = Window(tracer is not None)
    before = warm_probe()
    if tracer is not None:
        tracer.install()
    done = []
    end = time.perf_counter() + seconds
    while True:
        elapsed, scaled, before, result, error = timed_op(wl, k, before)
        if tracer is not None:
            done.append((k, result, error))
        else:
            check_op(wl, tally, k, result, error)
        window.states += wl.states_per_op
        window.raw.append(elapsed)
        window.scaled.append(scaled)
        k += 1
        if k % wl.group == 0 and time.perf_counter() >= end:
            break
    if tracer is not None:
        tracer.uninstall()
    for op in done:
        check_op(wl, tally, *op)
    return window, k


def rate(windows: list[Window], traced: bool) -> float:
    """States per second over the chosen windows' scaled op time."""
    chosen = [w for w in windows if w.traced == traced]
    return sum(w.states for w in chosen) / sum(sum(w.scaled) for w in chosen)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(wl, tally, args) -> dict:
    """PASSES passes over the same ops: the first runs new ops for
    seconds / PASSES, the others run them again in the same order. An op's
    runs thus lie seconds apart, and its latency, the fastest of them, sheds a
    slowdown of the host that hits one run. SETUP_RUNS set-up processes run at
    equal marks of the run's clock, which leaves out their own time."""
    child = setup_child(wl.name, args.seed, tally)
    first = wl.gate_ops
    start = time.perf_counter()
    setup = []  # (unscaled, scaled) seconds
    setup_wall = 0.0

    def clock() -> float:
        return time.perf_counter() - start - setup_wall

    def schedule():
        k = first
        while True:
            yield k
            k += 1
            if (k - first) % wl.group == 0 and clock() >= args.seconds / PASSES:
                break
        for _ in range(PASSES - 1):
            yield from range(first, k)

    raw: dict[int, list[float]] = {}  # op -> seconds of each run
    scaled: dict[int, list[float]] = {}
    before = warm_probe()
    for k in schedule():
        if len(setup) < SETUP_RUNS and clock() >= args.seconds * len(setup) / SETUP_RUNS:
            child_start = time.perf_counter()
            setup.append(child())
            before = warm_probe()
            setup_wall += time.perf_counter() - child_start
        elapsed, op_scaled, before, result, error = timed_op(wl, k, before)
        check_op(wl, tally, k, result, error)
        raw.setdefault(k, []).append(elapsed)
        scaled.setdefault(k, []).append(op_scaled)
    while len(setup) < SETUP_RUNS:  # time marks that the passes did not reach
        setup.append(child())

    def summary(times):
        """states per second of op time, then p50 and p99 of the ops' fastest runs in us"""
        busy = sum(sum(v) for v in times.values())
        fastest = np.array([min(v) for v in times.values()]) * 1e6
        return [len(times) * PASSES * wl.states_per_op / busy, *np.percentile(fastest, [50, 99])]

    states_per_s, p50, p99 = summary(scaled)
    raw_rate, raw50, raw99 = summary(raw)
    print(f"timed ops: {len(scaled)} x {PASSES} runs ({len(scaled) * PASSES * wl.states_per_op} states), "
          f"{len(scaled) // 100} beyond p99")  # fmt: skip
    print(
        f"unscaled: states_per_s {raw_rate:.6g}, latency_p50_us {raw50:.6g}, "
        f"latency_p99_us {raw99:.6g}, setup_s {statistics.median(u for u, _ in setup):.6g}"
    )
    return {
        "states_per_s": metric(states_per_s, "states/s"),
        "latency_p50_us": metric(p50, "us"),
        "latency_p99_us": metric(p99, "us"),
        "setup_s": metric(statistics.median(s for _, s in setup), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(wl, tally, args) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    k = wl.gate_ops
    misses = tracer.unwrapped_calls(lambda: check_op(wl, tally, k, *run_op(wl, k)[1:]))
    if tracer.missing:
        print(f"bench: trace targets missing from naqc: {', '.join(tracer.missing)}", file=sys.stderr)
    if misses:
        tally.record("tracer cross-check", [f"calls that bypassed the wrappers: {dict(misses)}"])
    tracer.reset()
    windows = []
    k += wl.group
    for w in range(WINDOWS):  # odd windows are traced
        window, k = run_window(wl, tally, k, args.seconds / WINDOWS, tracer if w % 2 else None)
        windows.append(window)
    traced = [w for w in windows if w.traced]
    states = sum(w.states for w in traced)
    scale = sum(sum(w.scaled) for w in traced) / sum(sum(w.raw) for w in traced)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{wl.name}.npz"
    tracer.save(spans_path)
    print(f"traced states: {states}, spans: {tracer.nspans}, written to {spans_path.relative_to(ROOT)}")

    per_state = {
        layer: {"us": entry["self_s"] * scale * 1e6 / states, "calls": entry["calls"] / states}
        for layer, entry in tracer.layer_metrics().items()
    }
    mismatch = {
        layer: (round(per_state[layer]["calls"], 6), expected)
        for layer, expected in BASELINE_CALLS[wl.name].items()
        if abs(per_state[layer]["calls"] - expected) > 1e-9
    }
    if mismatch:
        print(f"bench: calls per state differ from the baseline (seen, baseline): {mismatch}", file=sys.stderr)

    def us(layer):
        return metric(per_state[layer]["us"], "us")

    def calls(layer):
        return metric(per_state[layer]["calls"], "count")

    keep = tracer.branches_kept / tracer.branches_attempted if tracer.branches_attempted else 0.0
    return {
        "states.sample_us": us("states.sample"),
        "states.sample_calls": calls("states.sample"),
        "qcore.validate_us": us("qcore.validate"),
        "qcore.validate_calls": calls("qcore.validate"),
        "qcore.bloch_us": us("qcore.bloch"),
        "qcore.bloch_calls": calls("qcore.bloch"),
        "qcore.linalg_us": us("qcore.linalg"),
        "steering.condition_us": us("steering.condition"),
        "steering.condition_calls": calls("steering.condition"),
        "steering.shift_us": us("steering.shift"),
        "steering.report_us": us("steering.report"),
        "steering.branch_keep_ratio": metric(keep, "ratio"),
        "coherence.eval_us": us("coherence.eval"),
        "coherence.eval_calls": calls("coherence.eval"),
        "cli.driver_us": us("cli.driver"),
        "trace.overhead_frac": metric(1.0 - rate(windows, True) / rate(windows, False), "ratio"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "naqc" / "__init__.py").is_file():
        print(f"bench: no naqc sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import naqc
    import workloads

    if Path(naqc.__file__).resolve().parent != (SRC / "naqc").resolve():
        print(f"bench: imported naqc from {naqc.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    print(f"naqc bench: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env: " + json.dumps(environment(np.__version__), sort_keys=True))
    wl = workloads.make(args.workload, args.seed)
    tally = Tally()
    for k in range(wl.gate_ops):  # the reference gate, which also warms up
        check_op(wl, tally, k, *run_op(wl, k)[1:])
        probe()
    metrics = (per_layer if args.trace else end_to_end)(wl, tally, args)

    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':28s} {tally.failed / tally.attempted:.6g} ratio ({tally.failed} of {tally.attempted} ops)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
