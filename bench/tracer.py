"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions of each naqc module from outside the
package: every loaded ``naqc`` module that holds a reference to a target
function gets the wrapper in its place, and methods are replaced on their
class. Each call then records one span (name, start, end, parent id) into
flat in-memory arrays. ``layer_metrics`` turns the spans into self time and
call counts per layer, and ``save`` writes them out once the run ends.

Layers are the package's modules. A target that no longer exists is listed in
``missing`` instead of failing the run. ``unwrapped_calls`` runs one op under
``sys.setprofile`` and counts calls that reached a target without passing
through its wrapper, which is how a name looked up somewhere the tracer did
not patch shows up.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (layer, module, attribute); "Class.method" names a method patched on its class.
TARGETS = (
    ("cli.driver", "naqc.cli", "main"),
    ("states.sample", "naqc.states", "random_pure"),
    ("states.sample", "naqc.states", "random_mixed"),
    ("qcore.validate", "naqc.qcore", "DensityMatrix.__init__"),
    ("qcore.bloch", "naqc.qcore", "BlochQubit.__init__"),
    ("qcore.linalg", "naqc.qcore", "kron"),
    ("qcore.linalg", "naqc.qcore", "projector"),
    ("qcore.linalg", "naqc.qcore", "partial_trace_matrix"),
    ("steering.condition", "naqc.steering", "conditional_states"),
    ("steering.shift", "naqc.steering", "shift_values"),
    ("steering.report", "naqc.steering", "steering_report"),
    ("steering.report", "naqc.steering", "tripartite_report"),
    ("coherence.eval", "naqc.coherence", "Measure.coherence"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

def _naqc_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if (name == "naqc" or name.startswith("naqc.")) and mod is not None
    ]


class Tracer:
    """Wraps the targets while installed and keeps every span in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []  # span name id -> "module.attribute"
        self.layer_of: list[str] = []  # span name id -> layer
        self.missing: list[str] = []
        self.branches_attempted = 0
        self.branches_kept = 0
        self._patches: list[tuple[object, str, object]] = []
        self._originals: dict[object, int] = {}  # code object -> name id
        self._wrapper_code = None
        self._ids = array("q")
        self._name = array("i")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.reset()

    def reset(self) -> None:
        """Drop every recorded span and branch count."""
        for arr in (self._ids, self._name, self._parent, self._start, self._end):
            del arr[:]
        del self._stack[1:]
        self._counter = itertools.count()
        self.branches_attempted = 0
        self.branches_kept = 0

    @property
    def nspans(self) -> int:
        return len(self._ids)

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        self.missing = []
        for layer, modname, attr in TARGETS:
            module = sys.modules.get(modname)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = None
            if owner is not None:
                original = (
                    owner.__dict__.get(member) if owner_name else getattr(owner, member, None)
                )
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            name_id = self._name_id(f"{modname}.{attr}", layer)
            wrapper = self._wrap(original, name_id, observe=attr == "conditional_states")
            code = getattr(original, "__code__", None)
            if code is not None:
                self._originals[code] = name_id
            if owner_name:
                self._patch(owner, member, wrapper)
                continue
            for mod in _naqc_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    def _patch(self, owner, key, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.layer_of.append(layer)
        return self.names.index(name)

    def _wrap(self, fn, name_id: int, observe: bool):
        stack = self._stack
        clock = time.perf_counter
        tracer = self
        add_id, add_name, add_parent = self._ids.append, self._name.append, self._parent.append
        add_start, add_end = self._start.append, self._end.append

        def traced(*args, **kwargs):
            span = next(tracer._counter)
            parent = stack[-1]
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if observe:
                    tracer._observe_branches(result)
                return result
            finally:
                end = clock()
                stack.pop()
                add_id(span)
                add_name(name_id)
                add_parent(parent)
                add_start(start)
                add_end(end)

        self._wrapper_code = traced.__code__
        return functools.wraps(fn)(traced)

    def _observe_branches(self, branches) -> None:
        try:
            kept = sum(1 for b in branches if b.probability > 0.0)
            self.branches_attempted += len(branches)
        except (AttributeError, TypeError):
            return
        self.branches_kept += kept

    # -- cross-check --------------------------------------------------------

    def unwrapped_calls(self, run) -> Counter:
        """Run ``run()`` installed and under a profiler; count target calls
        that did not come through a wrapper, by target name."""
        self.install()
        misses: Counter = Counter()
        originals = self._originals
        wrapper_code = self._wrapper_code

        def profile(frame, event, _arg):
            if event != "call":
                return
            name_id = originals.get(frame.f_code)
            if name_id is None:
                return
            caller = frame.f_back
            if caller is None or caller.f_code is not wrapper_code:
                misses[self.names[name_id]] += 1

        sys.setprofile(profile)
        try:
            run()
        finally:
            sys.setprofile(None)
            self.uninstall()
        return misses

    # -- results ------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """Spans ordered by id (ids are allocated in start order)."""
        ids = np.frombuffer(self._ids, dtype=np.int64)
        order = np.argsort(ids, kind="stable")
        return {
            "id": ids[order],
            "name": np.frombuffer(self._name, dtype=np.int32)[order],
            "parent": np.frombuffer(self._parent, dtype=np.int64)[order],
            "start": np.frombuffer(self._start, dtype=np.float64)[order],
            "end": np.frombuffer(self._end, dtype=np.float64)[order],
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), layers=np.array(self.layer_of), **self.spans())

    def layer_metrics(self) -> dict[str, dict[str, float]]:
        """Self time (s) and call count per layer over every recorded span.

        Self time is a span's duration minus that of its counted children.
        Two kinds of span are not counted on their own and stay in the
        enclosing span's self time: linalg called from outside steering,
        and a CLI command's epilogue, meaning sampling that starts after the
        command's last steering or coherence span (search re-derives its best
        state to print it), together with everything under it.
        """
        sp = self.spans()
        n = len(sp["id"])
        # every id drawn from the counter is recorded, so ids are 0..n-1 and
        # a span's id is its index; children have larger ids than parents
        parent = sp["parent"]
        has_parent = parent >= 0
        safe_parent = np.where(has_parent, parent, 0)
        layer_names = list(LAYERS)
        to_layer = np.array([layer_names.index(l) for l in self.layer_of], dtype=np.int64)
        layer = to_layer[sp["name"]] if n else np.zeros(0, dtype=np.int64)
        parent_layer = np.where(has_parent, layer[safe_parent] if n else layer, -1)
        start, end = sp["start"], sp["end"]

        def follow(values, step):
            """Apply ``step`` until the values stop changing (depth is small)."""
            while True:
                nxt = step(values)
                if np.array_equal(nxt, values):
                    return values
                values = nxt

        def ids_of(prefix):
            return [i for i, name in enumerate(layer_names) if name.startswith(prefix)]

        steering = ids_of("steering.")
        root = follow(
            np.where(has_parent, parent, np.arange(n)),
            lambda r: np.where(parent[r] >= 0, parent[r], r),
        )
        last_work = np.full(n, np.inf)
        work = np.isin(layer, steering + ids_of("coherence."))
        if work.any():
            last_work[np.unique(root[work])] = -np.inf
            np.maximum.at(last_work, root[work], end[work])

        hidden = np.isin(layer, ids_of("qcore.linalg")) & ~np.isin(parent_layer, steering)
        hidden |= (
            np.isin(layer, ids_of("states.sample"))
            & np.isin(parent_layer, ids_of("cli."))
            & (start > last_work[root])
        )
        hidden = follow(hidden, lambda h: h | (has_parent & h[safe_parent]))

        # nearest ancestor that is counted, or -1
        up = follow(
            parent.copy(),
            lambda p: np.where((p >= 0) & hidden[np.maximum(p, 0)], parent[np.maximum(p, 0)], p),
        )
        duration = end - start
        counted = ~hidden
        child_time = np.zeros(n)
        charged = counted & (up >= 0)
        np.add.at(child_time, up[charged], duration[charged])
        self_s = np.bincount(layer[counted], weights=(duration - child_time)[counted], minlength=len(LAYERS))
        calls = np.bincount(layer[counted], minlength=len(LAYERS))
        return {
            name: {"self_s": float(self_s[i]), "calls": int(calls[i])}
            for i, name in enumerate(layer_names)
        }
