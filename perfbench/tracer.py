"""In-memory span tracer for the package's public functions.

:class:`Tracer` is a context manager.  On entry it wraps every public
function defined in the traced modules, in every module of the package
that binds it (so calls through ``experiments``' own imports are seen
too), and on exit it puts the originals back.  Each call records a span
``(name, start, end, parent)`` where ``name`` is ``module.function`` and
``parent`` is the index of the enclosing span (-1 at top level).  A few
spans also add counters computed from their arguments or result.

The module then aggregates spans into per-layer figures: a layer's busy
time counts only its outermost spans (calls nested inside the same layer
are not counted twice), and a span's self time is its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import statistics
from collections import Counter
from time import perf_counter

PACKAGE = "excitonchain"
TRACED_MODULES = ("lattice", "hamiltonian", "environment", "spectral", "pme",
                  "brme", "experiments", "_io")


def _count_multiplets(es) -> int:
    """Degenerate excited multiplets at the spectral module's tolerance."""
    from excitonchain import spectral

    eps = es.excited_energies
    if not len(eps):
        return 0
    groups = spectral._group_ranges(
        eps, spectral._DEGENERACY_RTOL * max(1.0, float(abs(eps).max())))
    return sum(hi - lo > 1 for lo, hi in groups)


def _channels(tracer, idx, args, kwargs, result):
    tracer.counters["environment.channels"] += len(result)
    tracer.counters["environment.operator_bytes"] += sum(
        ch.operator.nbytes for ch in result if ch.operator is not None)


def _diagonalize(tracer, idx, args, kwargs, result):
    tracer.counters["spectral.degenerate_multiplets"] += _count_multiplets(
        result)


def _liouvillian(tracer, idx, args, kwargs, result):
    tracer.counters["brme.superop_bytes"] += result.matrix.nbytes


def _solve_point(tracer, idx, args, kwargs, result):
    from excitonchain.experiments import solve_point

    call = inspect.signature(solve_point).bind(*args, **kwargs)
    call.apply_defaults()
    a = call.arguments
    tracer.attrs[idx] = (a["kind"], int(a["n_cells"]), float(a["jb"]),
                         a["method"])


ANNOTATORS = {
    "environment.build_channels": _channels,
    "spectral.diagonalize": _diagonalize,
    "brme.build_liouvillian": _liouvillian,
    "experiments.solve_point": _solve_point,
}


class Tracer:
    """Wrap the package's public functions while the context is open."""

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.attrs: dict[int, tuple] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        annotate = ANNOTATORS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if annotate is not None:
                annotate(self, idx, args, kwargs, result)
            return result

        return wrapper

    def __enter__(self):
        package = importlib.import_module(PACKAGE)
        modules = [package] + [
            importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)]
        wrappers = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            layer = short.lstrip("_")
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(obj,
                                                         f"{layer}.{attr}"))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)][1])
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def write(self, handle, tag) -> None:
        """Append one JSON line [tag, id, name, start, end, parent] a span."""
        for idx, (name, start, end, parent) in enumerate(self.spans):
            handle.write(json.dumps([tag, idx, name, start, end, parent])
                         + "\n")


def _outermost(spans, selected) -> list[int]:
    """Indices of selected spans that have no selected ancestor."""
    inside = [False] * len(spans)
    out = []
    for idx, (name, _, _, parent) in enumerate(spans):
        hit = selected(name)
        covered = parent >= 0 and inside[parent]
        inside[idx] = hit or covered
        if hit and not covered:
            out.append(idx)
    return out


def _busy(spans, selected) -> tuple[float, int]:
    idx = _outermost(spans, selected)
    return sum(spans[i][2] - spans[i][1] for i in idx), len(idx)


def _self_time(spans, selected) -> float:
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return sum(end - start - child_time[i]
               for i, (name, start, end, _) in enumerate(spans)
               if selected(name))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer busy times, call counts and counters of one traced pass."""
    spans = tracer.spans

    def module(prefix):
        return lambda name: name.startswith(prefix + ".")

    def exact(target):
        return lambda name: name == target

    out: dict[str, float] = {}
    for key, selected in (("lattice", module("lattice")),
                          ("hamiltonian", module("hamiltonian")),
                          ("environment", module("environment")),
                          ("spectral.diagonalize",
                           exact("spectral.diagonalize")),
                          ("spectral.rates",
                           exact("spectral.transition_matrix")),
                          ("pme", module("pme")),
                          ("brme.build", exact("brme.build_liouvillian")),
                          ("brme.solve", exact("brme.brme_steady_state")),
                          ("io", module("io"))):
        busy, calls = _busy(spans, selected)
        out[f"{key}.busy_s"] = busy
        out[f"{key}.calls"] = calls
    out["experiments.self_s"] = _self_time(spans, module("experiments"))
    for name in ("environment.channels", "environment.operator_bytes",
                 "spectral.degenerate_multiplets", "brme.superop_bytes"):
        out[name] = float(tracer.counters[name])
    return out


STAGES = (("ham", ("hamiltonian.build_hamiltonian",
                   "hamiltonian.apply_disorder")),
          ("diag", ("spectral.diagonalize",)),
          ("channels", ("environment.build_channels",)),
          ("rates", ("spectral.transition_matrix",)),
          ("solve", ("pme.solve_steady_state",)),
          ("brme_build", ("brme.build_liouvillian",)),
          ("brme_solve", ("brme.brme_steady_state",)))


def point_stages(tracer: Tracer) -> list[tuple[tuple, dict[str, float]]]:
    """Stage times (s) of every ``experiments.solve_point`` call."""
    spans = tracer.spans
    stage_of = {name: stage for stage, names in STAGES for name in names}
    owner = [-1] * len(spans)
    in_stage = [False] * len(spans)
    times: dict[int, Counter] = {}
    for idx, (name, start, end, parent) in enumerate(spans):
        if idx in tracer.attrs:
            owner[idx] = idx
            times[idx] = Counter(total=end - start)
            continue
        up = owner[parent] if parent >= 0 else -1
        up_stage = parent >= 0 and in_stage[parent]
        owner[idx] = up
        in_stage[idx] = up_stage or name in stage_of
        if up >= 0 and name in stage_of and not up_stage:
            times[up][stage_of[name]] += end - start
    return [(tracer.attrs[idx], dict(t)) for idx, t in times.items()]


def stage_table(samples, points, method: str) -> list[dict]:
    """Median ms per stage for the requested (geometry, n_cells) points.

    ``samples`` holds one :func:`point_stages` result per traced pass; a
    point's calls at every jb value of the workload count as samples.
    """
    rows = []
    for kind, n_cells in points:
        runs = [t for sample in samples for (k, n, _, m), t in sample
                if (k, n, m) == (kind, n_cells, method)]
        if not runs:
            continue
        row = {"system": f"{kind} N={n_cells}", "samples": len(runs)}
        for stage in sorted({s for t in runs for s in t}):
            row[f"{stage}_ms"] = 1e3 * statistics.median(
                t.get(stage, 0.0) for t in runs)
        rows.append(row)
    return rows
