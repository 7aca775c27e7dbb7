"""Spans and counters recorded around effham's layers from outside the package.

``Tracer.install()`` wraps every public function of the traced modules, and
the methods named in ``METHODS``, in a timing span.  The package imports
names into other modules (``allocate_time`` lives in ``action`` and in
``mather``, ``minimal_action_graph`` in ``action`` and in ``homogenize``, and
so on), so the wrapper replaces every binding in every effham module that
holds the original.  scipy's ``minimize``, ``brentq`` and ``linprog`` are
wrapped on ``scipy.optimize`` and attributed to the effham module that called
them, labelled by method (``action.lbfgsb``, ``mather.slsqp``,
``action.brentq``).  ``uninstall()`` restores everything.

A span's inclusive time counts only its outermost activation; its self time is
its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

PACKAGE = "effham"
MODULES = ("config", "model", "topology", "action", "mather", "homogenize", "cli")

# (module, class, method, span name); both cover classes share one span name
METHODS = (
    ("config", "ScenarioConfig", "scenario", "config.scenario"),
    ("config", "ScenarioConfig", "beta_evaluator", "config.beta_evaluator"),
    ("model", "TrigPolynomial", "value_many", "model.TrigPolynomial.value_many"),
    ("model", "TrigPolynomial", "gradient_many",
     "model.TrigPolynomial.gradient_many"),
    ("topology", "GraphCover", "distance", "topology.distance"),
    ("topology", "TorusCover", "distance", "topology.distance"),
    ("mather", "DirectBetaEvaluator", "value", "mather.DirectBetaEvaluator.value"),
    ("mather", "LegendreDual", "__init__", "mather.LegendreDual.build"),
    ("mather", "LegendreDual", "value", "mather.LegendreDual.value"),
    ("mather", "MechanicalBeta1D", "value", "mather.MechanicalBeta1D.value"),
)

SCIPY_SOLVERS = ("minimize", "brentq", "linprog")

# spans whose per-call durations are kept for percentiles
KEEP_DURATIONS = ("action.minimal_action_graph", "action.allocate_time",
                  "mather.beta_graph", "topology.distance")

# spans that sit directly under a command and make up its time
ROOT_SPAN = "cli.run"


class SpanStats:
    __slots__ = ("calls", "inclusive", "self_time", "durations")

    def __init__(self, keep: bool):
        self.calls = 0
        self.inclusive = 0.0
        self.self_time = 0.0
        self.durations = [] if keep else None


def _rows(args) -> int:
    # value_many/gradient_many(self, xs) read xs as rows of points
    shape = np.shape(args[1])
    return int(shape[0]) if len(shape) > 1 else 1


def _count_rows(tracer, name, result, args):
    tracer.count(name + ".rows", _rows(args))


def _count_lax(tracer, name, result, args):
    if hasattr(result, "candidates"):
        tracer.count("action.lax.candidates", result.candidates)
        tracer.count("action.lax.evaluated", result.evaluated)


def _count_minimize(tracer, name, result):
    tracer.count(name + ".nit", int(getattr(result, "nit", 0)))
    tracer.count(name + ".nfev", int(getattr(result, "nfev", 0)))
    tracer.count(name + ".unconverged", int(not result.success))


AFTER = {
    "model.TrigPolynomial.value_many": _count_rows,
    "model.TrigPolynomial.gradient_many": _count_rows,
    "action.lax_oleinik": _count_lax,
}


def _method_label(method) -> str:
    if method is None:
        return "minimize"
    return str(method).lower().replace("-", "")


class Tracer:
    """In-memory spans for one traced pass; see the module docstring."""

    def __init__(self):
        self.stats = {}
        self.counts = {}
        self.edges = {}
        self._stack = []
        self._depth = {}
        self._patches = []

    # -- recording -------------------------------------------------------

    def count(self, key: str, n=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _enter(self, name: str) -> list:
        self._depth[name] = self._depth.get(name, 0) + 1
        frame = [name, 0.0, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        name, child, start = frame
        duration = end - start
        stack = self._stack
        stack.pop()
        depth = self._depth[name] - 1
        self._depth[name] = depth
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats(name in KEEP_DURATIONS)
        st.calls += 1
        st.self_time += duration - child
        if depth == 0:
            st.inclusive += duration
        if st.durations is not None:
            st.durations.append(duration)
        parent = None
        if stack:
            stack[-1][1] += duration
            parent = stack[-1][0]
        edge = self.edges.get((parent, name))
        if edge is None:
            self.edges[(parent, name)] = [1, duration]
        else:
            edge[0] += 1
            edge[1] += duration

    def wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(tracer, name, result, args)
            return result

        return traced

    def _wrap_solver(self, solver: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if not caller.startswith(PACKAGE + "."):
                return fn(*args, **kwargs)
            label = solver
            if solver == "minimize":
                label = _method_label(kwargs.get("method",
                                                 args[3] if len(args) > 3 else None))
            name = caller.rsplit(".", 1)[-1] + "." + label
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if solver == "minimize":
                _count_minimize(tracer, name, result)
            return result

        return traced

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the traced names at every binding in the package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    wrappers[obj] = self.wrap(name, obj, AFTER.get(name))
        package = [mod for key, mod in sorted(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        for short, cls_name, method, name in METHODS:
            cls = getattr(modules[short], cls_name)
            self._patch(cls, method,
                        self.wrap(name, cls.__dict__[method], AFTER.get(name)))
        optimize = importlib.import_module("scipy.optimize")
        for solver in SCIPY_SOLVERS:
            self._patch(optimize, solver,
                        self._wrap_solver(solver, getattr(optimize, solver)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------

    def first_level_seconds(self) -> float:
        """Time in spans that have no parent span but the command dispatch."""
        return sum(t for (parent, name), (_, t) in self.edges.items()
                   if parent in (None, ROOT_SPAN) and name != ROOT_SPAN)

    def child_calls(self, parent: str, name: str) -> int:
        return self.edges.get((parent, name), (0, 0.0))[0]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a list of numbers (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


_FIELDS = {"calls", "s", "self_s", "p50_us", "p99_us"}


def layer_metric(tracer: Tracer, name: str) -> float:
    """Value of one per-layer metric, by name, from a traced pass.

    ``<span>.calls|s|self_s|p50_us|p99_us`` read the span statistics; other
    names read the counters, or are the two derived ratios below.
    """
    if name == "action.lax.evaluated_ratio":
        candidates = tracer.counts.get("action.lax.candidates", 0)
        evaluated = tracer.counts.get("action.lax.evaluated", 0)
        return evaluated / candidates if candidates else 0.0
    if name == "mather.beta_cache_hit_ratio":
        calls = _stat(tracer, "mather.DirectBetaEvaluator.value").calls
        misses = tracer.child_calls("mather.DirectBetaEvaluator.value",
                                    "mather.beta_graph")
        return (calls - misses) / calls if calls else 0.0
    if name == "mather.LegendreDual.build_s":
        return _stat(tracer, "mather.LegendreDual.build").inclusive
    if name in tracer.counts:
        return float(tracer.counts[name])
    span, _, field = name.rpartition(".")
    if field not in _FIELDS:
        if field in ("rows", "nit", "nfev", "unconverged", "candidates", "evaluated"):
            return 0.0
        raise KeyError(f"no per-layer metric named {name!r}")
    st = _stat(tracer, span)
    if field == "calls":
        return float(st.calls)
    if field == "s":
        return st.inclusive
    if field == "self_s":
        return st.self_time
    if st.durations is None:
        raise KeyError(f"span {span!r} keeps no durations for {name!r}")
    return 1e6 * percentile(st.durations, 50.0 if field == "p50_us" else 99.0)


def _stat(tracer: Tracer, span: str) -> SpanStats:
    return tracer.stats.get(span) or SpanStats(span in KEEP_DURATIONS)
