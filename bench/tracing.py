"""Spans and counters for the traced run.

Wrappers go around each cstarfix module's public functions (and the
``__call__`` of distances, operators, penalties and combiners) from the
benchmark's side: nothing under ``src/`` knows about tracing. They are
installed only by a traced run, after its untraced passes are done.

A span is (name, start, end, parent, verdict id); spans live in flat
arrays in memory and are written out once the run ends. A layer's self
time is its spans' duration minus the part covered by their child spans.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

from expect import DEMO_STAGES

KINDS = ("scalar", "vector", "matrix")


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.reset()

    def reset(self) -> None:
        self.name = array("i")
        self.parent = array("q")
        self.verdict = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list = []
        self.current_verdict = -1
        self.units: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        sid = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.verdict.append(self.current_verdict)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def top_name(self) -> int:
        return self.name[self.stack[-1]] if self.stack else -1

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "verdict": np.frombuffer(self.verdict, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    covered = np.zeros_like(duration)
    child = parent >= 0
    np.add.at(covered, parent[child], duration[child])
    return duration - covered


def under(parent: np.ndarray, member: np.ndarray) -> np.ndarray:
    """Spans with a member among their ancestors (parents precede children)."""
    inside = np.zeros(len(parent), dtype=bool)
    for i, p in enumerate(parent.tolist()):
        if p >= 0:
            inside[i] = inside[p] or member[p]
    return inside


def outermost(parent: np.ndarray, member: np.ndarray) -> np.ndarray:
    """Members with no member among their ancestors."""
    return member & ~under(parent, member)


# ---------------------------------------------------------------------------
# wrappers


def _wrap(tracer: Tracer, fn, name, units=None, on_result=None):
    """Span around fn. ``name`` is a string or a function of the call's
    arguments; a call nested directly in a span of the same name is part of
    that span. ``units(bound_args)`` adds to the span name's unit count and
    ``on_result(result)`` to its counters."""
    static = tracer.name_id(name) if isinstance(name, str) else None
    sig = inspect.signature(fn) if units is not None else None

    def wrapper(*args, **kwargs):
        nid = static if static is not None else tracer.name_id(name(args, kwargs))
        if tracer.top_name() == nid:
            return fn(*args, **kwargs)
        if sig is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            tracer.units[nid] += units(bound.arguments)
        sid = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if on_result is not None:
            on_result(result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _replace(original, wrapper, restore: list) -> None:
    """Point every cstarfix module global bound to ``original`` at ``wrapper``."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "cstarfix" and not mod_name.startswith("cstarfix."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                restore.append((module, attr, original))


def _algebra_name(fn_name: str, arg_index: int):
    names = {k: f"algebra.{fn_name}.{k}" for k in KINDS}

    def name(args, kwargs):
        return names[args[arg_index].kind]

    return name


def install(tracer: Tracer):
    """Install every wrapper; returns a function that removes them."""
    from cstarfix import (algebra, cli, contractions, demos, partial, registry, solver,
                          spaces)

    restore: list = []

    def wrap_function(module, attr, name, **hooks):
        original = getattr(module, attr)
        _replace(original, _wrap(tracer, original, name, **hooks), restore)

    def wrap_method(cls, attr, name):
        original = cls.__dict__[attr]
        setattr(cls, attr, _wrap(tracer, original, name))
        restore.append((cls, attr, original))

    samples = {"units": lambda a: a["sample_count"]}
    special = {
        (spaces, "check_partial_axioms"): ("spaces.axioms", samples),
        (spaces, "check_metric_axioms"): ("spaces.axioms", samples),
        (contractions, "verify_contraction"): ("contractions.verify", samples),
        (contractions, "inequality_sides"): (
            "contractions.inequality_sides",
            {"units": lambda a: 1 if a["y"] is None else 2}),
        (partial, "verify_corollary_hypothesis"): ("partial.verify", samples),
        (partial, "corollary_sides"): ("partial.corollary_sides", {}),
        (solver, "picard_solve"): ("solver.picard", {"on_result": _count_iterations(tracer)}),
        (registry, "get_space"): ("registry.build", {}),
        (registry, "get_operator"): ("registry.build", {}),
        (registry, "get_phi"): ("registry.build", {}),
        (registry, "get_combiner"): ("registry.build", {}),
        (cli, "main"): ("cli.main", {}),
    }
    for (module, attr), (name, hooks) in special.items():
        wrap_function(module, attr, name, **hooks)

    element_fns = ("add", "sub", "mul", "involution", "spectrum", "is_self_adjoint",
                   "is_positive", "leq", "norm", "sqrt_positive", "abs_element",
                   "element_to_dict", "max_asymmetry")
    for attr in element_fns:
        wrap_function(algebra, attr, _algebra_name(attr, 0))
    wrap_function(algebra, "scale", _algebra_name("scale", 1))

    wrap_function(demos, "run_demo",
                  lambda args, kwargs: f"demos.run_demo.{args[0] if args else kwargs['demo_id']}")

    for module in (spaces, contractions, partial, solver):
        layer = module.__name__.rsplit(".", 1)[1]
        for attr in module.__all__:
            obj = getattr(module, attr)
            if (module, attr) in special or not inspect.isfunction(obj):
                continue
            wrap_function(module, attr, f"{layer}.{attr}")

    wrap_method(spaces.ValuedDistance, "__call__", "spaces.distance")
    wrap_method(spaces.Interval, "sample", "spaces.sample")
    wrap_method(spaces.Box, "sample", "spaces.sample")
    for cls in (contractions.FFunction, contractions.PhiFunction, contractions.OperatorSpec):
        wrap_method(cls, "__call__", "contractions.callables")

    linalg = np.linalg
    eigvalsh, norm = linalg.eigvalsh, linalg.norm

    def counted_eigvalsh(*args, **kwargs):
        tracer.counts["eigvalsh"] += 1
        return eigvalsh(*args, **kwargs)

    def counted_norm(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2:
            tracer.counts["svd_norm"] += 1
        return norm(x, ord, *args, **kwargs)

    linalg.eigvalsh, linalg.norm = counted_eigvalsh, counted_norm
    restore += [(linalg, "eigvalsh", eigvalsh), (linalg, "norm", norm)]

    def uninstall():
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)

    return uninstall


def _count_iterations(tracer: Tracer):
    def on_result(cert):
        tracer.counts["iterations"] += cert.iterations
        tracer.counts["trace_rows"] += len(cert.recorded_indices)
    return on_result


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass


UNITS = {
    "calls": "count", "us_per_call": "us", "self_s": "s", "s": "s",
    "samples_per_s": "1/s", "iter_per_s": "1/s", "iterations": "count",
    "trace_rows": "count", "drawn_used_ratio": "ratio", "calls_per_sample": "ratio",
    "inclusive_share": "ratio", "build_s": "s", "output_bytes": "bytes",
    "overhead_s": "s", "spans": "count",
}


def metric_unit(name: str) -> str:
    parts = name.split(".")
    for part in reversed(parts):
        if part in UNITS:
            return UNITS[part]
    raise KeyError(name)


def layer_metrics(tracer: Tracer, wall_s: float, samples: int, output_bytes: int) -> dict:
    """Per-layer metrics from the spans and counters of one traced pass."""
    spans = tracer.arrays()
    names = tracer.names
    duration = spans["end"] - spans["start"]
    own = self_times(spans["parent"], duration)
    n_names = len(names)
    calls = np.bincount(spans["name"], minlength=n_names)
    total = np.bincount(spans["name"], weights=duration, minlength=n_names)
    self_total = np.bincount(spans["name"], weights=own, minlength=n_names)
    ids = {n: i for i, n in enumerate(names)}

    def count(name):
        return int(calls[ids[name]]) if name in ids else 0

    def inclusive(name):
        return float(total[ids[name]]) if name in ids else 0.0

    def self_s(prefix):
        return float(sum(self_total[i] for n, i in ids.items() if n.startswith(prefix)))

    def rate(units, seconds):
        return units / seconds if seconds > 0 else 0.0

    def units(name):
        return tracer.units.get(ids.get(name, -1), 0.0)

    out = {}
    for kind in KINDS:
        leq = f"algebra.leq.{kind}"
        out[f"algebra.leq.calls.{kind}"] = count(leq)
        out[f"algebra.leq.us_per_call.{kind}"] = (
            1e6 * inclusive(leq) / count(leq) if count(leq) else 0.0)
    out["algebra.norm.calls.matrix"] = count("algebra.norm.matrix")
    out["algebra.self_s"] = self_s("algebra.")
    eig, svd = tracer.counts["eigvalsh"], tracer.counts["svd_norm"]
    out["algebra.linalg.eigvalsh.calls"] = eig
    out["algebra.linalg.svd_norm.calls"] = svd
    out["algebra.linalg.calls_per_sample"] = (eig + svd) / samples if samples else 0.0

    def share(named):
        """Time in the outermost spans whose name satisfies ``named``, over wall_s."""
        member = np.array([named(n) for n in names], dtype=bool)[spans["name"]]
        return float(duration[outermost(spans["parent"], member)].sum() / wall_s)

    out["algebra.matrix.inclusive_share"] = share(
        lambda n: n.startswith("algebra.") and n.endswith(".matrix"))

    out["spaces.distance.calls"] = count("spaces.distance")
    out["spaces.distance.self_s"] = self_s("spaces.distance")
    out["spaces.sample.calls"] = count("spaces.sample")
    out["spaces.sample.self_s"] = self_s("spaces.sample")
    out["spaces.axioms.samples_per_s"] = rate(units("spaces.axioms"), inclusive("spaces.axioms"))

    verify = "contractions.verify"
    out["contractions.verify.samples_per_s"] = rate(units(verify), inclusive(verify))
    out["contractions.inequality_sides.calls"] = count("contractions.inequality_sides")
    out["contractions.inequality_sides.self_s"] = self_s("contractions.inequality_sides")
    out["contractions.callables.self_s"] = self_s("contractions.callables")
    out["contractions.check_F_axioms.s"] = inclusive("contractions.check_F_axioms")
    out["contractions.verify.drawn_used_ratio"] = _drawn_used_ratio(
        spans, ids, units("contractions.inequality_sides"))

    out["partial.verify.samples_per_s"] = rate(units("partial.verify"), inclusive("partial.verify"))
    out["partial.corollary_sides.self_s"] = self_s("partial.corollary_sides")
    out["partial.solve_partial.s"] = inclusive("partial.solve_partial")

    out["solver.picard.iterations"] = tracer.counts["iterations"]
    out["solver.picard.iter_per_s"] = rate(tracer.counts["iterations"], inclusive("solver.picard"))
    out["solver.bound_audit.s"] = inclusive("solver.bound_audit")
    out["solver.trace_rows"] = tracer.counts["trace_rows"]
    out["solver.inclusive_share"] = share(lambda n: n.startswith("solver."))

    for demo_id in sorted(DEMO_STAGES):
        out[f"demos.run_demo.s.{demo_id}"] = inclusive(f"demos.run_demo.{demo_id}")
    out["cli.self_s"] = self_s("cli.main")
    out["cli.output_bytes"] = output_bytes
    out["trace.spans"] = len(duration)
    return out


def _drawn_used_ratio(spans: dict, ids: dict, used_points: float) -> float:
    """Points evaluated by verify_contraction over points it drew."""
    if "contractions.verify" not in ids or "spaces.sample" not in ids:
        return 0.0
    name = spans["name"]
    in_verify = under(spans["parent"], name == ids["contractions.verify"])
    drawn = int(np.count_nonzero(in_verify & (name == ids["spaces.sample"])))
    return used_points / drawn if drawn else 0.0
