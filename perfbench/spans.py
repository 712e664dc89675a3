"""Span tracer for the bohmvel benchmark.

The tracer wraps, from outside the package, every public function defined
in each bohmvel layer module plus the class methods that carry the hot
work, and records one span per call: (id, parent id, name, start, end).
Spans stay in memory and are written out once, when the experiment ends.

``from .guidance import integrate_ensemble`` copies a binding into the
importing module, so patching only the defining module would miss calls.
``install`` therefore replaces every binding of a wrapped function in every
loaded ``bohmvel`` module. ``run.py`` fails a traced run whose span counts
differ from what the workload implies, which is how a missed binding shows.

Parent links come from a per-thread stack. ``foliation_sweep`` runs its
pipelines on ``ThreadPoolExecutor`` threads, which start with an empty
stack; a span opened on such a thread is attributed to the innermost open
fan-out span (the sweep) instead of becoming a root.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time

LAYERS = ("core", "wavefunction", "guidance", "pipeline", "asymptotics", "stats", "relativity")

# Class methods wrapped on the class, as (module, class, attribute).
METHODS = (
    ("core", "SampledTrajectory", "__init__"),
    ("core", "EmpiricalMeasure", "to_csv"),
    ("core", "EnsembleRun", "save"),
    ("wavefunction", "SplitStepPropagator", "advance"),
    ("wavefunction", "DiracPropagator", "advance"),
    ("guidance", "FieldSnapshot", "__init__"),
    ("guidance", "FieldSnapshot", "evaluate"),
    ("asymptotics", "VelocityDistribution", "sample"),
    ("asymptotics", "VelocityDistribution", "as_measure"),
)
# cached_property whose getter builds the per-trajectory objects.
CACHED = (("guidance", "IntegrationResult", "trajectories"),)

# Spans whose callees may run on pool threads.
FANOUT = {"relativity.foliation_sweep"}


def _evaluate_points(args, kwargs, result, exc):
    points = args[1] if len(args) > 1 else kwargs["points"]
    return int(points.shape[0]) if getattr(points, "ndim", 1) == 2 else 1


def _csv_rows(args, kwargs, result, exc):
    return int(args[0].n_samples)


def _integration_diagnostics(args, kwargs, result, exc):
    if result is None:
        return None
    d = result.diagnostics
    return {
        "accepted": int(d.accepted_evaluations),
        "rejected": int(d.rejected_evaluations),
        "shrink": int(d.shrink_events.sum()),
        "frozen": int(d.frozen_steps.sum()),
        "failed_weight": float(d.failed_weight),
    }


def _fraction_converged(args, kwargs, result, exc):
    report = result[1] if result is not None else getattr(exc, "report", None)
    return None if report is None else float(report.fraction_converged)


# Values recorded beside a span, computed from the call's arguments, result
# or exception.
OBSERVERS = {
    "guidance.FieldSnapshot.evaluate": _evaluate_points,
    "core.EmpiricalMeasure.to_csv": _csv_rows,
    "guidance.integrate_ensemble": _integration_diagnostics,
    "asymptotics.estimate_asymptotic_measure": _fraction_converged,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.extra: dict[int, object] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._fanout: list[int] = []

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, name: str, fn):
        spans = self.spans
        observe = OBSERVERS.get(name)
        fanout = name in FANOUT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = self._stack()
            if st:
                parent = st[-1]
            elif threading.get_ident() != self._main and self._fanout:
                parent = self._fanout[-1]
            else:
                parent = 0
            sid = next(self._ids)
            st.append(sid)
            if fanout:
                self._fanout.append(sid)
            result = exc = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = time.perf_counter()
                st.pop()
                if fanout:
                    self._fanout.pop()
                spans.append((sid, parent, name, t0, t1))
                if observe is not None:
                    value = observe(args, kwargs, result, exc)
                    if value is not None:
                        self.extra[sid] = value

        return traced

    def install(self) -> None:
        """Wrap the layer functions and methods and rebind every reference."""
        mods = {name: sys.modules[f"bohmvel.{name}"] for name in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and attr[0] != "_":
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for layer, cls_name, attr in METHODS:
            cls = getattr(mods[layer], cls_name)
            setattr(cls, attr, self.wrap(f"{layer}.{cls_name}.{attr}", cls.__dict__[attr]))
        for layer, cls_name, attr in CACHED:
            prop = getattr(mods[layer], cls_name).__dict__[attr]
            prop.func = self.wrap(f"{layer}.{cls_name}.{attr}", prop.func)
        # Callers look names up in their own module, so rebind there too.
        for name, mod in list(sys.modules.items()):
            if name != "bohmvel" and not name.startswith("bohmvel."):
                continue
            for attr, obj in list(vars(mod).items()):
                # The originals stay alive in their wrappers, so ids are unique.
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])

    def export(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "extra": {str(k): v for k, v in self.extra.items()},
        }
