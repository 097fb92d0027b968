"""Spans around the public calls into each subnewton layer, recorded from
outside the package.

Wrappers replace functions under the names the calling module binds (for
example ``subnewton.solvers.solve_inexact``), so the package runs unchanged.
Spans stay in memory; ``write`` dumps them once the run is over.  A span's
``count`` holds the work it did where a count exists: CG iterations for
``solve_inexact``, Hessian rows for ``subsampled_hessian`` and Armijo trials
for ``armijo``.
"""

from __future__ import annotations

import contextlib
import json
import time

from subnewton import linsolve, solvers
from subnewton.model import ObjectiveModel

# (owner, attribute, span name); the span's layer is the part before the dot
TARGETS = (
    (solvers, "draw", "sampling.draw"),
    (solvers, "subsampled_hessian", "sampling.subsampled_hessian"),
    (solvers, "min_eigenvalue", "regularize.min_eigenvalue"),
    (solvers, "spectral_floor", "regularize.spectral_floor"),
    (solvers, "ridge", "regularize.ridge"),
    (solvers, "solve_inexact", "linsolve.solve_inexact"),
    (solvers, "solve_exact", "linsolve.solve_exact"),
    (solvers, "verify_inexact", "linsolve.verify_inexact"),
    # the exact solve solve_inexact falls back to when CG misses theta1
    (linsolve, "solve_exact", "linsolve.solve_exact"),
    (solvers, "armijo", "linesearch.armijo"),
    (ObjectiveModel, "value", "model.value"),
    (ObjectiveModel, "gradient", "model.gradient"),
    (ObjectiveModel, "curvature_constants", "model.curvature_constants"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "solve", "count")

    def __init__(self, name, parent, solve):
        self.name = name
        self.parent = parent
        self.solve = solve
        self.count = 0
        self.start = self.end = 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * 1e-9


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.solve = None

    @contextlib.contextmanager
    def span(self, name):
        span = Span(name, self._open[-1] if self._open else None, self.solve)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        span.start = time.perf_counter_ns()
        try:
            yield span
        finally:
            span.end = time.perf_counter_ns()
            self._open.pop()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name) as span:
                out = fn(*args, **kwargs)
                if name == "sampling.subsampled_hessian":
                    span.count = int(args[2].indices.size)
                elif name == "linesearch.armijo":
                    span.count = int(out[1])
                return out
        return traced

    def _count_cg(self, fn):
        def cg_iterates(*args, **kwargs):
            span = self.spans[self._open[-1]]
            for item in fn(*args, **kwargs):
                span.count += 1
                yield item
        return cg_iterates

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in TARGETS]
        saved.append((linsolve, "_cg_iterates", linsolve._cg_iterates))
        try:
            for owner, attr, name in TARGETS:
                setattr(owner, attr, self._wrap(name, owner.__dict__[attr]))
            linsolve._cg_iterates = self._count_cg(linsolve._cg_iterates)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start_ns": s.start,
                                     "end_ns": s.end, "parent": s.parent,
                                     "solve": s.solve, "count": s.count}) + "\n")


def solve_layers(spans: list[Span], root: int, trace) -> dict:
    """Per-layer metrics of one traced solve.

    ``spans`` is the whole list, ``root`` the index of the solve's
    ``solvers.run`` span and ``trace`` the Trace it returned.  A layer's
    time (``<layer>.s``) counts its outermost spans; its self time subtracts
    the spans of other layers nested inside.
    """
    mine = [i for i in range(root, len(spans)) if spans[i].solve == spans[root].solve]
    child_s = {i: 0.0 for i in mine}
    for i in mine:
        if spans[i].parent is not None:
            child_s[spans[i].parent] += spans[i].seconds

    def named(name):
        return [spans[i] for i in mine if spans[i].name == name]

    def layer_s(layer):
        return sum(spans[i].seconds for i in mine if spans[i].layer == layer
                   and (spans[i].parent is None or spans[spans[i].parent].layer != layer))

    def self_s(layer):
        return sum(spans[i].seconds - child_s[i] for i in mine if spans[i].layer == layer)

    def under(name, parent_name):
        return sum(1 for s in named(name)
                   if s.parent is not None and spans[s.parent].name == parent_name)

    inexact = named("linsolve.solve_inexact")
    fallbacks = under("linsolve.solve_exact", "linsolve.solve_inexact")
    value_calls = len(named("model.value"))
    gradient_calls = len(named("model.gradient"))
    armijo = named("linesearch.armijo")
    wall_s = spans[root].seconds
    clocked_s = trace.records[-1].wall_nanos * 1e-9
    curvature_s = sum(s.seconds for s in named("model.curvature_constants"))
    return {
        "linsolve.s": layer_s("linsolve"),
        "linsolve.cg_iters": sum(s.count for s in inexact),
        "linsolve.inexact_calls": len(inexact),
        "linsolve.fallbacks": fallbacks,
        "linsolve.fallback_frac": fallbacks / len(inexact) if inexact else 0.0,
        "sampling.draw_s": sum(s.seconds for s in named("sampling.draw")),
        "sampling.assemble_s": sum(s.seconds for s in named("sampling.subsampled_hessian")),
        "sampling.hessian_rows": sum(s.count for s in named("sampling.subsampled_hessian")),
        "regularize.s": layer_s("regularize"),
        "regularize.calls": sum(1 for i in mine if spans[i].layer == "regularize"),
        "model.value_calls": value_calls,
        "model.gradient_calls": gradient_calls,
        "model.data_passes": value_calls + 2 * gradient_calls,
        "model.self_s": self_s("model"),
        "model.curvature_s": curvature_s,
        "linesearch.self_s": self_s("linesearch"),
        "linesearch.calls": len(armijo),
        "linesearch.trials": sum(s.count for s in armijo),
        "linesearch.value_calls": under("model.value", "linesearch.armijo"),
        "solvers.iters": trace.records[-1].k,
        "solvers.diag_s": wall_s - clocked_s - curvature_s,
        "solvers.self_s": self_s("solvers"),
        "trace.spans": len(mine),
    }
