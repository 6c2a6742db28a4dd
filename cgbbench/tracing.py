"""Per-layer trace taken from outside the program.

The benchmark replaces the public functions of each cgb layer, at the
module attributes their callers look them up by, with wrappers that record
a span per call.  Spans nest: a span's self time is its duration minus the
durations of the spans opened inside it, so a layer's time is the sum of
the self times of its spans.  Spans are aggregated as they close (calls,
total, self per name, and calls and time per parent -> child edge), so the
trace keeps no per-call records and its memory does not grow with calls.

Only modules already imported are wrapped, so tracing imports nothing the
traced command would not.  Nothing is active until ``Patches.apply`` runs;
``Patches.restore`` puts the original functions back, so untraced rounds
call cgb unchanged.
"""

from __future__ import annotations

import functools
import math
import sys
from time import perf_counter

# (module, attribute, span name, counters): every attribute under which a
# caller looks the function up.  sigma imports from geometry, grassmann and
# manifolds by name, so those bindings are wrapped in sigma as well.
WRAPPED = (
    ("cgb.manifolds", "quadrature_grid", "manifolds.grid", "grid"),
    ("cgb.sigma", "quadrature_grid", "manifolds.grid", "grid"),
    ("cgb.manifolds", "integrate_values", "manifolds.reduce", None),
    ("cgb.manifolds", "pairwise_sum", "manifolds.reduce", None),
    ("cgb.sigma", "integrate_values", "manifolds.reduce", None),
    ("cgb.sigma", "pairwise_sum", "manifolds.reduce", None),
    ("cgb.geometry", "riemann_tensor", "geometry.riemann", "riemann"),
    ("cgb.sigma", "riemann_tensor", "geometry.riemann", "riemann"),
    ("cgb.geometry", "christoffel_tensors", "geometry.christoffel", None),
    ("cgb.sigma", "christoffel_tensors", "geometry.christoffel", None),
    ("cgb.grassmann", "exp_even", "grassmann.exp_even", None),
    ("cgb.sigma", "exp_even", "grassmann.exp_even", None),
    ("cgb.grassmann", "multiply", "grassmann.multiply", None),
    ("cgb.sigma", "multiply", "grassmann.multiply", None),
    ("cgb.grassmann", "fermionic_gaussian", "grassmann.gaussian", None),
    ("cgb.grassmann", "pfaffian_combinatorial", "grassmann.laplace", None),
    ("cgb.sigma", "_integrand_on_points", "sigma.integrand", "integrand"),
    ("cgb.sigma", "_integrand_chunk", "sigma.chunk", None),
    ("cgb.sigma", "potential_stiffness", "sigma.stiffness", None),
    ("cgb.sigma", "action_coordinate", "sigma.action", None),
    ("cgb.sigma", "action_geometric", "sigma.action", None),
    ("cgb.morse", "_newton_batch", "morse.newton", "newton"),
    ("cgb.morse", "find_critical_points", "morse.critical", "critical"),
    ("cgb.efts", "apply_Delta", "efts.delta", None),
    ("cgb.efts", "concordance_solve", "efts.concordance", None),
    ("cgb.efts", "_solve_block", "efts.block", None),
    ("cgb.efts", "check_cartan", "efts.cartan", None),
)

BUILDERS = ("sphere", "sphere_conformal", "ellipsoid", "torus", "flat_torus", "product_of_spheres")
JET_EVALUATORS = ("metric", "d_metric", "d2_metric")


def _batch(array) -> int:
    shape = getattr(array, "shape", ())
    return math.prod(shape[:-2]) if len(shape) > 2 else 1


# counter name -> value, from (positional args, result)
COUNTERS = {
    "grid": lambda args, result: {"manifolds.grid_points": result.size},
    "riemann": lambda args, result: {"geometry.riemann_points": _batch(args[0])},
    "integrand": lambda args, result: {"sigma.integrand_points": len(args[1])},
    "newton": lambda args, result: {"morse.seeds": len(args[2]), "morse.converged": len(result)},
    "critical": lambda args, result: {"morse.critical_points": len(result)},
}


class Tracer:
    """Aggregated spans and counters of one traced interval."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.edges: dict[str, list] = {}  # "parent>child" -> [calls, total_s]
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # open spans: [name, child_s]

    def reset(self) -> None:
        self.spans.clear()
        self.edges.clear()
        self.counters.clear()
        self._stack.clear()

    def wrap(self, name: str, fn, counter: str | None = None):
        count = COUNTERS[counter] if counter else None
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, perf_counter() - start)
            if count is not None:
                for key, value in count(args, result).items():
                    self.counters[key] = self.counters.get(key, 0) + value
            return result

        return traced

    def _close(self, frame: list, elapsed: float) -> None:
        stack = self._stack
        stack.pop()
        name = frame[0]
        entry = self.spans.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += elapsed - frame[1]
        parent = stack[-1] if stack else None
        edge = self.edges.setdefault(f"{parent[0] if parent else 'root'}>{name}", [0, 0.0])
        edge[0] += 1
        edge[1] += elapsed
        if parent is not None:
            parent[1] += elapsed

    def add_time(self, name: str, elapsed: float) -> None:
        """Record an interval measured outside a wrapper as a top-level span."""
        entry = self.spans.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += elapsed

    def snapshot(self) -> dict:
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "edges": {k: list(v) for k, v in self.edges.items()},
            "counters": dict(self.counters),
        }

    def merge(self, snap: dict) -> None:
        """Add a snapshot taken in another process (a traced CLI command)."""
        for name, (calls, total, own) in snap["spans"].items():
            entry = self.spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        for name, (calls, total) in snap["edges"].items():
            edge = self.edges.setdefault(name, [0, 0.0])
            edge[0] += calls
            edge[1] += total
        for name, value in snap["counters"].items():
            self.counters[name] = self.counters.get(name, 0) + value


class Patches:
    """The set of wrapped attributes; ``apply`` and ``restore`` swap them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._items: list[tuple[object, str, object, object]] = []  # owner, key, original, wrapper
        self.applied = False
        for module_name, attr, span, counter in WRAPPED:
            module = sys.modules.get(module_name)
            if module is not None:
                self._add(module, attr, tracer.wrap(span, getattr(module, attr), counter))
        manifolds = sys.modules.get("cgb.manifolds")
        for attr in BUILDERS if manifolds is not None else ():
            wrapper = self._builder(getattr(manifolds, attr))
            self._add(manifolds, attr, wrapper)
            for key, builder in manifolds._BUILDERS.items():
                if builder is getattr(manifolds, attr):
                    self._add(manifolds._BUILDERS, key, wrapper)

    def _add(self, owner, key: str, wrapper) -> None:
        original = owner[key] if isinstance(owner, dict) else getattr(owner, key)
        self._items.append((owner, key, original, wrapper))
        if self.applied:
            _set(owner, key, wrapper)

    def _builder(self, build):
        """Span for a catalog builder; jets of the charts it returns get spans too."""
        traced = self.tracer.wrap("manifolds.build", build)

        @functools.wraps(build)
        def builder(*args, **kwargs):
            spec = traced(*args, **kwargs)
            self.wrap_jets(spec)
            return spec

        return builder

    def wrap_jets(self, spec) -> None:
        """Wrap the metric jet evaluators of every chart of ``spec`` and its factors."""
        for chart in spec.charts.values():
            metric = chart.metric
            for attr in JET_EVALUATORS:
                fn = getattr(metric, attr)
                if fn is not None and not any(o is metric and k == attr for o, k, _, _ in self._items):
                    self._add(metric, attr, self.tracer.wrap("manifolds.jets", fn))
        for factor in spec.factors or ():
            self.wrap_jets(factor)

    def apply(self) -> None:
        for owner, key, _, wrapper in self._items:
            _set(owner, key, wrapper)
        self.applied = True

    def restore(self) -> None:
        for owner, key, original, _ in self._items:
            _set(owner, key, original)
        self.applied = False


def _set(owner, key: str, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


# per-layer metric -> (span or counter, what to read): "self" and "total" are
# seconds summed over spans, "calls" counts spans, "count" reads a counter
LAYER_METRICS = {
    "manifolds.build_s": ("manifolds.build", "self"),
    "manifolds.build_calls": ("manifolds.build", "calls"),
    "manifolds.jets_s": ("manifolds.jets", "self"),
    "manifolds.grid_s": ("manifolds.grid", "self"),
    "manifolds.grid_points": ("manifolds.grid_points", "count"),
    "manifolds.reduce_s": ("manifolds.reduce", "self"),
    "geometry.riemann_s": ("geometry.riemann", "self"),
    "geometry.riemann_points": ("geometry.riemann_points", "count"),
    "geometry.christoffel_s": ("geometry.christoffel", "self"),
    "geometry.christoffel_calls": ("geometry.christoffel", "calls"),
    "grassmann.exp_even_s": ("grassmann.exp_even", "self"),
    "grassmann.exp_even_calls": ("grassmann.exp_even", "calls"),
    "grassmann.multiply_s": ("grassmann.multiply", "self"),
    "grassmann.multiply_calls": ("grassmann.multiply", "calls"),
    "grassmann.gaussian_s": ("grassmann.gaussian", "self"),
    "grassmann.laplace_s": ("grassmann.laplace", "self"),
    "sigma.integrand_s": ("sigma.integrand", "total"),
    "sigma.integrand_points": ("sigma.integrand_points", "count"),
    "sigma.chunks": ("sigma.chunk", "calls"),
    "sigma.top_s": ("sigma.chunk", "self"),
    "sigma.stiffness_s": ("sigma.stiffness", "self"),
    "sigma.stiffness_calls": ("sigma.stiffness", "calls"),
    "sigma.action_s": ("sigma.action", "self"),
    "morse.newton_s": ("morse.newton", "self"),
    "morse.seeds": ("morse.seeds", "count"),
    "morse.converged": ("morse.converged", "count"),
    "morse.critical_points": ("morse.critical_points", "count"),
    "efts.delta_s": ("efts.delta", "self"),
    "efts.delta_calls": ("efts.delta", "calls"),
    "efts.concordance_s": ("efts.concordance", "self"),
    "efts.block_s": ("efts.block", "self"),
    "efts.blocks": ("efts.block", "calls"),
    "efts.cartan_s": ("efts.cartan", "self"),
    "cli.import_s": ("cli.import", "total"),
    "cli.command_s": ("cli.command", "total"),
}


def layer_value(snap: dict, metric: str) -> float:
    name, kind = LAYER_METRICS[metric]
    if kind == "count":
        return snap["counters"].get(name, 0)
    calls, total, own = snap["spans"].get(name, (0, 0.0, 0.0))
    return {"calls": calls, "total": total, "self": own}[kind]
