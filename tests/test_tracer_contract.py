"""The benchmark tracer's contract with the library.

``cgbbench/tracing.py`` wraps library functions by (module, attribute) and
the jet evaluators of every chart a catalog builder returns.  A rename in
``src/`` that drops one of those names breaks ``--trace 1``; these tests
catch it without running the benchmark.  The tracer module uses only the
standard library, so it is executed from its source without importing the
``cgbbench`` package.
"""

import importlib
import math
import types
from pathlib import Path

import pytest

from cgb import manifolds

TRACING = Path(__file__).resolve().parents[1] / "cgbbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("cgbbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_wrapped_names_resolve(tracing):
    for module_name, attr, _, _ in tracing.WRAPPED:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (module_name, attr)


def test_builder_names_exist(tracing):
    for name in tracing.BUILDERS:
        assert callable(getattr(manifolds, name, None)), name


def test_every_chart_exposes_the_jet_evaluators(tracing):
    def specs(spec):
        yield spec
        for factor in spec.factors or ():
            yield from specs(factor)

    for name, build in manifolds._BUILDERS.items():
        for spec in specs(build()):
            for chart in spec.charts.values():
                for attr in tracing.JET_EVALUATORS:
                    assert callable(getattr(chart.metric, attr, None)), (name, chart.name, attr)


def test_riemann_counter_reads_the_chunk_size(tracing, monkeypatch):
    # the counter takes the point count from riemann_tensor's first argument
    from cgb import sigma

    counts = []
    riemann_tensor = sigma.riemann_tensor

    def recording(*args):
        counts.append(tracing.COUNTERS["riemann"](args, None))
        return riemann_tensor(*args)

    monkeypatch.setattr(sigma, "riemann_tensor", recording)
    spec = manifolds.sphere_conformal()
    points = manifolds.quadrature_grid(spec, (8, 16)).points
    sigma._integrand_chunk(spec.quad_chart.metric, points, (0.0,), None)
    assert counts == [{"geometry.riemann_points": len(points)}]


@pytest.mark.parametrize(
    "name, resolution, lams, shared",
    [
        ("s2", (32, 64), None, False),
        ("flat_t2", (48, 40), None, False),
        ("s2xs2", (4, 6, 4, 6), None, False),
        # an adaptive sweep builds its graded composite grids through quadrature_grid as well
        ("flat_t2", (48, 40), (0.0, 1.0, 5.0), False),
        ("s2", (32, 64), (2.0, 10.0), False),
        # the base grid resolves S^2 to lambda = 2: the three couplings share one grid and one integrand pass
        ("s2", (96, 192), (0.0, 1.0, 2.0), True),
    ],
    ids=["s2-resolution0", "flat_t2-resolution1", "s2xs2-resolution2", "flat_t2-sweep", "s2-sweep", "s2-shared-grid"],
)
def test_point_counters_read_the_grid_size(tracing, monkeypatch, name, resolution, lams, shared):
    # the grid counter reads the size of quadrature_grid's result, the integrand counter the
    # len() of _integrand_on_points' second argument: on one partition both are the grid's point count
    from cgb import sigma

    counts = []
    for attr, counter in (("quadrature_grid", "grid"), ("_integrand_on_points", "integrand")):

        def recording(*args, fn=getattr(sigma, attr), counter=counter):
            result = fn(*args)
            counts.append(tracing.COUNTERS[counter](args, result))
            return result

        monkeypatch.setattr(sigma, attr, recording)
    spec = manifolds.get_manifold(name)
    h_name = next(iter(spec.morse_catalog))
    if lams is None:
        sigma.partition_function(spec, h_name, 0.1, resolution, use_product_structure=False)
        sizes = [math.prod(resolution)]
    else:
        results = sigma.lambda_sweep(spec, h_name, lams, resolution).results
        if shared:  # every coupling keeps the base grid: one grid and one integrand pass for them all
            assert [r.resolution for r in results] == [resolution] * len(lams)
            sizes = [math.prod(resolution)]
        else:
            sizes = [math.prod(r.resolution) for r in results]
            assert max(sizes) > math.prod(resolution)  # the sweep refined its grid
    assert counts == [c for size in sizes for c in ({"manifolds.grid_points": size}, {"sigma.integrand_points": size})]
