"""Critical points and Hopf indices across the catalog."""

import hashlib
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cgb import morse
from cgb.geometry import DOMAIN_SLACK, ChartMetric, ScalarField
from cgb.manifolds import MAX_GRID_POINTS, ManifoldSpec, MorseFunction, get_manifold
from cgb.morse import (
    DegenerateCriticalPointError,
    MAX_NEWTON_STEPS,
    TOL_GRAD,
    TOL_MORSE,
    _newton_batch,
    _seeds,
    _wrap_batch,
    find_critical_points,
    hopf_index,
)


def serial_newton(chart, h, seeds):
    """Damped Newton whose line search tries one halving at a time for every pending seed: ``_newton_batch``'s oracle."""
    x = np.array(seeds, dtype=float)
    grad = np.asarray(h.grad(x), dtype=float)
    gnorm = np.linalg.norm(grad, axis=-1)
    active = np.ones(len(x), dtype=bool)
    for _ in range(MAX_NEWTON_STEPS):
        active &= gnorm >= TOL_GRAD
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        hess = np.asarray(h.hess(x[idx]), dtype=float)
        solvable = np.abs(np.linalg.det(hess)) > 1e-300
        active[idx[~solvable]] = False
        idx = idx[solvable]
        if idx.size == 0:
            break
        steps = np.linalg.solve(hess[solvable], -grad[idx][..., None])[..., 0]
        t = np.ones(idx.size)
        pending = np.arange(idx.size)
        improved = np.zeros(idx.size, dtype=bool)
        for _ in range(40):
            if pending.size == 0:
                break
            rows = idx[pending]
            cand = _wrap_batch(chart, x[rows] + t[pending, None] * steps[pending])
            valid = chart.metric.contains(cand)
            cg = np.zeros_like(cand)
            if valid.any():
                cg[valid] = np.asarray(h.grad(cand[valid]), dtype=float)
            cn = np.where(valid, np.linalg.norm(cg, axis=-1), np.inf)
            good = cn < gnorm[rows]
            took = rows[good]
            x[took] = cand[good]
            grad[took] = cg[good]
            gnorm[took] = cn[good]
            improved[pending[good]] = True
            pending = pending[~good]
            t[pending] *= 0.5
        active[idx[~improved]] = False
    return x[gnorm < TOL_GRAD]


class TestCriticalPoints:
    def test_sphere_height_two_poles(self, s2):
        points = find_critical_points(s2, "height")
        assert len(points) == 2
        assert sorted(cp.sign for cp in points) == [1, 1]
        # the poles: embedded z = +-1
        assert sorted(round(cp.embedded[2], 9) for cp in points) == [-1.0, 1.0]
        assert all(cp.gradient_norm < TOL_GRAD for cp in points)
        assert all(abs(cp.det_hess) > TOL_MORSE for cp in points)

    def test_torus_height_classical_picture(self, torus):
        points = find_critical_points(torus, "height")
        assert len(points) == 4
        # sort by height value: min, saddle, saddle, max with signs +,-,-,+
        by_value = sorted(points, key=lambda cp: cp.value)
        assert [cp.sign for cp in by_value] == [1, -1, -1, 1]
        assert [round(cp.value, 9) for cp in by_value] == [-3.0, -1.0, 1.0, 3.0]

    def test_flat_torus_closed_form_hessians(self, flat_t2):
        tau = 2 * math.pi
        points = find_critical_points(flat_t2, "coscos")
        assert len(points) == 4
        for cp in points:
            u, v = cp.coords
            expected = np.diag([-tau**2 * math.cos(tau * u), -tau**2 * math.cos(tau * v)])
            assert np.allclose(cp.hessian, expected, atol=1e-9)
        assert sorted(cp.sign for cp in points) == [-1, -1, 1, 1]

    def test_product_signs_multiply_blockwise(self, s2xs2):
        points = find_critical_points(s2xs2, "height_sum", seed_density=6)
        assert len(points) == 4
        for cp in points:
            h = cp.hessian
            assert np.allclose(h[:2, 2:], 0) and np.allclose(h[2:, :2], 0)
            block_product = np.linalg.det(h[:2, :2]) * np.linalg.det(h[2:, 2:])
            assert cp.det_hess == pytest.approx(block_product, rel=1e-9)
        assert [cp.sign for cp in points] == [1, 1, 1, 1]

    def test_gradient_evaluated_inside_the_chart_only(self, s2):
        # the line search rejects candidates off the chart, so it must not evaluate h there
        seen = {}

        def recording(chart_name, f):
            def grad(x):
                seen.setdefault(chart_name, []).append(np.array(x, dtype=float).reshape(-1, 2))
                return f.grad(x)

            return ScalarField(f.value, grad, f.hess)

        height = s2.morse_catalog["height"]
        fields = {name: recording(name, f) for name, f in height.fields.items()}
        spec = replace(s2, morse_catalog={"height": replace(height, fields=fields)})
        assert len(find_critical_points(spec, "height")) == 2
        assert set(seen) == {"polar", "rotated"}
        for chart_name, batches in seen.items():
            pts = np.concatenate(batches)
            dom = s2.charts[chart_name].metric.domain
            assert np.all((pts >= dom[:, 0] - 1e-12) & (pts <= dom[:, 1] + 1e-12)), chart_name

    def test_seed_density_stability(self, full_catalog):
        for spec in full_catalog:
            for name in spec.morse_catalog:
                base_density = 4 if spec.dim == 4 else 8
                coarse = find_critical_points(spec, name, base_density)
                fine = find_critical_points(spec, name, 2 * base_density)
                key = lambda cps: sorted(tuple(np.round(cp.embedded, 6)) for cp in cps)
                assert key(coarse) == key(fine)

    def test_degenerate_point_raises(self, degenerate_patch):
        with pytest.raises(DegenerateCriticalPointError):
            find_critical_points(degenerate_patch, "pinch")

    def test_non_finite_gradient_norm_refused_at_the_seed(self):
        # the gradient is finite at radius 1e200, its norm is not
        spec = get_manifold("s2", radius=1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^gradient norm not finite on chart 'polar' at the seed point \("):
                find_critical_points(spec, "height")

    def test_non_finite_hessian_determinant_refused_at_the_point(self, s2):
        # a finite gradient and an overflowing Hessian: the polar chart's det Hess is 0 (h depends on
        # theta alone), so the first chart with a determinant to overflow is the rotated one
        height = s2.morse_catalog["height"]
        fields = {
            name: ScalarField(f.value, f.grad, lambda x, f=f: 1e200 * np.asarray(f.hess(x), dtype=float))
            for name, f in height.fields.items()
        }
        spec = replace(s2, morse_catalog={"height": replace(height, fields=fields)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^Hessian determinant not finite on chart 'rotated' at the point \("):
                find_critical_points(spec, "height")


def test_line_search_builds_no_more_candidates_than_seeds(monkeypatch):
    # the rungs are built level by level for the rows that need them, not 39 per pending seed
    rows = []
    wrap = morse._wrap_batch
    monkeypatch.setattr(morse, "_wrap_batch", lambda chart, pts: rows.append(len(pts)) or wrap(chart, pts))
    find_critical_points(get_manifold("s2xs2"), "height_sum", 8)
    assert rows and max(rows) <= 8**4


def first_rungs(chart, rows):
    """One Newton step from each row's seed, with the gradient and Hessian the row gives there and zero gradient
    elsewhere: the candidates ``_newton_batch`` tries first in its accept loop, and the brute-force oracle's, the
    wrapped candidate at the first of all 40 rungs that ``contains`` holds, none where no rung is."""
    seeds = np.array([seed for seed, _, _ in rows], dtype=float)
    grads = np.array([grad for _, grad, _ in rows], dtype=float)
    hessians = np.array([hess for _, _, hess in rows], dtype=float)
    row_of = {seed.tobytes(): i for i, seed in enumerate(seeds)}

    def at_seeds(given, elsewhere):
        return lambda x: np.array([given[row_of[p.tobytes()]] if p.tobytes() in row_of else elsewhere for p in x])

    calls = []
    grad = at_seeds(grads, np.zeros(chart.dim))
    hess = at_seeds(hessians, np.eye(chart.dim))
    field = ScalarField(lambda x: 0.0, lambda x: calls.append(np.array(x)) or grad(x), hess)
    oracle = []
    with np.errstate(all="ignore"):
        _newton_batch(chart, field, seeds)
        steps = np.linalg.solve(hessians, -grads[..., None])[..., 0]
        for x, step in zip(seeds, steps):
            for t in np.ldexp(1.0, -np.arange(40)):
                cand = _wrap_batch(chart, (x + t * step)[None])
                if chart.metric.contains(cand)[0]:
                    oracle.append(cand[0])
                    break
    taken = calls[1] if len(calls) > 1 else np.empty((0, chart.dim))
    return taken, np.array(oracle).reshape(-1, chart.dim)


def stepping(seed, step, scale=1.0):
    """A row of ``first_rungs`` whose Newton step is ``step``: gradient -scale * step, Hessian scale * I."""
    return seed, -scale * np.asarray(step, dtype=float), scale * np.eye(len(seed))


# (gradient, Hessian) whose Newton steps are (nan, -inf), (-inf, -0.5) and (1e308, -0): the gradient norms are finite
NON_FINITE_STEPS = [((0.5, 1e150), np.diag([1.0, 1e-160])), ((1e150, 0.5), np.diag([1e-160, 1.0]))]
HUGE_STEP = ((-1e148, 0.0), np.diag([1e-160, 1.0]))


def test_rung_search_takes_the_first_in_chart_rung_of_the_ladder(degenerate_patch, flat_t2, s2):
    box, torus, sphere = degenerate_patch.charts["flat"], flat_t2.charts["flat"], s2.charts["polar"]
    face = 1.0 + DOMAIN_SLACK  # the upper face of the unit box, as ``contains`` widens it
    room = face - 0.3
    cases = [
        (box, [
            stepping((1.0 + 5e-13, 0.5), (1e-3, 0.0)),  # on the face, inside the slack, stepping out; no step on y
            stepping((face, 0.25), (2.0**-20, 0.1)),  # on the slack's own face: only steps under half an ulp stay
            stepping((0.3, 0.7), (4 * room, 0.0)),  # the room to the face is 1/4 exactly
            stepping((0.3, 0.6), (room, -0.1)),  # the room is 1 exactly
            stepping((0.5, 0.5), (0.1, -0.2)),  # the full step stays in
            stepping((0.5, 0.4), (-10.0, 0.0)),
            stepping((0.3, 0.5), (np.nextafter(4 * room, np.inf), 0.0)),  # room just under 1/4: rung 2 rounds onto the face
            # on the slack's lower face, stepping out: each rung to 33 (a step of half an ulp of x) rounds off it
            stepping((-DOMAIN_SLACK, 0.5), (-(2.0**-60), 0.0), scale=2.0**40),
            ((0.5, 0.3), *HUGE_STEP),  # finite, and off the chart on every rung
            ((0.2, 0.2), *NON_FINITE_STEPS[0]),
            ((0.2, 0.3), *NON_FINITE_STEPS[1]),
        ]),
        (torus, [  # every axis periodic
            stepping((0.5, 0.5), (0.3, -2.7)),
            ((0.0, 1.0), *HUGE_STEP),
            ((0.2, 0.2), *NON_FINITE_STEPS[0]),
            ((0.2, 0.3), *NON_FINITE_STEPS[1]),
        ]),
        (sphere, [  # theta bounded, phi periodic
            stepping((1e-07, 1.0), (-1e-6, 7.0)),  # on theta's lower face, stepping out
            stepping((1.0, 6.0), (0.0, 3.0)),  # no step on theta
            stepping((3.0, 0.5), (0.5, -1.0)),
            ((0.2, 0.2), *NON_FINITE_STEPS[0]),
            ((0.2, 0.3), *NON_FINITE_STEPS[1]),
        ]),
    ]
    rows_taking_a_rung = []
    for chart, rows in cases:
        taken, oracle = first_rungs(chart, rows)
        assert taken.tobytes() == oracle.tobytes(), chart.name
        rows_taking_a_rung.append(len(oracle))
    # the box's rows take rungs 31, 33, 2, 0, 0, 5, 2, 34 and then none; the torus's 0, 0; the sphere's 20, 0, 2
    assert rows_taking_a_rung == [8, 2, 3]


def test_rung_search_wrap_calls_are_pinned(monkeypatch):
    # the rotated S^2 chart at seed density 8: the rung walk compares the unwrapped axes with the chart box alone, so
    # it wraps nothing and asks no ``contains``; only the accept loop's 31 batches, the points h sees, are wrapped
    calls, asked = [], []
    wrap, contains = morse._wrap_batch, ChartMetric.contains
    monkeypatch.setattr(morse, "_wrap_batch", lambda chart, pts: calls.append(len(pts)) or wrap(chart, pts))
    monkeypatch.setattr(ChartMetric, "contains", lambda self, x: asked.append(len(x)) or contains(self, x))
    chart = get_manifold("s2").charts["rotated"]
    with np.errstate(all="ignore"):
        _newton_batch(chart, get_manifold("s2").morse_catalog["height"].fields["rotated"], _seeds(chart, 8))
    assert len(calls) == 31
    assert asked == []


def counting(h, log):
    """``h`` with every point its gradient and Hessian are evaluated at appended to ``log["grad"]``, ``log["hess"]``."""
    return ScalarField(
        h.value,
        lambda x: log["grad"].append(np.array(x)) or h.grad(x),
        lambda x: log["hess"].append(np.array(x)) or h.hess(x),
    )


@pytest.mark.parametrize(
    "name, h_name, chart_name, density, steps",
    [("s2", "height", "rotated", 8, 31), ("s2xs2", "height_sum", "product_rotated", 5, 32)],
)
def test_newton_steps_are_pinned(name, h_name, chart_name, density, steps):
    # every root has converged by step 6 on the sphere and by step 4 on the product; without the stop at the chart's
    # face, the seeds heading for the coordinate singularity crawl along the slack band to step 50 on both
    spec = get_manifold(name)
    chart, log = spec.charts[chart_name], {"grad": [], "hess": []}
    with np.errstate(all="ignore"):
        _newton_batch(chart, counting(spec.morse_catalog[h_name].fields[chart_name], log), _seeds(chart, density))
    assert len(log["hess"]) == steps < MAX_NEWTON_STEPS


def test_root_in_the_slack_band_is_returned(degenerate_patch):
    # h = |x - r|^2 / 2 with r in the band ``contains`` adds beyond the face x = 1: the full step lands on r exactly
    # (|grad| = 0), outside the declared box, and the row stops there with its root
    chart, root = degenerate_patch.charts["flat"], np.array([1.0 + 2.0**-42, 0.5])
    field = ScalarField(
        lambda x: 0.5 * np.sum((x - root) ** 2, axis=-1),
        lambda x: x - root,
        lambda x: np.broadcast_to(np.eye(2), np.shape(x)[:-1] + (2, 2)),
    )
    assert root[0] - 1.0 < DOMAIN_SLACK and chart.metric.contains(root[None])[0]
    with np.errstate(all="ignore"):  # the room on y, where there is no step, is a division by zero
        got = _newton_batch(chart, field, np.array([[0.5, 0.5], [0.25, 0.75]]))
    assert got.tobytes() == np.array([root, root]).tobytes()


def test_row_on_the_face_keeps_stepping(degenerate_patch):
    # h = (x - 1)^2 / 2 + (y - 1/2)^4 / 4 from a seed on the face x = 1: every step leaves x on the face, in the
    # declared box, while y closes in on 1/2 by a factor 2/3 a step, so the row converges only if it is not stopped
    chart = degenerate_patch.charts["flat"]
    field = ScalarField(
        lambda x: 0.5 * (x[..., 0] - 1.0) ** 2 + 0.25 * (x[..., 1] - 0.5) ** 4,
        lambda x: np.stack([x[..., 0] - 1.0, (x[..., 1] - 0.5) ** 3], axis=-1),
        lambda x: np.stack([np.diag([1.0, 3.0 * (y - 0.5) ** 2]) for y in np.asarray(x)[..., 1]]),
    )
    with np.errstate(all="ignore"):  # the room on x, where there is no step, is a division by zero
        (root,) = _newton_batch(chart, field, np.array([[1.0, 0.75]]))
    assert root[0] == 1.0 and abs(root[1] - 0.5) < 1e-3


def test_straggler_stops_on_entering_the_slack_band():
    # the rotated S^2 chart's first seed at density 8 halves its way toward theta' = 0 and never converges: it stops
    # at the step whose accepted iterate leaves the declared box for the slack band, where the line search without
    # the stop went on to step 43
    spec = get_manifold("s2")
    chart, h = spec.charts["rotated"], spec.morse_catalog["height"].fields["rotated"]
    seed, lo = _seeds(chart, 8)[:1], chart.metric.domain[:, 0]
    stopped, oracle = {"grad": [], "hess": []}, {"grad": [], "hess": []}
    with np.errstate(all="ignore"):
        assert len(_newton_batch(chart, counting(h, stopped), seed)) == 0
        assert len(serial_newton(chart, counting(h, oracle), seed)) == 0
    steps, last = np.concatenate(stopped["hess"]), stopped["grad"][-1]
    assert (len(steps), len(oracle["hess"])) == (29, 43)
    assert np.all(steps >= lo) and np.all(steps <= chart.metric.domain[:, 1])  # every step starts in the box
    # the last candidate is the accepted one, it beat its step's start, and it lies in the band below theta's face
    assert np.linalg.norm(h.grad(last)) < np.linalg.norm(h.grad(steps[-1:]))
    assert chart.metric.contains(last)[0] and lo[0] - DOMAIN_SLACK <= last[0, 0] < lo[0]


@pytest.mark.parametrize("name", ["s2", "ellipsoid", "torus", "flat_t2", "s2xs2", "s2_perturbed"])
def test_newton_batch_matches_the_serial_line_search(name):
    # every chart that carries the potential, its roots in the same order to the bit
    spec = get_manifold(name)
    potential = next(iter(spec.morse_catalog.values()))
    densities = (3, 4, 5) if spec.dim == 4 else (3, 4, 5, 6, 7, 8, 12, 16)
    for chart_name, chart in spec.charts.items():
        h = potential.fields[chart_name]
        for density in densities:
            seeds = _seeds(chart, density)
            with np.errstate(all="ignore"):
                got, want = _newton_batch(chart, h, seeds), serial_newton(chart, h, seeds)
            assert got.tobytes() == want.tobytes(), (chart_name, density)


# (manifold, potential, chart, seed density): (points _newton_batch returns, SHA-256 of their coordinates)
NEWTON_PINS = {
    ("s2", "height", "rotated", 8): (24, "4ebc70a41230f714a533e05947c1a6712c5706d99f61a268994fe490793e2bcf"),
    ("torus", "height", "torus", 6): (30, "6ff4daa8b636957462d491a9a2fc7932cd1235049ea0bf579dfee72c2006d698"),
    ("s2xs2", "height_sum", "product_rotated", 5): (64, "563edeab01b8ca88095cb3cd2e62ef2fb9c6488106406aa343140b2a6469b144"),
}


@pytest.mark.parametrize("case", NEWTON_PINS, ids=lambda case: "-".join(map(str, case)))
def test_newton_batch_bits_are_pinned(case):
    # 40 of the 64 rotated S^2 seeds fail, one torus seed takes 17 steps, 561 of 625 product seeds fail;
    # the digest is scripts/bits_dump.py's ``newton`` line: float.hex coordinates, "," in a point, ";" between
    name, h_name, chart_name, density = case
    spec = get_manifold(name)
    chart = spec.charts[chart_name]
    with np.errstate(all="ignore"):
        points = _newton_batch(chart, spec.morse_catalog[h_name].fields[chart_name], _seeds(chart, density))
    text = ";".join(",".join(float(c).hex() for c in point) for point in points)
    assert (len(points), hashlib.sha256(text.encode()).hexdigest()) == NEWTON_PINS[case]


@pytest.mark.parametrize("name, density", [("s2", 4097), ("s2xs2", 65)])
def test_seed_grid_over_the_budget_is_refused_before_it_is_built(monkeypatch, name, density):
    # 4097^2 and 65^4 are the first grids over 2^24; 4096^2 and 64^4 are exactly at it and pass
    def built(axes):
        raise AssertionError("the seed grid was built")

    monkeypatch.setattr(morse, "tensor_points", built)
    spec = get_manifold(name)
    chart_name, chart = next(iter(spec.charts.items()))
    with pytest.raises(ValueError, match=rf"^seed grid on chart '{chart_name}' has {density}\^{spec.dim} = "
                                         rf"{density**spec.dim} points, above the budget of {MAX_GRID_POINTS}$"):
        find_critical_points(spec, next(iter(spec.morse_catalog)), density)
    monkeypatch.setattr(morse, "tensor_points", lambda axes: axes)
    assert [len(axis) for axis in _seeds(chart, density - 1)] == [density - 1] * spec.dim


@pytest.mark.parametrize("density", [np.int64(65), np.int64(2**16)], ids=["65", "2^16"])
def test_numpy_seed_density_over_the_budget_is_refused_before_it_is_built(monkeypatch, s2xs2, density):
    # np.int64(2**16) ** 4 wraps to 0, under the budget: the count is taken as a Python int
    def built(axes):
        raise AssertionError("the seed grid was built")

    monkeypatch.setattr(morse, "tensor_points", built)
    with pytest.raises(ValueError, match=rf"^seed grid on chart '{next(iter(s2xs2.charts))}' has {density}\^4 = "
                                         rf"{int(density) ** 4} points, above the budget of {MAX_GRID_POINTS}$"):
        find_critical_points(s2xs2, "height_sum", density)


def test_numpy_seed_density_is_a_count(s2):
    key = lambda cps: [(cp.chart, cp.coords.tobytes(), cp.det_hess) for cp in cps]
    assert key(find_critical_points(s2, "height", np.int64(8))) == key(find_critical_points(s2, "height", 8))


@pytest.mark.parametrize("density", [True, 0, -1, 2.0, "8"])
def test_seed_density_must_be_a_positive_int(s2, density):
    # a bool is an int to Python, but True is not a density
    with pytest.raises(ValueError, match="seed density must be a positive integer"):
        find_critical_points(s2, "height", density)


class TestHopfIndex:
    def test_matches_euler_characteristic(self, full_catalog):
        for spec in full_catalog:
            for name in spec.morse_catalog:
                density = 5 if spec.dim == 4 else 8
                assert hopf_index(spec, name, density) == spec.euler_char, (spec.name, name)

    def test_metric_independence(self, s2, s2_perturbed):
        # the zero set of grad h and the Hessian signs there never see the metric:
        # the same height under a non-constant conformal factor
        assert hopf_index(s2_perturbed, "height") == hopf_index(s2, "height") == 2

    def test_negated_potential_same_index(self, s2, torus, flat_t2):
        # in even dimensions sgn det(-H) = sgn det(H)
        for spec, name in ((s2, "height"), (torus, "height"), (flat_t2, "coscos")):
            base = spec.morse_catalog[name]
            negated = MorseFunction(
                fields={
                    chart: ScalarField(
                        lambda x, f=f: -f.value(x),
                        lambda x, f=f: -np.asarray(f.grad(x), dtype=float),
                        lambda x, f=f: -np.asarray(f.hess(x), dtype=float),
                    )
                    for chart, f in base.fields.items()
                }
            )
            flipped = ManifoldSpec(
                name=spec.name + "_neg",
                dim=spec.dim,
                charts=spec.charts,
                euler_char=spec.euler_char,
                morse_catalog={name: negated},
            )
            assert hopf_index(flipped, name) == hopf_index(spec, name)

    def test_missing_potential(self, s2):
        with pytest.raises(KeyError):
            hopf_index(s2, "not_a_potential")

    def test_no_potential_refused(self, s2):
        # the library's None is "no potential", which has no critical points to find
        with pytest.raises(KeyError, match="manifold s2 needs a named potential, got None"):
            find_critical_points(s2, None)
