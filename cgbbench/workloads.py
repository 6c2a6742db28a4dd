"""The four workloads of the cgb benchmark: seeded inputs, operations, checks.

A workload has a set-up (the imports plus every manifold it needs) and a
fixed list of operations; one round runs each operation once (or its
``repeat`` times), in order.
An operation returns its outputs and its check returns the problems it
finds in them.  Checks compare against known values or required
properties (chi of each manifold, Hessian signs in order of height,
Pf^2 = det, exact round trips), never against a saved earlier output.

Scalar inputs (radii, couplings, the efts source coefficients) come from
``random.Random(seed)``; arrays (skew matrices, block values, action jets)
from ``numpy.random.default_rng(seed)``.  The seed changes values only,
never the amount of work: grid sizes, coupling lists, matrix sizes,
source counts and the monomials of each source are fixed.
"""

from __future__ import annotations

import importlib
import json
import math
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

# Euler characteristics, known independently of the catalog's own field
CHI = {"s2": 2, "ellipsoid": 2, "torus": 0, "flat_t2": 0, "s2xs2": 4}
# acceptance tolerances on chi: surfaces at 128x256, sweeps and the four-manifold
TOL_SURFACE = 1e-3
TOL_SWEEP = 1e-2

GRID_4D = (8, 10, 8, 10)
LAMBDAS = (0.0, 1.0, 2.0, 5.0, 10.0)
# the flat-T2 sweep stops at 5: at 10 its grid has 3159^2 = 10M points and one
# sweep takes 20 s, too long to repeat in a run, and a lone memory-bound 20 s
# sample spread by 17 % between runs
LAMBDAS_T2 = (0.0, 1.0, 2.0, 5.0)
CONCORDANCE_EXAMPLE = "2*x1*D21x1 - 2*D1x1*D2x1"
CLI_TIMEOUT_S = 120

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = "cgbbench-out"  # run reports and traces, under the checkout root


@dataclass(frozen=True)
class Operation:
    name: str  # the name its time is reported under
    run: Callable[[dict], object]
    check: Callable[[dict, object], list[str]]
    warm_up: bool = True  # False: left out of the warm-up round
    repeat: int = 1  # runs per round; the round keeps the median of their times


@dataclass(frozen=True)
class Workload:
    name: str
    modules: tuple[str, ...]  # imported during set-up
    params: Callable[[random.Random], dict]  # scalar draws, made before set-up
    build: Callable[[dict], dict]  # the manifolds, part of set-up
    inputs: Callable[[dict, int], dict]  # seeded inputs, made after set-up
    operations: tuple[Operation, ...]
    in_process: bool = True  # False: the operations start their own processes


def context(workload: Workload, seed: int) -> dict:
    return {"params": workload.params(random.Random(seed)), "trace": None}


def set_up(workload: Workload, ctx: dict) -> float:
    """Import the workload's modules and build its manifolds into ``ctx``; returns seconds."""
    start = perf_counter()
    for name in workload.modules:
        ctx[name.rsplit(".", 1)[-1]] = importlib.import_module(name)
    ctx.update(workload.build(ctx))
    return perf_counter() - start


def _chi_problems(label: str, values, chi: int, tol: float) -> list[str]:
    return [
        f"{label}: Z = {value!r} is not within {tol:g} of chi = {chi}"
        for value in values
        if not abs(value - chi) < tol
    ]


# -- pfaffian-4d: direct integrals on S2 x S2 ----------------------------------


def _pf4_params(r: random.Random) -> dict:
    return {"radius1": r.uniform(0.8, 1.25), "radius2": r.uniform(0.8, 1.25), "lam": r.uniform(0.05, 0.2)}


def _pf4_build(ctx: dict) -> dict:
    p = ctx["params"]
    return {"s2xs2": ctx["manifolds"].product_of_spheres(p["radius1"], p["radius2"])}


def _pfaffian4(ctx: dict) -> float:
    return ctx["sigma"].partition_function(
        ctx["s2xs2"], None, 0.0, GRID_4D, use_product_structure=False
    ).value


def _coupled4(ctx: dict) -> float:
    return ctx["sigma"].partition_function(
        ctx["s2xs2"], "height_sum", ctx["params"]["lam"], GRID_4D, use_product_structure=False
    ).value


PFAFFIAN_4D = Workload(
    name="pfaffian-4d",
    modules=("numpy", "cgb.manifolds", "cgb.sigma"),
    params=_pf4_params,
    build=_pf4_build,
    inputs=lambda ctx, seed: {},
    operations=(
        Operation("pfaffian4_s", _pfaffian4, lambda ctx, z: _chi_problems("S2xS2 Pf", [z], 4, TOL_SWEEP)),
        Operation("coupled4_s", _coupled4, lambda ctx, z: _chi_problems("S2xS2 Z", [z], 4, TOL_SWEEP)),
    ),
)


# -- sweep-2d: criterion-4 coupling sweeps and the Hopf index ------------------


def _sweep_build(ctx: dict) -> dict:
    m = ctx["manifolds"]
    catalog = m.catalog()
    return {
        "s2": m.sphere(ctx["params"]["radius"]),
        "catalog": catalog,
        "flat_t2": next(spec for spec in catalog if spec.name == "flat_t2"),
    }


def _sweep(spec_key: str, potential: str, lambdas: tuple[float, ...], base: tuple[int, int]):
    def run(ctx: dict) -> list[float]:
        sweep = ctx["sigma"].lambda_sweep(ctx[spec_key], potential, lambdas, base)
        return [r.value for r in sweep.results]

    return run


def _sweep_check(label: str, chi: int, lambdas: tuple[float, ...]):
    def check(ctx: dict, values: list[float]) -> list[str]:
        problems = _chi_problems(label, values, chi, TOL_SWEEP)
        if len(values) != len(lambdas):
            problems.append(f"{label}: {len(values)} couplings reported, expected {len(lambdas)}")
        return problems

    return check


def _signs_by_height(points, axis: int) -> list[int]:
    """Hessian signs ordered by the ambient coordinate that is the height."""
    return [cp.sign for cp in sorted(points, key=lambda cp: float(cp.embedded[axis]))]


def _hopf(ctx: dict) -> dict:
    morse = ctx["morse"]
    indices = {}
    for spec in ctx["catalog"]:
        for name in spec.morse_catalog:
            indices[f"{spec.name}/{name}"] = morse.hopf_index(spec, name, 5 if spec.dim == 4 else 8)
    by_name = {spec.name: spec for spec in ctx["catalog"]}
    return {
        "indices": indices,
        # the sphere's height is z (axis 2); the standing torus's is x (axis 0)
        "s2_signs": _signs_by_height(morse.find_critical_points(by_name["s2"], "height"), 2),
        "torus_signs": _signs_by_height(morse.find_critical_points(by_name["torus"], "height"), 0),
    }


def _hopf_check(ctx: dict, out: dict) -> list[str]:
    problems = [
        f"Hopf index of {key} is {index}, chi is {CHI[key.split('/')[0]]}"
        for key, index in out["indices"].items()
        if index != CHI[key.split("/")[0]]
    ]
    if len(out["indices"]) < len(CHI):
        problems.append(f"Hopf index computed on {sorted(out['indices'])} only")
    if out["s2_signs"] != [1, 1]:
        problems.append(f"S2 height signs {out['s2_signs']}, expected [1, 1]")
    if out["torus_signs"] != [1, -1, -1, 1]:
        problems.append(f"torus height signs {out['torus_signs']}, expected [1, -1, -1, 1]")
    return problems


SWEEP_2D = Workload(
    name="sweep-2d",
    modules=("numpy", "cgb.manifolds", "cgb.sigma", "cgb.morse"),
    params=lambda r: {"radius": r.uniform(0.8, 1.25)},
    build=_sweep_build,
    inputs=lambda ctx, seed: {},
    operations=(
        Operation(
            "sweep_s2_s",
            _sweep("s2", "height", LAMBDAS, (96, 192)),
            _sweep_check("S2 sweep", 2, LAMBDAS),
            repeat=3,
        ),
        # sweep_s2_s warms the same code path, so a warm-up run of the
        # 4 s T2 sweep would only lengthen every run
        Operation(
            "sweep_t2_s",
            _sweep("flat_t2", "coscos", LAMBDAS_T2, (48, 48)),
            _sweep_check("flat-T2 sweep", 0, LAMBDAS_T2),
            warm_up=False,
            repeat=3,
        ),
        Operation("hopf_s", _hopf, _hopf_check, repeat=3),
    ),
)


# -- exact-algebra: Pfaffian routes, concordance, action routes ----------------

J = ((0.0, -1.0), (1.0, 0.0))
NONZERO_COEFFS = (-4, -3, -2, -1, 1, 2, 3, 4)


def _algebra_inputs(ctx: dict, seed: int) -> dict:
    np, efts = ctx["numpy"], ctx["efts"]
    rng = np.random.default_rng(seed)
    blocks = []
    for n in range(1, 7):
        lams = rng.uniform(-2.0, 2.0, size=n)
        q = np.zeros((2 * n, 2 * n))
        for k, lam in enumerate(lams):
            q[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = lam * np.array(J)
        blocks.append((q, float(np.prod(lams))))
    skews = []
    for k in range(100):
        half = 1 + k % 6  # sizes 2..12
        mat = rng.normal(size=(2 * half, 2 * half))
        skew = mat - mat.T
        skews.append((skew, float(np.linalg.det(skew))))

    # the monomials of each source are the same for every seed, so the seed
    # changes the coefficients only: which monomials meet sets the solver's work
    keys, r = random.Random(0), random.Random(seed)
    even_basis = [
        key for key in efts.enumerate_monomials(2, 2, 3, 3) if efts.SuperPolynomial.key_parity(key) == 0
    ]
    sources = []
    while len(sources) < 50:
        source = efts.SuperPolynomial.zero(2, 2)
        for key in keys.sample(even_basis, 3):
            source = source + efts.monomial(2, 2, key, r.choice(NONZERO_COEFFS))
        if not efts.apply_Delta(source).is_zero():  # Delta(source) = 0 has no round trip
            sources.append(source)
    return {"blocks": blocks, "skews": skews, "sources": sources, "action_seed": seed}


def _pfaffian_routes(ctx: dict) -> dict:
    grassmann = ctx["grassmann"]
    worst_block = max(abs(grassmann.fermionic_gaussian(q) - prod) for q, prod in ctx["blocks"])
    worst_det = worst_cross = 0.0
    for skew, det in ctx["skews"]:
        value = grassmann.fermionic_gaussian(skew)
        worst_det = max(worst_det, abs(value**2 - det) / abs(det))
        worst_cross = max(worst_cross, abs(value - grassmann.pfaffian_combinatorial(skew)))
    return {"block": worst_block, "det": worst_det, "cross": worst_cross}


def _pfaffian_routes_check(ctx: dict, out: dict) -> list[str]:
    limits = {"block": 1e-12, "det": 1e-8, "cross": 1e-10}
    return [
        f"Pfaffian {key} residual {out[key]:.3e} exceeds {limit:g}"
        for key, limit in limits.items()
        if not out[key] < limit
    ]


def _concordance(ctx: dict) -> dict:
    efts = ctx["efts"]
    zero2 = efts.SuperPolynomial.zero(2, 2)
    round_trips = 0
    for source in ctx["sources"]:
        target = efts.apply_Delta(source)
        result = efts.concordance_solve(target, zero2)
        round_trips += bool(result.feasible and efts.apply_Delta(result.witness) == target)
    constant = efts.concordance_solve(efts.SuperPolynomial.constant(1, 1, 1), efts.SuperPolynomial.zero(1, 1))
    example = efts.parse_polynomial(CONCORDANCE_EXAMPLE, 2, 1)
    witness = efts.concordance_solve(example, efts.SuperPolynomial.zero(2, 1)).witness
    cartan = [
        efts.check_cartan(efts.VectorField(delta, 1, [coeff]), degree_cap=3).holds
        for delta in (1, 2)
        for coeff in (efts.SuperPolynomial.constant(delta, 1, 1), efts.SuperPolynomial.variable(delta, 1, 0))
    ]
    return {
        "round_trips": round_trips,
        "constant_feasible": constant.feasible,
        "example_witness": witness,
        "cartan": cartan,
    }


def _concordance_check(ctx: dict, out: dict) -> list[str]:
    efts = ctx["efts"]
    problems = []
    if out["round_trips"] != len(ctx["sources"]):
        problems.append(f"{out['round_trips']} of {len(ctx['sources'])} Delta round trips closed")
    if out["constant_feasible"]:
        problems.append("the constant 1 was not certified infeasible")
    # by hand: Delta(x1^2) = d2(2 x1 D1x1) = 2 x1 D21x1 - 2 D1x1 D2x1
    by_hand = efts.parse_polynomial("x1^2", 2, 1)
    if out["example_witness"] != by_hand:
        problems.append(f"example witness {out['example_witness']!r}, expected x1^2")
    if efts.apply_Delta(by_hand) != efts.parse_polynomial(CONCORDANCE_EXAMPLE, 2, 1):
        problems.append("Delta(x1^2) differs from the concordance example")
    if not all(out["cartan"]):
        problems.append(f"Cartan identity failed: {out['cartan']}")
    return problems


def _action_routes(ctx: dict) -> float:
    rng = ctx["numpy"].random.default_rng(ctx["action_seed"])
    return ctx["sigma"].check_action_equivalence(rng, dims=(2, 3), samples=100)


EXACT_ALGEBRA = Workload(
    name="exact-algebra",
    modules=("numpy", "cgb.grassmann", "cgb.sigma", "cgb.efts"),
    params=lambda r: {},
    build=lambda ctx: {},
    inputs=_algebra_inputs,
    operations=(
        Operation("pfaffian_routes_s", _pfaffian_routes, _pfaffian_routes_check),
        Operation("concordance_s", _concordance, _concordance_check),
        Operation(
            "action_routes_s",
            _action_routes,
            lambda ctx, worst: [] if worst < 1e-9 else [f"action routes differ by {worst:.3e}"],
        ),
    ),
)


# -- cli-cold: four commands, each in a fresh interpreter ----------------------


def _cli_inputs(ctx: dict, seed: int) -> dict:
    sphere = json.dumps({"radius": ctx["params"]["radius"]})
    s2 = ["--manifold", "s2", "--manifold-params", sphere]
    base = ("cgb.cli", "cgb.manifolds")
    return {
        "commands": {
            "cli_pfaffian_s": (
                ["pfaffian", *s2, "--resolution", "128,256", "--tolerance", "1e-3"],
                base + ("cgb.sigma",),
            ),
            "cli_index_s": (["index", "--manifold", "torus", "--morse", "height"], base + ("cgb.morse",)),
            "cli_sweep_s": (
                ["sweep", *s2, "--morse", "height", "--lambda", "0,1,2"]
                + ["--resolution", "48,96", "--tolerance", "1e-2"],
                base + ("cgb.sigma",),
            ),
            "cli_efts_s": (
                ["efts", "concordance", CONCORDANCE_EXAMPLE, "0", "--delta", "2"],
                ("cgb.cli", "cgb.efts"),
            ),
        }
    }


def _cli(name: str):
    """Run one command in a fresh interpreter; traced rounds run it under traced_cli."""

    def run(ctx: dict) -> tuple[int, str, str]:
        argv, modules = ctx["commands"][name]
        trace = ctx.get("trace")
        if trace is None:
            cmd = [sys.executable, "-m", "cgb.cli", *argv]
        else:
            trace_file = trace["dir"] / f"{name}.json"
            cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(trace_file), *modules, "--", *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CLI_TIMEOUT_S, cwd=ctx["root"])
        if trace is not None:
            trace["tracer"].merge(json.loads(trace_file.read_text()))
            trace_file.unlink()
        return proc.returncode, proc.stdout, proc.stderr

    return run


def _exit_problems(name: str, out) -> list[str]:
    code, _, stderr = out
    return [] if code == 0 else [f"{name} exited {code}: {stderr.strip()[-300:]}"]


def _cli_pfaffian_check(ctx: dict, out) -> list[str]:
    problems = _exit_problems("pfaffian", out)
    if not problems:
        problems = _chi_problems("cgb pfaffian", [json.loads(out[1])["chi_computed"]], 2, TOL_SURFACE)
    return problems


def _cli_index_check(ctx: dict, out) -> list[str]:
    problems = _exit_problems("index", out)
    if problems:
        return problems
    rows = re.findall(r"^\s*torus\s+(\S+),(\S+)\s+([+-]\d+)\s", out[1], re.MULTILINE)
    index = re.search(r"^hopf index: (-?\d+)", out[1], re.MULTILINE)
    if index is None or int(index.group(1)) != 0:
        problems.append(f"Hopf index line {index and index.group(0)!r}, expected index 0")
    # height of the default standing torus (R = 2, r = 1) is (R + r cos v) cos u
    heights = [((2.0 + math.cos(float(v))) * math.cos(float(u)), int(s)) for u, v, s in rows]
    signs = [s for _, s in sorted(heights)]
    if signs != [1, -1, -1, 1]:
        problems.append(f"torus signs by height {signs}, expected [1, -1, -1, 1]")
    return problems


def _cli_sweep_check(ctx: dict, out) -> list[str]:
    problems = _exit_problems("sweep", out)
    if problems:
        return problems
    rows = [line.split(",") for line in out[1].splitlines() if re.match(r"^\d", line)]
    if [float(row[0]) for row in rows] != [0.0, 1.0, 2.0]:
        problems.append(f"sweep rows {rows}, expected couplings 0, 1, 2")
    return problems + _chi_problems("cgb sweep", [float(row[1]) for row in rows], 2, TOL_SWEEP)


def _cli_efts_check(ctx: dict, out) -> list[str]:
    problems = _exit_problems("efts", out)
    if not problems and out[1].strip() != "WITNESS: x1^2":
        problems.append(f"efts concordance printed {out[1].strip()!r}, expected the witness x1^2")
    return problems


def _cli_build(ctx: dict) -> dict:
    m = ctx["manifolds"]
    return {"s2": m.sphere(ctx["params"]["radius"]), "torus": m.torus()}


CLI_COLD = Workload(
    name="cli-cold",
    # the set-up each non-efts command pays: imports plus the manifolds they build
    modules=("numpy", "cgb.cli", "cgb.manifolds", "cgb.sigma", "cgb.morse", "cgb.efts"),
    params=lambda r: {"radius": r.uniform(0.8, 1.25)},
    build=_cli_build,
    inputs=_cli_inputs,
    operations=(
        Operation("cli_pfaffian_s", _cli("cli_pfaffian_s"), _cli_pfaffian_check),
        Operation("cli_index_s", _cli("cli_index_s"), _cli_index_check),
        Operation("cli_sweep_s", _cli("cli_sweep_s"), _cli_sweep_check),
        Operation("cli_efts_s", _cli("cli_efts_s"), _cli_efts_check),
    ),
    in_process=False,
)

WORKLOADS = {w.name: w for w in (PFAFFIAN_4D, SWEEP_2D, EXACT_ALGEBRA, CLI_COLD)}
