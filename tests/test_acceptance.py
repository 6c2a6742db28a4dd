"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance below is pinned, not calibrated at
runtime.
"""

import time
from fractions import Fraction

import numpy as np
from localization_oracle import distance_to_poles, local_index, localization_mass, uniform_resolution

from cgb.grassmann import fermionic_gaussian, pfaffian_combinatorial
from cgb.morse import find_critical_points, hopf_index
from cgb.sigma import check_action_equivalence, lambda_sweep, partition_function, potential_stiffness

J = np.array([[0.0, -1.0], [1.0, 0.0]])


def report(number, label, passed, detail, elapsed):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number} [{label}]: {status} ({detail}; {elapsed:.2f}s)")
    assert passed, f"criterion {number} failed: {detail}"


def test_criterion_1_pfaffian_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_block = 0.0
    for n in range(1, 7):
        lams = rng.uniform(-2.0, 2.0, size=n)
        q = np.zeros((2 * n, 2 * n))
        for k, lam in enumerate(lams):
            q[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = lam * J
        value = fermionic_gaussian(q)
        worst_block = max(worst_block, abs(value - np.prod(lams)))
    worst_det = 0.0
    worst_cross = 0.0
    for k in range(100):
        half = 1 + k % 6  # sizes 2..12
        mat = rng.normal(size=(2 * half, 2 * half))
        skew = mat - mat.T
        value = fermionic_gaussian(skew)
        det = np.linalg.det(skew)
        worst_det = max(worst_det, abs(value**2 - det) / abs(det))
        worst_cross = max(worst_cross, abs(value - pfaffian_combinatorial(skew)))
    elapsed = time.perf_counter() - start
    passed = worst_block < 1e-12 and worst_det < 1e-8 and worst_cross < 1e-10 and elapsed < 1.0
    report(
        1,
        "fermionic Gaussian = Pfaffian",
        passed,
        f"block residual {worst_block:.1e}, det residual {worst_det:.1e}, "
        f"cross-check {worst_cross:.1e}",
        elapsed,
    )


def test_criterion_2_euler_characteristic_quadrature(s2, torus, ellipsoid, s2xs2):
    start = time.perf_counter()
    z_s2 = partition_function(s2, None, 0.0, (128, 256))
    t_s2 = time.perf_counter() - start
    err_s2 = abs(z_s2.value - 2.0)

    z_torus = partition_function(torus, None, 0.0, (96, 96))
    err_torus = abs(z_torus.value)
    z_ell = partition_function(ellipsoid, None, 0.0, (128, 256))
    err_ell = abs(z_ell.value - 2.0)

    t0 = time.perf_counter()
    z_prod = partition_function(
        s2xs2, None, 0.0, (24, 24, 24, 24), use_product_structure=False
    )
    t_prod = time.perf_counter() - t0
    err_prod = abs(z_prod.value - 4.0)

    elapsed = time.perf_counter() - start
    passed = (
        err_s2 < 1e-3
        and t_s2 < 5.0
        and err_torus < 1e-3
        and err_ell < 1e-3
        and err_prod < 1e-2
        and t_prod < 60.0
    )
    report(
        2,
        "Pfaffian integrals hit chi",
        passed,
        f"S2 err {err_s2:.1e} in {t_s2:.2f}s, torus {err_torus:.1e}, "
        f"ellipsoid {err_ell:.1e}, S2xS2 err {err_prod:.1e} in {t_prod:.1f}s at 24^4",
        elapsed,
    )


def test_criterion_3_hopf_indices(full_catalog):
    start = time.perf_counter()
    failures = []
    for spec in full_catalog:
        for name in spec.morse_catalog:
            density = 5 if spec.dim == 4 else 8
            index = hopf_index(spec, name, density)
            if index != spec.euler_char:
                failures.append((spec.name, name, index))
    sphere_signs = sorted(cp.sign for cp in find_critical_points(full_catalog[0], "height"))
    torus_points = find_critical_points(full_catalog[2], "height")
    torus_signs = [cp.sign for cp in sorted(torus_points, key=lambda cp: cp.value)]
    elapsed = time.perf_counter() - start
    passed = (
        not failures
        and sphere_signs == [1, 1]
        and torus_signs == [1, -1, -1, 1]
        and elapsed < 1.0
    )
    report(
        3,
        "Hopf index equals chi",
        passed,
        f"signs S2 {sphere_signs}, torus {torus_signs}, failures {failures}",
        elapsed,
    )


def test_criterion_4_coupling_independence(s2, flat_t2, s2_perturbed):
    start = time.perf_counter()
    lams = [0.0, 1.0, 2.0, 5.0, 10.0]
    sweep_s2 = lambda_sweep(s2, "height", lams, (96, 192))
    dev_s2 = sweep_s2.max_deviation_from(2.0)
    sweep_t2 = lambda_sweep(flat_t2, "coscos", lams, (48, 48))
    dev_t2 = sweep_t2.max_deviation_from(0.0)

    z_round = partition_function(s2, None, 0.0, (128, 256))
    z_pert = partition_function(s2_perturbed, None, 0.0, (128, 256))
    pert_shift = abs(z_pert.value - z_round.value)

    elapsed = time.perf_counter() - start
    passed = dev_s2 < 1e-2 and dev_t2 < 1e-2 and pert_shift < 1e-2 and elapsed < 120.0
    report(
        4,
        "Z flat in the coupling",
        passed,
        f"S2 sweep dev {dev_s2:.1e}, flat-T2 sweep dev {dev_t2:.1e}, "
        f"metric perturbation shift {pert_shift:.1e}",
        elapsed,
    )


def test_criterion_5_two_route_action():
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    worst = check_action_equivalence(rng, dims=(2, 3), samples=100)
    elapsed = time.perf_counter() - start
    passed = worst < 1e-9 and elapsed < 10.0
    report(
        5,
        "coordinate route = geometric route",
        passed,
        f"100 jets per dimension, worst coefficient diff {worst:.1e}",
        elapsed,
    )


def test_criterion_6_exact_algebra():
    from cgb.efts import (
        SuperPolynomial,
        VectorField,
        apply_d,
        apply_Delta,
        check_cartan,
        concordance_solve,
        enumerate_monomials,
        monomial,
    )
    import random

    start = time.perf_counter()
    ok = True
    for delta in (1, 2):
        for key in enumerate_monomials(delta, 1, 3, 3):
            mono = monomial(delta, 1, key)
            for i in range(1, delta + 1):
                if not apply_d(i, apply_d(i, mono)).is_zero():
                    ok = False
            if delta == 2:
                anti = apply_d(1, apply_d(2, mono)) + apply_d(2, apply_d(1, mono))
                if not anti.is_zero():
                    ok = False
        for coeff in (
            SuperPolynomial.constant(delta, 1, 1),
            SuperPolynomial.variable(delta, 1, 0),
        ):
            if not check_cartan(VectorField(delta, 1, [coeff]), degree_cap=3).holds:
                ok = False

    random.seed(606)
    even_basis = [
        key
        for key in enumerate_monomials(2, 2, 3, 3)
        if SuperPolynomial.key_parity(key) == 0
    ]
    feasible = 0
    trials = 0
    while feasible < 50 and trials < 200:
        trials += 1
        source = SuperPolynomial.zero(2, 2)
        for key in random.sample(even_basis, 3):
            source = source + monomial(2, 2, key, Fraction(random.randint(-4, 4)))
        target = apply_Delta(source)
        if target.is_zero():
            continue
        result = concordance_solve(target, SuperPolynomial.zero(2, 2))
        if not (result.feasible and apply_Delta(result.witness) == target):
            ok = False
            break
        feasible += 1
    constant = concordance_solve(SuperPolynomial.constant(1, 1, 1), SuperPolynomial.zero(1, 1))
    ok = ok and feasible == 50 and not constant.feasible
    elapsed = time.perf_counter() - start
    passed = ok and elapsed < 5.0
    report(
        6,
        "exact odd-direction algebra",
        passed,
        f"anticommutation + Cartan to degree 3, {feasible} concordance round-trips, "
        f"constant certified infeasible",
        elapsed,
    )


def test_criterion_7_localization(s2):
    start = time.perf_counter()
    resolution = uniform_resolution(s2, 10.0, (96, 192), potential_stiffness(s2, "height"))
    mass = localization_mass(s2, "height", 10.0, 0.5, resolution, distance_to_poles(1.0))

    rng = np.random.default_rng(77)
    worst = 0.0
    count = 0
    while count < 20:
        mat = rng.normal(size=(2, 2))
        hessian = 0.5 * (mat + mat.T)
        eig = np.linalg.eigvalsh(hessian)
        if np.min(np.abs(eig)) < 0.3:
            continue
        count += 1
        value = local_index(hessian, 40.0, 1.0)
        sign = 1.0 if np.linalg.det(hessian) > 0 else -1.0
        worst = max(worst, abs(value - sign))
    elapsed = time.perf_counter() - start
    passed = mass >= 0.99 and worst < 1e-6
    report(
        7,
        "integrand localizes on critical points",
        passed,
        f"mass within radius 0.5 at lambda=10: {mass:.6f}, "
        f"worst local-index deviation {worst:.1e} over 20 Hessians",
        elapsed,
    )
