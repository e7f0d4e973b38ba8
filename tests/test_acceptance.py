"""Acceptance criteria, one test per criterion with pinned tolerances.

Each test prints a single pass/fail line (visible with ``pytest -s`` or
in failure output) and asserts the criterion at exactly the stated
tolerance; no tolerance is deferred or trial-adjusted.
"""

import time

import numpy as np
import pytest

from krein_spectra import (
    CheckStatus,
    KreinOperator,
    KreinSpace,
    Region,
    SpectralType,
    build_normal_with_types,
    classified_spectrum,
    local_spectral_function,
    max_principal_angle,
    perturb_structured,
    resolvent_probe,
    riesz_projection_contour,
    riesz_projection_oracle,
    root_subspace,
    sample_generator_spec,
    solve_sylvester,
    solve_sylvester_dense,
    strong_stability_check,
    verify_lsf_axioms,
    verify_maximality,
    verify_selfadjoint_link,
    verify_spectral_set_theorem,
)
from krein_spectra.core import frobenius, min_gap
from krein_spectra.generators import classification_margin

from conftest import ACCEPTANCE_SEED, ACCEPTANCE_TRIALS, generate_trial, with_tolerances

ANGLE_TOL = 1e-8
DEFINITE = (SpectralType.TWO_SIDED_POSITIVE, SpectralType.TWO_SIDED_NEGATIVE)


def _report(number: int, title: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] criterion {number} ({title}): {status}")
    assert not failures, f"criterion {number} ({title}): " + "; ".join(
        str(f) for f in failures[:10]
    )


def _isolation_radius(points) -> float:
    gap = min_gap([pt.value for pt in points])
    return 0.45 * gap if np.isfinite(gap) else 1.0


def test_criterion_1_finite_dimensional_type_equality():
    """Over 500 seeded operators every definite-type point is two-sided
    definite and the generated inventory is reproduced; under 60 s."""
    failures = []
    started = time.perf_counter()
    for index in range(ACCEPTANCE_TRIALS):
        gen = generate_trial(index)
        points = classified_spectrum(gen.operator)
        if len(points) != len(gen.ground_truth):
            failures.append(f"trial {index}: point count mismatch")
            continue
        for pt, truth in zip(points, gen.ground_truth):
            if pt.type_tag in (SpectralType.POSITIVE, SpectralType.NEGATIVE):
                failures.append(
                    f"trial {index}: one-sided tag {pt.type_tag.value} at {pt.value:.4g}"
                )
            if pt.type_tag is not truth.expected_type or (
                pt.alg_mult, pt.geo_mult
            ) != (truth.alg_mult, truth.geo_mult):
                failures.append(
                    f"trial {index}: {truth.value:.4g} expected "
                    f"{truth.expected_type.value}, got {pt.type_tag.value}"
                )
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _report(1, "finite-dimensional type equality", failures)


def test_criterion_2_spectral_set_theorem(trial_bank):
    """Riesz projections of isolated positive clusters are selfadjoint
    with uniformly positive range (margin > 1e-6) and normal restriction
    (residual <= 1e-8)."""
    failures = []
    eligible = 0
    for index, gen, points in trial_bank:
        positive = [
            pt for pt in points if pt.type_tag is SpectralType.TWO_SIDED_POSITIVE
        ]
        if not positive:
            continue
        eligible += 1
        region = Region.disk(positive[0].value, _isolation_radius(points))
        report = verify_spectral_set_theorem(gen.operator, region)
        for entry in report.entries:
            if entry.status is not CheckStatus.PASS:
                failures.append(f"trial {index}: {entry.name} {entry.status.value}")
            # the entry gates on the operator's normality tolerance, which
            # reaches 2e-8 at this conditioning; the criterion stays at 1e-8
            if entry.name == "restriction-normal-in-hilbert-space" and not entry.residual <= 1e-8:
                failures.append(f"trial {index}: restriction residual {entry.residual:.3e}")
    if eligible < 200:
        failures.append(f"only {eligible} trials had an isolated positive cluster")
    _report(2, "spectral-set theorem", failures)


def test_criterion_3_lsf_axioms_and_maximality(trial_bank):
    """Local spectral function axioms, the adjoint transfer law and
    maximality against 20 random invariant subspaces, residuals <= 1e-8."""
    failures = []
    eligible = 0
    for index, gen, points in trial_bank:
        tsp = [pt for pt in points if pt.type_tag is SpectralType.TWO_SIDED_POSITIVE]
        if not tsp:
            continue
        eligible += 1
        if eligible > 100:
            break
        gap = min_gap([pt.value for pt in points])
        radius = 0.4 * gap if np.isfinite(gap) else 1.0
        carrier = Region(
            tuple(p for pt in tsp for p in Region.disk(pt.value, radius).pieces)
        )
        lsf = local_spectral_function(gen.operator, carrier)
        deltas = [Region.disk(pt.value, 0.5 * radius) for pt in tsp]
        if len(deltas) >= 2:
            deltas.append(deltas[0].union(deltas[1]))
        deltas.extend([carrier, Region.empty()])
        n = gen.operator.matrix
        commutants = [np.eye(gen.operator.dim), n, gen.operator.adjoint, n @ n]
        report = verify_lsf_axioms(lsf, deltas, commutants, tol=1e-8)
        for entry in report.entries:
            if entry.status is not CheckStatus.PASS:
                failures.append(f"trial {index}: {entry.name} {entry.residual}")
        maximality = verify_maximality(
            lsf, carrier, n_subspaces=20, seed=index, tol=ANGLE_TOL
        )
        if maximality.status is not CheckStatus.PASS:
            failures.append(f"trial {index}: maximality angle {maximality.residual}")
    if eligible < 100:
        failures.append(f"only {eligible} trials eligible for a positive carrier")
    _report(3, "local spectral function axioms and maximality", failures)


def test_criterion_4_selfadjoint_product_link(trial_bank):
    """At every spectral point of every trial, positivity of 0 for the
    selfadjoint product matches the two-sided tag."""
    failures = []
    for index, gen, points in trial_bank:
        for pt in points:
            if not verify_selfadjoint_link(gen.operator, pt):
                failures.append(f"trial {index}: link fails at {pt.value:.4g}")
    _report(4, "selfadjoint product linkage", failures)


def test_criterion_5_kernel_coincidence(trial_bank):
    """Kernel, adjoint kernel and root subspace coincide within principal
    angle 1e-8 at definite points; defective neutral witnesses satisfy
    alg_mult = 2 * geo_mult."""
    failures = []
    jordan_controls = 0
    for index, gen, points in trial_bank:
        for pt in points:
            if pt.type_tag in DEFINITE:
                angle = max(
                    max_principal_angle(pt.kernel, pt.adjoint_kernel),
                    max_principal_angle(pt.kernel, root_subspace(gen.operator, pt)),
                )
                if angle > ANGLE_TOL:
                    failures.append(
                        f"trial {index}: angle {angle:.2e} at {pt.value:.4g}"
                    )
            elif pt.geo_mult < pt.alg_mult:
                jordan_controls += 1
                if pt.alg_mult != 2 * pt.geo_mult:
                    failures.append(
                        f"trial {index}: defective point with m_a {pt.alg_mult}, "
                        f"m_g {pt.geo_mult}"
                    )
    if jordan_controls < 50:
        failures.append(f"only {jordan_controls} defective controls observed")
    _report(5, "kernel coincidence at definite points", failures)


def test_criterion_6_resolvent_bound_and_pole_order(trial_bank):
    """Scaled resolvent norms near a two-sided positive point stay below
    ten times their large-radius value; pole orders are 1 there and 2 at
    the defective witness."""
    failures = []
    eligible = 0
    jordan_checked = 0
    for index, gen, points in trial_bank:
        tsp = [pt for pt in points if pt.type_tag is SpectralType.TWO_SIDED_POSITIVE]
        gap = min_gap([pt.value for pt in points])
        base = 0.4 * gap if np.isfinite(gap) else 0.5
        if tsp and eligible < 100:
            eligible += 1
            probe = resolvent_probe(
                gen.operator,
                tsp[0].value,
                radii=[base, base / 2, base / 4, base / 8],
                samples_per_radius=8,
            )
            large = probe.radius_table[0][1]
            small = max(c for _, c in probe.radius_table[1:])
            if large <= 0 or small > 10.0 * large:
                failures.append(f"trial {index}: growth ratio {small / large:.2f}")
            if probe.pole_order != 1:
                failures.append(f"trial {index}: pole order {probe.pole_order}")
        defective = [pt for pt in points if pt.geo_mult < pt.alg_mult]
        if defective and jordan_checked < 50:
            jordan_checked += 1
            probe = resolvent_probe(
                gen.operator, defective[0].value, radii=[base], samples_per_radius=4
            )
            if probe.pole_order != 2:
                failures.append(
                    f"trial {index}: defective pole order {probe.pole_order}"
                )
    swap = KreinSpace(np.array([[0.0, 1.0], [1.0, 0.0]]))
    witness = KreinOperator(np.array([[3 + 1j, 1.0], [0.0, 3 + 1j]]), swap)
    probe = resolvent_probe(witness, 3 + 1j, radii=[0.5], samples_per_radius=8)
    if probe.pole_order != 2:
        failures.append(f"explicit witness pole order {probe.pole_order}")
    if eligible < 100:
        failures.append(f"only {eligible} eligible positive points")
    _report(6, "resolvent bound and pole order", failures)


def test_criterion_7_strong_stability():
    """All-definite operators are strongly stable with a certified
    fundamental decomposition, and structured perturbations below half
    the classification margin preserve stability in 200 of 200 trials."""
    failures = []
    for trial in range(200):
        rng = np.random.default_rng([ACCEPTANCE_SEED, 7, trial])
        dim = int(rng.integers(2, 13))
        spec = sample_generator_spec(
            rng, dim, cond_bound=1e3, kinds=("positive", "negative")
        )
        gen = build_normal_with_types(spec)
        stable, decomposition = strong_stability_check(gen.operator)
        if not stable or decomposition is None:
            failures.append(f"trial {trial}: expected stable")
            continue
        if not decomposition.certified:
            bad = [
                e.name for e in decomposition.entries
                if e.status is not CheckStatus.PASS
            ]
            failures.append(f"trial {trial}: decomposition checks failed {bad}")
        margin = classification_margin(gen)
        perturbed = perturb_structured(gen, 0.45 * margin, seed=trial)
        still_stable, _ = strong_stability_check(perturbed.operator)
        if not still_stable:
            failures.append(f"trial {trial}: stability lost at delta {0.45 * margin:.3e}")
    _report(7, "strong stability and perturbations", failures)


def test_criterion_8_oracle_agreement(trial_bank):
    """Contour and decomposition projections agree to 1e-6 at 64 nodes;
    the Sylvester solver meets its residual contract and matches the
    dense vectorized oracle to 1e-9 on dims <= 8."""
    failures = []
    for index, gen, points in trial_bank[:100]:
        region = Region.disk(points[0].value, _isolation_radius(points))
        contour = riesz_projection_contour(with_tolerances(gen.operator, contour_nodes=64), region)
        oracle = riesz_projection_oracle(gen.operator, region)
        diff = frobenius(contour.matrix - oracle.matrix)
        if diff > 1e-6:
            failures.append(f"trial {index}: projections differ by {diff:.2e}")
    rng = np.random.default_rng([ACCEPTANCE_SEED, 8])
    for trial in range(100):
        m, n = (int(x) for x in rng.integers(2, 9, size=2))
        s = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 10 * np.eye(n)
        z = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        x = solve_sylvester(s, t, z)
        bound = (
            1e-8 * (np.linalg.norm(s, 2) + np.linalg.norm(t, 2)) * frobenius(x)
            + 1e-8 * frobenius(z)
        )
        residual = frobenius(s @ x - x @ t - z)
        if residual > bound:
            failures.append(f"sylvester {trial}: residual {residual:.2e}")
        diff = frobenius(x - solve_sylvester_dense(s, t, z))
        if diff > 1e-9 * max(1.0, frobenius(x)):
            failures.append(f"sylvester {trial}: oracle disagreement {diff:.2e}")
    _report(8, "contour/oracle and solver agreement", failures)
