"""Seeded trial batteries over generated operators.

Each trial builds an operator with a known type inventory and runs every
applicable check: classification round trip, two-sidedness of definite
points, kernel coincidences, the selfadjoint-product link, the
spectral-set theorem, contour/oracle projection agreement, the local
spectral function axioms with maximality, resolvent bounds and pole
orders, strong stability with structured perturbations, and the dense
linear-algebra contracts.  Trials are deterministic in (seed, index) and
run in index order.

Conditioning policy: the pinned tolerances are calibrated for condition
bounds up to 1e3.  Beyond that, residual tolerances scale with the
realized conditioning and any remaining failure of a conditioned check
is downgraded to a warning, because margins and kernels below the
rounding noise of the conjugation are genuinely undecidable in double
precision.  Checks on freshly drawn well-conditioned matrices (the
solver contracts) stay strict in every regime.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from ._errors import (
    AmbiguousRegionError,
    ArgumentError,
    ContourThroughSpectrumError,
    KreinError,
    PreconditionError,
    require_integer,
)
from .classification import (
    DEFINITE_TAGS,
    SpectralType,
    classified_spectrum,
    clustering,
    root_subspace,
    verify_selfadjoint_link,
)
from .core import krein_adjoint, max_principal_angle
from .generators import (
    GeneratedOperator,
    build_normal_with_types,
    classification_margin,
    perturb_structured,
    sample_generator_spec,
)
from .numerics import (
    complex_schur,
    frobenius,
    ordered_spectral_decomposition,
    solve_sylvester,
    solve_sylvester_dense,
    spectral_projector,
)
from .projections import (
    local_spectral_function,
    pole_order,
    probe_radius_floor,
    projection_defect,
    resolvent_probe,
    riesz_projection_contour,
    riesz_projection_oracle,
    strong_stability_check,
    verify_lsf_family,
    verify_spectral_set_theorem,
)
from .regions import Region
from .report import CheckEntry, CheckStatus, VerificationReport, passfail

__all__ = ["run_suite", "run_trial"]

ANGLE_TOL = 1e-8
COND_STRICT = 1e3
# largest trial dimension: sample_generator_spec cannot place a trial's
# separated eigenvalues in its box much beyond this
MAX_DIM = 100
# refusals that the relaxed regime downgrades to warnings
REFUSALS = (
    ContourThroughSpectrumError,
    AmbiguousRegionError,
    PreconditionError,
    np.linalg.LinAlgError,
)


@dataclass(frozen=True)
class TrialSetting:
    """Tolerance context of one trial."""

    relaxed: bool = False
    tol_scale: float = 1.0


def classification_checks(gen: GeneratedOperator, setting: TrialSetting) -> list[CheckEntry]:
    """Ground-truth round trip plus the per-point structural lemmas."""
    entries = []
    points = classified_spectrum(gen.operator)
    truth = gen.ground_truth

    mismatch = []
    value_residual = 0.0
    if len(points) == len(truth):
        for pt, gt in zip(points, truth):
            value_residual = max(value_residual, abs(pt.value - gt.value))
            if (
                pt.type_tag is not gt.expected_type
                or (pt.alg_mult, pt.geo_mult) != (gt.alg_mult, gt.geo_mult)
            ):
                mismatch.append(
                    f"{gt.value:.4g}: expected {gt.expected_type.value}"
                    f" ({gt.alg_mult},{gt.geo_mult}), got {pt.type_tag.value}"
                    f" ({pt.alg_mult},{pt.geo_mult})"
                )
    else:
        mismatch.append(f"point count {len(points)} vs {len(truth)}")
    entries.append(
        passfail(
            "classification-roundtrip",
            not mismatch,
            residual=value_residual,
            tolerance=10 * gen.operator.cluster_radius * setting.tol_scale,
            claim="classification reproduces the generated type inventory",
            detail="; ".join(mismatch),
        )
    )

    one_sided = [
        pt for pt in points
        if pt.type_tag in (SpectralType.POSITIVE, SpectralType.NEGATIVE)
    ]
    entries.append(
        passfail(
            "definite-points-two-sided",
            not one_sided,
            claim="in finite dimension every definite point is two-sided definite",
            detail=", ".join(f"{pt.value:.4g}" for pt in one_sided),
        )
    )

    coincidence_tol = ANGLE_TOL * setting.tol_scale
    worst_angle = 0.0
    jordan_ok = True
    for pt in points:
        if pt.type_tag in DEFINITE_TAGS:
            try:
                root = root_subspace(gen.operator, pt)
                root_angle = max_principal_angle(pt.kernel, root)
            except (ValueError, KreinError):
                root_angle = float(np.pi / 2)
            worst_angle = max(
                worst_angle,
                max_principal_angle(pt.kernel, pt.adjoint_kernel),
                root_angle,
            )
        elif pt.alg_mult != pt.geo_mult and pt.alg_mult != 2 * pt.geo_mult:
            jordan_ok = False
    entries.append(
        passfail(
            "kernel-coincidence",
            worst_angle <= coincidence_tol,
            residual=worst_angle,
            tolerance=coincidence_tol,
            claim="kernel, adjoint kernel and root subspace coincide at definite points",
        )
    )
    entries.append(
        passfail(
            "jordan-multiplicity-control",
            jordan_ok,
            claim="defective neutral points double the geometric multiplicity",
        )
    )

    link_ok = all(verify_selfadjoint_link(gen.operator, pt) for pt in points)
    entries.append(
        passfail(
            "selfadjoint-product-link",
            link_ok,
            claim="zero is of positive type for the selfadjoint product exactly "
            "at two-sided positive points",
        )
    )
    return entries


def projection_checks(gen: GeneratedOperator, setting: TrialSetting) -> list[CheckEntry]:
    """Spectral-set theorem on an isolated positive cluster plus the
    contour/oracle cross-validation."""
    entries = []
    points = classified_spectrum(gen.operator)
    gap = clustering(gen.operator).min_gap
    radius = 0.45 * gap if np.isfinite(gap) else 1.0

    positive = [pt for pt in points if pt.type_tag is SpectralType.TWO_SIDED_POSITIVE]
    if positive:
        region = Region.disk(positive[0].value, radius)
        entries.extend(verify_spectral_set_theorem(gen.operator, region).entries)

    region = Region.disk(points[0].value, radius)
    contour = riesz_projection_contour(gen.operator, region)
    oracle = riesz_projection_oracle(gen.operator, region)
    diff = frobenius(contour.matrix - oracle.matrix) / max(
        1.0, frobenius(oracle.matrix)
    )
    tol = 1e-6 * setting.tol_scale
    entries.append(
        passfail(
            "contour-oracle-agreement",
            diff <= tol,
            residual=diff,
            tolerance=tol,
            claim="contour quadrature matches the decomposition-based projection",
        )
    )

    definite = [pt for pt in points if pt.type_tag in DEFINITE_TAGS]
    if definite:
        q = riesz_projection_oracle(
            gen.operator, Region.disk(definite[0].value, radius)
        ).matrix
        defect, _ = projection_defect(q, gen.space)
        defect_norm = frobenius(defect)
        bound = 1e-8 * (1.0 + frobenius(q) ** 2) * setting.tol_scale
        entries.append(
            passfail(
                "projection-defect-vanishes",
                defect_norm <= bound,
                residual=defect_norm,
                tolerance=bound,
                claim="a spectral projection with definite range has zero defect",
            )
        )
    neutral_simple = [
        pt for pt in points
        if pt.type_tag is SpectralType.NEUTRAL and pt.alg_mult == 1
    ]
    if neutral_simple:
        q = riesz_projection_oracle(
            gen.operator, Region.disk(neutral_simple[0].value, radius)
        ).matrix
        defect, is_neutral = projection_defect(q, gen.space)
        cross = frobenius(krein_adjoint(defect, gen.space) @ defect)
        bound = (1e-8 * (1.0 + frobenius(q) ** 2) ** 2) * setting.tol_scale
        entries.append(
            passfail(
                "projection-defect-neutral",
                is_neutral and cross <= bound,
                residual=cross,
                tolerance=bound,
                claim="at a neutral point the projection defect exists and spans "
                "a neutral subspace",
            )
        )
    return entries


def lsf_checks(gen: GeneratedOperator, setting: TrialSetting) -> list[CheckEntry]:
    points = classified_spectrum(gen.operator)
    tsp = [pt for pt in points if pt.type_tag is SpectralType.TWO_SIDED_POSITIVE]
    if not tsp:
        return []
    gap = clustering(gen.operator).min_gap
    carrier_radius = 0.4 * gap if np.isfinite(gap) else 1.0
    carrier = Region(
        tuple(piece for pt in tsp for piece in Region.disk(pt.value, carrier_radius).pieces)
    )
    lsf = local_spectral_function(gen.operator, carrier)
    tol = 1e-8 * setting.tol_scale
    return verify_lsf_family(lsf, tol=tol).entries


def resolvent_checks(gen: GeneratedOperator) -> list[CheckEntry]:
    entries = []
    N = gen.operator
    points = classified_spectrum(N)
    gap = clustering(N).min_gap
    base = 0.4 * gap if np.isfinite(gap) else 0.5

    tsp = [i for i, pt in enumerate(points) if pt.type_tag is SpectralType.TWO_SIDED_POSITIVE]
    if tsp:
        point = points[tsp[0]].value
        floor = probe_radius_floor(N, point)
        radii = [r for r in (base, base / 2, base / 4, base / 8) if r > floor]
        claim = "the scaled resolvent norm stays bounded near a two-sided positive point"
        # a radius reads 0 when the probe discarded every one of its samples
        probe = resolvent_probe(N, point, radii, samples_per_radius=8) if len(radii) >= 2 else None
        measured = [c for _, c in probe.radius_table if c > 0] if probe else []
        if len(measured) >= 2:
            large, worst = measured[0], max(measured[1:])
            entries.append(
                passfail(
                    "resolvent-bound",
                    worst <= 10.0 * large,
                    residual=worst / large,
                    tolerance=10.0,
                    claim=claim,
                )
            )
        else:
            entries.append(
                CheckEntry(
                    name="resolvent-bound",
                    status=CheckStatus.WARNING,
                    claim=claim,
                    detail="skipped: fewer than two of its radii lie above the probe's "
                    f"radius floor {floor:.3g}"
                    + ("" if len(radii) < 2 else " and keep a sample off the spectrum"),
                )
            )
    defective = [i for i, pt in enumerate(points) if pt.alg_mult == 2 and pt.geo_mult == 1]
    for name, witnesses, expected, claim in (
        ("pole-order-definite", tsp, 1,
         "an isolated two-sided positive point is a first-order pole"),
        ("pole-order-jordan", defective, 2,
         "the defective neutral witness is a second-order pole"),
    ):
        if witnesses:
            order = pole_order(N, witnesses[0])
            passed = order == expected
            entries.append(passfail(name, passed, residual=float(order or -1), claim=claim))
    return entries


def stability_checks(gen: GeneratedOperator, trial_seed: int) -> list[CheckEntry]:
    entries = []
    expected_stable = all(
        t.expected_type in DEFINITE_TAGS for t in gen.ground_truth
    )
    stable, decomposition = strong_stability_check(gen.operator)
    entries.append(
        passfail(
            "strong-stability-detection",
            stable == expected_stable,
            claim="strong stability holds exactly when every point is definite",
            detail=f"expected {expected_stable}, got {stable}",
        )
    )
    if stable and decomposition is not None:
        entries.extend(decomposition.entries)
        margin = classification_margin(gen)
        if np.isfinite(margin) and margin > 0:
            delta = 0.45 * margin
            perturbed = perturb_structured(gen, delta, seed=trial_seed)
            still_stable, _ = strong_stability_check(perturbed.operator)
            entries.append(
                passfail(
                    "stability-under-perturbation",
                    still_stable,
                    residual=delta,
                    claim="perturbations below half the classification margin "
                    "preserve strong stability",
                )
            )
    return entries


def numerics_checks(rng: np.random.Generator) -> list[CheckEntry]:
    entries = []
    k, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    s = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    t = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)) + 10.0 * np.eye(m)
    z = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
    x = solve_sylvester(s, t, z)
    scale = (
        1e-8 * (np.linalg.norm(s, 2) + np.linalg.norm(t, 2)) * frobenius(x)
        + 1e-8 * frobenius(z)
    )
    residual = frobenius(s @ x - x @ t - z)
    entries.append(
        passfail(
            "sylvester-residual",
            residual <= scale,
            residual=residual,
            tolerance=scale,
            claim="the triangularized solver meets its residual contract",
        )
    )
    x_dense = solve_sylvester_dense(s, t, z)
    diff = frobenius(x - x_dense) / max(1.0, frobenius(x_dense))
    entries.append(
        passfail(
            "sylvester-oracle-agreement",
            diff <= 1e-9,
            residual=diff,
            tolerance=1e-9,
            claim="the solver matches the dense vectorized oracle",
        )
    )

    a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    pivot = float(np.median(np.linalg.eigvals(a).real))
    schur = complex_schur(a)
    select = np.diag(schur[0]).real > pivot + 1e-3
    dec = ordered_spectral_decomposition(a, schur, select)
    dec_c = ordered_spectral_decomposition(a, schur, ~select)
    q1, q2 = spectral_projector(dec), spectral_projector(dec_c)
    completeness = frobenius(q1 + q2 - np.eye(k))
    entries.append(
        passfail(
            "ordered-decomposition-complementary",
            completeness <= 1e-9,
            residual=completeness,
            tolerance=1e-9,
            claim="projections from complementary selectors sum to the identity",
        )
    )
    return entries


def _check_dims(dims: tuple[int, int]) -> None:
    for end in dims:
        require_integer("dims", end, 1, MAX_DIM)
    if len(dims) != 2 or dims[0] > dims[1]:
        raise ArgumentError("dims", f"expected a dimension range lo <= hi, got {dims!r}")


def run_trial(
    trial: int,
    base_seed: int,
    dims: tuple[int, int],
    cond_bound: float,
) -> list[CheckEntry]:
    """The check entries of one trial, on an operator of a dimension drawn
    from ``dims``, which must lie in ``[1, MAX_DIM]``."""
    _check_dims(dims)
    rng = np.random.default_rng([base_seed, trial])
    dim = int(rng.integers(dims[0], dims[1] + 1))
    spec = sample_generator_spec(rng, dim, cond_bound=cond_bound)
    gen = build_normal_with_types(spec)
    trial_seed = int(rng.integers(2**63))

    setting = TrialSetting(
        relaxed=cond_bound > COND_STRICT,
        tol_scale=max(1.0, gen.conjugator_cond / COND_STRICT),
    )

    def guarded(group: str, fn) -> list[CheckEntry]:
        # in the relaxed regime a geometric refusal voids one check group,
        # not the trial; in the strict regime it propagates as a failure
        if not setting.relaxed:
            return fn()
        try:
            return fn()
        except (*REFUSALS, ValueError) as exc:
            return [
                CheckEntry(
                    name=f"{group}-refused",
                    status=CheckStatus.WARNING,
                    claim="checks skipped: geometry undecidable at this conditioning",
                    detail=f"{type(exc).__name__}: {exc}",
                )
            ]

    entries = classification_checks(gen, setting)
    entries.extend(guarded("projections", lambda: projection_checks(gen, setting)))
    entries.extend(guarded("lsf", lambda: lsf_checks(gen, setting)))
    entries.extend(guarded("resolvent", lambda: resolvent_checks(gen)))
    entries.extend(guarded("stability", lambda: stability_checks(gen, trial_seed)))
    if setting.relaxed:
        entries = [
            replace(
                e,
                status=CheckStatus.WARNING,
                detail=(e.detail + "; " if e.detail else "")
                + "undecidable at this conditioning",
            )
            if e.status is CheckStatus.FAIL
            else e
            for e in entries
        ]
    entries.extend(numerics_checks(rng))
    return entries


def run_suite(
    trials: int,
    seed: int,
    dims: tuple[int, int] = (2, 12),
    cond_bound: float = 1e3,
    only_trial: int | None = None,
) -> VerificationReport:
    """Run the full battery over seeded trials and aggregate a report.

    Deterministic in (trials, seed, dims, cond_bound): per-trial
    generators derive their streams from (seed, index), so a trial run
    alone with ``only_trial`` gives the entries it gives in a full run.
    :class:`ArgumentError` refuses, before any trial runs, all but integer
    ``trials >= 1`` and ``seed >= 0``, finite ``cond_bound >= 1``, integer
    ``dims`` with ``1 <= lo <= hi <= MAX_DIM`` and ``only_trial`` in ``range(trials)``.
    """
    require_integer("trials", trials, 1)
    require_integer("seed", seed, 0)
    if isinstance(cond_bound, bool) or not 1 <= cond_bound < math.inf:  # also refuses NaN
        raise ArgumentError("cond_bound", f"must be finite and at least 1, got {cond_bound!r}")
    _check_dims(dims)
    if only_trial is not None:
        require_integer("only_trial", only_trial, 0, trials - 1)
    started = time.perf_counter()
    indices = [only_trial] if only_trial is not None else list(range(trials))
    relaxed = cond_bound > COND_STRICT

    def repro(i: int) -> str:
        return (
            f"krein-spectra suite --trials {trials} --seed {seed} "
            f"--dims {dims[0]}:{dims[1]} --cond-bound {cond_bound:g} --only-trial {i}"
        )

    def one(i: int) -> list[CheckEntry]:
        try:
            return [e.with_trial(i, repro(i)) for e in run_trial(i, seed, dims, cond_bound)]
        except (KreinError, np.linalg.LinAlgError) as exc:
            refused = relaxed and isinstance(exc, REFUSALS)
            status = CheckStatus.WARNING if refused else CheckStatus.FAIL
            return [
                CheckEntry(
                    name="trial-error",
                    status=status,
                    claim="trial machinery must not raise",
                    detail=f"{type(exc).__name__}: {exc}",
                    trial=i,
                    repro=repro(i),
                )
            ]

    report = VerificationReport(seed=seed)
    report.parameters = {
        "trials": trials,
        "dims": list(dims),
        "cond_bound": cond_bound,
        "only_trial": only_trial,
    }
    for i in indices:
        report.extend(one(i))
    report.wall_time_s = time.perf_counter() - started
    return report
