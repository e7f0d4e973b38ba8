"""Spectral projections and their verification.

Riesz projections are computed two ways that share only the operator's
cached Schur factor: by contour quadrature of the resolvent over region
boundaries, evaluated in the Schur basis, and by an ordered Schur
decomposition decoupled with a Sylvester solve.  On top of the
projections sit the local spectral function (a projection-valued set
function on subsets of a carrier of two-sided positive type), its axiom
checker, resolvent-bound probes and the strong-stability test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._errors import (
    AmbiguousRegionError,
    CheckFailure,
    ContourThroughSpectrumError,
    PreconditionError,
)
from .classification import (
    DEFINITE_TAGS,
    POSITIVE_TAGS,
    SpectralPoint,
    SpectralType,
    ToleranceConfig,
    classified_spectrum,
    locate_point,
    schur_mask,
)
from .core import (
    DefinitenessKind,
    DefinitenessVerdict,
    KreinOperator,
    KreinSpace,
    SubspaceBasis,
    compressed_gram,
    definiteness,
    frobenius,
    is_normal,
    krein_adjoint,
    max_principal_angle,
)
from .numerics import (
    _NODE_BATCH,
    contour_integral_resolvent,
    ordered_spectral_decomposition,
    resolvent_at,
    smallest_singular_values,
    spectral_projector,
)
from .regions import Disk, Region
from .report import CheckEntry, CheckStatus, VerificationReport, passfail

__all__ = [
    "FundamentalDecomposition",
    "LocalSpectralFunction",
    "ResolventProbeResult",
    "SpectralProjectionResult",
    "local_spectral_function",
    "projection_defect",
    "range_basis",
    "region_selection",
    "resolvent_probe",
    "riesz_projection_contour",
    "riesz_projection_oracle",
    "strong_stability_check",
    "verify_lsf_axioms",
    "verify_maximality",
    "verify_spectral_set_theorem",
]

_IDEM_ACCEPT_FACTOR = 1e-8
_CONVERGENCE_FLAG_TOL = 1e-6
# projections have singular values either >= 1 or ~ 0, so this cut
# separates range from kernel directions robustly
_RANGE_CUTOFF = 0.5
# projection_defect: idempotency acceptance and defect rank cut, both relative
_DEFECT_IDEM_TOL = 1e-8
_DEFECT_RANK_TOL = 1e-8
# largest sample count per radius of a resolvent probe
MAX_PROBE_SAMPLES = 2**14


def range_basis(Q: np.ndarray) -> SubspaceBasis:
    """Orthonormal basis of a projection's range: the left singular
    vectors whose singular value exceeds ``_RANGE_CUTOFF``."""
    u, s, _ = np.linalg.svd(np.asarray(Q, dtype=np.complex128))
    rank = int(np.count_nonzero(s > _RANGE_CUTOFF))
    return SubspaceBasis(u[:, :rank])


@dataclass(frozen=True)
class SpectralProjectionResult:
    """A projection with its residual diagnostics.

    Residuals are absolute Frobenius norms; ``basis`` is the range of the
    projection (:func:`range_basis`, computed once) and ``gram_margin``
    classifies it in the indefinite product.  A result over the idempotency
    acceptance bound is refused with :class:`CheckFailure`, except on the
    contour route, which returns it flagged with an
    ``idempotency-above-acceptance`` warning.
    """

    matrix: np.ndarray
    target: Region
    idem_residual: float
    selfadj_residual: float
    commute_residual: float
    gram_margin: DefinitenessVerdict
    basis: SubspaceBasis
    warnings: tuple[str, ...] = ()

    @property
    def rank(self) -> int:
        return self.basis.k


def _make_result(
    Q: np.ndarray,
    N: KreinOperator,
    target: Region,
    cfg: ToleranceConfig,
    warnings: tuple[str, ...] = (),
    strict: bool = True,
) -> SpectralProjectionResult:
    idem = frobenius(Q @ Q - Q)
    accept = _IDEM_ACCEPT_FACTOR * (1.0 + frobenius(Q) ** 2)
    if idem > accept:
        if strict:
            raise CheckFailure(
                f"projection rejected: idempotency residual {idem:.3e} "
                f"exceeds {accept:.3e}"
            )
        warnings = warnings + (f"idempotency-above-acceptance:{idem:.3e}",)
    selfadj = frobenius(krein_adjoint(Q, N.space) - Q)
    commute = frobenius(Q @ N.matrix - N.matrix @ Q)
    basis = range_basis(Q)
    return SpectralProjectionResult(
        matrix=Q,
        target=target,
        idem_residual=idem,
        selfadj_residual=selfadj,
        commute_residual=commute,
        gram_margin=definiteness(basis, N.space, cfg.definiteness_tol),
        basis=basis,
        warnings=warnings,
    )


def region_selection(
    N: KreinOperator, region: Region, cfg: ToleranceConfig, values: Sequence[complex]
) -> frozenset[int]:
    """Indices of the ``values`` that ``region`` selects for the operator N.

    The one place a region's selection is decided: both Riesz routes, the
    spectral-set theorem and the local spectral function go through it.
    It refuses first, with :class:`ContourThroughSpectrumError`, when an
    eigenvalue of N lies within the boundary gap ``max(cluster radius,
    cluster_tol * max(1, ||N||))`` of any piece boundary, hidden ones
    included.  Away from every boundary, closed and half-open edges select
    alike and conjugation preserves membership; only then is membership
    reported, as plain containment.
    """
    gap = max(cfg.cluster_radius(N), cfg.cluster_tol * max(1.0, N.norm))
    offenders = [z for z in N.eigenvalues if region.boundary_distance(z) <= gap]
    if offenders:
        raise ContourThroughSpectrumError(
            f"region boundary passes within {gap:.3e} of eigenvalues {offenders}"
        )
    return frozenset(i for i, z in enumerate(values) if region.contains(z))


def riesz_projection_contour(
    N: KreinOperator,
    region: Region,
    cfg: ToleranceConfig = ToleranceConfig(),
) -> SpectralProjectionResult:
    """Contour-quadrature Riesz projection onto the spectrum inside a region.

    Integrates the resolvent over every primitive boundary and sums.  An
    eigenvalue covered by two primitives would be counted twice, so such
    regions are refused.  The resolvents are evaluated in the operator's
    cached Schur basis (``N.schur``, the factor the oracle route certifies)
    by :func:`resolvent_at`.  Convergence is self-checked by doubling the
    node count: the sums at ``cfg.contour_nodes`` and at twice as many
    nodes come from one pass, and on a disk the coarse rule reuses the even
    nodes of the fine one, so each disk node is evaluated once.  A
    discrepancy above 1e-6 flags the result instead of failing.
    """
    eigs = N.eigenvalues
    inside = region_selection(N, region, cfg, eigs)
    doubly_covered = [eigs[i] for i in sorted(inside) if region.covering_count(eigs[i]) >= 2]
    if doubly_covered:
        raise AmbiguousRegionError(
            f"primitives overlap on eigenvalues {doubly_covered}; "
            "the per-primitive contour sum would double-count them"
        )

    rules = [piece.quadrature_pair(cfg.contour_nodes) for piece in region.pieces]
    points = np.concatenate([np.empty(0)] + [pts for pts, _ in rules])
    weights = np.concatenate([np.empty((2, 0))] + [wts for _, wts in rules], axis=1)
    q, q_refined = resolvent_at(N.schur, points, weights / (2.0j * np.pi))
    delta = frobenius(q_refined - q)
    warnings = ()
    if delta > _CONVERGENCE_FLAG_TOL:
        warnings = (f"quadrature-not-converged:delta={delta:.3e}",)
    return _make_result(q, N, region, cfg, warnings, strict=False)


def riesz_projection_oracle(
    N: KreinOperator,
    region: Region,
    cfg: ToleranceConfig = ToleranceConfig(),
) -> SpectralProjectionResult:
    """Riesz projection via ordered Schur decomposition and Sylvester
    decoupling; independent of the contour path.  ``N.eigenvalues`` is
    the Schur diagonal, so the region's selection is the reordering mask."""
    select = np.isin(np.arange(N.dim), list(region_selection(N, region, cfg, N.eigenvalues)))
    dec = ordered_spectral_decomposition(N.matrix, N.schur, select)
    return _make_result(spectral_projector(dec), N, region, cfg)


def verify_spectral_set_theorem(
    N: KreinOperator,
    region: Region,
    cfg: ToleranceConfig = ToleranceConfig(),
) -> VerificationReport:
    """Check that a positive-type spectral set has a selfadjoint Riesz
    projection with uniformly positive range on which the operator is
    normal in the induced Hilbert space, and that its points upgrade to
    two-sided positive type.

    The precondition asks only for one-sided positivity of the kernels;
    two-sidedness is part of the conclusion.  Precondition violations mark
    the report inapplicable rather than failed.
    """
    report = VerificationReport()
    points = classified_spectrum(N, cfg)
    try:
        selected = region_selection(N, region, cfg, [pt.value for pt in points])
    except ContourThroughSpectrumError as exc:
        report.entries.append(
            CheckEntry(
                name="spectral-set-separation",
                status=CheckStatus.INAPPLICABLE,
                claim="region boundary must separate the spectrum",
                detail=str(exc),
            )
        )
        return report

    inside = [points[i] for i in sorted(selected)]
    not_positive = [
        pt
        for pt in inside
        if definiteness(pt.kernel, N.space, cfg.definiteness_tol).kind
        is not DefinitenessKind.UNIFORMLY_POSITIVE
    ]
    if not_positive:
        report.entries.append(
            CheckEntry(
                name="spectral-set-positive-type",
                status=CheckStatus.INAPPLICABLE,
                claim="every enclosed eigenvalue must be of positive type",
                detail="offenders: "
                + ", ".join(f"{pt.value:.6g} [{pt.type_tag.value}]" for pt in not_positive),
            )
        )
        return report

    result = riesz_projection_oracle(N, region, cfg)
    qn = frobenius(result.matrix)

    tol_selfadj = 1e-8 * (1.0 + qn)
    report.entries.append(
        passfail(
            "projection-selfadjoint",
            result.selfadj_residual <= tol_selfadj,
            residual=result.selfadj_residual,
            tolerance=tol_selfadj,
            claim="the spectral-set projection is selfadjoint",
        )
    )
    tol_commute = 1e-8 * (1.0 + qn) * max(1.0, N.norm)
    report.entries.append(
        passfail(
            "projection-commutes",
            result.commute_residual <= tol_commute,
            residual=result.commute_residual,
            tolerance=tol_commute,
            claim="the projection commutes with the operator",
        )
    )

    basis = result.basis
    if basis.k == 0:
        report.entries.append(
            CheckEntry(
                name="range-uniformly-positive",
                status=CheckStatus.PASS,
                claim="empty spectral set gives the zero projection",
                detail="vacuous: no eigenvalues enclosed",
            )
        )
        return report

    margin = result.gram_margin
    report.entries.append(
        passfail(
            "range-uniformly-positive",
            margin.kind is DefinitenessKind.UNIFORMLY_POSITIVE and margin.margin > 1e-6,
            residual=margin.margin,
            tolerance=1e-6,
            claim="the projection range is uniformly positive",
        )
    )

    restriction = basis.columns.conj().T @ N.matrix @ basis.columns
    hilbert = KreinSpace(compressed_gram(basis, N.space))
    _, normality = is_normal(restriction, hilbert, cfg.normality_tol)
    report.entries.append(
        passfail(
            "restriction-normal-in-hilbert-space",
            normality <= 1e-8,
            residual=normality,
            tolerance=1e-8,
            claim="the restricted operator is normal for the induced positive product",
        )
    )

    two_sided = all(pt.type_tag is SpectralType.TWO_SIDED_POSITIVE for pt in inside)
    report.entries.append(
        passfail(
            "enclosed-points-two-sided",
            two_sided,
            claim="a positive-type spectral set is of two-sided positive type",
            detail=", ".join(f"{pt.value:.6g}:{pt.type_tag.value}" for pt in inside),
        )
    )
    return report


def projection_defect(Q: np.ndarray, space: KreinSpace) -> tuple[np.ndarray, bool]:
    """Defect ``P = Q - Q adj(Q)`` of a projection, and whether its range
    is neutral.

    For a normal projection the defect is again a projection with neutral
    range; it vanishes exactly when Q is selfadjoint.
    """
    Q = np.asarray(Q, dtype=np.complex128)
    idem = frobenius(Q @ Q - Q)
    if idem > _DEFECT_IDEM_TOL * (1.0 + frobenius(Q) ** 2):
        raise PreconditionError(
            f"input is not idempotent: residual {idem:.3e}"
        )
    p = Q - Q @ krein_adjoint(Q, space)
    u, s, _ = np.linalg.svd(p)
    threshold = _DEFECT_RANK_TOL * max(1.0, frobenius(Q)) ** 2
    rank = int(np.count_nonzero(s > threshold))
    basis = SubspaceBasis(u[:, :rank])
    verdict = definiteness(basis, space)
    neutral = verdict.kind in (DefinitenessKind.NEUTRAL, DefinitenessKind.ZERO)
    return p, neutral


def _kernel_span(
    points: Sequence[SpectralPoint], dim: int, rank_tol: float
) -> SubspaceBasis:
    """Orthonormal basis of the sum of the points' kernels."""
    if not points:
        return SubspaceBasis.zero(dim)
    return SubspaceBasis.from_columns(np.hstack([pt.kernel.columns for pt in points]), rank_tol)


class LocalSpectralFunction:
    """Projection-valued set function on subsets of a positive carrier.

    ``evaluate`` depends only on which eigenvalues fall inside the queried
    region; projections are direct sums of per-cluster Riesz projections
    and are cached per eigenvalue subset (write-once keys, safe under
    concurrent evaluation)."""

    def __init__(
        self,
        operator: KreinOperator,
        carrier: Region,
        points: list[SpectralPoint],
        cfg: ToleranceConfig,
    ):
        self.operator = operator
        self.carrier = carrier
        self.points = points
        self.values = [pt.value for pt in points]
        self.cfg = cfg
        self.carrier_indices = region_selection(operator, carrier, cfg, self.values)
        self._cluster_projectors: dict[int, np.ndarray] = {}
        self._cache: dict[frozenset[int], SpectralProjectionResult] = {}

    def cluster_projector(self, index: int) -> np.ndarray:
        cached = self._cluster_projectors.get(index)
        if cached is None:
            N = self.operator
            dec = ordered_spectral_decomposition(
                N.matrix, N.schur, schur_mask(N, [self.points[index]])
            )
            cached = self._cluster_projectors.setdefault(index, spectral_projector(dec))
        return cached

    def indices_in(self, region: Region) -> frozenset[int]:
        inside = region_selection(self.operator, region, self.cfg, self.values)
        stray = inside - self.carrier_indices
        if stray:
            raise PreconditionError(
                "region contains eigenvalues outside the carrier: "
                + ", ".join(f"{self.points[i].value:.6g}" for i in sorted(stray))
            )
        return inside

    def evaluate_indices(
        self, indices: frozenset[int], target: Region | None = None
    ) -> SpectralProjectionResult:
        stray = indices - self.carrier_indices
        if stray:
            raise PreconditionError(f"indices {sorted(stray)} are outside the carrier")
        cached = self._cache.get(indices)
        if cached is None:
            n = self.operator.dim
            q = np.zeros((n, n), dtype=np.complex128)
            for i in sorted(indices):
                q += self.cluster_projector(i)
            result = _make_result(
                q, self.operator, target if target is not None else Region.empty(), self.cfg
            )
            cached = self._cache.setdefault(indices, result)
        return cached

    def evaluate(self, region: Region) -> SpectralProjectionResult:
        return self.evaluate_indices(self.indices_in(region), region)

    def selected_points(self, indices: Iterable[int]) -> list[SpectralPoint]:
        return [self.points[i] for i in sorted(indices)]

    def range_basis_for(self, indices: frozenset[int]) -> SubspaceBasis:
        return _kernel_span(self.selected_points(indices), self.operator.dim, self.cfg.rank_tol)


def local_spectral_function(
    N: KreinOperator,
    carrier: Region,
    cfg: ToleranceConfig = ToleranceConfig(),
) -> LocalSpectralFunction:
    """Build the local spectral function on a carrier whose eigenvalues are
    all of two-sided positive type; offenders are listed otherwise, before
    :func:`region_selection` decides (or refuses) the carrier."""
    points = classified_spectrum(N, cfg)
    offenders = [
        pt
        for pt in points
        if carrier.contains(pt.value) and pt.type_tag is not SpectralType.TWO_SIDED_POSITIVE
    ]
    if offenders:
        raise PreconditionError(
            "carrier is not of two-sided positive type; offenders: "
            + ", ".join(f"{pt.value:.6g} [{pt.type_tag.value}]" for pt in offenders)
        )
    return LocalSpectralFunction(N, carrier, points, cfg)


def _spectral_distance_residual(
    eigs: np.ndarray, allowed: Sequence[complex], scale: float
) -> float:
    if eigs.size == 0:
        return 0.0
    if not allowed:
        return math.inf
    allowed_arr = np.array(allowed)
    return max(float(np.min(np.abs(allowed_arr - z))) for z in eigs) / scale


def verify_lsf_axioms(
    E: LocalSpectralFunction,
    deltas: Sequence[Region],
    commutants: Sequence[np.ndarray],
    tol: float = 1e-8,
) -> VerificationReport:
    """Exercise the projection-valued set function axioms on a family of
    subsets: multiplicativity, additivity on disjoint unions, commutant
    invariance, restriction and complement spectral inclusions, uniform
    positivity, selfadjointness, and the adjoint-operator transfer law.

    Residuals are aggregated (worst case) per axiom; every finding is an
    entry, never an exception.
    """
    report = VerificationReport()
    N = E.operator
    scale = max(1.0, N.norm)
    index_sets = [E.indices_in(d) for d in deltas]
    results = [E.evaluate_indices(ix, d) for ix, d in zip(index_sets, deltas)]

    # (S1) multiplicativity over all pairs
    worst = 0.0
    for i in range(len(deltas)):
        for j in range(len(deltas)):
            inter = E.evaluate_indices(index_sets[i] & index_sets[j])
            prod = results[i].matrix @ results[j].matrix
            norm_scale = max(1.0, frobenius(results[i].matrix) * frobenius(results[j].matrix))
            worst = max(worst, frobenius(inter.matrix - prod) / norm_scale)
    report.entries.append(
        passfail(
            "lsf-multiplicativity",
            worst <= tol,
            residual=worst,
            tolerance=tol,
            claim="projection of an intersection equals the product of projections",
        )
    )

    # (S2) additivity on disjoint families
    worst = 0.0
    checked = False
    for i in range(len(deltas)):
        for j in range(i + 1, len(deltas)):
            if index_sets[i] & index_sets[j]:
                continue
            checked = True
            union_region = deltas[i].union(deltas[j])
            union = E.evaluate(union_region)
            summed = results[i].matrix + results[j].matrix
            worst = max(
                worst,
                frobenius(union.matrix - summed) / max(1.0, frobenius(summed)),
            )
    report.entries.append(
        CheckEntry(
            name="lsf-additivity",
            status=CheckStatus.PASS
            if (not checked or worst <= tol)
            else CheckStatus.FAIL,
            residual=worst if checked else None,
            tolerance=tol,
            claim="projections add over disjoint subsets",
            detail="" if checked else "no disjoint pairs in the family",
        )
    )

    # (S3) commutants
    worst = 0.0
    skipped = []
    for b_idx, b in enumerate(commutants):
        b = np.asarray(b, dtype=np.complex128)
        b_scale = max(1.0, frobenius(b))
        comm_n = frobenius(b @ N.matrix - N.matrix @ b) / (b_scale * scale)
        if comm_n > tol:
            skipped.append(b_idx)
            continue
        for res in results:
            q = res.matrix
            worst = max(
                worst,
                frobenius(q @ b - b @ q) / (b_scale * max(1.0, frobenius(q))),
            )
    report.entries.append(
        passfail(
            "lsf-commutant-invariance",
            worst <= tol,
            residual=worst,
            tolerance=tol,
            claim="projections commute with every operator commuting with the operator",
            detail=f"commutants skipped (not commuting with N): {skipped}" if skipped else "",
        )
    )

    # (S4)/(S5) spectral inclusion of the (co)restrictions.  For invariant
    # subspaces this is equivalent to containment in the invariant
    # subspace of the allowed clusters, which stays computable to machine
    # precision even when the complement carries defective eigenvalues.
    worst_in, worst_out = 0.0, 0.0
    all_indices = frozenset(range(len(E.points)))

    def invariant_subspace(indices: frozenset[int]) -> SubspaceBasis:
        dec = ordered_spectral_decomposition(
            N.matrix, N.schur, schur_mask(N, E.selected_points(indices))
        )
        return SubspaceBasis(dec.unitary[:, : dec.split])

    for ix, res in zip(index_sets, results):
        if ix:
            worst_in = max(
                worst_in,
                max_principal_angle(invariant_subspace(ix), E.range_basis_for(ix)),
            )
        comp = range_basis(np.eye(N.dim) - res.matrix)
        rest = all_indices - ix
        if comp.k > 0 and rest:
            worst_out = max(
                worst_out, max_principal_angle(invariant_subspace(rest), comp)
            )
        elif comp.k > 0:
            worst_out = float(np.pi / 2)
    report.entries.append(
        passfail(
            "lsf-restriction-spectrum",
            worst_in <= tol,
            residual=worst_in,
            tolerance=tol,
            claim="the restricted spectrum stays inside the selected eigenvalues",
        )
    )
    report.entries.append(
        passfail(
            "lsf-complement-spectrum",
            worst_out <= tol,
            residual=worst_out,
            tolerance=tol,
            claim="the complement restriction excludes the selected eigenvalues",
        )
    )

    # (S6) uniform positivity
    min_margin = math.inf
    for res in results:
        if res.gram_margin.kind is DefinitenessKind.ZERO:
            continue
        if res.gram_margin.kind is not DefinitenessKind.UNIFORMLY_POSITIVE:
            min_margin = -math.inf
            break
        min_margin = min(min_margin, res.gram_margin.margin)
    report.entries.append(
        passfail(
            "lsf-uniform-positivity",
            min_margin > 0,
            residual=None if math.isinf(min_margin) else min_margin,
            tolerance=0.0,
            claim="every nonzero projection range is uniformly positive",
        )
    )

    # selfadjointness and commutation with the operator and its adjoint
    worst = 0.0
    for res in results:
        q = res.matrix
        q_scale = max(1.0, frobenius(q))
        worst = max(worst, res.selfadj_residual / q_scale)
        worst = max(worst, res.commute_residual / (q_scale * scale))
        worst = max(
            worst,
            frobenius(q @ N.adjoint - N.adjoint @ q) / (q_scale * scale),
        )
    report.entries.append(
        passfail(
            "lsf-projection-selfadjoint-commuting",
            worst <= tol,
            residual=worst,
            tolerance=tol,
            claim="projections are selfadjoint and commute with the operator and adjoint",
        )
    )

    # adjoint transfer: conjugated subsets give a spectral function for the adjoint
    worst = 0.0
    structural_ok = True
    for d, ix in zip(deltas, index_sets):
        conj_region = d.conjugate()
        for i in sorted(ix):
            if not conj_region.contains(np.conj(E.points[i].value)):
                structural_ok = False
        basis = E.range_basis_for(ix)
        if basis.k > 0:
            eigs = np.linalg.eigvals(basis.columns.conj().T @ N.adjoint @ basis.columns)
            conj_selected = [np.conj(E.points[i].value) for i in sorted(ix)]
            worst = max(worst, _spectral_distance_residual(eigs, conj_selected, scale))
    report.entries.append(
        passfail(
            "lsf-adjoint-transfer",
            structural_ok and worst <= tol,
            residual=worst,
            tolerance=tol,
            claim="conjugated subsets define a spectral function for the adjoint",
            detail="" if structural_ok else "region conjugation lost a selected eigenvalue",
        )
    )
    return report


def verify_maximality(
    E: LocalSpectralFunction,
    delta: Region,
    n_subspaces: int = 20,
    seed: int = 0,
    tol: float = 1e-8,
) -> CheckEntry:
    """Check that the projection range contains every invariant subspace
    whose restricted spectrum lies in the subset.

    Random invariant subspaces are drawn inside the kernels of the
    selected eigenvalues; the worst principal angle against the projection
    range is reported."""
    indices = E.indices_in(delta)
    full_range = E.range_basis_for(indices)
    rng = np.random.default_rng(seed)
    worst = 0.0
    selected = E.selected_points(indices)
    for _ in range(n_subspaces):
        blocks = []
        for pt in selected:
            k = pt.kernel.k
            d = int(rng.integers(0, k + 1))
            if d == 0:
                continue
            g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            q, _ = np.linalg.qr(g)
            blocks.append(pt.kernel.columns @ q[:, :d])
        if not blocks:
            continue
        m = SubspaceBasis.from_columns(np.hstack(blocks))
        worst = max(worst, max_principal_angle(full_range, m))
    return passfail(
        "lsf-maximality",
        worst <= tol,
        residual=worst,
        tolerance=tol,
        claim="the projection range is the maximal spectral subspace",
    )


@dataclass(frozen=True)
class ResolventProbeResult:
    """Resolvent growth constant and pole order at a spectral point."""

    c_estimate: float
    pole_order: int | None
    radius_table: tuple[tuple[float, float], ...]


def resolvent_probe(
    N: KreinOperator,
    lam0: complex,
    radii: Sequence[float],
    samples_per_radius: int = 16,
    cfg: ToleranceConfig = ToleranceConfig(),
) -> ResolventProbeResult:
    """Sample ``||(N - z)^{-1}|| * dist(z, spectrum)`` on circles around a
    spectral point and measure the resolvent pole order there.

    The pole order is the smallest power k >= 1 whose weighted contour
    integral of the resolvent vanishes; it equals one exactly at isolated
    points of two-sided positive type and exceeds one at defective ones.
    Its circle of integration is refused by :func:`region_selection` when
    it passes within the boundary gap of an eigenvalue.  Samples landing
    within the clustering radius of the spectrum are discarded.

    ``||(N - z)^{-1}|| = 1 / sigma_min(N - z)``, and ``sigma_min(N - z)``
    equals ``sigma_min(T - z)`` for the cached Schur factor T.  Above
    dimension 32 it comes from Golub-Kahan bidiagonalization of
    ``(z - T)^{-1}`` (triangular solves only), each value certified to
    1e-10 relative; at or below dimension 32, and for any sample the
    iteration does not certify, from a stacked dense SVD of the ``N - z``
    (:func:`numerics.smallest_singular_values`).  ``samples_per_radius``
    lies in ``[1, MAX_PROBE_SAMPLES]``.
    """
    radii = [float(r) for r in radii]
    if not radii or any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly decreasing")
    if not 1 <= samples_per_radius <= MAX_PROBE_SAMPLES:
        raise ValueError(f"samples_per_radius must be between 1 and {MAX_PROBE_SAMPLES}")
    idx = locate_point(N, lam0, cfg)
    points = classified_spectrum(N, cfg)
    reps = np.array([pt.value for pt in points])
    cluster_radius = cfg.cluster_radius(N)
    center = complex(reps[idx])

    theta = 2.0 * np.pi * (np.arange(samples_per_radius) + 0.5) / samples_per_radius
    zs = (center + np.multiply.outer(radii, np.exp(1j * theta))).reshape(-1)
    ratio = np.zeros(zs.size)
    for lo in range(0, zs.size, _NODE_BATCH):
        z = zs[lo : lo + _NODE_BATCH]
        dist = np.min(np.abs(reps - z[:, None]), axis=1)
        kept = dist > cluster_radius
        ratio[lo : lo + z.size][kept] = dist[kept] / smallest_singular_values(
            N.matrix, N.schur[0], z[kept]
        )
    table = tuple(
        (r, float(c)) for r, c in zip(radii, ratio.reshape(len(radii), -1).max(axis=1))
    )
    c_estimate = max(c for _, c in table)

    pole_order: int | None = None
    others = np.delete(reps, idx)
    if others.size:
        isolation = float(np.min(np.abs(others - center))) / 2.0
    else:
        isolation = max(1.0, 0.5 * (1.0 + abs(center)))
    if isolation > 10.0 * cluster_radius:
        circle = Disk(center, isolation)
        region_selection(N, Region((circle,)), cfg, ())  # refuses, selects nothing
        pole_tol = 1e-8 * max(1.0, N.norm)
        for k in range(1, points[idx].alg_mult + 1):
            coeff = contour_integral_resolvent(N.schur, circle, k, cfg.contour_nodes)
            if frobenius(coeff) <= pole_tol:
                pole_order = k
                break
    return ResolventProbeResult(c_estimate, pole_order, table)


@dataclass(frozen=True)
class FundamentalDecomposition:
    """Invariant fundamental decomposition into a uniformly positive and a
    uniformly negative part, with its certification entries."""

    plus: SubspaceBasis
    minus: SubspaceBasis
    entries: tuple[CheckEntry, ...]

    @property
    def certified(self) -> bool:
        return all(e.status is CheckStatus.PASS for e in self.entries)


def strong_stability_check(
    N: KreinOperator, cfg: ToleranceConfig = ToleranceConfig()
) -> tuple[bool, FundamentalDecomposition | None]:
    """Decide strong stability: every spectral point of definite type.

    When stable, returns the invariant fundamental decomposition built
    from the positive- and negative-type kernels together with
    certification entries (definiteness, orthogonality, completeness,
    invariance, spectral disjointness)."""
    points = classified_spectrum(N, cfg)
    if any(pt.type_tag not in DEFINITE_TAGS for pt in points):
        return False, None

    pos = [pt for pt in points if pt.type_tag in POSITIVE_TAGS]
    neg = [pt for pt in points if pt.type_tag not in POSITIVE_TAGS]
    dim = N.dim
    plus, minus = _kernel_span(pos, dim, cfg.rank_tol), _kernel_span(neg, dim, cfg.rank_tol)
    entries = []
    scale = max(1.0, N.norm)

    verdict_p = definiteness(plus, N.space, cfg.definiteness_tol)
    entries.append(
        passfail(
            "stability-plus-uniformly-positive",
            verdict_p.kind
            in (DefinitenessKind.UNIFORMLY_POSITIVE, DefinitenessKind.ZERO),
            residual=verdict_p.margin,
            claim="the positive part is uniformly positive",
        )
    )
    verdict_m = definiteness(minus, N.space, cfg.definiteness_tol)
    entries.append(
        passfail(
            "stability-minus-uniformly-negative",
            verdict_m.kind
            in (DefinitenessKind.UNIFORMLY_NEGATIVE, DefinitenessKind.ZERO),
            residual=verdict_m.margin,
            claim="the negative part is uniformly negative",
        )
    )
    cross = (
        frobenius(plus.columns.conj().T @ N.space.gram @ minus.columns)
        / N.space.gram_scale
        if plus.k and minus.k
        else 0.0
    )
    entries.append(
        passfail(
            "stability-parts-orthogonal",
            cross <= 1e-8,
            residual=cross,
            tolerance=1e-8,
            claim="the two parts are orthogonal in the indefinite product",
        )
    )
    entries.append(
        passfail(
            "stability-parts-complete",
            plus.k + minus.k == dim,
            residual=float(plus.k + minus.k),
            claim="the parts span the whole space",
            detail=f"dims {plus.k} + {minus.k} vs {dim}",
        )
    )
    worst_inv = 0.0
    for basis in (plus, minus):
        if basis.k == 0:
            continue
        complement = np.eye(dim) - basis.projector()
        worst_inv = max(worst_inv, frobenius(complement @ N.matrix @ basis.columns) / scale)
    entries.append(
        passfail(
            "stability-parts-invariant",
            worst_inv <= 1e-8,
            residual=worst_inv,
            tolerance=1e-8,
            claim="both parts are invariant under the operator",
        )
    )
    if pos and neg:
        gap = min(abs(p.value - m.value) for p in pos for m in neg)
        disjoint = gap > cfg.cluster_radius(N)
    else:
        gap, disjoint = math.inf, True
    entries.append(
        passfail(
            "stability-spectra-disjoint",
            disjoint,
            residual=None if math.isinf(gap) else gap,
            tolerance=cfg.cluster_radius(N),
            claim="the restricted spectra of the two parts are disjoint",
        )
    )
    return True, FundamentalDecomposition(plus, minus, tuple(entries))
