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
    ArgumentError,
    CheckFailure,
    ContourThroughSpectrumError,
    PreconditionError,
    require_integer,
)
from .classification import (
    DEFINITE_TAGS,
    POSITIVE_TAGS,
    SpectralPoint,
    SpectralType,
    clustering,
    clusters_in,
    invariant_decomposition,
    invariant_subspace,
    locate_point,
    spectral_point,
)
from .core import (
    DefinitenessKind,
    DefinitenessVerdict,
    KreinOperator,
    KreinSpace,
    SubspaceBasis,
    compressed_gram,
    definiteness,
    is_normal,
    krein_adjoint,
    max_principal_angle,
)
from .numerics import (
    boundary_resolvent_sums,
    commutator_norm,
    frobenius,
    projector_row,
    smallest_singular_values,
    spectral_projector,
)
from .regions import Disk, Region
from .report import CheckEntry, CheckStatus, VerificationReport, passfail

__all__ = [
    "ContourProjection",
    "FundamentalDecomposition",
    "LocalSpectralFunction",
    "ResolventProbeResult",
    "SpectralProjectionResult",
    "cluster_projection",
    "local_spectral_function",
    "pole_order",
    "probe_radius_floor",
    "projection_defect",
    "range_basis",
    "region_selection",
    "resolvent_probe",
    "riesz_projection_contour",
    "riesz_projection_oracle",
    "strong_stability_check",
    "verify_lsf_axioms",
    "verify_lsf_family",
    "verify_maximality",
    "verify_spectral_set_theorem",
]

# accepts ||Q^2 - Q||_F <= factor (1 + ||Q||_F^2): results and defect inputs
_IDEM_ACCEPT_FACTOR = 1e-8
_CONVERGENCE_FLAG_TOL = 1e-6
# projections have singular values either >= 1 or ~ 0, so this cut
# separates range from kernel directions robustly
_RANGE_CUTOFF = 0.5
# projection_defect: defect rank cut, relative
_DEFECT_RANK_TOL = 1e-8
# largest sample count per radius of a resolvent probe
MAX_PROBE_SAMPLES = 2**14
# largest count of random subspaces one maximality check draws
MAX_MAXIMALITY_SUBSPACES = 2**14
# a probe radius must exceed this many ulps of max(1, |point|)
_PROBE_RADIUS_ULPS = 4


def range_basis(Q: np.ndarray) -> SubspaceBasis:
    """Orthonormal basis of a projection's range: the left singular
    vectors whose singular value exceeds ``_RANGE_CUTOFF``."""
    u, s, _ = np.linalg.svd(np.asarray(Q, dtype=np.complex128))
    rank = int(np.count_nonzero(s > _RANGE_CUTOFF))
    return SubspaceBasis(u[:, :rank])


@dataclass(frozen=True)
class SpectralProjectionResult:
    """A projection of the oracle route with its residual diagnostics.

    Residuals are absolute Frobenius norms; ``basis`` is the range of the
    projection (:func:`range_basis`, computed once) and ``gram_margin``
    classifies it in the indefinite product.  A projection over the
    idempotency acceptance bound is refused with :class:`CheckFailure`:
    every result is strict.  The contour route returns a
    :class:`ContourProjection` instead.
    """

    matrix: np.ndarray
    idem_residual: float
    selfadj_residual: float
    commute_residual: float
    gram_margin: DefinitenessVerdict
    basis: SubspaceBasis

    @property
    def rank(self) -> int:
        return self.basis.k


@dataclass(frozen=True)
class ContourProjection:
    """A contour-quadrature projection: its ``matrix``, its absolute
    idempotency residual ``||Q^2 - Q||_F`` and its ``warnings``
    (``quadrature-not-converged``, and ``idempotency-above-acceptance``
    where the oracle route would refuse the residual).  Range, Gram
    classification and the other residuals are left to the oracle route."""

    matrix: np.ndarray
    idem_residual: float
    warnings: tuple[str, ...] = ()


def _idempotency(Q: np.ndarray) -> tuple[float, float]:
    """``||Q^2 - Q||_F`` and the acceptance bound it must not exceed."""
    return frobenius(Q @ Q - Q), _IDEM_ACCEPT_FACTOR * (1.0 + frobenius(Q) ** 2)


def _make_result(Q: np.ndarray, N: KreinOperator) -> SpectralProjectionResult:
    idem, accept = _idempotency(Q)
    if idem > accept:
        raise CheckFailure(
            f"projection rejected: idempotency residual {idem:.3e} "
            f"exceeds {accept:.3e}"
        )
    selfadj = frobenius(krein_adjoint(Q, N.space) - Q)
    commute = commutator_norm(Q, N.matrix)
    basis = range_basis(Q)
    return SpectralProjectionResult(
        matrix=Q,
        idem_residual=idem,
        selfadj_residual=selfadj,
        commute_residual=commute,
        gram_margin=definiteness(basis, N.space, N.tolerances.definiteness_tol),
        basis=basis,
    )


def region_selection(N: KreinOperator, region: Region) -> frozenset[int]:
    """Indices of the clusters of ``clustering(N)`` that ``region``
    selects for the operator N.

    The one place a region's selection is decided: both Riesz routes, the
    spectral-set theorem and the local spectral function go through it.
    It refuses first, with :class:`ContourThroughSpectrumError`, when an
    eigenvalue of N lies within the boundary gap ``max(cluster radius,
    cluster_tol * max(1, ||N||))`` of any piece boundary, hidden ones
    included.  Away from every boundary, closed and half-open edges select
    alike, conjugation preserves membership and no cluster straddles a
    boundary; only then is membership reported (:func:`clusters_in`).
    """
    gap = max(N.cluster_radius, N.tolerances.cluster_tol * N.scale)
    offenders = [z for z in N.eigenvalues if region.boundary_distance(z) <= gap]
    if offenders:
        raise ContourThroughSpectrumError(
            f"region boundary passes within {gap:.3e} of eigenvalues {offenders}"
        )
    return clusters_in(N, region)


def riesz_projection_contour(N: KreinOperator, region: Region) -> ContourProjection:
    """Contour-quadrature Riesz projection onto the spectrum inside a region.

    Integrates the resolvent over every primitive boundary and sums.  An
    eigenvalue covered by two primitives would be counted twice, so such
    regions are refused.  The resolvents are evaluated in the operator's
    cached Schur basis (``N.schur``, the factor the oracle route certifies)
    by :func:`boundary_resolvent_sums`, and the sum is transformed back
    once.  Each piece returns its finest rule, checked against the rule
    with half its nodes.  A disk climbs a nested trapezoid ladder,
    evaluating each node once, and stops as soon as two successive sums
    agree to 1e-10 relative, after at most ``2 *
    N.tolerances.contour_nodes`` nodes; a rectangle's finest rule splits
    each Gauss-Legendre panel of its ``contour_nodes``-node rule in two.
    A change above 1e-6 from the check rule flags the result instead of
    failing, and so does an idempotency residual above the oracle route's
    acceptance bound.
    The result is a :class:`ContourProjection`: the matrix, its idempotency
    residual and those warnings, nothing that would need a range basis.
    """
    region_selection(N, region)  # refuses a boundary through the spectrum
    doubly_covered = [z for z in N.eigenvalues if region.covering_count(z) >= 2]
    if doubly_covered:
        raise AmbiguousRegionError(
            f"primitives overlap on eigenvalues {doubly_covered}; "
            "the per-primitive contour sum would double-count them"
        )

    t, u = N.schur
    # in the Schur basis: the sum and the last change of its convergence check
    sums = np.zeros((2,) + t.shape, dtype=np.complex128)
    for piece in region.pieces:
        sums += boundary_resolvent_sums(t, piece, N.tolerances.contour_nodes)
    # the Frobenius norm of the change needs no transform back
    delta = frobenius(sums[1])
    warnings = ()
    if delta > _CONVERGENCE_FLAG_TOL:
        warnings = (f"quadrature-not-converged:delta={delta:.3e}",)
    Q = u @ sums[0] @ u.conj().T
    idem, accept = _idempotency(Q)
    if idem > accept:
        warnings = warnings + (f"idempotency-above-acceptance:{idem:.3e}",)
    return ContourProjection(Q, idem, warnings)


def riesz_projection_oracle(N: KreinOperator, region: Region) -> SpectralProjectionResult:
    """Riesz projection via ordered Schur decomposition and Sylvester
    decoupling, independent of the contour path: the
    :func:`cluster_projection` of the selected clusters."""
    return cluster_projection(N, region_selection(N, region))


def cluster_projection(N: KreinOperator, indices: frozenset[int]) -> SpectralProjectionResult:
    """The oracle's strict result for the clusters ``indices``, built once
    per cluster set from their :func:`invariant_decomposition`, read-only,
    cached in the clustering; the empty set needs no factorization."""
    cache = clustering(N).projections
    result = cache.get(indices)
    if result is None:
        if indices:
            dec = invariant_decomposition(N, indices)
            result = _make_result(spectral_projector(dec), N)
        else:
            zero = DefinitenessVerdict(DefinitenessKind.ZERO, 0.0)
            q = np.zeros((N.dim, N.dim), dtype=np.complex128)
            result = SpectralProjectionResult(q, 0.0, 0.0, 0.0, zero, SubspaceBasis.zero(N.dim))
        result.matrix.setflags(write=False)
        result = cache.setdefault(indices, result)
    return result


def verify_spectral_set_theorem(N: KreinOperator, region: Region) -> VerificationReport:
    """Check that a positive-type spectral set has a selfadjoint Riesz
    projection with uniformly positive range on which the operator is
    normal in the induced Hilbert space, and that its points upgrade to
    two-sided positive type.

    The precondition asks only for one-sided positivity of the kernels;
    two-sidedness is part of the conclusion.  Precondition violations mark
    the report inapplicable rather than failed.  The restriction's
    normality residual is gated by the operator's own
    ``tolerances.normality_tol``, the threshold of its normality
    certificate, and the entry reports that tolerance.
    """
    report = VerificationReport()
    try:
        selected = region_selection(N, region)
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

    inside = [spectral_point(N, i) for i in sorted(selected)]
    not_positive = [pt for pt in inside if pt.type_tag not in POSITIVE_TAGS]
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

    result = cluster_projection(N, selected)
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
    tol_commute = 1e-8 * (1.0 + qn) * N.scale
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
    normal, normality = is_normal(restriction, hilbert, N.tolerances.normality_tol)
    report.entries.append(
        passfail(
            "restriction-normal-in-hilbert-space",
            normal,
            residual=normality,
            tolerance=N.tolerances.normality_tol,
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
    idem, accept = _idempotency(Q)
    if idem > accept:
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

    Indices name the clusters of the operator's :func:`clustering`, whose
    ``values`` are all it reads of clusters outside the carrier; only
    carrier clusters are ever classified (``selected_points``).
    ``evaluate`` depends only on which clusters fall inside the queried
    region.  The value on a set of clusters is the oracle's
    :func:`cluster_projection` of that set, cached in the clustering, so
    the function keeps no cache of its own.  The empty set gives the zero
    projection without any factorization."""

    def __init__(self, operator: KreinOperator, carrier: Region):
        self.operator = operator
        self.carrier = carrier
        self.values = list(clustering(operator).values)
        self.carrier_indices = region_selection(operator, carrier)

    def cluster_projector(self, indices: frozenset[int]) -> np.ndarray:
        """Riesz projector of the clusters ``indices``: the matrix of their
        :func:`cluster_projection`."""
        return cluster_projection(self.operator, indices).matrix

    def indices_in(self, region: Region) -> frozenset[int]:
        inside = region_selection(self.operator, region)
        stray = inside - self.carrier_indices
        if stray:
            raise PreconditionError(
                "region contains eigenvalues outside the carrier: "
                + ", ".join(f"{self.values[i]:.6g}" for i in sorted(stray))
            )
        return inside

    def evaluate_indices(self, indices: frozenset[int]) -> SpectralProjectionResult:
        stray = indices - self.carrier_indices
        if stray:
            raise PreconditionError(f"indices {sorted(stray)} are outside the carrier")
        return cluster_projection(self.operator, indices)

    def evaluate(self, region: Region) -> SpectralProjectionResult:
        return self.evaluate_indices(self.indices_in(region))

    def selected_points(self, indices: Iterable[int]) -> list[SpectralPoint]:
        """The classified points of the clusters ``indices``, in order."""
        return [spectral_point(self.operator, i) for i in sorted(indices)]


def local_spectral_function(N: KreinOperator, carrier: Region) -> LocalSpectralFunction:
    """Build the local spectral function on a carrier whose eigenvalues are
    all of two-sided positive type; offenders (by :func:`clusters_in`) are
    listed otherwise, before :func:`region_selection` decides (or refuses)
    the carrier.  Only the clusters inside the carrier are classified."""
    inside = [spectral_point(N, i) for i in sorted(clusters_in(N, carrier))]
    offenders = [pt for pt in inside if pt.type_tag is not SpectralType.TWO_SIDED_POSITIVE]
    if offenders:
        raise PreconditionError(
            "carrier is not of two-sided positive type; offenders: "
            + ", ".join(f"{pt.value:.6g} [{pt.type_tag.value}]" for pt in offenders)
        )
    return LocalSpectralFunction(N, carrier)


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
    entry, never an exception.  Additivity and the structural conjugation
    check go per delta; the rest once per distinct non-empty index set, in
    delta order (the empty set's zero projection adds 0 to every residual).
    The union of two deltas selects the union of their index sets (same
    pieces, same boundary test), so additivity evaluates that set directly.

    No commutator is computed twice, and none whose value is known; each
    reused number is the one the plain formula gives, bit for bit, and is
    read off the same result object the check reads, so a result planted
    in the cache is judged by its own numbers:

    * ``||Q - Q Q||`` of a set with itself is the result's
      ``idem_residual`` (negation is exact);
    * for the commutant ``N.matrix`` (the same array), ``||N N - N N||`` is
      exactly 0 and ``||Q N - N Q||`` is the result's ``commute_residual``;
    * for the commutant ``N.adjoint``, ``||N+ N - N N+||`` is the normality
      certificate's ``N.commutator_norm``; ``||Q N+ - N+ Q||`` is checked
      there only: for a G-selfadjoint Q it is ``||(N Q+ - Q+ N)+||``, which
      the selfadjoint-commuting entry's two terms bound.
    """
    report = VerificationReport()
    N = E.operator
    scale = N.scale
    index_sets = [E.indices_in(d) for d in deltas]
    results = [E.evaluate_indices(ix) for ix in index_sets]
    distinct = {ix: res for ix, res in zip(index_sets, results) if ix}

    # (S1) multiplicativity over all pairs
    worst = 0.0
    for ix, res in distinct.items():
        for jx, other in distinct.items():
            inter = E.evaluate_indices(ix & jx)
            if inter is res and other is res:
                gap = res.idem_residual
            else:
                gap = frobenius(inter.matrix - res.matrix @ other.matrix)
            norm_scale = max(1.0, frobenius(res.matrix) * frobenius(other.matrix))
            worst = max(worst, gap / norm_scale)
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
            union = E.evaluate_indices(index_sets[i] | index_sets[j])
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
        if b is N.matrix:
            comm_n, commutator = 0.0, lambda ix: distinct[ix].commute_residual
        else:
            comm_n = N.commutator_norm if b is N.adjoint else commutator_norm(b, N.matrix)
            commutator = lambda ix: commutator_norm(distinct[ix].matrix, b)
        if comm_n / (b_scale * scale) > tol:
            skipped.append(b_idx)
            continue
        for ix, res in distinct.items():
            worst = max(worst, commutator(ix) / (b_scale * max(1.0, frobenius(res.matrix))))
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
    # A range of the wrong rank cannot be contained: its angle is pi/2.
    # An empty selection is vacuous (its complement lies in the whole space).
    worst_in, worst_out = 0.0, 0.0
    all_indices = frozenset(range(len(E.values)))
    for ix, res in distinct.items():
        worst_in = max(worst_in, max_principal_angle(invariant_subspace(N, ix), res.basis))
        comp = range_basis(np.eye(N.dim) - res.matrix)
        rest = all_indices - ix
        if comp.k > 0 and rest:
            worst_out = max(worst_out, max_principal_angle(invariant_subspace(N, rest), comp))
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

    # (S6) uniform positivity: decided by the definiteness kind of each
    # range; the residual is the smallest margin, or on FAIL the first
    # offending range's margin
    margins = [
        r.gram_margin for r in distinct.values() if r.gram_margin.kind is not DefinitenessKind.ZERO
    ]
    offending = [m for m in margins if m.kind is not DefinitenessKind.UNIFORMLY_POSITIVE]
    if offending:
        margin = offending[0].margin
    else:
        margin = min((m.margin for m in margins), default=None)
    report.entries.append(
        passfail(
            "lsf-uniform-positivity",
            not offending,
            residual=margin,
            tolerance=0.0,
            claim="every nonzero projection range is uniformly positive",
            detail=f"range of kind {offending[0].kind.value}" if offending else "",
        )
    )

    # selfadjointness and commutation with N, which imply it with N+
    worst = 0.0
    for res in distinct.values():
        q_scale = max(1.0, frobenius(res.matrix))
        worst = max(worst, res.selfadj_residual / q_scale)
        worst = max(worst, res.commute_residual / (q_scale * scale))
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
    structural_ok = all(
        d.conjugate().contains(np.conj(E.values[i]))
        for d, ix in zip(deltas, index_sets)
        for i in ix
    )
    worst = 0.0
    for ix, res in distinct.items():
        basis = res.basis
        if basis.k > 0:
            eigs = np.linalg.eigvals(basis.columns.conj().T @ N.adjoint @ basis.columns)
            conj_selected = [np.conj(E.values[i]) for i in sorted(ix)]
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
    n_subspaces: int = 20,
    seed: int = 0,
    tol: float = 1e-8,
) -> CheckEntry:
    """Check that the carrier's projection range contains every invariant
    subspace whose restricted spectrum lies in the carrier.

    Random invariant subspaces are drawn inside the kernels of the carrier
    points (``E.carrier_indices``); the worst angle of one against the
    range is reported (pi/2 when a subspace has more dimensions than the
    range).  :class:`ArgumentError` refuses an ``n_subspaces`` that is not an
    integer in ``[1, MAX_MAXIMALITY_SUBSPACES]`` (with none drawn the check is
    vacuous) and a negative or non-integer ``seed``."""
    require_integer("n_subspaces", n_subspaces, 1, MAX_MAXIMALITY_SUBSPACES)
    require_integer("seed", seed, 0)
    indices = E.carrier_indices
    full_range = E.evaluate_indices(indices).basis
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


def verify_lsf_family(
    E: LocalSpectralFunction, n_subspaces: int, seed: int, tol: float = 1e-8
) -> VerificationReport:
    """:func:`verify_lsf_axioms` on the deltas (a disk of radius ``0.25 *
    min_gap`` about each carrier point, the union of the first two, the
    carrier, the empty set) and the commutants N, N+, N^2; then
    :func:`verify_maximality`.  Both use ``tol``.  With a single cluster
    there are no disks: one would select what the carrier does."""
    # maximality runs first, so that its arguments are checked before the axioms
    maximality = verify_maximality(E, n_subspaces, seed, tol)
    N = E.operator
    gap = clustering(N).min_gap
    centers = sorted(E.carrier_indices) if math.isfinite(gap) else []
    deltas = [Region.disk(E.values[i], 0.25 * gap) for i in centers]
    if len(deltas) >= 2:
        deltas.append(deltas[0].union(deltas[1]))
    deltas += [E.carrier, Region.empty()]
    commutants = [N.matrix, N.adjoint, N.matrix @ N.matrix]
    report = verify_lsf_axioms(E, deltas, commutants, tol=tol)
    report.entries.append(maximality)
    report.parameters = {"carrier": E.carrier.describe(), "deltas": len(deltas)}
    return report


@dataclass(frozen=True)
class ResolventProbeResult:
    """Resolvent growth constant at a spectral point and the largest scaled
    norm per radius (0 where every sample was discarded)."""

    c_estimate: float
    radius_table: tuple[tuple[float, float], ...]


def probe_radius_floor(N: KreinOperator, point: complex) -> float:
    """Largest radius :func:`resolvent_probe` refuses at ``point``: the
    clustering radius of N, within which every sample is discarded as
    spectral, or a few ulps of ``max(1, |point|)``, below which the samples
    round onto the point, whichever is larger."""
    ulps = _PROBE_RADIUS_ULPS * float(np.spacing(max(1.0, abs(point))))
    return max(ulps, N.cluster_radius)


def resolvent_probe(
    N: KreinOperator,
    lam0: complex,
    radii: Sequence[float],
    samples_per_radius: int = 16,
) -> ResolventProbeResult:
    """Sample ``||(N - z)^{-1}|| * dist(z, spectrum)`` on circles around a
    spectral point; the pole order there is :func:`pole_order`'s.

    Samples landing within the clustering radius of the spectrum are
    discarded, and so are samples z with ``sigma_min(N - z) <= eps * (||N||
    + |z|)``: such a z is an eigenvalue of N perturbed at rounding level,
    and its ratio would measure nothing.

    ``||(N - z)^{-1}|| = 1 / sigma_min(N - z)``, and ``sigma_min(N - z)``
    equals ``sigma_min(T - z)`` for the cached Schur factor T.  Above
    dimension 32 it comes from Golub-Kahan bidiagonalization of
    ``(z - T)^{-1}`` (triangular solves only), each value certified to
    1e-10 relative; at or below dimension 32, and for any sample the
    iteration does not certify, from a stacked dense SVD of the ``N - z``
    (:func:`numerics.smallest_singular_values`).  :class:`ArgumentError`
    refuses radii that are not finite, positive, strictly decreasing and
    above :func:`probe_radius_floor`, and a ``samples_per_radius`` that is
    not an integer in ``[1, MAX_PROBE_SAMPLES]``.
    """
    radii = [float(r) for r in radii]
    if not radii or not all(0 <= b < a < math.inf for a, b in zip(radii, radii[1:] + [0.0])):
        raise ArgumentError(
            "radii", f"must be finite, positive and strictly decreasing, got {radii!r}"
        )
    require_integer("samples_per_radius", samples_per_radius, 1, MAX_PROBE_SAMPLES)
    floor = probe_radius_floor(N, lam0)
    if radii[-1] <= floor:
        raise ArgumentError(
            "radii",
            f"{radii[-1]!r} is within {floor:.3g} of the point, "
            "where its samples are discarded as spectral or round onto it",
        )
    reps = np.array(clustering(N).values)
    center = complex(reps[locate_point(N, lam0)])

    theta = 2.0 * np.pi * (np.arange(samples_per_radius) + 0.5) / samples_per_radius
    zs = (center + np.multiply.outer(radii, np.exp(1j * theta))).reshape(-1)
    # distance to the nearest cluster, one cluster at a time: memory stays
    # linear in the sample count, which may reach MAX_PROBE_SAMPLES per radius
    dist = np.full(zs.size, np.inf)
    for rep in reps:
        np.minimum(dist, np.abs(rep - zs), out=dist)
    kept = np.flatnonzero(dist > N.cluster_radius)
    sigma = smallest_singular_values(N.matrix, N.schur[0], zs[kept])
    live = sigma > np.finfo(float).eps * (N.norm + np.abs(zs[kept]))
    kept, sigma = kept[live], sigma[live]
    ratio = np.zeros(zs.size)
    ratio[kept] = dist[kept] / sigma
    table = tuple(
        (r, float(c)) for r, c in zip(radii, ratio.reshape(len(radii), -1).max(axis=1))
    )
    return ResolventProbeResult(max(c for _, c in table), table)


def pole_order(N: KreinOperator, index: int) -> int | None:
    """The order of the resolvent's pole at cluster ``index`` of
    ``clustering(N)``, or ``None`` when it cannot be read.

    It is the smallest power k >= 1 whose Laurent coefficient on a circle
    about the cluster vanishes (in closed form, by :func:`_laurent_norms`);
    it equals one exactly at isolated points of two-sided positive type and
    exceeds one at defective ones.  The circle's radius is half the
    distance to the nearest other cluster, or ``max(1, (1 + |c|) / 2)``
    about the only cluster c.  The order is ``None`` when that radius is
    within 10 clustering radii, or when the circle passes within the
    boundary gap of :func:`region_selection` of an eigenvalue.
    :class:`ArgumentError` refuses an index that names no cluster."""
    reps = np.array(clustering(N).values)
    require_integer("index", index, 0, len(reps) - 1)
    center = complex(reps[index])
    others = np.delete(reps, index)
    if others.size:
        isolation = float(np.min(np.abs(others - center))) / 2.0
    else:
        isolation = max(1.0, 0.5 * (1.0 + abs(center)))
    if isolation <= 10.0 * N.cluster_radius:
        return None
    try:
        norms = _laurent_norms(N, Disk(center, isolation))
    except ContourThroughSpectrumError:  # which clusters it encloses is undecidable
        return None
    vanishing = np.flatnonzero(norms <= 1e-8 * N.scale)
    return int(vanishing[0]) + 1 if vanishing.size else None


def _laurent_norms(N: KreinOperator, circle: Disk) -> np.ndarray:
    """Frobenius norms of the Laurent coefficients ``(1/2 pi i) ∮ (z - c)^k
    (z - N)^{-1} dz``, k = 1, ..., m for the enclosed algebraic
    multiplicity m, which bounds the pole order, on the boundary of
    ``circle`` (center c), in closed form.  By the residue theorem the
    coefficient is ``(N - c)^k P``, P the Riesz projection of the enclosed
    clusters (:func:`region_selection`, which refuses a circle through the
    spectrum); in the Schur form reordered on them its only nonzero rows
    are ``(T11 - c)^k [I, -R]``, and the unitary leaves the norm alone."""
    dec = invariant_decomposition(N, region_selection(N, Region((circle,))))
    shifted = dec.triangular[: dec.split, : dec.split] - circle.center * np.eye(dec.split)
    coefficient = projector_row(dec)
    norms = np.empty(dec.split)
    for k in range(dec.split):
        coefficient = shifted @ coefficient
        norms[k] = frobenius(coefficient)
    return norms


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


def strong_stability_check(N: KreinOperator) -> tuple[bool, FundamentalDecomposition | None]:
    """Decide strong stability: every spectral point of definite type.

    When stable, returns the invariant fundamental decomposition built
    from the positive- and negative-type kernels together with
    certification entries (definiteness, orthogonality, completeness,
    invariance, spectral disjointness).  Points are classified in sorted
    order up to the first one that is not definite."""
    points = []
    for i in range(len(clustering(N).values)):
        points.append(spectral_point(N, i))
        if points[-1].type_tag not in DEFINITE_TAGS:
            return False, None

    pos = [pt for pt in points if pt.type_tag in POSITIVE_TAGS]
    neg = [pt for pt in points if pt.type_tag not in POSITIVE_TAGS]
    dim = N.dim
    tols = N.tolerances
    plus, minus = _kernel_span(pos, dim, tols.rank_tol), _kernel_span(neg, dim, tols.rank_tol)
    entries = []
    scale = N.scale

    verdict_p = definiteness(plus, N.space, tols.definiteness_tol)
    entries.append(
        passfail(
            "stability-plus-uniformly-positive",
            verdict_p.kind
            in (DefinitenessKind.UNIFORMLY_POSITIVE, DefinitenessKind.ZERO),
            residual=verdict_p.margin,
            claim="the positive part is uniformly positive",
        )
    )
    verdict_m = definiteness(minus, N.space, tols.definiteness_tol)
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
        disjoint = gap > N.cluster_radius
    else:
        gap, disjoint = math.inf, True
    entries.append(
        passfail(
            "stability-spectra-disjoint",
            disjoint,
            residual=None if math.isinf(gap) else gap,
            tolerance=N.cluster_radius,
            claim="the restricted spectra of the two parts are disjoint",
        )
    )
    return True, FundamentalDecomposition(plus, minus, tuple(entries))
