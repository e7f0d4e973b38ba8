"""Eigenstructure and definiteness-type classification of normal operators.

In finite dimension the approximate point spectrum is the set of
eigenvalues, and a point is of positive type exactly when the indefinite
product is positive definite on its kernel.  A point is of two-sided
positive type when the same holds for the adjoint operator at the
conjugated eigenvalue.  ``classified_spectrum`` computes the full
inventory; the per-point helpers expose the individual steps.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from ._errors import PreconditionError
from .core import (
    DEFAULT_DEFINITENESS_TOL,
    DEFAULT_NORMALITY_TOL,
    DEFAULT_RANK_TOL,
    DefinitenessKind,
    KreinOperator,
    SubspaceBasis,
    definiteness,
)
from .numerics import ordered_spectral_decomposition, reorder_schur

# Largest quadrature node count per contour piece; the convergence check
# integrates at twice as many.
MAX_CONTOUR_NODES = 2**14

__all__ = [
    "SpectralPoint",
    "SpectralType",
    "ToleranceConfig",
    "classified_spectrum",
    "classify_point",
    "kernel_basis",
    "locate_point",
    "root_subspace",
    "schur_mask",
    "selfadjoint_product",
    "spectrum",
    "verify_selfadjoint_link",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Relative tolerances used throughout the pipeline.

    ``cluster_tol`` scales with ``max(1, ||N||)`` to give the eigenvalue
    clustering radius, ``rank_tol`` with the larger of the top singular
    value of the matrix whose kernel is sought and the full operator scale
    ``max(1, ||N||)``, ``definiteness_tol`` with the Gram scale, and
    ``normality_tol`` with ``max(1, ||N||_F^2)``.  ``contour_nodes``, the
    quadrature node count per contour piece, lies in
    ``[16, MAX_CONTOUR_NODES]``.
    """

    cluster_tol: float = 1e-7
    rank_tol: float = DEFAULT_RANK_TOL
    definiteness_tol: float = DEFAULT_DEFINITENESS_TOL
    normality_tol: float = DEFAULT_NORMALITY_TOL
    contour_nodes: int = 128

    def __post_init__(self):
        for name in ("cluster_tol", "rank_tol", "definiteness_tol", "normality_tol"):
            if not 0 < getattr(self, name) < math.inf:  # also refuses NaN
                raise ValueError(f"{name} must be positive and finite")
        if not 16 <= self.contour_nodes <= MAX_CONTOUR_NODES:
            raise ValueError(f"contour_nodes must be between 16 and {MAX_CONTOUR_NODES}")

    def cluster_radius(self, N: KreinOperator) -> float:
        """Absolute clustering radius for one operator.

        Scales with the spectral radius (eigenvalue geometry, immune to
        norm inflation under ill-conditioned similarity) plus a floor for
        the square-root smear of defective eigenvalues, which grows with
        the departure of the matrix norm from the spectral radius.  The
        floor is capped at a small fraction of the eigenvalue scale:
        beyond that, defective structure is unresolvable in double
        precision and clustering must not collapse distinct eigenvalues.
        """
        scale = max(1.0, N.spectral_radius)
        kappa = max(1.0, N.norm / scale)
        smear = 10.0 * kappa * float(np.sqrt(np.finfo(float).eps * scale))
        return self.cluster_tol * scale + min(smear, 1e-3 * scale)


class SpectralType(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    TWO_SIDED_POSITIVE = "two-sided-positive"
    TWO_SIDED_NEGATIVE = "two-sided-negative"
    NEUTRAL = "neutral"
    INDEFINITE = "indefinite"


POSITIVE_TAGS = frozenset({SpectralType.POSITIVE, SpectralType.TWO_SIDED_POSITIVE})
NEGATIVE_TAGS = frozenset({SpectralType.NEGATIVE, SpectralType.TWO_SIDED_NEGATIVE})
DEFINITE_TAGS = POSITIVE_TAGS | NEGATIVE_TAGS


@dataclass(frozen=True)
class SpectralPoint:
    """One eigenvalue cluster with multiplicities and kernel data.

    ``schur_positions`` are the cluster's ``alg_mult`` places, ascending,
    on the diagonal of the operator's cached Schur factor ``N.schur[0]``;
    every invariant subspace or projector of the cluster selects them.
    ``type_tag`` is None until :func:`classify_point` fills it in;
    ``gram_margin`` is the extremal compressed-Gram eigenvalue of the
    kernel.  ``warnings`` collects clustering-ambiguity and borderline
    flags instead of silently resolving them.
    """

    value: complex
    alg_mult: int
    geo_mult: int
    kernel: SubspaceBasis
    adjoint_kernel: SubspaceBasis
    schur_positions: tuple[int, ...]
    type_tag: SpectralType | None = None
    gram_margin: float = math.nan
    warnings: tuple[str, ...] = ()


def _kernel_columns(a: np.ndarray, rank_tol: float, scale: float) -> np.ndarray:
    """Orthonormal null-space columns of ``a``: right singular vectors whose
    singular value is at most ``rank_tol * max(top singular value, scale)``."""
    _, s, vh = np.linalg.svd(a)
    top = max(float(s[0]) if s.size else 0.0, scale)
    if top == 0.0:
        return np.eye(a.shape[1], dtype=np.complex128)
    rank = int(np.count_nonzero(s > rank_tol * top))
    return vh[rank:].conj().T


def kernel_basis(
    a: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL, scale: float = 0.0
) -> SubspaceBasis:
    """Null space of a matrix by singular-value thresholding.

    The threshold is ``rank_tol`` times the larger of the top singular
    value and ``scale``.  Kernels of shifted operators pass the operator
    norm as the scale: when the shift consumes the whole matrix the
    residual is rounding noise and must count as kernel.  This is a full
    SVD of ``a``; :func:`spectrum` applies the same rule to k x k blocks
    of the operator's Schur form instead, and this function serves as the
    independent full-size reference.
    """
    return SubspaceBasis(
        _kernel_columns(np.asarray(a, dtype=np.complex128), rank_tol, scale)
    )


def _cluster_eigenvalues(
    eigs: np.ndarray, radius: float
) -> tuple[list[np.ndarray], list[bool]]:
    """Single-linkage clustering at ``radius``.

    Returns index arrays per cluster, ordered by their smallest index, and
    a flag per cluster: some foreign eigenvalue lies within four radii."""
    dist = np.abs(eigs[:, None] - eigs[None, :])
    linked = dist <= radius
    labels = np.arange(eigs.size)
    while True:  # each index takes the smallest label among its links
        merged = np.where(linked, labels, eigs.size).min(axis=1)
        if np.array_equal(merged, labels):
            break
        labels = merged
    roots = np.unique(labels)
    near_foreign = ((dist <= 4.0 * radius) & (labels[:, None] != labels)).any(axis=1)
    clusters = [np.flatnonzero(labels == r) for r in roots]
    return clusters, [bool(near_foreign[ix].any()) for ix in clusters]


def spectrum(N: KreinOperator, cfg: ToleranceConfig = ToleranceConfig()) -> list[SpectralPoint]:
    """Eigenvalue clusters of a normal operator, unclassified.

    Eigenvalues are the diagonal of the operator's cached Schur form
    ``N = U T U*``, clustered by single linkage at the configured radius;
    each cluster is represented by its multiplicity-weighted mean.  Two
    clusters closer than four times the clustering radius are flagged with
    a warning rather than merged.  Points are sorted by (real, imag).

    Kernels come from k x k blocks of that Schur form, reordered (ztrsen)
    per cluster of size k.  With the cluster leading, ``ker(N - lam)`` is
    ``U[:, :k] ker(T11 - lam)``.  With the cluster trailing, the left
    kernel of ``N - lam`` is ``U[:, n-k:]`` times the left kernel of
    ``T22 - lam``, and since ``ker(N+ - conj(lam)) = G^{-1} leftker(N -
    lam)`` the adjoint kernel is its orthonormalized image under
    ``G^{-1}``.  Both blocks are compressions of ``N - lam`` itself, so
    both ranks are cut as in :func:`kernel_basis`, at ``rank_tol * max(top
    singular value of the block, max(1, ||N||))``: the full operator scale,
    never the block norm alone.
    """
    t, u = N.schur
    eigs = np.diag(t)
    n = N.dim
    radius = cfg.cluster_radius(N)
    clusters, ambiguous = _cluster_eigenvalues(eigs, radius)

    scale = max(1.0, N.norm)
    # reordered alongside U, this yields G^{-1} U[:, n-k:] without a solve per cluster
    g_inv_u = np.linalg.solve(N.space.gram, u)
    points = []
    for ix, flagged in zip(clusters, ambiguous):
        lam = complex(np.mean(eigs[ix]))
        k = ix.size
        shift = lam * np.eye(k)
        select = np.zeros(n, dtype=bool)
        select[ix] = True
        t_first, u_first, _ = reorder_schur(t, u, select)
        ker = SubspaceBasis(
            u_first[:, :k] @ _kernel_columns(t_first[:k, :k] - shift, cfg.rank_tol, scale)
        )
        t_last, g_inv_u_last, _ = reorder_schur(t, g_inv_u, ~select)
        left = _kernel_columns(
            (t_last[n - k :, n - k :] - shift).conj().T, cfg.rank_tol, scale
        )
        adj_ker = SubspaceBasis(np.linalg.qr(g_inv_u_last[:, n - k :] @ left)[0])
        warnings = ("cluster-separation-below-4x-radius",) if flagged else ()
        points.append(
            SpectralPoint(
                value=lam,
                alg_mult=k,
                geo_mult=ker.k,
                kernel=ker,
                adjoint_kernel=adj_ker,
                schur_positions=tuple(int(i) for i in ix),
                warnings=warnings,
            )
        )
    points.sort(key=lambda p: (p.value.real, p.value.imag))
    return points


def classify_point(
    N: KreinOperator, pt: SpectralPoint, cfg: ToleranceConfig = ToleranceConfig()
) -> SpectralPoint:
    """Fill in the definiteness type of a spectral point.

    The kernel's compressed Gram decides the one-sided type; when the
    adjoint kernel carries the same definite sign the point upgrades to
    the two-sided tag.  Degenerate borderline spectra are tagged NEUTRAL
    with a warning instead of a definite verdict.
    """
    verdict = definiteness(pt.kernel, N.space, cfg.definiteness_tol)
    adj_verdict = definiteness(pt.adjoint_kernel, N.space, cfg.definiteness_tol)
    warnings = pt.warnings

    if verdict.kind is DefinitenessKind.UNIFORMLY_POSITIVE:
        tag = SpectralType.POSITIVE
        if adj_verdict.kind is DefinitenessKind.UNIFORMLY_POSITIVE:
            tag = SpectralType.TWO_SIDED_POSITIVE
    elif verdict.kind is DefinitenessKind.UNIFORMLY_NEGATIVE:
        tag = SpectralType.NEGATIVE
        if adj_verdict.kind is DefinitenessKind.UNIFORMLY_NEGATIVE:
            tag = SpectralType.TWO_SIDED_NEGATIVE
    elif verdict.kind is DefinitenessKind.INDEFINITE:
        tag = SpectralType.INDEFINITE
    else:
        tag = SpectralType.NEUTRAL
        threshold = cfg.definiteness_tol * N.space.gram_scale
        if verdict.eigenvalues and max(abs(e) for e in verdict.eigenvalues) > 0.25 * threshold:
            warnings = warnings + ("borderline-definiteness-margin",)
    return replace(pt, type_tag=tag, gram_margin=verdict.margin, warnings=warnings)


def classified_spectrum(
    N: KreinOperator, cfg: ToleranceConfig = ToleranceConfig()
) -> list[SpectralPoint]:
    """Spectrum with every point classified.

    Computed once per operator and tolerance configuration: the points are
    cached on ``N`` keyed by ``cfg``, and each call returns a fresh list
    of the same frozen points, so repeated calls are free."""
    points = N._classified.get(cfg)
    if points is None:
        points = N._classified.setdefault(
            cfg, tuple(classify_point(N, pt, cfg) for pt in spectrum(N, cfg))
        )
    return list(points)


def selfadjoint_product(N: KreinOperator, lam: complex) -> np.ndarray:
    """The selfadjoint operator ``(adj(N) - conj(lam)) (N - lam)``.

    Selfadjoint in the indefinite product for any matrix and shift; for a
    normal operator the definiteness type of 0 for this product mirrors
    the two-sided type of ``lam`` for N.
    """
    eye = np.eye(N.dim)
    return (N.adjoint - np.conj(lam) * eye) @ (N.matrix - lam * eye)


def verify_selfadjoint_link(
    N: KreinOperator, pt: SpectralPoint, cfg: ToleranceConfig = ToleranceConfig()
) -> bool:
    """Check that 0 is of positive type for the selfadjoint product at
    ``pt.value`` exactly when the point is of two-sided positive type.

    Borderline kernels (warnings on either side) make the equivalence
    undecidable at tolerance; the comparison is skipped and counts as a
    pass.
    """
    if pt.type_tag is None:
        pt = classify_point(N, pt, cfg)
    a = selfadjoint_product(N, pt.value)
    ker = kernel_basis(a, cfg.rank_tol, max(1.0, float(np.linalg.norm(a, 2))))
    verdict = definiteness(ker, N.space, cfg.definiteness_tol)
    if "borderline-definiteness-margin" in pt.warnings:
        return True
    zero_positive = verdict.kind is DefinitenessKind.UNIFORMLY_POSITIVE
    return zero_positive == (pt.type_tag is SpectralType.TWO_SIDED_POSITIVE)


def locate_point(
    N: KreinOperator, lam: complex, cfg: ToleranceConfig = ToleranceConfig()
) -> int:
    """Index in ``classified_spectrum(N, cfg)`` of the point that ``lam``
    names: the nearest one, which must lie within ten clustering radii.
    Non-finite and remote values are refused."""
    lam = complex(lam)
    if not np.isfinite(lam):
        raise PreconditionError(f"{lam} is not a finite point")
    dists = np.abs(np.array([pt.value for pt in classified_spectrum(N, cfg)]) - lam)
    index = int(np.argmin(dists))
    if dists[index] > 10.0 * cfg.cluster_radius(N):
        raise PreconditionError(f"{lam} is not a spectral point of the operator")
    return index


def schur_mask(N: KreinOperator, points: Iterable[SpectralPoint]) -> np.ndarray:
    """Boolean mask over the diagonal of ``N.schur[0]`` flagging the
    ``schur_positions`` of ``points``."""
    select = np.zeros(N.dim, dtype=bool)
    for pt in points:
        select[list(pt.schur_positions)] = True
    return select


def root_subspace(
    N: KreinOperator, pt: SpectralPoint, cfg: ToleranceConfig = ToleranceConfig()
) -> SubspaceBasis:
    """Invariant subspace of the full eigenvalue cluster (dimension
    ``alg_mult``), computed from the ordered spectral decomposition that
    moves the cluster's Schur positions to the front."""
    located = classified_spectrum(N, cfg)[locate_point(N, pt.value, cfg)]
    dec = ordered_spectral_decomposition(N.matrix, N.schur, schur_mask(N, [located]))
    return SubspaceBasis(dec.unitary[:, : dec.split])
