"""Eigenstructure and definiteness-type classification of normal operators.

In finite dimension the approximate point spectrum is the set of
eigenvalues, and a point is of positive type exactly when the indefinite
product is positive definite on its kernel.  A point is of two-sided
positive type when the same holds for the adjoint operator at the
conjugated eigenvalue.  ``classified_spectrum`` computes the full
inventory; the per-point helpers expose the individual steps.

The work is split so that a caller pays only for the points it reads:
the :func:`clustering` of the eigenvalues is computed once per operator,
at the tolerances the operator carries, while each cluster's kernels are
extracted and classified on the first request for that cluster
(:func:`spectral_point`), which caches the classified point in the
clustering.  Every cluster's kernels are read from one Schur form per
clustering, reordered once so that each cluster fills one diagonal block
(:attr:`Clustering.contiguous`), which the first kernel request builds.
Outside this module clusters are named by index; only here are they
mapped to places on the Schur diagonal.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._errors import PreconditionError
from .core import (
    DEFAULT_RANK_TOL,
    DefinitenessKind,
    KreinOperator,
    SubspaceBasis,
    definiteness,
    min_gap,
)
from .numerics import (
    OrderedDecomposition,
    ordered_spectral_decomposition,
    reorder_schur,
    solve_triangular,
    svd,
)

__all__ = [
    "Clustering",
    "ContiguousSchur",
    "SpectralPoint",
    "SpectralType",
    "classified_spectrum",
    "classify_point",
    "clustering",
    "clusters_in",
    "invariant_decomposition",
    "invariant_subspace",
    "kernel_basis",
    "locate_point",
    "root_subspace",
    "selfadjoint_product",
    "spectral_point",
    "spectrum",
    "verify_selfadjoint_link",
]


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
    type_tag: SpectralType | None = None
    gram_margin: float = math.nan
    warnings: tuple[str, ...] = ()


def _rank(s: np.ndarray, rank_tol: float, scale: float) -> int:
    """How many of the descending singular values ``s`` exceed ``rank_tol *
    max(top singular value, scale)``: the rank cut of every kernel."""
    top = max(float(s[0]) if s.size else 0.0, scale)
    return int(np.count_nonzero(s > rank_tol * top))


def kernel_basis(
    a: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL, scale: float = 0.0
) -> SubspaceBasis:
    """Null space of a matrix by singular-value thresholding.

    The threshold is ``rank_tol`` times the larger of the top singular
    value and ``scale`` (:func:`_rank`).  Kernels of shifted operators pass
    the operator norm as the scale: when the shift consumes the whole
    matrix the residual is rounding noise and must count as kernel.  This
    is a full zgesvd SVD of ``a`` (:func:`numerics.svd`); :func:`spectrum`
    applies the same rank rule to k x k blocks of the operator's Schur
    form instead, and this function serves as the independent full-size
    reference.
    """
    _, s, vh = svd(a)
    return SubspaceBasis(vh[_rank(s, rank_tol, scale) :].conj().T)


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


@dataclass(frozen=True)
class ContiguousSchur:
    """The operator's Schur form ``N = U T U*`` reordered so that every
    cluster of one :class:`Clustering` occupies one diagonal block: cluster
    ``i`` holds rows and columns ``blocks[i] = (a, b)`` of ``triangular``.
    Read-only; shares ``N.schur`` when no cluster had to move."""

    triangular: np.ndarray
    unitary: np.ndarray
    blocks: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Clustering:
    """The eigenvalue clusters of one operator, at its tolerances.

    Clusters are sorted by the (real, imag) order of their ``values``, the
    multiplicity-weighted means; ``positions`` are each cluster's places on
    the diagonal of the Schur factor ``N.schur[0]`` and ``warnings`` its
    clustering-ambiguity flags.  ``min_gap`` is the smallest distance
    between two ``values`` (inf for a single cluster).  ``points`` is a
    write-once dict of classified points keyed by cluster index, filled
    one cluster at a time by :func:`spectral_point`.  ``contiguous`` is the
    :class:`ContiguousSchur` form its kernels are read from, built once, on
    the first kernel request (None until then).  ``decompositions`` and
    ``projections`` are write-once dicts keyed by frozensets of cluster
    indices: each set's :func:`invariant_decomposition` and its oracle
    projection (``projections.cluster_projection``).
    """

    values: tuple[complex, ...]
    positions: tuple[tuple[int, ...], ...]
    warnings: tuple[tuple[str, ...], ...]
    min_gap: float
    points: dict = field(default_factory=dict, repr=False, compare=False)
    contiguous: ContiguousSchur | None = field(default=None, repr=False, compare=False)
    decompositions: dict = field(default_factory=dict, repr=False, compare=False)
    projections: dict = field(default_factory=dict, repr=False, compare=False)


def clustering(N: KreinOperator) -> Clustering:
    """Eigenvalue clusters of N, computed once per operator and kept in
    its write-once slot ``N._clustering``.

    Eigenvalues are the diagonal of the operator's cached Schur form
    ``N = U T U*``, clustered by single linkage at ``N.cluster_radius``,
    which the operator's own tolerances fix; each cluster is represented
    by its multiplicity-weighted mean.  Two clusters closer than four
    times the clustering radius are flagged with a warning rather than
    merged.  No kernel is computed here.
    """
    found = N._clustering
    if found is None:
        eigs = N.eigenvalues
        clusters, ambiguous = _cluster_eigenvalues(eigs, N.cluster_radius)
        values = [complex(np.mean(eigs[ix])) for ix in clusters]
        order = sorted(range(len(clusters)), key=lambda c: (values[c].real, values[c].imag))
        values = tuple(values[c] for c in order)
        found = Clustering(
            values=values,
            positions=tuple(tuple(int(i) for i in clusters[c]) for c in order),
            warnings=tuple(
                ("cluster-separation-below-4x-radius",) if ambiguous[c] else ()
                for c in order
            ),
            min_gap=min_gap(values),
        )
        object.__setattr__(N, "_clustering", found)
    return found


def _make_contiguous(N: KreinOperator, clusters: Clustering) -> ContiguousSchur:
    """One pass over the clusters in the order of their first Schur
    position.  Each cluster in turn is moved up (ztrsen) to follow the
    blocks already placed, unless its members already do.  ztrsen keeps
    the order of the entries it does not select, so the entries not yet
    placed stay in their original diagonal order."""
    t, u = N.schur
    rest = list(range(N.dim))  # Schur positions of N.schur not yet placed
    blocks = [(0, 0)] * len(clusters.positions)
    start = 0
    for c in sorted(range(len(blocks)), key=clusters.positions.__getitem__):
        members = clusters.positions[c]
        k = len(members)
        if tuple(rest[:k]) == members:
            rest = rest[k:]
        else:
            moved = np.isin(rest, members)
            select = np.ones(N.dim, dtype=bool)
            select[start:] = moved
            t, u, _ = reorder_schur(t, u, select)
            rest = [i for i, m in zip(rest, moved) if not m]
        blocks[c] = (start, start + k)
        start += k
    return ContiguousSchur(t, u, tuple(blocks))


def _orthonormal(a: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning those of the full-rank ``a``: one column
    normalized, or the Q factor of a QR decomposition."""
    if a.shape[1] == 1:
        return a / math.sqrt(np.vdot(a, a).real)
    return np.linalg.qr(a)[0]


def _cluster_kernels(N: KreinOperator, clusters: Clustering, index: int) -> SpectralPoint:
    """The unclassified point of cluster ``index``: its kernels extracted as
    described in :func:`spectrum`."""
    if clusters.contiguous is None:  # the clustering's first kernel request
        object.__setattr__(clusters, "contiguous", _make_contiguous(N, clusters))
    form = clusters.contiguous
    t, u = form.triangular, form.unitary
    a, b = form.blocks[index]
    lam = clusters.values[index]
    shifted = t.copy()  # T - lam: its off-diagonal blocks are T's own
    np.fill_diagonal(shifted, t.diagonal() - lam)
    left, s, right = np.linalg.svd(shifted[a:b, a:b])  # both null spaces past the rank cut
    rank = _rank(s, N.tolerances.rank_tol, N.scale)
    left, right = left[:, rank:], right[rank:].conj().T
    if a:  # (T11 - lam) x1 = -T12 x2 above the block
        above = solve_triangular(shifted[:a, :a], -(shifted[:a, a:b] @ right))
        right = _orthonormal(np.vstack([above, right]))
    ker = SubspaceBasis(u[:, :b] @ right)
    if b < N.dim:  # (T33 - lam)* y3 = -T23* y2 below it
        below = solve_triangular(shifted[b:, b:], -(shifted[a:b, b:].conj().T @ left), adjoint=True)
        left = np.vstack([left, below])
    # G^{-1} times the left kernel u[:, a:] y, through N.schur's own G^{-1} U
    adjoint = N.gram_inverse_schur @ (N.schur[1].conj().T @ (u[:, a:] @ left))
    adj_ker = SubspaceBasis(_orthonormal(adjoint))
    return SpectralPoint(
        value=lam,
        alg_mult=b - a,
        geo_mult=ker.k,
        kernel=ker,
        adjoint_kernel=adj_ker,
        warnings=clusters.warnings[index],
    )


def spectrum(N: KreinOperator) -> list[SpectralPoint]:
    """Eigenvalue clusters of a normal operator, unclassified, sorted by
    (real, imag).

    The clusters are the operator's :func:`clustering`, and every kernel is
    read from one :class:`ContiguousSchur` form ``N = U T U*``, in which
    the cluster at ``lam`` holds the diagonal block ``T22`` between the
    blocks ``T11`` before it and ``T33`` after it.  One SVD of ``T22 -
    lam`` gives both null spaces.  A right null vector ``x2`` extends to
    ``ker(T - lam)`` upward by the back substitution ``(T11 - lam) x1 =
    -T12 x2``, as ztrevc extends eigenvectors; ``U [x1; x2]``,
    orthonormalized, spans ``ker(N - lam)``.  A left null vector ``y2``
    extends downward by ``(T33 - lam)* y3 = -T23* y2``, and ``U [0; y2;
    y3]`` spans the left kernel of ``N - lam``.  Since ``ker(N+ -
    conj(lam)) = G^{-1} leftker(N - lam)``, the adjoint kernel is the
    orthonormalized image of the left kernel under ``G^{-1}``
    (``N.gram_inverse_schur``).  ``T22 - lam`` is a compression of ``N -
    lam``, so its rank is cut as in :func:`kernel_basis`, at ``rank_tol *
    max(top singular value of the block, max(1, ||N||))``: the full
    operator scale, never the block norm alone.

    Only the clustering and its contiguous form are cached: every call
    extracts every cluster's kernels again.
    The pipeline reads classified points through :func:`spectral_point`,
    which extracts each cluster once per operator.
    """
    clusters = clustering(N)
    return [_cluster_kernels(N, clusters, i) for i in range(len(clusters.values))]


def classify_point(N: KreinOperator, pt: SpectralPoint) -> SpectralPoint:
    """Fill in the definiteness type of a spectral point.

    The kernel's compressed Gram decides the one-sided type; when the
    adjoint kernel carries the same definite sign the point upgrades to
    the two-sided tag.  Degenerate borderline spectra are tagged NEUTRAL
    with a warning instead of a definite verdict.
    """
    tol = N.tolerances.definiteness_tol
    verdict = definiteness(pt.kernel, N.space, tol)
    adj_verdict = definiteness(pt.adjoint_kernel, N.space, tol)
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
        threshold = tol * N.space.gram_scale
        if verdict.eigenvalues and max(abs(e) for e in verdict.eigenvalues) > 0.25 * threshold:
            warnings = warnings + ("borderline-definiteness-margin",)
    return replace(pt, type_tag=tag, gram_margin=verdict.margin, warnings=warnings)


def spectral_point(N: KreinOperator, index: int) -> SpectralPoint:
    """The classified point at ``index`` of ``classified_spectrum(N)``.

    Only that cluster's kernels are extracted and classified, once per
    operator; the point is cached in its :func:`clustering`."""
    clusters = clustering(N)
    pt = clusters.points.get(index)
    if pt is None:
        pt = clusters.points.setdefault(
            index, classify_point(N, _cluster_kernels(N, clusters, index))
        )
    return pt


def classified_spectrum(N: KreinOperator) -> list[SpectralPoint]:
    """Spectrum with every point classified: the :func:`spectral_point` of
    each cluster, in order, so clusters already classified are reused."""
    return [spectral_point(N, i) for i in range(len(clustering(N).values))]


def selfadjoint_product(N: KreinOperator, lam: complex) -> np.ndarray:
    """The selfadjoint operator ``(adj(N) - conj(lam)) (N - lam)``.

    Selfadjoint in the indefinite product for any matrix and shift; for a
    normal operator the definiteness type of 0 for this product mirrors
    the two-sided type of ``lam`` for N.
    """
    eye = np.eye(N.dim)
    return (N.adjoint - np.conj(lam) * eye) @ (N.matrix - lam * eye)


def verify_selfadjoint_link(N: KreinOperator, pt: SpectralPoint) -> bool:
    """Check that 0 is of positive type for the selfadjoint product at
    ``pt.value`` exactly when the point is of two-sided positive type.

    Borderline kernels (warnings on either side) make the equivalence
    undecidable at tolerance; the comparison is skipped and counts as a
    pass.
    """
    if pt.type_tag is None:
        pt = classify_point(N, pt)
    a = selfadjoint_product(N, pt.value)
    # the kernel SVD's top value is ||a||_2: the cut is rank_tol * max(1, ||a||_2)
    ker = kernel_basis(a, N.tolerances.rank_tol, 1.0)
    verdict = definiteness(ker, N.space, N.tolerances.definiteness_tol)
    if "borderline-definiteness-margin" in pt.warnings:
        return True
    zero_positive = verdict.kind is DefinitenessKind.UNIFORMLY_POSITIVE
    return zero_positive == (pt.type_tag is SpectralType.TWO_SIDED_POSITIVE)


def locate_point(N: KreinOperator, lam: complex) -> int:
    """Index in ``classified_spectrum(N)`` of the point that ``lam``
    names: the nearest one, which must lie within ten clustering radii.
    Non-finite and remote values are refused.  Reads the :func:`clustering`
    only; no kernel is computed."""
    lam = complex(lam)
    if not np.isfinite(lam):
        raise PreconditionError(f"{lam} is not a finite point")
    dists = np.abs(np.array(clustering(N).values) - lam)
    index = int(np.argmin(dists))
    if dists[index] > 10.0 * N.cluster_radius:
        raise PreconditionError(f"{lam} is not a spectral point of the operator")
    return index


def clusters_in(N: KreinOperator, region) -> frozenset[int]:
    """Indices of the clusters of ``clustering(N)`` whose eigenvalues
    ``region`` contains.  With no eigenvalue within the clustering radius
    of a boundary, no cluster straddles one (a linkage crossing it would
    put an eigenvalue that close), so one member decides each cluster."""
    eigs = N.eigenvalues.tolist()
    return frozenset(
        i
        for i, members in enumerate(clustering(N).positions)
        if region.contains(eigs[members[0]])
    )


def invariant_decomposition(N: KreinOperator, indices: frozenset[int]) -> OrderedDecomposition:
    """``N.schur`` reordered so the clusters ``indices`` of ``clustering(N)``
    lead, once per cluster set, cached read-only in the clustering."""
    clusters = clustering(N)
    dec = clusters.decompositions.get(indices)
    if dec is None:
        select = np.zeros(N.dim, dtype=bool)
        select[[p for i in indices for p in clusters.positions[i]]] = True
        dec = clusters.decompositions.setdefault(
            indices, ordered_spectral_decomposition(N.matrix, N.schur, select)
        )
    return dec


def invariant_subspace(N: KreinOperator, indices: frozenset[int]) -> SubspaceBasis:
    """Invariant subspace of the clusters ``indices`` (:func:`invariant_decomposition`)."""
    dec = invariant_decomposition(N, indices)
    return SubspaceBasis(dec.unitary[:, : dec.split])


def root_subspace(N: KreinOperator, pt: SpectralPoint) -> SubspaceBasis:
    """Invariant subspace of the full eigenvalue cluster (dimension
    ``alg_mult``) that :func:`locate_point` finds at ``pt.value``."""
    return invariant_subspace(N, frozenset({locate_point(N, pt.value)}))
