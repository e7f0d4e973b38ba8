"""Indefinite inner product spaces and the associated operator calculus.

A space is described by an invertible Hermitian Gram matrix ``G`` which
induces the (generally indefinite) product ``[x, y] = <G x, y>``, where
``<., .>`` is the Euclidean inner product, conjugate-linear in the second
slot.  On top of that this module provides the adjoint with respect to
``[., .]``, normality certificates and definiteness classification of
subspaces.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from ._errors import NonNormalError
from .numerics import commutator_norm, complex_schur, frobenius, operator_norm

__all__ = [
    "DEFAULT_DEFINITENESS_TOL",
    "DEFAULT_NORMALITY_TOL",
    "DEFAULT_RANK_TOL",
    "DefinitenessKind",
    "DefinitenessVerdict",
    "KreinOperator",
    "KreinSpace",
    "SubspaceBasis",
    "ToleranceConfig",
    "definiteness",
    "is_normal",
    "krein_adjoint",
    "max_principal_angle",
    "min_gap",
]

DEFAULT_RANK_TOL = 1e-8
DEFAULT_NORMALITY_TOL = 1e-8
DEFAULT_DEFINITENESS_TOL = 1e-8

_ORTHONORMALITY_TOL = 1e-8

# Largest quadrature node count per contour piece; the convergence check
# integrates at twice as many.
MAX_CONTOUR_NODES = 2**14


def _frozen_complex(a, shape_hint=None) -> np.ndarray:
    """Copy to a read-only complex128 array."""
    out = np.array(a, dtype=np.complex128, copy=True)
    if shape_hint is not None and out.shape != shape_hint:
        raise ValueError(f"expected array of shape {shape_hint}, got {out.shape}")
    out.setflags(write=False)
    return out


def min_gap(values) -> float:
    """Smallest distance between two of the complex ``values`` (inf when
    there are fewer than two)."""
    v = np.asarray(values, dtype=np.complex128).reshape(-1)
    if v.size < 2:
        return np.inf
    i, j = np.triu_indices(v.size, 1)
    d = v[i] - v[j]
    # hypot, as Python's abs(complex) uses; np.abs may differ in the last bit
    return float(np.min(np.hypot(d.real, d.imag)))


@dataclass(frozen=True)
class KreinSpace:
    """Finite-dimensional space with an invertible Hermitian Gram matrix.

    ``signature`` counts the positive and negative eigenvalues of the Gram
    matrix; their sum always equals the dimension because the matrix is
    required to be invertible at construction time.

    Construction also checks, in O(n^2), whether the Gram matrix is a
    fundamental symmetry given as a signed involution: one nonzero per
    row, each exactly +1 or -1, at ``(i, perm[i])`` for an involutive
    permutation ``perm``, with equal signs on each 2-cycle (the Grams of
    :meth:`euclidean`, :meth:`indefinite` and every generated operator:
    +-1 diagonal entries and +-1 swap blocks).  Such a G is its own
    inverse, ``G x = sign[:, None] * x[perm]``, and the space keeps
    ``(perm, sign)`` in ``_involution`` (None for any other Gram), so
    that ``G^{-1}`` is applied by permutation instead of an LU solve
    (:func:`krein_adjoint`, :attr:`KreinOperator.gram_inverse_schur`).
    The eigenvalue check stays either way: it certifies invertibility.
    """

    gram: np.ndarray
    dim: int = field(init=False)
    signature: tuple[int, int] = field(init=False)
    _gram_scale: float = field(init=False, repr=False, compare=False)
    _involution: tuple[np.ndarray, np.ndarray] | None = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        g = np.array(self.gram, dtype=np.complex128, copy=True)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError(f"Gram matrix must be square, got shape {g.shape}")
        if not np.isfinite(g).all():
            raise ValueError("Gram matrix has non-finite entries")
        scale = frobenius(g)
        if scale == 0.0:
            raise ValueError("Gram matrix is zero")
        herm_defect = frobenius(g - g.conj().T)
        if herm_defect > 1e-12 * scale:
            raise ValueError(
                f"Gram matrix is not Hermitian: defect {herm_defect:.3e} "
                f"relative to scale {scale:.3e}"
            )
        g = (g + g.conj().T) / 2.0
        eigs = np.linalg.eigvalsh(g)  # Hermitian: singular values = |eigenvalues|
        smallest, largest = float(np.min(np.abs(eigs))), float(np.max(np.abs(eigs)))
        if smallest <= DEFAULT_RANK_TOL * largest:
            raise ValueError(
                f"Gram matrix is numerically singular: smallest singular value "
                f"{smallest:.3e} vs largest {largest:.3e}"
            )
        p = int(np.count_nonzero(eigs > 0))
        q = int(np.count_nonzero(eigs < 0))
        g.setflags(write=False)
        object.__setattr__(self, "gram", g)
        object.__setattr__(self, "dim", g.shape[0])
        object.__setattr__(self, "signature", (p, q))
        object.__setattr__(self, "_gram_scale", largest)
        object.__setattr__(self, "_involution", _signed_involution(g))

    @classmethod
    def euclidean(cls, dim: int) -> "KreinSpace":
        """Hilbert-space case: identity Gram matrix."""
        return cls(np.eye(dim))

    @classmethod
    def indefinite(cls, p: int, q: int) -> "KreinSpace":
        """Canonical Gram matrix diag(I_p, -I_q)."""
        if p < 0 or q < 0 or p + q < 1:
            raise ValueError(f"invalid signature ({p}, {q})")
        return cls(np.diag(np.concatenate([np.ones(p), -np.ones(q)])))

    @property
    def gram_scale(self) -> float:
        """Operator norm of the Gram matrix; sets the scale of ``[x, x]``.

        It is the largest eigenvalue magnitude found by the invertibility
        check at construction, stored then."""
        return self._gram_scale


def _signed_involution(g: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``(perm, sign)`` when the only nonzeros of ``g`` are ``g[i, perm[i]]
    = sign[i]``, one per row, each exactly +1 or -1 with imaginary part 0,
    ``perm`` is an involution and ``sign`` is equal on each of its
    2-cycles; None otherwise."""
    rows, perm = np.nonzero(g)
    if rows.size != len(g):  # the cheap refusal of a dense Gram
        return None
    values = g[rows, perm]
    # in Python: at suite dims a few numpy calls would cost more than the loop
    p, v = perm.tolist(), values.tolist()
    if (
        rows.tolist() != list(range(len(p)))  # one nonzero per row
        or any(x != 1 and x != -1 for x in v)  # complex: also imaginary part 0
        or any(p[j] != i or v[j] != v[i] for i, j in enumerate(p))
    ):
        return None
    sign = values.real.copy()
    perm.setflags(write=False)
    sign.setflags(write=False)
    return perm, sign


def _gram_solve(space: KreinSpace, x: np.ndarray) -> np.ndarray:
    """``G^{-1} x``, C-ordered like ``np.linalg.solve``'s result.

    A signed-involution Gram is its own inverse, so ``G^{-1} x`` is
    ``sign[:, None] * x[perm]``: the LU route's values exactly, since
    that route only swaps rows and divides by +-1.  Any other Gram is
    solved by LU."""
    if space._involution is None:
        return np.linalg.solve(space.gram, x)
    perm, sign = space._involution
    return np.multiply(sign[:, None], x[perm], order="C")


def krein_adjoint(T: np.ndarray, space: KreinSpace) -> np.ndarray:
    """Adjoint with respect to the indefinite product: ``G^{-1} T* G``.

    Satisfies ``[T x, y] = [x, adj(T) y]`` for all vectors x, y.

    For a signed-involution Gram (see :class:`KreinSpace`) ``G = G^{-1}
    = G*``, so ``T* G = (G^{-1} T)*`` and the adjoint is two signed
    permutations, no product and no solve: its entry ``(i, j)`` is
    ``sign_i sign_j conj(T[perm_j, perm_i])``, the value the LU route
    gives, in a C-ordered array as that route's.  (The sign of an exact
    zero entry may differ.)  Any other Gram takes ``T* G`` and an LU
    solve.
    """
    T = np.asarray(T, dtype=np.complex128)
    if T.shape != (space.dim, space.dim):
        raise ValueError(f"operator shape {T.shape} does not match dim {space.dim}")
    if space._involution is not None:
        return _gram_solve(space, _gram_solve(space, T).conj().T)
    return _gram_solve(space, T.conj().T @ space.gram)


def _normality_residual(T: np.ndarray, adj: np.ndarray) -> tuple[float, float]:
    """The commutator norm ``||T T+ - T+ T||_F`` and the scale-free residual,
    that norm over ``max(1, ||T||_F^2)``."""
    commutator = commutator_norm(T, adj)
    return commutator, commutator / max(1.0, frobenius(T) ** 2)


def is_normal(
    T: np.ndarray, space: KreinSpace, tol: float = DEFAULT_NORMALITY_TOL
) -> tuple[bool, float]:
    """Commutator test ``T adj(T) = adj(T) T`` with a scale-free residual.

    Returns ``(verdict, residual)`` where the residual is
    ``||T T+ - T+ T||_F / max(1, ||T||_F^2)``.
    """
    T = np.asarray(T, dtype=np.complex128)
    _, residual = _normality_residual(T, krein_adjoint(T, space))
    return residual <= tol, residual


@dataclass(frozen=True)
class ToleranceConfig:
    """Relative tolerances of one operator's analysis.

    A :class:`KreinOperator` carries one config, fixed at construction,
    and every verdict on the operator reads it there.

    ``cluster_tol`` scales with ``max(1, spectral radius)``, plus a capped
    floor for the smear of defective eigenvalues, to give the eigenvalue
    clustering radius (:attr:`KreinOperator.cluster_radius`); ``rank_tol``
    scales with the larger of the top singular value of the matrix whose
    kernel is sought and the full operator scale ``max(1, ||N||)``,
    ``definiteness_tol`` with the Gram scale, and
    ``normality_tol`` with ``max(1, ||N||_F^2)``; each is a real number,
    not a boolean.  ``contour_nodes`` caps the contour quadrature and is
    an integer in ``[16, MAX_CONTOUR_NODES]``: a disk stops once its
    nested trapezoid rule has converged, after at most
    ``2 * contour_nodes`` nodes; a rectangle uses ``contour_nodes`` nodes,
    checked against twice as many.  A resolvent probe's pole order takes
    no quadrature and does not read ``contour_nodes``.
    """

    cluster_tol: float = 1e-7
    rank_tol: float = DEFAULT_RANK_TOL
    definiteness_tol: float = DEFAULT_DEFINITENESS_TOL
    normality_tol: float = DEFAULT_NORMALITY_TOL
    contour_nodes: int = 128

    def __post_init__(self):
        for name in ("cluster_tol", "rank_tol", "definiteness_tol", "normality_tol"):
            value = getattr(self, name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and 0 < value < math.inf):  # also refuses NaN
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")
        nodes = self.contour_nodes
        integral = isinstance(nodes, numbers.Integral) and not isinstance(nodes, bool)
        if not (integral and 16 <= nodes <= MAX_CONTOUR_NODES):
            raise ValueError(f"contour_nodes must be an integer in [16, {MAX_CONTOUR_NODES}]")


@dataclass(frozen=True)
class KreinOperator:
    """A square matrix certified normal with respect to its space.

    ``tolerances`` is the operator's one :class:`ToleranceConfig`, fixed
    at construction: every clustering, rank cut, definiteness verdict and
    contour rule on the operator reads it.  An analysis at other
    tolerances builds another operator, e.g. with
    ``KreinOperator(N.matrix, N.space, dataclasses.replace(N.tolerances,
    cluster_tol=...))``.

    Construction computes the adjoint and the commutator residual and
    raises :class:`NonNormalError` when the residual exceeds
    ``tolerances.normality_tol``.  It keeps the commutator's raw norm
    ``||N N+ - N+ N||_F`` too, as ``commutator_norm``: the LSF axiom
    check reads it as the commutator of N with the commutant N+.
    Instances are immutable and safe to share.

    Construction refuses a matrix with non-finite entries (``ValueError``).

    Derived data is computed on first use and cached on the instance: the
    norm, the scale, the Schur form, ``G^{-1} U`` for its unitary factor,
    the spectral radius, the clustering radius; and one write-once slot,
    ``_clustering``, which holds the
    :func:`~krein_spectra.classification.clustering` of the Schur
    diagonal.  The clustering holds its classified points, extracted and
    classified one cluster at a time on first request, and the Schur form
    reordered once so that every cluster fills one diagonal block, which
    the kernels are read from.  It also holds, per set of cluster indices,
    the :func:`invariant_decomposition` and the oracle projection of the
    set.
    """

    matrix: np.ndarray
    space: KreinSpace
    tolerances: ToleranceConfig = ToleranceConfig()
    adjoint: np.ndarray = field(init=False, repr=False)
    normality_residual: float = field(init=False)
    commutator_norm: float = field(init=False, repr=False)
    _clustering: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        m = _frozen_complex(self.matrix, (self.space.dim, self.space.dim))
        if not np.isfinite(m).all():
            raise ValueError("operator matrix has non-finite entries")
        adj = krein_adjoint(m, self.space)
        commutator, residual = _normality_residual(m, adj)
        tol = self.tolerances.normality_tol
        if residual > tol:
            raise NonNormalError(residual, tol)
        adj.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "adjoint", adj)
        object.__setattr__(self, "normality_residual", residual)
        object.__setattr__(self, "commutator_norm", commutator)

    @property
    def dim(self) -> int:
        return self.space.dim

    @functools.cached_property
    def norm(self) -> float:
        return operator_norm(self.matrix)

    @functools.cached_property
    def scale(self) -> float:
        """Operator scale ``max(1, ||N||)`` of residuals and rank cuts."""
        return max(1.0, self.norm)

    @functools.cached_property
    def schur(self) -> tuple[np.ndarray, np.ndarray]:
        """Complex Schur form ``matrix = U T U*`` as the read-only pair
        ``(T, U)``.

        Computed once per operator; eigenvalues, kernels and every ordered
        spectral decomposition of the operator are taken from it."""
        t, u = complex_schur(self.matrix)
        t.setflags(write=False)
        u.setflags(write=False)
        return t, u

    @functools.cached_property
    def gram_inverse_schur(self) -> np.ndarray:
        """``G^{-1} U`` for the unitary factor U of :attr:`schur`, read-only.

        It carries a left kernel ``U c`` of ``N - lam``, given by its
        coordinates c, to the kernel ``G^{-1} U c`` of ``N+ - conj(lam)``.
        Computed once per operator, on first use, by signed permutation
        for a signed-involution Gram and by an LU solve otherwise; never
        reordered."""
        g_inv_u = _gram_solve(self.space, self.schur[1])
        g_inv_u.setflags(write=False)
        return g_inv_u

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues with algebraic multiplicity: the diagonal of the
        Schur factor, in its order."""
        return np.diag(self.schur[0])

    @functools.cached_property
    def spectral_radius(self) -> float:
        """Largest eigenvalue magnitude; the scale of eigenvalue geometry.

        Unlike the matrix norm this does not inflate with the conditioning
        of a similarity, so clustering radii stay commensurate with the
        spectrum."""
        return float(np.max(np.abs(self.eigenvalues)))

    @functools.cached_property
    def cluster_radius(self) -> float:
        """Absolute eigenvalue clustering radius at ``tolerances.cluster_tol``.

        Scales with the spectral radius (eigenvalue geometry, immune to
        norm inflation under ill-conditioned similarity) plus a floor for
        the square-root smear of defective eigenvalues, which grows with
        the departure of the matrix norm from the spectral radius.  The
        floor is capped at a small fraction of the eigenvalue scale:
        beyond that, defective structure is unresolvable in double
        precision and clustering must not collapse distinct eigenvalues.
        """
        scale = max(1.0, self.spectral_radius)
        kappa = max(1.0, self.norm / scale)
        smear = 10.0 * kappa * float(np.sqrt(np.finfo(float).eps * scale))
        return self.tolerances.cluster_tol * scale + min(smear, 1e-3 * scale)


@dataclass(frozen=True)
class SubspaceBasis:
    """Euclidean-orthonormal columns spanning a subspace (k = 0 allowed)."""

    columns: np.ndarray

    def __post_init__(self):
        c = np.array(self.columns, dtype=np.complex128, copy=True)
        if c.ndim != 2:
            raise ValueError(f"basis must be a 2-d array, got ndim {c.ndim}")
        if c.shape[1] > 0:
            defect = frobenius(c.conj().T @ c - np.eye(c.shape[1]))
            if defect > _ORTHONORMALITY_TOL:
                raise ValueError(
                    f"basis columns are not orthonormal: defect {defect:.3e}"
                )
        c.setflags(write=False)
        object.__setattr__(self, "columns", c)

    @classmethod
    def from_columns(cls, a: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> "SubspaceBasis":
        """Orthonormalize arbitrary spanning columns, dropping rank deficiency."""
        a = np.asarray(a, dtype=np.complex128)
        if a.ndim == 1:
            a = a.reshape(-1, 1)
        if a.shape[1] == 0:
            return cls(np.zeros((a.shape[0], 0)))
        u, s, _ = np.linalg.svd(a, full_matrices=False)
        rank = int(np.count_nonzero(s > rank_tol * max(s[0], 1e-300)))
        return cls(u[:, :rank])

    @classmethod
    def zero(cls, dim: int) -> "SubspaceBasis":
        return cls(np.zeros((dim, 0)))

    @property
    def dim(self) -> int:
        """Ambient dimension."""
        return self.columns.shape[0]

    @property
    def k(self) -> int:
        """Subspace dimension."""
        return self.columns.shape[1]

    def projector(self) -> np.ndarray:
        """Euclidean orthogonal projection onto the span."""
        return self.columns @ self.columns.conj().T


def max_principal_angle(a: SubspaceBasis, b: SubspaceBasis) -> float:
    """Largest angle of ``span(b)`` against ``span(a)``: 0 exactly when
    ``span(b)`` lies inside ``span(a)``, so call with the candidate subset
    second.  It is 0 when b is the zero subspace and pi/2 when
    ``b.k > a.k``; for ``b.k == a.k`` it is the largest principal angle
    between the spans, which is symmetric.

    Both bases are orthonormal by construction, so nothing is
    re-orthonormalized.  After Knyazev & Argentati (SIAM J. Sci. Comput.
    23, 2002), the cosine of the largest angle is the smallest singular
    value of ``a* b`` and its sine the largest singular value of the
    residual ``b - a (a* b)``; ``arctan2`` of the two stays accurate at
    every angle, near 0 and near pi/2 alike.
    """
    if b.k == 0:
        return 0.0
    if b.k > a.k:
        return float(np.pi / 2)
    cross = a.columns.conj().T @ b.columns
    cos = np.linalg.svd(cross, compute_uv=False)[-1]
    sin = operator_norm(b.columns - a.columns @ cross)
    return float(np.arctan2(sin, cos))


class DefinitenessKind(enum.Enum):
    UNIFORMLY_POSITIVE = "uniformly-positive"
    UNIFORMLY_NEGATIVE = "uniformly-negative"
    NEUTRAL = "neutral"
    INDEFINITE = "indefinite"
    ZERO = "zero"


@dataclass(frozen=True)
class DefinitenessVerdict:
    """Sign classification of the product restricted to a subspace.

    ``margin`` is the extremal eigenvalue of the compressed Gram matrix
    relevant to the verdict: the smallest one for uniformly positive, the
    largest (closest to zero) for uniformly negative, the signed largest
    magnitude for neutral and the smallest for indefinite.
    """

    kind: DefinitenessKind
    margin: float
    eigenvalues: tuple[float, ...] = ()


def compressed_gram(basis: SubspaceBasis, space: KreinSpace) -> np.ndarray:
    """Hermitian matrix of ``[., .]`` in the given orthonormal basis."""
    b = basis.columns
    m = b.conj().T @ space.gram @ b
    return (m + m.conj().T) / 2.0


def definiteness(
    basis: SubspaceBasis,
    space: KreinSpace,
    tol: float = DEFAULT_DEFINITENESS_TOL,
) -> DefinitenessVerdict:
    """Classify a subspace by the spectrum of its compressed Gram matrix.

    The decision threshold is ``tol`` times the Gram scale of the ambient
    space, so verdicts are invariant under positive rescaling of the Gram
    matrix.  Degenerate semidefinite spectra (some eigenvalues below the
    threshold, the rest definite of one sign) are reported as NEUTRAL;
    callers that care can inspect the returned eigenvalues.
    """
    if basis.dim != space.dim:
        raise ValueError(
            f"basis ambient dim {basis.dim} does not match space dim {space.dim}"
        )
    if basis.k == 0:
        return DefinitenessVerdict(DefinitenessKind.ZERO, 0.0)
    eigs = np.linalg.eigvalsh(compressed_gram(basis, space))
    threshold = tol * space.gram_scale
    lo, hi = float(eigs[0]), float(eigs[-1])
    spectrum = tuple(float(e) for e in eigs)
    if lo >= threshold:
        return DefinitenessVerdict(DefinitenessKind.UNIFORMLY_POSITIVE, lo, spectrum)
    if hi <= -threshold:
        return DefinitenessVerdict(DefinitenessKind.UNIFORMLY_NEGATIVE, hi, spectrum)
    if hi > threshold and lo < -threshold:
        return DefinitenessVerdict(DefinitenessKind.INDEFINITE, lo, spectrum)
    extremal = hi if abs(hi) >= abs(lo) else lo
    return DefinitenessVerdict(DefinitenessKind.NEUTRAL, extremal, spectrum)
