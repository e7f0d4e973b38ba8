"""Indefinite inner product spaces and the associated operator calculus.

A space is described by an invertible Hermitian Gram matrix ``G`` which
induces the (generally indefinite) product ``[x, y] = <G x, y>``, where
``<., .>`` is the Euclidean inner product, conjugate-linear in the second
slot.  On top of that this module provides the adjoint with respect to
``[., .]``, normality certificates, definiteness classification of
subspaces, orthogonal companions and the real/imaginary part split of a
normal operator.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from ._errors import NonNormalError

__all__ = [
    "DEFAULT_DEFINITENESS_TOL",
    "DEFAULT_NORMALITY_TOL",
    "DEFAULT_RANK_TOL",
    "DefinitenessKind",
    "DefinitenessVerdict",
    "KreinOperator",
    "KreinSpace",
    "SubspaceBasis",
    "definiteness",
    "indefinite_inner",
    "is_normal",
    "krein_adjoint",
    "max_principal_angle",
    "min_gap",
    "orthogonal_companion",
    "part_decomposition",
]

DEFAULT_RANK_TOL = 1e-8
DEFAULT_NORMALITY_TOL = 1e-8
DEFAULT_DEFINITENESS_TOL = 1e-8

_ORTHONORMALITY_TOL = 1e-8


def _frozen_complex(a, shape_hint=None) -> np.ndarray:
    """Copy to a read-only complex128 array."""
    out = np.array(a, dtype=np.complex128, copy=True)
    if shape_hint is not None and out.shape != shape_hint:
        raise ValueError(f"expected array of shape {shape_hint}, got {out.shape}")
    out.setflags(write=False)
    return out


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


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


def operator_norm(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


@dataclass(frozen=True)
class KreinSpace:
    """Finite-dimensional space with an invertible Hermitian Gram matrix.

    ``signature`` counts the positive and negative eigenvalues of the Gram
    matrix; their sum always equals the dimension because the matrix is
    required to be invertible at construction time.
    """

    gram: np.ndarray
    dim: int = field(init=False)
    signature: tuple[int, int] = field(init=False)
    _gram_scale: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = np.array(self.gram, dtype=np.complex128, copy=True)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError(f"Gram matrix must be square, got shape {g.shape}")
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
        svals = np.linalg.svd(g, compute_uv=False)
        if svals[-1] <= DEFAULT_RANK_TOL * svals[0]:
            raise ValueError(
                f"Gram matrix is numerically singular: smallest singular value "
                f"{svals[-1]:.3e} vs largest {svals[0]:.3e}"
            )
        eigs = np.linalg.eigvalsh(g)
        p = int(np.count_nonzero(eigs > 0))
        q = int(np.count_nonzero(eigs < 0))
        g.setflags(write=False)
        object.__setattr__(self, "gram", g)
        object.__setattr__(self, "dim", g.shape[0])
        object.__setattr__(self, "signature", (p, q))
        object.__setattr__(self, "_gram_scale", float(svals[0]))

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

        It is the largest singular value found by the invertibility check
        at construction, stored then."""
        return self._gram_scale


def indefinite_inner(x: np.ndarray, y: np.ndarray, space: KreinSpace) -> complex:
    """Evaluate ``[x, y] = <G x, y>``; conjugate-symmetric in (x, y)."""
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    y = np.asarray(y, dtype=np.complex128).reshape(-1)
    if x.shape[0] != space.dim or y.shape[0] != space.dim:
        raise ValueError(
            f"vector lengths {x.shape[0]}, {y.shape[0]} do not match dim {space.dim}"
        )
    # np.vdot conjugates its first argument: vdot(y, Gx) = y* G x.
    return complex(np.vdot(y, space.gram @ x))


def krein_adjoint(T: np.ndarray, space: KreinSpace) -> np.ndarray:
    """Adjoint with respect to the indefinite product: ``G^{-1} T* G``.

    Satisfies ``[T x, y] = [x, adj(T) y]`` for all vectors x, y.
    """
    T = np.asarray(T, dtype=np.complex128)
    if T.shape != (space.dim, space.dim):
        raise ValueError(f"operator shape {T.shape} does not match dim {space.dim}")
    return np.linalg.solve(space.gram, T.conj().T @ space.gram)


def _normality_residual(T: np.ndarray, adj: np.ndarray) -> float:
    """Scale-free commutator residual ``||T T+ - T+ T||_F / max(1, ||T||_F^2)``."""
    return frobenius(T @ adj - adj @ T) / max(1.0, frobenius(T) ** 2)


def is_normal(
    T: np.ndarray, space: KreinSpace, tol: float = DEFAULT_NORMALITY_TOL
) -> tuple[bool, float]:
    """Commutator test ``T adj(T) = adj(T) T`` with a scale-free residual.

    Returns ``(verdict, residual)`` where the residual is
    ``||T T+ - T+ T||_F / max(1, ||T||_F^2)``.
    """
    T = np.asarray(T, dtype=np.complex128)
    residual = _normality_residual(T, krein_adjoint(T, space))
    return residual <= tol, residual


@dataclass(frozen=True)
class KreinOperator:
    """A square matrix certified normal with respect to its space.

    Construction computes the adjoint and the commutator residual and
    raises :class:`NonNormalError` when the residual exceeds
    ``normality_tol``.  Instances are immutable and safe to share.

    Derived data is computed on first use and cached on the instance: the
    norm, the Schur form, the spectral radius, and in ``_classified`` the
    classified spectrum of :func:`classified_spectrum`, as a tuple of
    frozen points keyed by the (frozen, hashable) ``ToleranceConfig``.
    """

    matrix: np.ndarray
    space: KreinSpace
    normality_tol: float = DEFAULT_NORMALITY_TOL
    adjoint: np.ndarray = field(init=False, repr=False)
    normality_residual: float = field(init=False)
    _classified: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        m = _frozen_complex(self.matrix, (self.space.dim, self.space.dim))
        adj = krein_adjoint(m, self.space)
        residual = _normality_residual(m, adj)
        if residual > self.normality_tol:
            raise NonNormalError(residual, self.normality_tol)
        adj.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "adjoint", adj)
        object.__setattr__(self, "normality_residual", residual)

    @property
    def dim(self) -> int:
        return self.space.dim

    @functools.cached_property
    def norm(self) -> float:
        return operator_norm(self.matrix)

    @functools.cached_property
    def schur(self) -> tuple[np.ndarray, np.ndarray]:
        """Complex Schur form ``matrix = U T U*`` as the read-only pair
        ``(T, U)``.

        Computed once per operator; eigenvalues, kernels and every ordered
        spectral decomposition of the operator are taken from it."""
        t, u = scipy.linalg.schur(self.matrix, output="complex")
        t.setflags(write=False)
        u.setflags(write=False)
        return t, u

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

    @classmethod
    def full(cls, dim: int) -> "SubspaceBasis":
        return cls(np.eye(dim))

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
    """Largest principal angle between two spans (0 for two zero subspaces).

    For containment tests call with the candidate subset second: all
    angles vanish iff ``span(b)`` lies inside ``span(a)``.  Delegates to
    the sine-based formulation, which stays accurate near zero angle.
    """
    if a.k == 0 and b.k == 0:
        return 0.0
    if a.k == 0 or b.k == 0:
        return float(np.pi / 2)
    return float(np.max(scipy.linalg.subspace_angles(a.columns, b.columns)))


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


def orthogonal_companion(basis: SubspaceBasis, space: KreinSpace) -> SubspaceBasis:
    """All vectors ``[., .]``-orthogonal to the given subspace.

    Equals the Euclidean orthogonal complement of ``G L``; since the Gram
    matrix is invertible the result always has dimension ``dim - k``.
    """
    if basis.dim != space.dim:
        raise ValueError(
            f"basis ambient dim {basis.dim} does not match space dim {space.dim}"
        )
    n, k = space.dim, basis.k
    if k == 0:
        return SubspaceBasis.full(n)
    gl = space.gram @ basis.columns
    u, _, _ = np.linalg.svd(gl, full_matrices=True)
    return SubspaceBasis(u[:, k:])


def part_decomposition(N: KreinOperator) -> tuple[np.ndarray, np.ndarray]:
    """Split a normal operator into commuting selfadjoint parts.

    Returns ``(R, S)`` with ``N = R + iS``, ``R = (N + N+)/2`` and
    ``S = (N - N+)/(2i)``; both are selfadjoint in the indefinite product
    and commute because N is normal.
    """
    re = (N.matrix + N.adjoint) / 2.0
    im = (N.matrix - N.adjoint) / (2.0j)
    return re, im
