"""Dense complex linear-algebra substrate with explicit contracts.

Ordered Schur decompositions realize spectral-set splittings, selecting
eigenvalues by their position on the Schur diagonal (a boolean mask),
never by value; the Sylvester solver decouples invariant blocks (unique
solvability granted by disjoint coefficient spectra), and weighted
resolvent sums, evaluated in a Schur basis, give the contour integrals
that recover spectral projectors and Laurent coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from ._errors import SpectralOverlapError
from .core import frobenius, operator_norm
from .regions import Disk

__all__ = [
    "OrderedDecomposition",
    "contour_integral_resolvent",
    "ordered_spectral_decomposition",
    "reorder_schur",
    "solve_sylvester",
    "solve_sylvester_dense",
    "spectral_projector",
    "sylvester_spectral_gap",
]


@dataclass(frozen=True)
class OrderedDecomposition:
    """Unitary similarity ``A = U T U*`` with the selected eigenvalues in
    the leading ``split`` x ``split`` block of the upper-triangular T."""

    unitary: np.ndarray
    triangular: np.ndarray
    split: int
    backward_error: float

    def __post_init__(self):
        u = self.unitary
        n = u.shape[0]
        ortho_defect = frobenius(u.conj().T @ u - np.eye(n))
        if ortho_defect > 1e-12 * max(1.0, n):
            raise ValueError(f"Schur factor is not unitary: defect {ortho_defect:.3e}")
        if self.backward_error > 1e-10:
            raise ValueError(
                f"Schur backward error {self.backward_error:.3e} exceeds 1e-10"
            )

    @property
    def selected_eigenvalues(self) -> np.ndarray:
        return np.diag(self.triangular)[: self.split]


def reorder_schur(
    t: np.ndarray, u: np.ndarray, select: Sequence[bool]
) -> tuple[np.ndarray, np.ndarray, int]:
    """Reorder a complex Schur form ``A = U T U*`` so that the diagonal
    entries flagged in ``select`` lead, by unitary swaps (LAPACK ztrsen).

    Returns the reordered ``(T, U)`` and the number of selected entries.
    ``u`` is postmultiplied by the reordering unitary, so any matrix that
    should follow the Schur vectors (such as ``M U``) may be passed."""
    ts, us, _, m, _, _, info = scipy.linalg.lapack.ztrsen(
        np.asarray(select, dtype=np.int32), t, u, job="N"
    )
    if info != 0:
        raise np.linalg.LinAlgError(f"Schur reordering failed: ztrsen info {info}")
    return ts, us, int(m)


def ordered_spectral_decomposition(
    A: np.ndarray,
    schur: tuple[np.ndarray, np.ndarray],
    select: Sequence[bool],
) -> OrderedDecomposition:
    """Complex Schur form ``A = U T U*`` (``schur = (T, U)``) reordered by
    :func:`reorder_schur` so the eigenvalues ``T[i, i]`` flagged in the
    boolean mask ``select`` lead.

    The leading ``split`` columns of the unitary factor span their
    invariant subspace.  Which positions to flag is the caller's decision:
    for regions, ``projections.region_selection``; for clusters, their
    ``SpectralPoint.schur_positions``.
    """
    A = np.asarray(A, dtype=np.complex128)
    select = np.asarray(select, dtype=bool)
    if select.shape != (A.shape[0],):
        raise ValueError(f"selection mask of shape {select.shape} for a {A.shape} matrix")
    t, u, sdim = reorder_schur(*schur, select)
    backward = frobenius(A - u @ t @ u.conj().T) / max(frobenius(A), 1e-300)
    return OrderedDecomposition(u, t, sdim, float(backward))


def spectral_projector(dec: OrderedDecomposition) -> np.ndarray:
    """Spectral projector onto the invariant subspace of the leading block.

    Solves the Sylvester equation that block-diagonalizes the triangular
    factor; in the decoupled coordinates the projector is [[I, 0], [0, 0]].
    """
    n = dec.triangular.shape[0]
    k = dec.split
    if k == 0:
        return np.zeros((n, n), dtype=np.complex128)
    if k == n:
        return np.eye(n, dtype=np.complex128)
    t11 = dec.triangular[:k, :k]
    t12 = dec.triangular[:k, k:]
    t22 = dec.triangular[k:, k:]
    r = solve_sylvester(t11, t22, -t12)
    q_inner = np.zeros((n, n), dtype=np.complex128)
    q_inner[:k, :k] = np.eye(k)
    q_inner[:k, k:] = -r
    return dec.unitary @ q_inner @ dec.unitary.conj().T


def sylvester_spectral_gap(S: np.ndarray, T: np.ndarray) -> tuple[float, tuple[complex, complex]]:
    """Minimum distance between the two spectra, with the attaining pair."""
    es = np.linalg.eigvals(np.asarray(S, dtype=np.complex128))
    et = np.linalg.eigvals(np.asarray(T, dtype=np.complex128))
    dists = np.abs(es[:, None] - et[None, :])
    i, j = np.unravel_index(int(np.argmin(dists)), dists.shape)
    return float(dists[i, j]), (complex(es[i]), complex(et[j]))


def solve_sylvester(S: np.ndarray, T: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Solve ``S X - X T = Z`` by triangularizing both coefficients.

    Both sides are brought to complex Schur form (an upper-triangular
    coefficient, such as a diagonal block of a Schur factor, already is
    one) and the transformed equation is solved in one LAPACK ztrsyl
    call (Bartels-Stewart back substitution).  Requires disjoint spectra;
    overlap is rejected with the offending pair.
    """
    S = np.asarray(S, dtype=np.complex128)
    T = np.asarray(T, dtype=np.complex128)
    Z = np.asarray(Z, dtype=np.complex128)
    m, n = S.shape[0], T.shape[0]
    if S.shape != (m, m) or T.shape != (n, n) or Z.shape != (m, n):
        raise ValueError(f"incompatible shapes {S.shape}, {T.shape}, {Z.shape}")

    ts, us = _complex_schur(S)
    tt, ut = _complex_schur(T)
    gap = np.abs(np.diag(ts)[:, None] - np.diag(tt)[None, :])
    i, j = np.unravel_index(int(np.argmin(gap)), gap.shape)
    scale = max(operator_norm(S) + operator_norm(T), 1e-300)
    if gap[i, j] <= 1e-12 * scale:
        raise SpectralOverlapError(
            f"coefficient spectra overlap at {ts[i, i]} vs {tt[j, j]} "
            f"(gap {gap[i, j]:.3e})"
        )

    y, rescale, info = scipy.linalg.lapack.ztrsyl(ts, tt, us.conj().T @ Z @ ut, isgn=-1)
    if info != 0:
        raise np.linalg.LinAlgError(f"Sylvester solve failed: ztrsyl info {info}")
    return us @ (y / rescale) @ ut.conj().T


def _complex_schur(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if not np.any(np.tril(a, -1)):
        return a, np.eye(a.shape[0], dtype=np.complex128)
    return scipy.linalg.schur(a, output="complex")


def solve_sylvester_dense(S: np.ndarray, T: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Kronecker-product solve of ``S X - X T = Z``; small-instance oracle.

    Builds the mn x mn system (I (x) S - T^t (x) I) vec(X) = vec(Z) and
    solves it densely.  Quadratic memory in the problem size, intended for
    cross-validation at small dimensions only.
    """
    S = np.asarray(S, dtype=np.complex128)
    T = np.asarray(T, dtype=np.complex128)
    Z = np.asarray(Z, dtype=np.complex128)
    m, n = S.shape[0], T.shape[0]
    big = np.kron(np.eye(n), S) - np.kron(T.T, np.eye(m))
    x = np.linalg.solve(big, Z.reshape(-1, order="F"))
    return x.reshape((m, n), order="F")


# Shifted triangles are inverted this many nodes at a time, so the
# (nodes, n, n) stack of inverses never outgrows one default-size rule.
_NODE_BATCH = 128


def resolvent_at(
    schur: tuple[np.ndarray, np.ndarray], points: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Weighted resolvent sums ``U (sum_j w_j (z_j - T)^{-1}) U*``, one per
    row of ``weights``, for the complex Schur form ``N = U T U*``.

    This is where every resolvent of the package is evaluated.  Each
    ``z_j - T`` is upper triangular and is inverted directly (block
    recursion, batched over the nodes, at most ``_NODE_BATCH`` nodes at a
    time); no dense n x n system is solved.  The weighted sums are formed
    in the Schur basis and transformed back once.  Returns an array of
    shape ``(rows, n, n)``.
    """
    t, u = schur
    n = t.shape[0]
    points = np.asarray(points, dtype=np.complex128).reshape(-1)
    weights = np.atleast_2d(np.asarray(weights, dtype=np.complex128))
    sums = np.zeros((weights.shape[0], n * n), dtype=np.complex128)
    for lo in range(0, points.size, _NODE_BATCH):
        block = slice(lo, lo + _NODE_BATCH)
        inverses = _shifted_inverses(t, points[block])
        sums += weights[:, block] @ inverses.reshape(-1, n * n)
    return u @ sums.reshape(-1, n, n) @ u.conj().T


def _shifted_inverses(t: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``(z_j - T)^{-1}`` for an upper-triangular T, stacked along axis 0."""
    out = np.zeros((z.size,) + t.shape, dtype=np.complex128)
    _fill_shifted_inverse(t, z, out)
    return out


def _fill_shifted_inverse(t: np.ndarray, z: np.ndarray, out: np.ndarray) -> None:
    # [[z - T11, -T12], [0, z - T22]]^{-1} = [[X11, X11 T12 X22], [0, X22]]
    n = t.shape[0]
    if n == 1:
        out[:, 0, 0] = 1.0 / (z - t[0, 0])
        return
    h = n // 2
    _fill_shifted_inverse(t[:h, :h], z, out[:, :h, :h])
    _fill_shifted_inverse(t[h:, h:], z, out[:, h:, h:])
    out[:, :h, h:] = (out[:, :h, :h] @ t[:h, h:]) @ out[:, h:, h:]


# The Golub-Kahan route solves with diagonal blocks of this size; a
# triangle no larger is one block, and a dense SVD of it is cheaper.
_SOLVE_BLOCK = 32
# Golub-Kahan steps per sample before it falls back to a dense SVD.
_GK_STEPS = 64
# A top Ritz value is certified when its residual is at most this, relative.
_GK_TOL = 1e-10


def smallest_singular_values(a: np.ndarray, t: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``sigma_min(a - z_j)`` for each point of ``z``, where ``t`` is the
    upper-triangular factor of a complex Schur form ``a = U t U*``.

    Up to dimension ``_SOLVE_BLOCK`` the values are the last singular
    values of one stacked dense SVD of the ``a - z_j``.  Above it they are
    ``1 / sigma_max((z_j - t)^{-1})`` by Golub-Kahan bidiagonalization in
    the Schur basis (:func:`_golub_kahan_sigma_min`), which needs only
    triangular solves; a point the iteration does not certify gets the
    dense SVD.  Work space grows with ``z.size``: callers pass at most
    ``_NODE_BATCH`` points at a time.
    """
    z = np.asarray(z, dtype=np.complex128).reshape(-1)
    if t.shape[0] <= _SOLVE_BLOCK:
        return _dense_sigma_min(a, z)
    sigma = _golub_kahan_sigma_min(t, z)
    uncertified = np.isnan(sigma)
    if uncertified.any():
        sigma[uncertified] = _dense_sigma_min(a, z[uncertified])
    return sigma


def _dense_sigma_min(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    shifted = a - z[:, None, None] * np.eye(a.shape[0])
    return np.linalg.svd(shifted, compute_uv=False)[:, -1]


def _golub_kahan_sigma_min(t: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``1 / sigma_max((z_j - t)^{-1})`` for each shift, NaN where the
    iteration does not certify it within ``_GK_STEPS`` steps.

    Golub-Kahan bidiagonalization of ``B = (z - t)^{-1}`` from one
    fixed-seed start vector, with full reorthogonalization, batched over
    the shifts: ``B V_k = U_k B_k`` and ``B* U_k = V_k B_k* + beta_k
    v_{k+1} e_k*`` with ``B_k`` upper bidiagonal.  The top singular value
    sigma of ``B_k`` and its left singular vector x (the top eigenpair of
    the tridiagonal ``B_k B_k*``) leave the residual ``beta_k |x_k|``, and
    some singular value of B lies within it of sigma; a shift is certified
    once that is at most ``_GK_TOL * sigma`` (a breakdown, beta = 0, is
    exact).  A shift whose alpha or beta is not finite and positive, as
    when a huge shift makes the norms underflow, is left uncertified.
    Each step costs two O(n^2) block triangular solves per shift; the
    couplings ``t[i, >i]`` act on all shifts in one product.
    """
    n = t.shape[0]
    blocks = [slice(lo, min(lo + _SOLVE_BLOCK, n)) for lo in range(0, n, _SOLVE_BLOCK)]
    inverses = [_shifted_inverses(t[b, b], z) for b in blocks]

    def solve(v):  # (z - t)^{-1} v, by block back substitution
        x = np.empty_like(v)
        for b, d in zip(reversed(blocks), reversed(inverses)):
            rhs = v[:, b] + x[:, b.stop :] @ t[b, b.stop :].T
            x[:, b] = (d @ rhs[:, :, None])[:, :, 0]
        return x

    def solve_transpose(w):  # (z - t)^{-T} w, by block forward substitution
        y = np.empty_like(w)
        for b, d in zip(blocks, inverses):
            rhs = w[:, b] + y[:, : b.start] @ t[: b.start, b]
            y[:, b] = (rhs[:, None, :] @ d)[:, 0, :]
        return y

    start = np.array([1.0, 1.0j]) @ np.random.default_rng(0).standard_normal((2, n))
    sigma = np.full(z.size, np.nan)
    live = np.arange(z.size)  # the shifts still iterating, by index into z
    us = np.empty((z.size, _GK_STEPS, n), dtype=np.complex128)
    vs = np.empty((z.size, _GK_STEPS + 1, n), dtype=np.complex128)
    vs[:, 0] = start / np.linalg.norm(start)
    bidiagonal = np.zeros((z.size, _GK_STEPS, _GK_STEPS))
    p = solve(vs[:, 0])
    for k in range(_GK_STEPS):
        p -= _project(us[:, :k], p)
        a = np.linalg.norm(p, axis=1)
        fit = np.isfinite(a) & (a > 0)
        a[~fit] = 1.0  # a placeholder: the shift is dropped below this step
        us[:, k] = p / a[:, None]
        bidiagonal[:, k, k] = a
        r = solve_transpose(us[:, k].conj()).conj() - a[:, None] * vs[:, k]
        r -= _project(vs[:, : k + 1], r)
        b = np.linalg.norm(r, axis=1)
        bk = bidiagonal[:, : k + 1, : k + 1]
        theta, x = np.linalg.eigh(bk @ bk.transpose(0, 2, 1))
        top = np.sqrt(theta[:, -1])
        done = fit & (b * np.abs(x[:, k, -1]) <= _GK_TOL * top)
        sigma[live[done]] = 1.0 / top[done]
        keep = fit & ~done & np.isfinite(b)
        if not keep.any() or k + 1 == _GK_STEPS:
            break
        if not keep.all():
            live, bidiagonal, r, b, *inverses = (
                arr[keep] for arr in (live, bidiagonal, r, b, *inverses)
            )
            us, vs = (_leading_steps(arr, keep, k + 1) for arr in (us, vs))
        vs[:, k + 1] = r / b[:, None]
        bidiagonal[:, k, k + 1] = b
        p = solve(vs[:, k + 1]) - b[:, None] * us[:, k]
    return sigma


def _leading_steps(basis: np.ndarray, keep: np.ndarray, steps: int) -> np.ndarray:
    """The rows ``keep`` of a basis buffer, of which only the first
    ``steps`` vectors are copied (the rest are not yet written)."""
    out = np.empty((np.count_nonzero(keep),) + basis.shape[1:], dtype=basis.dtype)
    out[:, :steps] = basis[keep, :steps]
    return out


def _project(basis: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Components of each ``p[j]`` along the orthonormal rows of ``basis[j]``."""
    return ((basis @ p.conj()[:, :, None]).transpose(0, 2, 1).conj() @ basis)[:, 0]


def contour_integral_resolvent(
    schur: tuple[np.ndarray, np.ndarray], disk: Disk, k: int = 0, nodes: int = 128
) -> np.ndarray:
    """Trapezoidal evaluation of the circle integral
    ``(1/2 pi i) ∮ (z - center)^k (z - N)^{-1} dz`` over the boundary of
    ``disk``, for the complex Schur form ``N = U T U*`` (``schur = (T, U)``).

    ``k = 0`` on a spectrum-enclosing circle gives the identity; ``k >= 1``
    probes Laurent coefficients at an enclosed isolated eigenvalue.  The
    nodes are the disk's own rule (:meth:`Disk.quadrature`) and the
    resolvents are evaluated by :func:`resolvent_at`.  Whether the circle
    keeps clear of the spectrum is the caller's decision.
    """
    points, weights = disk.quadrature(nodes)
    factors = weights * (points - disk.center) ** k / (2.0j * np.pi)
    return resolvent_at(schur, points, factors)[0]
