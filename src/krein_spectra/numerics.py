"""Dense complex linear algebra: the package's one Schur/Sylvester layer
(LAPACK zgees, ztrsen, ztrsyl, ztrtrs), the full-size SVD (zgesvd) and its
matrix norms.

Ordered Schur decompositions realize spectral-set splittings, selecting
eigenvalues by their position on the Schur diagonal (a boolean mask),
never by value; a spectral projector decouples its own triangular blocks
with one ztrsyl call, and the general Sylvester solver triangularizes
both coefficients first.  Triangular systems on Schur blocks are solved
by ztrtrs.  Weighted resolvent sums, evaluated in a Schur basis, give the
contour integrals that recover spectral projectors and Laurent
coefficients.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._errors import SpectralOverlapError
from .regions import Disk, Rectangle

__all__ = [
    "OrderedDecomposition",
    "boundary_resolvent_sums",
    "complex_schur",
    "contour_integral_resolvent",
    "ordered_spectral_decomposition",
    "projector_row",
    "reorder_schur",
    "solve_sylvester",
    "solve_sylvester_dense",
    "solve_triangular",
    "spectral_projector",
    "svd",
    "sylvester_spectral_gap",
]


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    """``||a b - b a||_F``: two products of square matrices."""
    return frobenius(a @ b - b @ a)


def operator_norm(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


_FLAPACK = "scipy.linalg._flapack"


def _load_lapack():
    """scipy's LAPACK extension module and the route that found it.

    ``"direct"``: loaded from its file, next to ``scipy.linalg`` but without
    importing that package (and the array-API shim it pulls in), or reused
    from ``sys.modules``.  ``"fallback"``: ``scipy.linalg.lapack``, when the
    file cannot be found.  Either way the routines are the same objects."""
    if _FLAPACK in sys.modules:
        return sys.modules[_FLAPACK], "direct"
    scipy_spec = importlib.util.find_spec("scipy")
    for directory in (scipy_spec and scipy_spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(directory, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(_FLAPACK, path)
                spec = importlib.util.spec_from_file_location(_FLAPACK, path, loader=loader)
                module = importlib.util.module_from_spec(spec)
                loader.exec_module(module)
                # initialization registered it; a later import of scipy.linalg
                # then loads its own copy, which shares these routine objects
                if sys.modules.get(_FLAPACK) is module:
                    del sys.modules[_FLAPACK]
                return module, "direct"
    import scipy.linalg.lapack

    return scipy.linalg.lapack, "fallback"


_lapack, LAPACK_ROUTE = _load_lapack()
_zgees, _ztrsen, _ztrsyl = _lapack.zgees, _lapack.ztrsen, _lapack.ztrsyl
_ztrtrs, _zgesvd = _lapack.ztrtrs, _lapack.zgesvd


def _unsorted(z):  # zgees's eigenvalue selection; unused when nothing is sorted
    return None


def complex_schur(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form ``a = U T U*`` as the pair ``(T, U)`` (zgees).

    As ``scipy.linalg.schur(a, output="complex")``, bit for bit: non-finite
    entries raise ``ValueError``, the factorization runs in complex128 with
    the workspace LAPACK asks for, and a failure raises ``LinAlgError``."""
    a = np.asarray_chkfinite(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    a = a.astype(np.complex128, copy=False)
    if a.size == 0:
        return np.empty_like(a), np.empty_like(a)
    lwork = int(_zgees(_unsorted, a, lwork=-1)[-2][0].real)
    t, _, _, u, _, info = _zgees(_unsorted, a, lwork=lwork)
    if info != 0:
        raise np.linalg.LinAlgError(f"Schur form not found: zgees info {info}")
    return t, u


def svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD ``a = U diag(s) Vh`` as ``(U, s, Vh)`` by LAPACK's zgesvd,
    whose singular vectors stayed orthonormal where numpy's zgesdd did not."""
    u, s, vh, info = _zgesvd(np.asarray(a, dtype=np.complex128))
    if info != 0:
        raise np.linalg.LinAlgError(f"SVD did not converge: zgesvd info {info}")
    return u, s, vh


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


def reorder_schur(
    t: np.ndarray, u: np.ndarray, select: Sequence[bool]
) -> tuple[np.ndarray, np.ndarray, int]:
    """Reorder a complex Schur form ``A = U T U*`` so that the diagonal
    entries flagged in ``select`` lead, by unitary swaps (LAPACK ztrsen).

    Returns the reordered ``(T, U)``, read-only, and the number of selected
    entries.  ``u`` is postmultiplied by the reordering unitary, so any
    matrix that should follow the Schur vectors (such as ``M U``) may be
    passed."""
    ts, us, _, m, _, _, info = _ztrsen(
        np.asarray(select, dtype=np.int32), t, u, job="N"
    )
    if info != 0:
        raise np.linalg.LinAlgError(f"Schur reordering failed: ztrsen info {info}")
    ts.setflags(write=False)
    us.setflags(write=False)
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
    invariant subspace.  Which entries to flag is the caller's decision:
    ``classification.invariant_decomposition`` flags the members of a set
    of eigenvalue clusters.
    """
    A = np.asarray(A, dtype=np.complex128)
    select = np.asarray(select, dtype=bool)
    if select.shape != (A.shape[0],):
        raise ValueError(f"selection mask of shape {select.shape} for a {A.shape} matrix")
    t, u, sdim = reorder_schur(*schur, select)
    backward = frobenius(A - u @ t @ u.conj().T) / max(frobenius(A), 1e-300)
    return OrderedDecomposition(u, t, sdim, float(backward))


def spectral_projector(dec: OrderedDecomposition) -> np.ndarray:
    """Spectral projector onto the invariant subspace of the leading block:
    ``U [[I, -R], [0, 0]] U*`` with the first block row of
    :func:`projector_row`."""
    n = dec.triangular.shape[0]
    k = dec.split
    if k == 0:
        return np.zeros((n, n), dtype=np.complex128)
    if k == n:
        return np.eye(n, dtype=np.complex128)
    q_inner = np.zeros((n, n), dtype=np.complex128)
    q_inner[:k] = projector_row(dec)
    return dec.unitary @ q_inner @ dec.unitary.conj().T


def projector_row(dec: OrderedDecomposition) -> np.ndarray:
    """The first block row ``[I, -R]`` (``split x n``; the other rows vanish)
    of the leading block's spectral projector in the reordered Schur basis.
    ``R`` solves ``T11 R - R T22 = -T12`` on the triangular factor's own
    blocks, whose spectra the split separates; it block-diagonalizes T."""
    t, k = dec.triangular, dec.split
    row = np.zeros((k, t.shape[0]), dtype=np.complex128)
    row[:, :k] = np.eye(k)
    if 0 < k < t.shape[0]:
        row[:, k:] = -_triangular_sylvester(t[:k, :k], t[k:, k:], -t[:k, k:])
    return row


def sylvester_spectral_gap(S: np.ndarray, T: np.ndarray) -> tuple[float, tuple[complex, complex]]:
    """Minimum distance between the two spectra, with the attaining pair."""
    es = np.linalg.eigvals(np.asarray(S, dtype=np.complex128))
    et = np.linalg.eigvals(np.asarray(T, dtype=np.complex128))
    dists = np.abs(es[:, None] - et[None, :])
    i, j = np.unravel_index(int(np.argmin(dists)), dists.shape)
    return float(dists[i, j]), (complex(es[i]), complex(et[j]))


def solve_sylvester(S: np.ndarray, T: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Solve ``S X - X T = Z`` by Bartels-Stewart: both coefficients to
    Schur form (:func:`complex_schur`), then one ztrsyl back substitution.
    Requires disjoint spectra; overlap is rejected with the offending pair.
    """
    S = np.asarray(S, dtype=np.complex128)
    T = np.asarray(T, dtype=np.complex128)
    Z = np.asarray(Z, dtype=np.complex128)
    m, n = S.shape[0], T.shape[0]
    if S.shape != (m, m) or T.shape != (n, n) or Z.shape != (m, n):
        raise ValueError(f"incompatible shapes {S.shape}, {T.shape}, {Z.shape}")

    ts, us = complex_schur(S)
    tt, ut = complex_schur(T)
    gap = np.abs(np.diag(ts)[:, None] - np.diag(tt)[None, :])
    i, j = np.unravel_index(int(np.argmin(gap)), gap.shape)
    scale = max(operator_norm(S) + operator_norm(T), 1e-300)
    if gap[i, j] <= 1e-12 * scale:
        raise SpectralOverlapError(
            f"coefficient spectra overlap at {ts[i, i]} vs {tt[j, j]} "
            f"(gap {gap[i, j]:.3e})"
        )
    return us @ _triangular_sylvester(ts, tt, us.conj().T @ Z @ ut) @ ut.conj().T


def _triangular_sylvester(s: np.ndarray, t: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``X`` with ``s X - X t = z`` for upper-triangular s and t (ztrsyl)."""
    x, scale, info = _ztrsyl(s, t, z, isgn=-1)
    if info != 0:  # 1: common or close diagonal entries, perturbed to solve
        raise SpectralOverlapError(f"coefficient spectra overlap: ztrsyl info {info}")
    return x / scale


def solve_triangular(t: np.ndarray, b: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """``X`` with ``t X = b``, or ``t* X = b`` when ``adjoint``, for an
    upper-triangular t (ztrtrs).  An exactly zero diagonal entry raises
    ``LinAlgError``."""
    x, info = _ztrtrs(t, b, trans=2 if adjoint else 0)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed: ztrtrs info {info}")
    return x


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
# A contour call allocates one such stack and one scratch of a quarter of
# it for the block products, and reuses both for every batch; nothing is
# kept between calls.  Singular-value probes take their points in batches
# of the same size.
_NODE_BATCH = 128
# a disk's nested quadrature stops once successive sums agree to this,
# relative to max(1, ||sum||_F)
_QUADRATURE_TOL = 1e-10


def resolvent_at(
    schur: tuple[np.ndarray, np.ndarray], points: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """The weighted resolvent sum ``U (sum_j w_j (z_j - T)^{-1}) U*`` for
    the complex Schur form ``N = U T U*``.

    The sum is formed in the Schur basis by :func:`_schur_resolvent_sums`
    and transformed back once.
    """
    t, u = schur
    return u @ _schur_resolvent_sums(t, points, weights) @ u.conj().T


def _disk_ladder(max_nodes: int) -> list[int]:
    """Rule sizes of the nested trapezoid ladder on a circle, ending at
    ``2 * max_nodes``: it starts at ``2 * max_nodes / 2**k`` for the largest
    k that leaves a whole number of at least 16, and doubles."""
    sizes = [2 * max_nodes]
    while sizes[-1] % 2 == 0 and sizes[-1] // 2 >= 16:
        sizes.append(sizes[-1] // 2)
    return sizes[::-1]


def boundary_resolvent_sums(t: np.ndarray, piece: Disk | Rectangle, max_nodes: int) -> np.ndarray:
    """``(1/2 pi i) ∮ (z - T)^{-1} dz`` over the boundary of one region
    piece, for an upper-triangular T, stacked with the last change of its
    convergence check: an array of shape ``(2, n, n)`` in the Schur basis.

    A disk climbs the nested trapezoid ladder of :func:`_disk_ladder`.  The
    rule of ``m`` nodes is every ``(2 * max_nodes / m)``-th node of the
    largest rule (bitwise), with that many times its weights, so each
    doubling evaluates only its new odd nodes.  The climb stops at the
    first rule ``q_2m`` with ``||q_2m - q_m||_F <= _QUADRATURE_TOL *
    max(1, ||q_2m||_F)``, or at ``2 * max_nodes`` nodes; ``q_2m`` is
    returned.  A rectangle's Gauss-Legendre panels do not nest: it returns
    its rule at ``max_nodes`` nodes, checked against the rule at twice as
    many.  The stopping rule reads only the quadrature sums.
    """
    if not isinstance(piece, Disk):
        coarse, fine = (
            _schur_resolvent_sums(t, points, weights / (2.0j * np.pi))
            for points, weights in map(piece.quadrature, (max_nodes, 2 * max_nodes))
        )
        return np.stack([coarse, fine - coarse])
    sizes = _disk_ladder(max_nodes)
    points, weights = piece.quadrature(sizes[-1])
    weights = weights / (2.0j * np.pi)
    # the largest rule's weights summed over the nodes evaluated so far; the
    # stride is a power of two, so scaling by it is exact
    stride = sizes[-1] // sizes[0]
    total = _schur_resolvent_sums(t, points[::stride], weights[::stride])
    q = stride * total
    while stride > 1:
        odd = slice(stride // 2, None, stride)
        total += _schur_resolvent_sums(t, points[odd], weights[odd])
        stride //= 2
        finer = stride * total
        change, q = finer - q, finer
        if frobenius(change) <= _QUADRATURE_TOL * max(1.0, frobenius(q)):
            break
    return np.stack([q, change])


def _schur_resolvent_sums(t: np.ndarray, points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``sum_j w_j (z_j - T)^{-1}`` for an upper-triangular T, as one n x n
    matrix.

    This is where every resolvent of the package is evaluated.  Each
    ``z_j - T`` is inverted directly (block recursion, batched over the
    nodes, at most ``_NODE_BATCH`` nodes at a time); no dense n x n system
    is solved.  One inverse stack and one scratch serve every batch of the
    call.
    """
    n = t.shape[0]
    points = np.asarray(points, dtype=np.complex128).reshape(-1)
    weights = np.asarray(weights, dtype=np.complex128).reshape(-1)
    sums = np.zeros(n * n, dtype=np.complex128)
    batch = min(points.size, _NODE_BATCH)
    # only the diagonal and upper blocks are written: the lower triangle
    # stays zero from one batch to the next
    stack = np.zeros((batch, n, n), dtype=np.complex128)
    scratch = np.empty(batch * (n // 2) * (n - n // 2), dtype=np.complex128)
    for lo in range(0, points.size, _NODE_BATCH):
        block = slice(lo, lo + _NODE_BATCH)
        z = points[block]
        inverses = _shifted_inverses(t, z, stack[: z.size], scratch)
        sums += weights[block] @ inverses.reshape(-1, n * n)
    return sums.reshape(n, n)


def _shifted_inverses(
    t: np.ndarray, z: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """``(z_j - T)^{-1}`` for an upper-triangular T, stacked along axis 0.

    Written into ``out`` (shape ``(z.size, n, n)``, zero below the
    diagonal) with ``scratch`` (at least ``z.size * (n // 2) * (n - n // 2)``
    entries) for the block products; either is allocated when not passed.
    """
    n = t.shape[0]
    if out is None:
        out = np.zeros((z.size, n, n), dtype=np.complex128)
    if scratch is None:
        scratch = np.empty(z.size * (n // 2) * (n - n // 2), dtype=np.complex128)
    _fill_shifted_inverse(t, z, out, scratch)
    return out


def _fill_shifted_inverse(
    t: np.ndarray, z: np.ndarray, out: np.ndarray, scratch: np.ndarray
) -> None:
    # [[z - T11, -T12], [0, z - T22]]^{-1} = [[X11, X11 T12 X22], [0, X22]]
    n = t.shape[0]
    if n == 1:
        out[:, 0, 0] = 1.0 / (z - t[0, 0])
        return
    h = n // 2
    _fill_shifted_inverse(t[:h, :h], z, out[:, :h, :h], scratch)
    _fill_shifted_inverse(t[h:, h:], z, out[:, h:, h:], scratch)
    product = scratch[: z.size * h * (n - h)].reshape(z.size, h, n - h)
    np.matmul(out[:, :h, :h], t[:h, h:], out=product)
    np.matmul(product, out[:, h:, h:], out=out[:, :h, h:])


# The Golub-Kahan route solves with diagonal blocks of this size; a
# triangle no larger is one block, and a dense SVD of it is cheaper.
_SOLVE_BLOCK = 32
# Golub-Kahan steps per sample before it falls back to a dense SVD.
_GK_STEPS = 64
# Steps the work arrays first hold; they double on demand, up to _GK_STEPS.
_GK_FIRST_STEPS = 16
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
    dense SVD.  The points are taken ``_NODE_BATCH`` at a time.  The dense
    route's work space is one stack of the batch's n x n matrices; the
    iteration's is ``batch x (steps taken) x n`` per Krylov basis.
    """
    z = np.asarray(z, dtype=np.complex128).reshape(-1)
    sigma = np.empty(z.size)
    for lo in range(0, z.size, _NODE_BATCH):
        batch = z[lo : lo + _NODE_BATCH]
        if t.shape[0] <= _SOLVE_BLOCK:
            values = _dense_sigma_min(a, batch)
        else:
            values = _golub_kahan_sigma_min(t, batch)
            uncertified = np.isnan(values)
            if uncertified.any():
                values[uncertified] = _dense_sigma_min(a, batch[uncertified])
        sigma[lo : lo + batch.size] = values
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

    The work arrays (both bases and the bidiagonal) hold the live shifts
    and ``_GK_FIRST_STEPS`` steps at first, doubling whenever the steps
    fill them, up to ``_GK_STEPS``.  At a step where shifts leave, or the
    arrays grow, only the live shifts' rows and the steps already written
    are copied, into arrays of the new size (:func:`_leading_steps`).
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
    capacity = min(_GK_FIRST_STEPS, _GK_STEPS)  # steps the work arrays hold
    us = np.empty((z.size, capacity, n), dtype=np.complex128)
    vs = np.empty((z.size, capacity, n), dtype=np.complex128)
    vs[:, 0] = start / np.linalg.norm(start)
    bidiagonal = np.zeros((z.size, capacity, capacity))
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
            live, r, b, *inverses = (arr[keep] for arr in (live, r, b, *inverses))
        if k + 1 == capacity:
            capacity = min(2 * capacity, _GK_STEPS)
        if capacity > us.shape[1] or live.size < us.shape[0]:
            # one array at a time, so at most one old array outlives its copy
            rows = live.size
            us = _leading_steps(us, keep, k + 1, (rows, capacity, n))
            vs = _leading_steps(vs, keep, k + 1, (rows, capacity, n))
            bidiagonal = _leading_steps(bidiagonal, keep, k + 1, (rows, capacity, capacity))
        vs[:, k + 1] = r / b[:, None]
        bidiagonal[:, k, k + 1] = b
        p = solve(vs[:, k + 1]) - b[:, None] * us[:, k]
    return sigma


def _leading_steps(
    work: np.ndarray, keep: np.ndarray, steps: int, shape: tuple[int, int, int]
) -> np.ndarray:
    """The rows ``keep`` of a Golub-Kahan work array, in a new array of
    ``shape`` that holds as many steps or more.  Only the first ``steps``
    along axis 1 are copied (the rest are not yet written); the entries
    not copied are zero, as the bidiagonal's products need."""
    out = np.zeros(shape, dtype=work.dtype)
    out[:, :steps, : work.shape[2]] = work[keep, :steps]
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
    gives the order-k Laurent coefficient at the enclosed eigenvalues.  The
    nodes are the disk's own rule (:meth:`Disk.quadrature`), weighted by
    ``(z - center)^k / (2 pi i)``; the integral is formed by
    :func:`resolvent_at`.  Whether the circle keeps clear of the spectrum
    is the caller's decision.
    """
    points, weights = disk.quadrature(nodes)
    weights = weights * (points - disk.center) ** k / (2.0j * np.pi)
    return resolvent_at(schur, points, weights)
