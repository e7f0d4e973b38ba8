"""Ordered decompositions, the Sylvester solver and contour integrals."""

import ast
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg.lapack

from krein_spectra import (
    Disk,
    GeneratorSpec,
    Region,
    SpectralOverlapError,
    build_normal_with_types,
    contour_integral_resolvent,
    local_spectral_function,
    numerics,
    ordered_spectral_decomposition,
    riesz_projection_contour,
    riesz_projection_oracle,
    solve_sylvester,
    solve_sylvester_dense,
    spectral_projector,
)
from krein_spectra.numerics import (
    _NODE_BATCH,
    _schur_resolvent_sums,
    frobenius,
    sylvester_spectral_gap,
)
from krein_spectra.projections import range_basis
from krein_spectra.regions import Rectangle

from conftest import with_tolerances


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def ordered(a, predicate):
    """Ordered decomposition of ``a`` selecting, by position, the diagonal
    entries of its complex Schur form that satisfy ``predicate``."""
    schur = numerics.complex_schur(a)
    select = [predicate(z) for z in np.diag(schur[0])]
    return ordered_spectral_decomposition(a, schur, select)


class TestOrderedDecomposition:
    def test_diagonal_reordering(self):
        a = np.diag([-1.0, 3.0, -2.0, 5.0])
        dec = ordered(a, lambda z: z.real > 0)
        assert dec.split == 2
        assert sorted(z.real for z in np.diag(dec.triangular)[: dec.split]) == [3.0, 5.0]
        assert dec.backward_error <= 1e-10

    def test_invariant_subspace_of_triangular_example(self):
        a = np.array([[1.0, 1.0], [0.0, 2.0]])
        dec = ordered(a, lambda z: abs(z - 2) < 0.5)
        assert dec.split == 1
        lead = dec.unitary[:, 0]
        expected = np.array([1.0, 1.0]) / np.sqrt(2)
        overlap = abs(np.vdot(lead, expected))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_select_everything(self):
        rng = np.random.default_rng(20)
        a = random_complex(rng, (5, 5))
        dec = ordered(a, lambda z: True)
        assert dec.split == 5

    def test_complementary_selectors_give_resolution_of_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            a = random_complex(rng, (6, 6))
            pivot = float(np.median(np.linalg.eigvals(a).real))
            schur = numerics.complex_schur(a)
            select = np.diag(schur[0]).real > pivot + 1e-6
            q1 = spectral_projector(ordered_spectral_decomposition(a, schur, select))
            q2 = spectral_projector(ordered_spectral_decomposition(a, schur, ~select))
            assert frobenius(q1 + q2 - np.eye(6)) <= 1e-9


    def test_mask_must_cover_the_diagonal(self):
        a = np.diag([1.0, 2.0, 3.0])
        schur = numerics.complex_schur(a)
        with pytest.raises(ValueError, match="mask"):
            ordered_spectral_decomposition(a, schur, [True, False])


class TestSylvester:
    def test_scalar_case(self):
        x = solve_sylvester(np.array([[2.0]]), np.array([[1.0]]), np.array([[3.0]]))
        assert x[0, 0] == pytest.approx(3.0)

    def test_zero_right_hand_side_forces_zero(self):
        rng = np.random.default_rng(22)
        s = random_complex(rng, (4, 4))
        t = random_complex(rng, (3, 3)) + 8 * np.eye(3)
        x = solve_sylvester(s, t, np.zeros((4, 3)))
        assert frobenius(x) <= 1e-12

    def test_random_residual_contract(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            m, n = rng.integers(2, 9, size=2)
            s = random_complex(rng, (m, m))
            t = random_complex(rng, (n, n)) + 10 * np.eye(n)
            z = random_complex(rng, (m, n))
            x = solve_sylvester(s, t, z)
            bound = 1e-8 * (
                np.linalg.norm(s, 2) + np.linalg.norm(t, 2)
            ) * frobenius(x) + 1e-8 * frobenius(z)
            assert frobenius(s @ x - x @ t - z) <= bound

    def test_matches_dense_oracle_on_small_instances(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            m, n = rng.integers(2, 9, size=2)
            s = random_complex(rng, (m, m))
            t = random_complex(rng, (n, n)) + 10 * np.eye(n)
            z = random_complex(rng, (m, n))
            x = solve_sylvester(s, t, z)
            x_dense = solve_sylvester_dense(s, t, z)
            assert frobenius(x - x_dense) <= 1e-9 * max(1.0, frobenius(x_dense))

    def test_spectral_overlap_rejected_with_pair(self):
        s = np.diag([1.0, 5.0])
        t = np.diag([3.0, 1.0])
        with pytest.raises(SpectralOverlapError, match="overlap"):
            solve_sylvester(s, t, np.ones((2, 2)))
        gap, pair = sylvester_spectral_gap(s, t)
        assert gap == pytest.approx(0.0)
        assert {round(pair[0].real), round(pair[1].real)} == {1}


def schur_of(a):
    return numerics.complex_schur(np.asarray(a, dtype=np.complex128))


class TestContourIntegralResolvent:
    def test_enclosing_circle_gives_identity(self):
        rng = np.random.default_rng(25)
        a = random_complex(rng, (4, 4))
        radius = np.max(np.abs(np.linalg.eigvals(a))) + 2.0
        q = contour_integral_resolvent(schur_of(a), Disk(0.0, radius), k=0, nodes=96)
        assert frobenius(q - np.eye(4)) <= 1e-8

    def test_empty_circle_gives_zero(self):
        a = np.diag([1.0, 2.0])
        q = contour_integral_resolvent(schur_of(a), Disk(10.0 + 10.0j, 1.0), k=0, nodes=64)
        assert frobenius(q) <= 1e-8

    def test_first_moment_vanishes_at_semisimple_point(self):
        a = np.diag([1.0, 2.0, 5.0])
        q = contour_integral_resolvent(schur_of(a), Disk(1.0, 0.4), k=1, nodes=64)
        assert frobenius(q) <= 1e-8

    def test_node_doubling_stability_after_convergence(self):
        rng = np.random.default_rng(26)
        a = random_complex(rng, (4, 4))
        schur, disk = schur_of(a), Disk(0.0, np.max(np.abs(np.linalg.eigvals(a))) + 3.0)
        q64 = contour_integral_resolvent(schur, disk, k=0, nodes=64)
        q128 = contour_integral_resolvent(schur, disk, k=0, nodes=128)
        q256 = contour_integral_resolvent(schur, disk, k=0, nodes=256)
        first = frobenius(q128 - q64)
        if first <= 1e-7:
            assert frobenius(q256 - q128) <= 1e-9


def allocating_resolvent_sums(t, points, weights):
    """Reference for the contour kernel: the same block recursion and batches,
    with a fresh inverse stack per batch and fresh block products."""

    def fill(t, z, out):
        n = t.shape[0]
        if n == 1:
            out[:, 0, 0] = 1.0 / (z - t[0, 0])
            return
        h = n // 2
        fill(t[:h, :h], z, out[:, :h, :h])
        fill(t[h:, h:], z, out[:, h:, h:])
        out[:, :h, h:] = (out[:, :h, :h] @ t[:h, h:]) @ out[:, h:, h:]

    n = t.shape[0]
    points = np.asarray(points, dtype=np.complex128).reshape(-1)
    weights = np.asarray(weights, dtype=np.complex128).reshape(-1)
    sums = np.zeros(n * n, dtype=np.complex128)
    for lo in range(0, points.size, _NODE_BATCH):
        block = slice(lo, lo + _NODE_BATCH)
        inverses = np.zeros((points[block].size, n, n), dtype=np.complex128)
        fill(t, points[block], inverses)
        sums += weights[block] @ inverses.reshape(-1, n * n)
    return sums.reshape(n, n)


def nested_contour_reference(N, region, nodes):
    """Reference for the contour route, on the allocating kernel.  A disk
    climbs the nested trapezoid ladder from the smallest whole ``2 * nodes
    / 2**k`` of at least 16: the rule of m nodes is every ``(2 * nodes /
    m)``-th node of the ``2 * nodes``-point rule, with that many times its
    weights, so each doubling adds the sum over its odd nodes.  It stops
    when two sums agree to 1e-10 relative or at ``2 * nodes`` nodes.  A
    rectangle sums its rule at ``nodes`` and the rule that splits each of
    its panels in two apart, and returns the second.  Returns the
    projection and the norm of the last change."""
    t, u = N.schur
    total = np.zeros((2,) + t.shape, dtype=np.complex128)
    for piece in region.pieces:
        if not isinstance(piece, Disk):
            coarse_pts, coarse_wts = piece.quadrature(nodes)
            fine_pts, fine_wts = piece.quadrature(nodes, split=2)
            coarse = allocating_resolvent_sums(t, coarse_pts, coarse_wts / (2.0j * np.pi))
            fine = allocating_resolvent_sums(t, fine_pts, fine_wts / (2.0j * np.pi))
            total += (fine, fine - coarse)
            continue
        points, weights = piece.quadrature(2 * nodes)
        weights = weights / (2.0j * np.pi)
        stride = 1
        while (2 * nodes) % (2 * stride) == 0 and 2 * nodes // (2 * stride) >= 16:
            stride *= 2
        summed = allocating_resolvent_sums(t, points[::stride], weights[::stride])
        q = stride * summed
        while stride > 1:
            odd = slice(stride // 2, None, stride)
            summed = summed + allocating_resolvent_sums(t, points[odd], weights[odd])
            stride //= 2
            change, q = stride * summed - q, stride * summed
            if frobenius(change) <= 1e-10 * max(1.0, frobenius(q)):
                break
        total += (q, change)
    return u @ total[0] @ u.conj().T, frobenius(total[1])


def shifted_triangle_problem(n, nodes):
    rng = np.random.default_rng([n, nodes])
    t = np.triu(random_complex(rng, (n, n)))
    points = 3.0 * np.exp(2j * np.pi * (np.arange(nodes) + 0.5) / nodes)
    return t, points, random_complex(rng, nodes)


class TestResolventKernelBuffers:
    """The kernel reuses one inverse stack and one scratch per call."""

    @pytest.mark.parametrize("n", [1, 2, 3, 37, 100])
    @pytest.mark.parametrize("nodes", [0, 1, 127, 128, 129, 300])
    def test_bitwise_equal_to_allocating_recursion(self, n, nodes):
        t, points, weights = shifted_triangle_problem(n, nodes)
        got = _schur_resolvent_sums(t, points, weights)
        want = allocating_resolvent_sums(t, points, weights)
        assert got.shape == want.shape == (n, n)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "region, nodes",
        [
            (Region.rectangle(0.5, -0.5, 1.5, 0.5), 128),  # 128, then 256 split: three batches
            (Region.disk(1.0, 0.5), 100),  # the nested ladder from 25 nodes, capped at 200
        ],
    )
    def test_contour_projection_bitwise_equal(self, region, nodes):
        spec = GeneratorSpec(
            signature=(6, 4),
            positive_type_eigs=((1.0 + 0j, 3), (-1.0 + 1j, 3)),
            negative_type_eigs=((3.0 + 0j, 4),),
            cond_bound=10.0,
            seed=3,
        )
        N = build_normal_with_types(spec).operator
        got = riesz_projection_contour(with_tolerances(N, contour_nodes=nodes), region)
        want, delta = nested_contour_reference(N, region, nodes)
        assert range_basis(got.matrix).k == 3
        assert got.matrix.tobytes() == want.tobytes()
        assert bool(got.warnings) == (delta > 1e-6)

    def test_traced_peak_is_one_stack_and_a_quarter(self):
        n = 100
        t, points, weights = shifted_triangle_problem(n, 2 * _NODE_BATCH)
        _schur_resolvent_sums(t, points, weights)  # warm up lazy imports and caches
        tracemalloc.start()
        try:
            _schur_resolvent_sums(t, points, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the stack, a quarter-stack scratch and the sums; a stack per
        # batch plus per-level temporaries peaks at 2.5 stacks
        assert peak <= 1.5 * _NODE_BATCH * n * n * 16


def gauss_legendre_edges(rect, panels):
    """8-point Gauss-Legendre nodes and weights on each edge of ``rect``,
    counterclockwise from its lower left corner, the edge cut into its
    entry of ``panels`` equal panels."""
    x, w = np.polynomial.legendre.leggauss(8)
    c = rect.corners
    points, weights = [], []
    for i, k in enumerate(panels):
        a, b = c[i], c[(i + 1) % 4]
        t = (np.arange(k)[:, None] + (x + 1.0) / 2.0) / k
        points.append(a + t.reshape(-1) * (b - a))
        weights.append(np.tile(w / (2.0 * k), k) * (b - a))
    return np.concatenate(points), np.concatenate(weights)


@pytest.mark.parametrize(
    "rect",
    [
        Rectangle(0.0, 0.0, 2.0, 0.1),  # aspect 20: one panel on each short edge at 128
        Rectangle(0.5, -0.5, 1.5, 0.5),  # at 16 nodes, one panel on every edge
        Rectangle(-0.3, -0.2, 0.9, 0.7),
    ],
)
@pytest.mark.parametrize("nodes", [16, 128, 300])
def test_rectangle_returns_its_check_rule_with_every_panel_split(monkeypatch, rect, nodes):
    calls = []
    schur_resolvent_sums = numerics._schur_resolvent_sums

    def recording(t, points, weights):
        total = schur_resolvent_sums(t, points, weights)
        calls.append(((points, weights * 2.0j * np.pi), total))
        return total

    monkeypatch.setattr(numerics, "_schur_resolvent_sums", recording)
    t = np.array([[0.3 + 0.05j, 1.0], [0.0, 5.0]])  # one eigenvalue inside, one outside
    finest, change = numerics.boundary_resolvent_sums(t, rect, nodes)
    (check, check_sum), (rule, rule_sum) = calls
    # the check rule's panels per edge, counted off its nodes
    points = check[0]
    on_edge = (points.imag == rect.y0, points.real == rect.x1,
               points.imag == rect.y1, points.real == rect.x0)
    panels = [int(np.count_nonzero(m)) // 8 for m in on_edge]
    assert min(panels) >= 1 and 8 * sum(panels) == points.size
    for (points, weights), edge_panels in ((check, panels), (rule, [2 * k for k in panels])):
        want_points, want_weights = gauss_legendre_edges(rect, edge_panels)
        np.testing.assert_allclose(points, want_points, rtol=0, atol=1e-15)
        np.testing.assert_allclose(weights, want_weights, rtol=0, atol=1e-15)
    # the finest rule is returned, with its change from the check rule
    assert finest.tobytes() == rule_sum.tobytes()
    assert change.tobytes() == (rule_sum - check_sum).tobytes()


def reference_spectral_projector(dec):
    """Reference for the oracle projector: the decoupling solve sent through
    the general Sylvester route, whose Schur factors of the triangular
    blocks were the blocks themselves and identity matrices."""
    n, k = dec.triangular.shape[0], dec.split
    if k == 0:
        return np.zeros((n, n), dtype=np.complex128)
    if k == n:
        return np.eye(n, dtype=np.complex128)
    t11, t12, t22 = dec.triangular[:k, :k], dec.triangular[:k, k:], dec.triangular[k:, k:]
    r = reference_triangular_route(t11, t22, -t12)
    q_inner = np.zeros((n, n), dtype=np.complex128)
    q_inner[:k, :k] = np.eye(k)
    q_inner[:k, k:] = -r
    return dec.unitary @ q_inner @ dec.unitary.conj().T


def reference_triangular_route(s, t, z):
    """``S X - X T = Z`` for upper-triangular S and T with identity Schur
    factors, as the general solver once shortcut triangular input."""
    us = np.eye(s.shape[0], dtype=np.complex128)
    ut = np.eye(t.shape[0], dtype=np.complex128)
    y, rescale, info = scipy.linalg.lapack.ztrsyl(s, t, us.conj().T @ z @ ut, isgn=-1)
    assert info == 0
    return us @ (y / rescale) @ ut.conj().T


class TestOneSchurSylvesterLayer:
    """Spectral projectors solve on their own Schur blocks; the general
    solver factors every coefficient through ``complex_schur``."""

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 40])
    def test_spectral_projector_bitwise_equal_to_general_route(self, n):
        rng = np.random.default_rng([31, n])
        a = random_complex(rng, (n, n))
        schur = numerics.complex_schur(a)
        for split in sorted({0, 1, n - 1, n}):
            select = np.zeros(n, dtype=bool)
            select[rng.choice(n, size=split, replace=False)] = True
            dec = ordered_spectral_decomposition(a, schur, select)
            assert dec.split == split
            got = spectral_projector(dec)
            assert got.tobytes() == reference_spectral_projector(dec).tobytes()

    @pytest.mark.parametrize("shape", ["diagonal", "triangular"])
    def test_solve_sylvester_on_triangular_coefficients(self, shape):
        rng = np.random.default_rng(32)

        def coefficient(size, shift):
            a = random_complex(rng, (size, size))
            a = np.diag(np.diag(a)) if shape == "diagonal" else np.triu(a)
            return a + shift * np.eye(size)

        for _ in range(10):
            m, n = rng.integers(1, 9, size=2)
            s, t = coefficient(m, 0.0), coefficient(n, 10.0)
            z = random_complex(rng, (m, n))
            # zgees leaves triangular input as it is, with a unit Schur factor
            ts, us = numerics.complex_schur(s)
            assert ts.tobytes() == s.tobytes()
            assert us.tobytes() == np.eye(m, dtype=np.complex128).tobytes()
            x = solve_sylvester(s, t, z)
            assert x.tobytes() == reference_triangular_route(s, t, z).tobytes()
            x_dense = solve_sylvester_dense(s, t, z)
            assert frobenius(x - x_dense) <= 1e-12 * max(1.0, frobenius(x_dense))

    def test_split_through_a_repeated_eigenvalue_is_refused(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        dec = ordered_spectral_decomposition(a, numerics.complex_schur(a), [True, False])
        with pytest.raises(SpectralOverlapError, match="overlap"):
            spectral_projector(dec)

    def test_oracle_and_cluster_projectors_make_no_general_solve(self, monkeypatch):
        calls = []
        general = numerics.solve_sylvester

        def counting(*args):
            calls.append(args)
            return general(*args)

        monkeypatch.setattr(numerics, "solve_sylvester", counting)
        spec = GeneratorSpec(
            signature=(4, 2),
            positive_type_eigs=((1.0 + 0j, 2), (2.0 + 0j, 2)),
            negative_type_eigs=((4.0 + 0j, 2),),
            cond_bound=10.0,
            seed=5,
        )
        N = build_normal_with_types(spec).operator
        assert riesz_projection_oracle(N, Region.disk(1.0, 0.4)).rank == 2
        lsf = local_spectral_function(N, Region.disk(1.5, 0.8))
        assert len(lsf.carrier_indices) == 2
        q = lsf.cluster_projector(lsf.carrier_indices)
        assert frobenius(q @ q - q) <= 1e-8 * (1.0 + frobenius(q) ** 2)
        assert calls == []


def test_only_numerics_and_generators_import_scipy():
    package = Path(numerics.__file__).parent
    importers = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(name == "scipy" or name.startswith("scipy.") for name in names):
                importers.add(path.stem)
    assert importers == {"numerics", "generators"}


# Runs in a fresh interpreter: ``complex_schur``, ``reorder_schur`` and the
# triangular Sylvester solve against scipy.linalg's own entry points, bit for
# bit, on random real and complex matrices of dims 1-200.  argv[1] says
# whether scipy.linalg is imported before the package or after it.
_SAME_BITS = """
import sys
import numpy as np
if sys.argv[1] == "before":
    import scipy.linalg
from krein_spectra import numerics
import scipy.linalg
import scipy.linalg.lapack as lapack

checked = 0
rng = np.random.default_rng(11)
for n in (1, 2, 3, 7, 16, 41, 100, 200):
    for real in (True, False):
        a = rng.standard_normal((n, n))
        if not real:
            a = a + 1j * rng.standard_normal((n, n))
        t, u = numerics.complex_schur(a)
        t_ref, u_ref = scipy.linalg.schur(a, output="complex")
        assert t.tobytes() == t_ref.tobytes() and u.tobytes() == u_ref.tobytes(), n
        select = rng.random(n) < 0.5
        ours = numerics.reorder_schur(t, u, select)
        ts, us, _, m, _, _, info = lapack.ztrsen(select.astype(np.int32), t, u, job="N")
        assert info == 0 and ours[2] == m, n
        assert ours[0].tobytes() == ts.tobytes() and ours[1].tobytes() == us.tobytes(), n
        if 0 < m < n:
            t11, t12, t22 = ts[:m, :m], ts[:m, m:], ts[m:, m:]
            x, scale, info = lapack.ztrsyl(t11, t22, t12, isgn=-1)
            assert info == 0, n
            ours = numerics._triangular_sylvester(t11, t22, t12)
            assert ours.tobytes() == (x / scale).tobytes(), n
        checked += 1
print(numerics.LAPACK_ROUTE, checked)
"""


@pytest.mark.parametrize("scipy_linalg", ["before", "after"])
def test_direct_lapack_routines_match_scipy_linalg_bitwise(scipy_linalg):
    env = dict(os.environ, PYTHONPATH=str(Path(numerics.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", _SAME_BITS, scipy_linalg],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["direct", "16"]


def test_fallback_route_is_scipy_linalg_lapack(monkeypatch):
    """Without the extension file, the routines come from scipy.linalg.lapack."""
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(numerics.importlib.util, "find_spec", lambda name: None)
    module, route = numerics._load_lapack()
    assert route == "fallback" and module is scipy.linalg.lapack


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_complex_schur_refuses_non_finite_entries(bad):
    a = np.eye(3, dtype=np.complex128)
    a[1, 2] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        numerics.complex_schur(a)


def test_complex_schur_of_an_empty_matrix():
    t, u = numerics.complex_schur(np.zeros((0, 0)))
    assert t.shape == u.shape == (0, 0) and t.dtype == u.dtype == np.complex128
