"""Kernels and contour projections from the cached Schur form against
dense references.

``spectrum`` reads each cluster's kernel and adjoint kernel off its k x k
block of one Schur form per clustering, reordered so that every cluster
is contiguous; ``kernel_basis`` on the shifted n x n matrices is the
independent reference.  The contour route evaluates its resolvents as
triangular inverses in the same Schur basis; one dense LU solve of
``z - N`` per quadrature node is its reference.
The bank mixes definite clusters, neutral pairs and Jordan cells at dims
2-40.  It is checked twice: with the generator's Gram matrices
(block-diagonal +-1 and swap entries, so G^{-1} = G and ||N+|| = ||N||)
and moved to non-unitary Grams ``S* G S`` with ``S^{-1} N S``, where the
G^{-1} step and the rank scales of N and N+ are told apart.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from krein_spectra import (
    GeneratorSpec,
    Region,
    SpectralType,
    build_normal_with_types,
    classified_spectrum,
    local_spectral_function,
    numerics,
    resolvent_probe,
    riesz_projection_contour,
    riesz_projection_oracle,
    sample_generator_spec,
    verify_lsf_axioms,
)
from krein_spectra import classification
from krein_spectra.classification import clustering, kernel_basis, root_subspace, spectral_point
from krein_spectra.core import (
    KreinOperator,
    KreinSpace,
    frobenius,
    max_principal_angle,
    min_gap,
    operator_norm,
)
from krein_spectra.projections import _CONVERGENCE_FLAG_TOL, range_basis

from conftest import with_tolerances

BANK_SEED = 20261018
BANK_SIZE = 60
ANGLE_TOL = 1e-8
# singular values of S span [1, SIMILARITY_COND]; the Gram S* G S then has
# condition number up to its square
SIMILARITY_COND = 10.0


def congruent(N, rng):
    """``S^{-1} N S`` on the space with Gram ``S* G S``, for a seeded S.

    S is an isometry from the new space onto the old one, so eigenvalues,
    multiplicities and types are those of N."""
    n = N.dim

    def unitary():
        return np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]

    s = unitary() @ np.diag(np.geomspace(1.0, SIMILARITY_COND, n)) @ unitary()
    gram = s.conj().T @ N.space.gram @ s
    return KreinOperator(
        np.linalg.solve(s, N.matrix @ s), KreinSpace((gram + gram.conj().T) / 2.0)
    )


def bank_entry(i, unitary_gram):
    rng = np.random.default_rng([BANK_SEED, i])
    dim = int(rng.integers(2, 41))
    box = 2.0 * math.sqrt(max(dim, 12) / 12.0)
    gen = build_normal_with_types(sample_generator_spec(rng, dim, cond_bound=1e3, box=box))
    if unitary_gram:
        return gen, gen.operator
    return gen, congruent(gen.operator, np.random.default_rng([BANK_SEED + 1, i]))


def bank(unitary_gram):
    for i in range(BANK_SIZE):
        yield bank_entry(i, unitary_gram)


def inventory(points):
    return sorted(
        (round(p.value.real, 6), round(p.value.imag, 6), p.alg_mult, p.geo_mult,
         p.type_tag.value)
        for p in points
    )


def truth_inventory(gen):
    return sorted(
        (round(t.value.real, 6), round(t.value.imag, 6), t.alg_mult, t.geo_mult,
         t.expected_type.value)
        for t in gen.ground_truth
    )


@pytest.fixture(scope="module", params=[True, False], ids=["unitary-gram", "congruent-gram"])
def classified_bank(request):
    return [(gen, N, classified_spectrum(N)) for gen, N in bank(request.param)]


def test_bank_covers_neutral_structure(classified_bank):
    specs = [gen.spec for gen, _, _ in classified_bank]
    assert any(spec.neutral_jordan for spec in specs)
    assert any(spec.neutral_pairs for spec in specs)
    assert max(N.dim for _, N, _ in classified_bank) >= 30


def test_congruent_grams_are_not_unitary():
    grams = [N.space.gram for _, N in bank(unitary_gram=False)]
    assert min(np.linalg.cond(g) for g in grams if g.shape[0] >= 2) > 2.0
    assert max(np.linalg.cond(g) for g in grams) > 20.0


def test_inventory_matches_generator(classified_bank):
    for gen, _, points in classified_bank:
        assert inventory(points) == truth_inventory(gen)


def assert_kernels_match_full_svd(N, points):
    """Each point's kernels against the :func:`kernel_basis` null spaces of
    the full shifted matrices ``N - lam`` and ``N+ - conj(lam)``: equal
    dimension, and largest principal angle at most ``ANGLE_TOL``."""
    eye = np.eye(N.dim)
    adj_scale = max(1.0, operator_norm(N.adjoint))
    rank_tol = N.tolerances.rank_tol
    for pt in points:
        oracle = kernel_basis(N.matrix - pt.value * eye, rank_tol, max(1.0, N.norm))
        adj_oracle = kernel_basis(N.adjoint - np.conj(pt.value) * eye, rank_tol, adj_scale)
        for ker in (oracle, adj_oracle):
            assert frobenius(ker.columns.conj().T @ ker.columns - np.eye(ker.k)) <= 1e-12
        assert pt.kernel.k == oracle.k == pt.geo_mult
        assert pt.adjoint_kernel.k == adj_oracle.k == pt.geo_mult
        assert max_principal_angle(oracle, pt.kernel) <= ANGLE_TOL
        assert max_principal_angle(pt.kernel, oracle) <= ANGLE_TOL
        assert max_principal_angle(adj_oracle, pt.adjoint_kernel) <= ANGLE_TOL


def assert_contiguous_form(N):
    """The form the kernels were read from: a unitary similarity of N with
    the Schur diagonal permuted so that each cluster fills one block."""
    clusters = clustering(N)
    form = clusters.contiguous
    t, u = form.triangular, form.unitary
    diagonal = np.diag(t)
    assert np.array_equal(np.sort_complex(diagonal), np.sort_complex(N.eigenvalues))
    assert not np.tril(t, -1).any()
    blocks = sorted(form.blocks)  # they tile the diagonal
    assert [a for a, _ in blocks] == [0] + [b for _, b in blocks[:-1]]
    assert blocks[-1][1] == N.dim
    for (a, b), positions in zip(form.blocks, clusters.positions):
        members = N.eigenvalues[list(positions)]
        assert np.array_equal(np.sort_complex(diagonal[a:b]), np.sort_complex(members))
    assert frobenius(u.conj().T @ u - np.eye(N.dim)) <= 1e-12 * max(1.0, N.dim)
    backward = frobenius(N.matrix - u @ t @ u.conj().T) / max(frobenius(N.matrix), 1e-300)
    assert backward <= 1e-10


def test_kernels_match_full_svd_oracle(classified_bank):
    for _, N, points in classified_bank:
        assert_kernels_match_full_svd(N, points)


def test_contiguous_form_invariants(classified_bank):
    for _, N, _ in classified_bank:  # the classification built the form
        assert_contiguous_form(N)


def test_kernel_residuals_small_against_operator_norm(classified_bank):
    # every kept direction has singular value at most rank_tol times the
    # operator scale (a shifted block's norm is at most twice it)
    for _, N, points in classified_bank:
        eye = np.eye(N.dim)
        rank_tol = N.tolerances.rank_tol
        for pt in points:
            residual = np.linalg.norm((N.matrix - pt.value * eye) @ pt.kernel.columns, 2)
            assert residual <= 2.0 * rank_tol * max(1.0, N.norm)
            adj_residual = np.linalg.norm(
                (N.adjoint - np.conj(pt.value) * eye) @ pt.adjoint_kernel.columns, 2
            )
            assert adj_residual <= 2.0 * rank_tol * max(1.0, operator_norm(N.adjoint))


@pytest.fixture
def factorized(monkeypatch):
    """Shapes of every Schur factorization (zgees call that is not a
    workspace query) the package makes."""
    shapes = []
    zgees = numerics._zgees

    def counting_zgees(select, a, **kwargs):
        if kwargs.get("lwork") != -1:
            shapes.append(a.shape)
        return zgees(select, a, **kwargs)

    monkeypatch.setattr(numerics, "_zgees", counting_zgees)
    return shapes


def test_one_schur_decomposition_per_operator(factorized):
    spec = GeneratorSpec(
        signature=(5, 3),
        positive_type_eigs=((1.0 + 0.5j, 2), (-1.0 + 0j, 1)),
        negative_type_eigs=((2.0 - 1.0j, 1),),
        neutral_jordan=(0.5 - 1.5j,),
        neutral_pairs=((-2.0 + 1.0j, 2.5 + 1.0j),),
        cond_bound=1e2,
        seed=5,
    )
    N = build_normal_with_types(spec).operator
    points = classified_spectrum(N)
    carrier = Region.disk(1.0 + 0.5j, 0.3)
    oracle = riesz_projection_oracle(N, carrier)
    assert oracle.rank == 2
    lsf = local_spectral_function(N, carrier)
    assert lsf.evaluate(carrier).rank == 2
    report = verify_lsf_axioms(lsf, [carrier, Region.empty()], [np.eye(N.dim), N.matrix])
    assert not report.failed
    positive = next(p for p in points if p.type_tag is SpectralType.TWO_SIDED_POSITIVE)
    assert root_subspace(N, positive).k == positive.alg_mult
    assert factorized == [(N.dim, N.dim)]


def point_bits(pt):
    """Every field of a classified point, floats and arrays as raw bytes."""

    def basis_bits(b):
        return b.columns.shape, b.columns.tobytes()

    return (
        np.complex128(pt.value).tobytes(), pt.alg_mult, pt.geo_mult,
        basis_bits(pt.kernel), basis_bits(pt.adjoint_kernel),
        pt.type_tag, np.float64(pt.gram_margin).tobytes(), pt.warnings,
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_points_requested_in_any_order_match_the_full_spectrum(data):
    # clusters classified one at a time, in any order, then the rest filled
    # in by classified_spectrum: the same bits as one pass on a fresh
    # operator, each cluster's kernels extracted once from one contiguous form
    index = data.draw(st.integers(0, BANK_SIZE - 1), label="bank index")
    unitary_gram = data.draw(st.booleans(), label="unitary gram")
    _, N = bank_entry(index, unitary_gram)
    count = len(clustering(N).values)
    order = data.draw(st.permutations(range(count)), label="order")
    requested = order[: data.draw(st.integers(0, count), label="requested")]
    with mock.patch.object(
        classification, "_cluster_kernels", wraps=classification._cluster_kernels
    ) as kernels, mock.patch.object(
        classification, "_make_contiguous", wraps=classification._make_contiguous
    ) as passes:
        singles = [spectral_point(N, i) for i in requested]
        lazy = classified_spectrum(N)
    extracted = [call.args[2] for call in kernels.call_args_list]
    assert extracted[: len(requested)] == list(requested)
    assert sorted(extracted) == list(range(count))
    assert passes.call_count == 1
    assert all(lazy[i] is pt for i, pt in zip(requested, singles))
    fresh = classified_spectrum(KreinOperator(N.matrix, N.space))
    assert [point_bits(pt) for pt in lazy] == [point_bits(pt) for pt in fresh]


def test_large_cluster_kernel_extraction_regression():
    # dim 130, six definite clusters of multiplicity 17-25 at cond bound
    # 1e3: the full n x n SVD of N - lam returned kernel columns that were
    # not orthonormal (defect ~1e-7), so classification raised ValueError;
    # so did numpy's SVD (zgesdd) in kernel_basis, or it did not converge,
    # depending on the BLAS thread count
    spec = GeneratorSpec(
        signature=(64, 66),
        positive_type_eigs=(
            (1.7946 - 0.7527j, 22),
            (-0.3067 + 1.3108j, 25),
            (-0.3632 + 0.1984j, 17),
        ),
        negative_type_eigs=(
            (-1.8898 + 1.0141j, 23),
            (0.1526 - 0.6811j, 25),
            (1.1537 - 0.7872j, 18),
        ),
        cond_bound=1e3,
        seed=4182779752608499223,
    )
    gen = build_normal_with_types(spec)
    points = classified_spectrum(gen.operator)
    assert inventory(points) == truth_inventory(gen)
    for pt in points:
        assert max_principal_angle(pt.kernel, pt.adjoint_kernel) <= ANGLE_TOL
    assert_kernels_match_full_svd(gen.operator, points)
    assert_contiguous_form(gen.operator)


def dense_contour_reference(N, region, nodes):
    """Contour projection and convergence flag with one dense LU solve of
    ``z - N`` per node, at ``nodes`` and at ``2 * nodes`` nodes."""
    eye = np.eye(N.dim)

    def integrate(count):
        total = np.zeros((N.dim, N.dim), dtype=np.complex128)
        for piece in region.pieces:
            for z, w in zip(*piece.quadrature(count)):
                total += w * np.linalg.solve(z * eye - N.matrix, eye)
        return total / (2.0j * np.pi)

    q = integrate(nodes)
    return q, frobenius(integrate(2 * nodes) - q) > _CONVERGENCE_FLAG_TOL


def contour_regions(points):
    """A disk around a defective point (Jordan cell) if there is one, else
    around the first point, and a square around another point."""
    gap = min_gap([p.value for p in points])
    if not np.isfinite(gap):
        gap = 1.0
    disk_at = next((p for p in points if p.alg_mult > p.geo_mult), points[0])
    square_at = points[-1].value
    h = 0.3 * gap
    return [
        Region.disk(disk_at.value, 0.45 * gap),
        Region.rectangle(square_at.real - h, square_at.imag - h,
                         square_at.real + h, square_at.imag + h),
    ]


def test_contour_matches_dense_lu_reference(classified_bank):
    regions_seen = {"disk": 0, "rect": 0, "jordan": 0}
    for _, N, points in classified_bank:
        for region in contour_regions(points):
            result = riesz_projection_contour(N, region)
            q, flagged = dense_contour_reference(N, region, N.tolerances.contour_nodes)
            assert frobenius(result.matrix - q) <= 1e-10 * max(1.0, frobenius(q))
            assert any(w.startswith("quadrature-not-converged") for w in result.warnings) == flagged
            kind = region.describe()[0]["kind"]
            regions_seen[kind] += 1
            inside = [p for p in points if region.contains(p.value)]
            regions_seen["jordan"] += any(p.alg_mult > p.geo_mult for p in inside)
    assert regions_seen["disk"] == regions_seen["rect"] == BANK_SIZE
    assert regions_seen["jordan"] > 0


def _operator_with_jordan_cell():
    spec = GeneratorSpec(
        signature=(4, 2),
        positive_type_eigs=((1.0 + 0.5j, 2), (-1.0 + 0j, 1)),
        negative_type_eigs=((2.0 - 1.0j, 1),),
        neutral_jordan=(0.5 - 1.5j,),
        cond_bound=1e2,
        seed=9,
    )
    return build_normal_with_types(spec).operator


@pytest.fixture
def inverted(monkeypatch):
    """Node counts of every batch of shifted triangles inverted."""
    counts = []
    shifted_inverses = numerics._shifted_inverses

    def counting_inverses(t, z, *buffers):
        counts.append(z.size)
        return shifted_inverses(t, z, *buffers)

    monkeypatch.setattr(numerics, "_shifted_inverses", counting_inverses)
    return counts


def test_contour_inverts_each_disk_node_once(monkeypatch, factorized):
    N = _operator_with_jordan_cell()
    solves, shifts = [], []
    solve = np.linalg.solve
    shifted_inverses = numerics._shifted_inverses

    def recording_solve(a, b):
        solves.append(np.array(a))
        return solve(a, b)

    def recording_inverses(t, z, *buffers):
        shifts.extend(z)
        return shifted_inverses(t, z, *buffers)

    def refuse(*args, **kwargs):
        raise AssertionError("dense solve or inverse called")

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    monkeypatch.setattr(numerics, "_shifted_inverses", recording_inverses)
    for module, name in ((np.linalg, "inv"), (scipy.linalg, "solve"),
                         (scipy.linalg, "inv"), (scipy.linalg, "lu_factor")):
        monkeypatch.setattr(module, name, refuse)
    # the nearest other eigenvalue is 3.6 radii from the center: the nested
    # rule converges at 32 nodes and stops at 64, whatever the cap
    operators = [with_tolerances(N, contour_nodes=nodes) for nodes in (32, 128)]
    for at_nodes in operators:
        shifts.clear()
        result = riesz_projection_contour(at_nodes, Region.disk(1.0 + 0.5j, 0.5))
        assert range_basis(result.matrix).k == 2 and not result.warnings
        # every node inverted at most once
        assert len(set(shifts)) == len(shifts) == 64
    # each operator's own cached Schur form, nothing more
    assert factorized == [(N.dim, N.dim)] * len(operators)
    # only the Krein adjoint's solve against the Gram, never a shifted N
    assert all(a.shape == (N.dim, N.dim) for a in solves)
    assert all(np.array_equal(a, N.space.gram) for a in solves)


@pytest.mark.parametrize(
    "contour_nodes, ladder",
    [
        (100, [25, 50, 100, 200]),
        (17, [17, 34]),
        (128, [16, 32, 64, 128, 256]),
        (16, [16, 32]),
    ],
)
def test_disk_ladder_ends_at_twice_contour_nodes(contour_nodes, ladder):
    assert numerics._disk_ladder(contour_nodes) == ladder


def test_nested_rule_agrees_with_fixed_rule(classified_bank):
    # the ladder's sum against one fixed rule at 2 * contour_nodes nodes
    for _, N, points in classified_bank:
        region = contour_regions(points)[0]
        got = riesz_projection_contour(N, region).matrix
        pts, wts = region.pieces[0].quadrature(2 * N.tolerances.contour_nodes)
        want = numerics.resolvent_at(N.schur, pts, wts / (2.0j * np.pi))
        assert frobenius(got - want) <= 1e-12 * max(1.0, frobenius(want))


def test_resolvent_probe_reads_eigenvalues_off_cached_schur(monkeypatch, inverted):
    N = _operator_with_jordan_cell()
    points = classified_spectrum(N)
    reorders = []
    reorder_schur = numerics.reorder_schur

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigvals called")

    def counting_reorder(t, u, select):
        reorders.append(frozenset(np.flatnonzero(select).tolist()))
        return reorder_schur(t, u, select)

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    monkeypatch.setattr(numerics, "reorder_schur", counting_reorder)
    index, jordan = next((i, p) for i, p in enumerate(points) if p.alg_mult > p.geo_mult)
    probe = resolvent_probe(N, jordan.value, [0.4, 0.2])
    assert probe.pole_order == 2
    # the Laurent coefficients come from the Schur form reordered once, on
    # the positions the circle encloses, with no shifted triangle inverted
    # (at dim 6 the samples' sigma_min is a dense SVD)
    assert reorders == [frozenset(clustering(N).positions[index])]
    assert inverted == []


def test_eigenvalue_near_circle_not_converged_at_few_nodes(inverted):
    N = KreinOperator(np.diag([1.0, 2.0]), KreinSpace.indefinite(1, 1))
    coarse = riesz_projection_contour(with_tolerances(N, contour_nodes=16), Region.disk(1.0, 0.9))
    assert any(w.startswith("quadrature-not-converged") for w in coarse.warnings)
    # the eigenvalue 2 lies 0.1 outside the circle: the ladder 16 -> 32
    # never meets its tolerance, so it inverts the nodes of the fixed pair
    assert sum(inverted) == 32
    fine = riesz_projection_contour(N, Region.disk(1.0, 0.5))
    assert not fine.warnings
    np.testing.assert_allclose(fine.matrix, np.diag([1.0, 0.0]), atol=1e-12)


def probe_radii(points, value):
    """0.4, 0.2 and 0.1 times the distance from ``value`` to the nearest
    other point, the radii the desk benchmark probes."""
    others = [abs(p.value - value) for p in points if p.value != value]
    return [f * (min(others) if others else 1.0) for f in (0.4, 0.2, 0.1)]


def circle_samples(value, radii):
    """The resolvent probe's 16 samples on each circle."""
    theta = 2.0 * np.pi * (np.arange(16) + 0.5) / 16
    return (value + np.multiply.outer(radii, np.exp(1j * theta))).reshape(-1)


def dense_sigma_min(N, z):
    return np.linalg.svd(N.matrix - z[:, None, None] * np.eye(N.dim), compute_uv=False)[:, -1]


def sigma_allowance(N, z, sigma):
    """1e-10 relative, plus the dense SVD's own error: it is accurate only
    to about eps * ||N - z|| absolute, which on the congruent bank reaches
    3e-8 relative (measured against 50-digit arithmetic)."""
    return 1e-10 * sigma + 4.0 * np.finfo(float).eps * (N.norm + np.abs(z))


def test_golub_kahan_sigma_min_matches_dense_svd(classified_bank):
    # the iteration itself at every bank dimension, and the routed helper,
    # around a defective point if there is one
    for _, N, points in classified_bank:
        value = next((p for p in points if p.alg_mult > p.geo_mult), points[0]).value
        z = circle_samples(value, probe_radii(points, value))
        dense = dense_sigma_min(N, z)
        allowed = sigma_allowance(N, z, dense)
        iterated = numerics._golub_kahan_sigma_min(N.schur[0], z)
        assert not np.isnan(iterated).any()
        assert np.all(np.abs(iterated - dense) <= allowed)
        routed = numerics.smallest_singular_values(N.matrix, N.schur[0], z)
        if N.dim <= numerics._SOLVE_BLOCK:
            np.testing.assert_array_equal(routed, dense)
        else:
            assert np.all(np.abs(routed - dense) <= allowed)


def test_small_dim_probe_equals_per_sample_loop(classified_bank):
    # at or below _SOLVE_BLOCK the probe's table is bitwise that of one
    # distance and one dense SVD per sample
    checked = 0
    for _, N, points in classified_bank:
        if N.dim > numerics._SOLVE_BLOCK:
            continue
        value = next((p for p in points if p.alg_mult > p.geo_mult), points[0]).value
        radii = probe_radii(points, value)
        reps = np.array([p.value for p in points])
        table = []
        for r, z_row in zip(radii, circle_samples(value, radii).reshape(len(radii), -1)):
            c_max = 0.0
            for z in z_row:
                dist = float(np.min(np.abs(reps - z)))
                if dist > N.cluster_radius:
                    smin = np.linalg.svd(N.matrix - z * np.eye(N.dim), compute_uv=False)[-1]
                    c_max = max(c_max, dist / smin)
            table.append((r, c_max))
        assert resolvent_probe(N, value, radii).radius_table == tuple(table)
        checked += 1
    assert checked > BANK_SIZE // 2


def desk_scale_operators():
    """A dim-80 operator with many simple or double clusters and a dim-100
    operator with a few clusters of multiplicity 16-25."""
    rng = np.random.default_rng([BANK_SEED, 80])
    many = sample_generator_spec(rng, 80, cond_bound=1e3, box=2.0 * math.sqrt(80 / 12))
    few = GeneratorSpec(
        signature=(47, 53),
        positive_type_eigs=((1.25 - 0.5j, 25), (-1.0 + 1.0j, 22)),
        negative_type_eigs=((0.25 + 1.5j, 16), (-0.75 - 1.25j, 19), (1.5 + 1.0j, 18)),
        cond_bound=1e2,
        seed=11,
    )
    return [build_normal_with_types(spec).operator for spec in (many, few)]


@pytest.fixture(scope="module")
def desk_operators():
    return desk_scale_operators()


@pytest.fixture(scope="module", params=[0, 1], ids=["dim80-many", "dim100-few"])
def desk_operator(request, desk_operators):
    return desk_operators[request.param]


def dense_route(monkeypatch, N):
    """Send every sigma_min of N through the stacked dense SVD."""
    monkeypatch.setattr(numerics, "_SOLVE_BLOCK", N.dim)


def test_sigma_min_matches_dense_svd_at_desk_scale(desk_operator, monkeypatch):
    N = desk_operator
    assert N.dim > numerics._SOLVE_BLOCK
    points = classified_spectrum(N)
    for point in points[:4]:
        radii = probe_radii(points, point.value)
        z = circle_samples(point.value, radii)
        dense = dense_sigma_min(N, z)
        routed = numerics.smallest_singular_values(N.matrix, N.schur[0], z)
        assert np.all(np.abs(routed - dense) <= sigma_allowance(N, z, dense))
        probe = resolvent_probe(N, point.value, radii)
        with monkeypatch.context() as m:
            dense_route(m, N)
            reference = resolvent_probe(N, point.value, radii)
        assert probe.pole_order == reference.pole_order
        relative = (sigma_allowance(N, z, dense) / dense).reshape(len(radii), -1).max(axis=1)
        for (_, c), (_, c_ref), rel in zip(probe.radius_table, reference.radius_table, relative):
            assert c == pytest.approx(c_ref, rel=2.0 * rel)


@pytest.mark.parametrize("route", ["golub-kahan", "dense"])
def test_probe_beyond_one_batch_matches_per_sample_svd(desk_operator, monkeypatch, route):
    # 3 radii x 64 samples: smallest_singular_values takes them in two
    # batches; every radius row must match one dense SVD per sample
    N, samples = desk_operator, 64
    points = classified_spectrum(N)
    radii = probe_radii(points, points[0].value)
    assert len(radii) * samples > numerics._NODE_BATCH
    if route == "dense":
        dense_route(monkeypatch, N)
    probe = resolvent_probe(N, points[0].value, radii, samples_per_radius=samples)
    reps = np.array(clustering(N).values)
    center = reps[np.argmin(np.abs(reps - points[0].value))]
    theta = 2.0 * np.pi * (np.arange(samples) + 0.5) / samples
    for r, (r_probe, c) in zip(radii, probe.radius_table):
        c_ref = 0.0
        for z in center + r * np.exp(1j * theta):
            dist = float(np.min(np.abs(reps - z)))
            if dist > N.cluster_radius:
                smin = np.linalg.svd(N.matrix - z * np.eye(N.dim), compute_uv=False)[-1]
                c_ref = max(c_ref, dist / smin)
        assert r_probe == r and c_ref > 0.0
        assert c == pytest.approx(c_ref, rel=1e-10)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("radius", [1e200, 1e300])
def test_huge_radius_matches_dense_route(desk_operator, monkeypatch, radius):
    # the Golub-Kahan norms underflow out here; those samples must fall
    # back to the dense SVD instead of dividing by zero
    N = desk_operator
    value = classified_spectrum(N)[0].value
    probe = resolvent_probe(N, value, [radius])
    dense_route(monkeypatch, N)
    reference = resolvent_probe(N, value, [radius])
    assert probe.c_estimate == pytest.approx(reference.c_estimate, rel=1e-10)


def test_step_budget_of_one_falls_back_to_dense_svd(desk_operator, monkeypatch):
    N = desk_operator
    points = classified_spectrum(N)
    z = circle_samples(points[0].value, probe_radii(points, points[0].value))
    monkeypatch.setattr(numerics, "_GK_STEPS", 1)
    assert np.isnan(numerics._golub_kahan_sigma_min(N.schur[0], z)).all()
    np.testing.assert_array_equal(
        numerics.smallest_singular_values(N.matrix, N.schur[0], z), dense_sigma_min(N, z)
    )


def test_work_area_grows_and_compacts_against_dense_svd(desk_operators, monkeypatch):
    # around this dim-100 point the samples certify after 15-19 steps: the
    # work arrays grow past their first steps, and samples leave them at
    # different steps, before and after the growth
    N = desk_operators[1]
    points = classified_spectrum(N)
    z = circle_samples(points[2].value, probe_radii(points, points[2].value))
    grown, compacted = set(), set()
    original = numerics._leading_steps

    def spy(work, keep, steps, shape):
        if shape[1] > work.shape[1]:
            grown.add(steps)
        if not keep.all():
            compacted.add(steps)
        return original(work, keep, steps, shape)

    monkeypatch.setattr(numerics, "_leading_steps", spy)
    sigma = numerics._golub_kahan_sigma_min(N.schur[0], z)
    assert grown and len(compacted) >= 2 and max(compacted) > min(grown)
    dense = dense_sigma_min(N, z)
    assert not np.isnan(sigma).any()
    assert np.all(np.abs(sigma - dense) <= sigma_allowance(N, z, dense))


def test_probe_work_area_is_sized_by_the_steps_taken(desk_operators):
    # 48 samples at dim 100; bases sized for the whole step budget, copied
    # again whenever a sample certified, peaked at about 26 MB here
    N = desk_operators[1]
    points = classified_spectrum(N)
    radii = probe_radii(points, points[0].value)
    resolvent_probe(N, points[0].value, radii)  # warm up the operator's caches
    tracemalloc.start()
    try:
        resolvent_probe(N, points[0].value, radii)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6


def test_certified_probe_runs_no_dense_svd(desk_operator, monkeypatch):
    N = desk_operator
    points = classified_spectrum(N)
    svd = np.linalg.svd

    def refuse_full_size(a, *args, **kwargs):
        if np.shape(a)[-2:] == (N.dim, N.dim):
            raise AssertionError("dense n x n SVD called")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", refuse_full_size)
    probe = resolvent_probe(N, points[0].value, probe_radii(points, points[0].value))
    assert probe.c_estimate >= 1.0
