"""Riesz projections, projection defects and the spectral-set theorem.

The 2x2 reference: diag(1,2) against diag(1,-1) with a disk around 1
gives the projection diag(1,0), selfadjoint with range margin one; the
swap-Gram projection onto span(e1) is the canonical non-selfadjoint
witness with neutral defect range.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krein_spectra import (
    CheckFailure,
    CheckStatus,
    ContourThroughSpectrumError,
    KreinOperator,
    KreinSpace,
    PreconditionError,
    Region,
    SubspaceBasis,
    ToleranceConfig,
    build_normal_with_types,
    local_spectral_function,
    max_principal_angle,
    projection_defect,
    riesz_projection_contour,
    riesz_projection_oracle,
    sample_generator_spec,
    verify_spectral_set_theorem,
)
from krein_spectra import projections
from krein_spectra.projections import range_basis
from krein_spectra.classification import clustering
from krein_spectra.core import frobenius
from krein_spectra._errors import AmbiguousRegionError

from conftest import boosted_matrix, with_tolerances

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
NODES_64 = ToleranceConfig(contour_nodes=64)


def two_point_operator(tolerances=ToleranceConfig()):
    return KreinOperator(np.diag([1.0, 2.0]), KreinSpace.indefinite(1, 1), tolerances)


def boosted_operator():
    return KreinOperator(boosted_matrix(), KreinSpace.indefinite(1, 1))


# The eigenvalue 100 lies 1.1e-3 inside this disk: beyond the clustering
# radius (2.3e-4) but within cluster_tol * ||N|| (2.0e-3) of the boundary.
NEAR_BOUNDARY = Region.disk(99.0011249, 1.0)


class TestRieszProjectionContour:
    def test_full_spectrum_gives_identity(self):
        n = two_point_operator(NODES_64)
        result = riesz_projection_contour(n, Region.disk(1.5, 3.0))
        assert frobenius(result.matrix - np.eye(2)) <= 1e-8

    def test_empty_region_gives_zero(self):
        n = two_point_operator(NODES_64)
        result = riesz_projection_contour(n, Region.disk(10.0 + 4.0j, 1.0))
        assert frobenius(result.matrix) <= 1e-8

    def test_single_point_disk(self):
        n = two_point_operator(NODES_64)
        result = riesz_projection_contour(n, Region.disk(1.0, 0.4))
        np.testing.assert_allclose(result.matrix, np.diag([1.0, 0.0]), atol=1e-8)

    def test_boundary_through_spectrum_refused(self):
        n = two_point_operator(NODES_64)
        with pytest.raises(ContourThroughSpectrumError):
            riesz_projection_contour(n, Region.disk(0.0, 1.0))

    def test_overlapping_primitives_on_spectrum_refused(self):
        n = two_point_operator(NODES_64)
        region = Region.disk(1.0, 0.4).union(Region.disk(1.1, 0.4))
        with pytest.raises(AmbiguousRegionError):
            riesz_projection_contour(n, region)

    def test_region_without_pieces_gives_zero(self):
        result = riesz_projection_contour(two_point_operator(NODES_64), Region.empty())
        assert range_basis(result.matrix).k == 0 and not result.warnings
        assert frobenius(result.matrix) == 0.0

    def test_non_idempotent_sum_is_flagged_where_the_oracle_refuses_it(self, monkeypatch):
        n = two_point_operator(NODES_64)
        sums = projections.boundary_resolvent_sums
        monkeypatch.setattr(projections, "boundary_resolvent_sums", lambda *a: 2 * sums(*a))
        result = riesz_projection_contour(n, Region.disk(1.0, 0.4))
        q = result.matrix
        assert result.idem_residual == frobenius(q @ q - q) > 1.0
        assert [w.split(":")[0] for w in result.warnings] == ["idempotency-above-acceptance"]
        with pytest.raises(CheckFailure, match="idempotency residual"):
            projections._make_result(q, n)

    def test_rectangle_region(self):
        n = two_point_operator()
        result = riesz_projection_contour(n, Region.rectangle(0.5, -0.5, 1.5, 0.5))
        np.testing.assert_allclose(result.matrix, np.diag([1.0, 0.0]), atol=1e-8)


class TestBoundaryGap:
    """Every path refuses a region at the same boundary gap."""

    @pytest.mark.parametrize(
        "build",
        [riesz_projection_contour, riesz_projection_oracle, local_spectral_function],
        ids=["contour", "oracle", "lsf-carrier"],
    )
    def test_refused_within_the_wider_gap(self, build):
        with pytest.raises(ContourThroughSpectrumError, match="within 2.017e-03"):
            build(boosted_operator(), NEAR_BOUNDARY)

    def test_spectral_set_theorem_inapplicable(self):
        report = verify_spectral_set_theorem(boosted_operator(), NEAR_BOUNDARY)
        assert [(e.name, e.status) for e in report.entries] == [
            ("spectral-set-separation", CheckStatus.INAPPLICABLE)
        ]

    def test_lsf_subset_refused(self):
        lsf = local_spectral_function(boosted_operator(), Region.disk(100.0, 1.0))
        with pytest.raises(ContourThroughSpectrumError):
            lsf.evaluate(NEAR_BOUNDARY)


class TestRieszProjectionOracle:
    def test_diagonalizable_sum_of_eigenprojections(self):
        n = KreinOperator(np.diag([1.0, 2.0, 5.0]), KreinSpace.euclidean(3))
        result = riesz_projection_oracle(n, Region.disk(1.5, 1.0))
        np.testing.assert_allclose(result.matrix, np.diag([1.0, 1.0, 0.0]), atol=1e-10)

    def test_whole_plane_rectangle(self):
        n = two_point_operator()
        result = riesz_projection_oracle(n, Region.rectangle(-100, -100, 100, 100))
        np.testing.assert_allclose(result.matrix, np.eye(2), atol=1e-10)

    def test_empty_selection_factors_nothing(self, monkeypatch):
        # a region that selects no eigenvalue gets the zero projection with
        # no ordered decomposition, so no Schur factor check runs for it
        def refuse(*args):
            raise AssertionError("an empty selection needs no factorization")

        monkeypatch.setattr(
            "krein_spectra.classification.ordered_spectral_decomposition", refuse
        )
        n = two_point_operator()
        result = riesz_projection_oracle(n, Region.disk(10.0, 1.0))
        assert result.rank == 0 and frobenius(result.matrix) == 0.0

    def test_eigenvalue_on_circle_refused(self):
        # 2 lies on the circle
        n = KreinOperator(np.diag([1.0, 2.0]), KreinSpace.euclidean(2))
        with pytest.raises(ContourThroughSpectrumError):
            riesz_projection_oracle(n, Region.disk(1.0, 1.0))

    def test_range_basis_computed_once(self, monkeypatch):
        calls = []
        original = projections.range_basis
        monkeypatch.setattr(
            projections, "range_basis", lambda q: calls.append(1) or original(q)
        )
        n = KreinOperator(np.diag([1.0, 2.0, 5.0]), KreinSpace.euclidean(3))
        result = riesz_projection_oracle(n, Region.disk(1.5, 1.0))
        assert result.rank == 2 and result.rank == result.basis.k
        assert max_principal_angle(result.basis, SubspaceBasis(np.eye(3)[:, :2])) <= 1e-10
        verify_spectral_set_theorem(n, Region.disk(1.5, 1.0))
        # one projection built: the theorem reads the oracle's result for
        # the same clusters
        assert len(calls) == 1

    def test_agrees_with_contour_on_generated_instances(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            gen = build_normal_with_types(sample_generator_spec(rng, 6))
            points = sorted(
                {t.value for t in gen.ground_truth}, key=lambda z: (z.real, z.imag)
            )
            gap = min(
                (abs(a - b) for i, a in enumerate(points) for b in points[i + 1 :]),
                default=2.0,
            )
            region = Region.disk(points[0], 0.45 * gap)
            at_64 = with_tolerances(gen.operator, contour_nodes=64)
            contour = riesz_projection_contour(at_64, region)
            oracle = riesz_projection_oracle(gen.operator, region)
            assert frobenius(contour.matrix - oracle.matrix) <= 1e-6

    def test_contour_error_decays_quadratically_under_node_doubling(self):
        n = KreinOperator(np.diag([1.0, 2.0]), KreinSpace.euclidean(2))
        region = Region.disk(1.0, 0.55)
        exact = np.diag([1.0, 0.0])
        errors = {}
        for nodes in (16, 32, 64):
            q = riesz_projection_contour(with_tolerances(n, contour_nodes=nodes), region).matrix
            errors[nodes] = frobenius(q - exact)
        if errors[16] > 1e-12:
            assert errors[32] <= max(10 * errors[16] ** 2, 1e-12)
        if errors[32] > 1e-12:
            assert errors[64] <= max(10 * errors[32] ** 2, 1e-12)


class TestProjectionDefect:
    def test_selfadjoint_projection_has_zero_defect(self):
        space = KreinSpace.indefinite(1, 1)
        p, neutral = projection_defect(np.diag([1.0, 0.0]), space)
        assert frobenius(p) <= 1e-12
        assert neutral

    def test_neutral_range_witness(self):
        space = KreinSpace(SWAP)
        q = np.array([[1.0, 0.0], [0.0, 0.0]])
        p, neutral = projection_defect(q, space)
        np.testing.assert_allclose(p, q, atol=1e-14)
        assert neutral

    def test_orthogonal_projection_in_hilbert_space(self):
        rng = np.random.default_rng(31)
        basis, _ = np.linalg.qr(rng.standard_normal((4, 2)))
        q = basis @ basis.conj().T
        p, neutral = projection_defect(q, KreinSpace.euclidean(4))
        assert frobenius(p) <= 1e-12
        assert neutral

    def test_non_idempotent_rejected(self):
        with pytest.raises(PreconditionError, match="idempotent"):
            projection_defect(np.array([[1.0, 0.0], [0.0, 0.5]]), KreinSpace.euclidean(2))


class TestSpectralSetTheorem:
    def test_reference_pair(self):
        n = two_point_operator()
        report = verify_spectral_set_theorem(n, Region.disk(1.0, 0.4))
        assert not report.failed
        by_name = {e.name: e for e in report.entries}
        assert by_name["range-uniformly-positive"].residual == pytest.approx(1.0)
        assert by_name["enclosed-points-two-sided"].status is CheckStatus.PASS

    def test_hilbert_case_trivial(self):
        n = KreinOperator(np.diag([1.0, 2.0, 3.0]), KreinSpace.euclidean(3))
        report = verify_spectral_set_theorem(n, Region.disk(1.5, 1.0))
        assert not report.failed

    def test_negative_cluster_marked_inapplicable(self):
        n = two_point_operator()
        report = verify_spectral_set_theorem(n, Region.disk(2.0, 0.4))
        assert any(e.status is CheckStatus.INAPPLICABLE for e in report.entries)
        assert not report.failed

    def test_boundary_through_spectrum_inapplicable(self):
        n = two_point_operator()
        report = verify_spectral_set_theorem(n, Region.disk(0.0, 1.0))
        statuses = {e.status for e in report.entries}
        assert statuses == {CheckStatus.INAPPLICABLE}

    def test_generated_positive_clusters(self):
        rng = np.random.default_rng(33)
        found = 0
        for _ in range(20):
            gen = build_normal_with_types(sample_generator_spec(rng, 6))
            tsp = [
                t for t in gen.ground_truth
                if t.expected_type.value == "two-sided-positive"
            ]
            if not tsp:
                continue
            found += 1
            values = [t.value for t in gen.ground_truth]
            gap = min(
                (abs(a - b) for i, a in enumerate(values) for b in values[i + 1 :]),
                default=2.0,
            )
            report = verify_spectral_set_theorem(
                gen.operator, Region.disk(tsp[0].value, 0.45 * gap)
            )
            assert not report.failed
            assert all(e.status is CheckStatus.PASS for e in report.entries)
            entry = next(
                e for e in report.entries if e.name == "restriction-normal-in-hilbert-space"
            )
            assert entry.tolerance == gen.operator.tolerances.normality_tol
        assert found >= 5

    @pytest.mark.parametrize(
        "normality_tol, status", [(1e-8, CheckStatus.FAIL), (1e-6, CheckStatus.PASS)]
    )
    def test_restriction_gate_is_the_operator_normality_tolerance(
        self, monkeypatch, normality_tol, status
    ):
        # a restriction residual of 5e-8 fails an operator certified at the
        # default 1e-8 and passes one certified at 1e-6
        monkeypatch.setattr(projections, "is_normal", lambda t, space, tol: (5e-8 <= tol, 5e-8))
        n = two_point_operator(ToleranceConfig(normality_tol=normality_tol))
        report = verify_spectral_set_theorem(n, Region.disk(1.0, 0.4))
        entry = next(e for e in report.entries if e.name == "restriction-normal-in-hilbert-space")
        assert entry.status is status
        assert (entry.residual, entry.tolerance) == (5e-8, normality_tol)


# chained clusters: each member lies within LINK of the previous one, and
# LINK is below the clustering radius 0.05 * max(1, spectral radius)
CHAIN_TOLERANCES = ToleranceConfig(cluster_tol=0.05)
LINK = 0.045
coordinate = st.floats(-2.0, 2.0)
chain = st.tuples(
    st.tuples(coordinate, coordinate),
    st.lists(st.floats(0.0, 2.0 * np.pi), max_size=4),
)
piece = st.one_of(
    st.builds(lambda x, y, r: Region.disk(complex(x, y), r), coordinate, coordinate,
              st.floats(0.05, 2.0)),
    st.builds(lambda x, y, w, h: Region.rectangle(x, y, x + w, y + h), coordinate, coordinate,
              st.floats(0.05, 3.0), st.floats(0.05, 3.0)),
)


@settings(max_examples=300, deadline=None)
@given(chains=st.lists(chain, min_size=1, max_size=4), pieces=st.lists(piece, min_size=1, max_size=3))
def test_unrefused_regions_never_split_a_cluster(chains, pieces):
    # the refusal gap is at least the linkage radius, so a region that is not
    # refused holds each cluster wholly or not at all, piece by piece
    eigs = []
    for (x, y), steps in chains:
        eigs.append(complex(x, y))
        for angle in steps:
            eigs.append(eigs[-1] + LINK * np.exp(1j * angle))
    n = KreinOperator(np.diag(eigs), KreinSpace.euclidean(len(eigs)), CHAIN_TOLERANCES)
    region = Region(tuple(p for r in pieces for p in r.pieces))
    try:
        selected = projections.region_selection(n, region)
    except ContourThroughSpectrumError:
        return
    values = n.eigenvalues
    for i, members in enumerate(clustering(n).positions):
        for p in region.pieces:
            assert len({p.contains(values[m]) for m in members}) == 1
        assert (i in selected) == region.contains(values[members[0]])
