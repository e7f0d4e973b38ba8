"""Spectrum computation and definiteness-type classification.

Reference cases computed by hand: diag(1,2) against diag(1,-1) has a
two-sided positive point at 1 and a two-sided negative one at 2; any
diag(a,b) with distinct entries against the swap Gram has two neutral
points; the swap-Gram Jordan cell has one defective neutral point.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from krein_spectra import (
    KreinOperator,
    KreinSpace,
    PreconditionError,
    SpectralType,
    ToleranceConfig,
    build_normal_with_types,
    classified_spectrum,
    max_principal_angle,
    random_j_unitary,
    root_subspace,
    sample_generator_spec,
    selfadjoint_product,
    spectrum,
    verify_selfadjoint_link,
)
from krein_spectra import classification, numerics
from krein_spectra.cli import main
from krein_spectra.core import frobenius, krein_adjoint
from krein_spectra.documents import OperatorDocument, load_operator_document
from krein_spectra.generators import GeneratorSpec

from conftest import with_tolerances

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def chained_cluster_operator():
    return KreinOperator(
        np.diag([1.0, 1.15, 1.3, 1.45, 1.6, 1.8]),
        KreinSpace.euclidean(6),
        ToleranceConfig(cluster_tol=0.1),
    )


def jordan_witness(lam=3 + 1j):
    space = KreinSpace(SWAP)
    return KreinOperator(np.array([[lam, 1.0], [0.0, lam]]), space)


class TestSpectrum:
    def test_simple_diagonal(self):
        n = KreinOperator(np.diag([1.0, 2.0]), KreinSpace.euclidean(2))
        points = spectrum(n)
        assert [pt.value for pt in points] == [1.0, 2.0]
        assert all(pt.alg_mult == pt.geo_mult == 1 for pt in points)

    def test_jordan_cell_multiplicities(self):
        points = spectrum(jordan_witness())
        assert len(points) == 1
        assert points[0].alg_mult == 2
        assert points[0].geo_mult == 1
        assert points[0].value == pytest.approx(3 + 1j)

    def test_multiplicities_match_generator(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            gen = build_normal_with_types(sample_generator_spec(rng, 8))
            points = spectrum(gen.operator)
            assert len(points) == len(gen.ground_truth)
            for pt, truth in zip(points, gen.ground_truth):
                assert abs(pt.value - truth.value) <= 1e-8
                assert pt.alg_mult == truth.alg_mult
                assert pt.geo_mult == truth.geo_mult
            assert sum(pt.alg_mult for pt in points) == gen.operator.dim

    def test_schur_positions_partition_the_schur_diagonal(self):
        rng = np.random.default_rng(11)
        cases = [chained_cluster_operator()] + [
            build_normal_with_types(sample_generator_spec(rng, 8)).operator for _ in range(10)
        ]
        for n in cases:
            points = spectrum(n)
            clusters = classification.clustering(n)
            assert sorted(i for members in clusters.positions for i in members) == list(range(n.dim))
            for pt, members in zip(points, clusters.positions):
                assert len(members) == pt.alg_mult
                assert pt.value == pytest.approx(np.mean(n.eigenvalues[list(members)]))

    def test_close_clusters_get_warned_not_merged(self):
        n = KreinOperator(np.diag([1.0, 1.0 + 3e-7]), KreinSpace.euclidean(2))
        points = spectrum(n)
        assert len(points) == 2
        assert all("cluster-separation-below-4x-radius" in pt.warnings for pt in points)


class TestClassifyPoint:
    def test_two_sided_definite_pair(self):
        n = KreinOperator(np.diag([1.0, 2.0]), KreinSpace.indefinite(1, 1))
        tags = {pt.value: pt.type_tag for pt in classified_spectrum(n)}
        assert tags[1.0] is SpectralType.TWO_SIDED_POSITIVE
        assert tags[2.0] is SpectralType.TWO_SIDED_NEGATIVE

    def test_swap_gram_diagonal_is_neutral(self):
        n = KreinOperator(np.diag([2.0, -1.0 + 1j]), KreinSpace(SWAP))
        points = classified_spectrum(n)
        assert all(pt.type_tag is SpectralType.NEUTRAL for pt in points)

    def test_jordan_cell_neutral_and_defective(self):
        pt = classified_spectrum(jordan_witness())[0]
        assert pt.type_tag is SpectralType.NEUTRAL
        assert pt.alg_mult > pt.geo_mult

    def test_definite_points_are_semisimple(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            gen = build_normal_with_types(sample_generator_spec(rng, 7))
            for pt in classified_spectrum(gen.operator):
                if pt.type_tag in (
                    SpectralType.TWO_SIDED_POSITIVE,
                    SpectralType.TWO_SIDED_NEGATIVE,
                ):
                    assert pt.alg_mult == pt.geo_mult

    def test_invariant_under_isometric_conjugation(self):
        rng = np.random.default_rng(12)
        for seed in range(8):
            spec = sample_generator_spec(rng, 6, cond_bound=None)
            gen = build_normal_with_types(spec)
            u = random_j_unitary(gen.space, seed=seed, cond_bound=1e3)
            conjugated = KreinOperator(
                np.linalg.solve(u, gen.operator.matrix @ u), gen.space
            )
            base = classified_spectrum(gen.operator)
            moved = classified_spectrum(conjugated)
            assert [(p.type_tag, p.alg_mult, p.geo_mult) for p in base] == [
                (p.type_tag, p.alg_mult, p.geo_mult) for p in moved
            ]


class TestSelfadjointProduct:
    def test_identity_at_zero(self):
        n = KreinOperator(np.eye(3), KreinSpace.euclidean(3))
        np.testing.assert_allclose(selfadjoint_product(n, 0.0), np.eye(3), atol=1e-14)

    def test_positive_semidefinite_with_kernel_at_eigenvalue(self):
        n = KreinOperator(np.diag([1.0, 4.0]), KreinSpace.euclidean(2))
        a = selfadjoint_product(n, 1.0)
        eigs = np.linalg.eigvalsh(a)
        assert eigs[0] == pytest.approx(0.0, abs=1e-12)
        assert eigs[-1] > 1.0

    def test_always_selfadjoint(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            gen = build_normal_with_types(sample_generator_spec(rng, 6))
            lam = complex(rng.standard_normal(), rng.standard_normal())
            a = selfadjoint_product(gen.operator, lam)
            defect = frobenius(krein_adjoint(a, gen.space) - a)
            assert defect <= 1e-10 * max(1.0, frobenius(a))

    def test_zero_eigenvalue_iff_spectral_point(self):
        rng = np.random.default_rng(14)
        gen = build_normal_with_types(sample_generator_spec(rng, 6))
        n = gen.operator
        for pt in classified_spectrum(n):
            a = selfadjoint_product(n, pt.value)
            assert np.min(np.abs(np.linalg.eigvals(a))) <= 1e-8 * max(1.0, n.norm) ** 2
        off = complex(10.0, 10.0)
        a = selfadjoint_product(n, off)
        assert np.min(np.abs(np.linalg.eigvals(a))) > 1.0


class TestSelfadjointLink:
    def test_positive_point_of_indefinite_pair(self):
        n = KreinOperator(np.diag([1.0, 2.0]), KreinSpace.indefinite(1, 1))
        for pt in classified_spectrum(n):
            assert verify_selfadjoint_link(n, pt)

    def test_jordan_witness(self):
        n = jordan_witness()
        for pt in classified_spectrum(n):
            assert verify_selfadjoint_link(n, pt)

    def test_hilbert_case(self):
        n = KreinOperator(np.diag([1.0, 2.0, 3.0j]), KreinSpace.euclidean(3))
        for pt in classified_spectrum(n):
            assert verify_selfadjoint_link(n, pt)


class TestRootSubspace:
    def test_diagonalizable_equals_kernel(self):
        n = KreinOperator(np.diag([1.0, 2.0]), KreinSpace.indefinite(1, 1))
        for pt in classified_spectrum(n):
            root = root_subspace(n, pt)
            assert root.k == pt.kernel.k
            assert max_principal_angle(root, pt.kernel) <= 1e-10

    def test_jordan_root_strictly_larger(self):
        n = jordan_witness()
        pt = classified_spectrum(n)[0]
        root = root_subspace(n, pt)
        assert root.k == 2
        assert pt.kernel.k == 1

    def test_foreign_point_refused(self):
        n = KreinOperator(np.diag([1.0, 2.0]), KreinSpace.indefinite(1, 1))
        pt = replace(classified_spectrum(n)[0], value=1.5)
        with pytest.raises(PreconditionError, match="not a spectral point"):
            root_subspace(n, pt)

    def test_chained_cluster_root_has_full_multiplicity(self):
        # 1.0 .. 1.6 chain into one cluster at the radius 0.18, whose mean
        # 1.3 is farther from 1.6 than the foreign eigenvalue 1.8 is
        n = chained_cluster_operator()
        pt = classified_spectrum(n)[0]
        assert pt.alg_mult == 5
        assert root_subspace(n, pt).k == 5

    def test_two_sided_points_have_coinciding_subspaces(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            gen = build_normal_with_types(sample_generator_spec(rng, 7))
            points = classified_spectrum(gen.operator)
            for pt in points:
                if pt.type_tag in (
                    SpectralType.TWO_SIDED_POSITIVE,
                    SpectralType.TWO_SIDED_NEGATIVE,
                ):
                    root = root_subspace(gen.operator, pt)
                    assert max_principal_angle(pt.kernel, pt.adjoint_kernel) <= 1e-8
                    assert max_principal_angle(pt.kernel, root) <= 1e-8


def test_tolerance_config_validation():
    with pytest.raises(ValueError):
        ToleranceConfig(cluster_tol=0.0)
    with pytest.raises(ValueError):
        ToleranceConfig(contour_nodes=8)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_tolerance_config_rejects_non_finite(value):
    with pytest.raises(ValueError, match="rank_tol"):
        ToleranceConfig(rank_tol=value)


class TestClassifiedSpectrumCache:
    def test_returned_list_is_a_fresh_copy(self):
        n = KreinOperator(np.diag([1.0, 2.0]), KreinSpace.indefinite(1, 1))
        first = classified_spectrum(n)
        expected = list(first)
        first.clear()
        again = classified_spectrum(n)
        assert len(again) == len(expected) == 2
        assert all(a is b for a, b in zip(again, expected))

    def test_each_tolerance_config_gets_its_own_answer(self):
        # the Gram is positive definite but tiny on e2: the point 2 is
        # uniformly positive at the default threshold 1e-8 and neutral at 1e-4;
        # each config is carried by its own operator
        strict = KreinOperator(np.diag([1.0, 2.0]), KreinSpace(np.diag([1.0, 1e-5])))
        loose = with_tolerances(strict, definiteness_tol=1e-4)
        tags = [[pt.type_tag for pt in classified_spectrum(n)] for n in (strict, loose)]
        assert tags[0][1] is SpectralType.TWO_SIDED_POSITIVE
        assert tags[1][1] is SpectralType.NEUTRAL
        for n, expected in zip((loose, strict), reversed(tags)):
            assert [pt.type_tag for pt in classified_spectrum(n)] == expected
            fresh = with_tolerances(n)
            assert [pt.type_tag for pt in classified_spectrum(fresh)] == expected


# Seven clusters, sorted: -3 and -2+i (one neutral pair), -1 (negative),
# 1, 2 (double) and 3+i (positive), 4-i (negative); hidden by a J-unitary.
LAZY_SPEC = GeneratorSpec(
    signature=(5, 3),
    positive_type_eigs=((1.0, 1), (2.0, 2), (3.0 + 1.0j, 1)),
    negative_type_eigs=((-1.0, 1), (4.0 - 1.0j, 1)),
    neutral_pairs=((-3.0, -2.0 + 1.0j),),
    cond_bound=10.0,
    seed=7,
)


class TestClustersExtractedOnRequest:
    """Each subcommand extracts the kernels of the clusters it reads and no
    others, each once, from at most one contiguous Schur form per
    clustering.  Extractions are counted by cluster index at
    ``classification._cluster_kernels``, and contiguity passes at
    ``classification._make_contiguous``."""

    @pytest.fixture
    def document(self, tmp_path):
        gen = build_normal_with_types(LAZY_SPEC)
        doc = OperatorDocument(dim=gen.space.dim, gram=gen.space.gram, matrix=gen.operator.matrix)
        path = tmp_path / "op.json"
        path.write_text(doc.to_json(), encoding="utf-8")
        return str(path)

    @pytest.fixture
    def extracted(self, monkeypatch):
        counts = {"kernels": [], "passes": 0}
        kernels, make_contiguous = classification._cluster_kernels, classification._make_contiguous

        def counting_kernels(N, clusters, index):
            counts["kernels"].append(index)
            return kernels(N, clusters, index)

        def counting_passes(N, clusters):
            counts["passes"] += 1
            return make_contiguous(N, clusters)

        monkeypatch.setattr(classification, "_cluster_kernels", counting_kernels)
        monkeypatch.setattr(classification, "_make_contiguous", counting_passes)
        return counts

    @staticmethod
    def clusters_at(document, values):
        """Indices of the clusters at ``values`` and the clustering, worked
        out on a separate operator; no kernel is extracted."""
        operator = load_operator_document(document).build()
        clusters = classification.clustering(operator)
        assert len(clusters.values) == 7
        return [classification.locate_point(operator, v) for v in values], clusters

    def test_probe_resolvent_extracts_no_kernels(
        self, document, extracted, tmp_path, monkeypatch
    ):
        # the pole order reads one Schur form reordered on the positions its
        # circle encloses, and no contiguous form
        [index], clusters = self.clusters_at(document, [1.0])
        target = frozenset(clusters.positions[index])
        decompositions = []
        original = numerics.reorder_schur

        def counting(t, u, select):
            decompositions.append(frozenset(np.flatnonzero(select).tolist()))
            return original(t, u, select)

        monkeypatch.setattr(numerics, "reorder_schur", counting)
        out = tmp_path / "probe.json"
        argv = ["probe-resolvent", document, "--point=1,0", "--radii=0.4,0.2", "-o", str(out)]
        assert main(argv) == 0
        assert json.loads(out.read_text())["pole_order"] == 1
        assert extracted == {"kernels": [], "passes": 0}
        assert decompositions == [target]

    def test_lsf_verify_extracts_the_carrier_only(self, document, extracted, tmp_path):
        expected, _ = self.clusters_at(document, [1.0, 2.0])
        out = tmp_path / "lsf.json"
        assert main(["lsf-verify", document, "--disk=1.5,0,0.8", "--json", "-o", str(out)]) == 0
        assert all(e["status"] != "fail" for e in json.loads(out.read_text())["entries"])
        assert sorted(extracted["kernels"]) == sorted(expected)
        assert extracted["passes"] == 1

    def test_stability_stops_at_the_first_neutral_point(self, document, extracted, tmp_path):
        expected, _ = self.clusters_at(document, [-3.0])
        out = tmp_path / "stability.json"
        assert main(["stability", document, "-o", str(out)]) == 0
        assert json.loads(out.read_text())["stable"] is False
        assert extracted == {"kernels": expected, "passes": 1}

    def test_classify_extracts_every_cluster_once(self, document, extracted, tmp_path):
        out = tmp_path / "classes.json"
        assert main(["classify", document, "--json", "-o", str(out)]) == 0
        assert len(json.loads(out.read_text())["points"]) == 7
        assert sorted(extracted["kernels"]) == list(range(7))
        assert extracted["passes"] == 1
