"""Resolvent growth probes, pole orders, strong stability, perturbations."""

import numpy as np
import pytest

from krein_spectra import (
    ArgumentError,
    ContourThroughSpectrumError,
    KreinOperator,
    KreinSpace,
    PreconditionError,
    SpectralType,
    ToleranceConfig,
    build_normal_with_types,
    classified_spectrum,
    perturb_structured,
    pole_order,
    resolvent_probe,
    sample_generator_spec,
    strong_stability_check,
)
from krein_spectra.classification import clustering, locate_point
from krein_spectra.core import frobenius
from krein_spectra.generators import GeneratorSpec, classification_margin
from krein_spectra.numerics import contour_integral_resolvent
from krein_spectra.projections import _laurent_norms, probe_radius_floor
from krein_spectra.regions import Disk

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


class TestResolventProbe:
    def test_hilbert_space_constant_is_one(self):
        n = KreinOperator(np.diag([1.0, 2.0, 3.0j]), KreinSpace.euclidean(3))
        probe = resolvent_probe(n, 1.0, radii=[0.4, 0.2, 0.1], samples_per_radius=12)
        assert probe.c_estimate == pytest.approx(1.0, abs=1e-9)
        assert [pole_order(n, i) for i in range(3)] == [1, 1, 1]

    def test_jordan_witness_has_second_order_pole(self):
        n = KreinOperator(np.array([[3 + 1j, 1.0], [0.0, 3 + 1j]]), KreinSpace(SWAP))
        assert pole_order(n, 0) == 2

    def test_two_sided_positive_point_has_first_order_pole(self):
        rng = np.random.default_rng(50)
        found = 0
        for _ in range(20):
            gen = build_normal_with_types(sample_generator_spec(rng, 6))
            tsp = [
                t for t in gen.ground_truth
                if t.expected_type is SpectralType.TWO_SIDED_POSITIVE
            ]
            if not tsp:
                continue
            found += 1
            assert pole_order(gen.operator, locate_point(gen.operator, tsp[0].value)) == 1
        assert found >= 5

    @pytest.mark.parametrize("point", [complex(np.nan, 0.0), complex(1.0, np.inf)])
    def test_non_finite_point_refused(self, point):
        n = KreinOperator(np.diag([1.0, 2.0]), KreinSpace.euclidean(2))
        with pytest.raises(PreconditionError, match="not a finite point"):
            resolvent_probe(n, point, radii=[0.4])

    def test_eigenvalue_on_contour_gives_no_pole_order(self):
        # the 21 values j * 0.096 * 0.9999 chain into one cluster around 0
        # (clustering radius 0.096); its pole-order circle has radius 1, half
        # the distance to 2, and passes 0.04 from the cluster's ends +-0.9599:
        # the order is undecidable, and the radius table is still reported
        values = [0.096 * 0.9999 * j for j in range(-10, 11)] + [2.0]
        n = KreinOperator(
            np.diag(values), KreinSpace.euclidean(len(values)), ToleranceConfig(cluster_tol=0.048)
        )
        with pytest.raises(ContourThroughSpectrumError):
            _laurent_norms(n, Disk(0.0, 1.0))
        assert pole_order(n, locate_point(n, 0.0)) is None
        probe = resolvent_probe(n, 0.0, [0.5])
        assert [r for r, _ in probe.radius_table] == [0.5]
        assert np.isfinite(probe.c_estimate) and probe.c_estimate > 0

    def test_radii_validation(self):
        n = KreinOperator(np.eye(2), KreinSpace.euclidean(2))
        with pytest.raises(ArgumentError, match="^radii: .*decreasing"):
            resolvent_probe(n, 1.0, radii=[0.1, 0.2])

    @pytest.mark.parametrize("point, radius", [(1.0, 5e-324), (1.0, 4e-16), (1e3, 4e-13)])
    def test_radius_below_float_spacing_refused(self, point, radius):
        # every sample point + radius e^{i theta} rounds onto the point, or
        # moves off it by a rounding error only
        n = KreinOperator(np.diag([1.0, 1e3]), KreinSpace.euclidean(2))
        with pytest.raises(ArgumentError, match="^radii: .* within"):
            resolvent_probe(n, point, radii=[0.4, radius])

    def test_radius_within_cluster_radius_refused(self):
        # every sample 1 + 1e-14 e^{i theta} lies within the clustering
        # radius of the spectrum and would be discarded, leaving a 0.0 row
        n = KreinOperator(np.diag([1.0, 2.0, 3 + 1j]), KreinSpace(np.diag([1.0, -1.0, 1.0])))
        assert probe_radius_floor(n, 1.0) == n.cluster_radius
        with pytest.raises(ArgumentError, match="^radii: .* within"):
            resolvent_probe(n, 1.0, radii=[0.4, 1e-14])
        probe = resolvent_probe(n, 1.0, radii=[0.4, 2.0 * n.cluster_radius])
        assert all(c > 0 for _, c in probe.radius_table)


class TestClosedFormLaurentCoefficients:
    """The probe's closed-form Laurent coefficient norms, k = 1 to the
    enclosed multiplicity, against the 256-node trapezoid rule of the
    resolvent on the same circle."""

    @staticmethod
    def assert_agrees_with_quadrature(n, circle):
        closed = _laurent_norms(n, circle)
        for k, norm in enumerate(closed, start=1):
            reference = frobenius(contour_integral_resolvent(n.schur, circle, k, nodes=256))
            assert abs(norm - reference) <= 1e-10 * max(1.0, reference), (k, norm, reference)

    def test_jordan_witness(self):
        n = KreinOperator(np.array([[3 + 1j, 1.0], [0.0, 3 + 1j]]), KreinSpace(SWAP))
        circle = Disk(3 + 1j, 0.5)
        self.assert_agrees_with_quadrature(n, circle)
        first, second = _laurent_norms(n, circle)
        assert first == pytest.approx(1.0) and second <= 1e-12  # a second-order pole

    @pytest.mark.parametrize("dim", range(2, 13))
    def test_generated_operators_with_jordan_cells(self, dim):
        # every cluster, on the circle of half its distance to the next one
        rng = np.random.default_rng([52, dim])
        spec = sample_generator_spec(rng, dim)
        while not spec.neutral_jordan:
            spec = sample_generator_spec(rng, dim)
        n = build_normal_with_types(spec).operator
        values = np.array(clustering(n).values)
        for i, value in enumerate(values):
            others = np.delete(values, i)
            radius = float(np.min(np.abs(others - value))) / 2.0 if others.size else 1.0
            self.assert_agrees_with_quadrature(n, Disk(complex(value), radius))


class TestStrongStability:
    def test_definite_pair_is_stable(self):
        n = KreinOperator(np.diag([1.0, 2.0]), KreinSpace.indefinite(1, 1))
        stable, decomposition = strong_stability_check(n)
        assert stable
        assert decomposition.certified
        np.testing.assert_allclose(
            np.abs(decomposition.plus.columns), [[1.0], [0.0]], atol=1e-12
        )
        np.testing.assert_allclose(
            np.abs(decomposition.minus.columns), [[0.0], [1.0]], atol=1e-12
        )

    def test_jordan_witness_not_stable(self):
        n = KreinOperator(np.array([[3 + 1j, 1.0], [0.0, 3 + 1j]]), KreinSpace(SWAP))
        stable, decomposition = strong_stability_check(n)
        assert not stable
        assert decomposition is None

    def test_hilbert_space_always_stable(self):
        rng = np.random.default_rng(51)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        n = KreinOperator(a + a.conj().T, KreinSpace.euclidean(4))
        stable, decomposition = strong_stability_check(n)
        assert stable
        assert decomposition.minus.k == 0
        assert decomposition.plus.k == 4

    def test_invariant_under_isometric_conjugation(self):
        rng = np.random.default_rng(52)
        for _ in range(8):
            spec = sample_generator_spec(rng, 6, cond_bound=None)
            base = build_normal_with_types(spec)
            conj = build_normal_with_types(
                GeneratorSpec(
                    signature=spec.signature,
                    positive_type_eigs=spec.positive_type_eigs,
                    negative_type_eigs=spec.negative_type_eigs,
                    neutral_pairs=spec.neutral_pairs,
                    neutral_jordan=spec.neutral_jordan,
                    cond_bound=1e3,
                    seed=spec.seed,
                )
            )
            assert (
                strong_stability_check(base.operator)[0]
                == strong_stability_check(conj.operator)[0]
            )


class TestStructuredPerturbation:
    def test_small_perturbations_preserve_stability(self):
        rng = np.random.default_rng(53)
        checked = 0
        for trial in range(20):
            spec = sample_generator_spec(
                rng, 6, kinds=("positive", "negative"), cond_bound=1e3
            )
            gen = build_normal_with_types(spec)
            stable, _ = strong_stability_check(gen.operator)
            assert stable
            margin = classification_margin(gen)
            perturbed = perturb_structured(gen, 0.45 * margin, seed=trial)
            assert np.linalg.norm(
                perturbed.operator.matrix - gen.operator.matrix, 2
            ) <= 0.45 * margin + 1e-12
            still_stable, _ = strong_stability_check(perturbed.operator)
            assert still_stable
            checked += 1
        assert checked == 20

    def test_neutral_jordan_point_survives_structured_family(self):
        spec = GeneratorSpec(signature=(1, 1), neutral_jordan=(3 + 1j,), seed=5)
        gen = build_normal_with_types(spec)
        for trial in range(5):
            perturbed = perturb_structured(gen, 0.3, seed=trial)
            points = classified_spectrum(perturbed.operator)
            assert any(pt.type_tag is SpectralType.NEUTRAL for pt in points)
            stable, _ = strong_stability_check(perturbed.operator)
            assert not stable
