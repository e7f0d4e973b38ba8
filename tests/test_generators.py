"""Generator determinism, inventory budgets, and structure preservation."""

import numpy as np
import pytest

from krein_spectra import (
    GeneratorSpec,
    KreinSpace,
    build_normal_with_types,
    classified_spectrum,
    is_normal,
    perturb_structured,
    random_j_unitary,
    sample_generator_spec,
)
from krein_spectra.core import krein_adjoint, operator_norm


class TestRandomJUnitary:
    def test_unit_cond_bound_gives_identity(self):
        space = KreinSpace.indefinite(2, 1)
        np.testing.assert_array_equal(random_j_unitary(space, 1, cond_bound=1.0), np.eye(3))

    def test_hilbert_case_is_unitary(self):
        space = KreinSpace.euclidean(4)
        u = random_j_unitary(space, seed=4, cond_bound=1e3)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-10)

    def test_preserves_indefinite_inner_product(self):
        rng = np.random.default_rng(5)
        space = KreinSpace.indefinite(2, 2)
        u = random_j_unitary(space, seed=5, cond_bound=1e3)
        assert np.linalg.cond(u) <= 1e3
        for _ in range(10):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            # [x, y] = <G x, y> = y* G x; np.vdot conjugates its first argument
            lhs = np.vdot(u @ y, space.gram @ (u @ x))
            rhs = np.vdot(y, space.gram @ x)
            assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(y)


class TestBuildNormalWithTypes:
    def test_single_positive_eigenvalue(self):
        spec = GeneratorSpec(signature=(1, 0), positive_type_eigs=((2.0 + 0j, 1),))
        gen = build_normal_with_types(spec)
        assert gen.operator.matrix[0, 0] == 2.0
        assert gen.ground_truth[0].expected_type.value == "two-sided-positive"

    def test_neutral_jordan_block(self):
        spec = GeneratorSpec(signature=(1, 1), neutral_jordan=(3 + 1j,))
        gen = build_normal_with_types(spec)
        truth = gen.ground_truth[0]
        assert (truth.alg_mult, truth.geo_mult) == (2, 1)
        assert truth.expected_type.value == "neutral"
        pt = classified_spectrum(gen.operator)[0]
        assert (pt.alg_mult, pt.geo_mult) == (2, 1)

    def test_mixed_inventory_roundtrip_under_conjugation(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            gen = build_normal_with_types(sample_generator_spec(rng, 8, cond_bound=1e3))
            points = classified_spectrum(gen.operator)
            assert len(points) == len(gen.ground_truth)
            for pt, truth in zip(points, gen.ground_truth):
                assert pt.type_tag is truth.expected_type
                assert (pt.alg_mult, pt.geo_mult) == (truth.alg_mult, truth.geo_mult)

    def test_determinism_is_bit_identical(self):
        rng = np.random.default_rng(7)
        spec = sample_generator_spec(rng, 7, cond_bound=1e3)
        a = build_normal_with_types(spec)
        b = build_normal_with_types(spec)
        assert a.operator.matrix.tobytes() == b.operator.matrix.tobytes()
        assert a.space.gram.tobytes() == b.space.gram.tobytes()

    def test_normality_certificate_before_and_after_conjugation(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            spec = sample_generator_spec(rng, 6, cond_bound=1e3)
            bare = build_normal_with_types(
                GeneratorSpec(
                    signature=spec.signature,
                    positive_type_eigs=spec.positive_type_eigs,
                    negative_type_eigs=spec.negative_type_eigs,
                    neutral_pairs=spec.neutral_pairs,
                    neutral_jordan=spec.neutral_jordan,
                    cond_bound=None,
                    seed=spec.seed,
                )
            )
            conjugated = build_normal_with_types(spec)
            for gen in (bare, conjugated):
                ok, residual = is_normal(gen.operator.matrix, gen.space, tol=1e-9)
                assert ok, residual
                assert gen.conjugator_cond == conjugator_cond(gen)

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="inertia"):
            GeneratorSpec(signature=(2, 0), positive_type_eigs=((1.0, 1),))
        with pytest.raises(ValueError, match="collision"):
            GeneratorSpec(
                signature=(2, 0),
                positive_type_eigs=((1.0, 1), (1.0 + 1e-9, 1)),
            )

    def test_negative_seed_and_empty_inventory_are_refused(self):
        with pytest.raises(ValueError, match="seed"):
            GeneratorSpec(signature=(1, 0), positive_type_eigs=((1.0, 1),), seed=-1)
        with pytest.raises(ValueError, match="empty"):
            GeneratorSpec(signature=(0, 0))

    def test_unplaceable_eigenvalues_are_a_value_error(self):
        # a box of half-width 0.1 holds one eigenvalue at the separation 0.35;
        # dim 4 needs at least two
        with pytest.raises(ValueError, match="separated eigenvalues"):
            sample_generator_spec(np.random.default_rng(0), 4, box=0.1)

    def test_adjoint_swaps_pair_eigenvalues(self):
        spec = GeneratorSpec(signature=(1, 1), neutral_pairs=(((1.0 + 0j), (2.0 + 0j)),))
        gen = build_normal_with_types(spec)
        adj = krein_adjoint(gen.operator.matrix, gen.space)
        np.testing.assert_allclose(np.sort(np.diag(adj)), [1.0, 2.0], atol=1e-12)


def conjugator_cond(gen):
    """The conjugator's condition number computed afresh (1 without one)."""
    return 1.0 if gen.conjugator is None else float(np.linalg.cond(gen.conjugator))


class TestPerturbStructured:
    def test_zero_budget_is_identity(self):
        rng = np.random.default_rng(9)
        gen = build_normal_with_types(sample_generator_spec(rng, 5))
        perturbed = perturb_structured(gen, 0.0, seed=1)
        assert perturbed is gen

    def test_stays_within_budget_and_normal(self):
        rng = np.random.default_rng(10)
        for trial in range(10):
            gen = build_normal_with_types(sample_generator_spec(rng, 6))
            delta = 10.0 ** -rng.integers(1, 6)
            perturbed = perturb_structured(gen, float(delta), seed=trial)
            assert operator_norm(
                perturbed.operator.matrix - gen.operator.matrix
            ) <= delta
            ok, residual = is_normal(
                perturbed.operator.matrix, gen.space, tol=1e-9
            )
            assert ok, residual
            # the perturbation's own conjugator, not the input's
            assert perturbed.conjugator_cond == conjugator_cond(perturbed)
