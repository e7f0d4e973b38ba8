"""Inner product, adjoint, normality, definiteness and companion tests.

Hand-checked values: with G = diag(1,-1) the adjoint of the nilpotent
shift [[0,1],[0,0]] is [[0,0],[-1,0]]; with the swap Gram [[0,1],[1,0]]
the Jordan cell [[a,1],[0,a]] is normal and span(e1) is its own
companion witness.
"""

import numpy as np
import pytest

from krein_spectra import (
    DefinitenessKind,
    KreinOperator,
    KreinSpace,
    NonNormalError,
    SubspaceBasis,
    definiteness,
    indefinite_inner,
    is_normal,
    krein_adjoint,
    max_principal_angle,
    orthogonal_companion,
    part_decomposition,
)
from krein_spectra.core import frobenius, min_gap

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestIndefiniteInner:
    def test_euclidean_unit_vector(self):
        space = KreinSpace.euclidean(2)
        assert indefinite_inner([1, 0], [1, 0], space) == pytest.approx(1.0)

    def test_neutral_vector(self):
        space = KreinSpace.indefinite(1, 1)
        x = np.array([1.0, 1.0]) / np.sqrt(2)
        assert indefinite_inner(x, x, space) == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_basis_vectors(self):
        space = KreinSpace.indefinite(1, 1)
        assert indefinite_inner([1, 0], [0, 1], space) == pytest.approx(0.0)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(1)
        g = random_complex(rng, (4, 4))
        space = KreinSpace(g + g.conj().T + 5 * np.eye(4))
        x, y = random_complex(rng, 4), random_complex(rng, 4)
        assert indefinite_inner(x, y, space) == pytest.approx(
            np.conj(indefinite_inner(y, x, space))
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="match dim"):
            indefinite_inner([1, 0, 0], [1, 0], KreinSpace.euclidean(2))


class TestKreinAdjoint:
    def test_hilbert_case_is_conjugate_transpose(self):
        rng = np.random.default_rng(2)
        t = random_complex(rng, (3, 3))
        space = KreinSpace.euclidean(3)
        np.testing.assert_allclose(krein_adjoint(t, space), t.conj().T, atol=1e-14)

    def test_two_by_two_indefinite(self):
        space = KreinSpace.indefinite(1, 1)
        t = np.array([[0.0, 1.0], [0.0, 0.0]])
        expected = np.array([[0.0, 0.0], [-1.0, 0.0]])
        np.testing.assert_allclose(krein_adjoint(t, space), expected, atol=1e-14)

    def test_defining_identity(self):
        rng = np.random.default_rng(3)
        g = random_complex(rng, (5, 5))
        space = KreinSpace(g + g.conj().T + 8 * np.eye(5))
        t = random_complex(rng, (5, 5))
        adj = krein_adjoint(t, space)
        for _ in range(20):
            x, y = random_complex(rng, 5), random_complex(rng, 5)
            lhs = indefinite_inner(t @ x, y, space)
            rhs = indefinite_inner(x, adj @ y, space)
            bound = 1e-10 * np.linalg.norm(t) * np.linalg.norm(x) * np.linalg.norm(y)
            assert abs(lhs - rhs) <= bound

    def test_involution_and_product_rule(self):
        rng = np.random.default_rng(4)
        g = random_complex(rng, (4, 4))
        space = KreinSpace(g + g.conj().T + 6 * np.eye(4))
        s, t = random_complex(rng, (4, 4)), random_complex(rng, (4, 4))
        scale = 1e-12 * np.linalg.norm(s) * np.linalg.norm(t)
        double = krein_adjoint(krein_adjoint(t, space), space)
        assert frobenius(double - t) <= scale
        product = krein_adjoint(s @ t, space)
        composed = krein_adjoint(t, space) @ krein_adjoint(s, space)
        assert frobenius(product - composed) <= scale


class TestIsNormal:
    def test_unitary_in_hilbert_space(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(random_complex(rng, (4, 4)))
        ok, residual = is_normal(q, KreinSpace.euclidean(4))
        assert ok and residual <= 1e-14

    def test_swap_gram_jordan_cell_is_normal(self):
        space = KreinSpace(SWAP)
        for lam in (0.0, 1.5, 2 - 3j):
            t = np.array([[lam, 1.0], [0.0, lam]])
            ok, residual = is_normal(t, space)
            assert ok, residual

    def test_nilpotent_not_normal_for_definite_gram(self):
        space = KreinSpace.indefinite(1, 1)
        ok, residual = is_normal(np.array([[0.0, 1.0], [0.0, 0.0]]), space)
        assert not ok and residual > 0.1

    def test_certificate_raises(self):
        with pytest.raises(NonNormalError):
            KreinOperator(
                np.array([[0.0, 1.0], [0.0, 0.0]]), KreinSpace.indefinite(1, 1)
            )


class TestDefiniteness:
    def test_positive_axis(self):
        space = KreinSpace.indefinite(1, 1)
        verdict = definiteness(SubspaceBasis(np.eye(2)[:, :1]), space)
        assert verdict.kind is DefinitenessKind.UNIFORMLY_POSITIVE
        assert verdict.margin == pytest.approx(1.0)

    def test_neutral_direction_of_swap_gram(self):
        verdict = definiteness(SubspaceBasis(np.eye(2)[:, :1]), KreinSpace(SWAP))
        assert verdict.kind is DefinitenessKind.NEUTRAL

    def test_full_space_indefinite(self):
        verdict = definiteness(SubspaceBasis(np.eye(2)), KreinSpace.indefinite(1, 1))
        assert verdict.kind is DefinitenessKind.INDEFINITE

    def test_zero_subspace(self):
        verdict = definiteness(SubspaceBasis.zero(3), KreinSpace.euclidean(3))
        assert verdict.kind is DefinitenessKind.ZERO

    def test_invariant_under_positive_gram_rescaling(self):
        rng = np.random.default_rng(6)
        g = random_complex(rng, (4, 4))
        gram = g + g.conj().T + 3 * np.eye(4)
        basis = SubspaceBasis.from_columns(random_complex(rng, (4, 2)))
        kind = definiteness(basis, KreinSpace(gram)).kind
        kind_scaled = definiteness(basis, KreinSpace(3.0 * gram)).kind
        assert kind is kind_scaled


class TestOrthogonalCompanion:
    def test_euclidean_complement(self):
        companion = orthogonal_companion(
            SubspaceBasis(np.eye(2)[:, :1]), KreinSpace.euclidean(2)
        )
        np.testing.assert_allclose(np.abs(companion.columns), [[0.0], [1.0]], atol=1e-14)

    def test_neutral_direction_is_its_own_witness(self):
        companion = orthogonal_companion(SubspaceBasis(np.eye(2)[:, :1]), KreinSpace(SWAP))
        np.testing.assert_allclose(np.abs(companion.columns), [[1.0], [0.0]], atol=1e-14)

    def test_full_space_gives_zero(self):
        companion = orthogonal_companion(SubspaceBasis(np.eye(3)), KreinSpace.euclidean(3))
        assert companion.k == 0

    def test_dimension_count_and_double_companion(self):
        rng = np.random.default_rng(7)
        g = random_complex(rng, (6, 6))
        space = KreinSpace(g + g.conj().T + 9 * np.eye(6))
        for k in range(0, 7):
            basis = SubspaceBasis.from_columns(random_complex(rng, (6, k)))
            companion = orthogonal_companion(basis, space)
            assert basis.k + companion.k == 6
            double = orthogonal_companion(companion, space)
            assert max_principal_angle(double, basis) <= 1e-10


class TestPartDecomposition:
    def test_identity(self):
        n = KreinOperator(np.eye(3), KreinSpace.euclidean(3))
        re, im = part_decomposition(n)
        np.testing.assert_allclose(re, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(im, np.zeros((3, 3)), atol=1e-14)

    def test_purely_imaginary(self):
        n = KreinOperator(1j * np.eye(2), KreinSpace.euclidean(2))
        re, im = part_decomposition(n)
        np.testing.assert_allclose(re, np.zeros((2, 2)), atol=1e-14)
        np.testing.assert_allclose(im, np.eye(2), atol=1e-14)

    def test_parts_selfadjoint_commuting_and_reassemble(self):
        from krein_spectra import build_normal_with_types, sample_generator_spec

        rng = np.random.default_rng(8)
        for _ in range(10):
            gen = build_normal_with_types(sample_generator_spec(rng, 6))
            n = gen.operator
            re, im = part_decomposition(n)
            np.testing.assert_allclose(re + 1j * im, n.matrix, atol=1e-12 * max(1, n.norm))
            for part in (re, im):
                assert frobenius(krein_adjoint(part, n.space) - part) <= 1e-9 * max(
                    1, n.norm
                )
            commutator = frobenius(re @ im - im @ re)
            assert commutator <= 1e-10 * max(1.0, n.norm**2)


def test_invariant_subspace_companion_is_invariant():
    # sums of eigenvector blocks are invariant for the operator and its
    # adjoint; their companions must then be invariant as well
    from krein_spectra import build_normal_with_types, classified_spectrum, sample_generator_spec

    rng = np.random.default_rng(9)
    for _ in range(10):
        gen = build_normal_with_types(sample_generator_spec(rng, 6))
        n = gen.operator
        points = classified_spectrum(n)
        basis = SubspaceBasis.from_columns(
            np.hstack([points[0].kernel.columns, points[-1].kernel.columns])
        )
        companion = orthogonal_companion(basis, n.space)
        if companion.k == 0:
            continue
        proj = companion.projector()
        residual = frobenius((np.eye(n.dim) - proj) @ n.matrix @ companion.columns)
        residual_adj = frobenius((np.eye(n.dim) - proj) @ n.adjoint @ companion.columns)
        assert max(residual, residual_adj) <= 1e-10 * max(1.0, n.norm)


class TestKreinSpaceValidation:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            KreinSpace(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_singular(self):
        with pytest.raises(ValueError, match="singular"):
            KreinSpace(np.diag([1.0, 0.0]))

    def test_signature(self):
        assert KreinSpace.indefinite(2, 1).signature == (2, 1)
        assert KreinSpace(SWAP).signature == (1, 1)

    @pytest.mark.parametrize("p, q", [(2, 0), (1, 1), (0, 3)])
    def test_indefinite_gram(self, p, q):
        space = KreinSpace.indefinite(p, q)
        np.testing.assert_array_equal(space.gram, np.diag([1.0] * p + [-1.0] * q))
        assert space.signature == (p, q)

    def test_rejects_non_orthonormal_basis(self):
        with pytest.raises(ValueError, match="orthonormal"):
            SubspaceBasis(np.array([[1.0], [1.0]]))


class TestMinGap:
    @staticmethod
    def pairwise_loop(values):
        if len(values) < 2:
            return np.inf
        return min(abs(a - b) for i, a in enumerate(values) for b in values[i + 1 :])

    def test_bitwise_equal_to_pairwise_loop(self):
        rng = np.random.default_rng(41)
        for size in (0, 1, 2, 3, 17, 60):
            for scale in (1e-6, 1.0, 1e3):
                values = list(scale * random_complex(rng, size))
                if size >= 3:
                    values[2] = values[0].conjugate()
                assert min_gap(values) == self.pairwise_loop(values)

    def test_repeated_value_gives_zero(self):
        assert min_gap([1.0 + 1.0j, 3.0, 1.0 + 1.0j]) == 0.0
