"""Adjoint, normality and definiteness tests.

Hand-checked values: with G = diag(1,-1) the adjoint of the nilpotent
shift [[0,1],[0,0]] is [[0,0],[-1,0]]; with the swap Gram [[0,1],[1,0]]
the Jordan cell [[a,1],[0,a]] is normal and span(e1) is neutral.
"""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from krein_spectra import (
    DefinitenessKind,
    GeneratorSpec,
    KreinOperator,
    KreinSpace,
    NonNormalError,
    SubspaceBasis,
    build_normal_with_types,
    definiteness,
    is_normal,
    krein_adjoint,
    max_principal_angle,
)
from krein_spectra import core
from krein_spectra.core import frobenius, min_gap

from test_schur_route import BANK_SIZE, bank_entry

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


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
            # [x, y] = <G x, y> = y* G x; np.vdot conjugates its first argument
            lhs = np.vdot(y, space.gram @ (t @ x))
            rhs = np.vdot(adj @ y, space.gram @ x)
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


# a swap block beside definite ones, hidden by a conjugation
NEUTRAL_PAIR_SPEC = GeneratorSpec(
    signature=(3, 3),
    positive_type_eigs=((1.0, 2),),
    negative_type_eigs=((3.0, 2),),
    neutral_pairs=((2.0j, -2.0j),),
    cond_bound=10.0,
)


@st.composite
def signed_involutions(draw):
    """A Gram of +-1 fixed points and +-1 swap blocks, rows and columns
    shuffled by one permutation."""
    blocks = draw(st.lists(st.sampled_from(["+", "-", "+swap", "-swap"]), min_size=1, max_size=8))
    grams = [
        {"+": np.eye(1), "-": -np.eye(1), "+swap": SWAP, "-swap": -SWAP}[b] for b in blocks
    ]
    g = scipy.linalg.block_diag(*grams)
    order = np.array(draw(st.permutations(range(len(g)))))
    return g[np.ix_(order, order)]


def assert_bitwise_equal(got, want):
    """Same values, same sign bits (zeros included) and both C-ordered."""
    assert got.flags.c_contiguous and want.flags.c_contiguous
    assert np.array_equal(got, want)
    for part in ("real", "imag"):
        assert np.array_equal(np.signbit(getattr(got, part)), np.signbit(getattr(want, part)))


class TestSignedInvolutionGram:
    """A fundamental symmetry G = G* = G^-1 given as a signed permutation is
    applied by permutation: bit for bit what the LU route gives."""

    @settings(max_examples=200, deadline=None)
    @given(signed_involutions(), st.integers(0, 2**32 - 1))
    def test_permutation_route_is_the_lu_route(self, gram, seed):
        space = KreinSpace(gram)
        assert space._involution is not None
        rng = np.random.default_rng(seed)
        t = random_complex(rng, gram.shape)
        u = np.linalg.qr(random_complex(rng, gram.shape))[0]
        g = space.gram
        assert_bitwise_equal(krein_adjoint(t, space), np.linalg.solve(g, t.conj().T @ g))
        assert_bitwise_equal(core._gram_solve(space, u), np.linalg.solve(g, u))

    def test_generated_operator_takes_no_solve(self, monkeypatch):
        gen = build_normal_with_types(NEUTRAL_PAIR_SPEC)
        solves = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(1) or solve(a, b))
        n = KreinOperator(gen.operator.matrix, KreinSpace(gen.space.gram))
        assert n.space._involution is not None
        assert_bitwise_equal(n.gram_inverse_schur, solve(n.space.gram, n.schur[1]))
        assert not solves

    @pytest.mark.parametrize(
        "gram",
        [np.diag([2.0, -1.0]), np.array([[0.0, 1j], [-1j, 0.0]]), np.array([[0.0, -1.0], [-1.0, 1.0]])],
        ids=["scaled-diagonal", "phase-swap", "dense"],
    )
    def test_other_grams_take_the_lu_route(self, monkeypatch, gram):
        space = KreinSpace(gram)
        assert space._involution is None
        solves = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(1) or solve(a, b))
        t = random_complex(np.random.default_rng(3), (2, 2))
        assert_bitwise_equal(krein_adjoint(t, space), solve(space.gram, t.conj().T @ space.gram))
        assert len(solves) == 1

    def test_congruent_bank_takes_the_lu_route(self):
        for i in range(0, BANK_SIZE, 6):
            _, n = bank_entry(i, unitary_gram=False)
            g = n.space.gram
            assert n.space._involution is None
            assert_bitwise_equal(n.adjoint, np.linalg.solve(g, n.matrix.conj().T @ g))
            assert_bitwise_equal(n.gram_inverse_schur, np.linalg.solve(g, n.schur[1]))

    def test_commutator_norm_is_the_certificate_commutator(self):
        n = build_normal_with_types(NEUTRAL_PAIR_SPEC).operator
        m, adj = n.matrix, n.adjoint
        assert n.commutator_norm > 0.0  # rounding: the conjugated operator is not exactly normal
        assert n.commutator_norm == frobenius(m @ adj - adj @ m) == frobenius(adj @ m - m @ adj)
        assert n.normality_residual == n.commutator_norm / max(1.0, frobenius(m) ** 2)


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

    @pytest.mark.parametrize(
        "matrix",
        [[[1e200, 1e200], [0.0, 1e200]], [[1e200, 0.0], [0.0, 2e200]]],
        ids=["jordan-cell", "normal"],
    )
    def test_certificate_refuses_a_residual_it_cannot_evaluate(self, matrix):
        # the commutator overflows to a NaN residual, which compares false
        # against any tolerance: the Jordan cell is refused like its
        # unit-scale twin, and the normal matrix because its certificate
        # cannot be evaluated; the refusal comes without a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonNormalError, match="is not finite$"):
                KreinOperator(np.array(matrix), KreinSpace.indefinite(1, 1))

    @pytest.mark.parametrize(
        "entry", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 1.0)]
    )
    def test_operator_rejects_non_finite(self, entry):
        # a NaN residual compares false against the tolerance, so the
        # refusal must come before the certificate, not from it
        matrix = np.diag([1.0, 2.0]).astype(complex)
        matrix[0, 0] = entry
        with pytest.raises(ValueError, match="^operator matrix has non-finite entries$"):
            KreinOperator(matrix, KreinSpace.euclidean(2))


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


class TestKreinSpaceValidation:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            KreinSpace(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_singular(self):
        with pytest.raises(ValueError, match="singular"):
            KreinSpace(np.diag([1.0, 0.0]))

    @pytest.mark.parametrize(
        "gram",
        [
            [[1.0, np.inf], [np.inf, 1.0]],
            [[np.inf, 0.0], [0.0, 1.0]],
            [[1.0, np.nan], [np.nan, 1.0]],
        ],
    )
    def test_rejects_non_finite(self, gram):
        with pytest.raises(ValueError, match="non-finite"):
            KreinSpace(np.array(gram))

    def test_scale_and_signature_from_the_eigenvalues(self):
        gram = np.array([[2.0, 1j, 0.0], [-1j, -3.0, 0.5], [0.0, 0.5, 0.25]])
        space = KreinSpace(gram)
        eigs = np.linalg.eigvalsh(gram)
        assert space.gram_scale == np.max(np.abs(eigs))
        assert space.gram_scale == pytest.approx(np.linalg.norm(gram, 2), rel=1e-14)
        assert space.signature == (2, 1)

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


@st.composite
def basis_pairs(draw):
    """Orthonormal bases ``a`` and ``b`` with ``a.k >= b.k`` whose angles are
    known: all nearly 0 (span(b) nearly inside span(a)), all exactly 0 with
    equal spans, or all nearly pi/2.  Returns ``(a, b, largest angle)``."""
    regime = draw(st.sampled_from(["contained", "equal", "orthogonal"]))
    n = draw(st.integers(2, 12))
    if regime == "equal":
        ka = kb = draw(st.integers(1, n))
        angles = np.zeros(kb)
    else:
        kb = draw(st.integers(1, n // 2))
        ka = draw(st.integers(kb, n - kb))
        exponents = draw(st.lists(st.floats(-15.0, -1.0), min_size=kb, max_size=kb))
        angles = 10.0 ** np.array(exponents)
        if regime == "orthogonal":
            angles = np.pi / 2 - angles
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def unitary(k):
        return np.linalg.qr(random_complex(rng, (k, k)))[0]

    q = unitary(n)
    b = np.cos(angles) * q[:, :kb]
    if regime != "equal":
        b = b + np.sin(angles) * q[:, ka : ka + kb]
    a = SubspaceBasis(q[:, :ka] @ unitary(ka))
    return a, SubspaceBasis(b @ unitary(kb)), float(np.max(angles))


class TestMaxPrincipalAngle:
    @settings(max_examples=300, deadline=None)
    @given(basis_pairs())
    def test_matches_scipy_subspace_angles(self, pair):
        a, b, largest = pair
        angle = max_principal_angle(a, b)
        reference = float(np.max(scipy.linalg.subspace_angles(a.columns, b.columns)))
        assert abs(angle - reference) <= 1e-12
        assert abs(angle - largest) <= 1e-12

    def test_larger_candidate_is_not_contained(self):
        # span(a) lies inside span(b), but span(b) does not lie inside span(a)
        a, b = SubspaceBasis(np.eye(3)[:, :1]), SubspaceBasis(np.eye(3)[:, :2])
        assert max_principal_angle(a, b) == np.pi / 2
        assert max_principal_angle(b, a) == 0.0

    def test_zero_candidate_is_contained(self):
        zero = SubspaceBasis.zero(3)
        assert max_principal_angle(SubspaceBasis(np.eye(3)[:, :2]), zero) == 0.0
        assert max_principal_angle(zero, zero) == 0.0
        assert max_principal_angle(zero, SubspaceBasis(np.eye(3)[:, :1])) == np.pi / 2


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
