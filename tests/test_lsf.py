"""Local spectral function construction, axioms, and maximality.

Reference: diag(1,2,3i) against diag(1,1,-1) carries a positive carrier
disk(1.5, 1) holding the eigenvalues 1 and 2; evaluation at disk(1, 0.2)
must return diag(1,0,0).
"""

import numpy as np
import pytest

from krein_spectra import (
    CheckStatus,
    DefinitenessKind,
    GeneratorSpec,
    KreinOperator,
    KreinSpace,
    PreconditionError,
    Region,
    ToleranceConfig,
    build_normal_with_types,
    local_spectral_function,
    riesz_projection_oracle,
    root_subspace,
    sample_generator_spec,
    verify_lsf_axioms,
    verify_maximality,
    verify_spectral_set_theorem,
)
from krein_spectra import classification, cli, numerics, projections
from krein_spectra.classification import clustering, invariant_subspace
from krein_spectra.core import frobenius, krein_adjoint
from krein_spectra.documents import OperatorDocument, load_operator_document

from test_schur_route import congruent


def carrier_operator():
    space = KreinSpace(np.diag([1.0, 1.0, -1.0]))
    return KreinOperator(np.diag([1.0, 2.0, 3.0j]), space)


def plant(n, values, projector):
    """Replace the oracle projection of the clusters at ``values``, cached
    in the operator's clustering, by ``projector``; every other cluster
    set keeps its own.  Every reader of that set sees the planted result."""
    clusters = clustering(n)
    indices = frozenset(
        i for i, v in enumerate(clusters.values) if any(abs(v - w) < 1e-12 for w in values)
    )
    assert len(indices) == len(values)
    q = np.asarray(projector, dtype=np.complex128)
    clusters.projections[indices] = projections._make_result(q, n)


def corrupt(lsf, value, projector):
    """Replace the evaluated projection of the cluster at ``value`` by
    ``projector``; unions containing the cluster keep their own."""
    plant(lsf.operator, [value], projector)


def corrupted_carrier_lsf(projector):
    """The local spectral function of diag(1, 1, 3) against diag(1, 1, -1) on
    disk(1, 0.5), with the projection of the double eigenvalue 1 replaced by
    ``projector``, and its axiom report and maximality entry."""
    n = KreinOperator(np.diag([1.0, 1.0, 3.0]), KreinSpace(np.diag([1.0, 1.0, -1.0])))
    carrier = Region.disk(1.0, 0.5)
    lsf = local_spectral_function(n, carrier)
    corrupt(lsf, 1.0, projector)
    m = n.matrix
    deltas = [Region.disk(1.0, 0.25), carrier, Region.empty()]
    report = verify_lsf_axioms(lsf, deltas, [np.eye(3), m, n.adjoint, m @ m])
    entries = {e.name: e for e in report.entries}
    entries["lsf-maximality"] = verify_maximality(lsf, carrier)
    return entries


def count_decompositions(monkeypatch):
    """Record every ordered Schur decomposition made through the modules
    that may decompose an operator's Schur form."""
    calls = []
    decompose = numerics.ordered_spectral_decomposition

    def counting(*args):
        calls.append(args[2])
        return decompose(*args)

    for module in (classification, projections):
        if hasattr(module, "ordered_spectral_decomposition"):
            monkeypatch.setattr(module, "ordered_spectral_decomposition", counting)
    return calls


def generated_with_carrier(rng, dim=6):
    """Generated operator together with a carrier of its positive points."""
    while True:
        gen = build_normal_with_types(sample_generator_spec(rng, dim))
        tsp = [
            t for t in gen.ground_truth
            if t.expected_type.value == "two-sided-positive"
        ]
        if not tsp:
            continue
        values = [t.value for t in gen.ground_truth]
        gap = min(
            (abs(a - b) for i, a in enumerate(values) for b in values[i + 1 :]),
            default=2.0,
        )
        radius = 0.4 * gap
        carrier = Region(
            tuple(
                piece
                for t in tsp
                for piece in Region.disk(t.value, radius).pieces
            )
        )
        return gen, carrier, tsp, radius


def family(lsf, tsp, radius):
    """The deltas and commutants of ``verify_lsf_family``."""
    deltas = [Region.disk(t.value, 0.5 * radius) for t in tsp]
    if len(deltas) >= 2:
        deltas.append(deltas[0].union(deltas[1]))
    deltas += [lsf.carrier, Region.empty()]
    m = lsf.operator.matrix
    return deltas, [np.eye(len(m)), m, lsf.operator.adjoint, m @ m]


class TestConstruction:
    def test_rejects_non_positive_carrier(self):
        n = carrier_operator()
        with pytest.raises(PreconditionError, match="offenders"):
            local_spectral_function(n, Region.disk(3.0j, 0.5))

    def test_empty_set_gives_zero(self):
        n = carrier_operator()
        lsf = local_spectral_function(n, Region.disk(1.5, 1.0))
        assert frobenius(lsf.evaluate(Region.empty()).matrix) == 0.0

    def test_covering_set_gives_sum_of_projections(self):
        n = carrier_operator()
        lsf = local_spectral_function(n, Region.disk(1.5, 1.0))
        full = lsf.evaluate(Region.disk(1.5, 1.0))
        np.testing.assert_allclose(full.matrix, np.diag([1.0, 1.0, 0.0]), atol=1e-10)

    def test_reference_evaluation(self):
        n = carrier_operator()
        lsf = local_spectral_function(n, Region.disk(1.5, 1.0))
        result = lsf.evaluate(Region.disk(1.0, 0.2))
        np.testing.assert_allclose(result.matrix, np.diag([1.0, 0.0, 0.0]), atol=1e-10)

    def test_rejects_subset_leaving_carrier(self):
        n = carrier_operator()
        lsf = local_spectral_function(n, Region.disk(1.5, 1.0))
        with pytest.raises(PreconditionError, match="outside the carrier"):
            lsf.evaluate(Region.disk(3.0j, 0.5))

    def test_evaluation_cache_is_write_once(self):
        n = carrier_operator()
        lsf = local_spectral_function(n, Region.disk(1.5, 1.0))
        a = lsf.evaluate(Region.disk(1.0, 0.2))
        b = lsf.evaluate(Region.disk(1.0, 0.3))
        assert a is b

    def test_depends_only_on_enclosed_eigenvalues(self):
        n = carrier_operator()
        lsf = local_spectral_function(n, Region.disk(1.5, 1.0))
        disk = lsf.evaluate(Region.disk(2.0, 0.3)).matrix
        rect = lsf.evaluate(Region.rectangle(1.7, -0.3, 2.3, 0.3)).matrix
        np.testing.assert_allclose(disk, rect, atol=1e-12)

    def test_cluster_projector_and_invariant_subspace_share_a_decomposition(
        self, monkeypatch
    ):
        calls = count_decompositions(monkeypatch)
        lsf = local_spectral_function(carrier_operator(), Region.disk(1.5, 1.0))
        indices = lsf.indices_in(Region.disk(1.0, 0.2))
        projector = lsf.cluster_projector(indices)
        subspace = invariant_subspace(lsf.operator, indices)
        assert len(calls) == 1
        np.testing.assert_allclose(subspace.projector(), projector, atol=1e-12)

    def test_oracle_root_subspace_and_lsf_share_a_decomposition(self, monkeypatch):
        calls = count_decompositions(monkeypatch)
        n = carrier_operator()
        lsf = local_spectral_function(n, Region.disk(1.5, 1.0))
        region = Region.disk(1.0, 0.2)
        indices = lsf.indices_in(region)
        oracle = riesz_projection_oracle(n, region)
        root = root_subspace(n, lsf.selected_points(indices)[0])
        subspace = invariant_subspace(n, indices)
        assert len(calls) == 1
        for basis in (root, subspace):
            np.testing.assert_allclose(basis.projector(), oracle.matrix, atol=1e-12)

    def test_oracle_lsf_and_theorem_share_one_result(self, monkeypatch):
        # one cluster set, three readers: one ordered decomposition, one
        # result built, and the same object returned to each
        calls = count_decompositions(monkeypatch)
        made = []
        make_result = projections._make_result
        monkeypatch.setattr(
            projections, "_make_result", lambda *args: made.append(1) or make_result(*args)
        )
        n = carrier_operator()
        region = Region.disk(1.0, 0.2)
        oracle = riesz_projection_oracle(n, region)
        lsf = local_spectral_function(n, Region.disk(1.5, 1.0))
        assert lsf.evaluate(region) is oracle
        report = verify_spectral_set_theorem(n, region)
        assert not report.failed and report.entries
        assert riesz_projection_oracle(n, Region.rectangle(0.8, -0.2, 1.2, 0.2)) is oracle
        assert len(calls) == 1 and len(made) == 1
        assert not oracle.matrix.flags.writeable

    def test_empty_set_needs_no_range_or_adjoint(self, monkeypatch):
        lsf = local_spectral_function(carrier_operator(), Region.disk(1.5, 1.0))

        def refuse(*args):
            raise AssertionError("the empty set's zero projection needs no factorization")

        monkeypatch.setattr(projections, "range_basis", refuse)
        monkeypatch.setattr(projections, "krein_adjoint", refuse)
        result = lsf.evaluate(Region.empty())
        assert result.rank == 0 and frobenius(result.matrix) == 0.0
        assert result.gram_margin.kind is DefinitenessKind.ZERO

    def test_chained_cluster_projector_has_full_rank(self):
        # the cluster 1.0 .. 1.6 (radius 0.18) has its mean 1.3 farther from
        # 1.6 than the foreign eigenvalue 1.8 is
        n = KreinOperator(
            np.diag([1.0, 1.15, 1.3, 1.45, 1.6, 1.8]),
            KreinSpace.euclidean(6),
            ToleranceConfig(cluster_tol=0.1),
        )
        E = local_spectral_function(n, Region.disk(1.4, 1.0))
        assert [E.evaluate_indices(frozenset({i})).rank for i in range(2)] == [5, 1]


class TestAxioms:
    def test_all_axioms_pass_on_generated_instances(self):
        rng = np.random.default_rng(40)
        for _ in range(8):
            gen, carrier, tsp, radius = generated_with_carrier(rng)
            lsf = local_spectral_function(gen.operator, carrier)
            report = verify_lsf_axioms(lsf, *family(lsf, tsp, radius))
            failures = [e for e in report.entries if e.status is CheckStatus.FAIL]
            assert not failures, failures
            for e in report.entries:
                if e.residual is not None and e.tolerance:
                    assert e.residual <= e.tolerance

    def test_family_is_the_disks_their_union_the_carrier_and_the_empty_set(self):
        n = carrier_operator()
        carrier = Region.disk(1.5, 1.0)
        report = projections.verify_lsf_family(
            local_spectral_function(n, carrier), 0.25, n_subspaces=4, seed=7
        )
        lsf = local_spectral_function(n, carrier)
        deltas = [Region.disk(1.0, 0.25), Region.disk(2.0, 0.25)]
        deltas += [deltas[0].union(deltas[1]), carrier, Region.empty()]
        m = n.matrix
        want = verify_lsf_axioms(lsf, deltas, [np.eye(3), m, n.adjoint, m @ m]).entries
        want.append(verify_maximality(lsf, carrier, n_subspaces=4, seed=7))
        assert [e.to_json_dict() for e in report.entries] == [e.to_json_dict() for e in want]
        assert report.parameters == {"carrier": carrier.describe(), "deltas": 5}
        assert not report.failed

    def test_disjoint_subsets_multiply_to_zero(self):
        n = carrier_operator()
        lsf = local_spectral_function(n, Region.disk(1.5, 1.0))
        q1 = lsf.evaluate(Region.disk(1.0, 0.2)).matrix
        q2 = lsf.evaluate(Region.disk(2.0, 0.2)).matrix
        assert frobenius(q1 @ q2) <= 1e-12

    def test_rank_additivity_over_disjoint_union(self):
        n = carrier_operator()
        lsf = local_spectral_function(n, Region.disk(1.5, 1.0))
        d1, d2 = Region.disk(1.0, 0.2), Region.disk(2.0, 0.2)
        union = lsf.evaluate(d1.union(d2))
        assert union.rank == lsf.evaluate(d1).rank + lsf.evaluate(d2).rank

    @pytest.mark.parametrize(
        "oblique",
        [
            [[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
            # its sum with E({2}) is again idempotent, so a union built from
            # the summands would match the sum exactly
            [[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        ],
    )
    def test_union_projection_is_not_built_from_its_summands(self, oblique):
        # an oblique idempotent in place of E({1}): the union keeps its own
        # projection diag(1, 1, 0), so the sum no longer matches it
        n = carrier_operator()
        lsf = local_spectral_function(n, Region.disk(1.5, 1.0))
        corrupt(lsf, 1.0, oblique)
        deltas = [Region.disk(1.0, 0.2), Region.disk(2.0, 0.2)]
        report = verify_lsf_axioms(lsf, deltas, [np.eye(3)])
        entry = next(e for e in report.entries if e.name == "lsf-additivity")
        assert entry.status is CheckStatus.FAIL


class TestPlantedFaults:
    """A corrupted result planted in the clustering's cache, where every
    reader of its cluster set finds it, must fail the check that reads it."""

    def test_multiplicativity_fails_on_a_corrupted_union(self):
        # E({1, 2}) = diag(1, 0, 0): E({2}) E({1, 2}) = 0 is not E({2})
        n = carrier_operator()
        plant(n, [1.0, 2.0], np.diag([1.0, 0.0, 0.0]))
        lsf = local_spectral_function(n, Region.disk(1.5, 1.0))
        deltas = [Region.disk(2.0, 0.2), Region.disk(1.5, 1.0)]
        report = verify_lsf_axioms(lsf, deltas, [np.eye(3)])
        entry = next(e for e in report.entries if e.name == "lsf-multiplicativity")
        assert entry.status is CheckStatus.FAIL

    def test_restriction_spectrum_fails_on_a_foreign_range(self):
        # E({1}) = diag(0, 1, 0) has its range in the eigenspace of 2
        n = carrier_operator()
        plant(n, [1.0], np.diag([0.0, 1.0, 0.0]))
        lsf = local_spectral_function(n, Region.disk(1.5, 1.0))
        report = verify_lsf_axioms(lsf, [Region.disk(1.0, 0.2)], [np.eye(3)])
        entry = next(e for e in report.entries if e.name == "lsf-restriction-spectrum")
        assert entry.status is CheckStatus.FAIL
        assert entry.residual == pytest.approx(np.pi / 2)

    def test_spectral_set_projection_selfadjoint_fails_on_an_oblique_projection(self):
        # an oblique idempotent with the right range: the theorem reads the
        # planted result instead of building its own
        n = carrier_operator()
        plant(n, [1.0], [[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        report = verify_spectral_set_theorem(n, Region.disk(1.0, 0.2))
        entry = next(e for e in report.entries if e.name == "projection-selfadjoint")
        assert entry.status is CheckStatus.FAIL

    def test_commutant_invariance_fails_on_a_result_missing_a_commutant(self):
        # E({1}) = diag(1, 0, 0) commutes with N = diag(1, 1, 3) but not with B,
        # which maps e2 to e1 inside the eigenspace of 1 and so commutes with N
        n = KreinOperator(np.diag([1.0, 1.0, 3.0]), KreinSpace(np.diag([1.0, 1.0, -1.0])))
        plant(n, [1.0], np.diag([1.0, 0.0, 0.0]))
        lsf = local_spectral_function(n, Region.disk(1.0, 0.5))
        b = np.zeros((3, 3))
        b[0, 1] = 1.0
        assert frobenius(b @ n.matrix - n.matrix @ b) == 0.0
        report = verify_lsf_axioms(lsf, [Region.disk(1.0, 0.25)], [np.eye(3), n.matrix, b])
        entry = next(e for e in report.entries if e.name == "lsf-commutant-invariance")
        assert entry.status is CheckStatus.FAIL and entry.detail == ""

    def test_selfadjoint_commuting_fails_on_an_oblique_result(self):
        # an oblique idempotent inside the eigenspace of 1: it commutes with N
        # and N+, so only its own selfadjointness residual can fail it
        n = KreinOperator(np.diag([1.0, 1.0, 3.0]), KreinSpace(np.diag([1.0, 1.0, -1.0])))
        plant(n, [1.0], [[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        lsf = local_spectral_function(n, Region.disk(1.0, 0.5))
        m = n.matrix
        report = verify_lsf_axioms(lsf, [Region.disk(1.0, 0.25)], [np.eye(3), m, n.adjoint, m @ m])
        entries = {e.name: e for e in report.entries}
        assert entries["lsf-projection-selfadjoint-commuting"].status is CheckStatus.FAIL
        assert entries["lsf-commutant-invariance"].status is CheckStatus.PASS


def plain_residuals(lsf, deltas, commutants, tol=1e-8):
    """The residuals of the multiplicativity, commutant and
    selfadjoint-commuting checks of ``verify_lsf_axioms``, recomputed by the
    plain formulas: every product formed, no number reused."""
    n = lsf.operator
    results = {ix: lsf.evaluate_indices(ix) for ix in map(lsf.indices_in, deltas) if ix}
    mult = 0.0
    for ix, res in results.items():
        for jx, other in results.items():
            gap = frobenius(lsf.evaluate_indices(ix & jx).matrix - res.matrix @ other.matrix)
            mult = max(mult, gap / max(1.0, frobenius(res.matrix) * frobenius(other.matrix)))
    comm = 0.0
    for b in commutants:
        b = np.asarray(b, dtype=np.complex128)
        b_scale = max(1.0, frobenius(b))
        if frobenius(b @ n.matrix - n.matrix @ b) / (b_scale * n.scale) > tol:
            continue
        for res in results.values():
            q = res.matrix
            comm = max(comm, frobenius(q @ b - b @ q) / (b_scale * max(1.0, frobenius(q))))
    selfadj = 0.0
    for res in results.values():
        q = res.matrix
        q_scale = max(1.0, frobenius(q))
        selfadj = max(
            selfadj,
            frobenius(krein_adjoint(q, n.space) - q) / q_scale,
            frobenius(q @ n.matrix - n.matrix @ q) / (q_scale * n.scale),
            frobenius(q @ n.adjoint - n.adjoint @ q) / (q_scale * n.scale),
        )
    return {
        "lsf-multiplicativity": mult,
        "lsf-commutant-invariance": comm,
        "lsf-projection-selfadjoint-commuting": selfadj,
    }


class TestReusedResiduals:
    """The axiom check reuses numbers it already has; each equals, bit for
    bit, what the plain formula gives."""

    @pytest.mark.parametrize("gram", ["signed-involution", "congruent"])
    def test_reported_residuals_equal_the_plain_formulas(self, gram):
        rng = np.random.default_rng(42)
        for i in range(6):
            gen, carrier, tsp, radius = generated_with_carrier(rng, dim=8)
            n = gen.operator
            if gram == "congruent":
                n = congruent(n, np.random.default_rng([42, i]))
                assert n.space._involution is None
            else:
                assert n.space._involution is not None
            lsf = local_spectral_function(n, carrier)
            deltas, commutants = family(lsf, tsp, radius)
            # a commutant that does not commute with N is skipped alike
            commutants.append(np.diag(np.arange(n.dim, dtype=float)))
            # each commutant alone, so that none hides behind a larger residual
            for chosen in [[b] for b in commutants] + [commutants]:
                report = verify_lsf_axioms(lsf, deltas, chosen)
                entries = {e.name: e for e in report.entries}
                for name, residual in plain_residuals(lsf, deltas, chosen).items():
                    assert entries[name].residual == residual, name

    def test_family_forms_three_commutators_and_lsf_verify_no_solve(self, monkeypatch, tmp_path):
        # one carrier cluster: the family reads one result, and of its
        # commutators only N^2 N - N N^2, Q N^2 - N^2 Q and Q N+ - N+ Q need
        # products (with N^2 itself, 7 products); nothing is solved
        gen = build_normal_with_types(
            GeneratorSpec(
                signature=(6, 4),
                positive_type_eigs=((1.0, 4),),
                negative_type_eigs=((3.0, 2),),
                neutral_pairs=((2.0j, -2.0j),),
                neutral_jordan=(-1.0,),
                cond_bound=10.0,
            )
        )
        path = tmp_path / "op.json"
        path.write_text(
            OperatorDocument(dim=10, gram=gen.space.gram, matrix=gen.operator.matrix).to_json()
        )
        solves, commutators = [], []
        solve, commutator_norm = np.linalg.solve, projections.commutator_norm
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(1) or solve(a, b))
        argv = ["lsf-verify", str(path), "--disk=1,0,0.5", "--json", "-o", str(tmp_path / "lsf.json")]
        assert cli.main(argv) == 0
        assert not solves
        n = load_operator_document(str(path)).build()
        lsf = local_spectral_function(n, Region.disk(1.0, 0.5))
        lsf.evaluate(lsf.carrier)
        monkeypatch.setattr(
            projections, "commutator_norm", lambda a, b: commutators.append(1) or commutator_norm(a, b)
        )
        assert not projections.verify_lsf_family(lsf, 0.25, n_subspaces=4, seed=0).failed
        assert len(commutators) == 3


class TestCorruptedProjector:
    def test_projector_of_too_small_rank_fails(self):
        # the rank-1 projector onto e1 in place of the rank-2 one of eigenvalue 1
        entries = corrupted_carrier_lsf(np.diag([1.0, 0.0, 0.0]))
        for name in ("lsf-complement-spectrum", "lsf-maximality"):
            assert entries[name].status is CheckStatus.FAIL
            assert entries[name].residual == np.pi / 2

    def test_uniform_positivity_reports_offending_margin(self):
        # the projector onto the negative direction e3
        entry = corrupted_carrier_lsf(np.diag([0.0, 0.0, 1.0]))["lsf-uniform-positivity"]
        assert entry.status is CheckStatus.FAIL
        assert entry.residual == pytest.approx(-1.0)
        assert "uniformly-negative" in entry.detail


class TestMaximality:
    def test_random_invariant_subspaces_contained(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            gen, carrier, _, _ = generated_with_carrier(rng)
            lsf = local_spectral_function(gen.operator, carrier)
            entry = verify_maximality(lsf, carrier, n_subspaces=20, seed=7)
            assert entry.status is CheckStatus.PASS
            assert entry.residual <= 1e-8
