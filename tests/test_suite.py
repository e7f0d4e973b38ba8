"""Trial-battery semantics: strict regime is all-pass, the conditioning
study beyond it may warn but never fail."""

import dataclasses
import warnings

import numpy as np
import pytest

from krein_spectra import ArgumentError, classification, projections, run_suite, suite
from krein_spectra.core import SubspaceBasis
from krein_spectra.report import CheckStatus
from krein_spectra.suite import run_trial


class TestRunSuite:
    def test_strict_regime_is_clean(self):
        report = run_suite(trials=25, seed=123, dims=(2, 10), cond_bound=1e3)
        counts = report.counts
        assert counts["fail"] == 0
        assert counts["warning"] == 0
        assert counts["pass"] > 0

    def test_conditioning_study_warns_without_failing(self):
        report = run_suite(trials=10, seed=123, dims=(2, 8), cond_bound=1e9)
        assert report.counts["fail"] == 0

    def test_every_failure_would_carry_a_repro(self):
        report = run_suite(trials=5, seed=1, dims=(2, 6))
        for entry in report.entries:
            if entry.status is CheckStatus.FAIL:
                assert entry.repro

    def test_negative_seed_is_refused(self):
        with pytest.raises(ValueError, match="seed"):
            run_suite(trials=2, seed=-1)

    def test_trial_index_validation(self):
        with pytest.raises(ArgumentError, match=r"^only_trial: .* in \[0, 1\], got 5$"):
            run_suite(trials=2, seed=1, only_trial=5)
        with pytest.raises(ArgumentError, match="^trials: "):
            run_suite(trials=0, seed=1)

    @pytest.mark.parametrize("cond_bound", [float("nan"), float("inf")])
    def test_cond_bound_validation(self, cond_bound):
        with pytest.raises(ValueError, match="cond_bound"):
            run_suite(trials=2, seed=0, cond_bound=cond_bound)

    @pytest.mark.parametrize("dims", [(150, 150), (2, 1000)])
    def test_dimension_bound(self, dims):
        with pytest.raises(ArgumentError, match="^dims: "):
            run_suite(trials=1, seed=0, dims=dims)

    @pytest.mark.parametrize("dims", [(150, 150), (2, 1000), (0, 3)])
    def test_single_trial_dimension_bound(self, dims):
        # a trial run alone refuses what run_suite refuses, before generating
        with pytest.raises(ArgumentError, match="^dims: "):
            run_trial(0, 0, dims, 1e3)

    def test_trials_run_in_index_order(self):
        report = run_suite(trials=4, seed=2, dims=(2, 6))
        trials = [entry.trial for entry in report.entries]
        assert sorted(set(trials)) == [0, 1, 2, 3]
        assert trials == sorted(trials)

    def test_repeat_runs_match(self):
        first = run_suite(trials=4, seed=2, dims=(2, 6))
        second = run_suite(trials=4, seed=2, dims=(2, 6))
        assert first.to_json() == second.to_json()


class TestResolventChecks:
    # at cond 1e9 the clustering radius, below which the probe refuses a
    # radius, can reach the checks' smaller radii (down to 5 % of min_gap)

    @pytest.mark.parametrize("trial", [0, 1, 12])
    def test_probe_floor_does_not_void_the_group(self, trial):
        entries = run_trial(trial, 0, (2, 12), 1e9)
        refusals = [e.detail for e in entries if e.name == "resolvent-refused"]
        assert not any(d.startswith("ArgumentError") for d in refusals), refusals

    def test_undecidable_pole_order_keeps_the_bound(self):
        # trial 0's isolating circle passes within the boundary gap of the
        # spectrum: the pole order is undecidable, the radius table is not
        entries = {e.name: e for e in run_trial(0, 0, (2, 12), 1e9)}
        assert "resolvent-refused" not in entries
        assert entries["resolvent-bound"].status is CheckStatus.PASS
        assert entries["pole-order-definite"].status is CheckStatus.WARNING

    def test_rounding_level_samples_are_discarded(self):
        # at trial 144 one sample of the first radius has sigma_min exactly
        # 0.0, and every sample below that radius has sigma_min at the
        # rounding level of ||N - z||: all are discarded, none divided by,
        # and the bound is skipped
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            entries = {e.name: e for e in run_trial(144, 0, (2, 12), 1e9)}
        bound = entries["resolvent-bound"]
        assert bound.status is CheckStatus.WARNING
        assert bound.detail.endswith("and keep a sample off the spectrum")

    def test_bound_skipped_below_two_radii_names_the_floor(self):
        entries = {e.name: e for e in run_trial(1, 0, (2, 12), 1e9)}
        bound = entries["resolvent-bound"]
        assert bound.status is CheckStatus.WARNING
        assert "radius floor" in bound.detail
        assert "pole-order-definite" in entries

    def test_no_probe_below_two_radii(self, monkeypatch):
        # at trial 1 fewer than two radii lie above the probe's floor: the
        # bound is skipped without sampling, and the pole order needs no sample
        calls = []
        sigma_min = projections.smallest_singular_values
        monkeypatch.setattr(
            projections, "smallest_singular_values", lambda *a: calls.append(1) or sigma_min(*a)
        )
        entries = {e.name: e for e in run_trial(1, 0, (2, 12), 1e9)}
        assert not entries["resolvent-bound"].detail.endswith("off the spectrum")
        assert calls == []

    @pytest.mark.parametrize(
        "planted, failing", [(2, "pole-order-definite"), (1, "pole-order-jordan")]
    )
    def test_planted_pole_order_fails_its_check(self, monkeypatch, planted, failing):
        # trial 0 has a two-sided positive point and a 2 x 2 Jordan cell
        monkeypatch.setattr(suite, "pole_order", lambda N, index: planted)
        entries = {e.name: e for e in run_trial(0, 0, (2, 12), 1e3)}
        assert entries[failing].status is CheckStatus.FAIL
        assert entries[failing].residual == planted


def test_kernels_extracted_once_per_operator_and_cluster(monkeypatch):
    # every check group and every library call on a trial's operators reads
    # the points classified on the operator instead of extracting them again
    extracted = []  # (operator, cluster index); holding N keeps its id unique
    original = classification._cluster_kernels

    def counting(N, clusters, index):
        extracted.append((N, index))
        return original(N, clusters, index)

    monkeypatch.setattr(classification, "_cluster_kernels", counting)
    for trial in range(24):
        run_trial(trial, 0, (2, 12), 1e2)
    keys = [(id(N), index) for N, index in extracted]
    assert len({id(N) for N, _ in extracted}) > 24  # perturbed operators count too
    assert len(keys) == len(set(keys))


def with_foreign_direction(basis):
    """``basis`` grown by one unit vector orthogonal to its span."""
    complement = np.eye(basis.dim) - basis.projector()
    j = int(np.argmax(np.linalg.norm(complement, axis=0)))
    extra = complement[:, j : j + 1] / np.linalg.norm(complement[:, j])
    return SubspaceBasis(np.hstack([basis.columns, extra]))


class TestPlantedFaults:
    """Each fault is planted in one producer a suite check reads, and the
    check must FAIL on trial 25 of seed 0: a strict trial of a strongly
    stable operator with a two-sided positive point, so that every group,
    the local spectral function and the fundamental decomposition
    included, runs on it."""

    @staticmethod
    def entries():
        entries = {e.name: e for e in run_trial(25, 0, (2, 12), 1e3)}
        assert {"stability-parts-complete", "lsf-maximality"} <= set(entries)
        return entries

    def test_unplanted_trial_passes(self):
        assert all(e.status is CheckStatus.PASS for e in self.entries().values())

    def test_root_subspace_beyond_the_kernel_fails_kernel_coincidence(self, monkeypatch):
        # a root subspace one direction larger than the kernel at a definite
        # point: a Jordan chain where none may exist
        root_subspace = suite.root_subspace

        def grown(N, pt):
            return with_foreign_direction(root_subspace(N, pt))

        monkeypatch.setattr(suite, "root_subspace", grown)
        entry = self.entries()["kernel-coincidence"]
        assert entry.status is CheckStatus.FAIL
        assert entry.residual == pytest.approx(np.pi / 2)

    def test_contour_off_by_1e_5_fails_contour_oracle_agreement(self, monkeypatch):
        contour = suite.riesz_projection_contour

        def scaled(N, region):
            result = contour(N, region)
            return dataclasses.replace(result, matrix=(1 + 1e-5) * result.matrix)

        monkeypatch.setattr(suite, "riesz_projection_contour", scaled)
        entry = self.entries()["contour-oracle-agreement"]
        assert entry.status is CheckStatus.FAIL
        assert entry.residual == pytest.approx(1e-5, rel=1e-3)

    def test_kernel_span_with_a_foreign_direction_fails_both_readers(self, monkeypatch):
        kernel_span = projections._kernel_span
        monkeypatch.setattr(
            projections,
            "_kernel_span",
            lambda points, dim, rank_tol: with_foreign_direction(
                kernel_span(points, dim, rank_tol)
            ),
        )
        entries = self.entries()
        for name in ("stability-parts-complete", "lsf-maximality"):
            assert entries[name].status is CheckStatus.FAIL, name
        assert entries["lsf-maximality"].residual == np.pi / 2

    def test_kernel_span_missing_a_direction_fails_completeness(self, monkeypatch):
        # a span one direction short is still inside the carrier's range, so
        # only the fundamental decomposition can notice it
        kernel_span = projections._kernel_span
        monkeypatch.setattr(
            projections,
            "_kernel_span",
            lambda points, dim, rank_tol: SubspaceBasis(
                kernel_span(points, dim, rank_tol).columns[:, 1:]
            ),
        )
        entries = self.entries()
        assert entries["stability-parts-complete"].status is CheckStatus.FAIL
        assert entries["lsf-maximality"].status is CheckStatus.PASS

