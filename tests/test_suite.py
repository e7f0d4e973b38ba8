"""Trial-battery semantics: strict regime is all-pass, the conditioning
study beyond it may warn but never fail."""

import pytest

from krein_spectra import ArgumentError, classification, run_suite
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

    def test_bound_skipped_below_two_radii_names_the_floor(self):
        entries = {e.name: e for e in run_trial(1, 0, (2, 12), 1e9)}
        bound = entries["resolvent-bound"]
        assert bound.status is CheckStatus.WARNING
        assert "radius floor" in bound.detail
        assert "pole-order-definite" in entries


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
