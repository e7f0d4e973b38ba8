"""Trial-battery semantics: strict regime is all-pass, the conditioning
study beyond it may warn but never fail."""

import pytest

from krein_spectra import ToleranceConfig, classification, run_suite
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

    def test_trial_index_validation(self):
        with pytest.raises(ValueError, match="outside range"):
            run_suite(trials=2, seed=1, only_trial=5)
        with pytest.raises(ValueError, match="trials"):
            run_suite(trials=0, seed=1)

    def test_parallel_matches_serial(self):
        serial = run_suite(trials=4, seed=2, dims=(2, 6), threads=1)
        parallel = run_suite(trials=4, seed=2, dims=(2, 6), threads=4)
        assert serial.to_json() == parallel.to_json()


def test_spectrum_runs_once_per_operator(monkeypatch):
    # every check group and every library call on a trial's operators reads
    # the classification cached on the operator instead of recomputing it
    operators = []
    original = classification.spectrum

    def counting_spectrum(N, cfg=ToleranceConfig()):
        operators.append(N)
        return original(N, cfg)

    monkeypatch.setattr(classification, "spectrum", counting_spectrum)
    for trial in range(24):
        run_trial(trial, 0, (2, 12), 1e2)
    distinct = {id(N) for N in operators}
    assert len(distinct) > 24  # perturbed operators of stable trials count too
    assert len(operators) == len(distinct)
