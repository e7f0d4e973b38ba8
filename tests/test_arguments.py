"""Argument bounds of the library: each out-of-range, non-finite or
non-integer value is refused with an ArgumentError naming the parameter,
before any precondition or numerical work."""

import math

import numpy as np
import pytest

from krein_spectra import (
    ArgumentError,
    KreinError,
    KreinOperator,
    KreinSpace,
    Region,
    local_spectral_function,
    pole_order,
    projections,
    resolvent_probe,
    run_suite,
    verify_maximality,
)
from krein_spectra.classification import clustering, spectral_point
from krein_spectra.projections import verify_lsf_family


def probe_operator():
    return KreinOperator(np.diag([1.0, 2.0, 3 + 1j]), KreinSpace(np.diag([1.0, -1.0, 1.0])))


def carrier_lsf():
    return local_spectral_function(probe_operator(), Region.disk(1.0, 0.4))


CASES = {
    # a NaN radius gave a (nan, 0.0) row and a c_estimate of 0.0
    "probe-radius-nan": ("radii", lambda: resolvent_probe(probe_operator(), 1.0, [math.nan])),
    "probe-radius-infinite": ("radii", lambda: resolvent_probe(probe_operator(), 1.0, [math.inf])),
    "probe-radii-nan-tail": (
        "radii", lambda: resolvent_probe(probe_operator(), 1.0, [0.4, math.nan])
    ),
    "probe-radii-empty": ("radii", lambda: resolvent_probe(probe_operator(), 1.0, [])),
    "probe-samples-float": (
        "samples_per_radius",
        lambda: resolvent_probe(probe_operator(), 1.0, [0.4], samples_per_radius=2.5),
    ),
    "probe-samples-bool": (
        "samples_per_radius",
        lambda: resolvent_probe(probe_operator(), 1.0, [0.4], samples_per_radius=True),
    ),
    "probe-samples-zero": (
        "samples_per_radius",
        lambda: resolvent_probe(probe_operator(), 1.0, [0.4], samples_per_radius=0),
    ),
    # refused before the point is located: 5.0 is no spectral point
    "probe-radius-before-point": ("radii", lambda: resolvent_probe(probe_operator(), 5.0, [-1])),
    # the operator has three clusters: -1 named the last, 3 raised a bare IndexError
    "spectral-point-negative": ("index", lambda: spectral_point(probe_operator(), -1)),
    "spectral-point-beyond": ("index", lambda: spectral_point(probe_operator(), 3)),
    "pole-order-negative": ("index", lambda: pole_order(probe_operator(), -1)),
    "pole-order-beyond": ("index", lambda: pole_order(probe_operator(), 3)),
    "maximality-seed-negative": ("seed", lambda: verify_maximality(carrier_lsf(), seed=-1)),
    "maximality-seed-float": ("seed", lambda: verify_maximality(carrier_lsf(), seed=0.5)),
    "maximality-subspaces-zero": (
        "n_subspaces", lambda: verify_maximality(carrier_lsf(), n_subspaces=0)
    ),
    "lsf-family-seed-negative": ("seed", lambda: verify_lsf_family(carrier_lsf(), 4, -1)),
    "lsf-family-subspaces-bool": ("n_subspaces", lambda: verify_lsf_family(carrier_lsf(), True, 0)),
    "suite-trials-float": ("trials", lambda: run_suite(2.5, 0)),
    "suite-trials-bool": ("trials", lambda: run_suite(True, 0)),
    "suite-seed-float": ("seed", lambda: run_suite(1, 1.5)),
    "suite-dims-float": ("dims", lambda: run_suite(1, 0, dims=(2, 2.5))),
    "suite-dims-reversed": ("dims", lambda: run_suite(1, 0, dims=(3, 2))),
    "suite-dims-not-a-pair": ("dims", lambda: run_suite(1, 0, dims=(2, 3, 4))),
    "suite-cond-bound-nan": ("cond_bound", lambda: run_suite(1, 0, cond_bound=math.nan)),
    "suite-only-trial-float": ("only_trial", lambda: run_suite(2, 0, only_trial=0.5)),
    "suite-only-trial-beyond": ("only_trial", lambda: run_suite(2, 0, only_trial=2)),
}


@pytest.mark.parametrize("argument, call", CASES.values(), ids=CASES.keys())
def test_bad_argument_raises_argument_error(argument, call):
    with pytest.raises(ArgumentError) as exc:
        call()
    assert exc.value.argument == argument
    assert str(exc.value).startswith(f"{argument}: ")
    # callers catching either family keep working
    assert isinstance(exc.value, ValueError) and isinstance(exc.value, KreinError)


def test_lsf_family_checks_its_arguments_before_the_axioms(monkeypatch):
    lsf = carrier_lsf()
    monkeypatch.setattr(
        projections, "verify_lsf_axioms", lambda *a, **k: pytest.fail("the axioms ran first")
    )
    with pytest.raises(ArgumentError):
        verify_lsf_family(lsf, 0, 0)


def test_refused_cluster_index_caches_no_point():
    n = probe_operator()
    last = spectral_point(n, 2)
    with pytest.raises(ArgumentError):
        spectral_point(n, -1)
    assert set(clustering(n).points) == {2}
    assert clustering(n).points[2] is last
