"""Shared trial bank for the acceptance criteria, and shared operators.

One seeded stream of generated operators (dims 2-12, conditioning bound
1e3) with their classified spectra, built once per session and reused by
the read-only acceptance checks."""

import dataclasses

import numpy as np
import pytest

from krein_spectra import (
    KreinOperator,
    build_normal_with_types,
    classified_spectrum,
    sample_generator_spec,
)

ACCEPTANCE_SEED = 20260810
ACCEPTANCE_TRIALS = 500
ACCEPTANCE_DIMS = (2, 12)
ACCEPTANCE_COND_BOUND = 1e3


def boosted_matrix():
    """diag(100, 200) conjugated by a boost of rapidity 3, J-unitary for
    G = diag(1, -1): its norm, about 2e4, dwarfs its spectral radius."""
    c, s = np.cosh(3.0), np.sinh(3.0)
    boost = np.array([[c, s], [s, c]])
    return np.linalg.solve(boost, np.diag([100.0, 200.0]) @ boost)


def with_tolerances(N: KreinOperator, **changes) -> KreinOperator:
    """The operator N built again at its tolerances with ``changes``: an
    operator carries one tolerance config, so each config gets its own."""
    return KreinOperator(N.matrix, N.space, dataclasses.replace(N.tolerances, **changes))


def generate_trial(index: int, seed: int = ACCEPTANCE_SEED):
    rng = np.random.default_rng([seed, index])
    dim = int(rng.integers(ACCEPTANCE_DIMS[0], ACCEPTANCE_DIMS[1] + 1))
    spec = sample_generator_spec(rng, dim, cond_bound=ACCEPTANCE_COND_BOUND)
    return build_normal_with_types(spec)


@pytest.fixture(scope="session")
def trial_bank():
    bank = []
    for i in range(ACCEPTANCE_TRIALS):
        gen = generate_trial(i)
        bank.append((i, gen, classified_spectrum(gen.operator)))
    return bank
