"""Seeded construction of operators with prescribed spectral-type inventories.

Operators are assembled as direct sums of primitive blocks whose types
are known by construction: scalar blocks on definite Gram blocks give
two-sided definite points, diagonal pairs and single Jordan cells on
swap Gram blocks give neutral points (the Jordan cell being the witness
that neutral eigenvalues can be defective).  An optional conjugation by
a random J-unitary hides the block structure without changing any type.
Everything is deterministic in (spec, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .classification import SpectralType, classified_spectrum, clustering
from .core import KreinOperator, KreinSpace, ToleranceConfig, krein_adjoint
from .numerics import operator_norm

__all__ = [
    "GeneratedOperator",
    "GeneratorSpec",
    "GroundTruthPoint",
    "build_normal_with_types",
    "perturb_structured",
    "random_j_unitary",
    "sample_generator_spec",
]

_GENERATED_NORMALITY_TOL = 1e-9
# largest dimension of a generated operator: dense, desk-scale work, far
# above what the toolkit aims at and far below what exhausts memory
MAX_GENERATED_DIM = 1024
# least distance between two eigenvalues drawn by sample_generator_spec
_MIN_SEPARATION = 0.35


@dataclass(frozen=True)
class GeneratorSpec:
    """Block inventory of a to-be-generated operator.

    Each positive-type eigenvalue with multiplicity m consumes m units of
    positive inertia (scalar block on +I), negative-type likewise; each
    neutral pair diag(a, b) and each 2x2 Jordan cell sits on a swap Gram
    block and consumes one unit of each sign.  The dimension ``p + q`` lies
    in ``[1, MAX_GENERATED_DIM]``.
    """

    signature: tuple[int, int]
    positive_type_eigs: tuple[tuple[complex, int], ...] = ()
    negative_type_eigs: tuple[tuple[complex, int], ...] = ()
    neutral_pairs: tuple[tuple[complex, complex], ...] = ()
    neutral_jordan: tuple[complex, ...] = ()
    cond_bound: float | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "signature", tuple(self.signature))
        object.__setattr__(
            self,
            "positive_type_eigs",
            tuple((complex(v), int(m)) for v, m in self.positive_type_eigs),
        )
        object.__setattr__(
            self,
            "negative_type_eigs",
            tuple((complex(v), int(m)) for v, m in self.negative_type_eigs),
        )
        object.__setattr__(
            self,
            "neutral_pairs",
            tuple((complex(a), complex(b)) for a, b in self.neutral_pairs),
        )
        object.__setattr__(
            self, "neutral_jordan", tuple(complex(v) for v in self.neutral_jordan)
        )
        if any(m < 1 for _, m in self.positive_type_eigs + self.negative_type_eigs):
            raise ValueError("multiplicities must be positive")
        if self.cond_bound is not None and not 1 <= self.cond_bound < math.inf:
            # also refuses NaN
            raise ValueError(
                f"cond_bound must be finite and at least 1, got {self.cond_bound!r}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        p, q = self.signature
        swap_blocks = len(self.neutral_pairs) + len(self.neutral_jordan)
        p_used = sum(m for _, m in self.positive_type_eigs) + swap_blocks
        q_used = sum(m for _, m in self.negative_type_eigs) + swap_blocks
        if (p_used, q_used) != (p, q):
            raise ValueError(
                f"block inertia ({p_used}, {q_used}) does not match signature ({p}, {q})"
            )
        if p + q == 0:
            raise ValueError("spec has no blocks: the operator would be empty")
        if p + q > MAX_GENERATED_DIM:
            raise ValueError(f"dimension {p + q} exceeds the generator's bound {MAX_GENERATED_DIM}")
        values = self.all_values()
        scale = max([1.0] + [abs(v) for v in values])
        floor = 10 * 1e-7 * scale
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                if abs(values[i] - values[j]) < floor:
                    raise ValueError(
                        f"eigenvalue collision across blocks: {values[i]} vs {values[j]}"
                    )

    def all_values(self) -> list[complex]:
        out = [v for v, _ in self.positive_type_eigs]
        out += [v for v, _ in self.negative_type_eigs]
        for a, b in self.neutral_pairs:
            out += [a, b]
        out += list(self.neutral_jordan)
        return out

    @property
    def dim(self) -> int:
        p, q = self.signature
        return p + q


@dataclass(frozen=True)
class GroundTruthPoint:
    value: complex
    expected_type: SpectralType
    alg_mult: int
    geo_mult: int


@dataclass(frozen=True)
class GeneratedOperator:
    """Operator plus the inventory it was built from.

    Keeps the generating spec and the conjugator so that structured
    perturbations can act on the underlying block form, and the
    conjugator's 2-norm condition number (1 without one), computed once."""

    space: KreinSpace
    operator: KreinOperator
    ground_truth: tuple[GroundTruthPoint, ...]
    spec: GeneratorSpec
    conjugator: np.ndarray | None
    conjugator_cond: float


def random_j_unitary(space: KreinSpace, seed: int, cond_bound: float = 1e3) -> np.ndarray:
    """Exponential of a random J-skew matrix, scaled so the condition
    number respects the bound.

    The generator K satisfies adj(K) = -K, hence exp(K) preserves the
    indefinite product; cond(exp(K)) <= exp(2 ||K||) gives the scaling.
    """
    if cond_bound < 1:
        raise ValueError("cond_bound must be at least 1")
    n = space.dim
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = (g - krein_adjoint(g, space)) / 2.0
    norm_k = operator_norm(k)
    if norm_k == 0.0 or cond_bound == 1.0:
        return np.eye(n, dtype=np.complex128)
    # start at the guaranteed-safe scale, then walk toward the bound so the
    # realized conditioning is representative of what was asked for; the
    # generator norm is capped because exp() of a huge generator loses
    # accuracy while its conditioning may never grow (definite signature
    # makes every such map unitary)
    norm_cap = 30.0
    import scipy.linalg  # expm; imported here so that only generation pays for it

    def exponential(s):  # exp(s K) with its condition number
        u = scipy.linalg.expm(s * k)
        return u, np.linalg.cond(u)

    scale = min(1.0, np.log(cond_bound) / (2.0 * norm_k))
    u, cond = exponential(scale)
    for _ in range(60):
        if cond > cond_bound:
            scale *= 0.8
            u, cond = exponential(scale)
        elif cond < cond_bound / 10.0 and 1.5 * scale * norm_k <= norm_cap:
            candidate, candidate_cond = exponential(1.5 * scale)
            if candidate_cond > cond_bound:
                break
            scale *= 1.5
            u, cond = candidate, candidate_cond
        else:
            break
    while cond > cond_bound:
        scale *= 0.8
        u, cond = exponential(scale)
    residual = operator_norm(krein_adjoint(u, space) @ u - np.eye(n))
    if residual > 1e-10 * max(1.0, cond):
        raise RuntimeError(f"generated map fails the isometry certificate: {residual:.3e}")
    return u


def _assemble_blocks(spec: GeneratorSpec) -> tuple[np.ndarray, np.ndarray, list[GroundTruthPoint]]:
    grams, ops, truth = [], [], []
    for value, mult in spec.positive_type_eigs:
        grams.append(np.eye(mult))
        ops.append(value * np.eye(mult))
        truth.append(GroundTruthPoint(value, SpectralType.TWO_SIDED_POSITIVE, mult, mult))
    for value, mult in spec.negative_type_eigs:
        grams.append(-np.eye(mult))
        ops.append(value * np.eye(mult))
        truth.append(GroundTruthPoint(value, SpectralType.TWO_SIDED_NEGATIVE, mult, mult))
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    for a, b in spec.neutral_pairs:
        grams.append(swap)
        ops.append(np.diag([a, b]))
        truth.append(GroundTruthPoint(a, SpectralType.NEUTRAL, 1, 1))
        truth.append(GroundTruthPoint(b, SpectralType.NEUTRAL, 1, 1))
    for value in spec.neutral_jordan:
        grams.append(swap)
        ops.append(np.array([[value, 1.0], [0.0, value]]))
        truth.append(GroundTruthPoint(value, SpectralType.NEUTRAL, 2, 1))
    return _block_diag(grams), _block_diag(ops), truth


def _block_diag(blocks: list[np.ndarray]) -> np.ndarray:
    """The direct sum of square blocks, as a complex matrix."""
    n = sum(len(b) for b in blocks)
    out = np.zeros((n, n), dtype=np.complex128)
    i = 0
    for b in blocks:
        k = len(b)
        out[i : i + k, i : i + k] = b
        i += k
    return out


def build_normal_with_types(spec: GeneratorSpec) -> GeneratedOperator:
    """Direct-sum operator realizing the spec's inventory, optionally
    conjugated by a seeded J-unitary.

    Certified normal at 1e-9 in the standard conditioning regime; beyond
    that the certificate tolerance grows with the squared condition
    number of the conjugator, which bounds the rounding contamination of
    the commutator."""
    gram, matrix, truth = _assemble_blocks(spec)
    space = KreinSpace(gram)
    conjugator = None
    cond = 1.0
    tol = _GENERATED_NORMALITY_TOL
    if spec.cond_bound is not None:
        conjugator = random_j_unitary(space, spec.seed, spec.cond_bound)
        matrix = np.linalg.solve(conjugator, matrix @ conjugator)
        cond = float(np.linalg.cond(conjugator))
        tol = max(tol, 100.0 * np.finfo(float).eps * cond**2)
    operator = KreinOperator(matrix, space, ToleranceConfig(normality_tol=tol))
    truth.sort(key=lambda t: (t.value.real, t.value.imag))
    return GeneratedOperator(space, operator, tuple(truth), spec, conjugator, cond)


def perturb_structured(
    gen: GeneratedOperator, delta: float, seed: int = 0
) -> GeneratedOperator:
    """Normality-preserving perturbation of size at most ``delta``.

    Half the budget shifts block eigenvalues (conjugation-adjusted), half
    conjugates by the exponential of a small J-skew generator.  A zero
    budget returns the input unchanged, bit for bit.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if delta == 0.0:
        return gen
    rng = np.random.default_rng(seed)
    spec = gen.spec
    n_norm = max(gen.operator.norm, 1e-300)

    shift_budget = delta / (2.0 * gen.conjugator_cond)
    conj_budget = 0.5 * np.log1p(delta / (2.0 * n_norm))

    def sample_shift(budget: float) -> complex:
        return budget * rng.uniform(0.0, 1.0) * np.exp(2j * np.pi * rng.uniform())

    for _ in range(60):
        shifted = replace(
            spec,
            positive_type_eigs=tuple(
                (v + sample_shift(shift_budget), m) for v, m in spec.positive_type_eigs
            ),
            negative_type_eigs=tuple(
                (v + sample_shift(shift_budget), m) for v, m in spec.negative_type_eigs
            ),
            neutral_pairs=tuple(
                (a + sample_shift(shift_budget), b + sample_shift(shift_budget))
                for a, b in spec.neutral_pairs
            ),
            neutral_jordan=tuple(
                v + sample_shift(shift_budget) for v in spec.neutral_jordan
            ),
        )
        _, matrix, truth = _assemble_blocks(shifted)
        if gen.conjugator is not None:
            matrix = np.linalg.solve(gen.conjugator, matrix @ gen.conjugator)
        k_raw = rng.standard_normal((gen.space.dim,) * 2) + 1j * rng.standard_normal(
            (gen.space.dim,) * 2
        )
        k = (k_raw - krein_adjoint(k_raw, gen.space)) / 2.0
        nk = operator_norm(k)
        if nk > 0 and conj_budget > 0:
            import scipy.linalg  # expm, as in random_j_unitary

            v = scipy.linalg.expm((conj_budget / nk) * k)
            matrix = np.linalg.solve(v, matrix @ v)
            conjugator = v if gen.conjugator is None else gen.conjugator @ v
        else:
            conjugator = gen.conjugator
        if operator_norm(matrix - gen.operator.matrix) <= delta:
            operator = KreinOperator(
                matrix, gen.space, ToleranceConfig(normality_tol=_GENERATED_NORMALITY_TOL)
            )
            ordered = tuple(
                sorted(truth, key=lambda t: (t.value.real, t.value.imag))
            )
            cond = gen.conjugator_cond
            if conjugator is not gen.conjugator:
                cond = float(np.linalg.cond(conjugator))
            return GeneratedOperator(gen.space, operator, ordered, shifted, conjugator, cond)
        shift_budget /= 2.0
        conj_budget /= 2.0
    raise RuntimeError("could not realize the perturbation within budget")


def sample_generator_spec(
    rng: np.random.Generator,
    dim: int,
    cond_bound: float | None = 1e3,
    kinds: tuple[str, ...] = ("positive", "negative", "pair", "jordan"),
    box: float = 2.0,
) -> GeneratorSpec:
    """Random inventory of total dimension ``dim`` with eigenvalues at
    least ``_MIN_SEPARATION`` apart in a square box; used by the trial
    harness."""
    if dim < 1:
        raise ValueError("dim must be positive")
    values: list[complex] = []

    def fresh_value() -> complex:
        for _ in range(4096):
            z = complex(rng.uniform(-box, box), rng.uniform(-box, box))
            if all(abs(z - w) >= _MIN_SEPARATION for w in values):
                values.append(z)
                return z
        raise ValueError(
            f"could not place {dim} separated eigenvalues in the box of half-width {box}"
        )

    pos: list[tuple[complex, int]] = []
    neg: list[tuple[complex, int]] = []
    pairs: list[tuple[complex, complex]] = []
    jordans: list[complex] = []
    remaining = dim
    while remaining > 0:
        options = [k for k in kinds if k in ("positive", "negative")]
        if remaining >= 2:
            options += [k for k in kinds if k in ("pair", "jordan")]
        kind = options[int(rng.integers(len(options)))]
        if kind in ("positive", "negative"):
            mult = int(rng.integers(1, min(2, remaining) + 1))
            entry = (fresh_value(), mult)
            (pos if kind == "positive" else neg).append(entry)
            remaining -= mult
        elif kind == "pair":
            pairs.append((fresh_value(), fresh_value()))
            remaining -= 2
        else:
            jordans.append(fresh_value())
            remaining -= 2
    p = sum(m for _, m in pos) + len(pairs) + len(jordans)
    q = sum(m for _, m in neg) + len(pairs) + len(jordans)
    return GeneratorSpec(
        signature=(p, q),
        positive_type_eigs=tuple(pos),
        negative_type_eigs=tuple(neg),
        neutral_pairs=tuple(pairs),
        neutral_jordan=tuple(jordans),
        cond_bound=cond_bound,
        seed=int(rng.integers(2**63)),
    )


def classification_margin(gen: GeneratedOperator) -> float:
    """Stability margin of a generated operator's classification: the
    smaller of the worst kernel Gram margin and half the smallest
    eigenvalue separation.  Structured perturbations below half this
    margin cannot change any type tag."""
    points = classified_spectrum(gen.operator)
    margins = [abs(pt.gram_margin) for pt in points if not np.isnan(pt.gram_margin)]
    return min(margins + [clustering(gen.operator).min_gap / 2.0])
