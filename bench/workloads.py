"""The benchmark's workloads: inputs made from the seed, the operations a
client runs in a closed loop, and the check of every answer.

``suite-small``
    One operation is ``suite.run_trial`` for one trial index at the suite's
    default dims 2-12 and one worker, with cond bound 1e2 (the suite's
    default is 1e3; see below).  Thousands of tiny calls make it
    overhead-bound: every layer does a little work, so a saving in flops
    at large n should not show here, while added per-cluster overhead
    does.  Generation runs inside each trial.
``desk-many-clusters``
    The five CLI subcommands, in process through ``cli.main``, on operator
    documents from ``sample_generator_spec`` at dim 80, in a box wide
    enough for about 0.75 simple or double clusters per dimension.  Kernel
    extraction (two n x n SVDs per cluster) and repeated classification
    dominate.
``desk-few-clusters``
    The same subcommands at dim 100 on explicit specs with a few definite
    clusters of multiplicity 16-25, at cond bound 1e2 (see below).  Every
    third operator adds neutral pairs and Jordan cells; the rest are
    strongly stable, so ``stability`` builds and certifies the
    decomposition.  (With an even split the two kinds' times form two
    equal modes and a run's median jumps between them.)  Large-block
    Sylvester solves, quadrature and the LSF axioms dominate, and the
    large kernels stress rank decisions.

Every operation of the three workloads is answered correctly, so that the
timed figures are of one kind of work.  Two known defects are therefore
kept out of the workloads and reproduced instead by ``known_defect_ops``,
whose outcomes the traced run reports (``known_defects.*``):

* At cond bound 1e3 about 0.4 % of the dim-2 suite trials (one trial in
  4000 over dims 2-12) FAIL ``selfadjoint-product-link`` on a neutral
  point; at cond bound 1e2 none did in 20000 dim-2 trials.
* At cond bound 1e3, kernel extraction of large clusters raises the
  orthonormality ``ValueError`` of ``SubspaceBasis`` or a non-converging
  SVD: at dim 130, classify fails on 27 % of operators with clusters of
  multiplicity 16-25 (80 % at 25).  At cond bound 1e2 it failed on none
  of 100, multiplicity 25 included.

Each desk workload uses one dimension, so its operations are of one size
and a run's medians do not jump between sizes.  The set-up writes a pool
of distinct operators; the timed phase runs all five subcommands on one
operator after the other, wrapping round the pool if it is used up.
The dimensions are small enough for a run to cover 12-17 distinct
operators, so that one slow or fast operator does not move a run's
medians.  At dim 130 a desk-few run covered 8 operators and its medians
spread 14-16 % over five seeds, against 7-10 % at dim 100; dimensions
150-200 take 12-30 s per operator for the five subcommands.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from krein_spectra import cli, documents, generators, suite
from krein_spectra._errors import KreinError

MANY_CLUSTER_DIM = 80
FEW_CLUSTER_DIM = 100
FEW_CLUSTER_MULTS = (16, 25)
# distinct operators per desk run; about as many as a 25 s run gets through
DESK_POOL = 16
SMOKE_MANY_CLUSTER_DIM = 12
SMOKE_FEW_CLUSTER_DIM = 20
SMOKE_FEW_CLUSTER_MULTS = (3, 5)
SMOKE_DESK_POOL = 2

SUITE_DIMS = (2, 12)
SUITE_COND_BOUND = 1e2
DESK_COND_BOUND = 1e3
FEW_CLUSTER_COND_BOUND = 1e2

SUBCOMMANDS = ("classify", "project", "lsf-verify", "probe-resolvent", "stability")
# On suite-small each subcommand's stage is the suite check group that does
# the same work on the trial's operator.
SUITE_STAGES = {
    "classification_checks": "classify",
    "projection_checks": "project",
    "lsf_checks": "lsf-verify",
    "resolvent_checks": "probe-resolvent",
    "stability_checks": "stability",
}

# How far a computed eigenvalue may sit from the generated one, relative
# to the spectrum's scale; defective clusters smear by about
# sqrt(eps) times the conditioning of the generating similarity.
VALUE_MATCH_TOL = 1e-4
# Contour-vs-oracle agreement bound of the project check, relative to the
# projection's Frobenius norm (the suite's contour-oracle-agreement bound).
DISCREPANCY_TOL = 1e-6

OK, TYPED, UNTYPED, WRONG = "ok", "typed", "untyped", "wrong"


@dataclass
class Outcome:
    """How one operation ended: ``ok``; ``typed`` (a KreinError or exit
    codes 1-4); ``untyped`` (any other exception escaping); ``wrong`` (it
    returned normally with an answer that contradicts the generator)."""

    status: str
    detail: str = ""


@dataclass
class Op:
    name: str
    dim: int
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def _classify_exception(exc: BaseException) -> Outcome:
    status = TYPED if isinstance(exc, KreinError) else UNTYPED
    return Outcome(status, f"{type(exc).__name__}: {exc}")


def execute(op: Op, clock) -> tuple[float, Outcome]:
    """Run one operation; only the call into the package is timed."""
    start = clock()
    try:
        result = op.run()
    except Exception as exc:  # every escape is a counted failure
        return clock() - start, _classify_exception(exc)
    duration = clock() - start
    return duration, op.check(result)


# ---------------------------------------------------------------- suite-small


class SuiteSmall:
    def __init__(self, seed: int, smoke: bool, cond_bound: float = SUITE_COND_BOUND):
        self.seed = seed
        self.cond_bound = cond_bound

    def setup(self, work_dir: str) -> None:
        """Nothing to prepare: each trial generates its own operator."""

    def rounds(self):
        index = 0
        while True:
            yield [self._op(index)]
            index += 1

    def _op(self, index: int) -> Op:
        return Op(
            name="trial",
            dim=0,
            run=lambda: suite.run_trial(index, self.seed, SUITE_DIMS, self.cond_bound),
            check=lambda entries: _check_trial(entries, index),
        )


def _check_trial(entries, index: int) -> Outcome:
    if not entries or not all(isinstance(e, suite.CheckEntry) for e in entries):
        return Outcome(WRONG, f"trial {index} returned no check entries")
    failed = [e.name for e in entries if e.status is suite.CheckStatus.FAIL]
    if failed:
        return Outcome(TYPED, f"trial {index}: FAIL entries " + ", ".join(failed))
    return Outcome(OK)


# ---------------------------------------------------------------- desk workloads


@dataclass
class DeskOperator:
    """One generated operator with the answers its subcommands must give."""

    dim: int
    path: str
    truth: list  # GroundTruthPoint, sorted by (real, imag)
    target: complex  # a two-sided positive eigenvalue
    target_mult: int
    isolation: float  # distance from the target to the nearest other eigenvalue
    stable: bool
    plus_dim: int
    minus_dim: int
    scale: float = field(init=False)

    def __post_init__(self):
        self.scale = max([1.0] + [abs(t.value) for t in self.truth])


def many_clusters_spec(rng: np.random.Generator, dim: int, index: int, smoke: bool):
    """``sample_generator_spec`` in a box that keeps the suite's density of
    separated eigenvalues at any dimension; redrawn until it has a
    two-sided positive point for the region subcommands."""
    box = 2.0 * math.sqrt(max(dim, 12) / 12.0)
    while True:
        spec = generators.sample_generator_spec(rng, dim, cond_bound=DESK_COND_BOUND, box=box)
        if spec.positive_type_eigs:
            return spec


def few_clusters_spec(
    rng: np.random.Generator, dim: int, index: int, smoke: bool,
    cond_bound: float = FEW_CLUSTER_COND_BOUND,
):
    """A few definite clusters of multiplicity 16-25 (3-5 in smoke mode),
    alternating positive and negative type.  Every third operator adds two
    neutral pairs and two Jordan cells; the others are strongly stable."""
    lo, hi = SMOKE_FEW_CLUSTER_MULTS if smoke else FEW_CLUSTER_MULTS
    swap_blocks = 2 if index % 3 == 1 else 0
    definite = dim - 4 * swap_blocks
    count = max(2, round(definite / ((lo + hi) / 2)))
    mults = [int(m) for m in rng.integers(lo, hi + 1, size=count)]
    # move the total onto the target dimension without leaving [lo, hi]
    for step in range(count * (hi - lo)):
        j = step % count
        if sum(mults) < definite and mults[j] < hi:
            mults[j] += 1
        elif sum(mults) > definite and mults[j] > lo:
            mults[j] -= 1
    values: list[complex] = []

    def fresh() -> complex:
        while True:
            z = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
            if all(abs(z - w) >= 0.5 for w in values):
                values.append(z)
                return z

    positive = [(fresh(), m) for m in mults[0::2]]
    negative = [(fresh(), m) for m in mults[1::2]]
    pairs = [(fresh(), fresh()) for _ in range(swap_blocks)]
    jordans = [fresh() for _ in range(swap_blocks)]
    p = sum(m for _, m in positive) + 2 * swap_blocks
    q = sum(m for _, m in negative) + 2 * swap_blocks
    return generators.GeneratorSpec(
        signature=(p, q),
        positive_type_eigs=tuple(positive),
        negative_type_eigs=tuple(negative),
        neutral_pairs=tuple(pairs),
        neutral_jordan=tuple(jordans),
        cond_bound=cond_bound,
        seed=int(rng.integers(2**63)),
    )


class Desk:
    """Closed loop over the five CLI subcommands on generated operators."""

    def __init__(self, seed: int, smoke: bool, dim: int, make_spec, indices=None):
        self.seed = seed
        self.smoke = smoke
        self.dim = dim
        self.indices = indices or range(SMOKE_DESK_POOL if smoke else DESK_POOL)
        self.make_spec = make_spec
        self.operators: list[DeskOperator] = []
        self.out_path = ""

    def setup(self, work_dir: str) -> None:
        """Generate the operator pool and write each operator's document."""
        self.out_path = os.path.join(work_dir, "out.json")
        self.operators = []
        for index in self.indices:
            rng = np.random.default_rng([self.seed, index])
            spec = self.make_spec(rng, self.dim, index, self.smoke)
            gen = generators.build_normal_with_types(spec)
            doc = documents.OperatorDocument(
                dim=gen.space.dim, gram=gen.space.gram, matrix=gen.operator.matrix
            )
            path = os.path.join(work_dir, f"op{index}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(doc.to_json())
            self.operators.append(_desk_operator(gen, path, rng))

    def rounds(self):
        rounds = [[self._op(operator, sub) for sub in SUBCOMMANDS] for operator in self.operators]
        while True:
            yield from rounds

    def _op(self, operator: DeskOperator, sub: str) -> Op:
        lam, iso, out = operator.target, operator.isolation, self.out_path
        disk = lambda r: f"--disk={lam.real!r},{lam.imag!r},{r!r}"
        argv = {
            "classify": ["classify", operator.path, "--json"],
            "project": ["project", operator.path, disk(0.45 * iso)],
            "lsf-verify": ["lsf-verify", operator.path, disk(0.4 * iso), "--json"],
            "probe-resolvent": [
                "probe-resolvent", operator.path,
                f"--point={lam.real!r},{lam.imag!r}",
                f"--radii={0.4 * iso!r},{0.2 * iso!r},{0.1 * iso!r}",
            ],
            "stability": ["stability", operator.path],
        }[sub] + ["-o", out]
        check = CHECKS[sub]
        return Op(
            name=sub,
            dim=operator.dim,
            run=lambda: _run_cli(argv),
            check=lambda result: _check_cli(result, out, operator, check),
        )


def _desk_operator(gen, path: str, rng: np.random.Generator) -> DeskOperator:
    truth = list(gen.ground_truth)
    values = np.array([t.value for t in truth])
    tsp = [
        i for i, t in enumerate(truth)
        if t.expected_type is generators.SpectralType.TWO_SIDED_POSITIVE
    ]
    target = tsp[int(rng.integers(len(tsp)))]
    others = np.delete(values, target)
    isolation = float(np.min(np.abs(others - values[target]))) if others.size else 1.0
    definite = {
        generators.SpectralType.TWO_SIDED_POSITIVE,
        generators.SpectralType.TWO_SIDED_NEGATIVE,
    }
    return DeskOperator(
        dim=gen.space.dim,
        path=path,
        truth=truth,
        target=complex(values[target]),
        target_mult=truth[target].alg_mult,
        isolation=isolation,
        stable=all(t.expected_type in definite for t in truth),
        plus_dim=sum(m for _, m in gen.spec.positive_type_eigs),
        minus_dim=sum(m for _, m in gen.spec.negative_type_eigs),
    )


def _run_cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _check_cli(result, out_path: str, operator: DeskOperator, check) -> Outcome:
    code, err = result
    if code in (1, 2, 3):
        return Outcome(TYPED, f"exit {code}: {err.strip()}")
    if not os.path.exists(out_path):
        status = TYPED if code == 4 else WRONG
        return Outcome(status, f"exit {code} without output: {err.strip()}")
    with open(out_path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    os.remove(out_path)
    return check(code, payload, operator)


def _check_classify(code: int, payload: dict, op: DeskOperator) -> Outcome:
    """Match each generated eigenvalue to the nearest computed point (not by
    sort order: clusters with equal real parts may come out reordered)."""
    if code != 0:
        return Outcome(WRONG, f"classify exited {code}")
    points = payload["points"]
    if len(points) != len(op.truth):
        return Outcome(WRONG, f"{len(points)} points, expected {len(op.truth)}")
    computed = np.array([complex(*p["value"]) for p in points])
    matched = set()
    for t in op.truth:
        i = int(np.argmin(np.abs(computed - t.value)))
        p = points[i]
        if i in matched or abs(computed[i] - t.value) > VALUE_MATCH_TOL * op.scale:
            return Outcome(WRONG, f"no computed point matches {t.value:.6g}")
        matched.add(i)
        got = (p["type"], p["alg_mult"], p["geo_mult"])
        want = (t.expected_type.value, t.alg_mult, t.geo_mult)
        if got != want:
            return Outcome(WRONG, f"{t.value:.6g}: expected {want}, got {got}")
    return Outcome(OK)


def _check_project(code: int, payload: dict, op: DeskOperator) -> Outcome:
    if code != 0:
        return Outcome(WRONG, f"project exited {code}")
    if payload["rank"] != op.target_mult:
        return Outcome(WRONG, f"rank {payload['rank']}, expected {op.target_mult}")
    q = np.array(payload["projection"], dtype=float)
    bound = DISCREPANCY_TOL * max(1.0, float(np.sqrt(np.sum(q * q))))
    discrepancy = payload["diagnostics"]["contour_oracle_discrepancy"]
    if not discrepancy <= bound:
        return Outcome(WRONG, f"contour-oracle discrepancy {discrepancy:.3e} > {bound:.3e}")
    return Outcome(OK)


def _check_lsf(code: int, payload: dict, op: DeskOperator) -> Outcome:
    """The carrier is one two-sided positive cluster, so every axiom holds."""
    failed = [e["name"] for e in payload["entries"] if e["status"] == "fail"]
    if code == 4:
        return Outcome(TYPED, "exit 4: " + ", ".join(failed))
    if code != 0 or failed:
        return Outcome(WRONG, f"lsf-verify exited {code} with FAIL entries {failed}")
    return Outcome(OK)


def _check_probe(code: int, payload: dict, op: DeskOperator) -> Outcome:
    if code != 0 or payload["pole_order"] != 1:
        return Outcome(
            WRONG, f"pole order {payload['pole_order']} (exit {code}), expected 1"
        )
    return Outcome(OK)


def _check_stability(code: int, payload: dict, op: DeskOperator) -> Outcome:
    if payload["stable"] != op.stable:
        return Outcome(WRONG, f"stable={payload['stable']}, generator implies {op.stable}")
    if code == 4:
        return Outcome(TYPED, "exit 4: decomposition not certified")
    if code != 0:
        return Outcome(WRONG, f"stability exited {code}")
    if op.stable and (payload["plus_dim"], payload["minus_dim"]) != (op.plus_dim, op.minus_dim):
        return Outcome(
            WRONG,
            f"parts {payload['plus_dim']}+{payload['minus_dim']}, "
            f"expected {op.plus_dim}+{op.minus_dim}",
        )
    return Outcome(OK)


CHECKS = {
    "classify": _check_classify,
    "project": _check_project,
    "lsf-verify": _check_lsf,
    "probe-resolvent": _check_probe,
    "stability": _check_stability,
}

WORKLOADS = ("suite-small", "desk-many-clusters", "desk-few-clusters")

# The suite's default cond bound, at which both known defects show.
KNOWN_DEFECT_COND_BOUND = 1e3
# (seed, trial) of suite trials at that bound that FAIL
# selfadjoint-product-link, and (seed, pool indices) of desk-few-clusters
# operators at that bound and dim 130 whose kernel extraction raises the
# orthonormality ValueError and a non-converging SVD, respectively.
KNOWN_DEFECT_DIM = 130
KNOWN_SUITE_FAILURES = ((0, 8620), (1, 1738))
KNOWN_KERNEL_FAILURES = (1, (0, 3))


def known_defect_ops(work_dir: str) -> list[Op]:
    """Reproductions of the known defects kept out of the workloads (see the
    module docstring); each op fails while its defect stands."""
    ops = [
        SuiteSmall(seed, False, KNOWN_DEFECT_COND_BOUND)._op(trial)
        for seed, trial in KNOWN_SUITE_FAILURES
    ]
    seed, indices = KNOWN_KERNEL_FAILURES
    spec = lambda rng, dim, index, smoke: few_clusters_spec(
        rng, dim, index, False, KNOWN_DEFECT_COND_BOUND
    )
    desk = Desk(seed, False, KNOWN_DEFECT_DIM, spec, indices)
    desk_dir = os.path.join(work_dir, "known-defects")
    os.makedirs(desk_dir, exist_ok=True)
    desk.setup(desk_dir)
    return ops + [desk._op(operator, "classify") for operator in desk.operators]


def make_workload(name: str, seed: int, smoke: bool):
    if name == "suite-small":
        return SuiteSmall(seed, smoke)
    if name == "desk-many-clusters":
        dim = SMOKE_MANY_CLUSTER_DIM if smoke else MANY_CLUSTER_DIM
        return Desk(seed, smoke, dim, many_clusters_spec)
    if name == "desk-few-clusters":
        dim = SMOKE_FEW_CLUSTER_DIM if smoke else FEW_CLUSTER_DIM
        return Desk(seed, smoke, dim, few_clusters_spec)
    raise ValueError(f"unknown workload {name!r}")
