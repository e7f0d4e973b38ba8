"""Command-line front end.

Subcommands: classify, project, lsf-verify, probe-resolvent, stability,
sylvester, generate, suite.  Input and output are UTF-8 JSON; complex
numbers are [re, im] pairs and matrices row-major.  Exit codes: 0 ok,
1 input error, 2 precondition violation, 3 numerical refusal, 4 check
failure.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from ._errors import (
    AmbiguousRegionError,
    ArgumentError,
    CheckFailure,
    ContourThroughSpectrumError,
    DocumentError,
    KreinError,
    PreconditionError,
)
from .classification import classified_spectrum, locate_point
from .documents import (
    OperatorDocument,
    dumps_canonical,
    generator_spec_from_json,
    generator_spec_to_json,
    load_operator_document,
    matrix_from_json,
    parse_json,
    read_document,
)
from .generators import build_normal_with_types
from .numerics import frobenius, solve_sylvester, sylvester_spectral_gap
from .projections import (
    MAX_MAXIMALITY_SUBSPACES,
    MAX_PROBE_SAMPLES,
    local_spectral_function,
    pole_order,
    resolvent_probe,
    riesz_projection_contour,
    riesz_projection_oracle,
    strong_stability_check,
    verify_lsf_family,
)
from .regions import Region
from .suite import run_suite

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PRECONDITION = 2
EXIT_REFUSAL = 3
EXIT_CHECK_FAILED = 4

# the flag that sets each library argument an ArgumentError can name
FLAGS = {
    "radii": "--radii",
    "samples_per_radius": "--samples",
    "n_subspaces": "--subspaces",
    "seed": "--seed",
    "trials": "--trials",
    "dims": "--dims",
    "cond_bound": "--cond-bound",
    "only_trial": "--only-trial",
    # a cluster index: probe-resolvent locates its one cluster from --point
    "index": "--point",
}


def _write(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _region_from_args(args) -> Region:
    pieces = []
    for spec in args.disk or []:
        parts = spec.split(",")
        if len(parts) != 3:
            raise DocumentError(f"--disk expects cx,cy,r, got {spec!r}")
        try:
            cx, cy, r = (float(p) for p in parts)
            pieces.extend(Region.disk(complex(cx, cy), r).pieces)
        except ValueError as exc:
            raise DocumentError(f"--disk {spec!r}: {exc}") from exc
    for spec in args.rect or []:
        parts = spec.split(",")
        if len(parts) != 4:
            raise DocumentError(f"--rect expects x0,y0,x1,y1, got {spec!r}")
        try:
            x0, y0, x1, y1 = (float(p) for p in parts)
            pieces.extend(Region.rectangle(x0, y0, x1, y1).pieces)
        except ValueError as exc:
            raise DocumentError(f"--rect {spec!r}: {exc}") from exc
    return Region(tuple(pieces))


def _add_region_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--disk", action="append", metavar="CX,CY,R",
        help="closed disk primitive (repeatable)",
    )
    parser.add_argument(
        "--rect", action="append", metavar="X0,Y0,X1,Y1",
        help="half-open rectangle primitive (repeatable)",
    )


def _point_table(points) -> list[dict]:
    return [
        {
            "value": [pt.value.real, pt.value.imag],
            "type": pt.type_tag.value,
            "alg_mult": pt.alg_mult,
            "geo_mult": pt.geo_mult,
            "gram_margin": pt.gram_margin,
            "warnings": list(pt.warnings),
        }
        for pt in points
    ]


def cmd_classify(args) -> int:
    operator = load_operator_document(args.input).build()
    points = classified_spectrum(operator)
    payload = {
        "normality_residual": operator.normality_residual,
        "points": _point_table(points),
    }
    if args.json:
        _write(dumps_canonical(payload), args.output)
    else:
        print(f"normality residual: {operator.normality_residual:.3e}")
        print(f"{'eigenvalue':>28}  {'type':<20} {'m_a':>3} {'m_g':>3}  {'margin':>10}")
        for pt in points:
            warn = f"  ! {';'.join(pt.warnings)}" if pt.warnings else ""
            print(
                f"{pt.value.real:>+13.6g}{pt.value.imag:>+13.6g}i  "
                f"{pt.type_tag.value:<20} {pt.alg_mult:>3} {pt.geo_mult:>3}  "
                f"{pt.gram_margin:>10.3e}{warn}"
            )
    return EXIT_OK


def cmd_project(args) -> int:
    operator = load_operator_document(args.input).build()
    region = _region_from_args(args)
    if not region.pieces:
        raise DocumentError("project requires at least one --disk or --rect")
    contour = riesz_projection_contour(operator, region)
    oracle = riesz_projection_oracle(operator, region)
    discrepancy = frobenius(contour.matrix - oracle.matrix)
    payload = {
        "projection": oracle.matrix,
        "region": region.describe(),
        "rank": oracle.rank,
        "diagnostics": {
            "idem_residual": oracle.idem_residual,
            "selfadj_residual": oracle.selfadj_residual,
            "commute_residual": oracle.commute_residual,
            "range_definiteness": oracle.gram_margin.kind.value,
            "range_margin": oracle.gram_margin.margin,
            "contour_idem_residual": contour.idem_residual,
            "contour_oracle_discrepancy": discrepancy,
            "contour_warnings": list(contour.warnings),
        },
    }
    _write(dumps_canonical(payload), args.output)
    return EXIT_OK


def cmd_lsf_verify(args) -> int:
    operator = load_operator_document(args.input).build()
    carrier = _region_from_args(args)
    if not carrier.pieces:
        raise DocumentError("lsf-verify requires a carrier (--disk / --rect)")
    lsf = local_spectral_function(operator, carrier)
    report = verify_lsf_family(lsf, args.subspaces, args.seed)
    if args.json:
        _write(report.to_json(), args.output)
    else:
        print(report.human_summary())
    return EXIT_CHECK_FAILED if report.failed else EXIT_OK


def cmd_probe_resolvent(args) -> int:
    operator = load_operator_document(args.input).build()
    parts = args.point.split(",")
    if len(parts) != 2:
        raise DocumentError(f"--point expects re,im, got {args.point!r}")
    try:
        lam = complex(*(float(p) for p in parts))
    except ValueError as exc:
        raise DocumentError(f"--point expects re,im: {exc}") from exc
    if not np.isfinite(lam):
        raise DocumentError(f"--point must be finite, got {args.point!r}")
    try:
        radii = [float(r) for r in args.radii.split(",")]
    except ValueError as exc:
        raise DocumentError(f"--radii expects R1,R2,...: {exc}") from exc
    probe = resolvent_probe(operator, lam, radii, samples_per_radius=args.samples)
    payload = {
        "c_estimate": probe.c_estimate,
        "pole_order": pole_order(operator, locate_point(operator, lam)),
        "radius_table": [[r, c] for r, c in probe.radius_table],
    }
    _write(dumps_canonical(payload), args.output)
    return EXIT_OK


def cmd_stability(args) -> int:
    operator = load_operator_document(args.input).build()
    stable, decomposition = strong_stability_check(operator)
    payload: dict = {"stable": stable}
    failed = False
    if decomposition is not None:
        payload["plus_dim"] = decomposition.plus.k
        payload["minus_dim"] = decomposition.minus.k
        payload["certified"] = decomposition.certified
        payload["checks"] = [e.to_json_dict() for e in decomposition.entries]
        if args.emit_bases:
            payload["plus_basis"] = decomposition.plus.columns
            payload["minus_basis"] = decomposition.minus.columns
        failed = not decomposition.certified
    _write(dumps_canonical(payload), args.output)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_sylvester(args) -> int:
    raw = parse_json(read_document(args.input))
    try:
        ms = len(raw["s"])
        mt = len(raw["t"])
        for name, m in (("s", ms), ("t", mt)):
            if m == 0:
                raise DocumentError(f"{name}: expected a non-empty matrix")
        s = matrix_from_json(raw["s"], ms, "s")
        t = matrix_from_json(raw["t"], mt, "t")
        z = matrix_from_json(raw["z"], ms, "z", cols=mt)
    except (KeyError, TypeError, IndexError) as exc:
        raise DocumentError(f"sylvester document: {exc!r}") from exc
    x = solve_sylvester(s, t, z)
    gap, pair = sylvester_spectral_gap(s, t)
    payload = {
        "x": x,
        "residual": frobenius(s @ x - x @ t - z),
        "spectral_gap": gap,
        "closest_pair": [[pair[0].real, pair[0].imag], [pair[1].real, pair[1].imag]],
    }
    _write(dumps_canonical(payload), args.output)
    return EXIT_OK


def cmd_generate(args) -> int:
    spec = generator_spec_from_json(parse_json(read_document(args.input)))
    gen = build_normal_with_types(spec)
    doc = OperatorDocument(
        dim=gen.space.dim,
        gram=gen.space.gram,
        matrix=gen.operator.matrix,
        metadata={"generator_seed": str(spec.seed)},
    )
    _write(doc.to_json(), args.output)
    truth = {
        "spec": generator_spec_to_json(spec),
        "points": [
            {
                "value": [t.value.real, t.value.imag],
                "type": t.expected_type.value,
                "alg_mult": t.alg_mult,
                "geo_mult": t.geo_mult,
            }
            for t in gen.ground_truth
        ],
    }
    if args.truth:
        _write(dumps_canonical(truth), args.truth)
    return EXIT_OK


def cmd_suite(args) -> int:
    lo, _, hi = args.dims.partition(":")
    try:
        dims = (int(lo), int(hi or lo))
    except ValueError as exc:
        raise DocumentError(f"--dims expects LO:HI, got {args.dims!r}") from exc
    report = run_suite(args.trials, args.seed, dims, args.cond_bound, args.only_trial)
    if args.json_out:
        _write(report.to_json(), args.json_out)
    print(report.human_summary())
    return EXIT_CHECK_FAILED if report.failed else EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Argument parser (subcommand parsers included) whose usage errors,
    such as an unknown flag or a value of the wrong type, are input errors:
    exit 1, not argparse's 2, which this CLI reserves for precondition
    violations.  ``--help`` still exits 0."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: input error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="krein-spectra",
        description="Spectral classification and projection toolkit for normal "
        "operators in indefinite inner product spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify every eigenvalue by definiteness type")
    p.add_argument("input", help="operator document (JSON path or - for stdin)")
    p.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    p.add_argument("--output", "-o", default=None)

    p = sub.add_parser("project", help="Riesz projection for a spectral region")
    p.add_argument("input")
    _add_region_flags(p)
    p.add_argument("--output", "-o", default=None)

    p = sub.add_parser("lsf-verify", help="verify the local spectral function axioms")
    p.add_argument("input")
    _add_region_flags(p)
    p.add_argument("--subspaces", type=int, default=20,
                   help=f"maximality trial count, 1 to {MAX_MAXIMALITY_SUBSPACES}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--output", "-o", default=None)

    p = sub.add_parser("probe-resolvent", help="resolvent bound and pole order")
    p.add_argument("input")
    p.add_argument("--point", required=True, metavar="RE,IM")
    p.add_argument("--radii", required=True, metavar="R1,R2,...")
    p.add_argument("--samples", type=int, default=16,
                   help=f"samples per radius, 1 to {MAX_PROBE_SAMPLES}")
    p.add_argument("--output", "-o", default=None)

    p = sub.add_parser("stability", help="strong stability and fundamental decomposition")
    p.add_argument("input")
    p.add_argument("--emit-bases", action="store_true")
    p.add_argument("--output", "-o", default=None)

    p = sub.add_parser("sylvester", help="solve S X - X T = Z from a JSON document")
    p.add_argument("input")
    p.add_argument("--output", "-o", default=None)

    p = sub.add_parser("generate", help="build an operator from a generator spec")
    p.add_argument("input", help="generator spec (JSON path or - for stdin)")
    p.add_argument("--output", "-o", default=None)
    p.add_argument("--truth", default=None, help="write the ground-truth table here")

    p = sub.add_parser("suite", help="seeded verification suite")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims", default="2:12", metavar="LO:HI")
    p.add_argument("--cond-bound", type=float, default=1e3)
    p.add_argument("--only-trial", type=int, default=None,
                   help="re-run a single trial index for reproduction")
    p.add_argument("--json-out", default=None)
    return parser


# built on the first main() call, then reused: every add_argument reads the
# terminal size, about 2 ms per build
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up at each call, not bound into the cached parser, so that a
    # wrapper installed on a cmd_* function later is the one that runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except ArgumentError as exc:
        flag = FLAGS.get(exc.argument, exc.argument)
        print(f"input error: {flag}: {exc.problem}", file=sys.stderr)
        return EXIT_INPUT
    except DocumentError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ContourThroughSpectrumError, AmbiguousRegionError) as exc:
        print(f"numerical refusal: {exc}", file=sys.stderr)
        return EXIT_REFUSAL
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except KreinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
