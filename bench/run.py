"""krein-spectra benchmark: one client, closed loop, every answer checked.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 bench/run.py --workload suite-small --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --smoke           # every workload in seconds

``--workload`` is ``suite-small``, ``desk-many-clusters``,
``desk-few-clusters`` or ``all`` (every workload, one after the other, in
this process).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment, the latency tail and the failure split.

Timed phase.  Whole rounds (one trial on ``suite-small``; the five
subcommands on one operator on the desk workloads) run until ``--seconds``
have passed.

Reference speed.  On a shared machine the speed of identical work drifts by
up to 1.5x over stretches of 10-30 s, longer than a run can average away.
So the loop also times a fixed calibration kernel (complex 64 x 64 SVD,
eigenvalues and solve plus small numpy calls from Python; it uses nothing
of the package), run twice and timed the second time, at least every
``CALIBRATION_INTERVAL_S`` between operations.  Each operation's time is
reported at the reference speed: measured time x ``REFERENCE_S`` / the
median kernel time within ``CALIBRATION_WINDOW_S`` of the operation.
``REFERENCE_S`` is the kernel's typical time between operations on a 2-vCPU
x86-64 machine with OpenBLAS 0.3.31 on one thread, so there reported and
wall-clock times roughly agree.  On that machine this cut the ten-seed
spread of the reported medians from 15-35 % to 3-11 %.  The raw wall-clock
medians are printed on the info line.  ``setup_s`` is scaled the same way,
with a calibration before and after each set-up.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s`` -- import of the package (in a fresh interpreter) plus input
  generation and document writing, repeated and reported as the median.
* ``throughput_ops_per_s`` -- operations answered correctly per second over
  the workload's mix of operation kinds (one trial; or one call of each of
  the five subcommands): the number of kinds over the sum of each kind's
  mean answered time.  A failure removes a sample, not a share of the mix.
  Answer checks are not timed.
* ``latency_p50_s`` -- median time of the operations answered correctly.
* ``peak_rss_mb`` -- peak resident memory of the process.
* ``classify_p50_s`` ... ``stability_p50_s`` -- median time per correctly
  answered call of each CLI subcommand.  On ``suite-small`` each is the
  median time of the suite check group that does that subcommand's work on
  the trial's operator (classification, projection, lsf, resolvent and
  stability checks).

Failures are not folded into throughput or latency: the result line counts
them in ``failed``, and the lines before it give the error rate, its split into
typed refusals (``KreinError``, exit codes 1-4), untyped escapes and wrong
answers, and one line per distinct failure.  The error rate is not an
end-to-end metric because it is 0 on most runs; it is the per-layer
metric ``ops.error_rate``.  If no call of a subcommand was answered, its
p50 is the median time of its failed calls and the info line names it
under ``p50_of_failed_calls``.  ``latency_p90_s`` is printed, with its
sample count, when at least 100 operations were answered (``suite-small``).

``--trace 1`` reports the per-layer metrics.  It runs the loop untraced for
half of ``--seconds``, then the same operations again with a span around
every call into each module's public entry points (see ``tracing.py``),
and writes the spans to ``.bench_work/trace-<workload>-seed<seed>.json.gz``.
Set-up is traced too, so ``generators.*`` counts include input generation.  Metrics:
``<module>.<function>.{calls,self_s,failures}``, three waste ratios
``*.per_operator`` (calls per operation in the traced pass),
``trace.overhead_ratio`` (traced over untraced throughput on the same
operations), the failure split ``ops.*`` of the traced pass, and
``known_defects.failed`` / ``known_defects.failed_untyped``: how many of
the fixed reproductions of the known defects that the workloads leave out
(``workloads.known_defect_ops``, run untraced after the traced pass) still
fail.  Their failures are listed after the result's own and are not counted
in its ``failed``.

BLAS is pinned to one thread and suite workers to one before numpy loads:
the thread count changes results at high multiplicity.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "KREIN_SPECTRA_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
CALIBRATION_INTERVAL_S = 0.25
CALIBRATION_WINDOW_S = 1.0
REFERENCE_S = 0.009
P90_MIN_SAMPLES = 100

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import krein_spectra.cli; print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_per_s": "1/s",
    "latency_p50_s": "s",
    "peak_rss_mb": "MB",
    "classify_p50_s": "s",
    "project_p50_s": "s",
    "lsf_verify_p50_s": "s",
    "probe_resolvent_p50_s": "s",
    "stability_p50_s": "s",
}
WASTE_RATIOS = (
    "classification.classified_spectrum",
    "core.gram_scale",
    "numerics.ordered_spectral_decomposition",
)


@dataclass
class Record:
    name: str
    dim: int
    duration: float  # wall-clock seconds
    status: str
    detail: str
    start: float = 0.0
    speed: float = 1.0  # REFERENCE_S over the calibration kernel's time around it

    @property
    def reference_s(self) -> float:
        return self.duration * self.speed


def per_layer_units() -> dict[str, str]:
    from tracing import LAYERS, NOT_ON_EVERY_WORKLOAD

    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        if layer not in NOT_ON_EVERY_WORKLOAD:
            units[f"{layer}.self_s"] = "s"
        units[f"{layer}.failures"] = "count"
    for layer in WASTE_RATIOS:
        units[f"{layer}.per_operator"] = "calls/op"
    units["trace.overhead_ratio"] = "ratio"
    units["ops.error_rate"] = "ratio"
    units["ops.failed_typed"] = "count"
    units["ops.failed_untyped"] = "count"
    units["ops.wrong_answers"] = "count"
    units["known_defects.failed"] = "count"
    units["known_defects.failed_untyped"] = "count"
    return units


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "suite_workers": os.environ["KREIN_SPECTRA_THREADS"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def setup_seconds(workload, work_dir: str, repeats: int) -> float:
    """Median over repeats of import plus input generation and writing, at
    the reference speed of the calibrations taken before and after each."""
    calibration = Calibration()
    samples = []
    for _ in range(repeats):
        calibration.measure()
        start = time.perf_counter()
        imported = import_seconds()
        started = time.perf_counter()
        workload.setup(work_dir)
        elapsed = imported + time.perf_counter() - started
        calibration.measure()
        samples.append(elapsed * calibration.speed(start, time.perf_counter()))
    return statistics.median(samples)


class Calibration:
    """Times of a fixed kernel that uses nothing of the package."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(20111)
        self._np = np
        self._a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self._b = rng.standard_normal((4, 4))
        self.starts: list[float] = []
        self.times: list[float] = []

    def _kernel(self) -> None:
        np = self._np
        np.linalg.svd(self._a)
        np.linalg.eigvals(self._a)
        np.linalg.solve(self._a, self._a)
        for _ in range(600):
            np.linalg.norm(self._b @ self._b)

    def measure(self) -> None:
        self._kernel()  # refill the caches the last operation evicted
        start = time.perf_counter()
        self._kernel()
        self.starts.append(start)
        self.times.append(time.perf_counter() - start)

    def due(self) -> bool:
        return not self.starts or time.perf_counter() - self.starts[-1] >= CALIBRATION_INTERVAL_S

    def speed(self, start: float, end: float) -> float:
        """REFERENCE_S over the median kernel time of the calibrations within
        CALIBRATION_WINDOW_S of an operation, and at least the ones just
        before and just after it.  Speed drifts over 10-30 s; single kernel
        timings jitter by 10-20 %."""
        lo = bisect.bisect_left(self.starts, start - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + CALIBRATION_WINDOW_S)
        after = bisect.bisect_right(self.starts, start)
        lo, hi = min(lo, max(0, after - 1)), max(hi, after + 1)
        return REFERENCE_S / statistics.median(self.times[lo:hi])


class Loop:
    """The closed loop: one operation at a time, each one's outcome checked.

    ``on_op`` is called with the operation's index before it runs, so that a
    tracer or stage timer can attribute what it records."""

    def __init__(self, on_op=None):
        from workloads import execute

        self.execute = execute
        self.on_op = on_op or (lambda index: None)
        self.calibration = Calibration()

    def run(self, workload, seconds: float) -> tuple[list, list[Record]]:
        """Whole rounds until ``seconds`` pass; returns the rounds run."""
        rounds: list = []
        records: list[Record] = []
        start = time.perf_counter()
        for ops in workload.rounds():
            rounds.append(ops)
            self._run(ops, records)
            if time.perf_counter() - start >= seconds:
                return rounds, self._finish(records)

    def again(self, rounds: list) -> list[Record]:
        records: list[Record] = []
        for ops in rounds:
            self._run(ops, records)
        return self._finish(records)

    def _run(self, ops, records: list[Record]) -> None:
        for op in ops:
            if self.calibration.due():
                self.calibration.measure()
            self.on_op(len(records))
            start = time.perf_counter()
            duration, outcome = self.execute(op, time.perf_counter)
            records.append(
                Record(op.name, op.dim, duration, outcome.status, outcome.detail, start)
            )

    def _finish(self, records: list[Record]) -> list[Record]:
        self.calibration.measure()
        for r in records:
            r.speed = self.calibration.speed(r.start, r.start + r.duration)
        return records


def _percentile(durations: list[float], q: float) -> float:
    """The median for q = 0.5, otherwise the nearest-rank percentile."""
    ranked = sorted(durations)
    if q == 0.5:
        return statistics.median(ranked)
    return ranked[max(0, math.ceil(q * len(ranked)) - 1)]


class StageTimer:
    """Times the five suite check groups that match the CLI subcommands,
    per operation index (None if the group raised)."""

    def __init__(self):
        from tracing import Patcher
        from workloads import SUBCOMMANDS

        self.times: dict[str, dict[int, float | None]] = {sub: {} for sub in SUBCOMMANDS}
        self.op_index = 0
        self._patcher = Patcher()

    def install(self) -> None:
        from tracing import install
        from workloads import SUITE_STAGES

        for function, sub in SUITE_STAGES.items():
            install(self._patcher, "suite", function, lambda fn, sub=sub: self._wrap(fn, sub))

    def uninstall(self) -> None:
        self._patcher.restore()

    def samples(self, records: list[Record]) -> dict[str, list[tuple[float, bool]]]:
        """(time at the reference speed, answered) per call of each stage."""
        return {
            sub: [
                (t * records[i].speed, records[i].status == "ok")
                for i, t in times.items()
                if t is not None
            ]
            for sub, times in self.times.items()
        }

    def _wrap(self, fn, sub: str):
        times = self.times[sub]
        clock = time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                times[self.op_index] = None
                raise
            times[self.op_index] = clock() - start
            return result

        return timed


def outcome_counts(records: list[Record]) -> dict[str, int]:
    counts = {"ok": 0, "typed": 0, "untyped": 0, "wrong": 0}
    for r in records:
        counts[r.status] += 1
    return counts


def end_to_end(records: list[Record], setup_s: float, stages: dict | None) -> tuple[dict, dict]:
    from workloads import OK, SUBCOMMANDS

    answered = [r for r in records if r.status == OK]
    if stages is None:
        stages = {
            sub: [(r.reference_s, r.status == OK) for r in records if r.name == sub]
            for sub in SUBCOMMANDS
        }
    times = [r.reference_s for r in answered]
    kinds = {r.name for r in answered}
    mix_s = sum(statistics.fmean(r.reference_s for r in answered if r.name == k) for k in kinds)
    values = {
        "setup_s": setup_s,
        "throughput_ops_per_s": len(kinds) / mix_s,
        "latency_p50_s": _percentile(times, 0.5),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    unanswered = []
    for sub in SUBCOMMANDS:
        samples = [t for t, ok in stages[sub] if ok]
        if not samples:
            # every call failed: the median of their times, flagged below
            unanswered.append(sub)
            samples = [t for t, _ in stages[sub]]
        values[f"{sub.replace('-', '_')}_p50_s"] = _percentile(samples, 0.5)
    info = {
        "wall_latency_p50_s": _percentile([r.duration for r in answered], 0.5),
        "wall_throughput_ops_per_s": len(answered) / sum(r.duration for r in answered),
        "speed_vs_reference": statistics.median(r.speed for r in records),
        "stage_samples": {sub: sum(ok for _, ok in stages[sub]) for sub in SUBCOMMANDS},
    }
    if unanswered:
        info["p50_of_failed_calls"] = unanswered
    if len(answered) >= P90_MIN_SAMPLES:
        info["latency_p90_s"] = _percentile(times, 0.9)
        info["latency_p90_samples"] = len(answered)
    return values, info


def per_layer(tracer, untraced: list[Record], traced: list[Record], before: dict) -> dict:
    values = {}
    for layer, (calls, self_s, typed, untyped) in tracer.stats.items():
        values[f"{layer}.calls"] = calls
        values[f"{layer}.self_s"] = self_s
        values[f"{layer}.failures"] = typed + untyped
    for layer in WASTE_RATIOS:
        values[f"{layer}.per_operator"] = (tracer.stats[layer][0] - before[layer]) / len(traced)
    values["trace.overhead_ratio"] = sum(r.reference_s for r in untraced) / sum(
        r.reference_s for r in traced
    )
    counts = outcome_counts(traced)
    values["ops.error_rate"] = 1.0 - counts["ok"] / len(traced)
    values["ops.failed_typed"] = counts["typed"]
    values["ops.failed_untyped"] = counts["untyped"]
    values["ops.wrong_answers"] = counts["wrong"]
    return values


def failure_lines(records: list[Record]) -> list[str]:
    seen: dict[tuple, int] = {}
    for r in records:
        if r.status != "ok":
            key = (r.name, r.dim, r.status, r.detail[:160])
            seen[key] = seen.get(key, 0) + 1
    return [
        f"#   {count}x {name}{f' dim={dim}' if dim else ''} {status}: {detail}"
        for (name, dim, status, detail), count in sorted(seen.items())
    ]


def measure(workload, name: str, seconds: float, smoke: bool, work_dir: str):
    setup_s = setup_seconds(workload, work_dir, 1 if smoke else SETUP_REPEATS)
    timer = StageTimer() if name == "suite-small" else None
    loop = Loop(None if timer is None else lambda index: setattr(timer, "op_index", index))
    if timer is not None:
        timer.install()
    try:
        _, records = loop.run(workload, seconds)
    finally:
        if timer is not None:
            timer.uninstall()
    stages = None if timer is None else timer.samples(records)
    metrics, info = end_to_end(records, setup_s, stages)
    return metrics, END_TO_END_UNITS, info, records


def trace(workload, name: str, seed: int, seconds: float, work_dir: str):
    from krein_spectra._errors import KreinError
    from tracing import Tracer

    tracer = Tracer(KreinError)
    tracer.install()
    try:
        workload.setup(work_dir)
    finally:
        tracer.uninstall()
    rounds, untraced = Loop().run(workload, seconds / 2)
    before = {layer: tracer.stats[layer][0] for layer in WASTE_RATIOS}
    tracer.install()
    try:
        traced = Loop(lambda index: setattr(tracer, "op_id", index)).again(rounds)
    finally:
        tracer.uninstall()
    path = WORK / f"trace-{name}-seed{seed}.json.gz"
    tracer.write(str(path), {"workload": name, "seed": seed, "operations": len(traced)})
    info = {"spans": len(tracer.span_id), "trace_file": str(path.relative_to(ROOT))}
    metrics = per_layer(tracer, untraced, traced, before)
    defects = known_defects(work_dir)
    counts = outcome_counts(defects)
    metrics["known_defects.failed"] = len(defects) - counts["ok"]
    metrics["known_defects.failed_untyped"] = counts["untyped"]
    return metrics, per_layer_units(), info, traced, tracer.layer_table(), defects


def known_defects(work_dir: str) -> list[Record]:
    from workloads import execute, known_defect_ops

    records = []
    for op in known_defect_ops(work_dir):
        duration, outcome = execute(op, time.perf_counter)
        records.append(Record(op.name, op.dim, duration, outcome.status, outcome.detail))
    return records


def run_workload(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    from workloads import make_workload

    workload = make_workload(name, seed, smoke)
    work_dir = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    layers, defects = None, []
    try:
        if traced:
            metrics, units, info, executions, layers, defects = trace(
                workload, name, seed, seconds, str(work_dir)
            )
        else:
            metrics, units, info, executions = measure(
                workload, name, seconds, smoke, str(work_dir)
            )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    counts = outcome_counts(executions)
    info.update(
        error_rate=1.0 - counts["ok"] / len(executions),
        failed_typed=counts["typed"],
        failed_untyped=counts["untyped"],
        wrong_answers=counts["wrong"],
    )
    result = {
        "correct": counts["wrong"] == 0,
        "attempted": len(executions),
        "failed": len(executions) - counts["ok"],
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }
    print(f"# workload {name} seed={seed} trace={int(traced)} smoke={int(smoke)}")
    print("# info " + json.dumps(info, sort_keys=True))
    if layers is not None:
        print(f"#   {'layer':<52} {'calls':>8} {'self_s':>10} {'typed':>6} {'untyped':>8}")
        for layer, row in layers.items():
            print(
                f"#   {layer:<52} {row['calls']:>8} {row['self_s']:>10.4f} "
                f"{row['failures_typed']:>6} {row['failures_untyped']:>8}"
            )
    else:
        for metric, entry in result["metrics"].items():
            print(f"#   {metric:<24} {entry['value']:.6g} {entry['unit']}")
    for line in failure_lines(executions):
        print(line)
    if defects:
        print(f"# known defects, not in the workload: {len(defects) - outcome_counts(defects)['ok']}"
              f" of {len(defects)} reproductions fail")
        for line in failure_lines(defects):
            print(line)
    print(f"# correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("suite-small", "desk-many-clusters", "desk-few-clusters", "all"),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one set-up")
    args = parser.parse_args(argv)

    if not (SRC / "krein_spectra" / "__init__.py").is_file():
        print(f"benchmark: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    print("# env " + json.dumps(environment(), sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        if len(names) > 1:
            print(json.dumps({"workload": name, **results[name]}))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": entry
                for name, r in results.items()
                for metric, entry in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
