"""Spans around calls into the package's public functions.

The benchmark wraps each listed function from its own files; nothing in
``src/`` changes.  A function imported by name into another module (for
example ``classified_spectrum`` in ``projections``, ``suite``, ``cli`` and
``generators``) is a separate binding, so every module attribute that *is*
the original function gets the wrapper.  Methods, the ``gram_scale``
property and the ``KreinOperator`` normality certificate (its
``__post_init__``) are wrapped on their class.

Each span records its id, its parent span's id, the operation id, the
layer name, start and end times and whether it raised a typed
``KreinError`` or an untyped exception.  Spans stay in memory in flat
arrays and are written out once, at the end of the run.  There is one
client in a closed loop, so no work waits in a queue and no wait time is
recorded.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

# (module, attribute path) of every traced layer entry point.  A dotted
# path names a class attribute.  ``KreinOperator`` is its normality
# certificate (``__post_init__``) and ``gram_scale`` the KreinSpace property.
TARGETS = {
    "core": (
        "KreinOperator",
        "krein_adjoint",
        "gram_scale",
        "definiteness",
        "SubspaceBasis.from_columns",
        "max_principal_angle",
    ),
    "numerics": (
        "ordered_spectral_decomposition",
        "spectral_projector",
        "solve_sylvester",
        "resolvent_at",
        "contour_integral_resolvent",
    ),
    "classification": (
        "classified_spectrum",
        "spectrum",
        "kernel_basis",
        "classify_point",
        "root_subspace",
        "verify_selfadjoint_link",
    ),
    "projections": (
        "riesz_projection_contour",
        "riesz_projection_oracle",
        "local_spectral_function",
        "LocalSpectralFunction.cluster_projector",
        "verify_lsf_axioms",
        "verify_maximality",
        "verify_spectral_set_theorem",
        "resolvent_probe",
        "strong_stability_check",
    ),
    "generators": (
        "build_normal_with_types",
        "random_j_unitary",
        "perturb_structured",
        "classification_margin",
    ),
    "documents": (
        "load_operator_document",
        "OperatorDocument.build",
        "dumps_canonical",
    ),
    "suite": (
        "run_trial",
        "classification_checks",
        "projection_checks",
        "lsf_checks",
        "resolvent_checks",
        "stability_checks",
        "numerics_checks",
    ),
    "cli": (
        "cmd_classify",
        "cmd_project",
        "cmd_lsf_verify",
        "cmd_probe_resolvent",
        "cmd_stability",
    ),
}

LAYERS = tuple(f"{mod}.{path}" for mod, paths in TARGETS.items() for path in paths)

# Layers that some workload never reaches (suite-only, CLI-only or
# document-only code).  Their self time would read 0.0 on every run of such
# a workload, so only their counters are headline metrics; their self time
# is still in the trace file and the printed layer table.
NOT_ON_EVERY_WORKLOAD = frozenset(
    {
        "classification.root_subspace",
        "classification.verify_selfadjoint_link",
        "projections.verify_spectral_set_theorem",
        "generators.perturb_structured",
        "generators.classification_margin",
    }
    | {f"documents.{p}" for p in TARGETS["documents"]}
    | {f"suite.{p}" for p in TARGETS["suite"]}
    | {f"cli.{p}" for p in TARGETS["cli"]}
)

OK, TYPED, UNTYPED = 0, 1, 2


class Patcher:
    """Swaps attributes and puts the originals back on ``restore``."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def _package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "krein_spectra" or name.startswith("krein_spectra."))
    ]


def install(patcher: Patcher, module_name: str, path: str, make_wrapper) -> None:
    """Replace one layer entry point by ``make_wrapper(original)`` wherever
    the package binds it."""
    module = sys.modules[f"krein_spectra.{module_name}"]
    if "." in path:
        cls_name, attr = path.split(".")
        owner = getattr(module, cls_name)
    elif path == "KreinOperator":
        owner, attr = module.KreinOperator, "__post_init__"
    elif path == "gram_scale":
        owner, attr = module.KreinSpace, "gram_scale"
    else:
        owner, attr = None, path

    if owner is None:
        original = getattr(module, attr)
        wrapped = make_wrapper(original)
        for mod in _package_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    patcher.set(mod, name, wrapped)
        return

    descriptor = owner.__dict__[attr]
    if isinstance(descriptor, property):
        patcher.set(owner, attr, property(make_wrapper(descriptor.fget)))
    elif isinstance(descriptor, classmethod):
        patcher.set(owner, attr, classmethod(make_wrapper(descriptor.__func__)))
    else:
        patcher.set(owner, attr, make_wrapper(descriptor))


class Tracer:
    """Records one span per call into a traced layer.

    ``op_id`` is set by the caller before each operation; set-up work runs
    under operation id -1.  Self time is the span's duration minus the
    time covered by its direct child spans.
    """

    def __init__(self, typed_error: type[BaseException]):
        self.typed_error = typed_error
        self.op_id = -1
        self._next_id = 0
        self._stack: list[list] = []
        # per layer: calls, self seconds, typed failures, untyped failures
        self.stats = {layer: [0, 0.0, 0, 0] for layer in LAYERS}
        self.span_id = array("q")
        self.parent_id = array("q")
        self.span_op = array("q")
        self.span_layer = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_status = array("B")
        self._patcher = Patcher()

    def install(self) -> None:
        for index, layer in enumerate(LAYERS):
            module_name, path = layer.split(".", 1)
            install(
                self._patcher, module_name, path,
                lambda fn, index=index, layer=layer: self._wrap(fn, index, layer),
            )

    def uninstall(self) -> None:
        self._patcher.restore()

    def _wrap(self, fn, index: int, layer: str):
        stats = self.stats[layer]
        stack = self._stack
        clock = time.perf_counter
        typed_error = self.typed_error

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            status = OK
            start = clock()
            try:
                return fn(*args, **kwargs)
            except typed_error:
                status = TYPED
                raise
            except BaseException:
                status = UNTYPED
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stats[0] += 1
                stats[1] += duration - frame[1]
                if status:
                    stats[1 + status] += 1
                self.span_id.append(sid)
                self.parent_id.append(parent)
                self.span_op.append(self.op_id)
                self.span_layer.append(index)
                self.span_start.append(start)
                self.span_end.append(end)
                self.span_status.append(status)

        return traced

    def layer_table(self) -> dict[str, dict]:
        return {
            layer: {
                "calls": calls,
                "self_s": self_s,
                "failures": typed + untyped,
                "failures_typed": typed,
                "failures_untyped": untyped,
            }
            for layer, (calls, self_s, typed, untyped) in self.stats.items()
        }

    def write(self, path: str, meta: dict) -> None:
        """Write the spans column-wise (gzip JSON) with the layer table."""
        document = {
            "meta": meta,
            "layers": list(LAYERS),
            "status_codes": {"0": "ok", "1": "typed", "2": "untyped"},
            "layer_table": self.layer_table(),
            "spans": {
                "id": self.span_id.tolist(),
                "parent": self.parent_id.tolist(),
                "op": self.span_op.tolist(),
                "layer": self.span_layer.tolist(),
                "start": self.span_start.tolist(),
                "end": self.span_end.tolist(),
                "status": self.span_status.tolist(),
            },
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(document, fh)
