"""JSON interchange for operators and generator inventories.

Complex numbers serialize as two-element ``[re, im]`` arrays and matrices
row-major.  ``dumps_canonical`` fixes key order and layout so that
parse/serialize round trips are byte-identical for canonical documents.
It also accepts array-valued fields: a 2-D numpy array as the value of a
top-level key is written as its row-major ``[re, im]`` pair list.
Parse failures carry a field path (or the JSON line number) so the CLI
can point at the offending input.  Non-finite numbers (``NaN``,
``Infinity``, which Python's JSON loader accepts) are parse failures too.
Operator documents are decoded by orjson, a strict C decoder, or by
``json.loads`` where the two could differ; either way the document or the
refusal is that of ``json.loads``.  The numbers of a written matrix are
spelled by one ``orjson.dumps`` call, with the few tokens whose form
differs from ``json.dumps`` spelled again, so the bytes are those of
``json.dumps``.  orjson is imported inside those two steps only.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields
from itertools import chain

import numpy as np

from ._errors import DocumentError
from .core import KreinOperator, KreinSpace, ToleranceConfig
from .generators import GeneratorSpec

__all__ = [
    "OperatorDocument",
    "dumps_canonical",
    "generator_spec_from_json",
    "generator_spec_to_json",
    "load_operator_document",
    "parse_json",
    "parse_operator_document",
    "read_document",
]


# Separators of a matrix written at the first indent level: between the two
# numbers of a pair, between the pairs of a row, and between rows.
_NUM_SEP = ",\n        "
_PAIR_SEP = "\n      ],\n      [\n        "
_ROW_SEP = "\n      ]\n    ],\n    [\n      [\n        "


def _matrix_text(a: np.ndarray) -> str:
    """The indented pair list of ``a`` exactly as ``json.dumps(..., indent=2)``
    writes it under a top-level key (``NaN``, ``Infinity`` and ``-0.0``
    included).

    orjson spells every number in one call, with the shortest round-trip
    digits that ``repr`` writes too.  Its form differs only in exponents
    (``1e16``, ``1e-7`` for ``1e+16``, ``1e-07``), below ``1e-4`` (``0.00001``
    for ``1e-05``) and for non-finite floats (``null``).  So the tokens
    spelled again are picked by value: non-zero magnitudes below 1e-4 or
    from 1e16 up, and non-finite ones.  In [1e-4, 1e16), and for +-0.0,
    orjson's token is ``repr``'s (tests/test_documents.py pins this)."""
    import orjson  # imported here so that only writing a matrix loads it

    rows, cols = a.shape
    if rows == 0:
        return "[]"
    if cols == 0:
        return "[\n    " + ",\n    ".join(["[]"] * rows) + "\n  ]"
    parts = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64).ravel()
    nums = orjson.dumps(parts, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    size = np.abs(parts)
    # NaN fails both comparisons, so it is picked too
    for k in np.flatnonzero(~((size >= 1e-4) & (size < 1e16)) & (size != 0)).tolist():
        nums[k] = json.dumps(parts[k].item())  # repr for finite floats
    width = 2 * cols
    body = _ROW_SEP.join(
        _PAIR_SEP.join(
            map(_NUM_SEP.join, zip(nums[k : k + width : 2], nums[k + 1 : k + width : 2]))
        )
        for k in range(0, len(nums), width)
    )
    return f"[\n    [\n      [\n        {body}\n      ]\n    ]\n  ]"


def _key_text(key) -> str:
    if not isinstance(key, str):
        if key is not None and not isinstance(key, (int, float)):
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {type(key).__name__}"
            )
        key = json.dumps(key)
    return json.dumps(key)


def dumps_canonical(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, where a numpy
    array held by a top-level key counts as its row-major ``[re, im]`` pair
    list.  Other values go through ``json.dumps`` one key at a time; their
    newlines are all layout (json escapes those inside strings), so
    re-indenting them by one level is exact."""
    if not isinstance(obj, dict):
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if not obj:
        return "{}\n"
    out = ["{\n  "]
    for key, value in sorted(obj.items()):
        if isinstance(value, np.ndarray):
            text = _matrix_text(value)
        else:
            text = json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")
        out += (_key_text(key), ": ", text, ",\n  ")
    out[-1] = "\n}\n"
    return "".join(out)


def _integer(value, where: str) -> int:
    """``value`` if it is an integer (not a bool, nor even ``2.0``), else a DocumentError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(f"{where}: expected an integer, got {value!r}")
    return value


def complex_to_pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def pair_to_complex(pair, where: str) -> complex:
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
    ):
        raise DocumentError(f"{where}: expected a [re, im] number pair, got {pair!r}")
    try:
        real, imag = float(pair[0]), float(pair[1])
    except OverflowError:  # integer literals beyond the float range
        real = imag = math.inf
    if not (math.isfinite(real) and math.isfinite(imag)):
        raise DocumentError(f"{where}: expected finite numbers, got {pair!r}")
    return complex(real, imag)


def matrix_from_json(rows, dim: int, where: str, cols: int | None = None) -> np.ndarray:
    """``dim`` x ``cols`` complex matrix (square unless ``cols`` is given).

    Well-formed input is flattened in one pass and converted in one
    vectorized step; anything that step refuses is walked entry by entry
    to name the offending field."""
    cols = dim if cols is None else cols
    if not isinstance(rows, list) or len(rows) != dim:
        raise DocumentError(f"{where}: expected {dim} rows")
    if all(type(row) is list and len(row) == cols for row in rows):
        pairs = list(chain.from_iterable(rows))
        if all(type(pair) is list and len(pair) == 2 for pair in pairs):
            flat = list(chain.from_iterable(pairs))
            if set(map(type, flat)) <= {int, float}:
                try:
                    parts = np.array(flat, np.float64)
                except OverflowError:  # integer literals beyond the float range
                    pass
                else:
                    if np.isfinite(parts).all():
                        return parts.view(np.complex128).reshape(dim, cols)
    out = np.empty((dim, cols), dtype=np.complex128)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != cols:
            raise DocumentError(f"{where}[{i}]: expected {cols} entries")
        for j, pair in enumerate(row):
            out[i, j] = pair_to_complex(pair, f"{where}[{i}][{j}]")
    return out


_TOLERANCE_FIELDS = frozenset(f.name for f in fields(ToleranceConfig))


@dataclass
class OperatorDocument:
    """Serializable (space, operator) pair with optional tolerance
    overrides and free-form string metadata.  :meth:`build` hands the
    ``tolerances`` to the operator, which reads them in every verdict."""

    dim: int
    gram: np.ndarray
    matrix: np.ndarray
    tolerances: ToleranceConfig = field(default_factory=ToleranceConfig)
    tolerance_overrides: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        out = {
            "dim": self.dim,
            "gram": np.asarray(self.gram),
            "matrix": np.asarray(self.matrix),
        }
        if self.tolerance_overrides:
            out["tolerances"] = self.tolerance_overrides
        if self.metadata:
            out["metadata"] = self.metadata
        return dumps_canonical(out)

    def build(self) -> KreinOperator:
        """Instantiate the certified operator (its space is ``.space``);
        raises on invalid Gram or non-normal matrix."""
        try:
            space = KreinSpace(self.gram)
        except ValueError as exc:
            raise DocumentError(f"gram: {exc}") from exc
        return KreinOperator(self.matrix, space, self.tolerances)


def parse_json(text: str):
    """``json.loads`` with every parse failure raised as a DocumentError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # integer literals beyond Python's digit limit
        raise DocumentError(f"number out of range: {exc}") from exc
    except RecursionError as exc:  # arrays or objects nested too deep
        raise DocumentError(f"nesting too deep: {exc}") from exc


def _maybe_wide_integer(value) -> bool:
    """Whether orjson may have read ``value`` from an integer literal outside
    ``[-2**63, 2**64)``: it reads those as floats, ``json.loads`` as ints."""
    return isinstance(value, float) and abs(value) >= 2.0**63 and value.is_integer()


# orjson 3.8 recurses once per nesting level, without a limit, and overflows
# the C stack (a crash, not an exception) at about 50 000 levels of objects on
# an 8 MB stack.  Documents that may nest deeper than this are left to
# json.loads, as before; the bound of a dense operator document stays below
# it up to dim 254.
_ORJSON_MAX_DEPTH = 512
_NOT_BRACKET_OR_QUOTE = bytes(c for c in range(256) if c not in b'[]{}"')


def _depth_bound(data: bytes) -> int:
    """An upper bound on the nesting depth of the JSON text ``data``: one
    more than its count of ``[`` and ``{``, less the groups closed by the
    next bracket or quote after them, which hold no other group (2n + 4 for
    an operator document of dim n)."""
    marks = data.translate(None, _NOT_BRACKET_OR_QUOTE)
    opens = marks.count(b"[") + marks.count(b"{")
    return opens - marks.count(b"[]") - marks.count(b"{}") + 1


def _orjson_value(text: str):
    """The JSON value of ``text`` as orjson decodes it, about three times
    faster than ``json.loads``, or None where the two could differ.

    orjson refuses what ``json.loads`` reads: ``NaN``, ``Infinity``, numbers
    beyond the float range and lone surrogates.  It reads over-long integer
    literals as floats, which an accepted document keeps only in its
    tolerances.  And it could crash on text that nests too deep."""
    import orjson  # imported here so that only document decoding loads it

    data = text.encode("utf-8", "surrogatepass")  # lone surrogates too: orjson refuses them
    if _depth_bound(data) > _ORJSON_MAX_DEPTH:
        return None
    try:
        raw = orjson.loads(data)
    except orjson.JSONDecodeError:
        return None
    tols = raw.get("tolerances") if isinstance(raw, dict) else None
    if isinstance(tols, dict) and any(map(_maybe_wide_integer, tols.values())):
        return None
    return raw


def parse_operator_document(text: str) -> OperatorDocument:
    """The operator document of ``text``.  Its decode is orjson's wherever
    that gives ``json.loads``'s value; a refusal is always that of
    ``json.loads``'s value, with its message and field path."""
    raw = _orjson_value(text)
    if raw is not None:
        try:
            return _operator_document(raw)
        except DocumentError:
            pass  # refused: decode again, so the message is json.loads's
    return _operator_document(parse_json(text))


def _operator_document(raw) -> OperatorDocument:
    if not isinstance(raw, dict):
        raise DocumentError("top level: expected a JSON object")
    known = {"dim", "gram", "matrix", "tolerances", "metadata"}
    unknown = set(raw) - known
    if unknown:
        raise DocumentError(f"unknown fields: {sorted(unknown)}")
    dim = _integer(raw.get("dim"), "dim")
    if dim < 1:
        raise DocumentError(f"dim: expected a positive integer, got {dim}")
    for name in ("gram", "matrix"):
        if name not in raw:
            raise DocumentError(f"{name}: missing")
    gram = matrix_from_json(raw["gram"], dim, "gram")
    matrix = matrix_from_json(raw["matrix"], dim, "matrix")

    overrides = {}
    if "tolerances" in raw:
        tols = raw["tolerances"]
        if not isinstance(tols, dict):
            raise DocumentError("tolerances: expected an object")
        unknown = set(tols) - _TOLERANCE_FIELDS
        if unknown:
            raise DocumentError(f"tolerances: unknown fields {sorted(unknown)}")
        overrides = dict(tols)
    try:
        cfg = ToleranceConfig(**overrides)
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"tolerances: {exc}") from exc

    metadata = raw.get("metadata", {})
    if not isinstance(metadata, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in metadata.items()
    ):
        raise DocumentError("metadata: expected a string-to-string object")

    return OperatorDocument(
        dim=dim,
        gram=gram,
        matrix=matrix,
        tolerances=cfg,
        tolerance_overrides=overrides,
        metadata=metadata,
    )


def read_document(path: str) -> str:
    """The text of the file at ``path``, or of stdin for ``-``, decoded as
    strict UTF-8."""
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DocumentError(f"cannot read {path}: not UTF-8 text: {exc}") from exc


def load_operator_document(path: str) -> OperatorDocument:
    return parse_operator_document(read_document(path))


def generator_spec_to_json(spec: GeneratorSpec) -> dict:
    return {
        "signature": list(spec.signature),
        "positive_type_eigs": [
            {"value": complex_to_pair(v), "mult": m} for v, m in spec.positive_type_eigs
        ],
        "negative_type_eigs": [
            {"value": complex_to_pair(v), "mult": m} for v, m in spec.negative_type_eigs
        ],
        "neutral_pairs": [
            [complex_to_pair(a), complex_to_pair(b)] for a, b in spec.neutral_pairs
        ],
        "neutral_jordan": [complex_to_pair(v) for v in spec.neutral_jordan],
        "conjugation": None
        if spec.cond_bound is None
        else {"cond_bound": spec.cond_bound},
        "seed": spec.seed,
    }


def generator_spec_from_json(raw: dict) -> GeneratorSpec:
    if not isinstance(raw, dict):
        raise DocumentError("generator spec: expected a JSON object")
    try:
        signature = tuple(_integer(x, f"signature[{i}]") for i, x in enumerate(raw["signature"]))
        if len(signature) != 2:
            raise DocumentError("signature: expected [p, q]")
        mults = []
        for key in ("positive_type_eigs", "negative_type_eigs"):
            entries = []
            for i, item in enumerate(raw.get(key, [])):
                entries.append(
                    (
                        pair_to_complex(item["value"], f"{key}[{i}].value"),
                        _integer(item["mult"], f"{key}[{i}].mult"),
                    )
                )
            mults.append(tuple(entries))
        pairs = tuple(
            (
                pair_to_complex(item[0], f"neutral_pairs[{i}][0]"),
                pair_to_complex(item[1], f"neutral_pairs[{i}][1]"),
            )
            for i, item in enumerate(raw.get("neutral_pairs", []))
        )
        jordans = tuple(
            pair_to_complex(item, f"neutral_jordan[{i}]")
            for i, item in enumerate(raw.get("neutral_jordan", []))
        )
        conj = raw.get("conjugation")
        cond_bound = None
        if conj is not None:
            bound = conj["cond_bound"]
            if isinstance(bound, bool) or not isinstance(bound, (int, float)):
                raise DocumentError(f"conjugation.cond_bound: expected a number, got {bound!r}")
            cond_bound = float(bound)
        seed = _integer(raw.get("seed", 0), "seed")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DocumentError(f"generator spec: {exc!r}") from exc
    try:
        return GeneratorSpec(
            signature=signature,
            positive_type_eigs=mults[0],
            negative_type_eigs=mults[1],
            neutral_pairs=pairs,
            neutral_jordan=jordans,
            cond_bound=cond_bound,
            seed=seed,
        )
    except ValueError as exc:
        raise DocumentError(f"generator spec: {exc}") from exc
