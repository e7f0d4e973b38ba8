"""Document round trips, CLI subcommands and exit codes."""

import argparse
import ast
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import krein_spectra
from krein_spectra import DocumentError, cli
from krein_spectra.cli import main
from krein_spectra.documents import (
    OperatorDocument,
    dumps_canonical,
    generator_spec_from_json,
    generator_spec_to_json,
    matrix_from_json,
    pair_to_complex,
    parse_operator_document,
)
from krein_spectra.generators import GeneratorSpec

from conftest import boosted_matrix


def write_operator(tmp_path, name="op.json", gram=None, matrix=None, **extra):
    gram = np.diag([1.0, -1.0]) if gram is None else np.asarray(gram)
    matrix = np.diag([1.0, 2.0]) if matrix is None else np.asarray(matrix)
    doc = OperatorDocument(dim=gram.shape[0], gram=gram, matrix=matrix, **extra)
    path = tmp_path / name
    path.write_text(doc.to_json(), encoding="utf-8")
    return path


class TestDocuments:
    def test_round_trip_is_byte_identical(self, tmp_path):
        path = write_operator(tmp_path, metadata={"label": "reference"})
        text = path.read_text(encoding="utf-8")
        reparsed = parse_operator_document(text)
        assert reparsed.to_json() == text

    def test_malformed_json_reports_line(self):
        with pytest.raises(DocumentError, match="line 2"):
            parse_operator_document('{\n  "dim": oops\n}')

    def test_field_diagnostics(self):
        with pytest.raises(DocumentError, match="dim"):
            parse_operator_document('{"gram": [], "matrix": []}')
        with pytest.raises(DocumentError, match=r"gram\[0\]\[1\]"):
            parse_operator_document(
                '{"dim": 2, "gram": [[[1,0],[0]],[[0,0],[1,0]]], "matrix":'
                ' [[[1,0],[0,0]],[[0,0],[1,0]]]}'
            )

    def test_matrix_parse_bitwise_equal_to_entry_walk(self):
        rng = np.random.default_rng(17)
        parts = rng.standard_normal((6, 4, 2)) * 10.0 ** rng.integers(-300, 300, (6, 4, 2))
        parts[0, :, 0] = [-0.0, 0.0, 5e-324, -5e-324]
        rows = json.loads(json.dumps(parts.tolist()))
        rows[1][0] = [-3, 2**53 + 1]
        rows[2][3] = [10**300, 0]
        expected = np.array(
            [[pair_to_complex(p, "m") for p in row] for row in rows], dtype=np.complex128
        )
        out = matrix_from_json(rows, 6, "m", cols=4)
        assert out.dtype == np.complex128 and out.shape == (6, 4)
        assert out.tobytes() == expected.tobytes()

    def test_unknown_fields_rejected(self):
        with pytest.raises(DocumentError, match="unknown"):
            parse_operator_document('{"dim": 1, "gram": [[[1,0]]], "matrix": [[[1,0]]], "x": 3}')

    def test_tolerance_overrides(self):
        raw = {
            "dim": 1,
            "gram": [[[1.0, 0.0]]],
            "matrix": [[[5.0, 0.0]]],
            "tolerances": {"cluster_tol": 1e-9},
        }
        doc = parse_operator_document(json.dumps(raw))
        assert doc.tolerances.cluster_tol == 1e-9
        assert doc.to_json() == dumps_canonical(
            {
                "dim": 1,
                "gram": [[[1.0, 0.0]]],
                "matrix": [[[5.0, 0.0]]],
                "tolerances": {"cluster_tol": 1e-9},
            }
        )

    def test_generator_spec_json_round_trip(self):
        spec = GeneratorSpec(
            signature=(3, 2),
            positive_type_eigs=((1.0 + 0j, 2),),
            negative_type_eigs=((2.0 + 0j, 1),),
            neutral_pairs=(((0.5 + 0.5j), (-1.0 + 0j)),),
            cond_bound=100.0,
            seed=11,
        )
        raw = generator_spec_to_json(spec)
        assert generator_spec_from_json(raw) == spec


class TestExitCodes:
    def test_classify_ok(self, tmp_path, capsys):
        path = write_operator(tmp_path)
        assert main(["classify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "two-sided-positive" in out and "two-sided-negative" in out

    def test_malformed_input_is_exit_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["classify", str(path)]) == 1

    @pytest.mark.parametrize(
        "entry, where",
        [
            ("[true,0]", "matrix[1][1]"),
            ('["1",0]', "matrix[1][1]"),
            ("[1,0,0]", "matrix[1][1]"),
            ("[1]", "matrix[1][1]"),
            ("[[1,0],0]", "matrix[1][1]"),
            ("[0,0],[1,0]", "matrix[1]: expected 2 entries"),
        ],
    )
    def test_malformed_matrix_entry_is_exit_1(self, tmp_path, capsys, entry, where):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"dim": 2, "gram": [[[1,0],[0,0]],[[0,0],[-1,0]]],'
            f' "matrix": [[[1,0],[0,0]],[[0,0],{entry}]]}}',
            encoding="utf-8",
        )
        assert main(["classify", str(path)]) == 1
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400])
    def test_non_finite_matrix_entry_is_exit_1(self, tmp_path, capsys, token):
        path = tmp_path / "nan.json"
        path.write_text(
            '{"dim": 2, "gram": [[[1,0],[0,0]],[[0,0],[-1,0]]],'
            f' "matrix": [[[1,0],[0,0]],[[0,0],[{token},0]]]}}',
            encoding="utf-8",
        )
        assert main(["classify", str(path)]) == 1
        assert "matrix[1][1]" in capsys.readouterr().err

    def test_non_normal_operator_is_exit_2(self, tmp_path, capsys):
        path = write_operator(tmp_path, matrix=np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert main(["classify", str(path)]) == 2
        assert "residual" in capsys.readouterr().err

    def test_contour_through_spectrum_is_exit_3(self, tmp_path):
        path = write_operator(tmp_path)
        assert main(["project", str(path), "--disk", "0,0,1"]) == 3

    @pytest.mark.parametrize("command", ["project", "lsf-verify"])
    def test_wider_boundary_gap_is_exit_3(self, tmp_path, capsys, command):
        # the eigenvalue 100 lies 1.1e-3 inside the disk: beyond the
        # clustering radius, within cluster_tol * ||N|| of the boundary
        path = write_operator(tmp_path, matrix=boosted_matrix())
        assert main([command, str(path), "--disk", "99.0011249,0,1"]) == 3
        assert "within 2.017e-03" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["project", "lsf-verify"])
    def test_rectangle_edge_through_spectrum_is_exit_3(self, tmp_path, capsys, command):
        # the eigenvalue 1 lies on the closed lower edge, which conjugation
        # turns into an open edge: both paths refuse the region alike
        path = write_operator(tmp_path)
        assert main([command, str(path), "--rect", "0.5,0,1.5,1"]) == 3
        assert "within" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["probe-resolvent", "OP", "--point", "1,0", "--radii", "a"], "--radii"),
            (["probe-resolvent", "OP", "--point", "1,0", "--radii=-0.1"], "--radii"),
            (["probe-resolvent", "OP", "--point", "1,0", "--radii", "0.1,0.2"], "--radii"),
            (["probe-resolvent", "OP", "--point", "1,0", "--radii", "inf"], "--radii"),
            (["probe-resolvent", "OP", "--point", "1,0", "--radii", "0.4", "--samples", "0"],
             "--samples"),
            (["probe-resolvent", "OP", "--point", "1,0", "--radii=0.5",
              "--samples", "1000000000000"], "--samples"),
            (["project", "OP", "--disk=1,0,-1"], "--disk"),
            (["project", "OP", "--rect", "1,0,0,1"], "--rect"),
            (["suite", "--dims", "3:2"], "--dims"),
            # the suite's generator cannot separate the eigenvalues of a trial this large
            (["suite", "--trials", "1", "--dims", "150:150"], "--dims"),
            (["suite", "--trials", "0"], "--trials"),
            (["suite", "--trials", "2", "--only-trial", "5"], "--only-trial"),
            (["probe-resolvent", "OP", "--point", "nan,0", "--radii", "0.4"], "--point"),
            (["probe-resolvent", "OP", "--point", "1,inf", "--radii", "0.4"], "--point"),
            (["probe-resolvent", "OP", "--point=1", "--radii=0.4"], "--point"),
            (["probe-resolvent", "OP", "--point=1,0,0", "--radii=0.4"], "--point"),
            (["suite", "--trials", "1", "--cond-bound", "0.5"], "--cond-bound"),
            (["suite", "--trials", "1", "--cond-bound", "nan"], "--cond-bound"),
            (["suite", "--trials", "1", "--cond-bound", "inf"], "--cond-bound"),
            (["project", "OP", "--disk=nan,0,1"], "--disk"),
            (["project", "OP", "--disk=0,0,inf"], "--disk"),
            (["project", "OP", "--rect=0,0,inf,1"], "--rect"),
            (["lsf-verify", "OP", "--disk=nan,0,1", "--json"], "--disk"),
            (["lsf-verify", "OP", "--disk=1,0,0.4", "--seed", "-1"], "--seed"),
            (["lsf-verify", "OP", "--disk=1,0,0.4", "--subspaces", "-3"], "--subspaces"),
            (["lsf-verify", "OP", "--disk=1,0,0.4", "--subspaces", "0"], "--subspaces"),
            (["suite", "--trials", "2", "--seed", "-1"], "--seed"),
            (["project", "OP", "--rect=-1e308,-1e308,1e308,1e308"], "--rect"),
            (["project", "OP", "--disk=0,0,1e308"], "--disk"),
            # every sample 1 + 5e-324 e^{i theta} rounds onto the eigenvalue 1
            (["probe-resolvent", "OP", "--point=1,0", "--radii=1e300,5e-324"], "--radii"),
            (["probe-resolvent", "OP", "--point=1,0", "--radii=0.4,1e-16"], "--radii"),
            # every sample 1 + 1e-14 e^{i theta} lies within the clustering radius
            (["probe-resolvent", "OP", "--point=1,0", "--radii=0.4,1e-14"], "--radii"),
            (["probe-resolvent", "OP", "--point=1,0", "--radii=nan"], "--radii"),
            (["probe-resolvent", "OP", "--point=1,0", "--radii=0.4,nan"], "--radii"),
            (["probe-resolvent", "OP", "--point=1,0", "--radii=0.4", "--samples=0"], "--samples"),
        ],
        ids=[
            "radii-not-a-number", "radii-negative", "radii-increasing", "radii-infinite",
            "samples-zero", "samples-beyond-maximum", "disk-negative-radius", "rect-reversed",
            "dims-reversed", "dims-beyond-maximum",
            "trials-zero", "only-trial-out-of-range", "point-nan", "point-infinite",
            "point-one-number", "point-three-numbers",
            "cond-bound-below-one", "cond-bound-nan", "cond-bound-infinite",
            "disk-nan-center", "disk-infinite-radius",
            "rect-infinite-bound", "lsf-verify-disk-nan-center", "lsf-verify-seed-negative",
            "lsf-verify-subspaces-negative", "lsf-verify-subspaces-zero", "suite-seed-negative",
            "rect-overflowing-width", "disk-overflowing-nodes", "radii-sub-ulp",
            "radii-within-ulps", "radii-within-cluster-radius", "radii-nan", "radii-nan-tail",
            "samples-zero-inline",
        ],
    )
    def test_bad_argument_is_exit_1(self, tmp_path, capsys, args, flag):
        path = str(write_operator(tmp_path))
        assert main([path if a == "OP" else a for a in args]) == 1
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err

    def test_every_refused_argument_has_a_flag(self):
        # the library names a refused argument by its parameter: each name
        # passed to ArgumentError or require_integer in the package maps to a flag
        names = set()
        for path in Path(krein_spectra.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) in ("ArgumentError", "require_integer")
                    and isinstance(node.args[0], ast.Constant)
                ):
                    names.add(node.args[0].value)
        assert names and names <= set(cli.FLAGS), names - set(cli.FLAGS)
        # and each such flag is one the parser accepts
        subparsers = next(
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        flags = {f for p in subparsers.choices.values() for a in p._actions for f in a.option_strings}
        assert set(cli.FLAGS.values()) <= flags

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["lsf-verify", "OP", "--disk=1,0,0.4", "--seed", "nan"], "--seed"),
            (["lsf-verify", "OP", "--disk=1,0,0.4", "--subspaces", "1.5"], "--subspaces"),
            (["classify", "OP", "--bogus"], "--bogus"),
            (["suite", "--trials", "two"], "--trials"),
            # the suite runs its trials in one process: there is no worker
            # count, so the flag is refused whatever its value
            (["suite", "--trials", "2", "--threads", "1"], "--threads"),
            (["suite", "--trials", "2", "--seed", "0", "--threads", "-5"], "--threads"),
            (["suite", "--trials", "2", "--seed", "0", "--threads", "0"], "--threads"),
        ],
        ids=["seed-nan", "subspaces-float", "unknown-flag", "trials-word", "threads-flag",
             "threads-negative", "threads-zero"],
    )
    def test_usage_error_is_exit_1(self, tmp_path, capsys, args, flag):
        path = str(write_operator(tmp_path))
        with pytest.raises(SystemExit) as exc:
            main([path if a == "OP" else a for a in args])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert flag in err and "input error" in err and "Traceback" not in err

    @pytest.mark.parametrize("args", [["--help"], ["suite", "--help"]])
    def test_help_is_exit_0(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_sylvester_overlap_is_exit_2(self, tmp_path):
        payload = {
            "s": [[[1.0, 0.0]]],
            "t": [[[1.0, 0.0]]],
            "z": [[[1.0, 0.0]]],
        }
        path = tmp_path / "sylvester.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["sylvester", str(path)]) == 2

    def test_non_finite_tolerance_is_exit_1(self, tmp_path, capsys):
        path = tmp_path / "nan_tol.json"
        path.write_text(
            '{"dim": 1, "gram": [[[1,0]]], "matrix": [[[5,0]]],'
            ' "tolerances": {"rank_tol": NaN}}',
            encoding="utf-8",
        )
        assert main(["classify", str(path)]) == 1
        assert "tolerances: rank_tol" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [["project", "--disk", "1,0,0.4"], ["probe-resolvent", "--point=1,0", "--radii=0.5"]],
        ids=["project", "probe-resolvent"],
    )
    def test_contour_nodes_beyond_maximum_is_exit_1(self, tmp_path, capsys, args):
        path = tmp_path / "many_nodes.json"
        path.write_text(
            '{"dim": 2, "gram": [[[1,0],[0,0]],[[0,0],[-1,0]]],'
            ' "matrix": [[[1,0],[0,0]],[[0,0],[2,0]]],'
            ' "tolerances": {"contour_nodes": 1000000000000}}',
            encoding="utf-8",
        )
        assert main([args[0], str(path), *args[1:]]) == 1
        err = capsys.readouterr().err
        assert "tolerances: contour_nodes" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "tolerances, field",
        [
            ('{"contour_nodes": 128.0}', "contour_nodes"),
            ('{"contour_nodes": 100.5}', "contour_nodes"),
            ('{"contour_nodes": true}', "contour_nodes"),
            ('{"cluster_tol": true}', "cluster_tol"),
            ('{"rank_tol": "1e-8"}', "rank_tol"),
        ],
        ids=["integral-float-nodes", "fractional-nodes", "boolean-nodes", "boolean-tol", "string-tol"],
    )
    def test_tolerance_of_the_wrong_type_is_exit_1(self, tmp_path, capsys, tolerances, field):
        # a float node count ended in an untyped TypeError from a slice in
        # the quadrature; a boolean tolerance was read as 1.0
        path = tmp_path / "typed.json"
        path.write_text(
            '{"dim": 2, "gram": [[[1,0],[0,0]],[[0,0],[-1,0]]],'
            ' "matrix": [[[1,0],[0,0]],[[0,0],[2,0]]],'
            f' "tolerances": {tolerances}}}',
            encoding="utf-8",
        )
        assert main(["project", str(path), "--disk=1,0,0.5"]) == 1
        err = capsys.readouterr().err
        assert f"tolerances: {field}" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"signature": [2.9, 1]}, "signature[0]"),
            ({"signature": [2, True]}, "signature[1]"),
            ({"positive_type_eigs": [{"value": [1, 0], "mult": 2.7}]}, "positive_type_eigs[0].mult"),
            ({"positive_type_eigs": [{"value": [1, 0], "mult": True}]}, "positive_type_eigs[0].mult"),
            ({"negative_type_eigs": [{"value": [3, 0], "mult": 1.0}]}, "negative_type_eigs[0].mult"),
            ({"seed": 1.5}, "seed"),
            ({"seed": True}, "seed"),
            ({"conjugation": {"cond_bound": True}}, "cond_bound"),
            ({"conjugation": {"cond_bound": None}}, "cond_bound"),
            # an integer beyond the float range ended in an untyped OverflowError
            ({"conjugation": {"cond_bound": 10**400}}, "OverflowError"),
        ],
        ids=[
            "float-signature", "boolean-signature", "float-mult", "boolean-mult",
            "integral-float-mult", "float-seed", "boolean-seed", "boolean-cond-bound",
            "null-cond-bound", "huge-cond-bound",
        ],
    )
    def test_generate_refuses_numbers_it_would_truncate(self, tmp_path, capsys, change, field):
        # each was truncated to an integer (or read as 1) and generated
        spec = {
            "signature": [2, 1],
            "positive_type_eigs": [{"value": [1, 0], "mult": 2}],
            "negative_type_eigs": [{"value": [3, 0], "mult": 1}],
            "conjugation": {"cond_bound": 10},
            "seed": 3,
        }
        spec.update(change)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["generate", str(path), "-o", str(tmp_path / "op.json")]) == 1
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
        assert not (tmp_path / "op.json").exists()

    @pytest.mark.parametrize("dim", ["2.0", "true"])
    def test_dim_of_the_wrong_type_is_exit_1(self, tmp_path, capsys, dim):
        path = tmp_path / "dim.json"
        path.write_text(
            f'{{"dim": {dim}, "gram": [[[1,0],[0,0]],[[0,0],[-1,0]]],'
            ' "matrix": [[[1,0],[0,0]],[[0,0],[2,0]]]}',
            encoding="utf-8",
        )
        assert main(["classify", str(path)]) == 1
        assert "dim: expected an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["classify", "sylvester", "generate"])
    def test_integer_literal_beyond_digit_limit_is_exit_1(self, tmp_path, capsys, command):
        path = tmp_path / "huge.json"
        path.write_text('{"dim": ' + "1" * 5000 + "}", encoding="utf-8")
        assert main([command, str(path)]) == 1
        assert "number out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["classify", "sylvester", "generate"])
    def test_nesting_beyond_the_recursion_limit_is_exit_1(self, tmp_path, capsys, command):
        # json.loads's RecursionError ended in an untyped traceback
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert "input error: nesting too deep" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["classify", "sylvester", "generate"])
    def test_non_utf8_file_is_exit_1(self, tmp_path, capsys, command):
        # a UTF-16 byte order mark ended in an untyped UnicodeDecodeError
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert f"cannot read {path}: not UTF-8" in err and "Traceback" not in err

    def test_non_utf8_stdin_is_exit_1(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"{\x80}")))
        assert main(["classify", "-"]) == 1
        assert "cannot read -: not UTF-8" in capsys.readouterr().err

    def test_dim_beyond_64_bits_is_exit_1(self, tmp_path, capsys):
        # orjson reads this literal as a float, json.loads as an int: the
        # refusal is that of json.loads's value
        path = tmp_path / "dim.json"
        path.write_text(
            f'{{"dim": {2**64}, "gram": [[[1,0]]], "matrix": [[[1,0]]]}}', encoding="utf-8"
        )
        assert main(["classify", str(path)]) == 1
        assert f"gram: expected {2**64} rows" in capsys.readouterr().err

    @pytest.mark.parametrize("opener", ["[", '{"a": '], ids=["arrays", "objects"])
    def test_deeply_nested_document_does_not_crash(self, tmp_path, opener):
        # orjson 3.8 overflows the C stack at about 50 000 levels of objects
        # (on an 8 MB stack), which killed the interpreter with SIGSEGV
        closer = "]" if opener == "[" else "}"
        path = tmp_path / "deep.json"
        path.write_text(
            '{"dim": ' + opener * 200_000 + "1" + closer * 200_000 + "}", encoding="utf-8"
        )
        result = subprocess.run(
            [sys.executable, "-m", "krein_spectra.cli", "classify", str(path)],
            env=dict(os.environ, PYTHONPATH=str(Path(krein_spectra.__file__).parents[1])),
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 1, result.stderr[-500:]

    @pytest.mark.parametrize(
        "z, where",
        [('[[[NaN, 0]]]', "z[0][0]"), ('[[[1, 0], [2, 0]]]', "z[0]"), ('[[[1, 0]], [[2, 0]]]', "z")],
    )
    def test_sylvester_bad_rhs_is_exit_1(self, tmp_path, capsys, z, where):
        path = tmp_path / "sylvester.json"
        path.write_text(
            '{"s": [[[1, 0]]], "t": [[[2, 0]]], "z": ' + z + "}", encoding="utf-8"
        )
        assert main(["sylvester", str(path)]) == 1
        assert f"{where}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload, field",
        [({"s": [], "t": [[[2, 0]]], "z": []}, "s"), ({"s": [[[1, 0]]], "t": [], "z": [[]]}, "t")],
    )
    def test_sylvester_empty_coefficient_is_exit_1(self, tmp_path, capsys, payload, field):
        path = tmp_path / "sylvester.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["sylvester", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"input error: {field}:" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "spec, reason",
        [
            ({"signature": [0, 0]}, "empty"),
            (
                {
                    "signature": [1, 0],
                    "positive_type_eigs": [{"value": [1, 0], "mult": 1}],
                    "conjugation": {"cond_bound": 10},
                    "seed": -1,
                },
                "seed",
            ),
            # refused before any allocation: the operator would need petabytes
            (
                {
                    "signature": [10**7, 0],
                    "positive_type_eigs": [{"value": [1, 0], "mult": 10**7}],
                },
                "bound",
            ),
            # each was accepted and the operator generated; 1e400 reads as inf
            (
                {
                    "signature": [1, 0],
                    "positive_type_eigs": [{"value": [1, 0], "mult": 1}],
                    "conjugation": {"cond_bound": math.inf},
                },
                "cond_bound must be finite",
            ),
            (
                {
                    "signature": [1, 0],
                    "positive_type_eigs": [{"value": [1, 0], "mult": 1}],
                    "conjugation": {"cond_bound": math.nan},
                },
                "cond_bound must be finite",
            ),
        ],
        ids=[
            "empty-inventory", "negative-seed", "dimension-beyond-bound",
            "infinite-cond-bound", "nan-cond-bound",
        ],
    )
    def test_generate_bad_spec_is_exit_1(self, tmp_path, capsys, spec, reason):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["generate", str(path), "-o", str(tmp_path / "op.json")]) == 1
        err = capsys.readouterr().err
        assert "generator spec" in err and reason in err and "Traceback" not in err


class TestSubcommands:
    def test_classify_json_payload(self, tmp_path, capsys):
        path = write_operator(tmp_path)
        assert main(["classify", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [p["type"] for p in payload["points"]] == [
            "two-sided-positive",
            "two-sided-negative",
        ]

    def test_classify_identity_single_point(self, tmp_path, capsys):
        path = write_operator(tmp_path, gram=np.eye(2), matrix=np.eye(2))
        assert main(["classify", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["points"]) == 1
        point = payload["points"][0]
        assert point["type"] == "two-sided-positive"
        assert point["alg_mult"] == point["geo_mult"] == 2

    def test_project_emits_projection_and_discrepancy(self, tmp_path, capsys):
        path = write_operator(tmp_path)
        assert main(["project", str(path), "--disk", "1,0,0.4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["projection"][0][0] == [1.0, 0.0]
        assert payload["projection"][1][1] == [0.0, 0.0]
        assert payload["diagnostics"]["contour_oracle_discrepancy"] <= 1e-6

    def test_document_contour_nodes_set_quadrature(self, tmp_path, capsys):
        # the eigenvalue 2 lies 0.2 outside the circle: 16 nodes do not converge
        warnings = {}
        for nodes in (16, 128):
            path = write_operator(
                tmp_path, f"op{nodes}.json", tolerance_overrides={"contour_nodes": nodes}
            )
            assert main(["project", str(path), "--disk", "1,0,0.8"]) == 0
            warnings[nodes] = json.loads(capsys.readouterr().out)["diagnostics"][
                "contour_warnings"
            ]
        assert any(w.startswith("quadrature-not-converged") for w in warnings[16])
        assert warnings[128] == []

    def test_project_full_and_empty_region(self, tmp_path, capsys):
        path = write_operator(tmp_path)
        assert main(["project", str(path), "--disk", "1.5,0,5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rank"] == 2
        assert main(["project", str(path), "--disk", "40,40,1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rank"] == 0

    def test_sylvester_scalar(self, tmp_path, capsys):
        payload = {
            "s": [[[2.0, 0.0]]],
            "t": [[[1.0, 0.0]]],
            "z": [[[3.0, 0.0]]],
        }
        path = tmp_path / "sylvester.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["sylvester", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["x"][0][0] == [pytest.approx(3.0), pytest.approx(0.0)]
        assert out["spectral_gap"] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "command, text",
        [
            ("sylvester", '{"s": [[[2, 0]]], "t": [[[1, 0]]], "z": [[[3, 0]]]}'),
            ("generate", '{"signature": [1, 0], "positive_type_eigs": [{"value": [1, 0], "mult": 1}]}'),
        ],
        ids=["sylvester", "generate"],
    )
    def test_reads_stdin_for_dash(self, monkeypatch, capsys, command, text):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
        assert main([command, "-"]) == 0
        assert json.loads(capsys.readouterr().out)

    def test_generate_then_classify(self, tmp_path, capsys):
        spec = GeneratorSpec(
            signature=(2, 2),
            positive_type_eigs=((1.0 + 0j, 1),),
            negative_type_eigs=((-2.0 + 0j, 1),),
            neutral_pairs=(((3.0 + 0j), (5.0 + 0j)),),
            cond_bound=50.0,
            seed=3,
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(generator_spec_to_json(spec)), encoding="utf-8")
        doc_path = tmp_path / "generated.json"
        truth_path = tmp_path / "truth.json"
        assert (
            main(
                [
                    "generate", str(spec_path),
                    "--output", str(doc_path),
                    "--truth", str(truth_path),
                ]
            )
            == 0
        )
        assert main(["classify", str(doc_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        truth = json.loads(truth_path.read_text(encoding="utf-8"))
        got = sorted(p["type"] for p in payload["points"])
        expected = sorted(p["type"] for p in truth["points"])
        assert got == expected

    def test_probe_resolvent(self, tmp_path, capsys):
        path = write_operator(tmp_path, gram=np.eye(2))
        assert main(
            ["probe-resolvent", str(path), "--point", "1,0", "--radii", "0.4,0.2"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pole_order"] == 1
        assert payload["c_estimate"] == pytest.approx(1.0, abs=1e-9)

    def test_stability_json(self, tmp_path, capsys):
        path = write_operator(tmp_path)
        assert main(["stability", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stable"] is True and payload["certified"] is True

    def test_stability_emits_empty_minus_basis(self, tmp_path, capsys):
        path = write_operator(tmp_path, gram=np.eye(2))
        assert main(["stability", str(path), "--emit-bases"]) == 0
        text = capsys.readouterr().out
        payload = json.loads(text)
        assert payload["minus_dim"] == 0 and payload["minus_basis"] == [[], []]
        assert np.array(payload["plus_basis"]).shape == (2, 2, 2)
        assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_lsf_verify(self, tmp_path, capsys):
        path = write_operator(tmp_path)
        assert main(["lsf-verify", str(path), "--disk", "1,0,0.4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["fail"] == 0

    def test_document_tolerances_reach_every_operator_subcommand(self, tmp_path, capsys):
        # diag(1, 1.05, 3) against diag(1, 1, -1): at the default tolerances
        # three simple definite points; a cluster_tol of 0.02 (radius 0.06)
        # merges 1 and 1.05 into one cluster at 1.025, whose shifted block
        # has no kernel: a neutral point of algebraic multiplicity 2
        gram, matrix = np.diag([1.0, 1.0, -1.0]), np.diag([1.0, 1.05, 3.0])
        default = str(write_operator(tmp_path, "default.json", gram, matrix))
        merged = str(
            write_operator(
                tmp_path, "merged.json", gram, matrix, tolerance_overrides={"cluster_tol": 0.02}
            )
        )

        def run(*argv):
            code = main(list(argv))
            out, err = capsys.readouterr()
            return code, json.loads(out) if code == 0 else err

        clusters = {default: [(1.0, 1), (1.05, 1), (3.0, 1)], merged: [(1.025, 2), (3.0, 1)]}
        for doc, expected in clusters.items():
            points = run("classify", doc, "--json")[1]["points"]
            assert [(pytest.approx(p["value"][0]), p["alg_mult"]) for p in points] == expected
        # a region splitting the merged cluster is refused
        assert run("project", default, "--disk=1,0,0.03")[1]["rank"] == 1
        code, err = run("project", merged, "--disk=1,0,0.03")
        assert code == 3 and "within 6.000e-02" in err
        # the carrier holds the merged cluster, which is not two-sided positive
        assert run("lsf-verify", default, "--disk=1,0,0.5", "--json")[0] == 0
        code, err = run("lsf-verify", merged, "--disk=1,0,0.5", "--json")
        assert code == 2 and "1.025+0j [neutral]" in err
        # the probe floor is the clustering radius
        probe = ("--point=1,0", "--radii=0.4,0.04")
        assert run("probe-resolvent", default, *probe)[1]["pole_order"] == 1
        code, err = run("probe-resolvent", merged, *probe)
        assert code == 1 and "within 0.06" in err
        assert run("stability", default)[1]["stable"] is True
        assert run("stability", merged)[1]["stable"] is False

    def test_dispatch_runs_the_command_bound_at_call_time(self, tmp_path, monkeypatch, capsys):
        # a wrapper installed on a cmd_* function after the first main() call
        # has cached the parser is the function the next call runs
        path = str(write_operator(tmp_path))
        assert main(["classify", path, "--json"]) == 0
        calls, original = [], cli.cmd_classify
        monkeypatch.setattr(cli, "cmd_classify", lambda args: calls.append(args) or original(args))
        assert main(["classify", path, "--json"]) == 0
        assert [args.input for args in calls] == [path]
        capsys.readouterr()


class TestSuiteCommand:
    def test_deterministic_report_json(self, tmp_path, capsys):
        first = tmp_path / "r1.json"
        second = tmp_path / "r2.json"
        args = ["suite", "--trials", "2", "--seed", "5", "--dims", "2:5"]
        assert main(args + ["--json-out", str(first)]) == 0
        assert main(args + ["--json-out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        capsys.readouterr()

    def test_only_trial_reproduction(self, tmp_path, capsys):
        full = tmp_path / "full.json"
        one = tmp_path / "one.json"
        assert main(
            ["suite", "--trials", "3", "--seed", "9", "--dims", "2:4",
             "--json-out", str(full)]
        ) == 0
        assert main(
            ["suite", "--trials", "3", "--seed", "9", "--dims", "2:4",
             "--only-trial", "1", "--json-out", str(one)]
        ) == 0
        capsys.readouterr()
        full_entries = [
            e for e in json.loads(full.read_text())["entries"] if e["trial"] == 1
        ]
        one_entries = json.loads(one.read_text())["entries"]
        assert [e["name"] for e in full_entries] == [e["name"] for e in one_entries]
        assert [e["residual"] for e in full_entries] == [
            e["residual"] for e in one_entries
        ]

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5", "", "4"])
    def test_thread_env_is_ignored(self, tmp_path, capsys, monkeypatch, value):
        # the suite reads no worker setting: a leftover KREIN_SPECTRA_THREADS,
        # valid or not, neither refuses the run nor changes its report
        args = ["suite", "--trials", "2", "--seed", "5", "--dims", "2:5", "--json-out"]
        monkeypatch.delenv("KREIN_SPECTRA_THREADS", raising=False)
        plain = tmp_path / "plain.json"
        assert main(args + [str(plain)]) == 0
        monkeypatch.setenv("KREIN_SPECTRA_THREADS", value)
        with_env = tmp_path / "with_env.json"
        assert main(args + [str(with_env)]) == 0
        assert "KREIN_SPECTRA_THREADS" not in capsys.readouterr().err
        assert with_env.read_bytes() == plain.read_bytes()


# Negative, zero, huge and non-finite spellings of a flag value.
_EXTREME = st.one_of(
    st.integers(-(2**80), 0),
    st.integers(2**40, 2**80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "1e300", "5e-324"]),
).map(str)


def _int_in(lo, hi=math.inf):
    def valid(value):
        try:
            return lo <= int(value) <= hi
        except ValueError:  # a float spelling, or not a number
            return False

    return valid


def _finite(value):
    return math.isfinite(float(value))


def _positive(value):
    return 0 < float(value) < math.inf


_SUITE = ["suite", "--trials", "1", "--dims", "2:2"]


@st.composite
def _extreme_argv(draw):
    """One subcommand on OP (an operator document), SYL (a Sylvester
    document) or SPEC (a generator spec) with one or more flag values drawn
    from _EXTREME, and whether a drawn value is of the wrong type or out of
    range for its flag."""
    refused = []

    def part(sane, valid):
        value = draw(st.one_of(st.just(sane), _EXTREME))
        if value != sane and not valid(value):
            refused.append(value)
        return value

    builders = [
        lambda: ["lsf-verify", "OP", "--disk=1,0,0.4", "--seed", part("0", _int_in(0))],
        lambda: ["lsf-verify", "OP", "--disk=1,0,0.4", "--subspaces", part("4", _int_in(1, 2**14))],
        lambda: ["probe-resolvent", "OP", "--point=1,0", "--radii=0.4",
                 "--samples", part("4", _int_in(1, 2**14))],
        lambda: ["probe-resolvent", "OP", "--point=1,0",
                 f"--radii={part('0.4', _positive)},{part('0.2', _positive)}"],
        lambda: ["project", "OP",
                 f"--disk={part('1', _finite)},{part('0', _finite)},{part('0.4', _positive)}"],
        lambda: ["lsf-verify", "OP",
                 f"--disk={part('1', _finite)},{part('0', _finite)},{part('0.4', _positive)}"],
        lambda: ["project", "OP", f"--rect={part('0.5', _finite)},{part('-1', _finite)},"
                 f"{part('1.5', _finite)},{part('1', _finite)}"],
        lambda: ["lsf-verify", "OP", f"--rect={part('0.5', _finite)},{part('-1', _finite)},"
                 f"{part('1.5', _finite)},{part('1', _finite)}"],
        # a value where none is expected is an unknown argument
        lambda: ["classify", "OP", part("--json", lambda v: False)],
        lambda: ["stability", "OP", part("--emit-bases", lambda v: False)],
        lambda: ["sylvester", part("SYL", lambda v: False)],
        lambda: ["generate", part("SPEC", lambda v: False)],
        lambda: _SUITE + ["--seed", part("0", _int_in(0))],
        lambda: _SUITE + ["--only-trial", part("0", _int_in(0, 0))],
        lambda: _SUITE + ["--cond-bound", part("10", lambda v: 1 <= float(v) < math.inf)],
    ]
    argv = draw(st.sampled_from(builders))()
    return argv, bool(refused)


@pytest.fixture(scope="module")
def dim3_documents(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("dim3")
    gram, matrix = np.diag([1.0, -1.0, 1.0]), np.diag([1.0, 2.0, 3.0 + 1.0j])
    syl = tmp / "syl.json"
    syl.write_text('{"s": [[[1, 0]]], "t": [[[2, 0]]], "z": [[[1, 0]]]}', encoding="utf-8")
    spec = tmp / "spec.json"
    spec.write_text(
        '{"signature": [1, 1], "positive_type_eigs": [{"value": [1, 0], "mult": 1}],'
        ' "negative_type_eigs": [{"value": [3, 0], "mult": 1}]}',
        encoding="utf-8",
    )
    return {"OP": str(write_operator(tmp, gram=gram, matrix=matrix)),
            "SYL": str(syl), "SPEC": str(spec)}


@settings(max_examples=60, deadline=None)
@given(case=_extreme_argv())
def test_extreme_flag_values_end_in_an_exit_code(dim3_documents, case):
    argv, refused = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([dim3_documents.get(a, a) for a in argv])
        except SystemExit as exc:  # argparse refuses a value of the wrong type
            code = exc.code
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())
    # a value of the wrong type or out of range is an input error
    assert code == 1 if refused else code in range(5), (argv, code, err.getvalue())


# Runs the subcommands given as JSON in argv[1] in one fresh interpreter and
# prints, after the import and after each call, the exit code and whether
# scipy.linalg, concurrent.futures and orjson have been imported.
_IMPORT_PROBE = """
import contextlib, io, json, sys
from krein_spectra.cli import main
def loaded():
    return [m in sys.modules for m in ("scipy.linalg", "concurrent.futures", "orjson")]
print(json.dumps(["import", 0, *loaded()]))
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    print(json.dumps([argv[0], code, *loaded()]))
"""


def _run_import_probe(calls):
    env = dict(os.environ, PYTHONPATH=str(Path(krein_spectra.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(calls)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return [json.loads(line) for line in result.stdout.splitlines()]


def _write_generator_spec(tmp_path):
    spec = GeneratorSpec(
        signature=(4, 3),
        positive_type_eigs=((1.0 + 0j, 2),),
        negative_type_eigs=((-2.0 + 1j, 1),),
        neutral_jordan=(3.0 - 1j,),
        neutral_pairs=((0.5 - 2j, -1.5 + 0.5j),),
        cond_bound=10.0,
        seed=4,
    )
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(generator_spec_to_json(spec)), encoding="utf-8")
    return spec_path


def test_desk_subcommands_never_import_scipy_linalg(tmp_path):
    """Only generate and suite need scipy.linalg (for expm); the LAPACK
    routines the other subcommands call are loaded without it.  No
    subcommand imports concurrent.futures: nothing runs on a worker pool.
    The import of the CLI does not load orjson; the first operator
    document does."""
    spec_path = _write_generator_spec(tmp_path)
    op = str(tmp_path / "op.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", str(spec_path), "-o", op]) == 0
    syl = tmp_path / "syl.json"
    syl.write_text('{"s": [[[1, 0]]], "t": [[[2, 0]]], "z": [[[1, 0]]]}', encoding="utf-8")
    out = str(tmp_path / "out.json")
    calls = [
        ["classify", op, "--json", "-o", out],
        ["project", op, "--disk=1,0,0.5", "-o", out],
        ["lsf-verify", op, "--disk=1,0,0.5", "-o", out],
        ["probe-resolvent", op, "--point=3,-1", "--radii=0.4,0.2", "-o", out],
        ["stability", op, "--emit-bases", "-o", out],
        ["sylvester", str(syl), "-o", out],
    ]
    rows = _run_import_probe(calls)
    names = ["import"] + [c[0] for c in calls]
    assert rows == [[name, 0, False, False, name != "import"] for name in names]


def test_only_operator_documents_and_written_matrices_import_orjson(tmp_path):
    """orjson decodes operator documents and spells written matrices:
    classify loads it, and so do generate and sylvester, which write one.
    suite does neither, and never loads it."""
    spec_path = _write_generator_spec(tmp_path)
    op = str(tmp_path / "op.json")
    syl = tmp_path / "syl.json"
    syl.write_text('{"s": [[[1, 0]]], "t": [[[2, 0]]], "z": [[[1, 0]]]}', encoding="utf-8")
    probes = [
        [["suite", "--trials", "1", "--seed", "0"],
         ["sylvester", str(syl), "-o", str(tmp_path / "x.json")]],
        [["generate", str(spec_path), "-o", op]],
        [["classify", op]],
    ]
    rows = [row for calls in probes for row in _run_import_probe(calls)]
    assert [(name, code, orjson) for name, code, _, _, orjson in rows] == [
        ("import", 0, False),
        ("suite", 0, False),
        ("sylvester", 0, True),
        ("import", 0, False),
        ("generate", 0, True),
        ("import", 0, False),
        ("classify", 0, True),
    ]
