"""Document round trips, CLI subcommands and exit codes."""

import json

import numpy as np
import pytest

from krein_spectra import DocumentError
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
            (["suite", "--trials", "0"], "--trials"),
            (["suite", "--trials", "2", "--only-trial", "5"], "--only-trial"),
            (["probe-resolvent", "OP", "--point", "nan,0", "--radii", "0.4"], "--point"),
            (["probe-resolvent", "OP", "--point", "1,inf", "--radii", "0.4"], "--point"),
            (["suite", "--trials", "1", "--cond-bound", "0.5"], "--cond-bound"),
            (["suite", "--trials", "1", "--cond-bound", "nan"], "--cond-bound"),
            (["suite", "--trials", "1", "--cond-bound", "inf"], "--cond-bound"),
            (["suite", "--trials", "2", "--seed", "0", "--threads", "-5"], "--threads"),
            (["suite", "--trials", "2", "--seed", "0", "--threads", "0"], "--threads"),
            (["project", "OP", "--disk=nan,0,1"], "--disk"),
            (["project", "OP", "--disk=0,0,inf"], "--disk"),
            (["project", "OP", "--rect=0,0,inf,1"], "--rect"),
            (["lsf-verify", "OP", "--disk=nan,0,1", "--json"], "--disk"),
        ],
        ids=[
            "radii-not-a-number", "radii-negative", "radii-increasing", "radii-infinite",
            "samples-zero", "samples-beyond-maximum", "disk-negative-radius", "rect-reversed", "dims-reversed",
            "trials-zero", "only-trial-out-of-range", "point-nan", "point-infinite",
            "cond-bound-below-one", "cond-bound-nan", "cond-bound-infinite",
            "threads-negative", "threads-zero", "disk-nan-center", "disk-infinite-radius",
            "rect-infinite-bound", "lsf-verify-disk-nan-center",
        ],
    )
    def test_bad_argument_is_exit_1(self, tmp_path, capsys, args, flag):
        path = str(write_operator(tmp_path))
        assert main([path if a == "OP" else a for a in args]) == 1
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err

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

    @pytest.mark.parametrize("command", ["classify", "sylvester", "generate"])
    def test_integer_literal_beyond_digit_limit_is_exit_1(self, tmp_path, capsys, command):
        path = tmp_path / "huge.json"
        path.write_text('{"dim": ' + "1" * 5000 + "}", encoding="utf-8")
        assert main([command, str(path)]) == 1
        assert "number out of range" in capsys.readouterr().err

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

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5", ""])
    def test_bad_thread_env_is_exit_1(self, capsys, monkeypatch, value):
        monkeypatch.setenv("KREIN_SPECTRA_THREADS", value)
        assert main(["suite", "--trials", "2", "--seed", "0"]) == 1
        err = capsys.readouterr().err
        assert "KREIN_SPECTRA_THREADS" in err and "Traceback" not in err

    def test_thread_env_cap_keeps_results(self, tmp_path, capsys, monkeypatch):
        serial = tmp_path / "serial.json"
        monkeypatch.setenv("KREIN_SPECTRA_THREADS", "1")
        assert main(
            ["suite", "--trials", "2", "--seed", "5", "--dims", "2:5",
             "--json-out", str(serial)]
        ) == 0
        monkeypatch.setenv("KREIN_SPECTRA_THREADS", "4")
        parallel = tmp_path / "parallel.json"
        assert main(
            ["suite", "--trials", "2", "--seed", "5", "--dims", "2:5",
             "--json-out", str(parallel)]
        ) == 0
        capsys.readouterr()
        assert serial.read_bytes() == parallel.read_bytes()
