"""Command line behavior: JSON documents on stdout, exit codes, file IO."""

import json

import numpy as np
import pytest

from bjorth import Field, Matrix, gen_ginibre
from bjorth.cli import main


def write_mat(tmp_path, name, rows, field="complex"):
    fld = Field.parse(field)
    m = Matrix(fld, np.array(rows, dtype=fld.dtype))
    p = tmp_path / name
    p.write_text(m.to_json())
    return str(p)


@pytest.fixture
def diag_pair(tmp_path):
    a = write_mat(tmp_path, "a.json", [[1, 0], [0, 0]])
    b = write_mat(tmp_path, "b.json", [[0, 0], [0, 1]])
    return a, b


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    doc = json.loads(out) if out.strip() else None
    return code, doc, err


def test_norm(tmp_path, capsys):
    a = write_mat(tmp_path, "a.json", [[2, 0], [0, 1]])
    code, doc, _ = run(capsys, ["norm", a])
    assert code == 0
    assert doc == {"schema_version": 1, "op_norm": 2.0, "rows": 2, "cols": 2,
                   "field": "complex"}


def test_distance(tmp_path, capsys):
    a = write_mat(tmp_path, "a.json", [[2, 0], [0, 1]])
    b = write_mat(tmp_path, "b.json", [[1, 0], [0, 1]])
    code, doc, _ = run(capsys, ["distance", a, b])
    assert code == 0
    assert doc["value"] == pytest.approx(0.5, abs=1e-6)
    assert doc["lambda"][0] == pytest.approx(-1.5, abs=1e-6)
    assert doc["lambda"][1] == pytest.approx(0.0, abs=1e-6)
    assert doc["budget_limited"] is False
    assert doc["stop_reason"] == "converged"
    assert doc["value"] - 1e-9 <= doc["lower_bound"] <= doc["value"]


def test_distance_budget_exhaustion(tmp_path, capsys):
    a = write_mat(tmp_path, "a.json", [[2, 0], [0, 1]])
    b = write_mat(tmp_path, "b.json", [[1, 0], [0, 1]])
    code, doc, _ = run(capsys, ["distance", a, b, "--budget", "8"])
    assert code == 3
    assert doc["budget_limited"] is True


def test_check_orthogonal_pair(diag_pair, capsys):
    code, doc, _ = run(capsys, ["check", *diag_pair])
    assert code == 0
    assert doc["status"] == "ORTHOGONAL"
    assert doc["margin"] == 0.0
    assert doc["witness"] is not None
    assert doc["witness_error"] is None


def test_check_parallel_pair(tmp_path, capsys):
    a = write_mat(tmp_path, "i.json", np.eye(2))
    code, doc, _ = run(capsys, ["check", a, a])
    assert code == 1
    assert doc["status"] == "NOT_ORTHOGONAL"
    assert doc["margin"] == pytest.approx(-1.0, abs=1e-7)


def test_check_single_route(diag_pair, capsys):
    code, doc, _ = run(capsys, ["check", *diag_pair, "--method", "def"])
    assert code == 0
    assert doc["method"] == "DEFINITIONAL"
    assert doc["witness"] is None


def test_witness_exact(diag_pair, capsys):
    code, doc, _ = run(capsys, ["witness", *diag_pair])
    assert code == 0
    assert doc["status"] == "ORTHOGONAL"
    assert doc["epsilon"] <= 1e-10
    assert len(doc["x"]) == 2 and len(doc["x"][0]) == 2


def test_witness_refused_with_certificate(tmp_path, capsys):
    a = write_mat(tmp_path, "i.json", np.eye(2))
    code, doc, _ = run(capsys, ["witness", a, a])
    assert code == 1
    assert doc["status"] == "NOT_ORTHOGONAL"
    assert doc["certificate"]["support"] == pytest.approx(1.0, abs=1e-8)


def test_witness_relaxed_failure(tmp_path, capsys):
    a = write_mat(tmp_path, "i.json", np.eye(2))
    code, doc, _ = run(capsys, ["witness", a, a, "--eps", "0.1"])
    assert code == 1
    assert doc["failed"] is True
    assert doc["best_value"] == pytest.approx(0.0, abs=1e-9)
    assert doc["threshold"] == pytest.approx(0.9, abs=1e-12)


def test_witness_relaxed_success(diag_pair, capsys):
    code, doc, _ = run(capsys, ["witness", *diag_pair, "--eps", "1e-6"])
    assert code == 0
    assert doc["ip_residual"] <= 1e-6


def test_minimax(diag_pair, capsys):
    code, doc, _ = run(capsys, ["minimax", *diag_pair])
    assert code == 0
    assert doc["lhs"] == pytest.approx(1.0, abs=1e-9)
    assert doc["rhs"] == pytest.approx(1.0, abs=1e-9)
    assert doc["restart_starved"] is False


@pytest.mark.parametrize("kind", ["random", "orthogonal"])
def test_rectangular_pair_routes_match_padded_pair(tmp_path, capsys, kind):
    # a real 2 x 3 pair and the same pair padded with a zero row to 3 x 3:
    # each command decides both, with the same exit code and status
    rng = np.random.default_rng(23)
    a, b = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
    if kind == "orthogonal":   # A attains its norm at e1, where B vanishes
        a = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        b[:, 0] = 0.0
    files = {}
    for shape, rows in (("wide", 2), ("square", 3)):
        pad = np.zeros((rows - 2, 3))
        files[shape] = (write_mat(tmp_path, f"{shape}.a.json", np.vstack([a, pad]), "real"),
                        write_mat(tmp_path, f"{shape}.b.json", np.vstack([b, pad]), "real"))
    expected = {"random": (1, 1, 0), "orthogonal": (0, 0, 0)}[kind]
    for cmd, want in zip(("check", "witness", "minimax"), expected):
        code, doc, _ = run(capsys, [cmd, *files["wide"]])
        square_code, square_doc, _ = run(capsys, [cmd, *files["square"]])
        assert (code, square_code) == (want, want), cmd
        assert doc.get("status") == square_doc.get("status"), cmd


def test_suite_with_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dims": [2], "trials_per_dim": 1, "seed": 3,
                               "tolerances": {"gap_tol": 1e-4}}))
    out = tmp_path / "report.json"
    csvf = tmp_path / "report.csv"
    code, doc, _ = run(capsys, ["suite", "--config", str(cfg),
                                "--out", str(out), "--csv", str(csvf)])
    assert code == 0
    assert doc is None                       # report went to the file
    report = json.loads(out.read_text())
    assert report["schema_version"] == 1
    assert report["config"]["seed"] == 3
    assert len(report["records"]) == 3
    assert csvf.read_text().splitlines()[0].startswith("dim,trial,suite")


def test_suite_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dims": [2], "trails_per_dim": 1}))
    code, _, err = run(capsys, ["suite", "--config", str(cfg)])
    assert code == 2
    assert "unknown suite config keys" in err


def test_suite_rejects_config_values_of_wrong_type(tmp_path, capsys):
    # exit 2 (input error), never 1 (NOT_ORTHOGONAL) or 3 (suite failures)
    cfg = tmp_path / "cfg.json"
    for doc in ({"dims": 3}, {"trials_per_dim": "5"}, {"dims": ["a"]}, {"seed": "x"},
                {"dims": [2.5]}, {"tolerances": {"gap_tol": "big"}}):
        cfg.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["suite", "--config", str(cfg)])
        assert (code, out) == (2, None), doc
        assert err.startswith("error: "), doc


def test_suite_seed_flag_beats_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dims": [2], "trials_per_dim": 1, "seed": 3}))
    out = tmp_path / "report.json"
    code, _, _ = run(capsys, ["suite", "--config", str(cfg), "--seed", "9",
                              "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["config"]["seed"] == 9


def test_gen_ginibre_stdout_round_trip(capsys):
    code, doc, _ = run(capsys, ["gen", "--kind", "ginibre", "--n", "3",
                                "--seed", "5"])
    assert code == 0
    assert doc["schema_version"] == 1
    m = Matrix.from_json_dict(doc)
    assert np.array_equal(m.data, gen_ginibre(3, 5).data)


def test_gen_orthopair_files_check_orthogonal(tmp_path, capsys):
    code, _, _ = run(capsys, ["gen", "--kind", "orthopair", "--n", "3",
                              "--seed", "8", "--out", str(tmp_path / "pair.json")])
    assert code == 0
    a = tmp_path / "pair.A.json"
    b = tmp_path / "pair.B.json"
    assert a.exists() and b.exists()
    code, doc, _ = run(capsys, ["check", str(a), str(b)])
    assert code == 0
    assert doc["status"] == "ORTHOGONAL"


def test_gen_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("BJORTH_SEED", "7")
    _, doc, _ = run(capsys, ["gen", "--kind", "ginibre", "--n", "2"])
    assert np.array_equal(Matrix.from_json_dict(doc).data, gen_ginibre(2, 7).data)
    _, doc, _ = run(capsys, ["gen", "--kind", "ginibre", "--n", "2",
                             "--seed", "9"])
    assert np.array_equal(Matrix.from_json_dict(doc).data, gen_ginibre(2, 9).data)


def test_bad_environment_seed(capsys, monkeypatch):
    monkeypatch.setenv("BJORTH_SEED", "many")
    code, _, err = run(capsys, ["gen", "--kind", "ginibre", "--n", "2"])
    assert code == 2
    assert "BJORTH_SEED" in err


def test_summary_goes_to_stderr(diag_pair, capsys):
    code = main(["check", *diag_pair, "--summary"])
    out, err = capsys.readouterr()
    assert code == 0
    json.loads(out)                          # stdout is exactly one document
    assert "ORTHOGONAL" in err


def test_out_file_keeps_stdout_quiet(tmp_path, diag_pair, capsys):
    target = tmp_path / "verdict.json"
    code, doc, _ = run(capsys, ["check", *diag_pair, "--out", str(target)])
    assert code == 0
    assert doc is None
    assert json.loads(target.read_text())["status"] == "ORTHOGONAL"


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, ["norm", "/nonexistent/a.json"])
    assert code == 2
    assert err.startswith("error:")


def test_malformed_matrix_is_input_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{\"rows\": 2}")
    code, _, _ = run(capsys, ["norm", str(p)])
    assert code == 2


def test_norm_outside_the_gram_range_is_input_error(tmp_path, capsys):
    # D8: entries of 1e200 overflow the Gram matrix; `norm` printed
    # "op_norm": NaN and `check` died with an IndexError (exit 1)
    a = write_mat(tmp_path, "a.json", 1e200 * np.eye(2))
    for argv in (["norm", a], ["check", a, a]):
        code, doc, err = run(capsys, argv)
        assert (code, doc) == (2, None), argv
        assert err.startswith("error:") and "supported range" in err


def test_nan_tol_is_input_error(tmp_path, capsys):
    a = write_mat(tmp_path, "a.json", [[2, 0], [0, 1]])
    b = write_mat(tmp_path, "b.json", [[1, 0], [0, 1]])
    code, doc, err = run(capsys, ["distance", a, b, "--tol", "nan"])
    assert (code, doc) == (2, None)
    assert err.startswith("error:")


def test_boolean_dimensions_are_input_error(tmp_path, capsys):
    p = tmp_path / "bool.json"
    p.write_text(json.dumps({"rows": True, "cols": 1, "field": "real", "data": [1.0]}))
    code, doc, err = run(capsys, ["norm", str(p)])
    assert (code, doc) == (2, None)
    assert err.startswith("error:")


def test_shape_mismatch_is_input_error(tmp_path, capsys):
    a = write_mat(tmp_path, "a.json", np.eye(2))
    b = write_mat(tmp_path, "b.json", np.eye(3))
    code, _, _ = run(capsys, ["check", a, b])
    assert code == 2


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
