"""Seeded generators, suite runner, report and CSV serialization."""

import csv
import json

import numpy as np
import pytest

from bjorth import (
    Field,
    InputError,
    Status,
    SuiteConfig,
    Tolerances,
    Witness,
    check_definitional,
    find_witness,
    gen_ginibre,
    gen_orthogonal_pair,
    inner,
    operator_norm,
    run_suite,
    save_csv,
    save_report,
    trial_seed,
)
from bjorth.core import top_singular_subspace
from bjorth.minimax import minimax_report

SMOKE = SuiteConfig(dims=(2,), trials_per_dim=2, seed=1)


def strip_runtimes(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "runtimes"}


# ------------------------------------------------------------------ generators


def test_ginibre_is_deterministic():
    assert np.array_equal(gen_ginibre(3, 5).data, gen_ginibre(3, 5).data)
    assert not np.array_equal(gen_ginibre(3, 5).data, gen_ginibre(3, 6).data)
    assert gen_ginibre(3, 5, Field.REAL).field is Field.REAL


def test_ginibre_moments():
    z = gen_ginibre(100, 2).data            # 1e4 complex entries
    assert abs(z.mean()) <= 0.05
    assert abs((np.abs(z) ** 2).mean() - 1.0) <= 0.05
    x = gen_ginibre(100, 3, Field.REAL).data
    assert abs(x.mean()) <= 0.05
    assert abs(x.var() - 1.0) <= 0.05


def test_ginibre_validation():
    with pytest.raises(InputError):
        gen_ginibre(0, 1)


def test_orthogonal_pair_construction():
    a, b = gen_orthogonal_pair(2, 0)
    x0 = top_singular_subspace(a).top_subspace[0].data
    ip = inner(a.data @ x0, b.data @ x0)
    assert abs(ip) <= 1e-12 * operator_norm(a) * operator_norm(b)
    assert check_definitional(a, b).status is Status.ORTHOGONAL


def test_orthogonal_pair_real_field():
    a, b = gen_orthogonal_pair(3, 4, Field.REAL)
    assert a.field is Field.REAL and b.field is Field.REAL
    assert isinstance(find_witness(a, b), Witness)


def test_orthogonal_pair_validation():
    with pytest.raises(InputError):
        gen_orthogonal_pair(1, 0)


def test_trial_seed_is_stable_and_distinct():
    base = trial_seed(0, 2, 0, 0)
    assert base == trial_seed(0, 2, 0, 0)
    others = {trial_seed(0, 2, 0, 1), trial_seed(0, 2, 1, 0),
              trial_seed(0, 3, 0, 0), trial_seed(1, 2, 0, 0)}
    assert base not in others and len(others) == 4
    assert 0 <= base < 2 ** 64


# ---------------------------------------------------------------- suite config


def test_tolerances_defaults():
    t = Tolerances()
    assert (t.decision_tol, t.gap_tol, t.witness_eps) == (1e-7, 1e-4, 1e-6)
    assert t.to_json_dict() == {"decision_tol": 1e-7, "gap_tol": 1e-4,
                                "witness_eps": 1e-6}


def test_suite_config_validation():
    with pytest.raises(InputError):
        SuiteConfig(dims=(1, 2))
    with pytest.raises(InputError):
        SuiteConfig(dims=())
    with pytest.raises(InputError):
        SuiteConfig(trials_per_dim=0)
    # values of the wrong type, as a JSON config can carry them
    for kw in ({"dims": 3}, {"dims": ["a"]}, {"dims": [2.5]}, {"dims": [True, 2]},
               {"trials_per_dim": "5"}, {"trials_per_dim": True}, {"seed": "x"},
               {"seed": 1.0}):
        with pytest.raises(InputError):
            SuiteConfig(**kw)
    for kw in ({"gap_tol": "big"}, {"gap_tol": True}, {"decision_tol": 0.0},
               {"decision_tol": -1e-7}, {"witness_eps": float("nan")},
               {"witness_eps": float("inf")}, {"gap_tol": None}):
        with pytest.raises(InputError):
            Tolerances(**kw)
    assert SuiteConfig(dims=[2, 3]).dims == (2, 3)


def test_suite_config_json():
    doc = SuiteConfig().to_json_dict()
    assert doc["dims"] == [2, 3, 4, 5, 6]
    assert doc["trials_per_dim"] == 40
    assert doc["field"] == "complex"
    assert doc["tolerances"]["gap_tol"] == 1e-4


# ------------------------------------------------------------------ run_suite


def test_suite_smoke():
    report = run_suite(SMOKE)
    assert report["schema_version"] == 1
    assert report["failures"] == []
    assert len(report["records"]) == 6      # 3 sub-suites x 1 dim x 2 trials
    suites = {r["suite"] for r in report["records"]}
    assert suites == {"minimax", "agreement", "witness_quality"}
    agg = report["aggregates"]
    assert agg["minimax"]["trials"] == 2
    assert agg["minimax"]["max_rel_gap"] <= 1e-4
    assert agg["agreement"]["agreeing"] + agg["agreement"]["boundary"] == 2
    assert agg["witness_quality"]["max_ip_residual_rel"] <= 1e-6
    assert set(report["runtimes"]) == {"minimax", "agreement",
                                       "witness_quality", "total"}


def test_suite_records_carry_replay_seeds():
    report = run_suite(SMOKE)
    for rec in report["records"]:
        assert {"suite", "dim", "trial", "seed"} <= set(rec)


def test_suite_is_deterministic_modulo_runtimes():
    one = json.dumps(strip_runtimes(run_suite(SMOKE)), sort_keys=True)
    two = json.dumps(strip_runtimes(run_suite(SMOKE)), sort_keys=True)
    assert one == two
    other = json.dumps(strip_runtimes(run_suite(
        SuiteConfig(dims=(2,), trials_per_dim=2, seed=2))), sort_keys=True)
    assert one != other


def test_suite_minimax_record_replays_bitwise():
    report = run_suite(SMOKE)
    rec = next(r for r in report["records"] if r["suite"] == "minimax")
    a = gen_ginibre(rec["dim"], rec["seed"], SMOKE.field)
    b = gen_ginibre(rec["dim"], (rec["seed"] + 1) & (2 ** 64 - 1), SMOKE.field)
    rep = minimax_report(a, b, gap_tol=SMOKE.tolerances.gap_tol)
    assert rep.lhs_value == rec["lhs"]
    assert rep.rhs_value == rec["rhs"]
    assert rep.gap == rec["gap"]


def test_suite_accepts_loose_decision_tol():
    cfg = SuiteConfig(dims=(2,), trials_per_dim=3, seed=5,
                      tolerances=Tolerances(decision_tol=0.1))
    report = run_suite(cfg)
    assert report["failures"] == []


# -------------------------------------------------------------- serialization


def test_save_report_round_trip(tmp_path):
    report = run_suite(SMOKE)
    path = tmp_path / "report.json"
    save_report(report, str(path))
    back = json.loads(path.read_text())
    assert strip_runtimes(back) == json.loads(
        json.dumps(strip_runtimes(report)))


def test_save_csv_layout(tmp_path):
    report = run_suite(SMOKE)
    path = tmp_path / "report.csv"
    save_csv(report, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["dim", "trial", "suite", "verdict", "margin", "gap",
                       "witness_residual"]
    assert len(rows) == 1 + len(report["records"])
    by_suite = {r[2]: r for r in rows[1:]}
    assert by_suite["minimax"][3] == ""          # no verdict column content
    assert by_suite["minimax"][5] != ""          # gap present
    assert by_suite["witness_quality"][6] != ""  # residual present
