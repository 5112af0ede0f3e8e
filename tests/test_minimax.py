"""Both sides of the sup-inf / inf-sup norm identity and the gap report."""

import numpy as np
import pytest

import _oracles
from bjorth import (
    Field,
    InputError,
    Matrix,
    Vector,
    gen_ginibre,
    gen_orthogonal_pair,
    inner_inf,
    lhs_sup_inf,
    minimax_report,
    operator_norm,
    rhs_inf_sup,
)


def cmat(rows) -> Matrix:
    return Matrix(Field.COMPLEX, np.array(rows, dtype=complex))


def rmat(rows) -> Matrix:
    return Matrix(Field.REAL, np.array(rows, dtype=float))


def test_report_orthogonal_diagonals():
    rep = minimax_report(cmat([[1, 0], [0, 0]]), cmat([[0, 0], [0, 1]]))
    assert rep.lhs_value == pytest.approx(1.0, abs=1e-9)
    assert rep.rhs_value == pytest.approx(1.0, abs=1e-9)
    assert -1e-9 <= rep.gap <= 1e-8
    assert not rep.restart_starved and not rep.budget_limited


def test_report_identity_pair():
    rep = minimax_report(cmat(np.eye(2)), cmat(np.eye(2)))
    assert rep.lhs_value == pytest.approx(0.0, abs=1e-7)
    assert rep.rhs_value == pytest.approx(0.0, abs=1e-7)
    assert abs(complex(rep.argmin_lambda) - (-1.0)) <= 1e-5


def test_report_nilpotent_direction():
    rep = minimax_report(rmat([[1, 0], [0, 0]]), rmat([[0, 1], [0, 0]]))
    assert rep.rhs_value == pytest.approx(1.0, abs=1e-9)
    assert abs(rep.argmin_lambda) <= 1e-6
    assert rep.lhs_value == pytest.approx(1.0, abs=1e-6)


def test_report_seeded_ginibre_closes_gap():
    rep = minimax_report(gen_ginibre(3, 42), gen_ginibre(3, 43))
    assert rep.rel_gap <= 1e-4
    assert rep.gap >= -1e-9
    assert not rep.restart_starved


def test_report_json_keys():
    rep = minimax_report(cmat([[1, 0], [0, 0]]), cmat([[0, 0], [0, 1]]))
    doc = rep.to_json_dict()
    assert set(doc) == {"field", "lhs", "rhs", "gap", "rel_gap", "argmin_lambda",
                        "argmax_x", "evaluations", "restarts_used",
                        "restart_starved", "budget_limited"}
    assert doc["field"] == "complex"
    assert isinstance(doc["argmin_lambda"], list) and len(doc["argmin_lambda"]) == 2
    assert all(len(p) == 2 for p in doc["argmax_x"])


def test_validation():
    with pytest.raises(InputError):
        lhs_sup_inf(rmat(np.eye(2)), cmat(np.eye(2)))


def test_report_on_one_row_pairs():
    # B = A, so lambda = -1 reaches zero and both sides of the identity vanish
    for a in (cmat([[1.0]]), rmat([[1.0, 0.0]])):
        rep = minimax_report(a, a)
        assert rep.rhs_value == pytest.approx(0.0, abs=1e-9)
        assert rep.lhs_value == pytest.approx(0.0, abs=1e-9)
        assert not rep.restart_starved


def test_weak_duality_random_pairs():
    for seed in range(4):
        fld = Field.REAL if seed % 2 else Field.COMPLEX
        a = gen_ginibre(2 + seed, 600 + seed, fld)
        b = gen_ginibre(2 + seed, 700 + seed, fld)
        rep = minimax_report(a, b)
        assert rep.gap >= -1e-9
        assert rep.rel_gap <= 1e-4
        assert rep.rhs_value <= operator_norm(a) + 1e-12


def test_lhs_monotone_in_restarts():
    a = gen_ginibre(4, 801)
    b = gen_ginibre(4, 802)
    small = lhs_sup_inf(a, b, restarts=2, seed=3)
    large = lhs_sup_inf(a, b, restarts=12, seed=3)
    assert small.value <= large.value + 1e-12


def test_lhs_beats_interior_points():
    # the objective is positively homogeneous, so the sphere max dominates
    # every point of the closed ball
    a = gen_ginibre(3, 810)
    b = gen_ginibre(3, 811)
    lhs = lhs_sup_inf(a, b).value
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(812)))
    for _ in range(25):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x *= rng.uniform(0.05, 1.0) / np.linalg.norm(x)
        val = inner_inf(Vector(Field.COMPLEX, a.data @ x),
                        Vector(Field.COMPLEX, b.data @ x)).value
        assert val <= lhs + 1e-9


def test_report_unitarily_invariant():
    a = gen_ginibre(3, 820)
    b = gen_ginibre(3, 821)
    u = _oracles.haar_unitary(3, 822)
    v = _oracles.haar_unitary(3, 823)
    base = minimax_report(a, b)
    rot = minimax_report(Matrix(a.field, u @ a.data @ v),
                         Matrix(b.field, u @ b.data @ v))
    assert abs(base.lhs_value - rot.lhs_value) <= 1e-6
    assert abs(base.rhs_value - rot.rhs_value) <= 1e-6


def test_rhs_reaches_norm_a_at_orthogonality():
    a, b = gen_orthogonal_pair(4, 31)
    rep = minimax_report(a, b)
    assert abs(rep.rhs_value - operator_norm(a)) <= 1e-6
    assert abs(rep.lhs_value - operator_norm(a)) <= 1e-6


def test_unreachable_gap_tol_reports_starvation():
    rep = minimax_report(gen_ginibre(3, 830), gen_ginibre(3, 831), budget=8)
    assert rep.restart_starved and rep.budget_limited
    assert rep.rel_gap > 1e-4
    assert rep.restarts_used == 0


def test_rhs_budget_flag_propagates():
    rep = minimax_report(gen_ginibre(3, 840), gen_ginibre(3, 841), budget=8)
    assert rep.budget_limited


def test_lhs_stop_at_short_circuits():
    a, b = gen_ginibre(3, 850), gen_ginibre(3, 851)
    rhs = rhs_inf_sup(a, b)
    res = lhs_sup_inf(a, b, lambda_hint=rhs.lambda_star,
                      stop_at=rhs.value - 1e-8)
    assert res.value >= rhs.value - 1e-6
    assert res.restarts <= 3


@pytest.mark.parametrize("fld", [Field.REAL, Field.COMPLEX])
def test_report_builds_lhs_without_search(no_sphere_search, fld):
    for n in range(2, 7):
        a, b = gen_ginibre(n, 860 + 2 * n, fld), gen_ginibre(n, 861 + 2 * n, fld)
        rep = minimax_report(a, b)
        assert -1e-9 <= rep.gap
        assert rep.rel_gap <= 1e-10
        assert rep.restarts_used == 0
        x = rep.argmax_x.data
        phi = inner_inf(Vector(fld, a.data @ x), Vector(fld, b.data @ x)).value
        assert phi == pytest.approx(rep.lhs_value, abs=1e-12)
