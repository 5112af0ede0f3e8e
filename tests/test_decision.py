"""Orthogonality decisions: definitional route, witness route, arbitration."""

import cmath
import math

import numpy as np
import pytest

import _oracles
import bjorth.core as core_module
import bjorth.decision as decision_module
from bjorth import (
    Field,
    InputError,
    Matrix,
    Status,
    Vector,
    Witness,
    WitnessFailure,
    check_definitional,
    decide,
    epsilon_witness,
    find_witness,
    gen_ginibre,
    gen_orthogonal_pair,
    global_inf_lambda,
    inner,
    inner_inf,
    operator_norm,
    vector_bj_check,
    zero_in_numerical_range,
)
from bjorth.core import top_singular_subspace
from bjorth.lineopt import _compression
from bjorth.minimax import minimax_report


def cmat(rows) -> Matrix:
    return Matrix(Field.COMPLEX, np.array(rows, dtype=complex))


def rmat(rows) -> Matrix:
    return Matrix(Field.REAL, np.array(rows, dtype=float))


def _rotated_normal(eigs, seed):
    u = _oracles.haar_unitary(len(eigs), seed)
    return cmat(u @ np.diag(eigs) @ u.conj().T)


DIAG_A = cmat([[1, 0], [0, 0]])
DIAG_B = cmat([[0, 0], [0, 1]])


# ----------------------------------------------------------- definitional route


def test_definitional_orthogonal_diagonals():
    v = check_definitional(DIAG_A, DIAG_B)
    assert v.status is Status.ORTHOGONAL
    assert v.margin == 0.0


def test_definitional_self_pair():
    v = check_definitional(cmat(np.eye(2)), cmat(np.eye(2)))
    assert v.status is Status.NOT_ORTHOGONAL
    assert v.margin == pytest.approx(-1.0, abs=1e-7)


def test_definitional_shifted_diagonal():
    v = check_definitional(rmat([[2, 0], [0, 1]]), rmat(np.eye(2)))
    assert v.status is Status.NOT_ORTHOGONAL
    assert v.margin == pytest.approx(-1.5, abs=1e-6)


def test_definitional_margin_never_positive():
    for seed in range(5):
        a = cmat(_oracles.seeded(3, 200 + seed))
        b = cmat(_oracles.seeded(3, 300 + seed))
        assert check_definitional(a, b).margin <= 0.0


def test_definitional_validation():
    with pytest.raises(InputError):
        check_definitional(DIAG_A, DIAG_B, tol=0.0)
    with pytest.raises(InputError):
        check_definitional(DIAG_A, DIAG_B, tol=1.0)
    with pytest.raises(InputError):
        check_definitional(DIAG_A, rmat(np.eye(2)))
    with pytest.raises(InputError):
        check_definitional(DIAG_A, cmat(np.eye(3)))


def test_definitional_rejects_pair_outside_the_gram_range():
    # D8: B = 1e155*I has a NaN norm and B = 1e-200*I a zero one, and the
    # route said ORTHOGONAL for A = diag(2, 1), whose distance is 0.5
    for s in (1e155, 1e-200):
        with pytest.raises(InputError, match="supported range"):
            check_definitional(cmat([[2, 0], [0, 1]]), cmat(s * np.eye(2)))


def test_definitional_status_is_scale_invariant():
    a = cmat(_oracles.seeded(3, 210))
    b = cmat(_oracles.seeded(3, 211))
    base = check_definitional(a, b).status
    scaled = check_definitional(Matrix(a.field, 3.7 * a.data),
                                Matrix(b.field, (-0.2 + 0.9j) * b.data))
    assert scaled.status is base


@pytest.mark.xfail(strict=True, reason="D2: the definitional verdict compares an absolute tol")
def test_definitional_verdict_scale_free_kink_pair():
    # (s diag(2, 1), s I) is 75% of ||A|| away from orthogonal at every scale;
    # at s = 1e-9 the whole margin -1.5e-9 fits inside the absolute tol 1e-7
    s = 1e-9
    v = check_definitional(rmat(s * np.diag([2.0, 1.0])), rmat(s * np.eye(2)))
    assert v.status is Status.NOT_ORTHOGONAL


def test_definitional_verdict_reads_unconverged_certificate(monkeypatch):
    # D4: four evaluations leave the solve at lambda = 0 (value ||A|| = 3.674)
    # with lower bound 2.658, stopped on "budget"; the converged margin is
    # -0.27, so an ORTHOGONAL verdict from this solve is unfounded
    solve = decision_module._solve
    monkeypatch.setattr(decision_module, "_solve",
                        lambda pair, tol, budget: solve(pair, tol, 4))
    a = gen_ginibre(4, 11, Field.COMPLEX)
    b = gen_ginibre(4, 12, Field.COMPLEX)
    assert check_definitional(a, b).status is not Status.ORTHOGONAL


@pytest.mark.xfail(strict=True, reason="D5: a tol below rounding gives a definite verdict")
def test_definitional_verdict_tol_below_rounding():
    # the pair is orthogonal by construction; at tol = 1e-16 the computed
    # margin -1.33e-15 (about 2 ulp of ||A|| = 2.82) reads as NOT_ORTHOGONAL
    v = check_definitional(*gen_orthogonal_pair(5, 978, Field.REAL), tol=1e-16)
    assert v.status is not Status.NOT_ORTHOGONAL


@pytest.mark.xfail(strict=True, reason="D6: certificates stall when Ax and Bx lie on one line")
def test_epsilon_witness_collinear_images():
    # x = e2 gives phi = ||A e2|| = 1 above the threshold sqrt(2) - 0.5, but
    # wherever Ax and Bx are parallel phi(x) = 0 unless Bx = 0 exactly, so
    # the solver finds the value 1.0 and ends "stagnant" with lower bound 0
    for mat in (rmat, cmat):
        a, b = mat([[1.0, 1.0], [0.0, 0.0]]), mat([[1.0, 0.0], [0.0, 0.0]])
        assert isinstance(epsilon_witness(a, b, 0.5), Witness), mat.__name__


# --------------------------------------------------------------- vector check


def test_vector_check_basis_pair():
    ok, ip = vector_bj_check(Vector(Field.REAL, np.array([1.0, 0.0])),
                             Vector(Field.REAL, np.array([0.0, 1.0])))
    assert ok is True and ip == 0.0


def test_vector_check_parallel():
    e1 = Vector(Field.COMPLEX, np.array([1.0 + 0j, 0.0]))
    ok, ip = vector_bj_check(e1, e1)
    assert ok is False and ip == 1.0


def test_vector_check_rotated_orthogonal():
    u = Vector(Field.REAL, np.array([3.0, 4.0]) / 5.0)
    v = Vector(Field.REAL, np.array([4.0, -3.0]) / 5.0)
    ok, ip = vector_bj_check(u, v)
    assert ok is True and ip <= 1e-12


def test_vector_check_matches_inner_product_shortcut():
    # the norm condition and the vanishing inner product agree on both
    # raw draws and projected-to-orthogonal draws
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(5)))
    for k in range(50):
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        if k % 2 == 0:
            v = v - inner(v, u) * u          # exact orthogonal companion
            v /= np.linalg.norm(v)
        ok, ip = vector_bj_check(Vector(Field.COMPLEX, u), Vector(Field.COMPLEX, v))
        assert ok == (ip <= 1e-6)


def test_vector_check_dim_one():
    a = Vector(Field.COMPLEX, np.array([2.0 + 0j]))
    assert vector_bj_check(a, Vector(Field.COMPLEX, np.array([0j])))[0] is True
    assert vector_bj_check(a, Vector(Field.COMPLEX, np.array([1j])))[0] is False


# ------------------------------------------------------------ numerical range


def test_numerical_range_balanced_diagonal():
    contains, _, _ = zero_in_numerical_range(cmat([[1, 0], [0, -1]]))
    assert contains is True


def test_numerical_range_identity_certificate():
    contains, cert, _ = zero_in_numerical_range(cmat(np.eye(2)))
    assert contains is False
    assert cert.theta == pytest.approx(0.0, abs=1e-6)
    assert cert.support == pytest.approx(1.0, abs=1e-9)


def test_numerical_range_real_interval():
    contains, _, _ = zero_in_numerical_range(rmat([[0, 1], [0, 0]]))
    assert contains is True      # symmetric part has eigenvalues +-1/2
    contains, cert, _ = zero_in_numerical_range(rmat(np.eye(2)))
    assert contains is False
    assert cert.support == pytest.approx(1.0, abs=1e-12)


def test_numerical_range_normal_matrices_match_hull_oracle():
    # for normal matrices the range is the convex hull of the eigenvalues
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(9)))
    checked = 0
    for seed in range(40):
        eigs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u = _oracles.haar_unitary(4, 900 + seed)
        c = cmat(u @ np.diag(eigs) @ u.conj().T)
        contains, cert, _ = zero_in_numerical_range(c)
        if abs(cert.support) <= 1e-6:
            continue             # too close to the boundary to compare robustly
        assert contains == _oracles.zero_in_hull(eigs)
        checked += 1
    assert checked >= 30


@pytest.mark.parametrize("rel", [1.0 - 1e-6, 1.0 + 1e-6])
@pytest.mark.parametrize("phase", [0.0, 0.3, 2.0, math.pi, -2.5])
def test_numerical_range_one_by_one_closed_form(rel, phase):
    # W([[c]]) = {c} = W(diag(c, c)); the 2x2 copy goes through the bisection
    tol = 1e-3
    c = tol * rel * cmath.exp(1j * phase)
    contains, cert, _ = zero_in_numerical_range(cmat([[c]]), tol)
    scan_contains, scan, _ = zero_in_numerical_range(cmat([[c, 0], [0, c]]), tol)
    assert contains is scan_contains is (rel < 1.0)
    assert cert.support == pytest.approx(scan.support, abs=1e-9)
    assert (cmath.exp(1j * cert.theta) * c).real == pytest.approx(abs(c), rel=1e-15)
    # the bisection starts at -arg tr C, the best angle here; the test asks
    # only for about sqrt(2 eps), below which m(theta) =
    # |c| cos(theta - theta*) is flat to rounding
    gap = abs((cert.theta - scan.theta + math.pi) % (2.0 * math.pi) - math.pi)
    assert gap <= 1e-7


def test_numerical_range_separates_flat_edge_just_past_tol():
    # W(e^{ia} diag(h + i d, -h + i d)) is a segment at distance d from zero,
    # its nearest point inside the edge, so m(theta) has a kink at its
    # maximum: an angle error delta costs about h * |delta| of support
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(17)))
    for _ in range(40):
        rot = cmath.exp(2j * math.pi * rng.uniform())
        h = rng.uniform(0.5, 2.0)
        tol = 1e-9 * math.sqrt(2.0) * h
        d = 1.5 * tol
        contains, cert, _ = zero_in_numerical_range(
            cmat(rot * np.diag([h + 1j * d, -h + 1j * d])), tol)
        assert not contains
        assert cert.support > tol


THIN_PHASES = [0.004, 0.01, 0.5, 2.0, -1.0, 3.0]


def _thin_rectangle(phi):
    # W(diag(v)) is the rectangle with corners v, 2 wide and 1e-4 tall, at
    # distance exactly 1e-6 from zero; its nearest point lies inside the long
    # edge, and the arc of separating angles is only about 2.2e-6 wide
    return cmath.exp(1j * phi) * (np.array([-1.3, 0.7, 0.7 + 1e-4j, -1.3 + 1e-4j]) + 1e-6j)


@pytest.mark.parametrize("phi", THIN_PHASES)
def test_numerical_range_separates_thin_rectangle(phi):
    # D7: a grid of angles steps over so narrow an arc, and its best angle
    # can land where the range lies on both sides of zero
    contains, cert, _ = zero_in_numerical_range(cmat(np.diag(_thin_rectangle(phi))))
    assert not contains
    assert abs(cert.support - 1e-6) <= 0.1 * cert.tol


@pytest.mark.parametrize("phi", THIN_PHASES)
def test_thin_range_pair_is_decided(phi):
    # A's top band is its first four coordinates, on which B*A is diag(v),
    # so both routes see the thin rectangle of D7
    v = _thin_rectangle(phi)
    a = cmat(np.diag([1.0, 1.0, 1.0, 1.0, 0.2]))
    b = cmat(np.diag(np.append(v.conj(), 0.5)))
    assert find_witness(a, b).status is Status.NOT_ORTHOGONAL
    assert global_inf_lambda(a, b).stop_reason == "converged"
    assert minimax_report(a, b).rel_gap <= 1e-4


def test_numerical_range_rejects_non_square():
    with pytest.raises(InputError):
        zero_in_numerical_range(rmat([[1.0, 0.0]]))


# -------------------------------------------------------------- witness route


def test_compression_reproduces_image_inner_products():
    a = cmat(_oracles.seeded(4, 400))
    b = cmat(_oracles.seeded(4, 401))
    sd = top_singular_subspace(a)
    basis = np.column_stack([vec.data for vec in sd.top_subspace])
    comp = _compression(a.data, b.data, basis)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(402)))
    for _ in range(5):
        y = rng.standard_normal(comp.shape[0]) + 1j * rng.standard_normal(comp.shape[0])
        y /= np.linalg.norm(y)
        x = basis @ y
        assert complex(np.vdot(y, comp @ y)) == pytest.approx(
            complex(inner(a.data @ x, b.data @ x)), abs=1e-12)


def test_find_witness_balanced_pair():
    w = find_witness(cmat(np.eye(2)), cmat([[1, 0], [0, -1]]))
    assert isinstance(w, Witness)
    assert abs(w.x.data[0]) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-8)
    assert abs(w.x.data[1]) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-8)
    assert w.norm_residual <= 1e-10 and w.ip_residual <= 1e-10


def test_find_witness_self_pair_is_refused_with_certificate():
    out = find_witness(DIAG_A, DIAG_A)
    assert out.status is Status.NOT_ORTHOGONAL
    assert out.margin is None
    assert out.certificate is not None
    assert out.certificate.support == pytest.approx(1.0, abs=1e-9)


def test_find_witness_constructed_pair():
    a, b = gen_orthogonal_pair(5, 7)
    w = find_witness(a, b)
    scale = operator_norm(a) * operator_norm(b)
    assert isinstance(w, Witness)
    assert w.norm_residual <= 1e-6 * operator_norm(a)
    assert w.ip_residual <= 1e-6 * scale


def test_find_witness_zero_cases():
    z = cmat(np.zeros((2, 2)))
    w = find_witness(z, cmat(np.eye(2)))
    assert isinstance(w, Witness) and w.epsilon == 0.0
    w = find_witness(cmat(np.eye(2)), z)
    assert isinstance(w, Witness) and w.ip_residual == 0.0


def test_find_witness_dim_one():
    assert isinstance(find_witness(cmat([[2.0]]), cmat([[0.0]])), Witness)
    out = find_witness(cmat([[2.0]]), cmat([[2j]]))
    assert out.status is Status.NOT_ORTHOGONAL


def test_find_witness_antipodal_normal_pencils(no_sphere_search):
    # A = U diag(e^{ia}, -e^{ia}, smaller) U*, B = I is orthogonal, and the
    # compression's numerical range is a segment through 0, where a sphere
    # descent on |<Cy, y>|^2 stalls; the exact construction needs no search
    for seed in range(8):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(710 + seed)))
        n = 3 + seed % 3
        top = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        rest = 0.5 * rng.uniform(0.0, 1.0, n - 2) * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, n - 2))
        a = _rotated_normal([top, -top, *rest], 720 + seed)
        b = cmat(np.eye(n))
        w = find_witness(a, b)
        assert isinstance(w, Witness)
        assert w.epsilon <= 1e-8
        rep = decide(a, b)
        assert rep.witness_error is None
        assert rep.verdict.status is Status.ORTHOGONAL


def test_find_witness_accepts_non_square():
    # A = [1, 0] attains its norm at e1, where B = [0, 1] vanishes
    w = find_witness(rmat([[1.0, 0.0]]), rmat([[0.0, 1.0]]))
    assert isinstance(w, Witness)
    assert abs(w.x.data[0]) == pytest.approx(1.0, abs=1e-12)


def test_witness_validation():
    with pytest.raises(InputError):
        Witness(x=Vector(Field.REAL, np.array([2.0, 0.0])),
                norm_residual=0.0, ip_residual=0.0, epsilon=0.0)
    with pytest.raises(InputError):
        Witness(x=Vector(Field.REAL, np.array([1.0, 0.0])),
                norm_residual=1e-3, ip_residual=0.0, epsilon=1e-6)


# ------------------------------------------------------------ epsilon witness


def test_epsilon_witness_diagonal_pair():
    w = epsilon_witness(DIAG_A, DIAG_B, 1e-6)
    assert isinstance(w, Witness)
    assert abs(w.x.data[0]) == pytest.approx(1.0, abs=1e-7)
    assert w.epsilon <= 1e-10


def test_epsilon_witness_self_pair_fails():
    out = epsilon_witness(cmat(np.eye(2)), cmat(np.eye(2)), 0.1)
    assert isinstance(out, WitnessFailure)
    assert out.best_value == pytest.approx(0.0, abs=1e-12)
    assert out.threshold == pytest.approx(0.9, abs=1e-12)


@pytest.mark.parametrize("a, b, eps", [
    (cmat(np.eye(2)), cmat(np.eye(2)), 0.1),                    # self pair
    (cmat(_oracles.seeded(4, 600)), cmat(_oracles.seeded(4, 601)), 1e-3),
    (rmat(_oracles.seeded(3, 602, False)), rmat(_oracles.seeded(3, 603, False)), 1e-3),
    (rmat(np.diag([2.0, 1.0])), rmat(np.eye(2)), 0.1),          # real kink, band k = 2
    (cmat(np.diag([2.0, 1j, -1.0])), cmat(np.eye(3)), 0.1),     # complex kink, k = 2
    (_rotated_normal(list(2.0 * np.exp(2j * np.pi * np.arange(3) / 3) + 0.3) + [0.1], 604),
     cmat(np.eye(4)), 0.1),                                     # complex kink, k = 3
], ids=["self_pair", "complex_ginibre", "real_ginibre", "real_kink_k2", "complex_kink_k2",
        "complex_kink_k3"])
def test_epsilon_witness_failure_certified_by_minimax(no_sphere_search, a, b, eps):
    out = epsilon_witness(a, b, eps)
    assert isinstance(out, WitnessFailure)
    assert out.best_value == pytest.approx(global_inf_lambda(a, b).value, abs=1e-9)
    x = out.best_x.data
    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
    phi = inner_inf(Vector(a.field, a.data @ x), Vector(a.field, b.data @ x)).value
    assert phi == pytest.approx(out.best_value, abs=1e-9)


@pytest.mark.parametrize("fld", [Field.REAL, Field.COMPLEX])
def test_epsilon_witness_success_built_from_band(no_sphere_search, fld):
    for n in range(2, 7):
        a, b = gen_orthogonal_pair(n, 620 + n, fld)
        w = epsilon_witness(a, b, 1e-3)
        assert isinstance(w, Witness)
        x = w.x.data
        phi = inner_inf(Vector(fld, a.data @ x), Vector(fld, b.data @ x)).value
        assert phi > operator_norm(a) - 1e-3
        assert w.ip_residual <= 1e-6 * operator_norm(a) * operator_norm(b)


def test_epsilon_witness_ladder_residuals_track_eps():
    a, b = gen_orthogonal_pair(4, 11)
    last = math.inf
    for eps in (1e-2, 1e-3, 1e-4, 1e-5):
        w = epsilon_witness(a, b, eps)
        assert isinstance(w, Witness)
        assert w.ip_residual <= eps
        assert w.ip_residual <= last + 1e-15
        last = w.ip_residual


def test_epsilon_witness_validation():
    with pytest.raises(InputError):
        epsilon_witness(DIAG_A, DIAG_B, 0.0)
    with pytest.raises(InputError):
        epsilon_witness(DIAG_A, DIAG_B, 2.0)     # eps >= ||a||
    with pytest.raises(InputError):
        epsilon_witness(cmat(np.zeros((2, 2))), DIAG_B, 0.1)


# -------------------------------------------------------------------- decide


def test_decide_routes_agree_on_orthogonal_pair():
    rep = decide(DIAG_A, DIAG_B)
    assert rep.verdict.status is Status.ORTHOGONAL
    assert rep.definitional.status is Status.ORTHOGONAL
    assert rep.witness_verdict.status is Status.ORTHOGONAL
    assert isinstance(rep.witness, Witness)
    assert rep.witness_error is None


def test_decide_routes_agree_on_parallel_pair():
    rep = decide(cmat(np.eye(2)), cmat(np.eye(2)))
    assert rep.verdict.status is Status.NOT_ORTHOGONAL
    assert rep.witness is None
    assert rep.witness_verdict.certificate is not None


def test_decide_single_route_wiring():
    rep = decide(DIAG_A, DIAG_B, method="def")
    assert rep.witness_verdict is None
    assert rep.verdict.margin == 0.0
    rep = decide(DIAG_A, DIAG_B, method="witness")
    assert rep.definitional is None
    assert rep.verdict.margin is None
    with pytest.raises(InputError):
        decide(DIAG_A, DIAG_B, method="definitely")


def test_decide_witness_route_stores_numerical_range_tol():
    # both outcomes carry the one threshold 1e-9 * ||A|| * ||B||, formed
    # from operator_norm's norms
    pairs = [(cmat(3.0 * DIAG_A.data), cmat(5.0 * DIAG_B.data)),
             (cmat(2.0 * np.eye(2)), cmat(np.eye(2)))]
    for fld in (Field.REAL, Field.COMPLEX):
        for n in range(2, 7):
            for s in (600 + 10 * n, 602 + 10 * n):
                pairs += [(gen_ginibre(n, s, fld), gen_ginibre(n, s + 1, fld)),
                          gen_orthogonal_pair(n, s, fld)]
    seen = set()
    for a, b in pairs:
        nr_tol = 1e-9 * (operator_norm(a) * operator_norm(b))
        for method in ("witness", "both"):
            witv = decide(a, b, method=method).witness_verdict
            assert witv.tol == nr_tol, (a.shape, method)
            if witv.certificate is not None:
                assert witv.certificate.tol == witv.tol
            seen.add(witv.status)
    assert seen == {Status.ORTHOGONAL, Status.NOT_ORTHOGONAL}


@pytest.mark.parametrize("fld", [Field.REAL, Field.COMPLEX], ids=["real", "complex"])
def test_each_public_call_computes_each_norm_once(monkeypatch, fld):
    # the sigma_max kernel runs once for ||A|| and once for ||B|| per call,
    # plus once in each Witness.from_vector, which rechecks from scratch
    counts = {"sigma": 0, "from_vector": 0}
    kernel = core_module._sigma_max_sq
    from_vector = Witness.from_vector.__func__

    def sigma(m):
        counts["sigma"] += 1
        return kernel(m)

    def counted_from_vector(cls, a, b, x):
        counts["from_vector"] += 1
        return from_vector(cls, a, b, x)

    monkeypatch.setattr(core_module, "_sigma_max_sq", sigma)
    monkeypatch.setattr(Witness, "from_vector", classmethod(counted_from_vector))
    calls = {"decide": decide, "check_definitional": check_definitional,
             "find_witness": find_witness, "minimax_report": minimax_report,
             "global_inf_lambda": global_inf_lambda,
             "epsilon_witness": lambda a, b: epsilon_witness(a, b, 1e-3)}
    pairs = ((gen_ginibre(4, 11, fld), gen_ginibre(4, 12, fld)),
             gen_orthogonal_pair(4, 11, fld))
    witnesses = 0
    for a, b in pairs:
        for name, call in calls.items():
            counts.update(sigma=0, from_vector=0)
            call(a, b)
            assert counts["sigma"] == 2 + counts["from_vector"], (name, counts)
            witnesses += counts["from_vector"]
    assert witnesses > 0   # the orthogonal pair takes the witness paths


def test_decide_status_is_scale_invariant():
    a = cmat(_oracles.seeded(3, 500))
    b = cmat(_oracles.seeded(3, 501))
    base = decide(a, b).verdict.status
    scaled = decide(Matrix(a.field, 0.03j * a.data),
                    Matrix(b.field, -41.0 * b.data)).verdict.status
    assert scaled is base


def test_decide_random_pairs_routes_agree():
    for seed in range(4):
        a = cmat(_oracles.seeded(3, 510 + seed))
        b = cmat(_oracles.seeded(3, 520 + seed))
        rep = decide(a, b)
        if abs(rep.definitional.margin) > 1e-6:
            assert rep.verdict.status in (Status.ORTHOGONAL, Status.NOT_ORTHOGONAL)
            assert rep.definitional.status is rep.witness_verdict.status


def test_decide_constructed_pairs_both_routes_orthogonal():
    for seed in (0, 1):
        a, b = gen_orthogonal_pair(3, seed)
        rep = decide(a, b, tol=1e-6)
        assert rep.verdict.status is Status.ORTHOGONAL
        assert isinstance(rep.witness, Witness)
