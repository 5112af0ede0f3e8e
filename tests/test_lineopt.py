"""Scalar line minimization: closed form, line minimizer, global pencil search, limit lemma."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import _oracles
import bjorth.lineopt as lineopt_module
from bjorth import (
    Field,
    InputError,
    Matrix,
    Vector,
    gen_ginibre,
    global_inf_lambda,
    inner_inf,
    limit_lemma_check,
    operator_norm,
    zero_in_numerical_range,
)


def cvec(xs) -> Vector:
    return Vector(Field.COMPLEX, np.array(xs, dtype=complex))


def rvec(xs) -> Vector:
    return Vector(Field.REAL, np.array(xs, dtype=float))


def cmat(rows) -> Matrix:
    return Matrix(Field.COMPLEX, np.array(rows, dtype=complex))


def rmat(rows) -> Matrix:
    return Matrix(Field.REAL, np.array(rows, dtype=float))


def seeded_vec(n, seed, complex_field=True):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    x = rng.standard_normal(n)
    if complex_field:
        x = x + 1j * rng.standard_normal(n)
    return x


# ------------------------------------------------------------------ inner_inf


def test_inner_inf_orthogonal_pair():
    res = inner_inf(rvec([1.0, 0.0]), rvec([0.0, 1.0]))
    assert res.value == 1.0
    assert res.lambda_star == 0.0


def test_inner_inf_parallel_pair():
    res = inner_inf(cvec([1.0, 0.0]), cvec([1.0, 0.0]))
    assert res.value == 0.0
    assert res.lambda_star == -1.0 + 0j


def test_inner_inf_zero_direction():
    res = inner_inf(rvec([3.0, 4.0]), rvec([0.0, 0.0]))
    assert res.value == 5.0
    assert res.lambda_star == 0.0


def test_inner_inf_against_frozen_grid():
    # frozen: vector_grid_min((1,1)/sqrt(2), e1, radius=2, step=1e-3)
    u = cvec(np.array([1.0, 1.0]) / math.sqrt(2.0))
    v = cvec([1.0, 0.0])
    res = inner_inf(u, v)
    assert abs(res.value - 0.7071067892491357) <= 1e-3
    assert abs(res.lambda_star - (-0.5 / math.sqrt(0.5))) <= 1e-6


def test_inner_inf_against_live_grid():
    for seed in (1, 2):
        u = seeded_vec(3, seed)
        u /= np.linalg.norm(u)
        v = seeded_vec(3, seed + 10)
        v /= np.linalg.norm(v)
        ref, _ = _oracles.vector_grid_min(u, v, radius=1.5, step=2e-3)
        res = inner_inf(cvec(u), cvec(v))
        assert res.value <= ref + 1e-12
        assert ref - res.value <= 3e-3


def test_inner_inf_real_lambda_type():
    res = inner_inf(rvec([1.0, 1.0]), rvec([1.0, 0.0]))
    assert isinstance(res.lambda_star, float)


def test_inner_inf_rejects_mismatch():
    with pytest.raises(InputError):
        inner_inf(rvec([1.0]), rvec([1.0, 0.0]))
    with pytest.raises(InputError):
        inner_inf(rvec([1.0, 0.0]), cvec([1.0, 0.0]))


@given(st.integers(0, 2 ** 32 - 1), st.booleans())
def test_inner_inf_is_the_minimum(seed, complex_field):
    u = seeded_vec(4, seed, complex_field)
    v = seeded_vec(4, seed + 1, complex_field)
    fld = Field.COMPLEX if complex_field else Field.REAL
    res = inner_inf(Vector(fld, u), Vector(fld, v))
    # attained at lambda_star, never beaten by sampled lambdas
    assert np.linalg.norm(u + res.lambda_star * v) == pytest.approx(res.value, abs=1e-10)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed + 2)))
    for _ in range(16):
        lam = rng.standard_normal() * 2.0
        if complex_field:
            lam = lam + 1j * rng.standard_normal()
        assert np.linalg.norm(u + lam * v) >= res.value - 1e-12


# ------------------------------------------------------------- line minimizer


def counted(f):
    """f with a list of the points it was evaluated at."""
    calls = []

    def g(t):
        calls.append(t)
        return f(t)

    return g, calls


def test_line_min_smooth_quadratic_is_fast():
    # golden section spends 49 evaluations to shrink [-2, 3] below 1e-9
    def f(t):
        return (t - 0.3) ** 2

    g, calls = counted(f)
    xtol = 1e-9
    x, fx, exhausted = lineopt_module._brent_line(g, -2.0, 3.0, xtol, lineopt_module._Budget(100))
    assert not exhausted
    assert abs(x - 0.3) <= xtol
    assert fx == f(x)
    assert len(calls) <= 15


@pytest.mark.parametrize("f", [
    lambda t: abs(t - 0.123456789),
    lambda t: max(2.0 * (t - 0.123456789), -0.5 * (t - 0.123456789)),
], ids=["abs", "max_of_lines"])
def test_line_min_kinks(f):
    xtol = 1e-9
    x, _, exhausted = lineopt_module._brent_line(f, -1.0, 2.0, xtol, lineopt_module._Budget(500))
    assert not exhausted
    assert abs(x - 0.123456789) <= xtol


def test_line_min_value_stop_on_smooth_minimum():
    # on a convex f the chords through the bracket ends certify the value
    # long before the bracket closes to xtol
    def f(t):
        return 1.0 + (t - 0.3) ** 2

    ftol = 1e-10
    by_value, value_calls = counted(f)
    x, fx, exhausted = lineopt_module._brent_line(
        by_value, -2.0, 3.0, 1e-15, lineopt_module._Budget(200), ftol)
    assert not exhausted
    assert fx == f(x) and fx - 1.0 <= ftol
    by_bracket, bracket_calls = counted(f)
    lineopt_module._brent_line(by_bracket, -2.0, 3.0, 1e-15, lineopt_module._Budget(200))
    assert len(value_calls) < len(bracket_calls)


@pytest.mark.parametrize("f", [
    lambda t: abs(t - 0.123456789),
    lambda t: max(2.0 * (t - 0.123456789), -0.5 * (t - 0.123456789)),
], ids=["abs", "max_of_lines"])
def test_line_min_value_stop_at_kinks(f):
    ftol = 1e-11
    x, fx, exhausted = lineopt_module._brent_line(
        f, -1.0, 2.0, 1e-15, lineopt_module._Budget(500), ftol)
    assert not exhausted
    assert fx == f(x) and fx <= ftol


def test_line_min_bracket_below_xtol():
    def f(t):
        return (t - 5.0) ** 2

    g, calls = counted(f)
    meter = lineopt_module._Budget(100)
    x, fx, exhausted = lineopt_module._brent_line(g, 1.0, 1.0 + 1e-12, 1e-9, meter)
    assert calls == [0.5 * (1.0 + (1.0 + 1e-12))] and x == calls[0]
    assert fx == f(x) and not exhausted
    assert meter.used == 1


def test_line_min_budget_exhaustion():
    def f(t):
        return abs(t - 0.3)

    g, calls = counted(f)
    meter = lineopt_module._Budget(5)
    x, fx, exhausted = lineopt_module._brent_line(g, -2.0, 3.0, 1e-12, meter)
    assert exhausted
    assert len(calls) == meter.used <= 5
    assert fx == min(f(t) for t in calls) and f(x) == fx


def test_line_min_maximizes_by_negation():
    # a concave function is maximized as the minimum of its negation
    def m(t):
        return 1.0 - 3.0 * abs(t - 0.7)

    neg, calls = counted(lambda t: -m(t))
    theta, neg_best, exhausted = lineopt_module._brent_line(
        neg, 0.6, 0.8, 1e-10, lineopt_module._Budget(200))
    assert not exhausted
    assert abs(theta - 0.7) <= 1e-10
    assert -neg_best == m(theta) == max(m(t) for t in calls)


# ----------------------------------------------------------- global_inf_lambda


def test_global_inf_orthogonal_diagonals():
    res = global_inf_lambda(cmat([[1, 0], [0, 0]]), cmat([[0, 0], [0, 1]]))
    assert res.value == pytest.approx(1.0, abs=1e-7)
    assert abs(res.lambda_star) <= 1.0 + 1e-6


def test_global_inf_against_frozen_grid():
    # frozen: pencil_grid_min_2x2(diag(2,1), I, radius=4, step=1e-3)
    res = global_inf_lambda(cmat([[2, 0], [0, 1]]), cmat([[1, 0], [0, 1]]))
    assert abs(res.value - 0.5000000000002753) <= 1e-3
    assert abs(res.lambda_star - (-1.5)) <= 1e-3


def test_global_inf_real_field_frozen_grid():
    res = global_inf_lambda(rmat([[2, 0], [0, 1]]), rmat([[1, 0], [0, 1]]))
    assert abs(res.value - 0.5) <= 1e-3
    assert isinstance(res.lambda_star, float)


def test_global_inf_zero_direction():
    a = cmat([[2, 0], [0, 1]])
    res = global_inf_lambda(a, cmat(np.zeros((2, 2))))
    assert res.value == operator_norm(a)
    assert res.lambda_star == 0


def test_global_inf_zero_base():
    for fld in (Field.REAL, Field.COMPLEX):
        res = global_inf_lambda(Matrix(fld, np.zeros((2, 2))), Matrix(fld, np.eye(2)))
        assert res.value == 0.0
        assert res.lambda_star == 0.0
        # every phi vanishes; the certificate is the first basis vector
        np.testing.assert_array_equal(res.certificate.data, [1.0, 0.0])


def test_global_inf_rejects_bad_input():
    a = rmat([[1.0]])
    with pytest.raises(InputError):
        global_inf_lambda(a, rmat(np.eye(2)))
    with pytest.raises(InputError):
        global_inf_lambda(a, cmat([[1.0]]))
    with pytest.raises(InputError):
        global_inf_lambda(a, a, tol=0.0)


def test_global_inf_never_exceeds_norm_a():
    for seed in range(6):
        fld = Field.COMPLEX if seed % 2 else Field.REAL
        a = Matrix(fld, _oracles.seeded(3, 60 + seed, fld is Field.COMPLEX))
        b = Matrix(fld, _oracles.seeded(3, 70 + seed, fld is Field.COMPLEX))
        res = global_inf_lambda(a, b)
        assert res.value <= operator_norm(a) + 1e-12
        assert res.evaluations >= 1
        assert not res.budget_limited


def test_global_inf_scale_equivariance():
    a = cmat(_oracles.seeded(3, 80))
    b = cmat(_oracles.seeded(3, 81))
    base = global_inf_lambda(a, b).value
    for c in (0.25, 7.0):
        scaled = global_inf_lambda(
            Matrix(a.field, c * a.data), Matrix(b.field, c * b.data)).value
        assert abs(scaled - c * base) <= 1e-8 * max(1.0, c * base)


def test_global_inf_matches_live_grid_3x3_real():
    a = _oracles.seeded(3, 90, complex_field=False)
    b = _oracles.seeded(3, 91, complex_field=False)
    ref, _ = _oracles.pencil_grid_min_eigh(a, b, radius=6.0, step=1e-3)
    res = global_inf_lambda(Matrix(Field.REAL, a), Matrix(Field.REAL, b))
    assert res.value <= ref + 1e-9
    assert ref - res.value <= 1e-3


def test_global_inf_budget_flag():
    a = cmat(_oracles.seeded(4, 95))
    b = cmat(_oracles.seeded(4, 96))
    full = global_inf_lambda(a, b)
    tight = global_inf_lambda(a, b, budget=8)
    assert tight.budget_limited
    assert tight.evaluations <= 8
    assert full.value - 1e-12 <= tight.value <= operator_norm(a) + 1e-12


def test_global_inf_stop_reasons():
    a = cmat(_oracles.seeded(4, 95))
    b = cmat(_oracles.seeded(4, 96))
    assert global_inf_lambda(a, b).stop_reason == "converged"
    assert global_inf_lambda(a, b, budget=8).stop_reason == "budget"
    assert inner_inf(cvec([1.0, 0.0]), cvec([1.0, 1.0])).stop_reason == "converged"


# golden-section line searches spent these evaluations on the seeded pairs
@pytest.mark.parametrize("n, seeds, complex_field, golden_evals", [
    (4, (95, 96), True, 492),
    (3, (90, 91), False, 100),
    (3, (80, 81), True, 590),
])
def test_global_inf_evaluation_counts(n, seeds, complex_field, golden_evals):
    fld = Field.COMPLEX if complex_field else Field.REAL
    a = Matrix(fld, _oracles.seeded(n, seeds[0], complex_field))
    b = Matrix(fld, _oracles.seeded(n, seeds[1], complex_field))
    res = global_inf_lambda(a, b)
    assert res.stop_reason == "converged"
    assert res.evaluations <= 0.6 * golden_evals


@pytest.mark.parametrize("fld, median_cap", [(Field.REAL, 20), (Field.COMPLEX, 150)])
def test_global_inf_baseline_evaluation_counts(fld, median_cap):
    # the 200 baseline pairs per field; lines that ran until their bracket
    # closed took a median of 29 (real) and 208.5 (complex) evaluations
    evals = []
    for i in range(200):
        n = 2 + i % 5
        res = global_inf_lambda(gen_ginibre(n, 5000 + 2 * i, fld),
                                gen_ginibre(n, 5001 + 2 * i, fld))
        assert res.stop_reason == "converged"
        evals.append(res.evaluations)
    assert np.median(evals) <= median_cap


@pytest.mark.parametrize("complex_field", [False, True])
@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_global_inf_hermitian_kink_oracle(complex_field, scale):
    # for Hermitian A = Q diag(w) Q* and B = I, ||A + lambda I|| is
    # max_k |w_k + lambda|, smallest at lambda = -(max w + min w) / 2 with
    # value (max w - min w) / 2, where the two extreme eigenvalues tie: a kink
    fld = Field.COMPLEX if complex_field else Field.REAL
    tol = 1e-7 * scale
    for n in range(2, 7):
        q = _oracles.haar_unitary(n, 300 + n, complex_field)
        w = scale * seeded_vec(n, 400 + n, complex_field=False)
        a = (q * w) @ q.conj().T
        res = global_inf_lambda(Matrix(fld, 0.5 * (a + a.conj().T)),
                                Matrix(fld, np.eye(n)), tol=tol)
        assert abs(res.value - 0.5 * (w.max() - w.min())) <= tol


@pytest.mark.parametrize("theta_deg", [150, 160, 170])
def test_global_inf_d1_kink_pencils(theta_deg):
    # ||diag(1, e^{i theta}, 0.3) + lambda I|| is smallest at the midpoint of
    # 1 and e^{i theta}, where both top singular values tie: a kink that the
    # coordinate search stalled at, returning 1.0
    theta = math.radians(theta_deg)
    a = cmat(np.diag([1.0, np.exp(1j * theta), 0.3]))
    res = global_inf_lambda(a, cmat(np.eye(3)))
    assert res.stop_reason == "converged"
    assert abs(res.value - math.cos(math.radians(180 - theta_deg) / 2)) <= 1e-7


def test_global_inf_normal_pencils_match_enclosing_circle():
    # for normal A = U diag(ev) U* and B = I, ||A + lambda I|| = max_k
    # |ev_k + lambda|, so the infimum is the minimal enclosing circle radius
    worst = 0.0
    for k in range(200):
        n = 2 + k % 5
        u = _oracles.haar_unitary(n, 5000 + k)
        ev = seeded_vec(n, 6000 + k)
        a = (u * ev) @ u.conj().T
        res = global_inf_lambda(cmat(a), cmat(np.eye(n)))
        err = abs(res.value - _oracles.min_enclosing_circle_radius(ev))
        worst = max(worst, err / max(1.0, np.linalg.norm(a, 2)))
    assert worst <= 1e-7


def _certificate_pairs(complex_field):
    fld = Field.COMPLEX if complex_field else Field.REAL
    g = [_oracles.seeded(4, 110 + k, complex_field) for k in range(4)]
    rank_def = g[0][:, :2] @ g[1][:2, :]
    wide = np.hstack([g[2], g[3]])[:3]
    return [(Matrix(fld, x), Matrix(fld, y)) for x, y in (
        (g[0], g[1]),                                      # Ginibre
        (rank_def, g[2]),                                  # rank 2 of 4
        (g[2], rank_def),
        (np.zeros((4, 4)), g[3]),                          # zero A
        (g[3], np.zeros((4, 4))),                          # zero B
        (g[0][:1, :1], g[1][:1, :1]),                      # 1 x 1
        (wide, wide[::-1]),                                # 3 x 8
        (wide.T, np.vstack([g[1], g[2]])[:, :3]),          # 8 x 3
    )]


@pytest.mark.parametrize("complex_field", [False, True])
@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_global_inf_certificate(complex_field, scale):
    tol = 1e-7 * scale
    for a, b in _certificate_pairs(complex_field):
        base = global_inf_lambda(a, b)
        sa = Matrix(a.field, scale * a.data)
        sb = Matrix(b.field, scale * b.data)
        res = global_inf_lambda(sa, sb, tol=tol)
        assert res.lower_bound <= res.value + 1e-12 * scale
        assert res.stop_reason == "converged"
        assert res.value - res.lower_bound <= tol
        x = res.certificate.data
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
        phi = inner_inf(Vector(a.field, sa.data @ x), Vector(a.field, sb.data @ x)).value
        assert phi == pytest.approx(res.lower_bound, rel=1e-12, abs=1e-300)
        assert res.value == pytest.approx(scale * base.value, rel=1e-9, abs=tol)


def test_pencil_norm_is_midpoint_convex():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(17)))
    a = cmat(_oracles.seeded(3, 97))
    b = cmat(_oracles.seeded(3, 98))

    def f(lam):
        return operator_norm(Matrix(Field.COMPLEX, a.data + lam * b.data))

    for _ in range(20):
        l1 = complex(rng.standard_normal(), rng.standard_normal())
        l2 = complex(rng.standard_normal(), rng.standard_normal())
        assert f(0.5 * (l1 + l2)) <= 0.5 * (f(l1) + f(l2)) + 1e-10


# ----------------------------------------------- zero_in_numerical_range vector


@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from([(cf, k) for cf in (True, False) for k in range(1, 8)]))
def test_numerical_range_vector_hits_zero(seed, case):
    # a traceless C has 0 in W(C); complex k >= 2 takes the angle bisection,
    # whose zero comes from its Gordan triangle or its bracket's end vectors
    complex_field, k = case
    c = _oracles.seeded(k, seed, complex_field)
    c = c - np.trace(c) / k * np.eye(k)
    fld = Field.COMPLEX if complex_field else Field.REAL
    contains, _, y = zero_in_numerical_range(Matrix(fld, c))
    assert contains
    assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(y, c @ y)) <= 1e-12 * np.linalg.norm(c)


@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_numerical_range_vector_hits_zero_at_extreme_scales(scale):
    # the complex zero of the form is built from products of range points,
    # which must neither overflow nor underflow
    for k in range(2, 8):
        for seed in range(50):
            c = _oracles.seeded(k, 700 + seed)
            c = scale * (c - np.trace(c) / k * np.eye(k))
            contains, _, y = zero_in_numerical_range(cmat(c))
            assert contains
            assert abs(np.vdot(y, c @ y)) <= 1e-12 * np.linalg.norm(c)


@pytest.mark.parametrize("c", [np.zeros((3, 3)), np.diag([0.0, 1.0, 1j])], ids=["zero", "vertex"])
def test_numerical_range_exact_zero_of_the_form(monkeypatch, c):
    # a lowest eigenvector with <Cy, y> = 0 exactly bounds no half-circle of
    # angles; it is the answer, after one eigh (here zero is a vertex of W(C))
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or eigh(m))
    contains, cert, y = zero_in_numerical_range(cmat(c))
    assert contains and cert.support == 0.0
    assert np.vdot(y, c @ y) == 0.0 and np.linalg.norm(y) == 1.0
    assert len(calls) == 1


@pytest.mark.parametrize("complex_field, k",
                         [(False, k) for k in range(1, 8)] + [(True, k) for k in range(1, 8)])
def test_numerical_range_vector_attains_support_outside(complex_field, k):
    # zero outside W(C): y is the range point nearest zero, so its value's
    # modulus is the certificate's support
    fld = Field.COMPLEX if complex_field else Field.REAL
    for seed in range(20):
        c = _oracles.seeded(k, 600 + seed, complex_field)
        if complex_field:   # W(C) shifted off zero, in a direction set by the seed
            c = c + np.exp(2j * np.pi * seed / 20) * (np.linalg.norm(c) + 1.0) * np.eye(k)
        else:               # a definite symmetric part, of either sign
            c = c + (-1) ** seed * (np.linalg.norm(c) + 1.0) * np.eye(k)
        contains, cert, y = zero_in_numerical_range(Matrix(fld, c))
        assert not contains
        assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-12)
        assert abs(abs(np.vdot(y, c @ y)) - cert.support) <= 1e-12 * np.linalg.norm(c)


# ------------------------------------------- public wrappers and array kernels


@pytest.mark.parametrize("complex_field", [False, True])
@pytest.mark.parametrize("k", range(1, 6))
def test_numerical_range_wrapper_returns_its_kernel(complex_field, k):
    # the distance solver calls the array kernel on raw compressions; the
    # public function must answer exactly as it does, zero inside or outside
    fld = Field.COMPLEX if complex_field else Field.REAL
    for seed in range(6):
        c = _oracles.seeded(k, 900 + seed, complex_field)
        c = c - np.trace(c) / k * np.eye(k)   # traceless: zero inside
        outside = seed % 2 == 1
        if outside:
            c = c + (np.linalg.norm(c) + 1.0) * np.eye(k)
        for tol in (None, 1e-3):
            contains, cert, y = zero_in_numerical_range(Matrix(fld, c), tol)
            k_contains, theta, support, k_y = lineopt_module._zero_in_range(c, cert.tol)
            assert contains == k_contains == (not outside)
            assert (cert.theta, cert.support) == (theta, support)
            np.testing.assert_array_equal(y, k_y)


@pytest.mark.parametrize("complex_field", [False, True])
def test_inner_inf_returns_its_kernel(complex_field):
    fld = Field.COMPLEX if complex_field else Field.REAL
    for seed in range(10):
        u = seeded_vec(4, 300 + seed, complex_field)
        v = seeded_vec(4, 400 + seed, complex_field) * (seed > 0)   # seed 0: v = 0
        res = inner_inf(Vector(fld, u), Vector(fld, v))
        value, lam = lineopt_module._line_inf(u, v)
        assert res.value == res.lower_bound == value
        assert res.lambda_star == lam


# ------------------------------------------------------------ limit_lemma_check


def test_limit_lemma_zero_scalar():
    assert limit_lemma_check(0.0, 1.0) is True


def test_limit_lemma_rejects_order_one_scalar():
    assert limit_lemma_check(1.0, 1.0) is False


def test_limit_lemma_rejects_small_imaginary():
    assert limit_lemma_check(1e-2j, 1.0) is False


def test_limit_lemma_resolution_floor():
    # below the smallest sampled magnitude the violation is invisible
    assert limit_lemma_check(1e-9, 1.0) is True


def test_limit_lemma_validation():
    with pytest.raises(InputError):
        limit_lemma_check(0.0, -1.0)


@given(st.floats(0.0, 2.0 * math.pi, allow_nan=False),
       st.sampled_from([1e-6, 1e-3, 1.0, 1e3]))
def test_limit_lemma_rejects_any_visible_phase(phase, mag):
    z = mag * complex(math.cos(phase), math.sin(phase))
    assert limit_lemma_check(z, 1.0) is False
