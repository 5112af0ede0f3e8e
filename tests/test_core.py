"""Matrix container, Hermitian eigensolver, operator norm, top subspace."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import _oracles
from bjorth import (
    Field,
    InputError,
    Matrix,
    Vector,
    check_definitional,
    epsilon_witness,
    find_witness,
    global_inf_lambda,
    hermitian_eig,
    inner,
    inner_inf,
    minimax_report,
    operator_norm,
    rhs_inf_sup,
    top_singular_subspace,
)
from bjorth.core import _top_band


def cmat(rows) -> Matrix:
    return Matrix(Field.COMPLEX, np.array(rows, dtype=complex))


def rmat(rows) -> Matrix:
    return Matrix(Field.REAL, np.array(rows, dtype=float))


# ---------------------------------------------------------------- containers


def test_field_parse():
    assert Field.parse("real") is Field.REAL
    assert Field.parse("COMPLEX") is Field.COMPLEX
    with pytest.raises(InputError):
        Field.parse("quaternion")


def test_field_dtype():
    assert Field.REAL.dtype == np.float64
    assert Field.COMPLEX.dtype == np.complex128


def test_matrix_rejects_complex_data_in_real_field():
    with pytest.raises(InputError):
        Matrix(Field.REAL, np.array([[1.0, 1j], [0, 1]]))


def test_matrix_rejects_nonfinite():
    with pytest.raises(InputError):
        Matrix(Field.REAL, np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(InputError):
        Vector(Field.COMPLEX, np.array([np.inf + 0j, 0j]))


def test_matrix_rejects_bad_shape():
    with pytest.raises(InputError):
        Matrix(Field.REAL, np.zeros(3))
    with pytest.raises(InputError):
        Vector(Field.REAL, np.zeros((2, 2)))


def test_matrix_data_is_immutable():
    m = rmat([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises((ValueError, RuntimeError)):
        m.data[0, 0] = 9.0


def test_matrix_json_round_trip_real():
    m = rmat([[2.0, 0.0], [0.0, 1.0]])
    d = m.to_json_dict()
    assert d == {"rows": 2, "cols": 2, "field": "real",
                 "data": [2.0, 0.0, 0.0, 1.0]}
    back = Matrix.from_json_dict(json.loads(json.dumps(d)))
    assert back.field is Field.REAL
    assert np.array_equal(back.data, m.data)


def test_matrix_json_round_trip_complex():
    m = cmat([[1 + 2j, 0], [0, 3 - 4j]])
    d = m.to_json_dict()
    assert d["field"] == "complex"
    assert d["data"][0] == [1.0, 2.0]
    back = Matrix.from_json_dict(d)
    assert np.array_equal(back.data, m.data)


def test_matrix_json_tolerates_extra_keys():
    d = {"rows": 1, "cols": 1, "field": "real", "data": [5.0], "note": "x"}
    assert Matrix.from_json_dict(d).data[0, 0] == 5.0


def test_matrix_json_rejects_malformed():
    with pytest.raises(InputError):
        Matrix.from_json_dict({"rows": 2, "cols": 2, "field": "real",
                               "data": [1.0, 2.0, 3.0]})       # wrong length
    with pytest.raises(InputError):
        Matrix.from_json_dict({"rows": 1, "cols": 1, "field": "real",
                               "data": [[1.0, 0.0]]})          # pair in real
    with pytest.raises(InputError):
        Matrix.from_json_dict({"rows": 1, "cols": 1, "field": "complex",
                               "data": [1.0]})                 # bare number
    with pytest.raises(InputError):
        Matrix.from_json_dict({"cols": 1, "field": "real", "data": [1.0]})
    with pytest.raises(InputError):
        Matrix.from_json("[1, 2, 3]")


@given(st.integers(1, 5), st.integers(1, 5), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_matrix_json_round_trip_random(rows, cols, complex_field, seed):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    x = rng.standard_normal((rows, cols))
    if complex_field:
        m = Matrix(Field.COMPLEX, x + 1j * rng.standard_normal((rows, cols)))
    else:
        m = Matrix(Field.REAL, x)
    back = Matrix.from_json(m.to_json())
    assert back.field is m.field
    assert np.array_equal(back.data, m.data)


def test_vector_to_pairs_both_fields():
    assert Vector(Field.REAL, np.array([1.0, -2.0])).to_pairs() == \
        [[1.0, 0.0], [-2.0, 0.0]]
    assert Vector(Field.COMPLEX, np.array([1j, 2 + 0j])).to_pairs() == \
        [[0.0, 1.0], [2.0, 0.0]]


def test_inner_convention():
    u = np.array([1 + 1j, 0])
    v = np.array([1 + 0j, 0])
    # linear in the first argument, conjugate-linear in the second
    assert inner(u, v) == 1 + 1j
    assert inner(v, u) == 1 - 1j
    assert inner(2j * u, v) == 2j * inner(u, v)
    out = inner(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    assert isinstance(out, float) and out == 11.0


# ------------------------------------------------------------- operator norm


def test_operator_norm_diagonal():
    assert operator_norm(rmat([[2.0, 0.0], [0.0, 1.0]])) == 2.0


def test_operator_norm_zero():
    assert operator_norm(cmat(np.zeros((3, 3)))) == 0.0


def test_operator_norm_nilpotent():
    assert operator_norm(rmat([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0, abs=1e-12)


def test_operator_norm_rectangular():
    m = rmat([[1.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
    assert operator_norm(m) == pytest.approx(3.0, abs=1e-12)


def test_operator_norm_vs_power_iteration_real():
    # frozen reference: power_iteration_norm(_oracles.seeded(5, 101, False))
    m = Matrix(Field.REAL, _oracles.seeded(5, 101, complex_field=False))
    assert operator_norm(m) == pytest.approx(3.7212831774520416, abs=1e-8)


def test_operator_norm_vs_power_iteration_complex():
    # frozen reference: power_iteration_norm(_oracles.seeded(5, 102, True))
    m = Matrix(Field.COMPLEX, _oracles.seeded(5, 102))
    assert operator_norm(m) == pytest.approx(5.025297330994309, abs=1e-8)


def test_operator_norm_live_power_iteration():
    arr = _oracles.seeded(4, 7)
    ref = _oracles.power_iteration_norm(arr, iters=20_000)
    assert operator_norm(Matrix(Field.COMPLEX, arr)) == pytest.approx(ref, abs=1e-8)


def test_operator_norm_deterministic():
    m = Matrix(Field.COMPLEX, _oracles.seeded(6, 3))
    assert operator_norm(m) == operator_norm(m)


def test_operator_norm_dominates_sampled_vectors():
    # the norm is a supremum: no unit vector may beat it, and on the real
    # 2-sphere a dense sweep must come within 1e-8 of it
    for n, seed in ((2, 1), (3, 2), (4, 3), (5, 4)):
        arr = _oracles.seeded(n, seed)
        nrm = operator_norm(Matrix(Field.COMPLEX, arr))
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        xs = rng.standard_normal((100_000, n)) + 1j * rng.standard_normal((100_000, n))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        sampled = np.linalg.norm(xs @ arr.T, axis=1)
        assert float(sampled.max()) <= nrm + 1e-10

    arr = _oracles.seeded(2, 11, complex_field=False)
    nrm = operator_norm(Matrix(Field.REAL, arr))
    theta = np.linspace(0.0, math.pi, 100_000, endpoint=False)
    xs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    sampled = np.linalg.norm(xs @ arr.T, axis=1)
    assert float(sampled.max()) <= nrm + 1e-10
    assert nrm - float(sampled.max()) <= 1e-8


def test_operator_norm_unitarily_invariant():
    arr = _oracles.seeded(5, 21)
    u = _oracles.haar_unitary(5, 22)
    v = _oracles.haar_unitary(5, 23)
    base = operator_norm(Matrix(Field.COMPLEX, arr))
    rotated = operator_norm(Matrix(Field.COMPLEX, u @ arr @ v))
    assert abs(rotated - base) <= 1e-8


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 6))
def test_operator_norm_triangle_and_scaling(seed, n):
    a = _oracles.seeded(n, seed)
    b = _oracles.seeded(n, seed + 1)
    na = operator_norm(Matrix(Field.COMPLEX, a))
    nb = operator_norm(Matrix(Field.COMPLEX, b))
    ns = operator_norm(Matrix(Field.COMPLEX, a + b))
    assert ns <= na + nb + 1e-9 * (na + nb)
    n2 = operator_norm(Matrix(Field.COMPLEX, -2.5 * a))
    assert n2 == pytest.approx(2.5 * na, rel=1e-10)


# ------------------------------------------------------------- hermitian_eig


def assert_canonical_phase(vectors):
    """Largest-modulus entry of each eigenvector is real and positive."""
    for vec in vectors:
        piv = vec.data[int(np.argmax(np.abs(vec.data)))]
        assert piv.real > 0.0
        assert abs(piv.imag) <= 1e-15 * abs(piv)


def test_hermitian_eig_diagonal():
    w, vecs = hermitian_eig(rmat([[-1.0, 0.0], [0.0, 3.0]]))
    assert w == pytest.approx([-1.0, 3.0], abs=1e-12)
    assert abs(vecs[0].data[0]) == pytest.approx(1.0, abs=1e-12)
    assert abs(vecs[1].data[1]) == pytest.approx(1.0, abs=1e-12)


def test_hermitian_eig_identity():
    w, vecs = hermitian_eig(cmat(np.eye(3)))
    assert w == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)
    v = np.stack([x.data for x in vecs], axis=1)
    assert np.allclose(v.conj().T @ v, np.eye(3), atol=1e-12)


def test_hermitian_eig_pauli_x():
    w, _ = hermitian_eig(rmat([[0.0, 1.0], [1.0, 0.0]]))
    assert w == pytest.approx([-1.0, 1.0], abs=1e-12)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(InputError):
        hermitian_eig(rmat([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eig_reconstruction():
    for n, seed in ((3, 5), (8, 6), (20, 7)):
        z = _oracles.seeded(n, seed)
        h = z + z.conj().T
        w, vecs = hermitian_eig(Matrix(Field.COMPLEX, h))
        scale = float(np.linalg.norm(h, 2))
        assert sorted(w) == w
        v = np.stack([x.data for x in vecs], axis=1)
        assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= 1e-10 * n
        recon = v @ np.diag(w) @ v.conj().T
        assert np.linalg.norm(recon - h, 2) <= 1e-8 * scale
        for k in range(n):
            assert np.linalg.norm(h @ v[:, k] - w[k] * v[:, k]) <= 1e-9 * scale
        assert_canonical_phase(vecs)


def test_hermitian_eig_matches_numpy_reference():
    z = _oracles.seeded(6, 9, complex_field=False)
    h = z + z.T
    w, _ = hermitian_eig(Matrix(Field.REAL, h))
    assert np.allclose(w, np.linalg.eigvalsh(h), atol=1e-9)


# ----------------------------------------------------- top_singular_subspace


def test_top_subspace_simple_gap():
    sd = top_singular_subspace(rmat([[2.0, 0.0], [0.0, 1.0]]))
    assert sd.op_norm == pytest.approx(2.0, abs=1e-12)
    assert len(sd.top_subspace) == 1
    assert abs(sd.top_subspace[0].data[0]) == pytest.approx(1.0, abs=1e-10)


def test_top_subspace_identity_is_everything():
    sd = top_singular_subspace(cmat(np.eye(3)))
    b = np.stack([x.data for x in sd.top_subspace], axis=1)
    assert b.shape == (3, 3)
    assert np.allclose(b.conj().T @ b, np.eye(3), atol=1e-10)


def test_top_subspace_near_tie_is_grouped():
    m = rmat(np.diag([1.0, 1.0 - 1e-12, 0.5]))
    sd = top_singular_subspace(m, rank_tol=1e-8)
    assert len(sd.top_subspace) == 2


def test_top_subspace_zero_matrix_full_basis():
    sd = top_singular_subspace(rmat(np.zeros((3, 3))))
    assert sd.op_norm == 0.0
    assert len(sd.top_subspace) == 3


def test_top_subspace_rank_tol_validation():
    m = rmat([[1.0]])
    with pytest.raises(InputError):
        top_singular_subspace(m, rank_tol=0.0)
    with pytest.raises(InputError):
        top_singular_subspace(m, rank_tol=0.5)


def test_top_subspace_vectors_achieve_norm():
    for seed in range(4):
        arr = _oracles.seeded(5, 40 + seed)
        sd = top_singular_subspace(Matrix(Field.COMPLEX, arr), rank_tol=1e-8)
        for vec in sd.top_subspace:
            assert np.linalg.norm(arr @ vec.data) >= sd.op_norm * (1.0 - 1e-8) - 1e-12
        assert_canonical_phase(sd.top_subspace)
    # a tied band and a real matrix keep the convention too
    assert_canonical_phase(top_singular_subspace(cmat(np.diag([2.0, 2.0, 1.0]))).top_subspace)
    assert_canonical_phase(top_singular_subspace(
        Matrix(Field.REAL, _oracles.seeded(4, 44, complex_field=False))).top_subspace)


@pytest.mark.parametrize("complex_field", [False, True])
@pytest.mark.parametrize("k", [2, 3])
def test_top_band_spans_the_kink_subspace(complex_field, k):
    # the solver's band keeps the phases LAPACK gives it; its projector is
    # the one onto the top singular subspace, and each column is the
    # phase-fixed public basis vector up to a unit scalar
    fld = Field.COMPLEX if complex_field else Field.REAL
    n = k + 2
    for seed in range(5):
        u = _oracles.haar_unitary(n, 700 + seed, complex_field)
        v = _oracles.haar_unitary(n, 800 + seed, complex_field)
        a = (u * np.array([1.0] * k + [0.7, 0.3])) @ v.conj().T
        smax, x = _top_band(a, 1e-8)
        assert x.shape == (n, k)
        assert smax == pytest.approx(1.0, abs=1e-14)
        proj = x @ x.conj().T
        assert np.linalg.norm(proj - v[:, :k] @ v[:, :k].conj().T) <= 1e-12
        basis = np.stack([vec.data for vec in top_singular_subspace(Matrix(fld, a)).top_subspace],
                         axis=1)
        assert np.linalg.norm(proj - basis @ basis.conj().T) <= 1e-12
        assert np.abs(np.sum(x.conj() * basis, axis=0)) == pytest.approx(np.ones(k), abs=1e-12)


def test_top_subspace_unitary_invariance_of_norm():
    arr = _oracles.seeded(4, 50)
    u = _oracles.haar_unitary(4, 51)
    a = top_singular_subspace(Matrix(Field.COMPLEX, arr)).op_norm
    b = top_singular_subspace(Matrix(Field.COMPLEX, u @ arr)).op_norm
    assert abs(a - b) <= 1e-8


# ------------------------------------------------------ numpy SVD reference


def _svd_case(kind: str, complex_field: bool) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(
        [60, int(complex_field), len(kind)])))

    def draw(shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if complex_field else x

    if kind == "near_tie":      # sigma_2 = sigma_1 * (1 - 1e-10)
        u = _oracles.haar_unitary(4, 61, complex_field)
        v = _oracles.haar_unitary(4, 62, complex_field)
        return u @ np.diag([3.0, 3.0 * (1.0 - 1e-10), 0.5, 0.2]) @ v.conj().T
    if kind == "rank_deficient":
        return draw((4, 2)) @ draw((2, 4))
    if kind == "zero":
        return np.zeros((3, 3))
    if kind == "one_by_one":
        return draw((1, 1))
    if kind == "wide":
        return draw((2, 4))
    return draw((4, 2))         # tall


@pytest.mark.parametrize("complex_field", [False, True])
@pytest.mark.parametrize("kind", ["near_tie", "rank_deficient", "zero", "one_by_one",
                                  "wide", "tall"])
def test_spectral_kernels_match_numpy_svd(kind, complex_field):
    arr = _svd_case(kind, complex_field)
    m = Matrix(Field.COMPLEX if complex_field else Field.REAL, arr)
    _, s, vh = np.linalg.svd(arr)
    s = np.concatenate([s, np.zeros(arr.shape[1] - len(s))])
    slack = 1e-14 * max(1.0, s[0])
    assert abs(operator_norm(m) - s[0]) <= slack
    sd = top_singular_subspace(m, rank_tol=1e-8)
    assert abs(sd.op_norm - s[0]) <= slack
    band = vh[s >= s[0] * (1.0 - 1e-8)].conj().T
    basis = np.column_stack([vec.data for vec in sd.top_subspace])
    assert basis.shape == band.shape
    assert np.linalg.norm(basis @ basis.conj().T - band @ band.conj().T) <= 1e-10
    if kind == "near_tie":
        assert len(sd.top_subspace) == 2


# ------------------------------------------------------------ pair validation


def test_pair_validation_messages_shared_by_callers():
    r2, c2, r3 = rmat(np.eye(2)), cmat(np.eye(2)), rmat(np.eye(3))
    wide = rmat([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    cases = [
        (check_definitional, (r2, c2), "operands carry different field tags"),
        (check_definitional, (r2, r3), r"shape mismatch: \(2, 2\) vs \(3, 3\)"),
        (global_inf_lambda, (r2, c2), "operands carry different field tags"),
        (global_inf_lambda, (r2, r3), r"shape mismatch: \(2, 2\) vs \(3, 3\)"),
        (find_witness, (r2, c2), "operands carry different field tags"),
        (find_witness, (wide, r3), r"shape mismatch: \(2, 3\) vs \(3, 3\)"),
        (epsilon_witness, (wide, r3, 0.1), r"shape mismatch: \(2, 3\) vs \(3, 3\)"),
        (minimax_report, (r2, c2), "operands carry different field tags"),
        (minimax_report, (wide, r3), r"shape mismatch: \(2, 3\) vs \(3, 3\)"),
        (rhs_inf_sup, (r2, c2), "operands carry different field tags"),
        (inner_inf, (Vector(Field.REAL, [1.0]), Vector(Field.REAL, [1.0, 0.0])),
         "dimension mismatch: 1 vs 2"),
        (inner_inf, (Vector(Field.REAL, [1.0]), Vector(Field.COMPLEX, [1.0])),
         "operands carry different field tags"),
    ]
    for fn, args, message in cases:
        with pytest.raises(InputError, match=message):
            fn(*args)
