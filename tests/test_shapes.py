"""Every route on every shape: an m x n pair against its zero-padded square pair.

Padding A and B with zero rows and columns to s x s, s = max(m, n), changes
neither ||A + lambda*B|| nor phi(x) = inf over mu of ||(A + mu*B)x||, and the
top singular vectors of A gain only zero coordinates.  So each route must
reach the same outcome on both pairs.
"""

import itertools

import numpy as np
import pytest

from bjorth import (
    Field,
    Matrix,
    Witness,
    decide,
    epsilon_witness,
    find_witness,
    global_inf_lambda,
    operator_norm,
)

SIZES = (1, 2, 3, 5)


def ginibre(rng, m, n, field):
    x = rng.standard_normal((m, n))
    if field is Field.COMPLEX:
        x = x + 1j * rng.standard_normal((m, n))
    return x


def random_pair(m, n, field, seed):
    rng = np.random.default_rng(seed)
    return ginibre(rng, m, n, field), ginibre(rng, m, n, field)


def orthogonal_pair(m, n, field, seed):
    """B gets a rank-one correction so that <B x0, A x0> = 0 at a top right
    singular vector x0 of A, which then witnesses A orthogonal to B."""
    a, bp = random_pair(m, n, field, seed)
    x0 = np.linalg.svd(a)[2][0].conj()
    ax0 = a @ x0
    coef = np.vdot(ax0, bp @ x0) / np.vdot(ax0, ax0).real
    return a, bp - coef * np.outer(ax0, x0.conj())


def padded(x, s):
    out = np.zeros((s, s), dtype=x.dtype)
    out[:x.shape[0], :x.shape[1]] = x
    return out


def outcomes(a: Matrix, b: Matrix):
    res = global_inf_lambda(a, b)
    return ((decide(a, b).verdict.status, type(find_witness(a, b)),
             type(epsilon_witness(a, b, 1e-3 * operator_norm(a)))),
            (res.lower_bound, res.value))


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX], ids=["real", "complex"])
def test_rectangular_pair_matches_padded_square_pair(field):
    for (m, n), (kind, make) in itertools.product(
            itertools.product(SIZES, SIZES),
            enumerate([random_pair, orthogonal_pair])):
        a, b = make(m, n, field, seed=100 * m + 10 * n + kind)
        s = max(m, n)
        got, (lo, hi) = outcomes(Matrix(field, a), Matrix(field, b))
        want, (plo, phi) = outcomes(Matrix(field, padded(a, s)), Matrix(field, padded(b, s)))
        where = f"{m}x{n} {make.__name__}"
        assert got == want, where
        # the certified intervals [lower_bound, value] overlap
        slack = 1e-12 * np.linalg.norm(a, 2)
        assert max(lo, plo) <= min(hi, phi) + slack, where
        # a 1 x 1 pair is orthogonal only when A or B is exactly zero, and
        # the construction leaves B at rounding level instead
        if make is orthogonal_pair and s > 1:
            assert got[1] is Witness, where
