"""Minimization of ||u + lambda*v|| and ||A + lambda*B|| over a scalar lambda.

The vector problem has a closed form.  The matrix problem is convex in
(Re lambda, Im lambda) and is solved by a primal-dual descent on its
optimality condition (Bhatia and Semrl, Linear Algebra Appl. 287, 1999):
lambda* minimizes ||A + lambda*B|| exactly when A + lambda*B is
Birkhoff-James orthogonal to B, that is when zero lies in the numerical
range W(C) of C = X*B*(A + lambda*B)X, with X spanning the top singular
band of the pencil.  zero_in_numerical_range answers that, for this search
and for the witness route alike.  When zero lies outside, the separating
half-plane gives a descent direction, searched by Brent's method (parabolic
interpolation safeguarded by golden-section steps; Brent, Algorithms for
Minimization without Derivatives, 1973, ch. 5).
When zero lies inside, it also returns a unit y with <Cy, y> = 0, and
x = Xy gives the evaluated lower bound phi(x) = inf over mu of
||(A + mu*B)x||, which never exceeds the infimum.  The band holds every
singular value within a relative width of the top one; the width starts at
1e-4, so near a kink the direction accounts for the singular values about
to tie, and narrows tenfold whenever it stops paying.  The search ends when
the value and the lower bound meet.  The norm is convex along each line, so
a line search ends as soon as the chords through its evaluated points
certify its value to a tenth of that stopping gap, rather than when its
bracket closes.  The numerical-range test runs no line search: it bisects
over separating angles (see zero_in_numerical_range).

The public functions (inner_inf, zero_in_numerical_range,
global_inf_lambda) validate their Matrix and Vector arguments and wrap
their results.  Inside the search everything is a raw ndarray: each band
step is one eigh of the pencil's Gram matrix (_top_band), the compression,
the numerical-range kernel _zero_in_range and the phi kernel _line_inf, and
each norm evaluation is one eigvalsh.  The band's columns keep the phases
LAPACK gives them, which repeat for a fixed build and BLAS thread count.
W(C) does not depend on them, but when zero lies inside, which of its
zeros y the kernel picks can, and with it the certificate and the path.

global_inf_lambda validates its pair once, into a core _Pair holding ||A||
and ||B||, and runs the kernel _solve on it; the decision routes call _solve.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_BUDGET, DEFAULT_TOL, Field, InputError, Matrix, Vector,
                   _check_pair, _Pair, _top_band)

_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0   # golden-section step as a share of the bracket
_BAND_START = 1e-4   # relative width of the first singular band
_BAND_FLOOR = 1e-15  # narrower bands hold only exact ties, so the descent stops


@dataclass(frozen=True)
class LineMinResult:
    """Outcome of a scalar-parameter norm minimization.

    value : float
        Best objective value found.
    lambda_star : float or complex
        Scalar achieving it (float for the real field).
    evaluations : int
        Objective evaluations and singular-band decompositions spent.
    lower_bound : float
        An evaluated lower bound on the infimum: phi at `certificate`, or
        the closed-form value itself for the vector problem.
    certificate : Vector or None
        Unit x with phi(x) = inf over mu of ||(A + mu*B)x|| = lower_bound
        (matrix problem only).
    budget_limited : bool
        True when the evaluation cap was hit before the tolerance.
    stop_reason : str
        Why the search ended: "converged" (closed form, or value minus
        lower_bound within the tolerance), "budget" (evaluation cap) or
        "stagnant" (no descent left at the narrowest band, gap still open).
    """

    value: float
    lambda_star: object
    evaluations: int
    lower_bound: float
    certificate: Vector | None = None
    budget_limited: bool = False
    stop_reason: str = "converged"


@dataclass(frozen=True)
class SeparationCertificate:
    """Record of the best separating half-plane found for the numerical range.

    theta is the rotation angle, support the minimum of the rotated real part
    over the unit sphere.  support > tol certifies that zero lies outside.
    """

    theta: float
    support: float
    tol: float


def inner_inf(u: Vector, v: Vector) -> LineMinResult:
    """Closed-form inf over lambda of ||u + lambda*v||.

    With c = <u, v> and v != 0 the minimizer is lambda* = -c / ||v||^2, and
    the value is evaluated as the residual norm ||u + lambda* v||, which keeps
    its accuracy relative to ||u|| when u and v are nearly parallel.  For
    v = 0 every lambda ties, so (||u||, 0) is returned.
    """
    fld = _check_pair(u, v)
    val, lam = _line_inf(u.data, v.data)
    lam = float(lam) if fld is Field.REAL else complex(lam)
    return LineMinResult(val, lam, 0, val)


def _line_inf(u: np.ndarray, v: np.ndarray):
    """inner_inf on raw arrays of one field: (value, lambda*)."""
    vv = float(np.vdot(v, v).real)
    lam = -np.vdot(v, u).item() / vv if vv != 0.0 else 0.0
    return float(np.linalg.norm(u + lam * v)), lam


class _Budget:
    __slots__ = ("used", "cap")

    def __init__(self, cap):
        self.used = 0
        self.cap = cap

    def spend(self) -> bool:
        if self.used >= self.cap:
            return False
        self.used += 1
        return True


def _brent_line(f, a: float, b: float, xtol: float, budget: _Budget,
                ftol: float | None = None):
    """Minimize a unimodal f on [a, b] by Brent's method.

    Returns (x_best, f_best, exhausted): the point of lowest value among
    those evaluated, and whether the budget ran out first.  Unless it did,
    the search ends once the bracket around x_best, which holds the
    minimizer of a unimodal f, is at most xtol wide, or, given ftol, once
    f_best is certified within ftol of the minimum.  xtol is absolute:
    at a kink the value error is the slope times the error in x, so a term
    relative to |x| would loosen the value by an amount set by where the
    bracket happens to sit.

    ftol is for a convex f only.  Once both bracket ends l < x_best < r are
    evaluated points, they are the ones nearest x_best, and the chords
    through them bound f from below on each side of x = x_best:
    min f >= f(x) - max((f(l) - f(x))(r - x)/(x - l), (f(r) - f(x))(x - l)/(r - x)).
    At a smooth minimum this ends the search while the last evaluations
    would still narrow the bracket without changing the value.  The bound
    holds to the rounding of f; the distance search re-tests optimality
    after every line, so a line ended early costs descent, not accuracy.

    A parabola through the three best points proposes each step.  It is
    taken only when it lands inside the bracket and moves less than half
    the step before last; otherwise a golden-section step is taken, which
    is what happens at a kink.  No step is shorter than xtol / 4.
    """
    if b - a <= xtol:
        mid = 0.5 * (a + b)
        if not budget.spend():
            return mid, math.inf, True
        return mid, f(mid), False
    tol1 = 0.25 * xtol
    x = w = v = a + _CGOLD * (b - a)
    if not budget.spend():
        return x, math.inf, True
    fx = fw = fv = f(x)
    fa = fb = math.inf   # f at the bracket ends, once they are evaluated points
    d = e = 0.0   # the last step, and the one before it
    while max(x - a, b - x) > 2.0 * tol1:
        xm = 0.5 * (a + b)
        golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                golden = False
                if x + d - a < 2.0 * tol1 or b - x - d < 2.0 * tol1:
                    d = math.copysign(tol1, xm - x)
        if golden:
            e = (a - x) if x >= xm else (b - x)
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        if not budget.spend():
            return x, fx, True
        fu = f(u)
        if fu <= fx:
            if u >= x:
                a, fa = x, fx
            else:
                b, fb = x, fx
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a, fa = u, fu
            else:
                b, fb = u, fu
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        if ftol is not None and a < x < b and max(
                (fa - fx) * (b - x) / (x - a), (fb - fx) * (x - a) / (b - x)) <= ftol:
            break
    return x, fx, False


def zero_in_numerical_range(c: Matrix, tol: float | None = None):
    """Test whether zero lies in the numerical range {<Cy, y> : ||y|| = 1}.

    Returns (contains_zero, SeparationCertificate, y): y is a unit vector
    with <Cy, y> = 0 when zero lies inside, and otherwise one whose value is
    the point of W(C) nearest zero.  A 1x1 C has W(C) = {c}, theta = -arg(c)
    and support |c|.  Over the reals W(C) is the eigenvalue interval of the
    symmetric part, and y mixes its two extreme eigenvectors.  Otherwise the
    support is the largest m(t) = lambda_min(Re(e^{it} C)), found by a
    bisection in which every step certifies (the arc algorithm of Guo,
    Higham and Tisseur, SIAM J. Matrix Anal. Appl. 31, 2009): the lowest
    eigenvector at t gives a point p of W(C), and since m(s) <= Re(e^{is} p)
    for every s and m is unimodal on the arc m > 0, which is shorter than
    pi, p confines the best angle to a half-circle holding at most half the
    bracket.  The search stops when the bracket is narrower than
    max(0.1 tol / ||C||_F, 1e-15).  If it empties first, zero lies in the
    triangle of the last three points (Gordan's theorem), which two exact
    2x2 Bloch-sphere steps collapse to y.
    """
    if not c.is_square():
        raise InputError(f"square matrix required, got {c.shape}")
    if tol is None:
        tol = 1e-9 * float(np.linalg.norm(c.data))
    contains, theta, support, y = _zero_in_range(c.data, tol)
    return contains, SeparationCertificate(theta, support, tol), y


def _zero_in_range(ca: np.ndarray, tol: float):
    """zero_in_numerical_range on a raw square array, float64 for the real
    field: (contains_zero, theta, support, y)."""
    if ca.shape[0] == 1:   # every unit vector gives the same point
        z = complex(ca[0, 0])
        support = abs(z)
        theta = -cmath.phase(z) % (2.0 * math.pi)
        return support <= tol, theta, support, np.ones(1, ca.dtype)

    if not np.iscomplexobj(ca):
        w, v = np.linalg.eigh(0.5 * (ca + ca.T))
        lo, hi = float(w[0]), float(w[-1])
        theta, support = (0.0, lo) if lo >= -hi else (math.pi, -hi)
        if lo < 0.0 < hi:
            y = math.sqrt(hi) * v[:, 0] + math.sqrt(-lo) * v[:, -1]
            y /= np.linalg.norm(y)
        else:
            y = v[:, 0] if abs(lo) <= abs(hi) else v[:, -1]
        return support <= tol, theta, support, y

    h1 = 0.5 * (ca + ca.conj().T)
    h2 = (ca - ca.conj().T) / 2j
    norm = float(np.linalg.norm(ca))
    lo, hi = -math.inf, math.inf   # the bracket on the best angle
    ends = [None, None]   # the (vector, value) whose half-circles set lo and hi
    best_m, best_theta, best_x, y = -math.inf, 0.0, None, None
    t = -cmath.phase(np.trace(ca))
    for _ in range(64):   # each step at least halves the bracket, unless rounding stalls it
        w, v = np.linalg.eigh(math.cos(t) * h1 - math.sin(t) * h2)
        x = v[:, 0]
        p = complex(np.vdot(x, ca @ x))
        if w[0] > best_m:
            best_m, best_theta, best_x = float(w[0]), t, x
        if p == 0.0:   # x is a zero of the form, and p bounds no half-circle
            y = x
            break
        # m(t) = Re q and m'(t) = -Im q.  The best angle lies in the
        # half-circle centred at a: when m(t) > 0, on the side of t where m
        # rises, since m is unimodal on the arc m > 0, which is shorter than
        # pi; otherwise where Re(e^{is} p) > 0, since m(s) <= Re(e^{is} p),
        # and that half-circle excludes t
        q = cmath.exp(1j * t) * p
        a = t + (math.copysign(0.5 * math.pi, -q.imag) if q.real > 0.0 else -cmath.phase(q))
        if min(hi, a + 0.5 * math.pi) <= max(lo, a - 0.5 * math.pi):
            if best_m <= 0.0:   # Gordan: no angle passes all three half-circles
                y = _triangle_zero(ca, ends + [(x, p)])
            break
        if a - 0.5 * math.pi > lo:
            lo, ends[0] = a - 0.5 * math.pi, (x, p)
        if a + 0.5 * math.pi < hi:
            hi, ends[1] = a + 0.5 * math.pi, (x, p)
        if (hi - lo) * norm <= max(0.1 * tol, 1e-15 * norm):
            break
        t = 0.5 * (lo + hi)

    contains = best_m <= tol
    # zero within tol: the bracket's two end vectors have values on either
    # side of zero, about opposite each other
    if y is None:
        y = _span_zero(ca, ends[0][0], ends[1][0]) if contains else best_x
    return contains, best_theta % (2.0 * math.pi), best_m, y


def _triangle_zero(c: np.ndarray, corners) -> np.ndarray:
    """Unit y with <Cy, y> = 0 from three (x_j, p_j = <C x_j, x_j>) whose triangle holds zero."""
    # two 2x2 steps: first to the point of the edge (p0, p1) on the line from
    # p2 through zero, then to zero on the span of that vector and x2; where
    # the line misses the edge, the corner farther from p2 along it takes its
    # place.  The weights are formed from the values scaled to modulus at
    # most 1, so that their products neither overflow nor underflow.
    (x0, p0), (x1, p1), (x2, p2) = corners
    u0, u1, u2 = np.array([p0, p1, p2]) / max(abs(p0), abs(p1), abs(p2))
    w0 = (u1.conjugate() * u2).imag   # barycentric weights of zero at p0 and
    w1 = (u2.conjugate() * u0).imag   # p1, times twice the scaled triangle's area
    if abs(w0 + w1) <= 1e-12:
        far = x0 if (u2.conjugate() * u0).real <= (u2.conjugate() * u1).real else x1
        return _span_zero(c, far, x2)
    return _span_zero(c, _span_zero(c, x0, x1, (w0 * p0 + w1 * p1) / (w0 + w1)), x2)


def _span_zero(c: np.ndarray, x0: np.ndarray, x1: np.ndarray, target: complex = 0.0):
    """Unit y in span{x0, x1} with <Cy, y> = target, or the nearest to it."""
    q = np.linalg.qr(np.column_stack([x0, x1]))[0]
    return q @ _bloch_zero(q.conj().T @ c @ q - target * np.eye(2))


def _bloch_zero(m: np.ndarray) -> np.ndarray:
    """Unit y in C^2 with <My, y> = 0, or the Bloch-sphere point nearest to it.

    With y y* = (I + s . sigma) / 2 for a unit s in R^3 (sigma the Pauli
    matrices), <My, y> = (tr M + sum_k s_k tr(M sigma_k)) / 2 is affine in s,
    so <My, y> = 0 is two real linear equations: their minimum-norm solution
    plus a null-space step reaches the unit sphere when zero is in the range.
    """
    c0 = 0.5 * (m[0, 0] + m[1, 1])
    cv = 0.5 * np.array([m[0, 1] + m[1, 0], 1j * (m[0, 1] - m[1, 0]), m[0, 0] - m[1, 1]])
    r = np.array([cv.real, cv.imag])
    # a nearly flat range (normal M) leaves one equation redundant up to
    # rounding; the cut-off drops it instead of amplifying the rounding
    s = np.linalg.lstsq(r, -np.array([c0.real, c0.imag]), rcond=1e-10)[0]
    ns = float(np.linalg.norm(s))
    if ns < 1.0:
        s = s + math.sqrt(1.0 - ns * ns) * np.linalg.svd(r)[2][-1]
    else:
        s = s / ns
    if s[2] > -0.5:
        y = np.array([1.0 + s[2], s[0] + 1j * s[1]])
    else:
        y = np.array([s[0] - 1j * s[1], 1.0 - s[2]])
    return y / np.linalg.norm(y)


def _compression(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """C = X*B*AX: the form <Ax, Bx> on the span of the orthonormal columns of x."""
    return x.conj().T @ (b.conj().T @ (a @ x))


def global_inf_lambda(a: Matrix, b: Matrix, *, tol: float = DEFAULT_TOL,
                      budget: int = DEFAULT_BUDGET) -> LineMinResult:
    """Global infimum over scalar lambda of the spectral norm of a + lambda*b.

    Parameters
    ----------
    a, b : Matrix
        Equal shapes and field tags.
    tol : float
        Absolute tolerance on the value.
    budget : int
        Cap on spectral-norm evaluations and band decompositions; when
        exhausted the best value so far is returned with budget_limited set
        instead of raising.

    Each step takes the top singular band X of P = a + lambda*b and tests
    whether zero lies in the numerical range of C = X*b*P X (see the module
    docstring).  Outside, a line search runs along d = -e^{-i theta} (+-1
    over the reals) for the separating angle theta, on [0, 2 * radius],
    where radius = 2||a||/||b|| bounds the minimizer.  Inside, phi at the
    band vector x = X y with <Cy, y> = 0 raises the lower bound.  The band
    narrows tenfold when it holds zero but the gap is open, or when a line
    search brings no descent.  The search stops once value - lower_bound is
    at most min(tol/||a||, 1e-9)/10 relative to ||a||; stop_reason says
    whether that, the budget, or the band floor ended it.  lambda = 0 is
    the start, so the result never exceeds ||a||.
    """
    pair = _Pair.of(a, b)
    if tol <= 0.0:
        raise InputError("tol must be positive")
    return _solve(pair, tol, budget)


def _solve(pair: _Pair, tol: float, budget: int) -> LineMinResult:
    """global_inf_lambda on a validated pair and a positive tol."""
    complex_field = pair.field is Field.COMPLEX
    meter = _Budget(budget)
    meter.spend()   # the pair's two norms count as evaluations
    meter.spend()
    lam = complex(0.0) if complex_field else 0.0   # a float over the reals throughout
    if pair.norm_a == 0.0 or pair.norm_b == 0.0:
        # phi(x) = ||a x|| on the top vector of a, which is ||a||; for a = 0
        # every phi vanishes, and that top vector is the first basis vector
        x = _top_band(pair.a.data, _BAND_FLOOR)[1][:, 0]
        return _result(pair, pair.norm_a, lam, meter, x, "converged")

    # Work on A/||A||, B/||A||: the search trajectory then depends only on
    # the scale-free shape of the pencil and on the stop target below.  That
    # target, min(tol/||A||, 1e-9)/10, is the same for (cA, cB) as for (A, B)
    # only while both norms are at most 1e9 * tol (100 at the default tol);
    # there (cA, cB) retraces the steps of (A, B) and the result scales by
    # |c| to rounding accuracy.  Past it the target shrinks with 1/||A||, can
    # fall below rounding, and the solve may end "stagnant".
    unit = pair.norm_a
    aa = pair.a.data / unit
    ba = pair.b.data / unit
    norm_bn = pair.norm_b / unit
    radius = 2.0 / norm_bn
    stop = min(tol / unit, 1e-9) / 10.0
    xtol = 1e-15 * radius   # rounding floor; each line ends on its value stop first

    # ||aa + lam*ba|| from the top eigenvalue of the Gram matrix, as operator_norm
    if complex_field:
        def f(lam: complex) -> float:
            p = aa + lam * ba
            return math.sqrt(max(float(np.linalg.eigvalsh(p.conj().T @ p)[-1]), 0.0))
    else:
        def f(lam: float) -> float:
            p = aa + lam * ba
            return math.sqrt(max(float(np.linalg.eigvalsh(p.T @ p)[-1]), 0.0))

    val = 1.0   # the lambda = 0 objective in normalized units, exactly
    lower, cert = -1.0, None
    band = _BAND_START
    stop_reason = "budget"
    while meter.spend() or cert is None:   # the first band always runs
        p = aa + lam * ba
        x = _top_band(p, band)[1]
        contains, theta, _, y = _zero_in_range(_compression(p, ba, x), band * norm_bn)
        moved = False
        if contains or cert is None:
            y = x @ y
            phi = _line_inf(aa @ y, ba @ y)[0]
            if phi > lower:
                lower, cert = phi, y
            if val - lower <= stop:
                stop_reason = "converged"
                break
        if not contains:
            d = -cmath.exp(-1j * theta)
            if not complex_field:   # theta is 0 or pi, so d is -1 or 1
                d = d.real
            center = lam
            t, ft, exhausted = _brent_line(lambda t: f(center + t * d), 0.0, 2.0 * radius,
                                           xtol, meter, 0.1 * stop)
            if ft < val:
                lam, val, moved = center + t * d, ft, True
            if exhausted:
                break
        if not moved:
            band *= 0.1
            if band < _BAND_FLOOR:
                stop_reason = "stagnant"
                break

    return _result(pair, val * unit, lam, meter, cert, stop_reason)


def _result(pair: _Pair, value: float, lam, meter: _Budget, x: np.ndarray,
            stop_reason: str) -> LineMinResult:
    """LineMinResult whose lower bound is phi recomputed at x on the pair."""
    lower = _line_inf(pair.a.data @ x, pair.b.data @ x)[0]
    return LineMinResult(value, lam, meter.used, lower, Vector(pair.field, x),
                         stop_reason == "budget", stop_reason)


def limit_lemma_check(scalar, b: float) -> bool:
    """Test of: 0 <= |lam|^2 * b^2 + 2*Re(conj(lam) * scalar) for |lam| >= 1e-8.

    The lemma behind it says the quadratic stays nonnegative for every lam
    exactly when scalar = 0.  At |lam| = t the direction -scalar/|scalar|
    is the sharpest, giving t^2 b^2 - 2t|scalar|, and the smallest
    magnitude t = 1e-8 bites first, so the test is 2|scalar| <= 1e-8 * b^2.

    Parameters
    ----------
    scalar : complex or float
    b : float
        Nonnegative magnitude entering the quadratic term.
    """
    if b < 0.0:
        raise InputError("b must be nonnegative")
    return 2.0 * abs(complex(scalar)) <= 1e-8 * b * b
