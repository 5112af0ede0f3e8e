"""Minimization of ||u + lambda*v|| and ||A + lambda*B|| over a scalar lambda.

The vector problem has a closed form.  The matrix problem is convex in
(Re lambda, Im lambda), so alternating line searches over a bounding box
converge to the global infimum; the search also cycles a 45-degree rotated
coordinate frame to avoid the classic coordinate-descent stall on
non-smooth valleys.  Each line search is Brent's method (parabolic
interpolation safeguarded by golden-section steps; Brent, Algorithms for
Minimization without Derivatives, 1973, ch. 5): the pencil norm is smooth
along almost every line, where the parabolic steps converge superlinearly,
and at a kink the safeguard falls back to golden section.  The same line
minimizer sharpens the separating angle of the numerical-range test in
`decision`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import Field, InputError, Matrix, Vector, inner, _check_pair, _sigma_max_sq

_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0   # golden-section step as a share of the bracket
DEFAULT_TOL = 1e-7
DEFAULT_BUDGET = 100_000
MAX_FRAMES = 64   # coordinate-frame sweeps before global_inf_lambda gives up


@dataclass(frozen=True)
class LineMinResult:
    """Outcome of a scalar-parameter norm minimization.

    value : float
        Best objective value found.
    lambda_star : float or complex
        Scalar achieving it (float for the real field).
    evaluations : int
        Number of objective evaluations spent.
    budget_limited : bool
        True when the evaluation cap was hit before the tolerance.
    stop_reason : str
        Why the search ended: "converged" (closed form, or the value stopped
        improving), "budget" (evaluation cap) or "frame_cap" (MAX_FRAMES
        sweeps ran while the value was still improving).
    """

    value: float
    lambda_star: object
    evaluations: int
    budget_limited: bool = False
    stop_reason: str = "converged"


def inner_inf(u: Vector, v: Vector, field=None) -> LineMinResult:
    """Closed-form inf over lambda of ||u + lambda*v||.

    With c = <u, v> and v != 0 the minimizer is lambda* = -c / ||v||^2 and the
    squared value is ||u||^2 - |c|^2 / ||v||^2 (clamped at zero against
    rounding).  For v = 0 every lambda ties, so (||u||, 0) is returned.
    """
    fld = _check_pair(u, v, field=field)
    uu = float(np.vdot(u.data, u.data).real)
    vv = float(np.vdot(v.data, v.data).real)
    if vv == 0.0:
        lam = 0.0 if fld is Field.REAL else complex(0.0)
        return LineMinResult(math.sqrt(uu), lam, 0)
    c = inner(u, v)
    val = math.sqrt(max(uu - abs(c) ** 2 / vv, 0.0))
    lam = -c / vv
    if fld is Field.REAL:
        lam = float(lam)
    return LineMinResult(val, lam, 0)


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


def _brent_line(f, a: float, b: float, xtol: float, budget: _Budget):
    """Minimize a unimodal f on [a, b] by Brent's method.

    Returns (x_best, f_best, exhausted): the point of lowest value among
    those evaluated, and whether the budget ran out first.  Unless it did,
    the search ends once the bracket around x_best, which holds the
    minimizer of a unimodal f, is at most xtol wide.  xtol is absolute:
    at a kink the value error is the slope times the error in x, so a term
    relative to |x| would loosen the value by an amount set by where the
    bracket happens to sit.

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
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx, False


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
        Cap on spectral-norm evaluations; when exhausted the best value so
        far is returned with budget_limited set instead of raising.

    The search also stops after MAX_FRAMES coordinate-frame sweeps; the
    result's stop_reason says which of the three ends was reached.

    The minimizer lies in the disk |lambda| <= 2||a||/||b||, which bounds the
    search box.  lambda = 0 is always evaluated, so the result never exceeds
    ||a||.
    """
    fld = _check_pair(a, b)
    if tol <= 0.0:
        raise InputError("tol must be positive")

    meter = _Budget(budget)
    meter.spend()
    norm_a = math.sqrt(_sigma_max_sq(a.data))
    meter.spend()
    norm_b = math.sqrt(_sigma_max_sq(b.data))
    lam0 = 0.0 if fld is Field.REAL else complex(0.0)
    if norm_b == 0.0 or norm_a == 0.0:
        return LineMinResult(norm_a, lam0, meter.used)

    # Work on A/||A||, B/||A||: the search trajectory then depends only on
    # the scale-free shape of the pencil, so (cA, cB) retraces the steps of
    # (A, B) exactly and the result scales by |c| to rounding accuracy.
    unit = norm_a
    aa = a.data / unit
    ba = b.data / unit
    norm_bn = norm_b / unit
    tol_n = tol / unit
    radius = 2.0 / norm_bn
    xtol = max(min(tol_n, 1e-9) / norm_bn, 1e-15 * radius)
    stop_gain = min(tol_n, 1e-9) / 10.0

    def f(lam: complex) -> float:
        arg = lam if fld is Field.COMPLEX else lam.real
        return math.sqrt(_sigma_max_sq(aa + arg * ba))

    best_val = 1.0   # the lambda = 0 objective in normalized units, exactly
    best_lam = 0.0 + 0.0j

    def eval_at(lam: complex) -> float:
        nonlocal best_val, best_lam
        val = f(lam)
        if val < best_val:
            best_val, best_lam = val, lam
        return val

    if fld is Field.REAL:
        frames = [[1.0 + 0.0j]]
    else:
        s = 1.0 / math.sqrt(2.0)
        frames = [[1.0 + 0.0j, 0.0 + 1.0j], [complex(s, s), complex(s, -s)]]
    span = radius * math.sqrt(2.0)

    exhausted = False
    stagnant = 0
    need_stagnant = 1 if len(frames) == 1 else 2
    stop_reason = "frame_cap"
    for i in range(MAX_FRAMES):
        val_before = best_val
        for d in frames[i % len(frames)]:
            center = best_lam

            def g(t: float) -> float:
                return eval_at(center + t * d)

            _, _, exhausted = _brent_line(g, -span, span, xtol, meter)
            if exhausted:
                break
        if exhausted:
            stop_reason = "budget"
            break
        stagnant = stagnant + 1 if val_before - best_val < stop_gain else 0
        if stagnant >= need_stagnant and i >= 1:
            stop_reason = "converged"
            break

    value = best_val * unit
    lam_out = best_lam
    if value > norm_a:   # rounding from the rescale; lambda = 0 is feasible
        value, lam_out = norm_a, 0.0 + 0.0j
    lam_final = float(lam_out.real) if fld is Field.REAL else complex(lam_out)
    return LineMinResult(value, lam_final, meter.used, exhausted, stop_reason)


def limit_lemma_check(scalar, b: float, samples: int = 16) -> bool:
    """Sampled test of: 0 <= |lam|^2 * b^2 + 2*Re(conj(lam) * scalar) for all lam.

    The sample set is deterministic: magnitudes 1, 1e-1, ..., 1e-8 crossed
    with the four axis directions, the directions aligned with the phase of
    the scalar (which make the test sharp), and `samples` further roots of
    unity.  A True answer therefore pins |scalar| <= 1e-8 * b^2 / 2.

    Parameters
    ----------
    scalar : complex or float
    b : float
        Nonnegative magnitude entering the quadratic term.
    samples : int
        Extra sampled directions, at least 4.
    """
    if b < 0.0:
        raise InputError("b must be nonnegative")
    if samples < 4:
        raise InputError("samples must be at least 4")
    z = complex(scalar)
    dirs = [1.0 + 0.0j, -1.0 + 0.0j, 0.0 + 1.0j, 0.0 - 1.0j]
    if abs(z) > 0.0:
        ph = z / abs(z)
        dirs += [ph, -ph, 1j * ph, -1j * ph]
    dirs += [cmath.exp(2j * cmath.pi * k / samples) for k in range(samples)]
    mags = [10.0 ** (-e) for e in range(9)]
    bb = b * b
    for t in mags:
        for d in dirs:
            lam = t * d
            if abs(lam) ** 2 * bb + 2.0 * (lam.conjugate() * z).real < 0.0:
                return False
    return True
